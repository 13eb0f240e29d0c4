//! The CARD benchmark: three seeded workloads at N = 10⁴ over the
//! workspace's public API, with output checks, end-to-end metrics from
//! untraced runs and a per-layer split from traced runs.
//!
//! A run repeats its workload in passes until its time budget is spent.
//! Each pass sets a fresh world up and runs the workload's script (see
//! [`workloads`]); timings are reported as the median over passes, and the
//! program's deterministic outputs must repeat exactly in every pass. A
//! traced run alternates untraced and traced passes: its per-layer
//! timings come from the traced passes, its tracing overhead is the
//! difference between the two kinds, and the counters of both kinds must
//! agree.

pub mod check;
pub mod metrics;
pub mod timed;
pub mod trace;
pub mod workloads;

use metrics::{median, ratio, Kind, Metric, Tally, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{LayerTimes, MobilityTally, Recorder};
use workloads::{Params, Pass, Workload};

/// Upper bound on passes per run (keeps a long run at tiny N bounded).
pub const MAX_PASSES: usize = 64;

/// Set-ups timed per pass (`setup_s` is their median).
pub const SETUPS_PER_PASS: usize = 7;

/// What one invocation runs.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Time budget: passes start while the next one is expected to end
    /// within it (at least one pass, two when tracing).
    pub seconds: f64,
    /// Print the per-layer metrics of a traced run instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Nodes N.
    pub nodes: usize,
}

/// The combined result of one invocation.
pub struct Outcome {
    /// The printed metric set, in catalogue order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Timed calls made over all passes.
    pub attempted: u64,
    /// Failed checks over all passes, plus counters that did not repeat.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
    /// Passes run.
    pub passes: usize,
    /// The recorder, holding every traced pass's spans.
    pub recorder: Recorder,
}

struct PassResult {
    traced: bool,
    values: BTreeMap<&'static str, f64>,
}

/// Run `opts.workload` in passes and combine them.
pub fn run(opts: &Options) -> Outcome {
    let rec = Recorder::new();
    let params = Params {
        nodes: opts.nodes,
        seed: opts.seed,
    };
    let workers = sim_core::par::max_workers();
    let started = Instant::now();
    let mut results: Vec<PassResult> = Vec::new();
    let mut pass_walls = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut messages = Vec::new();
    loop {
        let idx = results.len() as u32;
        let traced = opts.trace && idx % 2 == 1;
        let pass_start = Instant::now();
        rec.start_pass(idx, traced);
        let mut inputs = opts.workload.inputs(&params);
        // Set up several times and keep the last world: the pass's set-up
        // time is the median, so one slow allocation does not set it.
        let mut setups = Vec::with_capacity(SETUPS_PER_PASS);
        let mut prepared = None;
        for _ in 0..SETUPS_PER_PASS {
            drop(prepared.take());
            let t0 = Instant::now();
            prepared = Some(opts.workload.setup(&params, &rec));
            setups.push(t0.elapsed().as_secs_f64());
        }
        let prepared = prepared.expect("at least one set-up per pass");
        let setup_s = median(&setups);
        let mut pass = Pass::new(rec.clone());
        let t1 = Instant::now();
        opts.workload.run(prepared, &mut inputs, &mut pass);
        let run_s = t1.elapsed().as_secs_f64() - pass.excluded_s;
        let lt = traced.then(|| rec.layer_times(idx));
        let values = derive(
            &pass.tally,
            rec.mobility(),
            lt.as_ref(),
            workers,
            run_s,
            setup_s,
        );
        eprintln!(
            "cardbench: pass {idx}{}: setup {setup_s:.4} s, run {run_s:.4} s, pass {:.2} s",
            if traced { " (traced)" } else { "" },
            pass_start.elapsed().as_secs_f64()
        );
        attempted += pass.ops;
        failed += pass.checks.failed;
        messages.extend(
            pass.checks
                .messages
                .iter()
                .map(|m| format!("pass {idx}: {m}")),
        );
        results.push(PassResult { traced, values });
        pass_walls.push(pass_start.elapsed().as_secs_f64());
        let min_passes = if opts.trace { 2 } else { 1 };
        let next_end = started.elapsed().as_secs_f64() + median(&pass_walls);
        if results.len() >= MAX_PASSES || (results.len() >= min_passes && next_end > opts.seconds) {
            break;
        }
    }

    // Deterministic outputs must repeat in every pass, traced or not.
    for metric in END_TO_END.iter().chain(PER_LAYER) {
        if metric.kind != Kind::Count {
            continue;
        }
        let first = results[0].values[metric.name];
        if let Some(r) = results.iter().find(|r| r.values[metric.name] != first) {
            failed += 1;
            messages.push(format!(
                "{} did not repeat across passes: {} vs {}",
                metric.name, first, r.values[metric.name]
            ));
        }
    }

    let catalogue = if opts.trace { PER_LAYER } else { END_TO_END };
    let timed_passes: Vec<&PassResult> =
        results.iter().filter(|r| r.traced == opts.trace).collect();
    let median_of = |set: &[&PassResult], name: &str| {
        median(&set.iter().map(|r| r.values[name]).collect::<Vec<_>>())
    };
    let untraced: Vec<&PassResult> = results.iter().filter(|r| !r.traced).collect();
    let metrics = catalogue
        .iter()
        .map(|metric| {
            let value = match (metric.kind, metric.name) {
                (Kind::Once, _) => peak_rss_mib(),
                (_, "trace.overhead_s") => {
                    median_of(&timed_passes, "run_s") - median_of(&untraced, "run_s")
                }
                (Kind::Timing, name) => median_of(&timed_passes, name),
                (Kind::Count, name) => results[0].values[name],
            };
            if !value.is_finite() {
                failed += 1;
                messages.push(format!("{} is not finite", metric.name));
            }
            (metric, value)
        })
        .collect();
    Outcome {
        metrics,
        attempted,
        failed,
        messages,
        passes: results.len(),
        recorder: rec,
    }
}

/// Every metric of one pass, from its tallies. Metrics that need spans are
/// 0 in an untraced pass; `peak_rss_mib` and `trace.overhead_s` are
/// combined across passes by [`run`].
fn derive(
    t: &Tally,
    mob: MobilityTally,
    lt: Option<&LayerTimes>,
    workers: usize,
    run_s: f64,
    setup_s: f64,
) -> BTreeMap<&'static str, f64> {
    let nodes = t.get("nodes");
    let node_rounds = ratio(nodes, t.get("worlds")) * t.get("rounds");
    let sent = t.get("q.sent");
    let span = |map: fn(&LayerTimes) -> &BTreeMap<&'static str, f64>, layer: &str| {
        lt.and_then(|lt| map(lt).get(layer).copied()).unwrap_or(0.0)
    };
    let cpu_util = |layer: &str| {
        ratio(
            span(|l| &l.cpu_s, layer),
            span(|l| &l.wall_s, layer) * workers as f64,
        )
    };
    let self_s = |layer: &str| span(|l| &l.self_s, layer);
    BTreeMap::from([
        ("setup_s", setup_s),
        ("run_s", run_s),
        (
            "reachability_pct",
            ratio(t.get("reach.sum"), t.get("reach.count")),
        ),
        (
            "selection_msgs_per_node",
            ratio(t.get("msg.selection"), nodes),
        ),
        (
            "maintenance_msgs_per_node_round",
            ratio(t.get("msg.maintenance"), node_rounds),
        ),
        (
            "msgs_per_query",
            ratio(t.get("q.dsq") + t.get("q.reply"), sent),
        ),
        ("query_success_pct", 100.0 * ratio(t.get("q.found"), sent)),
        ("mobility.step_s", mob.secs),
        (
            "mobility.movers_per_tick",
            ratio(mob.movers as f64, t.get("ticks")),
        ),
        ("network.tick_ms_p50", t.pct("tick_ms", 0.5)),
        ("network.tick_ms_p90", t.pct("tick_ms", 0.9)),
        ("network.rows_patched", t.get("net.rows_patched")),
        ("network.grid_rebucketed", t.get("net.grid_rebucketed")),
        ("network.changed", t.get("net.changed")),
        ("network.dirty", t.get("net.dirty")),
        ("network.fallback_ticks", t.get("net.fallback_ticks")),
        ("network.movers_skipped", t.get("net.movers_skipped")),
        ("net_topology.kernel_lanes", t.get("net.kernel_lanes")),
        (
            "net_topology.kernel_exact_pct",
            100.0 * ratio(t.get("net.kernel_exact"), t.get("net.kernel_lanes")),
        ),
        ("selection.select_s", t.get("sel.secs")),
        ("selection.cpu_util", cpu_util("selection")),
        ("selection.csq_msgs", t.get("sel.csq")),
        ("selection.backtrack_msgs", t.get("sel.backtrack")),
        ("selection.contacts", t.get("sel.contacts")),
        (
            "selection.msgs_per_contact",
            ratio(t.get("sel.msgs"), t.get("sel.contacts")),
        ),
        (
            "selection.noc_fill_pct",
            100.0 * ratio(t.get("sel.contacts"), t.get("sel.capacity")),
        ),
        ("maintenance.round_ms_p50", t.pct("round_ms", 0.5)),
        ("maintenance.round_ms_p90", t.pct("round_ms", 0.9)),
        ("maintenance.cpu_util", cpu_util("maintenance")),
        ("maintenance.validated", t.get("maint.validated")),
        ("maintenance.lost", t.get("maint.lost")),
        ("maintenance.recovered", t.get("maint.recovered")),
        ("maintenance.dropped_out_of_range", t.get("maint.dropped")),
        ("maintenance.reselect_msgs", t.get("maint.reselect")),
        (
            "maintenance.clean_path_pct",
            100.0 * ratio(t.get("maint.clean"), t.get("maint.paths")),
        ),
        ("query.sweep_ms_p50", t.pct("sweep_ms", 0.5)),
        ("query.sweep_ms_p90", t.pct("sweep_ms", 0.9)),
        ("query.single_us_p50", t.pct("single_us", 0.5)),
        ("query.single_us_p99", t.pct("single_us", 0.99)),
        ("query.queries_per_s", ratio(sent, t.get("q.secs"))),
        (
            "query.mean_depth",
            ratio(t.get("q.depth"), t.get("q.found")),
        ),
        ("query.dsq_msgs", t.get("q.dsq")),
        ("query.reply_msgs", t.get("q.reply")),
        (
            "hints.hit_pct",
            100.0 * ratio(t.get("hints.hits"), t.get("hints.lookups")),
        ),
        ("hints.lookups", t.get("hints.lookups")),
        ("hints.deposits", t.get("hints.deposits")),
        ("hints.stale", t.get("hints.stale")),
        ("hints.evicted", t.get("hints.evicted")),
        ("hints.probe_msgs", t.get("hints.probe_msgs")),
        ("hints.memory_bytes", t.get("hints.memory")),
        ("plane.sent", t.get("plane.sent")),
        ("plane.cross_shard", t.get("plane.cross")),
        ("plane.dropped", t.get("plane.dropped")),
        ("plane.delayed", t.get("plane.delayed")),
        ("plane.max_round_msgs", t.get("plane.max_round")),
        ("plane.metered_crossings", t.get("plane.metered")),
        ("faults.crashes", t.get("faults.crashes")),
        ("faults.rejoins", t.get("faults.rejoins")),
        ("faults.down_end", t.get("faults.down_end")),
        ("faults.retry_scheduled", t.get("faults.retry_scheduled")),
        ("faults.retry_recovered", t.get("faults.retry_recovered")),
        ("faults.retry_abandoned", t.get("faults.retry_abandoned")),
        ("events.drive_s", t.get("drive.secs")),
        ("events.events_processed", t.get("ev.processed")),
        ("events.region_wakes", t.get("ev.wakes")),
        ("events.ticks_skipped", t.get("ev.skipped")),
        ("events.refreshes", t.get("ev.refreshes")),
        (
            "events.virt_per_wall",
            ratio(t.get("ev.virt_s"), t.get("drive.secs")),
        ),
        ("standing.register_us_p50", t.pct("register_us", 0.5)),
        ("standing.breaks", t.get("standing.breaks")),
        ("standing.re_resolved", t.get("standing.reresolved")),
        ("standing.probe_msgs", t.get("msg.standing_probe")),
        ("reachability.summary_s", t.get("reach.secs")),
        ("world.shard_mem_bytes_max", t.get("world.shard_mem_max")),
        (
            "trace.attributed_pct",
            100.0 * ratio(lt.map_or(0.0, |l| l.root_s), run_s),
        ),
        ("selection.self_s", self_s("selection")),
        ("maintenance.self_s", self_s("maintenance")),
        ("network.self_s", self_s("network")),
        ("mobility.self_s", self_s("mobility")),
        ("query.self_s", self_s("query")),
        ("standing.self_s", self_s("standing")),
        ("reachability.self_s", self_s("reachability")),
        ("faults.self_s", self_s("faults")),
    ])
}

/// Peak resident set (VmHWM) of this process so far, in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out commit, read from `.git` under `dir`; `"unknown"` when
/// `dir` is not a git checkout.
pub fn commit_id(dir: &std::path::Path) -> String {
    let git = dir.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
