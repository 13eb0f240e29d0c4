//! The metric catalogue and the per-pass tallies it is computed from.
//!
//! [`END_TO_END`] and [`PER_LAYER`] name every metric the benchmark prints,
//! with its unit; `BENCHMARK.json` at the repository root declares the same
//! names and units (the package's test checks that they agree). A run
//! prints exactly the end-to-end set untraced and exactly the per-layer
//! set traced.

use std::collections::BTreeMap;

/// How a metric is combined across the passes of one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A measured time or rate: the median over passes is reported.
    Timing,
    /// An output of the deterministic program: it must repeat exactly in
    /// every pass, traced or not, or the run fails.
    Count,
    /// Measured once per run (peak memory).
    Once,
}

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// How passes are combined.
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, kind: Kind) -> Metric {
    Metric { name, unit, kind }
}

use Kind::{Count, Once, Timing};

/// Metrics a CARD user sees, printed by an untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Timing),
    m("run_s", "s", Timing),
    m("peak_rss_mib", "MiB", Once),
    m("reachability_pct", "%", Count),
    m("selection_msgs_per_node", "msgs/node", Count),
    m("maintenance_msgs_per_node_round", "msgs/node/round", Count),
    m("msgs_per_query", "msgs/query", Count),
    m("query_success_pct", "%", Count),
];

/// Metrics of single layers, printed by a traced run. Layers are named
/// after the workspace modules the benchmark calls into.
pub const PER_LAYER: &[Metric] = &[
    m("mobility.step_s", "s", Timing),
    m("mobility.movers_per_tick", "nodes/tick", Count),
    m("network.tick_ms_p50", "ms", Timing),
    m("network.tick_ms_p90", "ms", Timing),
    m("network.rows_patched", "count", Count),
    m("network.grid_rebucketed", "count", Count),
    m("network.changed", "count", Count),
    m("network.dirty", "count", Count),
    m("network.fallback_ticks", "count", Count),
    m("network.movers_skipped", "count", Count),
    m("net_topology.kernel_lanes", "count", Count),
    m("net_topology.kernel_exact_pct", "%", Count),
    m("selection.select_s", "s", Timing),
    m("selection.cpu_util", "ratio", Timing),
    m("selection.csq_msgs", "count", Count),
    m("selection.backtrack_msgs", "count", Count),
    m("selection.contacts", "count", Count),
    m("selection.msgs_per_contact", "msgs/contact", Count),
    m("selection.noc_fill_pct", "%", Count),
    m("maintenance.round_ms_p50", "ms", Timing),
    m("maintenance.round_ms_p90", "ms", Timing),
    m("maintenance.cpu_util", "ratio", Timing),
    m("maintenance.validated", "count", Count),
    m("maintenance.lost", "count", Count),
    m("maintenance.recovered", "count", Count),
    m("maintenance.dropped_out_of_range", "count", Count),
    m("maintenance.reselect_msgs", "count", Count),
    m("maintenance.clean_path_pct", "%", Count),
    m("query.sweep_ms_p50", "ms", Timing),
    m("query.sweep_ms_p90", "ms", Timing),
    m("query.single_us_p50", "us", Timing),
    m("query.single_us_p99", "us", Timing),
    m("query.queries_per_s", "1/s", Timing),
    m("query.mean_depth", "depth", Count),
    m("query.dsq_msgs", "count", Count),
    m("query.reply_msgs", "count", Count),
    m("hints.hit_pct", "%", Count),
    m("hints.lookups", "count", Count),
    m("hints.deposits", "count", Count),
    m("hints.stale", "count", Count),
    m("hints.evicted", "count", Count),
    m("hints.probe_msgs", "count", Count),
    m("hints.memory_bytes", "bytes", Count),
    m("plane.sent", "count", Count),
    m("plane.cross_shard", "count", Count),
    m("plane.dropped", "count", Count),
    m("plane.delayed", "count", Count),
    m("plane.max_round_msgs", "count", Count),
    m("plane.metered_crossings", "count", Count),
    m("faults.crashes", "count", Count),
    m("faults.rejoins", "count", Count),
    m("faults.down_end", "count", Count),
    m("faults.retry_scheduled", "count", Count),
    m("faults.retry_recovered", "count", Count),
    m("faults.retry_abandoned", "count", Count),
    m("events.drive_s", "s", Timing),
    m("events.events_processed", "count", Count),
    m("events.region_wakes", "count", Count),
    m("events.ticks_skipped", "count", Count),
    m("events.refreshes", "count", Count),
    m("events.virt_per_wall", "ratio", Timing),
    m("standing.register_us_p50", "us", Timing),
    m("standing.breaks", "count", Count),
    m("standing.re_resolved", "count", Count),
    m("standing.probe_msgs", "count", Count),
    m("reachability.summary_s", "s", Timing),
    m("world.shard_mem_bytes_max", "bytes", Count),
    m("selection.self_s", "s", Timing),
    m("maintenance.self_s", "s", Timing),
    m("network.self_s", "s", Timing),
    m("mobility.self_s", "s", Timing),
    m("query.self_s", "s", Timing),
    m("standing.self_s", "s", Timing),
    m("reachability.self_s", "s", Timing),
    m("faults.self_s", "s", Timing),
    m("trace.attributed_pct", "%", Timing),
    m("trace.overhead_s", "s", Timing),
];

/// Raw tallies of one pass: summed counters, maxima and timing samples,
/// keyed by short names the workloads and [`crate::run`] share.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    sums: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tally {
    /// Add `v` to counter `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_default() += v;
    }

    /// Raise counter `key` to at least `v`.
    pub fn max(&mut self, key: &'static str, v: f64) {
        let e = self.sums.entry(key).or_default();
        *e = e.max(v);
    }

    /// Record one timing sample.
    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    /// Counter `key` (0 if never touched).
    pub fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Nearest-rank percentile `q` (in `[0, 1]`) of sample set `key`; 0
    /// when the pass took no such sample.
    pub fn pct(&self, key: &str, q: f64) -> f64 {
        self.samples.get(key).map_or(0.0, |v| percentile(v, q))
    }
}

/// Nearest-rank percentile of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
