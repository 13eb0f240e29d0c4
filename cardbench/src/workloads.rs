//! The three workload scripts.
//!
//! Each pass of a workload sets a fresh world up ([`Workload::setup`],
//! timed as `setup_s`) and then runs its closed-loop batch script
//! ([`Workload::run`], timed as `run_s`): every call into the workspace is
//! made only after the previous one returned. Benchmark-side work inside
//! the script — output checks, counter reads, building the repeat mix from
//! earlier answers — runs through [`Pass::off`] and is excluded from
//! `run_s`.
//!
//! Shared settings: scenario-5 density (`scaled_scenario`), R = 2, r = 8,
//! NoC = 4, D = 3, edge selection, 100 ms mobility tick and 1 s validation
//! period, unless a workload says otherwise.

use crate::check::{self, Checks};
use crate::metrics::Tally;
use crate::timed::Timed;
use crate::trace::Recorder;
use card_core::{CardConfig, CardWorld, DriveMode, EventDriver, QueryOutcome};
use experiments::scale::scaled_scenario;
use manet_routing::network::Network;
use mobility::{RandomWalk, RegionalMobility};
use net_topology::node::NodeId;
use sim_core::faults::{FaultConfig, FaultPlan, PartitionWindow};
use sim_core::rng::{RngStream, SeedSplitter};
use sim_core::stats::MsgKind;
use sim_core::time::SimDuration;
use std::time::Instant;

/// Zone radius R.
pub const RADIUS: u16 = 2;
/// Query escalation depth D.
pub const DEPTH: u16 = 3;

/// `paper-sweep`: the (r, NoC) contact configurations swept.
pub const PAPER_CONFIGS: [(u16, usize); 4] = [(6, 2), (8, 4), (8, 8), (10, 6)];
/// `paper-sweep`: uniform queries swept per configuration.
pub const PAPER_QUERIES: usize = 8_192;

/// `mobile-churn`: validation rounds driven.
pub const CHURN_ROUNDS: u32 = 10;
/// `mobile-churn`: standing subscriptions registered per round over the
/// first rounds, until [`CHURN_STANDING`] are live.
pub const CHURN_STANDING_PER_ROUND: usize = 4;
/// `mobile-churn`: standing subscriptions registered in all.
pub const CHURN_STANDING: usize = 32;
/// `mobile-churn`: one-shot queries sent after each round.
pub const CHURN_SINGLES_PER_ROUND: usize = 100;
/// `mobile-churn`: uniform queries in the closing sweep.
pub const CHURN_QUERIES: usize = 32_768;

/// `hostile-query`: validation rounds driven (the fault plan's horizon).
pub const HOSTILE_ROUNDS: u32 = 8;
/// `hostile-query`: uniform queries in the calm cache-off sweep.
pub const HOSTILE_PROBE_QUERIES: usize = 4_096;
/// `hostile-query`: uniform queries swept after each round.
pub const HOSTILE_UNIFORM: usize = 2_048;
/// `hostile-query`: repeat-mix queries swept after each round.
pub const HOSTILE_REPEAT: usize = 6_144;
/// `hostile-query`: distinct resolved pairs the repeat mix draws from.
pub const HOSTILE_REPEAT_POOL: usize = 512;
/// `hostile-query`: repeat-mix draws per ranking of the pool. The Zipf head
/// takes a fifth of the draws, so re-ranking keeps one pair's fate under
/// the fault plan from setting the whole run's cost.
pub const HOSTILE_REPEAT_RANKING: usize = 512;
/// `hostile-query`: Zipf exponent of the repeat mix.
pub const ZIPF_S: f64 = 1.1;

const SELECTION_KINDS: [MsgKind; 3] = [MsgKind::Csq, MsgKind::CsqBacktrack, MsgKind::CsqReply];
const MAINTENANCE_KINDS: [MsgKind; 2] = [MsgKind::Validation, MsgKind::ValidationReply];

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Static network; per contact configuration: selection, reachability
    /// at D = 1 and 3, one validation round and a uniform query sweep.
    PaperSweep,
    /// Every node walks every tick; tick-mode drive with hints on,
    /// standing subscriptions and one-shot queries between rounds.
    MobileChurn,
    /// Static network with an armed fault plan; query sweeps after every
    /// round, uniform and a Zipf repeat mix.
    HostileQuery,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::MobileChurn,
        Workload::HostileQuery,
    ];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::MobileChurn => "mobile-churn",
            Workload::HostileQuery => "hostile-query",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generate the pass's inputs from the seed (untimed).
    pub fn inputs(self, p: &Params) -> Inputs {
        let split = SeedSplitter::new(p.seed);
        let mut rng = split.stream("cardbench-inputs", 0);
        let n = p.nodes;
        let count = match self {
            Workload::PaperSweep => PAPER_QUERIES,
            Workload::MobileChurn => {
                CHURN_STANDING + CHURN_ROUNDS as usize * CHURN_SINGLES_PER_ROUND + CHURN_QUERIES
            }
            Workload::HostileQuery => {
                HOSTILE_PROBE_QUERIES + HOSTILE_ROUNDS as usize * HOSTILE_UNIFORM
            }
        };
        Inputs {
            pairs: uniform_pairs(n, count, &mut rng),
            repeat_rng: split.stream("cardbench-repeat-mix", 0),
        }
    }

    /// Build the pass's world(s) — `setup_s` times this call.
    pub fn setup(self, p: &Params, rec: &Recorder) -> Prepared {
        let scenario = scaled_scenario(p.nodes);
        let net = Network::from_scenario(&scenario, RADIUS, p.seed);
        let split = SeedSplitter::new(p.seed);
        let cfg = base_config(p.seed);
        let n = p.nodes;
        let field = scenario.field();
        match self {
            Workload::PaperSweep => Prepared::Paper(
                PAPER_CONFIGS
                    .iter()
                    .map(|&(r, noc)| {
                        let c = cfg.with_max_contact_distance(r).with_target_contacts(noc);
                        CardWorld::from_network(net.clone(), c)
                    })
                    .collect(),
            ),
            Workload::MobileChurn => {
                let world = CardWorld::from_network(net, cfg.with_hints(true));
                let walk = RandomWalk::new(
                    n,
                    field,
                    0.5,
                    2.0,
                    10.0,
                    split.stream("cardbench-mobility", 0),
                );
                let mut model = RegionalMobility::new();
                model.push_region(n, Box::new(Timed::new(Box::new(walk), rec.clone())));
                Prepared::Driven { world, model }
            }
            Workload::HostileQuery => {
                let world = CardWorld::from_network(net, cfg.with_hints(true));
                let faults = FaultConfig {
                    churn_rate: 0.1,
                    rejoin_after: 2,
                    partition: Some(PartitionWindow {
                        start_round: 1,
                        end_round: 1 + HOSTILE_ROUNDS / 2,
                        fraction: 0.5,
                    }),
                    drop_rate: 0.01,
                    delay_rate: 0.01,
                    rounds: HOSTILE_ROUNDS,
                };
                let plan =
                    FaultPlan::generate(&faults, n, split.derive_seed("cardbench-faults", 0));
                Prepared::Hostile { world, plan }
            }
        }
    }

    /// Run the pass's script over `prepared`.
    pub fn run(self, prepared: Prepared, inputs: &mut Inputs, pass: &mut Pass) {
        match (self, prepared) {
            (Workload::PaperSweep, Prepared::Paper(worlds)) => paper_sweep(worlds, inputs, pass),
            (Workload::MobileChurn, Prepared::Driven { world, model }) => {
                mobile_churn(world, model, inputs, pass)
            }
            (Workload::HostileQuery, Prepared::Hostile { world, plan }) => {
                hostile_query(world, plan, inputs, pass)
            }
            (w, _) => panic!("{} was handed another workload's set-up", w.name()),
        }
    }
}

/// Workload size and seed.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Nodes N.
    pub nodes: usize,
    /// Workload seed: placement, protocol RNG, mobility, faults, queries.
    pub seed: u64,
}

/// Seeded inputs of one pass.
pub struct Inputs {
    /// Uniform (source, target) pairs, consumed in order.
    pairs: Vec<(NodeId, NodeId)>,
    /// Draws of the `hostile-query` repeat mix.
    repeat_rng: RngStream,
}

/// A pass's set-up world(s).
pub enum Prepared {
    /// One world per `paper-sweep` configuration over one network.
    Paper(Vec<CardWorld>),
    /// A world and its (timed) mobility partition.
    Driven {
        /// The world.
        world: CardWorld,
        /// Its regional mobility, each region wrapped in [`Timed`].
        model: RegionalMobility,
    },
    /// A world and the fault plan to arm.
    Hostile {
        /// The world.
        world: CardWorld,
        /// The plan armed after the calm cache-off sweep.
        plan: FaultPlan,
    },
}

/// One pass's script state: timed calls, excluded work, checks, tallies.
pub struct Pass {
    /// The shared call timer.
    pub rec: Recorder,
    /// Timed calls made.
    pub ops: u64,
    /// Seconds of benchmark-side work excluded from `run_s`.
    pub excluded_s: f64,
    /// Output checks.
    pub checks: Checks,
    /// Raw tallies.
    pub tally: Tally,
    /// Path census of the world's contact tables, while still current.
    prints: Option<Vec<(u32, u32, u64)>>,
}

impl Pass {
    /// A fresh pass reporting to `rec`.
    pub fn new(rec: Recorder) -> Self {
        Pass {
            rec,
            ops: 0,
            excluded_s: 0.0,
            checks: Checks::default(),
            tally: Tally::default(),
            prints: None,
        }
    }

    /// Time one call into `layer`; returns its result and wall seconds.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        op: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        self.ops += 1;
        let open = self.rec.begin(layer, op);
        let r = f();
        let secs = self.rec.end(open);
        (r, secs)
    }

    /// Run benchmark-side work, excluded from `run_s`.
    pub fn off<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let t = Instant::now();
        let r = f(self);
        self.excluded_s += t.elapsed().as_secs_f64();
        r
    }
}

fn base_config(seed: u64) -> CardConfig {
    CardConfig::default()
        .with_radius(RADIUS)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_depth(DEPTH)
        .with_seed(seed)
}

fn uniform_pairs(n: usize, count: usize, rng: &mut RngStream) -> Vec<(NodeId, NodeId)> {
    assert!(n >= 2, "queries need two distinct nodes");
    (0..count)
        .map(|_| {
            let s = rng.index(n);
            let t = (s + 1 + rng.index(n - 1)) % n;
            (NodeId::from(s), NodeId::from(t))
        })
        .collect()
}

fn msgs(w: &CardWorld, kinds: &[MsgKind]) -> u64 {
    kinds.iter().map(|&k| w.stats().total(k)).sum()
}

fn take_pairs(inputs: &mut Inputs, count: usize) -> Vec<(NodeId, NodeId)> {
    inputs.pairs.drain(..count).collect()
}

fn select(pass: &mut Pass, w: &mut CardWorld) {
    let before = pass.off(|_| {
        (
            w.stats().total(MsgKind::Csq),
            w.stats().total(MsgKind::CsqBacktrack),
            msgs(w, &SELECTION_KINDS),
        )
    });
    let (_, secs) = pass.call("selection", "CardWorld::select_all_contacts", || {
        w.select_all_contacts()
    });
    pass.off(|pass| {
        let t = &mut pass.tally;
        t.add("sel.secs", secs);
        t.add("sel.csq", (w.stats().total(MsgKind::Csq) - before.0) as f64);
        t.add(
            "sel.backtrack",
            (w.stats().total(MsgKind::CsqBacktrack) - before.1) as f64,
        );
        t.add("sel.msgs", (msgs(w, &SELECTION_KINDS) - before.2) as f64);
        t.add("sel.contacts", w.total_contacts() as f64);
        let cfg = w.config();
        t.add(
            "sel.capacity",
            (w.network().node_count() * cfg.target_contacts) as f64,
        );
        check::check_world(w, &mut pass.checks);
        pass.prints = None;
    });
}

/// One validation round run through `f`, with the per-round checks and
/// the clean-path census around it. Returns the call's wall seconds.
fn round(
    pass: &mut Pass,
    w: &mut CardWorld,
    op: &'static str,
    f: impl FnOnce(&mut CardWorld),
) -> f64 {
    // Only selection and rounds write contact tables, so the census taken
    // after the previous round still describes the tables.
    let (before, sel0) = pass.off(|pass| {
        let before = pass.prints.take().unwrap_or_else(|| check::path_prints(w));
        (before, msgs(w, &SELECTION_KINDS))
    });
    let (_, secs) = pass.call("maintenance", op, || f(w));
    pass.off(|pass| {
        let t = &mut pass.tally;
        t.sample("round_ms", secs * 1e3);
        t.add("rounds", 1.0);
        t.add("maint.reselect", (msgs(w, &SELECTION_KINDS) - sel0) as f64);
        check::check_world(w, &mut pass.checks);
        let after = check::path_prints(w);
        pass.tally.add("maint.paths", before.len() as f64);
        pass.tally.add(
            "maint.clean",
            check::unchanged_paths(&before, &after) as f64,
        );
        pass.prints = Some(after);
    });
    secs
}

fn tally_outcomes(t: &mut Tally, outs: &[QueryOutcome]) {
    for o in outs {
        t.add("q.sent", 1.0);
        t.add("q.dsq", o.query_msgs as f64);
        t.add("q.reply", o.reply_msgs as f64);
        if o.found {
            t.add("q.found", 1.0);
            t.add("q.depth", f64::from(o.depth_used));
        }
    }
}

fn sweep(pass: &mut Pass, w: &mut CardWorld, pairs: &[(NodeId, NodeId)]) -> Vec<QueryOutcome> {
    let (outs, secs) = pass.call("query", "CardWorld::query_all", || w.query_all(pairs));
    pass.off(|pass| {
        pass.tally.sample("sweep_ms", secs * 1e3);
        pass.tally.add("q.secs", secs);
        tally_outcomes(&mut pass.tally, &outs);
    });
    outs
}

fn single_query(pass: &mut Pass, w: &mut CardWorld, (s, t): (NodeId, NodeId)) {
    let (out, secs) = pass.call("query", "CardWorld::query", || w.query(s, t));
    pass.off(|pass| {
        pass.tally.sample("single_us", secs * 1e6);
        pass.tally.add("q.secs", secs);
        tally_outcomes(&mut pass.tally, &[out]);
    });
}

fn reachability(pass: &mut Pass, w: &CardWorld, depth: u16) -> f64 {
    let (s, secs) = pass.call("reachability", "CardWorld::reachability_summary", || {
        w.reachability_summary(depth)
    });
    pass.tally.add("reach.secs", secs);
    s.mean_pct
}

/// The end-of-run reachability of a non-sweep workload: computed outside
/// `run_s`, but timed for `reachability.summary_s`.
fn closing_reachability(pass: &mut Pass, w: &CardWorld) {
    pass.off(|pass| {
        let t = Instant::now();
        let pct = w.reachability_summary(DEPTH).mean_pct;
        pass.tally.add("reach.secs", t.elapsed().as_secs_f64());
        pass.tally.add("reach.sum", pct);
        pass.tally.add("reach.count", 1.0);
    });
}

/// Fold a finished world's cumulative counters into the pass.
fn absorb_world(pass: &mut Pass, w: &CardWorld) {
    pass.off(|pass| {
        check::check_world(w, &mut pass.checks);
        let t = &mut pass.tally;
        t.add("worlds", 1.0);
        t.add("nodes", w.network().node_count() as f64);
        t.add("msg.selection", msgs(w, &SELECTION_KINDS) as f64);
        t.add("msg.maintenance", msgs(w, &MAINTENANCE_KINDS) as f64);
        t.add(
            "msg.standing_probe",
            w.stats().total(MsgKind::StandingProbe) as f64,
        );
        let m = w.maintenance_totals();
        t.add("maint.validated", m.validated as f64);
        t.add("maint.lost", m.lost as f64);
        t.add("maint.recovered", m.recovered as f64);
        t.add("maint.dropped", m.dropped_out_of_range as f64);
        let h = w.hint_stats();
        t.add("hints.lookups", h.lookups as f64);
        t.add("hints.hits", h.hits as f64);
        t.add("hints.deposits", h.deposits as f64);
        t.add("hints.stale", (h.stale_ttl + h.stale_contact) as f64);
        t.add("hints.evicted", (h.evicted_lru + h.evicted_mobility) as f64);
        t.add("hints.probe_msgs", h.probe_msgs as f64);
        t.add(
            "hints.memory",
            w.hint_store().map_or(0, |s| s.memory_bytes()) as f64,
        );
        let p = w.plane_stats();
        t.add("plane.sent", p.sent as f64);
        t.add("plane.cross", p.cross_shard as f64);
        t.add("plane.dropped", p.dropped as f64);
        t.add("plane.delayed", p.delayed as f64);
        t.max("plane.max_round", p.max_round_msgs as f64);
        t.add("plane.metered", p.metered_crossings as f64);
        let f = w.fault_report();
        t.add("faults.crashes", f.crashes as f64);
        t.add("faults.rejoins", f.rejoins as f64);
        t.add("faults.down_end", f.down_now as f64);
        t.add("faults.retry_scheduled", f.retry.scheduled as f64);
        t.add("faults.retry_recovered", f.retry.recovered as f64);
        t.add("faults.retry_abandoned", f.retry.abandoned as f64);
        let s = w.standing_queries().stats();
        t.add("standing.breaks", s.breaks as f64);
        t.add("standing.reresolved", s.reresolved as f64);
        let shard_max = w.shard_memory_bytes().into_iter().max().unwrap_or(0);
        t.max("world.shard_mem_max", shard_max as f64);
    });
}

fn paper_sweep(worlds: Vec<CardWorld>, inputs: &mut Inputs, pass: &mut Pass) {
    let pairs = take_pairs(inputs, PAPER_QUERIES);
    for mut w in worlds {
        select(pass, &mut w);
        reachability(pass, &w, 1);
        let pct = reachability(pass, &w, DEPTH);
        pass.tally.add("reach.sum", pct);
        pass.tally.add("reach.count", 1.0);
        round(pass, &mut w, "CardWorld::validation_round", |w| {
            w.validation_round()
        });
        sweep(pass, &mut w, &pairs);
        absorb_world(pass, &w);
    }
}

/// Drive `rounds` validation rounds through a tick-mode [`EventDriver`].
/// Ticks and rounds are separate timed `drive` calls (layers `network` and
/// `maintenance`), one per tick lattice instant and one per round, so the
/// pipeline counters read after a tick segment are that tick's.
/// `between(pass, world, k)` runs after round `k`.
fn drive_rounds(
    pass: &mut Pass,
    w: &mut CardWorld,
    model: &mut RegionalMobility,
    rounds: u32,
    mut between: impl FnMut(&mut Pass, &mut CardWorld, u32),
) {
    let mut events = EventDriver::new(w, model, DriveMode::Tick, Vec::new());
    let tick = w.config().mobility_tick;
    let period = w.config().validation_period;
    let ticks_per_round = period.ticks() / tick.ticks();
    let us = SimDuration::from_micros(1);
    // Round 1 sits 1 µs after the start; later rounds 1 µs after every
    // period boundary, so a segment ending 1 µs past a boundary holds that
    // boundary's tick and not the round.
    let secs = round(pass, w, "EventDriver::drive", |w| {
        events.drive(w, model, us + us)
    });
    pass.tally.add("drive.secs", secs);
    between(pass, w, 0);
    for k in 1..rounds {
        for j in 0..ticks_per_round {
            let seg = if j + 1 == ticks_per_round {
                tick - us
            } else {
                tick
            };
            let (mob0, refreshes0) = (pass.rec.mobility().secs, events.report().refreshes);
            let (_, secs) = pass.call("network", "EventDriver::drive", || {
                events.drive(w, model, seg)
            });
            pass.off(|pass| {
                let mob = pass.rec.mobility().secs - mob0;
                let t = &mut pass.tally;
                t.sample("tick_ms", (secs - mob) * 1e3);
                t.add("ticks", 1.0);
                t.add("drive.secs", secs);
                if events.report().refreshes > refreshes0 {
                    let c = w.pipeline_counters();
                    t.add("net.rows_patched", c.rows_patched as f64);
                    t.add("net.grid_rebucketed", c.grid_rebucketed as f64);
                    t.add("net.changed", c.changed as f64);
                    t.add("net.dirty", c.dirty as f64);
                    t.add("net.fallback_ticks", u64::from(c.full_fallback) as f64);
                    t.add("net.movers_skipped", c.movers_skipped as f64);
                    t.add("net.kernel_lanes", c.kernel_lanes as f64);
                    t.add("net.kernel_exact", c.kernel_exact as f64);
                }
            });
        }
        let secs = round(pass, w, "EventDriver::drive", |w| {
            events.drive(w, model, us)
        });
        pass.tally.add("drive.secs", secs);
        between(pass, w, k);
    }
    pass.off(|pass| {
        let r = events.report();
        pass.checks
            .expect_zero("drive grid audit", r.audit_violations);
        pass.checks.expect(
            "drive round count",
            r.validation_rounds == u64::from(rounds),
        );
        let t = &mut pass.tally;
        t.add("ev.processed", r.events_processed as f64);
        t.add("ev.wakes", r.region_wakes as f64);
        t.add("ev.skipped", r.region_ticks_skipped as f64);
        t.add("ev.refreshes", r.refreshes as f64);
        t.add(
            "ev.virt_s",
            (period * u64::from(rounds - 1) + us + us).as_secs_f64(),
        );
    });
}

fn mobile_churn(
    mut w: CardWorld,
    mut model: RegionalMobility,
    inputs: &mut Inputs,
    pass: &mut Pass,
) {
    select(pass, &mut w);
    let standing = take_pairs(inputs, CHURN_STANDING);
    let singles = take_pairs(inputs, CHURN_ROUNDS as usize * CHURN_SINGLES_PER_ROUND);
    drive_rounds(pass, &mut w, &mut model, CHURN_ROUNDS, |pass, w, k| {
        let k = k as usize;
        let subscribe = standing.iter().skip(k * CHURN_STANDING_PER_ROUND);
        for &(s, t) in subscribe.take(CHURN_STANDING_PER_ROUND) {
            let (_, secs) = pass.call("standing", "CardWorld::standing_register", || {
                w.standing_register(s, t)
            });
            pass.tally.sample("register_us", secs * 1e6);
        }
        let batch = &singles[k * CHURN_SINGLES_PER_ROUND..(k + 1) * CHURN_SINGLES_PER_ROUND];
        for &pair in batch {
            single_query(pass, w, pair);
        }
    });
    let pairs = take_pairs(inputs, CHURN_QUERIES);
    sweep(pass, &mut w, &pairs);
    closing_reachability(pass, &w);
    absorb_world(pass, &w);
}

/// `count` draws from `pool` with Zipf(`ZIPF_S`) weights over pool rank;
/// the pool is shuffled into a fresh ranking every
/// [`HOSTILE_REPEAT_RANKING`] draws.
fn zipf_mix(
    pool: &mut [(NodeId, NodeId)],
    count: usize,
    rng: &mut RngStream,
) -> Vec<(NodeId, NodeId)> {
    let mut cdf = Vec::with_capacity(pool.len());
    let mut acc = 0.0;
    for k in 0..pool.len() {
        acc += 1.0 / ((k + 1) as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        rng.shuffle(pool);
        for _ in 0..HOSTILE_REPEAT_RANKING.min(count - out.len()) {
            let u = rng.next_f64() * acc;
            let i = cdf.partition_point(|&c| c <= u).min(pool.len() - 1);
            out.push(pool[i]);
        }
    }
    out
}

fn hostile_query(mut w: CardWorld, plan: FaultPlan, inputs: &mut Inputs, pass: &mut Pass) {
    select(pass, &mut w);
    let probe = take_pairs(inputs, HOSTILE_PROBE_QUERIES);
    let (outs, secs) = pass.call("query", "CardWorld::query_all_cache_off", || {
        w.query_all_cache_off(&probe)
    });
    let mut pool = pass.off(|pass| {
        pass.tally.sample("sweep_ms", secs * 1e3);
        pass.tally.add("q.secs", secs);
        tally_outcomes(&mut pass.tally, &outs);
        let resolved: Vec<_> = probe
            .iter()
            .zip(&outs)
            .filter(|(_, o)| o.found)
            .map(|(&p, _)| p)
            .take(HOSTILE_REPEAT_POOL)
            .collect();
        pass.checks
            .expect("repeat pool non-empty", !resolved.is_empty());
        resolved
    });
    pass.call("faults", "CardWorld::enable_faults", || {
        w.enable_faults(plan)
    });
    for _ in 0..HOSTILE_ROUNDS {
        round(pass, &mut w, "CardWorld::validation_round", |w| {
            w.validation_round()
        });
        let uniform = take_pairs(inputs, HOSTILE_UNIFORM);
        sweep(pass, &mut w, &uniform);
        if !pool.is_empty() {
            let repeat = pass.off(|_| zipf_mix(&mut pool, HOSTILE_REPEAT, &mut inputs.repeat_rng));
            sweep(pass, &mut w, &repeat);
        }
    }
    closing_reachability(pass, &w);
    absorb_world(pass, &w);
}
