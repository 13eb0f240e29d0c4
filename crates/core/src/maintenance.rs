//! Contact maintenance — §III.C.3.
//!
//! Periodically each source sends a validation message along every stored
//! contact path. A relay whose next hop is no longer a direct neighbor
//! attempts **local recovery**: it looks the next hop up in its own
//! neighborhood table — and failing that, each *subsequent* node of the
//! source path — and splices the intra-zone route in, so the path heals
//! without a new source-initiated search. Rules, verbatim from the paper:
//!
//! 3. a path that cannot be salvaged ⇒ contact lost;
//! 4. a validated path whose hop count leaves `[2R, r]` ⇒ contact lost;
//! 5. after validating, if fewer than NoC contacts remain, new selection is
//!    initiated (done by the caller — see [`crate::world::CardWorld`]).
//!
//! ## The intact-path fast path
//!
//! Most stored paths survive a round untouched (typically 80–90%). A
//! round therefore first checks every hop of a path; when all of them are
//! live and admitted, the contact is charged its hop count, loops are cut
//! in place, and it stays where it is in the table — no allocation. Only
//! a broken path runs local recovery, which walks the rest of the stored
//! path with an index cursor and splices intra-zone routes from a reused
//! buffer. Contacts are filtered in place, so the table keeps its own
//! allocation across rounds.

use manet_routing::network::Network;
use net_topology::node::NodeId;
use sim_core::stats::{MsgKind, MsgStats};
use sim_core::time::SimTime;

use crate::config::CardConfig;
use crate::contact::ContactTable;

/// Counters from one validation round of one source.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Contacts whose paths validated (possibly after recovery).
    pub validated: usize,
    /// Contacts lost (unsalvageable path).
    pub lost: usize,
    /// Contacts dropped by the `[2R, r]` hop rule.
    pub dropped_out_of_range: usize,
    /// Paths that needed (successful) local recovery.
    pub recovered: usize,
    /// Validation messages sent (forward hops, including recovery detours).
    pub validation_msgs: u64,
    /// Acknowledgement messages (reverse hops of validated paths).
    pub reply_msgs: u64,
}

/// Remove loops from a spliced path: keep the first occurrence of every
/// node, cutting the segment between repeats (the message would have
/// revisited a node — the node short-circuits the source route).
fn compress_loops(path: &mut Vec<NodeId>) {
    let mut i = 0;
    while i < path.len() {
        // find the LAST occurrence of path[i] and cut everything between
        if let Some(j) = (i + 1..path.len()).rev().find(|&j| path[j] == path[i]) {
            path.drain(i + 1..=j);
        }
        i += 1;
    }
}

/// Heal a stored path whose hop `(path[b], path[b + 1])` failed, with
/// local recovery where allowed: `healed` starts as the intact prefix
/// `path[..=b]` and the rest of the path is walked by index. Returns
/// whether the path was salvaged (the healed path is then in `healed`,
/// loops cut) plus whether recovery spliced anything in. `msgs` is
/// charged every hop the validation message travels, detours included.
///
/// `allowed` is an extra per-hop admission predicate layered on top of the
/// substrate's `is_link` (see [`validate_contacts_filtered`]); it also
/// vetoes the hops of a recovery splice, which would otherwise smuggle a
/// route through a region the fault plane has taken down.
#[allow(clippy::too_many_arguments)] // one validation message's state
fn heal_path(
    net: &Network,
    cfg: &CardConfig,
    path: &[NodeId],
    b: usize,
    healed: &mut Vec<NodeId>,
    route: &mut Vec<NodeId>,
    msgs: &mut u64,
    allowed: &dyn Fn(NodeId, NodeId) -> bool,
) -> (bool, bool) {
    healed.clear();
    healed.extend_from_slice(&path[..=b]);
    *msgs += b as u64;
    let mut used_recovery = false;
    let mut next = b + 1;
    'outer: while next < path.len() {
        let cur = *healed.last().expect("healed path starts at the source");
        if net.is_link(cur, path[next]) && allowed(cur, path[next]) {
            *msgs += 1; // the validation message traverses this hop
            healed.push(path[next]);
            next += 1;
            continue;
        }
        // Next hop is gone. Local recovery (§III.C.3): look for the next
        // hop — or any later node of the source path — in cur's
        // neighborhood table and splice the intra-zone route in. A path
        // that folds back onto `cur` itself splices the empty route
        // `[cur]`: it skips ahead at no cost.
        if cfg.local_recovery {
            for (k, &candidate) in path.iter().enumerate().skip(next) {
                if net.tables().of(cur).path_to_into(candidate, route) {
                    if !route.windows(2).all(|w| allowed(w[0], w[1])) {
                        continue;
                    }
                    // route = [cur, ..., candidate]; message walks it
                    *msgs += route.len() as u64 - 1;
                    healed.extend_from_slice(&route[1..]);
                    next = k + 1;
                    used_recovery = true;
                    continue 'outer;
                }
            }
        }
        return (false, used_recovery);
    }
    compress_loops(healed);
    (true, used_recovery)
}

/// Number of shard-boundary crossings along `path` when nodes are
/// partitioned into contiguous spans of `span_width` indices — how the
/// message plane meters validation traffic that the retained direct-read
/// implementation performs without materializing per-hop messages (see
/// `CardWorld::validation_round` and `PlaneStats::metered_crossings`).
pub fn path_shard_crossings(path: &[NodeId], span_width: usize) -> u64 {
    let w = span_width.max(1);
    path.windows(2)
        .filter(|p| p[0].index() / w != p[1].index() / w)
        .count() as u64
}

/// Run one §III.C.3 validation round for `source`: walk every contact
/// path, heal or drop, enforce the hop-range rule, count messages.
pub fn validate_contacts(
    net: &Network,
    cfg: &CardConfig,
    source: NodeId,
    table: &mut ContactTable,
    stats: &mut MsgStats,
    at: SimTime,
) -> ValidationReport {
    validate_contacts_filtered(net, cfg, source, table, stats, at, &|_, _| true)
}

/// [`validate_contacts`] with a per-hop admission predicate: a hop
/// `(cur, next)` is only traversable when it is a substrate link *and*
/// `allowed(cur, next)` holds. Fault injection passes a predicate that
/// vetoes crashed endpoints and partition-crossing hops; with the
/// pass-all predicate this is byte-identical to [`validate_contacts`].
pub fn validate_contacts_filtered(
    net: &Network,
    cfg: &CardConfig,
    source: NodeId,
    table: &mut ContactTable,
    stats: &mut MsgStats,
    at: SimTime,
    allowed: &dyn Fn(NodeId, NodeId) -> bool,
) -> ValidationReport {
    let mut report = ValidationReport::default();
    let (min_hops, max_hops) = cfg.valid_path_hops();
    let mut healed = Vec::new();
    let mut route = Vec::new();
    table.contacts_mut().retain_mut(|contact| {
        debug_assert_eq!(contact.source(), source, "foreign contact in table");
        let path = &mut contact.path;
        let broken = path
            .windows(2)
            .position(|w| !(net.is_link(w[0], w[1]) && allowed(w[0], w[1])));
        match broken {
            None => {
                // Intact: the message walks every stored hop.
                report.validation_msgs += path.len() as u64 - 1;
                compress_loops(path);
            }
            Some(b) => {
                let msgs = &mut report.validation_msgs;
                let (salvaged, recovered) =
                    heal_path(net, cfg, path, b, &mut healed, &mut route, msgs, allowed);
                if recovered {
                    report.recovered += 1;
                }
                if !salvaged {
                    report.lost += 1;
                    return false;
                }
                std::mem::swap(path, &mut healed);
            }
        }
        let hops = (path.len() - 1) as u16;
        if hops < min_hops || hops > max_hops {
            // Rule 4: contact drifted too close or too far.
            report.dropped_out_of_range += 1;
            return false;
        }
        // Ack travels back along the healed path.
        report.reply_msgs += hops as u64;
        report.validated += 1;
        true
    });

    stats.record_n(at, MsgKind::Validation, report.validation_msgs);
    stats.record_n(at, MsgKind::ValidationReply, report.reply_msgs);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::Contact;
    use net_topology::geometry::{Field, Point2};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// A line of nodes 40 m apart (range 50 m): 0-1-2-...-k.
    fn line_net(k: usize, radius: u16) -> Network {
        let positions: Vec<Point2> = (0..k)
            .map(|i| Point2::new(10.0 + 40.0 * i as f64, 10.0))
            .collect();
        Network::from_positions(
            Field::square(40.0 * k as f64 + 20.0),
            positions,
            50.0,
            radius,
        )
    }

    fn cfg(radius: u16, r: u16) -> CardConfig {
        CardConfig::default()
            .with_radius(radius)
            .with_max_contact_distance(r)
    }

    fn mk_stats() -> MsgStats {
        MsgStats::new(sim_core::time::SimDuration::from_secs(2))
    }

    /// The per-path validation the intact-path fast path and the cursor
    /// recovery replaced, kept as their reference: every path is copied
    /// into fresh `healed`/`rest` vectors and walked with `rest.remove(0)`.
    /// Returns the healed path (`None` ⇒ lost) plus the recovery flag.
    fn validate_path(
        net: &Network,
        cfg: &CardConfig,
        path: &[NodeId],
        msgs: &mut u64,
        allowed: &dyn Fn(NodeId, NodeId) -> bool,
    ) -> (Option<Vec<NodeId>>, bool) {
        let mut healed: Vec<NodeId> = vec![path[0]];
        let mut rest: Vec<NodeId> = path[1..].to_vec();
        let mut used_recovery = false;

        'outer: while !rest.is_empty() {
            let cur = *healed.last().unwrap();
            let next = rest[0];
            if net.is_link(cur, next) && allowed(cur, next) {
                *msgs += 1;
                healed.push(next);
                rest.remove(0);
                continue;
            }
            if cfg.local_recovery {
                for (k, &candidate) in rest.iter().enumerate() {
                    if candidate == cur {
                        rest.drain(..=k);
                        used_recovery = true;
                        continue 'outer;
                    }
                    if let Some(route) = net.tables().of(cur).path_to(candidate) {
                        if !route.windows(2).all(|w| allowed(w[0], w[1])) {
                            continue;
                        }
                        *msgs += route.len() as u64 - 1;
                        healed.extend_from_slice(&route[1..]);
                        rest.drain(..=k);
                        used_recovery = true;
                        continue 'outer;
                    }
                }
            }
            return (None, used_recovery);
        }

        compress_loops(&mut healed);
        (Some(healed), used_recovery)
    }

    /// [`validate_contacts_filtered`] as it was built on
    /// [`validate_path`]: contacts taken out of the table and pushed back
    /// in order as they survive.
    fn validate_contacts_reference(
        net: &Network,
        cfg: &CardConfig,
        table: &mut ContactTable,
        stats: &mut MsgStats,
        allowed: &dyn Fn(NodeId, NodeId) -> bool,
    ) -> ValidationReport {
        let mut report = ValidationReport::default();
        let (min_hops, max_hops) = cfg.valid_path_hops();
        for mut contact in std::mem::take(table.contacts_mut()) {
            let mut msgs = 0u64;
            let (healed, recovered) = validate_path(net, cfg, &contact.path, &mut msgs, allowed);
            report.validation_msgs += msgs;
            if recovered {
                report.recovered += 1;
            }
            match healed {
                None => report.lost += 1,
                Some(path) => {
                    let hops = (path.len() - 1) as u16;
                    if hops < min_hops || hops > max_hops {
                        report.dropped_out_of_range += 1;
                    } else {
                        report.reply_msgs += hops as u64;
                        report.validated += 1;
                        contact.path = path;
                        table.contacts_mut().push(contact);
                    }
                }
            }
        }
        stats.record_n(SimTime::ZERO, MsgKind::Validation, report.validation_msgs);
        stats.record_n(SimTime::ZERO, MsgKind::ValidationReply, report.reply_msgs);
        report
    }

    #[test]
    fn intact_path_validates_with_roundtrip_messages() {
        let net = line_net(10, 1);
        let cfg = cfg(1, 9);
        let path: Vec<NodeId> = (0..5).map(n).collect(); // 4 hops, in [2,9]
        let mut table = ContactTable::new();
        table.add(Contact::new(n(4), path));
        let mut st = mk_stats();
        let rep = validate_contacts(&net, &cfg, n(0), &mut table, &mut st, SimTime::ZERO);
        assert_eq!(rep.validated, 1);
        assert_eq!(rep.lost, 0);
        assert_eq!(rep.recovered, 0);
        assert_eq!(rep.validation_msgs, 4);
        assert_eq!(rep.reply_msgs, 4);
        assert_eq!(table.len(), 1);
        assert_eq!(st.total(MsgKind::Validation), 4);
        assert_eq!(st.total(MsgKind::ValidationReply), 4);
    }

    #[test]
    fn stale_hop_recovers_through_neighborhood() {
        // Stored path skips a relay that "moved": 0-1-3-4 is broken at 1->3
        // (distance 80 m), but 3 is within R=2 of 1 via 2, so recovery
        // splices 1-2-3.
        let net = line_net(6, 2);
        let cfg = cfg(2, 5);
        let broken = vec![n(0), n(1), n(3), n(4), n(5)];
        let mut table = ContactTable::new();
        table.add(Contact::new(n(5), broken));
        let mut st = mk_stats();
        let rep = validate_contacts(&net, &cfg, n(0), &mut table, &mut st, SimTime::ZERO);
        assert_eq!(rep.validated, 1);
        assert_eq!(rep.recovered, 1);
        assert_eq!(
            table.contacts()[0].path,
            vec![n(0), n(1), n(2), n(3), n(4), n(5)]
        );
        assert_eq!(table.contacts()[0].hops(), 5);
    }

    #[test]
    fn recovery_skips_to_later_path_node() {
        // Break at 1->3 AND node 3 unreachable? Use a path listing a node
        // that no longer exists on the line: 0-1-9-4-5 (1->9 broken, 9 not
        // within R of 1), but 4 IS within... R=2 of 1? dist(1,4)=3 > 2. So
        // make R=3: lookup of 9 fails (dist 8), then 4 at dist 3 found.
        let net = line_net(10, 3);
        let cfg = cfg(3, 9);
        let broken = vec![n(0), n(1), n(9), n(4), n(5), n(6), n(7)];
        let mut table = ContactTable::new();
        table.add(Contact::new(n(7), broken));
        let mut st = mk_stats();
        let rep = validate_contacts(&net, &cfg, n(0), &mut table, &mut st, SimTime::ZERO);
        assert_eq!(rep.validated, 1, "should skip 9 and resume at 4");
        assert_eq!(rep.recovered, 1);
        assert_eq!(table.contacts()[0].path, (0..8).map(n).collect::<Vec<_>>());
    }

    #[test]
    fn unsalvageable_path_loses_contact() {
        let net = line_net(12, 1); // R=1: tiny neighborhoods
        let cfg = cfg(1, 11);
        // 0-1-7-...: 1 cannot see 7 (6 hops) nor anything later within R=1
        let broken = vec![n(0), n(1), n(7), n(8)];
        let mut table = ContactTable::new();
        table.add(Contact::new(n(8), broken));
        let mut st = mk_stats();
        let rep = validate_contacts(&net, &cfg, n(0), &mut table, &mut st, SimTime::ZERO);
        assert_eq!(rep.lost, 1);
        assert_eq!(rep.validated, 0);
        assert!(table.is_empty());
        assert_eq!(rep.validation_msgs, 1, "one good hop before the break");
    }

    #[test]
    fn local_recovery_disabled_loses_contact() {
        let net = line_net(6, 2);
        let mut c = cfg(2, 5);
        c.local_recovery = false;
        let broken = vec![n(0), n(1), n(3), n(4), n(5)];
        let mut table = ContactTable::new();
        table.add(Contact::new(n(5), broken));
        let mut st = mk_stats();
        let rep = validate_contacts(&net, &c, n(0), &mut table, &mut st, SimTime::ZERO);
        assert_eq!(rep.lost, 1);
        assert_eq!(rep.recovered, 0);
        assert!(table.is_empty());
    }

    #[test]
    fn too_short_path_dropped_by_rule4() {
        let net = line_net(8, 2); // 2R = 4
        let cfg = cfg(2, 7);
        let path: Vec<NodeId> = (0..4).map(n).collect(); // 3 hops < 4
        let mut table = ContactTable::new();
        table.add(Contact::new(n(3), path));
        let mut st = mk_stats();
        let rep = validate_contacts(&net, &cfg, n(0), &mut table, &mut st, SimTime::ZERO);
        assert_eq!(rep.dropped_out_of_range, 1);
        assert_eq!(rep.validated, 0);
        assert!(table.is_empty());
    }

    #[test]
    fn too_long_path_dropped_by_rule4() {
        let net = line_net(12, 2);
        let cfg = cfg(2, 6); // r = 6
        let path: Vec<NodeId> = (0..9).map(n).collect(); // 8 hops > 6
        let mut table = ContactTable::new();
        table.add(Contact::new(n(8), path));
        let mut st = mk_stats();
        let rep = validate_contacts(&net, &cfg, n(0), &mut table, &mut st, SimTime::ZERO);
        assert_eq!(rep.dropped_out_of_range, 1);
        assert!(table.is_empty());
    }

    #[test]
    fn filtered_validation_vetoes_hops_and_recovery_routes() {
        // Same topology as stale_hop_recovers_through_neighborhood, but
        // node 2 — the only recovery relay for the 1->3 break — is down.
        let net = line_net(6, 2);
        let cfg = cfg(2, 5);
        let broken = vec![n(0), n(1), n(3), n(4), n(5)];
        let mut table = ContactTable::new();
        table.add(Contact::new(n(5), broken.clone()));
        let mut st = mk_stats();
        let down = n(2);
        let rep = validate_contacts_filtered(
            &net,
            &cfg,
            n(0),
            &mut table,
            &mut st,
            SimTime::ZERO,
            &|a, b| a != down && b != down,
        );
        assert_eq!(rep.lost, 1, "recovery must not route through a down node");
        assert!(table.is_empty());
        // With the pass-all predicate the same path recovers.
        let mut table = ContactTable::new();
        table.add(Contact::new(n(5), broken));
        let rep = validate_contacts(&net, &cfg, n(0), &mut table, &mut st, SimTime::ZERO);
        assert_eq!(rep.validated, 1);
        assert_eq!(rep.recovered, 1);
    }

    #[test]
    fn compress_loops_removes_cycles() {
        let mut p = vec![n(0), n(1), n(2), n(1), n(3)];
        compress_loops(&mut p);
        assert_eq!(p, vec![n(0), n(1), n(3)]);
        let mut q = vec![n(0), n(1), n(2)];
        compress_loops(&mut q);
        assert_eq!(q, vec![n(0), n(1), n(2)]);
        let mut r = vec![n(0), n(1), n(0), n(1), n(2)];
        compress_loops(&mut r);
        assert_eq!(r, vec![n(0), n(1), n(2)]);
    }

    mod properties {
        use super::*;
        use net_topology::scenario::Scenario;
        use proptest::prelude::*;
        use sim_core::rng::SeedSplitter;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// After one validation round on a perturbed topology, every
            /// surviving contact path is a valid hop-by-hop route on the
            /// CURRENT topology, ends at the contact, and satisfies the
            /// [2R, r] rule.
            #[test]
            fn prop_survivors_have_valid_paths(seed in 0u64..300) {
                use crate::contact::ContactTable;
                use crate::csq::{select_contacts, CsqScratch, CsqWalkStats, ALL_EDGE_NODES};
                use mobility::waypoint::RandomWaypoint;

                let scenario = Scenario::new(120, 420.0, 420.0, 55.0);
                let config = CardConfig::default()
                    .with_radius(2)
                    .with_max_contact_distance(9)
                    .with_target_contacts(4)
                    .with_seed(seed);
                let mut net = Network::from_scenario(&scenario, 2, seed);
                let splitter = SeedSplitter::new(seed);
                let mut stats = mk_stats();

                // tables for a handful of sources
                let mut scratch = CsqScratch::new();
                let mut walks = CsqWalkStats::default();
                let mut tables: Vec<(NodeId, ContactTable)> = (0..10u32)
                    .map(|i| {
                        let node = NodeId::new(i);
                        let mut t = ContactTable::new();
                        let mut rng = splitter.stream("prop-sel", i as u64);
                        walks.absorb(&select_contacts(
                            &net, &config, node, &mut t, &mut rng, &mut stats, SimTime::ZERO,
                            ALL_EDGE_NODES, &mut scratch,
                        ));
                        (node, t)
                    })
                    .collect();
                // the summed pass stats account for every selection message,
                // and every contact took a walk of its own
                prop_assert_eq!(walks.total(), stats.total_where(MsgKind::is_selection));
                let held: usize = tables.iter().map(|(_, t)| t.len()).sum();
                prop_assert!(held as u64 <= walks.walks);

                // perturb the topology, then validate
                let mut model = RandomWaypoint::new(
                    120, scenario.field(), 1.0, 4.0, 0.0, splitter.stream("prop-mob", 0));
                net.advance(&mut model, sim_core::time::SimDuration::from_secs(1));

                let (min_hops, max_hops) = config.valid_path_hops();
                for (node, table) in &mut tables {
                    validate_contacts(&net, &config, *node, table, &mut stats, SimTime::ZERO);
                    for c in table.contacts() {
                        prop_assert_eq!(c.source(), *node);
                        prop_assert!(c.hops() >= min_hops && c.hops() <= max_hops);
                        for hop in c.path.windows(2) {
                            prop_assert!(
                                net.is_link(hop[0], hop[1]),
                                "surviving path has a dead hop {:?}", hop
                            );
                        }
                        // healed paths are loop-free
                        let mut seen = std::collections::HashSet::new();
                        for &p in &c.path {
                            prop_assert!(seen.insert(p), "loop at {p} in healed path");
                        }
                    }
                }
            }

            /// The intact-path fast path plus cursor recovery equals the
            /// reference `validate_path` on random paths — intact walks,
            /// walks with broken hops, loops, and random node sequences —
            /// with hops vetoed by `allowed` or not, and local recovery on
            /// and off: the surviving contacts with their healed paths, the
            /// `ValidationReport` and the recorded messages all match.
            #[test]
            fn prop_fast_validation_matches_reference(
                seed in 0u64..10_000,
                radius in 1u16..4,
                n in 40usize..120,
                recovery in any::<bool>(),
                veto in 0usize..3,
            ) {
                use sim_core::rng::RngStream;

                let scenario = Scenario::new(n, 300.0, 300.0, 55.0);
                let mut config = cfg(radius, 2 * radius + 6);
                config.local_recovery = recovery;
                let net = Network::from_scenario(&scenario, radius, seed);
                let mut rng = RngStream::seed_from_u64(seed);
                let down: Vec<bool> = (0..n).map(|_| rng.index(10) < veto).collect();
                let allowed = |a: NodeId, b: NodeId| !down[a.index()] && !down[b.index()];
                let pass_all = |_: NodeId, _: NodeId| true;
                for source in (0..n).step_by(7).map(NodeId::from) {
                    let mut table = ContactTable::new();
                    for k in 0..8 {
                        // A random walk from the source; later kinds
                        // corrupt it with random hops or loop it back.
                        let len = 2 + rng.index(2 * radius as usize + 8);
                        let mut path = vec![source];
                        while path.len() < len {
                            let cur = *path.last().unwrap();
                            let nb = net.adj().neighbors(cur);
                            let next = match k % 4 {
                                _ if nb.is_empty() => NodeId::from(rng.index(n)),
                                1 if rng.index(4) == 0 => NodeId::from(rng.index(n)),
                                2 if rng.index(5) == 0 => path[rng.index(path.len())],
                                3 => NodeId::from(rng.index(n)),
                                _ => nb[rng.index(nb.len())],
                            };
                            path.push(next);
                        }
                        let id = *path.last().unwrap();
                        if path.len() >= 2 && !table.contains(id) {
                            table.add(Contact::new(id, path));
                        }
                    }
                    for filter in [&allowed as &dyn Fn(NodeId, NodeId) -> bool, &pass_all] {
                        let mut got = table.clone();
                        let mut want = table.clone();
                        let (mut st, mut ref_st) = (mk_stats(), mk_stats());
                        let report = validate_contacts_filtered(
                            &net, &config, source, &mut got, &mut st, SimTime::ZERO, filter);
                        let ref_report =
                            validate_contacts_reference(&net, &config, &mut want, &mut ref_st, filter);
                        prop_assert_eq!(got.contacts(), want.contacts());
                        prop_assert_eq!(report, ref_report);
                        prop_assert_eq!(format!("{st:?}"), format!("{ref_st:?}"));
                    }
                }
            }

            /// compress_loops is idempotent and never grows a path.
            #[test]
            fn prop_compress_loops_idempotent(raw in proptest::collection::vec(0u32..12, 1..30)) {
                let mut path: Vec<NodeId> = raw.iter().map(|&i| NodeId::new(i)).collect();
                let original_len = path.len();
                compress_loops(&mut path);
                prop_assert!(path.len() <= original_len);
                // no repeats afterwards
                let mut seen = std::collections::HashSet::new();
                for &p in &path {
                    prop_assert!(seen.insert(p));
                }
                // idempotent
                let once = path.clone();
                compress_loops(&mut path);
                prop_assert_eq!(once, path);
            }
        }
    }

    #[test]
    fn multiple_contacts_mixed_outcomes() {
        let net = line_net(12, 2);
        let cfg = cfg(2, 9);
        let mut table = ContactTable::new();
        table.add(Contact::new(n(5), (0..6).map(n).collect())); // 5 hops, fine
        table.add(Contact::new(n(4), (0..5).map(n).collect())); // 4 hops, = 2R fine
        table.add(Contact::new(n(3), (0..4).map(n).collect())); // 3 hops < 2R drop
        let mut st = mk_stats();
        let rep = validate_contacts(&net, &cfg, n(0), &mut table, &mut st, SimTime::ZERO);
        assert_eq!(rep.validated, 2);
        assert_eq!(rep.dropped_out_of_range, 1);
        assert_eq!(table.len(), 2);
    }
}
