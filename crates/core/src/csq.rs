//! The Contact Selection Query (CSQ) — §III.C.1.
//!
//! Selection procedure, exactly as the paper specifies:
//!
//! 1. the source sends a CSQ *through each of its edge nodes, one at a
//!    time* (the query travels the known intra-zone route, R hops);
//! 2. the edge node forwards the CSQ to a randomly chosen neighbor;
//! 3. each node receiving the CSQ runs the PM/EM decision
//!    ([`crate::selection`]);
//! 4. a refusing node forwards the query to a random untried neighbor
//!    (never back where it came from);
//! 5. the query walks depth-first to at most `r` hops, **backtracking**
//!    when it runs out of fresh neighbors or hits the hop limit; every
//!    backtrack hop is a counted control message (this is the overhead that
//!    separates PM from EM in Figs 4 and 12);
//! 6. on acceptance the traversed path is returned to the source (R + d
//!    reply hops) and stored.
//!
//! The walk keeps a per-query visited set — the protocol equivalent of
//! "query and source IDs are included to prevent looping" (§III.C.2.b).
//!
//! ## Scratch layout
//!
//! Walks run for every node in every selection pass and again in every
//! validation round's re-selection, so each hop does array work only. All
//! per-walk state lives in a reusable [`CsqScratch`]:
//!
//! * `tried` — one flat bitset over the CSR slots of
//!   [`net_topology::graph::Adjacency::raw_csr`]: bit `offsets[v] + k`
//!   means "v already forwarded this query to its k-th neighbor". Neighbor
//!   rows are sorted, so a bit names a neighbor without storing it, and
//!   there is no degree cap.
//! * `on_path` / `evaluated` flags per node, plus `marked`, the nodes whose
//!   state the walk set. Everything a walk sets is cleared at the *end* of
//!   that walk, while the CSR rows its bits index are still in place — a
//!   mobility tick between walks can move rows (slack reprovisioning).
//! * the forwarding choice builds a mask of free neighbors, draws
//!   `rng.index(count)` and takes the matching set bit: the same draw
//!   `rng.choose` makes over the filtered candidate list.
//! * one route buffer for the intra-zone route to the edge node
//!   ([`manet_routing::neighborhood::Neighborhood::path_to_into`]).
//! * `excluded` — an epoch-stamped per-node array holding the current
//!   selection pass's exclusion set (below); the epoch wraps by resetting
//!   the array to zero.
//!
//! ## The exclusion stamp
//!
//! The overlap checks ask whether the source, or a contact already in the
//! `Contact_List`, lies in candidate X's zone; EM also asks about the
//! source's edge nodes. Zones are R-hop BFS balls over one undirected
//! adjacency snapshot, so zone membership is symmetric:
//! Y ∈ zone(X) ⇔ X ∈ zone(Y). Each selection pass therefore stamps, once,
//! every member of the zones of the source and of its held contacts (for
//! EM, of its edge nodes too), and each contact accepted during the pass
//! stamps its own zone. A candidate fails the checks exactly when it
//! carries the pass's stamp: one array read in place of a Bloom probe per
//! listed node. PM still draws its probability only for an unstamped
//! candidate. Debug builds cross-check every stamped decision, and the RNG
//! state after it, against [`decides_to_be_contact`].
//!
//! Scratch history never leaks into results: a reused scratch behaves
//! exactly like a fresh one, which is what lets any shard layout produce
//! identical walks.

use manet_routing::neighborhood::NeighborhoodTables;
use manet_routing::network::Network;
use net_topology::node::NodeId;
use sim_core::rng::RngStream;
use sim_core::stats::{MsgKind, MsgStats};
use sim_core::time::SimTime;

use crate::config::{CardConfig, SelectionMethod};
use crate::contact::{Contact, ContactTable};
use crate::selection::{decides_to_be_contact, decides_unless_excluded};

/// Walk budget meaning "CSQ through every edge node" (no cap) — the
/// paper's from-scratch selection mode (Figs 3–9).
pub const ALL_EDGE_NODES: usize = usize::MAX;

/// Outcome counters of CSQ walks: one walk (edge node launch) from
/// [`csq_walk`], or the sum over a selection pass from
/// [`select_contacts`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CsqWalkStats {
    /// Walks launched.
    pub walks: u64,
    /// Forward CSQ hops (including the R hops to the edge node).
    pub forward_msgs: u64,
    /// Backtrack hops.
    pub backtrack_msgs: u64,
    /// Reply hops returning the chosen path (0 when no contact found).
    pub reply_msgs: u64,
    /// Nodes that evaluated the PM/EM decision.
    pub nodes_evaluated: u64,
}

impl CsqWalkStats {
    /// Total messages of these walks.
    pub fn total(&self) -> u64 {
        self.forward_msgs + self.backtrack_msgs + self.reply_msgs
    }

    /// Add `other`'s counters into `self`.
    pub fn absorb(&mut self, other: &CsqWalkStats) {
        self.walks += other.walks;
        self.forward_msgs += other.forward_msgs;
        self.backtrack_msgs += other.backtrack_msgs;
        self.reply_msgs += other.reply_msgs;
        self.nodes_evaluated += other.nodes_evaluated;
    }
}

/// Reusable per-query DFS state for CSQ walks (layout in the module docs).
///
/// Every array is all-clear between walks, so a long-lived scratch (one per
/// protocol *shard* in [`crate::world::CardWorld`]'s sharded sweeps) makes
/// walks allocation-free once its buffers have grown.
#[derive(Clone, Debug, Default)]
pub struct CsqScratch {
    /// One bit per CSR slot: bit `offsets[v] + k` = "v tried its k-th
    /// neighbor for this query".
    tried: Vec<u64>,
    /// Is the node currently on the query's path?
    on_path: Vec<bool>,
    /// Has the node already run (or been exempted from) the PM/EM decision?
    evaluated: Vec<bool>,
    /// Nodes whose `on_path`/`evaluated`/`tried` state this walk set.
    marked: Vec<NodeId>,
    /// DFS stack of the walk beyond (and including) the edge node.
    walk: Vec<NodeId>,
    /// Intra-zone route source → edge node of the current walk.
    route: Vec<NodeId>,
    /// Free-neighbor mask of the node choosing the next hop.
    free: Vec<u64>,
    /// Shuffled edge-node list of the current selection pass.
    edges: Vec<NodeId>,
    /// Contact ids of the source (the CSQ `Contact_List`).
    contact_list: Vec<NodeId>,
    /// `excluded[v] == epoch` ⇔ v fails the current pass's zone checks.
    excluded: Vec<u32>,
    /// Stamp of the current selection pass.
    epoch: u32,
}

impl CsqScratch {
    /// A fresh workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a selection pass for `source`: stamp every node that fails the
    /// overlap checks against `source` and `contacts` (and, for EM, the
    /// edge check) — by zone symmetry, the members of those nodes' zones.
    fn begin_pass(&mut self, net: &Network, cfg: &CardConfig, source: NodeId, contacts: &[NodeId]) {
        let n = net.node_count();
        if self.excluded.len() < n {
            self.excluded.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.excluded.fill(0);
            self.epoch = 1;
        }
        let tables = net.tables();
        self.exclude_zone(tables, source);
        for &c in contacts {
            self.exclude_zone(tables, c);
        }
        if cfg.method == SelectionMethod::Edge {
            for &e in tables.of(source).edge_nodes() {
                self.exclude_zone(tables, e);
            }
        }
    }

    /// Stamp the members of `v`'s zone as excluded for this pass.
    fn exclude_zone(&mut self, tables: &NeighborhoodTables, v: NodeId) {
        for m in tables.of(v).members() {
            self.excluded[m.index()] = self.epoch;
        }
    }

    /// Grow the per-walk arrays to `n` nodes and `slots` CSR slots.
    fn size_for(&mut self, n: usize, slots: usize) {
        if self.on_path.len() < n {
            self.on_path.resize(n, false);
            self.evaluated.resize(n, false);
        }
        let words = slots.div_ceil(64);
        if self.tried.len() < words {
            self.tried.resize(words, 0);
        }
    }

    /// Clear everything the finished walk set, while the CSR rows its
    /// `tried` bits index are still where the walk saw them. Every set bit
    /// lies in a marked node's row, so zeroing whole words is safe.
    fn end_walk(&mut self, offsets: &[u32], lens: &[u32]) {
        for v in self.marked.drain(..) {
            let i = v.index();
            self.on_path[i] = false;
            self.evaluated[i] = false;
            let lo = offsets[i] as usize;
            let hi = lo + lens[i] as usize;
            if hi > lo {
                self.tried[lo / 64..=(hi - 1) / 64].fill(0);
            }
        }
        self.walk.clear();
    }
}

#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Uniform choice among the free neighbors of a node — off the query's
/// path and not yet tried from it. `row` is the node's sorted neighbor
/// row and `base` its CSR offset. Returns `(CSR slot, neighbor)`; draws
/// `rng.index(count)` only when something is free, exactly like
/// `rng.choose` over the filtered candidate list.
#[inline]
fn pick_free_neighbor(
    row: &[NodeId],
    base: usize,
    tried: &[u64],
    on_path: &[bool],
    free: &mut Vec<u64>,
    rng: &mut RngStream,
) -> Option<(usize, NodeId)> {
    free.clear();
    let mut count = 0;
    for (c, chunk) in row.chunks(64).enumerate() {
        let mut mask = 0u64;
        for (j, nb) in chunk.iter().enumerate() {
            let is_free = !on_path[nb.index()] && !bit(tried, base + c * 64 + j);
            mask |= u64::from(is_free) << j;
        }
        count += mask.count_ones() as usize;
        free.push(mask);
    }
    if count == 0 {
        return None;
    }
    let mut rank = rng.index(count);
    for (c, &mask) in free.iter().enumerate() {
        let ones = mask.count_ones() as usize;
        if rank < ones {
            let mut m = mask;
            for _ in 0..rank {
                m &= m - 1; // drop the lowest set bit
            }
            let k = c * 64 + m.trailing_zeros() as usize;
            return Some((base + k, row[k]));
        }
        rank -= ones;
    }
    unreachable!("rank < count lands in some mask word")
}

/// Launch one CSQ from `source` through `edge`: random DFS with
/// backtracking out to `cfg.max_contact_distance` hops. Returns the contact
/// if one accepted. Records messages into `stats` at time `at`.
///
/// DFS state is *per node, per query*, exactly as §III.C.1 describes it:
/// every node remembers which neighbors it has already tried for this query
/// (step 5: the previous node "forwards it to another randomly chosen
/// neighbor"), and never forwards to a node currently on the query's path
/// ("the query and source IDs are included to prevent looping"). Off-path
/// nodes may be *walked through* again via a different route — but each
/// node **evaluates the contact decision only once** per query: a node
/// whose probability draw failed stays failed, which is precisely the
/// "lost opportunities when the probability fails" cost the paper charges
/// against PM. The walk is bounded: each forward consumes one (node,
/// neighbor) pair, so it ends after at most 2·|edges| steps even without
/// the `max_csq_steps` budget.
///
/// A standalone walk opens its own selection pass (the exclusion stamp of
/// `source` and `contact_list`); [`select_contacts`] opens one per pass.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
pub fn csq_walk(
    net: &Network,
    cfg: &CardConfig,
    source: NodeId,
    edge: NodeId,
    contact_list: &[NodeId],
    rng: &mut RngStream,
    stats: &mut MsgStats,
    at: SimTime,
    scratch: &mut CsqScratch,
) -> (Option<Contact>, CsqWalkStats) {
    scratch.begin_pass(net, cfg, source, contact_list);
    walk(
        net,
        cfg,
        source,
        edge,
        contact_list,
        rng,
        stats,
        at,
        scratch,
    )
}

/// One CSQ walk inside an open selection pass (see [`csq_walk`]).
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
fn walk(
    net: &Network,
    cfg: &CardConfig,
    source: NodeId,
    edge: NodeId,
    contact_list: &[NodeId],
    rng: &mut RngStream,
    stats: &mut MsgStats,
    at: SimTime,
    scratch: &mut CsqScratch,
) -> (Option<Contact>, CsqWalkStats) {
    let tables = net.tables();
    let adj = net.adj();
    let mut ws = CsqWalkStats {
        walks: 1,
        ..CsqWalkStats::default()
    };

    // Intra-zone route source -> edge node (known proactively).
    if !tables.of(source).path_to_into(edge, &mut scratch.route) {
        return (None, ws); // stale edge (mobility raced the tables)
    }
    let (offsets, lens, slots) = adj.raw_csr();
    scratch.size_for(net.node_count(), slots.len());
    let edge_list = tables.of(source).edge_nodes();
    let r = cfg.max_contact_distance;
    let budget = cfg.csq_budget();

    let CsqScratch {
        tried,
        on_path,
        evaluated,
        marked,
        walk,
        route,
        free,
        excluded,
        epoch,
        ..
    } = &mut *scratch;
    ws.forward_msgs += route.len() as u64 - 1;
    for &v in route.iter() {
        marked.push(v);
        on_path[v.index()] = true;
        evaluated[v.index()] = true; // intra-zone nodes are never candidates
    }
    // The edge node must not bounce the query straight back into the zone.
    if route.len() >= 2 {
        if let Ok(k) = adj.neighbors(edge).binary_search(&route[route.len() - 2]) {
            set_bit(tried, offsets[edge.index()] as usize + k);
        }
    }

    // Walk stack beyond (and including) the edge node. Walk depth
    // d = hops from source = (route.len() - 1) + (walk.len() - 1).
    walk.push(edge);
    let mut steps: u32 = 0;
    let mut accepted = None;
    while let Some(&cur) = walk.last() {
        if steps >= budget {
            break;
        }
        let d = (route.len() - 1 + walk.len() - 1) as u16;
        let next = if d < r {
            let base = offsets[cur.index()] as usize;
            pick_free_neighbor(adj.neighbors(cur), base, tried, on_path, free, rng)
        } else {
            None
        };

        match next {
            Some((slot, x)) => {
                steps += 1;
                ws.forward_msgs += 1;
                set_bit(tried, slot);
                on_path[x.index()] = true;
                walk.push(x);
                if evaluated[x.index()] {
                    continue; // this node already declined this query
                }
                evaluated[x.index()] = true;
                marked.push(x);
                ws.nodes_evaluated += 1;
                let d_x = d + 1;
                let before = cfg!(debug_assertions).then(|| rng.clone());
                let accepts = decides_unless_excluded(cfg, excluded[x.index()] == *epoch, d_x, rng);
                if let Some(mut check) = before {
                    let want = decides_to_be_contact(
                        cfg,
                        tables,
                        x,
                        source,
                        contact_list,
                        edge_list,
                        d_x,
                        &mut check,
                    );
                    debug_assert_eq!(accepts, want, "exclusion stamp disagrees at {x}");
                    debug_assert_eq!(check.next_raw(), rng.clone().next_raw());
                }
                if accepts {
                    accepted = Some(x);
                    break;
                }
            }
            None => {
                // Dead end (or hop limit): backtrack one hop.
                let popped = walk.pop().expect("walk non-empty");
                on_path[popped.index()] = false;
                if !walk.is_empty() {
                    steps += 1;
                    ws.backtrack_msgs += 1;
                }
            }
        }
    }

    // Path = intra-zone route + walk (skip the duplicated edge node).
    let contact = accepted.map(|x| {
        let mut path = Vec::with_capacity(route.len() + walk.len() - 1);
        path.extend_from_slice(route);
        path.extend_from_slice(&walk[1..]);
        Contact::new(x, path)
    });
    scratch.end_walk(offsets, lens);

    stats.record_n(at, MsgKind::Csq, ws.forward_msgs);
    stats.record_n(at, MsgKind::CsqBacktrack, ws.backtrack_msgs);
    if let Some(c) = &contact {
        ws.reply_msgs += c.path.len() as u64 - 1;
        stats.record_n(at, MsgKind::CsqReply, ws.reply_msgs);
    }
    (contact, ws)
}

/// §III.C.1 step 1: run CSQs through the source's edge nodes (shuffled),
/// one at a time, until the table holds `cfg.target_contacts` contacts,
/// `max_walks` CSQs have been launched, or every edge node has been tried.
/// Pass [`ALL_EDGE_NODES`] for an unrestricted from-scratch pass, or the
/// per-round walk budget for steady-state re-selection (§III.C.3 rule 5).
/// Returns the walk stats summed over the pass.
#[allow(clippy::too_many_arguments)] // mirrors the protocol message fields
pub fn select_contacts(
    net: &Network,
    cfg: &CardConfig,
    source: NodeId,
    table: &mut ContactTable,
    rng: &mut RngStream,
    stats: &mut MsgStats,
    at: SimTime,
    max_walks: usize,
    scratch: &mut CsqScratch,
) -> CsqWalkStats {
    let mut edges = std::mem::take(&mut scratch.edges);
    edges.clear();
    edges.extend_from_slice(net.tables().of(source).edge_nodes());
    rng.shuffle(&mut edges);
    let mut contact_list = std::mem::take(&mut scratch.contact_list);
    contact_list.clear();
    contact_list.extend(table.ids());
    let mut total = CsqWalkStats::default();

    for (launched, &edge) in edges.iter().take(max_walks).enumerate() {
        if table.len() >= cfg.target_contacts {
            break;
        }
        if launched == 0 {
            scratch.begin_pass(net, cfg, source, &contact_list);
        }
        let (found, ws) = walk(
            net,
            cfg,
            source,
            edge,
            &contact_list,
            rng,
            stats,
            at,
            scratch,
        );
        total.absorb(&ws);
        if let Some(c) = found {
            // A tombstoned candidate was just watched dying: don't
            // re-select it until its tombstone decays (calm worlds never
            // tombstone, so this is the pre-fault behavior there).
            if !table.contains(c.id) && !table.is_tombstoned(c.id) {
                scratch.exclude_zone(net.tables(), c.id);
                contact_list.push(c.id);
                table.add(c);
            }
        }
    }

    scratch.edges = edges;
    scratch.contact_list = contact_list;
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SelectionMethod;
    use net_topology::scenario::Scenario;
    use sim_core::time::SimDuration;

    fn stats() -> MsgStats {
        MsgStats::new(SimDuration::from_secs(2))
    }

    /// A dense-enough random network where contacts exist.
    fn test_net() -> Network {
        // ~short paths: 200 nodes, 600x600, range 60 → avg degree ~ 6
        Network::from_scenario(&Scenario::new(200, 600.0, 600.0, 60.0), 2, 11)
    }

    fn cfg_em() -> CardConfig {
        CardConfig::default()
            .with_radius(2)
            .with_max_contact_distance(10)
            .with_target_contacts(4)
            .with_method(SelectionMethod::Edge)
    }

    #[test]
    fn em_walk_finds_valid_contact() {
        let net = test_net();
        let cfg = cfg_em();
        let mut rng = RngStream::seed_from_u64(3);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let source = NodeId::new(0);
        let mut table = ContactTable::new();
        let walks = select_contacts(
            &net,
            &cfg,
            source,
            &mut table,
            &mut rng,
            &mut st,
            SimTime::ZERO,
            ALL_EDGE_NODES,
            &mut scratch,
        );
        assert!(walks.walks > 0);
        if table.is_empty() {
            // extremely unlucky seed — fail loudly so we pick another seed
            panic!("no contacts selected on a 200-node network");
        }
        for c in table.contacts() {
            // EM invariant: walk-path hops within (2R, r]
            assert!(c.hops() > 2 * cfg.radius, "hops {} <= 2R", c.hops());
            assert!(c.hops() <= cfg.max_contact_distance);
            assert_eq!(c.source(), source);
            // true distance also > 2R (the edge check is geometric)
            let bfs = net_topology::bfs::full_bfs(net.adj(), source);
            assert!(bfs.distance(c.id).unwrap() > 2 * cfg.radius);
            // the stored path is a valid hop-by-hop route
            for w in c.path.windows(2) {
                assert!(net.is_link(w[0], w[1]), "broken stored path");
            }
            // no overlap with the source neighborhood at selection time
            assert!(!net.tables().of(c.id).contains(source));
        }
    }

    #[test]
    fn contact_list_prevents_overlapping_contacts() {
        let net = test_net();
        let cfg = cfg_em();
        let mut rng = RngStream::seed_from_u64(5);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let mut table = ContactTable::new();
        select_contacts(
            &net,
            &cfg,
            NodeId::new(1),
            &mut table,
            &mut rng,
            &mut st,
            SimTime::ZERO,
            ALL_EDGE_NODES,
            &mut scratch,
        );
        // pairwise: no contact inside another contact's neighborhood
        let ids: Vec<NodeId> = table.ids().collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                assert!(
                    !net.tables().of(a).contains(b),
                    "contacts {a} and {b} have overlapping neighborhoods"
                );
            }
        }
    }

    #[test]
    fn messages_are_recorded_by_kind() {
        let net = test_net();
        let cfg = cfg_em();
        let mut rng = RngStream::seed_from_u64(7);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let mut table = ContactTable::new();
        let walks = select_contacts(
            &net,
            &cfg,
            NodeId::new(2),
            &mut table,
            &mut rng,
            &mut st,
            SimTime::ZERO,
            ALL_EDGE_NODES,
            &mut scratch,
        );
        assert_eq!(st.total(MsgKind::Csq), walks.forward_msgs);
        assert_eq!(st.total(MsgKind::CsqBacktrack), walks.backtrack_msgs);
        assert_eq!(st.total(MsgKind::CsqReply), walks.reply_msgs);
        assert_eq!(st.total_where(MsgKind::is_selection), walks.total());
        assert_eq!(
            walks.total(),
            walks.forward_msgs + walks.backtrack_msgs + walks.reply_msgs
        );
    }

    #[test]
    fn respects_target_contacts_cap() {
        let net = test_net();
        let cfg = cfg_em().with_target_contacts(1);
        let mut rng = RngStream::seed_from_u64(9);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let mut table = ContactTable::new();
        select_contacts(
            &net,
            &cfg,
            NodeId::new(3),
            &mut table,
            &mut rng,
            &mut st,
            SimTime::ZERO,
            ALL_EDGE_NODES,
            &mut scratch,
        );
        assert!(table.len() <= 1);
    }

    #[test]
    fn pm_eq2_contact_is_beyond_2r_in_walk_distance() {
        let net = test_net();
        let cfg = cfg_em().with_method(SelectionMethod::ProbabilisticEq2);
        let mut rng = RngStream::seed_from_u64(13);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let mut table = ContactTable::new();
        select_contacts(
            &net,
            &cfg,
            NodeId::new(4),
            &mut table,
            &mut rng,
            &mut st,
            SimTime::ZERO,
            ALL_EDGE_NODES,
            &mut scratch,
        );
        for c in table.contacts() {
            assert!(
                c.hops() > 2 * cfg.radius,
                "eq2 P=0 at d<=2R, got {}",
                c.hops()
            );
            assert!(c.hops() <= cfg.max_contact_distance);
        }
    }

    #[test]
    fn isolated_source_selects_nothing() {
        // One lonely node: no edge nodes, no walks, no messages.
        let net = Network::from_positions(
            net_topology::geometry::Field::square(100.0),
            vec![net_topology::geometry::Point2::new(50.0, 50.0)],
            30.0,
            2,
        );
        let cfg = cfg_em();
        let mut rng = RngStream::seed_from_u64(1);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let mut table = ContactTable::new();
        let walks = select_contacts(
            &net,
            &cfg,
            NodeId::new(0),
            &mut table,
            &mut rng,
            &mut st,
            SimTime::ZERO,
            ALL_EDGE_NODES,
            &mut scratch,
        );
        assert_eq!(walks, CsqWalkStats::default());
        assert!(table.is_empty());
        assert_eq!(st.grand_total(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let net = test_net();
            let cfg = cfg_em();
            let mut rng = RngStream::seed_from_u64(seed);
            let mut st = stats();
            let mut scratch = CsqScratch::new();
            let mut table = ContactTable::new();
            select_contacts(
                &net,
                &cfg,
                NodeId::new(5),
                &mut table,
                &mut rng,
                &mut st,
                SimTime::ZERO,
                ALL_EDGE_NODES,
                &mut scratch,
            );
            (table.ids().collect::<Vec<_>>(), st.grand_total())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One long-lived scratch across many sources must behave exactly
        // like a fresh scratch per source (lazy clearing leaks nothing).
        let net = test_net();
        let cfg = cfg_em();
        let run = |reuse: bool| {
            let mut st = stats();
            let mut shared = CsqScratch::new();
            let mut all: Vec<Vec<NodeId>> = Vec::new();
            for i in 0..20u32 {
                let mut rng = RngStream::seed_from_u64(1000 + i as u64);
                let mut table = ContactTable::new();
                let mut fresh = CsqScratch::new();
                let scratch = if reuse { &mut shared } else { &mut fresh };
                select_contacts(
                    &net,
                    &cfg,
                    NodeId::new(i),
                    &mut table,
                    &mut rng,
                    &mut st,
                    SimTime::ZERO,
                    ALL_EDGE_NODES,
                    scratch,
                );
                all.push(table.ids().collect());
            }
            all
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn stamp_epoch_wrap_clears_old_stamps() {
        // The first pass stamps with epoch 1, including the zones of the
        // contacts it accepts. Forcing the repeat pass to wrap makes it
        // reuse epoch 1, so those stale stamps must be wiped first, or the
        // repeat could not pick the same contacts again.
        let net = test_net();
        let cfg = cfg_em();
        let run = |wrap: bool| {
            let mut scratch = CsqScratch::new();
            let mut st = stats();
            let mut tables = Vec::new();
            for pass in 0..2 {
                if wrap && pass == 1 {
                    scratch.epoch = u32::MAX;
                }
                let mut rng = RngStream::seed_from_u64(31);
                let mut table = ContactTable::new();
                select_contacts(
                    &net,
                    &cfg,
                    NodeId::new(7),
                    &mut table,
                    &mut rng,
                    &mut st,
                    SimTime::ZERO,
                    ALL_EDGE_NODES,
                    &mut scratch,
                );
                tables.push(table.contacts().to_vec());
            }
            tables
        };
        let plain = run(false);
        assert!(!plain[0].is_empty());
        assert_eq!(plain[0], plain[1]);
        assert_eq!(run(true), plain);
    }

    #[test]
    fn budget_caps_walk() {
        let net = test_net();
        let mut cfg = cfg_em();
        cfg.max_csq_steps = 3; // floored to 2r by csq_budget()
        let budget = cfg.csq_budget() as u64;
        assert_eq!(budget, 2 * cfg.max_contact_distance as u64);
        let mut rng = RngStream::seed_from_u64(17);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let edge = net
            .tables()
            .of(NodeId::new(0))
            .edge_nodes()
            .first()
            .copied();
        if let Some(edge) = edge {
            let (_, ws) = csq_walk(
                &net,
                &cfg,
                NodeId::new(0),
                edge,
                &[],
                &mut rng,
                &mut st,
                SimTime::ZERO,
                &mut scratch,
            );
            // intra-zone route hops are charged before the budgeted DFS
            assert!(ws.forward_msgs + ws.backtrack_msgs <= budget + cfg.radius as u64 + 1);
        }
    }

    #[test]
    fn limited_selection_launches_at_most_max_walks() {
        let net = test_net();
        let cfg = cfg_em();
        let mut rng = RngStream::seed_from_u64(23);
        let mut st = stats();
        let mut scratch = CsqScratch::new();
        let mut table = ContactTable::new();
        let walks = select_contacts(
            &net,
            &cfg,
            NodeId::new(6),
            &mut table,
            &mut rng,
            &mut st,
            SimTime::ZERO,
            2,
            &mut scratch,
        );
        assert!(walks.walks <= 2);
        assert!(table.len() <= 2);
    }

    /// The CSQ walk as first written — nested per-node `tried` lists, a
    /// candidate buffer, and the per-node Bloom-probe zone checks of
    /// [`decides_to_be_contact`] — kept as the equivalence anchor for the
    /// flat walk above.
    mod reference {
        use super::*;

        #[derive(Default)]
        pub struct RefScratch {
            tried: Vec<Vec<NodeId>>,
            on_path: Vec<bool>,
            evaluated: Vec<bool>,
            dirty: Vec<bool>,
            marked: Vec<NodeId>,
            walk: Vec<NodeId>,
            candidates: Vec<NodeId>,
        }

        impl RefScratch {
            fn begin(&mut self, n: usize) {
                for &v in &self.marked {
                    self.tried[v.index()].clear();
                    self.on_path[v.index()] = false;
                    self.evaluated[v.index()] = false;
                    self.dirty[v.index()] = false;
                }
                self.marked.clear();
                self.walk.clear();
                if self.on_path.len() < n {
                    self.tried.resize_with(n, Vec::new);
                    self.on_path.resize(n, false);
                    self.evaluated.resize(n, false);
                    self.dirty.resize(n, false);
                }
            }

            fn touch(&mut self, v: NodeId) {
                if !self.dirty[v.index()] {
                    self.dirty[v.index()] = true;
                    self.marked.push(v);
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn csq_walk(
            net: &Network,
            cfg: &CardConfig,
            source: NodeId,
            edge: NodeId,
            contact_list: &[NodeId],
            rng: &mut RngStream,
            stats: &mut MsgStats,
            at: SimTime,
            scratch: &mut RefScratch,
        ) -> (Option<Contact>, CsqWalkStats) {
            let tables = net.tables();
            let mut ws = CsqWalkStats {
                walks: 1,
                ..CsqWalkStats::default()
            };
            let Some(route) = tables.of(source).path_to(edge) else {
                return (None, ws);
            };
            ws.forward_msgs += route.len() as u64 - 1;
            let edge_list = tables.of(source).edge_nodes();
            let r = cfg.max_contact_distance;
            scratch.begin(net.node_count());
            for &v in &route {
                scratch.touch(v);
                scratch.on_path[v.index()] = true;
                scratch.evaluated[v.index()] = true;
            }
            if route.len() >= 2 {
                scratch.tried[edge.index()].push(route[route.len() - 2]);
            }
            scratch.walk.push(edge);
            let mut steps: u32 = 0;
            let budget = cfg.csq_budget();
            while let Some(&cur) = scratch.walk.last() {
                if steps >= budget {
                    break;
                }
                let d = (route.len() - 1 + scratch.walk.len() - 1) as u16;
                let next = if d < r {
                    scratch.candidates.clear();
                    scratch
                        .candidates
                        .extend(net.adj().neighbors(cur).iter().copied().filter(|nb| {
                            !scratch.on_path[nb.index()] && !scratch.tried[cur.index()].contains(nb)
                        }));
                    rng.choose(&scratch.candidates).copied()
                } else {
                    None
                };
                match next {
                    Some(x) => {
                        steps += 1;
                        ws.forward_msgs += 1;
                        scratch.touch(x);
                        scratch.tried[cur.index()].push(x);
                        scratch.on_path[x.index()] = true;
                        scratch.walk.push(x);
                        let accepts = if scratch.evaluated[x.index()] {
                            false
                        } else {
                            scratch.evaluated[x.index()] = true;
                            ws.nodes_evaluated += 1;
                            decides_to_be_contact(
                                cfg,
                                tables,
                                x,
                                source,
                                contact_list,
                                edge_list,
                                d + 1,
                                rng,
                            )
                        };
                        if accepts {
                            let mut path = route.clone();
                            path.extend_from_slice(&scratch.walk[1..]);
                            ws.reply_msgs += path.len() as u64 - 1;
                            stats.record_n(at, MsgKind::Csq, ws.forward_msgs);
                            stats.record_n(at, MsgKind::CsqBacktrack, ws.backtrack_msgs);
                            stats.record_n(at, MsgKind::CsqReply, ws.reply_msgs);
                            return (Some(Contact::new(x, path)), ws);
                        }
                    }
                    None => {
                        let popped = scratch.walk.pop().expect("walk non-empty");
                        scratch.on_path[popped.index()] = false;
                        if !scratch.walk.is_empty() {
                            steps += 1;
                            ws.backtrack_msgs += 1;
                        }
                    }
                }
            }
            stats.record_n(at, MsgKind::Csq, ws.forward_msgs);
            stats.record_n(at, MsgKind::CsqBacktrack, ws.backtrack_msgs);
            (None, ws)
        }

        #[allow(clippy::too_many_arguments)]
        pub fn select_contacts(
            net: &Network,
            cfg: &CardConfig,
            source: NodeId,
            table: &mut ContactTable,
            rng: &mut RngStream,
            stats: &mut MsgStats,
            at: SimTime,
            max_walks: usize,
            scratch: &mut RefScratch,
        ) -> CsqWalkStats {
            let mut edges = net.tables().of(source).edge_nodes().to_vec();
            rng.shuffle(&mut edges);
            let mut total = CsqWalkStats::default();
            for &edge in edges.iter().take(max_walks) {
                if table.len() >= cfg.target_contacts {
                    break;
                }
                let contact_list: Vec<NodeId> = table.ids().collect();
                let (found, ws) = csq_walk(
                    net,
                    cfg,
                    source,
                    edge,
                    &contact_list,
                    rng,
                    stats,
                    at,
                    scratch,
                );
                total.absorb(&ws);
                if let Some(c) = found {
                    if !table.contains(c.id) && !table.is_tombstoned(c.id) {
                        table.add(c);
                    }
                }
            }
            total
        }
    }

    mod properties {
        use super::reference::{self, RefScratch};
        use super::*;
        use mobility::walk::RandomWalk;
        use net_topology::geometry::{Field, Point2};
        use proptest::prelude::*;
        use sim_core::rng::SeedSplitter;

        const METHODS: [SelectionMethod; 3] = [
            SelectionMethod::ProbabilisticEq1,
            SelectionMethod::ProbabilisticEq2,
            SelectionMethod::Edge,
        ];

        /// `n` uniform nodes plus a hub (node `n`) ringed by `ring` nodes
        /// at 0.9 × range: the hub's degree exceeds `ring`, so rows longer
        /// than one mask word are walked.
        fn hub_net(n: usize, ring: usize, radius: u16, seed: u64) -> Network {
            let (side, range) = (500.0, 60.0);
            let mut rng = RngStream::seed_from_u64(seed);
            let mut positions: Vec<Point2> = (0..n)
                .map(|_| Point2::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)))
                .collect();
            let hub = Point2::new(rng.range_f64(100.0, 400.0), rng.range_f64(100.0, 400.0));
            positions.push(hub);
            for k in 0..ring {
                let a = std::f64::consts::TAU * k as f64 / ring as f64;
                positions.push(Point2::new(
                    hub.x + 0.9 * range * a.cos(),
                    hub.y + 0.9 * range * a.sin(),
                ));
            }
            Network::from_positions(Field::square(side), positions, range, radius)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The flat walk equals the reference walk bit for bit:
            /// contact tables, summed walk stats, `MsgStats` and the next
            /// RNG draw — over all three methods, pre-filled (and
            /// tombstoned) tables, a hub of degree > 64, and one scratch
            /// reused across a topology change.
            #[test]
            fn prop_flat_walk_matches_reference(
                seed in 0u64..10_000,
                method in 0usize..3,
                radius in 1u16..3,
                n in 60usize..160,
                ring in 66usize..90,
                extra in 1u16..8,
                noc in 1usize..6,
                prefill in 0usize..3,
                limited in 0usize..3,
            ) {
                let mut net = hub_net(n, ring, radius, seed);
                let cfg = CardConfig::default()
                    .with_radius(radius)
                    .with_max_contact_distance(2 * radius + extra)
                    .with_target_contacts(noc)
                    .with_method(METHODS[method]);
                let max_walks = if limited == 0 { 2 } else { ALL_EDGE_NODES };
                let splitter = SeedSplitter::new(seed);
                let mut scratch = CsqScratch::new();
                let mut ref_scratch = RefScratch::default();
                let hub = NodeId::from(n);
                let sources: Vec<NodeId> = (0..12u32)
                    .map(|i| NodeId::new(i * 7 % n as u32))
                    .chain([hub, NodeId::from(n + 1)])
                    .collect();
                let mut model = RandomWalk::new(
                    net.node_count(),
                    Field::square(500.0),
                    5.0,
                    25.0,
                    2.0,
                    splitter.stream("mob", 0),
                );
                for round in 0..2u64 {
                    for &src in &sources {
                        let lane = round * 1000 + src.index() as u64;
                        let mut table = ContactTable::new();
                        if prefill > 0 {
                            // A from-scratch pass leaves the table short of
                            // NoC, as re-selection finds it.
                            let mut rng = splitter.stream("prefill", lane);
                            let mut st = stats();
                            let short = cfg.with_target_contacts(noc.saturating_sub(1).max(1));
                            reference::select_contacts(
                                &net, &short, src, &mut table, &mut rng, &mut st,
                                SimTime::ZERO, ALL_EDGE_NODES, &mut ref_scratch,
                            );
                        }
                        if prefill == 2 {
                            // Tombstone what an unconstrained pass would
                            // pick, so accepted candidates get refused.
                            let mut probe = ContactTable::new();
                            let mut rng = splitter.stream("probe", lane);
                            let mut st = stats();
                            reference::select_contacts(
                                &net, &cfg, src, &mut probe, &mut rng, &mut st,
                                SimTime::ZERO, ALL_EDGE_NODES, &mut ref_scratch,
                            );
                            for id in probe.ids() {
                                table.tombstone(id, 2);
                            }
                        }
                        let mut ref_table = table.clone();
                        let mut rng = splitter.stream("select", lane);
                        let mut ref_rng = rng.clone();
                        let (mut st, mut ref_st) = (stats(), stats());
                        let got = select_contacts(
                            &net, &cfg, src, &mut table, &mut rng, &mut st,
                            SimTime::ZERO, max_walks, &mut scratch,
                        );
                        let want = reference::select_contacts(
                            &net, &cfg, src, &mut ref_table, &mut ref_rng, &mut ref_st,
                            SimTime::ZERO, max_walks, &mut ref_scratch,
                        );
                        prop_assert_eq!(table.contacts(), ref_table.contacts());
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(format!("{st:?}"), format!("{ref_st:?}"));
                        prop_assert_eq!(rng.next_raw(), ref_rng.next_raw());
                    }
                    net.advance(&mut model, SimDuration::from_secs(1));
                }
            }
        }
    }
}
