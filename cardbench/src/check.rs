//! Output checks run on every pass (outside the timed script).

use card_core::{CardWorld, ContactTable};
use manet_routing::network::Network;

/// Failed checks of one pass.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks that found at least one violation.
    pub failed: u64,
    /// The first few failures, for the log.
    pub messages: Vec<String>,
}

impl Checks {
    /// Record the outcome of check `what`: `violations` must be 0.
    pub fn expect_zero(&mut self, what: &str, violations: u64) {
        if violations > 0 {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages
                    .push(format!("{what}: {violations} violation(s)"));
            }
        }
    }

    /// Record a condition that must hold.
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.expect_zero(what, u64::from(!ok));
    }
}

/// Contact-table invariants over `tables` (indexed by owner): every stored
/// path runs from its owner to the contact over links of `net` in at most
/// `max_hops` hops, and no table holds its owner, a duplicate, or more than
/// `noc` contacts. Returns the number of violations. The tables are split
/// over `max_workers()` scoped threads.
pub fn contact_violations(
    net: &Network,
    tables: &[&ContactTable],
    max_hops: u16,
    noc: usize,
) -> u64 {
    let workers = sim_core::par::max_workers();
    let chunk = tables.len().div_ceil(workers).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = tables
            .chunks(chunk)
            .enumerate()
            .map(|(i, part)| {
                scope.spawn(move || span_violations(net, part, i * chunk, max_hops, noc))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread panicked"))
            .sum()
    })
}

/// [`contact_violations`] over the tables of owners `first..first + len`.
fn span_violations(
    net: &Network,
    tables: &[&ContactTable],
    first: usize,
    max_hops: u16,
    noc: usize,
) -> u64 {
    let mut bad = 0u64;
    let mut ids = Vec::new();
    for (k, table) in tables.iter().enumerate() {
        let owner = first + k;
        let contacts = table.contacts();
        bad += u64::from(contacts.len() > noc);
        ids.clear();
        for c in contacts {
            ids.push(c.id);
            let path = &c.path;
            let ends_ok = path.len() >= 2
                && path[0].index() == owner
                && path.last() == Some(&c.id)
                && c.id.index() != owner;
            let hops_ok = path.len() <= max_hops as usize + 1;
            let links_ok = path.windows(2).all(|w| net.is_link(w[0], w[1]));
            bad += u64::from(!(ends_ok && hops_ok && links_ok));
        }
        ids.sort_unstable();
        bad += ids.windows(2).filter(|w| w[0] == w[1]).count() as u64;
    }
    bad
}

/// The plane ledger `sent == local + cross_shard + dropped + deferred`.
pub fn plane_ledger_holds(world: &CardWorld) -> bool {
    let p = world.plane_stats();
    p.sent == p.local + p.cross_shard + p.dropped + world.plane_deferred_pending() as u64
}

/// Run every world-level check: contact tables, the plane ledger and the
/// fault subsystem's liveness and grid-residency audits.
pub fn check_world(world: &CardWorld, checks: &mut Checks) {
    let cfg = world.config();
    checks.expect_zero(
        "contact tables",
        contact_violations(
            world.network(),
            &world.contact_tables().iter().collect::<Vec<_>>(),
            cfg.max_contact_distance,
            cfg.target_contacts,
        ),
    );
    checks.expect("plane ledger", plane_ledger_holds(world));
    let faults = world.fault_report();
    checks.expect_zero("tombstone liveness", faults.liveness_violations);
    checks.expect_zero("fault grid audit", faults.grid_audit_violations);
}

/// One fingerprint per stored contact: (owner, contact, hash of its path),
/// sorted.
pub fn path_prints(world: &CardWorld) -> Vec<(u32, u32, u64)> {
    let mut out = Vec::with_capacity(world.total_contacts());
    for (owner, table) in world.contact_tables().iter().enumerate() {
        for c in table.contacts() {
            // FNV-1a over the hop ids.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for hop in &c.path {
                h = (h ^ hop.index() as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            out.push((owner as u32, c.id.index() as u32, h));
        }
    }
    out.sort_unstable();
    out
}

/// How many of the `before` paths are still stored, unchanged, in `after`
/// (both sorted, as [`path_prints`] returns them).
pub fn unchanged_paths(before: &[(u32, u32, u64)], after: &[(u32, u32, u64)]) -> usize {
    before
        .iter()
        .filter(|p| after.binary_search(p).is_ok())
        .count()
}
