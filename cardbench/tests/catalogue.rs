//! The benchmark's own checks: every workload prints exactly the metrics
//! `BENCHMARK.json` declares, with their units; the output checker catches
//! corrupted contact tables; the timing wrapper is a transparent forward.

use card_core::{CardConfig, CardWorld, Contact, ContactTable};
use cardbench::check::contact_violations;
use cardbench::metrics::{END_TO_END, PER_LAYER};
use cardbench::timed::Timed;
use cardbench::trace::Recorder;
use cardbench::workloads::Workload;
use cardbench::{run, Options};
use experiments::scale::scaled_scenario;
use mobility::{MobilityModel, RandomWalk};
use net_topology::node::NodeId;
use sim_core::rng::SeedSplitter;
use sim_core::time::SimDuration;

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("metric list closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\"")).expect("metric field") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn catalogue(list: &[cardbench::metrics::Metric]) -> Vec<(String, String)> {
    list.iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    assert_eq!(catalogue(END_TO_END), declared("end_to_end"));
    assert_eq!(catalogue(PER_LAYER), declared("per_layer"));
}

/// The `(name, unit)` pairs of a result line's `metrics` object, in order.
fn printed(result: &str) -> Vec<(String, String)> {
    let body = &result[result.find("\"metrics\":{").expect("metrics object") + 11..];
    body.split("},")
        .map(|entry| {
            let name = entry.split('"').nth(1).expect("metric name").to_string();
            let unit_at = entry.find("\"unit\":\"").expect("unit") + 8;
            let unit = entry[unit_at..].split('"').next().expect("unit value");
            (name, unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let cwd = env!("CARGO_TARGET_TMPDIR");
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_cardbench"))
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    "7",
                    "--seconds",
                    "0",
                ])
                .args(["--trace", trace, "--nodes", "400"])
                .current_dir(cwd)
                .output()
                .expect("benchmark binary runs");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let what = format!("{} --trace {trace}", workload.name());
            assert!(
                out.status.success(),
                "{what}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\":true,\"attempted\":"),
                "{what}: {last}"
            );
            assert!(last.contains("\"failed\":0,"), "{what}: {last}");
            let section = if trace == "1" {
                "per_layer"
            } else {
                "end_to_end"
            };
            assert_eq!(printed(last), declared(section), "{what}");
        }
    }
}

#[test]
fn traced_and_untraced_passes_agree() {
    // `run` fails a run whose deterministic outputs differ between passes;
    // a traced run alternates an untraced and a traced pass.
    for workload in Workload::ALL {
        let out = run(&Options {
            workload,
            seed: 9,
            seconds: 0.0,
            trace: true,
            nodes: 400,
        });
        assert_eq!(out.passes, 2);
        assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.messages);
        assert!(out.metrics.iter().all(|(_, v)| v.is_finite()));
    }
}

fn selected_world() -> CardWorld {
    let cfg = CardConfig::default()
        .with_radius(2)
        .with_max_contact_distance(8)
        .with_target_contacts(4)
        .with_seed(3);
    let mut w = CardWorld::build(&scaled_scenario(400), cfg);
    w.select_all_contacts();
    w
}

#[test]
fn checker_accepts_selected_tables_and_catches_corruption() {
    let w = selected_world();
    let net = w.network();
    let tables: Vec<ContactTable> = w.contact_tables().iter().cloned().collect();
    let check = |tables: &[ContactTable], hops: u16, noc: usize| {
        contact_violations(net, &tables.iter().collect::<Vec<_>>(), hops, noc)
    };
    assert_eq!(check(&tables, 8, 4), 0);

    // A hop replaced by a node that is not linked to its predecessor.
    let (owner, contact) = tables
        .iter()
        .enumerate()
        .find_map(|(i, t)| {
            t.contacts()
                .iter()
                .find(|c| c.path.len() >= 3)
                .map(|c| (i, c.clone()))
        })
        .expect("some contact path has an interior hop");
    let stranger = (0..net.node_count())
        .map(NodeId::from)
        .find(|&v| !net.is_link(contact.path[0], v) && v != contact.path[0])
        .expect("a node outside the owner's range");
    let mut broken = tables.clone();
    let mut path = contact.path.clone();
    path[1] = stranger;
    broken[owner].update_path(contact.id, path);
    assert_eq!(check(&broken, 8, 4), 1);

    // A path longer than r hops.
    assert_eq!(check(&tables, contact.hops() - 1, 4), {
        tables
            .iter()
            .flat_map(|t| t.contacts())
            .filter(|c| c.hops() > contact.hops() - 1)
            .count() as u64
    });

    // A self contact, and a table over NoC.
    let mut selfish = tables.clone();
    let neighbour = net.adj().neighbors(NodeId::from(owner))[0];
    selfish[owner].clear();
    selfish[owner].add(Contact::new(
        NodeId::from(owner),
        vec![neighbour, NodeId::from(owner)],
    ));
    assert_eq!(check(&selfish, 8, 4), 1);
    assert!(check(&tables, 8, 1) > 0);
}

#[test]
fn timing_wrapper_forwards_every_method() {
    let field = scaled_scenario(64).field();
    let walk = |seed| {
        RandomWalk::new_with_dwell(
            64,
            field,
            0.5,
            2.0,
            2.0,
            0.7,
            SeedSplitter::new(seed).stream("wrapper", 0),
        )
    };
    let mut plain = walk(5);
    let rec = Recorder::new();
    let mut timed = Timed::new(Box::new(walk(5)), rec.clone());
    let start: Vec<_> = (0..64)
        .map(|i| net_topology::geometry::Point2::new(i as f64, i as f64))
        .collect();
    let (mut a, mut b) = (start.clone(), start);
    let (mut ma, mut mb) = (Vec::new(), Vec::new());
    assert_eq!(timed.name(), plain.name());
    for step in 0..20u64 {
        assert_eq!(timed.is_static(), plain.is_static());
        assert_eq!(timed.quiescent_for(), plain.quiescent_for());
        let dt = SimDuration::from_millis(100 * (1 + step % 3));
        if step % 2 == 0 {
            plain.advance_reporting(&mut a, dt, &mut ma);
            timed.advance_reporting(&mut b, dt, &mut mb);
            assert_eq!(ma, mb);
        } else {
            plain.advance(&mut a, dt);
            timed.advance(&mut b, dt);
        }
        assert_eq!(a, b);
    }
    assert_eq!(rec.mobility().calls, 20);
}
