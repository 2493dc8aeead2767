//! The two repository rules that check files and runtime state rather
//! than Rust code, so clippy cannot hold them (README "Lints"): every
//! bench that writes a `BENCH_*.json` artifact runs in CI, and every
//! metric the engine registers carries a doc string.

use std::fs;
use std::path::Path;
use xmlest_core::SummaryConfig;
use xmlest_engine::Database;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A bench whose source mentions `XMLEST_BENCH_JSON` (the criterion
/// shim's artifact hook) must be run with `--bench <name>` in CI, or its
/// committed `BENCH_*.json` silently goes stale.
#[test]
fn artifact_benches_run_in_ci() {
    let manifest = read("crates/bench/Cargo.toml");
    let ci = read(".github/workflows/ci.yml");
    let in_ci = |name: &str| {
        ci.lines().any(|line| {
            let mut words = line.split_whitespace();
            words.by_ref().any(|w| w == "--bench") && words.next() == Some(name)
        })
    };
    let names: Vec<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .filter_map(|table| {
            let line = table.lines().find(|l| l.trim_start().starts_with("name"))?;
            line.split('"').nth(1)
        })
        .collect();
    let mut artifact_benches = 0;
    for name in names {
        if read(&format!("crates/bench/benches/{name}.rs")).contains("XMLEST_BENCH_JSON") {
            artifact_benches += 1;
            assert!(
                in_ci(name),
                "bench `{name}` writes a BENCH_*.json artifact but ci.yml never runs `--bench {name}`"
            );
        }
    }
    assert!(artifact_benches > 0, "no bench writes an artifact");
}

/// `Registry` renders an empty doc as `(undocumented)`. Drive every
/// path that registers metrics — load, estimate, add, remove, save,
/// reopen, export — and check that none did.
#[test]
fn every_registered_metric_is_documented() {
    let config = SummaryConfig::paper_defaults().with_grid_size(8);
    let mut db = Database::load_documents(
        [
            ("a.xml", "<dept><emp><name/></emp><emp/></dept>"),
            ("b.xml", "<dept><emp><name/><name/></emp></dept>"),
        ],
        &config,
    )
    .unwrap();
    db.estimate("//dept//name").unwrap();
    db.add_document("c.xml", "<dept><emp/></dept>").unwrap();
    db.remove_document("a.xml").unwrap();
    let reopened = Database::open_catalog(&db.save_catalog()).unwrap();
    reopened.estimate("//emp/name").unwrap();
    for d in [&db, &reopened] {
        let obs = d.recorder().snapshot();
        assert!(!obs.counters.is_empty(), "the engine registers counters");
        let docs = obs.counters.iter().map(|c| (c.name, c.doc));
        for (name, doc) in docs.chain(obs.histograms.iter().map(|h| (h.name, h.doc))) {
            assert_ne!(doc, "(undocumented)", "metric `{name}` has no doc");
        }
        let telemetry = d.telemetry();
        let export = telemetry.to_prometheus() + &telemetry.to_json();
        assert!(!export.contains("(undocumented)"), "{export}");
    }
}
