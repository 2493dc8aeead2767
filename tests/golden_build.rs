//! Golden digests of summary construction: every shard, every merged
//! view and every monolithic build of a fixed collection must serialize
//! to the same bytes as when the fixture was recorded.
//!
//! The v1/v3 catalog fixtures pin *decoding*; this pins *building*. A
//! change to a construction kernel (histogram bucketing, coverage
//! counting, the shard merge fold) that moves one bit of one stored
//! value changes a digest here.
//!
//! The fixture holds one line per artifact: `<grid> <artifact> <digest>`,
//! where the digest is the 64-bit FNV-1a hash of `summary::to_bytes`.
//! After a deliberate format or value change, rewrite it with
//! `XMLEST_BLESS=1 cargo test --test golden_build` and explain the diff.

use std::fmt::Write as _;
use std::path::Path;
use xmlest::core::shard::{
    build_shard_summaries, classify_document, make_collection_grid, merge_delta,
    merge_shards_stateful, DocumentSummaryInput,
};
use xmlest::core::{summary, GridPolicy, Summaries, SummaryConfig};
use xmlest::datagen::dblp::{generate as gen_dblp, DblpOptions};
use xmlest::datagen::dept::{generate_dept, DeptOptions};
use xmlest::datagen::shakespeare::{generate as gen_play, ShakespeareOptions};
use xmlest::datagen::xmark::{generate as gen_xmark, XmarkOptions};
use xmlest::predicate::BasePredicate;
use xmlest::prelude::Catalog;
use xmlest::xml::parser::parse_str;
use xmlest::xml::serialize::{to_xml_string, WriteOptions};
use xmlest::xml::{ForestBuilder, XmlTree};

const FIXTURE: &str = "tests/fixtures/build_digests.txt";

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(s: &Summaries) -> String {
    format!("{:016x}", fnv1a(&summary::to_bytes(s)))
}

fn dblp(seed: u64, records: usize) -> XmlTree {
    gen_dblp(&DblpOptions { seed, records })
}

fn dept(seed: u64, target_nodes: usize) -> XmlTree {
    generate_dept(&DeptOptions {
        seed,
        target_nodes,
        max_depth: 10,
    })
}

/// Twelve documents, three from each generator the end-to-end benchmark
/// draws from, at a quarter of its sizes; serialized and re-parsed like
/// every document the engine ingests.
fn collection() -> Vec<String> {
    (0..12u64)
        .map(|k| {
            let seed = 7_000 + k;
            let tree = match k % 4 {
                0 => dblp(seed, 50),
                1 => gen_xmark(&XmarkOptions {
                    seed,
                    items: 15,
                    people: 10,
                    auctions: 8,
                }),
                2 => gen_play(&ShakespeareOptions { seed, plays: 1 }),
                _ => dept(seed, 400),
            };
            to_xml_string(&tree, WriteOptions::default())
        })
        .collect()
}

/// Every tag, plus non-tag predicates that reach the general
/// classification path: `Level(0)` matches only the mega-root,
/// `Level(1)` every document root, and a content predicate text nodes.
fn catalog_for(trees: &[XmlTree]) -> Catalog {
    let mut catalog = Catalog::new();
    for t in trees {
        catalog.define_all_tags(t);
    }
    catalog.define("@level0", BasePredicate::Level(0));
    catalog.define("@level1", BasePredicate::Level(1));
    catalog.define("@has_e", BasePredicate::ContentContains("e".into()));
    catalog
}

/// Grid sizes 1 to 128, uniform and equi-depth, plus the slack policy
/// the end-to-end benchmark runs under.
fn configs() -> Vec<(String, SummaryConfig)> {
    let mut out = Vec::new();
    for g in [1u16, 10, 33, 128] {
        for equi in [false, true] {
            let label = format!("{}-{g}", if equi { "equi" } else { "uniform" });
            let config = SummaryConfig::paper_defaults()
                .with_grid_size(g)
                .with_equi_depth(equi);
            out.push((label, config));
        }
    }
    out.push((
        "slack-10".into(),
        SummaryConfig::paper_defaults().with_policy(GridPolicy::slack()),
    ));
    out
}

fn digests() -> String {
    let xml = collection();
    let trees: Vec<XmlTree> = xml.iter().map(|x| parse_str(x).unwrap()).collect();
    let catalog = catalog_for(&trees);
    let inputs: Vec<DocumentSummaryInput> = trees
        .iter()
        .map(|t| classify_document(t, &catalog))
        .collect();
    let mut placed: Vec<(&DocumentSummaryInput, u32)> = Vec::new();
    let mut offset = 1u32;
    for input in &inputs {
        placed.push((input, offset));
        offset += input.node_count;
    }
    let mega = {
        let mut fb = ForestBuilder::new();
        for (k, x) in xml.iter().enumerate() {
            fb.add_document(format!("doc{k}"), x).unwrap();
        }
        fb.finish().unwrap().into_tree()
    };
    let singles = [("dept", dept(31, 2_000)), ("dblp", dblp(32, 300))];

    let mut out = String::new();
    for (label, config) in configs() {
        let mut line = |artifact: &str, s: &Summaries| {
            writeln!(out, "{label} {artifact} {}", digest(s)).unwrap();
        };
        let grid = make_collection_grid(&placed, &catalog, &config).unwrap();
        let shards: Vec<Summaries> = placed
            .iter()
            .map(|&(input, off)| build_shard_summaries(input, off, &grid, &catalog, &config))
            .collect();
        for (k, shard) in shards.iter().enumerate() {
            line(&format!("shard{k:02}"), shard);
        }
        let refs: Vec<&Summaries> = shards.iter().collect();
        let (merged, _) = merge_shards_stateful(&refs, &grid, &catalog, &config).unwrap();
        line("merged", &merged);
        let (head, last) = refs.split_at(refs.len() - 1);
        let (prev, state) = merge_shards_stateful(head, &grid, &catalog, &config).unwrap();
        let (delta, _) = merge_delta(&prev, &state, last[0], &grid, &catalog, &config).unwrap();
        line("delta", &delta);
        line(
            "build/mega",
            &Summaries::build(&mega, &catalog, &config).unwrap(),
        );
        for (name, tree) in &singles {
            let mut own = Catalog::new();
            own.define_all_tags(tree);
            line(
                &format!("build/{name}"),
                &Summaries::build(tree, &own, &config).unwrap(),
            );
        }
    }
    out
}

#[test]
fn summary_builds_match_recorded_digests() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let got = digests();
    if std::env::var("XMLEST_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let diff: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("recorded {w}\n   built {g}"))
        .collect();
    assert!(
        diff.is_empty() && want.lines().count() == got.lines().count(),
        "{} of {} digests differ ({} recorded, {} built):\n{}",
        diff.len(),
        want.lines().count(),
        want.lines().count(),
        got.lines().count(),
        diff.join("\n")
    );
}
