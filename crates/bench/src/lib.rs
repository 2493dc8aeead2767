//! Shared workload construction for the benchmark harness and the
//! `paper_tables` binary.
//!
//! Each function builds one of the paper's evaluation setups: the data
//! set, the predicate catalog the paper describes for it, and summaries
//! at the paper's default 10×10 grid (Section 5: "We used 10×10
//! histograms in all experiments, except where explicitly stated
//! otherwise").

pub mod accuracy;
pub mod baseline;

use xmlest_core::{Summaries, SummaryConfig};
use xmlest_datagen::dblp::{generate as gen_dblp, DblpOptions};
use xmlest_datagen::dept::{generate_dept, paper_dtd, DeptOptions};
use xmlest_datagen::shakespeare::{generate as gen_play, ShakespeareOptions};
use xmlest_datagen::xmark::{generate as gen_xmark, XmarkOptions};
use xmlest_predicate::selection::define_decade_predicates;
use xmlest_predicate::{BasePredicate, Catalog};
use xmlest_xml::serialize::{to_xml_string, WriteOptions};
use xmlest_xml::XmlTree;

/// A ready-to-measure workload.
pub struct Workload {
    pub name: &'static str,
    pub tree: XmlTree,
    pub catalog: Catalog,
    pub summaries: Summaries,
}

impl Workload {
    fn build(
        name: &'static str,
        tree: XmlTree,
        catalog: Catalog,
        config: &SummaryConfig,
    ) -> Workload {
        let summaries = Summaries::build(&tree, &catalog, config).expect("summaries build");
        Workload {
            name,
            tree,
            catalog,
            summaries,
        }
    }

    /// Rebuilds summaries at a different grid size.
    pub fn at_grid(&self, g: u16) -> Summaries {
        Summaries::build(
            &self.tree,
            &self.catalog,
            &SummaryConfig::paper_defaults().with_grid_size(g),
        )
        .expect("summaries build")
    }
}

/// The DBLP workload of Tables 1–2 and Fig. 12: flat bibliography
/// records plus the paper's content predicates (`conf`/`journal`
/// prefixes, decade compounds).
pub fn dblp_workload(records: usize) -> Workload {
    let tree = gen_dblp(&DblpOptions { seed: 42, records });
    let mut catalog = Catalog::new();
    catalog.define_all_tags(&tree);
    catalog.define("conf", BasePredicate::ContentPrefix("conf".into()));
    catalog.define("journal", BasePredicate::ContentPrefix("journals".into()));
    define_decade_predicates(&mut catalog, &tree);
    Workload::build("dblp", tree, catalog, &SummaryConfig::paper_defaults())
}

/// The synthetic department workload of Tables 3–4 and Fig. 11,
/// generated from the paper's exact DTD, with the DTD's structural
/// analysis attached for schema shortcuts.
pub fn dept_workload(target_nodes: usize) -> Workload {
    let tree = generate_dept(&DeptOptions {
        seed: 42,
        target_nodes,
        max_depth: 12,
    });
    let mut catalog = Catalog::new();
    catalog.define_all_tags(&tree);
    let config = SummaryConfig::paper_defaults().with_dtd(paper_dtd().analyze());
    Workload::build("dept", tree, catalog, &config)
}

/// A mixed document window like the end-to-end benchmark's: document
/// `k` comes from the dblp, XMark, Shakespeare or dept generator in
/// turn (`k % 4`), at that benchmark's sizes and with its per-document
/// seeds, serialized to XML as `(name, xml)` pairs.
pub fn mixed_window(seed: u64, docs: usize) -> Vec<(String, String)> {
    (0..docs)
        .map(|k| {
            let s = seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
            let tree = match k % 4 {
                0 => gen_dblp(&DblpOptions {
                    seed: s,
                    records: 200,
                }),
                1 => gen_xmark(&XmarkOptions {
                    seed: s,
                    items: 60,
                    people: 40,
                    auctions: 30,
                }),
                2 => gen_play(&ShakespeareOptions { seed: s, plays: 1 }),
                _ => generate_dept(&DeptOptions {
                    seed: s,
                    target_nodes: 1_500,
                    max_depth: 12,
                }),
            };
            (
                format!("doc{k:06}"),
                to_xml_string(&tree, WriteOptions::default()),
            )
        })
        .collect()
}

/// Default `dept` scale of the `substrate` bench (kept
/// moderate so `cargo bench` finishes quickly; `paper_tables` accepts
/// larger scales).
pub const DEPT_BENCH_NODES: usize = 2_500;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build() {
        let w = dblp_workload(200);
        assert!(w.summaries.get("article").is_some());
        assert!(w.summaries.get("conf").is_some());
        let w = dept_workload(500);
        assert!(w.summaries.get("manager").is_some());
        assert!(w.at_grid(4).grid().g() == 4);
    }
}
