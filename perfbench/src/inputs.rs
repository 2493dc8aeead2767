//! Seeded inputs shared by every workload: the document stream, the
//! query pool with its spellings, and the Zipf request sequence.
//!
//! Everything here is a pure function of the workload seed, so two runs
//! with one seed see byte-identical documents, strings and request
//! order.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use xmlest_datagen::dblp::{generate as gen_dblp, DblpOptions};
use xmlest_datagen::dept::{generate_dept, DeptOptions};
use xmlest_datagen::shakespeare::{generate as gen_play, ShakespeareOptions};
use xmlest_datagen::xmark::{generate as gen_xmark, XmarkOptions};
use xmlest_xml::parser::parse_str;
use xmlest_xml::serialize::{to_xml_string, WriteOptions};
use xmlest_xml::XmlTree;

/// Documents in the live window.
pub const WINDOW: usize = 32;
/// Document generators; stream document `i` comes from generator
/// `i % GENERATORS`.
pub const GENERATORS: usize = 4;
/// Distinct document contents; stream document `i` reuses content
/// `i % CONTENTS`, so a window never holds two copies of one content.
pub const CONTENTS: usize = 3 * WINDOW;
/// Length of the pre-drawn request sequence (cycled by the readers).
pub const SEQ_LEN: usize = 1 << 20;
/// Canonical twigs in the accuracy set.
pub const ACCURACY_SET: usize = 200;

/// SplitMix64: a tiny, stable PRNG, so the benchmark's draws do not
/// depend on any crate's random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The document stream: content `k` comes from generator
/// `k % GENERATORS`.
pub struct Corpus {
    contents: Vec<String>,
}

impl Corpus {
    pub fn new(seed: u64) -> Corpus {
        let contents = (0..CONTENTS)
            .map(|k| {
                let s = seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
                let tree = match k % GENERATORS {
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
                to_xml_string(&tree, WriteOptions::default())
            })
            .collect();
        Corpus { contents }
    }

    /// Name of stream document `i`.
    pub fn name(i: usize) -> String {
        format!("doc{i:06}")
    }

    /// XML of stream document `i`.
    pub fn xml(&self, i: usize) -> &str {
        &self.contents[i % CONTENTS]
    }

    /// `(name, xml)` for the window starting at stream index `first`.
    pub fn window(&self, first: usize) -> Vec<(String, &str)> {
        (first..first + WINDOW)
            .map(|i| (Corpus::name(i), self.xml(i)))
            .collect()
    }

    /// Bytes of XML in the initial window — the denominator of the
    /// per-input-byte metrics.
    pub fn window_bytes(&self) -> usize {
        (0..WINDOW).map(|i| self.xml(i).len()).sum()
    }
}

/// The four query shapes, with their share of the canonical pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `//a//b`
    Desc,
    /// `//a/b`
    Child,
    /// `//a//b//c`
    Chain,
    /// `//a[.//b][.//c]`
    Branch,
}

const SHARES: [(Shape, f64); 4] = [
    (Shape::Desc, 0.50),
    (Shape::Child, 0.15),
    (Shape::Chain, 0.20),
    (Shape::Branch, 0.15),
];

/// Tag structure observed in the initial window.
#[derive(Default)]
struct TagPaths {
    desc: BTreeSet<(String, String)>,
    child: BTreeSet<(String, String)>,
    chain: BTreeSet<(String, String, String)>,
}

impl TagPaths {
    fn collect(trees: &[XmlTree]) -> TagPaths {
        let mut out = TagPaths::default();
        for tree in trees {
            // Distinct root-to-node tag paths: a trie over tag names, so
            // the pair/triple enumeration runs once per distinct path
            // rather than once per node. Trie node 0 sits above the root.
            let mut trie: HashMap<(usize, &str), usize> = HashMap::new();
            let mut parent: Vec<usize> = vec![0];
            let mut tag: Vec<&str> = vec![""];
            let mut node_trie = vec![0usize; tree.len()];
            for node in tree.iter() {
                let Some(name) = tree.tag_name(node) else {
                    continue;
                };
                let up = tree.parent(node).map_or(0, |p| node_trie[p.index()]);
                let next = tag.len();
                let id = *trie.entry((up, name)).or_insert_with(|| {
                    parent.push(up);
                    tag.push(name);
                    next
                });
                node_trie[node.index()] = id;
            }
            for id in 1..tag.len() {
                let mut chain = Vec::new();
                let mut up = parent[id];
                while up != 0 {
                    chain.push(tag[up]);
                    up = parent[up];
                }
                let c = tag[id];
                if let Some(&p) = chain.first() {
                    out.child.insert((p.to_owned(), c.to_owned()));
                }
                for (j, &b) in chain.iter().enumerate() {
                    out.desc.insert((b.to_owned(), c.to_owned()));
                    for &a in &chain[j + 1..] {
                        out.chain.insert((a.to_owned(), b.to_owned(), c.to_owned()));
                    }
                }
            }
        }
        out
    }

    fn branches(&self) -> Vec<(String, String, String)> {
        let mut under: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (a, b) in &self.desc {
            under.entry(a).or_default().push(b);
        }
        let mut out = Vec::new();
        for (a, bs) in under {
            for (i, b) in bs.iter().enumerate() {
                for c in &bs[i + 1..] {
                    out.push((a.to_owned(), (*b).to_owned(), (*c).to_owned()));
                }
            }
        }
        out
    }
}

/// One canonical query of the pool.
#[derive(Debug, Clone)]
pub struct Twig {
    pub shape: Shape,
    pub tags: Vec<String>,
    /// The canonical spelling (`TwigNode` display of the canonical form).
    pub canonical: String,
    /// Share of all requests that name this twig.
    pub mass: f64,
}

/// The query pool: canonical twigs, their spellings in Zipf rank order,
/// and the pre-drawn request sequence.
pub struct Pool {
    pub twigs: Vec<Twig>,
    /// Every distinct spelling; index = Zipf rank (0 is hottest).
    pub strings: Vec<String>,
    /// Request sequence as indices into `strings`.
    pub sequence: Vec<u32>,
}

/// Seed of the stream that builds the pool itself.
const POOL_STREAM: u64 = 0x5EED_0F90;

fn ws(rng: &mut Rng) -> &'static str {
    const CHOICES: [&str; 8] = ["", "", "", "", "", " ", "\t", "  "];
    CHOICES[rng.below(CHOICES.len())]
}

fn pick<'a>(rng: &mut Rng, choices: &[&'a str]) -> &'a str {
    choices[rng.below(choices.len())]
}

/// One random spelling of a twig: leading axis, optional whitespace
/// wherever the parser skips it, `.//` versus `//` in branches, path
/// steps versus equivalent branches, and branch order.
fn spell(rng: &mut Rng, shape: Shape, t: &[String]) -> String {
    let mut s = String::new();
    s += ws(rng);
    s += pick(rng, &["", "/", "//"]);
    s += &t[0];
    let desc_branch = |rng: &mut Rng, inner: &str| {
        format!(
            "{}[{}{}//{}{}{}]",
            ws(rng),
            ws(rng),
            pick(rng, &[".", ""]),
            ws(rng),
            inner,
            ws(rng)
        )
    };
    let step =
        |rng: &mut Rng, axis: &str, name: &str| format!("{}{axis}{}{name}", ws(rng), ws(rng));
    match shape {
        Shape::Desc => {
            if rng.below(2) == 0 {
                s += &step(rng, "//", &t[1]);
            } else {
                s += &desc_branch(rng, &t[1]);
            }
        }
        Shape::Child => {
            if rng.below(2) == 0 {
                s += &step(rng, "/", &t[1]);
            } else {
                let axis = pick(rng, &["./", "/", ""]);
                let (a, b, c) = (ws(rng), ws(rng), ws(rng));
                s += &format!("{a}[{b}{axis}{}{c}]", t[1]);
            }
        }
        Shape::Chain => match rng.below(4) {
            0 => {
                s += &step(rng, "//", &t[1]);
                s += &step(rng, "//", &t[2]);
            }
            1 => {
                let inner = format!("{}{}", t[1], step(rng, "//", &t[2]));
                s += &desc_branch(rng, &inner);
            }
            2 => {
                s += &step(rng, "//", &t[1]);
                s += &desc_branch(rng, &t[2]);
            }
            _ => {
                let inner = format!("{}{}", t[1], desc_branch(rng, &t[2]));
                s += &desc_branch(rng, &inner);
            }
        },
        Shape::Branch => {
            let (x, y) = if rng.below(2) == 0 {
                (&t[1], &t[2])
            } else {
                (&t[2], &t[1])
            };
            s += &desc_branch(rng, x);
            s += &desc_branch(rng, y);
        }
    }
    s += ws(rng);
    s
}

/// The canonical display string of a path, or `None` if it does not
/// parse.
pub fn canonical_of(path: &str) -> Option<String> {
    xmlest_query::parse_path(path)
        .ok()
        .map(|t| t.canonicalize().to_string())
}

impl Pool {
    /// Builds the pool from the tag paths of the corpus's initial
    /// window, parsed as the database parses it. Which twigs, how each is spelled and each spelling's
    /// popularity rank come from a fixed stream, so they depend on the
    /// window's tag structure only (the same for every seed of these
    /// generators); `seed` draws the request order. Panics only on a
    /// benchmark bug: a spelling that does not canonicalize to its twig.
    pub fn new(seed: u64, corpus: &Corpus) -> Pool {
        let trees: Vec<XmlTree> = (0..WINDOW)
            .map(|i| parse_str(corpus.xml(i)).expect("generated XML parses"))
            .collect();
        let mut rng = Rng::new(POOL_STREAM);
        let paths = TagPaths::collect(&trees);
        let mut desc: Vec<Vec<String>> = paths
            .desc
            .iter()
            .map(|(a, b)| vec![a.clone(), b.clone()])
            .collect();
        let mut child: Vec<Vec<String>> = paths
            .child
            .iter()
            .map(|(a, b)| vec![a.clone(), b.clone()])
            .collect();
        let mut chain: Vec<Vec<String>> = paths
            .chain
            .iter()
            .map(|(a, b, c)| vec![a.clone(), b.clone(), c.clone()])
            .collect();
        let mut branch: Vec<Vec<String>> = paths
            .branches()
            .into_iter()
            .map(|(a, b, c)| vec![a, b, c])
            .collect();
        // The pool size is capped by the scarcest shape, so the shares
        // hold exactly.
        let avail = [desc.len(), child.len(), chain.len(), branch.len()];
        let total = SHARES
            .iter()
            .zip(avail)
            .map(|(&(_, share), n)| (n as f64 / share) as usize)
            .min()
            .unwrap_or(0);
        let mut twigs = Vec::new();
        let mut seen = HashSet::new();
        for ((shape, share), list) in
            SHARES
                .iter()
                .zip([&mut desc, &mut child, &mut chain, &mut branch])
        {
            rng.shuffle(list);
            let want = (total as f64 * share).round() as usize;
            let mut taken = 0;
            for tags in list.iter() {
                if taken == want {
                    break;
                }
                let canonical = canonical_of(&spell(&mut Rng::new(0), *shape, tags))
                    .expect("generated twig parses");
                if seen.insert(canonical.clone()) {
                    taken += 1;
                    twigs.push(Twig {
                        shape: *shape,
                        tags: tags.clone(),
                        canonical,
                        mass: 0.0,
                    });
                }
            }
        }

        let mut spellings: Vec<(String, u32)> = Vec::new();
        for (k, twig) in twigs.iter().enumerate() {
            let want = 1 + rng.below(8);
            let mut mine: Vec<String> = Vec::new();
            for _ in 0..64 {
                if mine.len() == want {
                    break;
                }
                let s = spell(&mut rng, twig.shape, &twig.tags);
                if !mine.contains(&s) {
                    let canon = canonical_of(&s);
                    assert_eq!(
                        canon.as_deref(),
                        Some(twig.canonical.as_str()),
                        "spelling {s:?} must canonicalize to its twig"
                    );
                    mine.push(s);
                }
            }
            spellings.extend(mine.into_iter().map(|s| (s, k as u32)));
        }
        rng.shuffle(&mut spellings);
        let (strings, twig_of): (Vec<String>, Vec<u32>) = spellings.into_iter().unzip();

        // Zipf(s = 1) over spelling ranks.
        let weights: Vec<f64> = (0..strings.len()).map(|r| 1.0 / (r + 1) as f64).collect();
        let norm: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for (r, w) in weights.iter().enumerate() {
            acc += w / norm;
            cdf.push(acc);
            twigs[twig_of[r] as usize].mass += w / norm;
        }
        let mut draws = Rng::new(seed);
        let sequence = (0..SEQ_LEN)
            .map(|_| {
                let u = draws.unit();
                cdf.partition_point(|&c| c < u).min(strings.len() - 1) as u32
            })
            .collect();
        Pool {
            twigs,
            strings,
            sequence,
        }
    }

    /// Twig indices, most requested first (ties by canonical string).
    pub fn by_mass(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.twigs.len()).collect();
        order.sort_by(|&a, &b| {
            self.twigs[b]
                .mass
                .total_cmp(&self.twigs[a].mass)
                .then_with(|| self.twigs[a].canonical.cmp(&self.twigs[b].canonical))
        });
        order
    }
}
