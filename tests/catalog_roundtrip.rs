//! Property tests for the persistent catalog format: build → save →
//! open → byte-identical estimates, across randomized documents and
//! configs; plus rejection tests for hostile bytes (truncations, bit
//! flips, bad checksums, version mismatches) — errors, never panics.

use proptest::prelude::*;
use xmlest::core::{Basis, Error as CoreError, EstimateMethod, SummaryConfig};
use xmlest::engine::Database;

/// A small random document: nested sections with a few distinct tags.
fn random_doc(shape: &[u8]) -> String {
    const TAGS: [&str; 5] = ["sec", "p", "note", "fig", "ref"];
    let mut xml = String::from("<doc>");
    let mut open: Vec<&str> = Vec::new();
    for &b in shape {
        let tag = TAGS[(b % 5) as usize];
        match b % 4 {
            // Open a nested container (bounded depth).
            0 if open.len() < 4 => {
                xml.push('<');
                xml.push_str(tag);
                xml.push('>');
                open.push(tag);
            }
            // Close the innermost container.
            1 => {
                if let Some(t) = open.pop() {
                    xml.push_str("</");
                    xml.push_str(t);
                    xml.push('>');
                }
            }
            // A leaf element.
            _ => {
                xml.push('<');
                xml.push_str(tag);
                xml.push_str("/>");
            }
        }
    }
    while let Some(t) = open.pop() {
        xml.push_str("</");
        xml.push_str(t);
        xml.push('>');
    }
    xml.push_str("</doc>");
    xml
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn randomized_collections_round_trip_byte_identically(
        shapes in prop::collection::vec(prop::collection::vec(0u8..255, 4..40), 1..5),
        grid in 3u16..24,
        equi in 0u8..2,
        queries in prop::collection::vec((0usize..5, 0usize..5), 4..10),
    ) {
        const TAGS: [&str; 5] = ["sec", "p", "note", "fig", "ref"];
        let docs: Vec<(String, String)> = shapes
            .iter()
            .enumerate()
            .map(|(i, shape)| (format!("d{i}.xml"), random_doc(shape)))
            .collect();
        let mut config = SummaryConfig::paper_defaults().with_grid_size(grid);
        config.equi_depth = equi == 1;
        let db = Database::load_documents(
            docs.iter().map(|(n, x)| (n.as_str(), x.as_str())),
            &config,
        )
        .expect("collection builds");

        // Estimate before saving and remember the values.
        let mut expected = Vec::new();
        for &(a, d) in &queries {
            let path = format!("//{}//{}", TAGS[a], TAGS[d]);
            expected.push((path.clone(), db.estimate(&path).map(|e| e.value)));
        }

        let bytes = db.save_catalog();
        let reopened = Database::open_catalog(&bytes).expect("catalog reopens");
        prop_assert_eq!(reopened.document_names().len(), docs.len());
        prop_assert!(!reopened.has_data());

        for (path, want) in &expected {
            let got = reopened.estimate(path).map(|e| e.value);
            match (want, got) {
                (Ok(w), Ok(g)) => prop_assert_eq!(
                    w.to_bits(), g.to_bits(),
                    "{}: {} vs {} not byte-identical", path, w, g
                ),
                (Err(_), Err(_)) => {}
                (w, g) => prop_assert!(false, "{}: {:?} vs {:?}", path, w, g),
            }
        }

        // Reopening the reopened database's own catalog is stable too
        // (serialization is deterministic given equal contents).
        let bytes2 = reopened.save_catalog();
        let reopened2 = Database::open_catalog(&bytes2).expect("second generation");
        for (path, want) in &expected {
            if let (Ok(w), Ok(g)) = (want, reopened2.estimate(path).map(|e| e.value)) {
                prop_assert_eq!(w.to_bits(), g.to_bits());
            }
        }
    }

    #[test]
    fn hostile_bytes_error_but_never_panic(
        shape in prop::collection::vec(0u8..255, 8..40),
        cut_seed in 0usize..10_000,
        flip_seed in 0usize..10_000,
    ) {
        let doc = random_doc(&shape);
        let db = Database::load_documents(
            [("a.xml", doc.as_str())],
            &SummaryConfig::paper_defaults().with_grid_size(6),
        )
        .expect("collection builds");
        db.estimate("//sec//p").ok();

        // The current format and the v3 and v4 fixtures, whose COEFFS
        // and DRIFT sections the open walks and discards.
        for bytes in [db.save_catalog(), V3_FIXTURE.to_vec(), V4_FIXTURE.to_vec()] {
            // Any truncation is rejected.
            let cut = cut_seed % bytes.len();
            prop_assert!(Database::open_catalog(&bytes[..cut]).is_err());

            // Any single-byte corruption is rejected (header fields break
            // magic/version/length checks; payload bytes break the
            // checksum).
            let pos = flip_seed % bytes.len();
            let mut bad = bytes.clone();
            bad[pos] ^= 0xA5;
            match Database::open_catalog(&bad) {
                Err(xmlest::engine::Error::Core(CoreError::Corrupt(_))) => {}
                Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
                Ok(_) => prop_assert!(false, "corrupted catalog at byte {} accepted", pos),
            }

            // Trailing garbage is rejected.
            let mut extended = bytes.clone();
            extended.extend_from_slice(&[0, 1, 2]);
            prop_assert!(Database::open_catalog(&extended).is_err());
        }
    }

    /// Heavier corruption than the single-flip case: several random
    /// byte mutations (each guaranteed to change its byte), optionally
    /// after truncation. The strict open must reject every such blob —
    /// never panic, never `Ok` — and the lenient open must never panic
    /// either (it may succeed with quarantines or reject; both are
    /// legal, silent acceptance of *unflagged* damage is not, which the
    /// strict checksums pin).
    #[test]
    fn mutated_bytes_never_panic_in_either_open_mode(
        shape in prop::collection::vec(0u8..255, 8..40),
        cut_seed in 0usize..10_000,
        flips in prop::collection::vec((0usize..10_000, 1u8..255), 1..12),
        truncate_first in 0u8..2,
    ) {
        let doc = random_doc(&shape);
        let db = Database::load_documents(
            [("a.xml", doc.as_str())],
            &SummaryConfig::paper_defaults().with_grid_size(6),
        )
        .expect("collection builds");
        db.estimate("//sec//p").ok();

        // The current format and the v4 fixture, whose DRIFT section
        // the open walks and discards.
        for bytes in [db.save_catalog(), V4_FIXTURE.to_vec()] {
            let mut bad = bytes.clone();
            if truncate_first == 1 {
                bad.truncate(cut_seed % bad.len());
            }
            if !bad.is_empty() {
                for &(pos_seed, xor) in &flips {
                    let pos = pos_seed % bad.len();
                    bad[pos] ^= xor;
                }
            }

            // Strict: anything that differs from the saved bytes errors.
            // (Flips can land on the same position and cancel, so
            // compare.)
            if bad != bytes {
                prop_assert!(
                    Database::open_catalog(&bad).is_err(),
                    "damaged catalog accepted strictly"
                );
            }
            // Lenient: may degrade, may reject — must not panic, and a
            // success must serve estimates without panicking either.
            if let Ok((degraded, report)) = Database::open_catalog_degraded(&bad) {
                let _ = report.is_clean();
                let _ = degraded.estimate("//sec//p");
            }
        }
    }
}

#[test]
fn version_mismatch_rejected_with_clear_error() {
    let db = Database::load_documents(
        [("a.xml", "<doc><sec><p/></sec></doc>")],
        &SummaryConfig::paper_defaults().with_grid_size(4),
    )
    .unwrap();
    let mut bytes = db.save_catalog();
    // Version field sits right after the 4-byte magic.
    bytes[4] = 0xFE;
    bytes[5] = 0xFF;
    match Database::open_catalog(&bytes) {
        Err(xmlest::engine::Error::Core(CoreError::Corrupt(msg))) => {
            assert!(msg.contains("version"), "message was {msg:?}");
        }
        Err(other) => panic!("expected Corrupt(version ...), got {other:?}"),
        Ok(_) => panic!("version-tampered catalog accepted"),
    }
}

#[test]
fn empty_and_tiny_inputs_rejected() {
    assert!(Database::open_catalog(&[]).is_err());
    assert!(Database::open_catalog(b"XCTL").is_err());
    assert!(Database::open_catalog(&[0u8; 21]).is_err());
    assert!(Database::open_catalog(&vec![0xFFu8; 4096]).is_err());
}

/// Catalog header bytes before the payload: magic, version, payload
/// length and payload checksum.
const HEADER_LEN: usize = 22;
/// Section kind of the v1–v3 coefficient tables.
const SEC_COEFFS: u8 = 4;

/// A catalog saved by the last format version that persisted
/// precomputed coefficient tables; CHANGES.md records how it was
/// generated.
const V3_FIXTURE: &[u8] = include_bytes!("fixtures/catalog_v3.bin");

/// The `f64` bits each path estimated to in the database that saved
/// [`V3_FIXTURE`], served through its warm coefficient tables.
const V3_ESTIMATES: [(&str, u64); 7] = [
    ("//sec//p", 0x4020800000000000),
    ("//sec//sec", 0x4011000000000000),
    ("//sec//sec//p", 0x400e0e38e38e38e3),
    ("//doc//sec", 0x4017555555555555),
    ("//sec[.//fig]//p", 0x400e555555555555),
    ("//doc//note//p", 0x3fd999999999999a),
    ("//sec//note", 0x4002aaaaaaaaaaaa),
];

/// The descendant-based primitive `sec // p` pair estimate of the same
/// database, served through its descendant-based table.
const V3_PAIR_BITS: u64 = 0x402f800000000000;

fn version(bytes: &[u8]) -> u16 {
    u16::from_le_bytes([bytes[4], bytes[5]])
}

/// The framed (v3+) payload's sections: kind and body byte range.
fn frames(bytes: &[u8]) -> Vec<(u8, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    let mut at = HEADER_LEN;
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
        let body = at + 17;
        out.push((bytes[at], body..body + len));
        at = body + len;
    }
    out
}

/// Asserts that `db` serves every [`V3_ESTIMATES`] path, and the pair,
/// at the recorded bits.
fn assert_v3_estimates(db: &Database, what: &str) {
    for (path, bits) in V3_ESTIMATES {
        let got = db.estimate(path).unwrap().value;
        assert_eq!(
            got.to_bits(),
            bits,
            "{what} {path}: {got} vs {}",
            f64::from_bits(bits)
        );
    }
    let pair = db
        .summaries()
        .estimator()
        .estimate_pair(
            "sec",
            "p",
            EstimateMethod::Primitive(Basis::DescendantBased),
        )
        .unwrap()
        .value;
    assert_eq!(pair.to_bits(), V3_PAIR_BITS, "{what} sec//p pair: {pair}");
}

/// A **version 3** catalog whose COEFFS section holds precomputed
/// tables opens under both modes with a clean report, and estimates to
/// the bits its writer served through those tables: the streaming
/// kernel computes the same products in the same order. Re-saving
/// writes version 4 without the section.
#[test]
fn v3_catalog_fixture_skips_coefficients_and_keeps_estimates() {
    assert_eq!(&V3_FIXTURE[..4], b"XCTL");
    assert_eq!(version(V3_FIXTURE), 3);
    let coeffs = frames(V3_FIXTURE)
        .into_iter()
        .find(|(kind, _)| *kind == SEC_COEFFS)
        .expect("the fixture has a COEFFS section")
        .1;
    let tables = u32::from_le_bytes(
        V3_FIXTURE[coeffs.start..coeffs.start + 4]
            .try_into()
            .unwrap(),
    );
    assert!(tables > 0, "the fixture's COEFFS section holds tables");

    let strict = Database::open_catalog(V3_FIXTURE).expect("strict open");
    let (lenient, report) = Database::open_catalog_degraded(V3_FIXTURE).expect("lenient open");
    assert!(report.is_clean(), "{report:?}");
    for (db, what) in [(&strict, "strict"), (&lenient, "lenient")] {
        assert_eq!(db.document_names(), vec!["a.xml", "b.xml", "c.xml"]);
        assert_v3_estimates(db, what);
    }

    let upgraded = strict.save_catalog();
    assert_eq!(version(&upgraded), 4);
    assert!(frames(&upgraded)
        .iter()
        .all(|(kind, _)| *kind != SEC_COEFFS));
    let again = Database::open_catalog(&upgraded).expect("v4 re-save opens");
    assert_v3_estimates(&again, "v4 re-save");
}

/// A version 4 catalog saved with a DRIFT section: a slack-policy
/// collection after three appends and two removals. CHANGES.md records
/// how it was generated.
const V4_FIXTURE: &[u8] = include_bytes!("fixtures/catalog_v4.bin");

/// Section kind of the drift-tracker rows.
const SEC_DRIFT: u8 = 5;

/// The `f64` bits each path estimated to in the database that saved
/// [`V4_FIXTURE`].
const V4_ESTIMATES: [(&str, u64); 7] = [
    ("//sec//p", 0x401f555555555555),
    ("//sec//sec", 0x400aaaaaaaaaaaaa),
    ("//sec//sec//p", 0x40021c71c71c71c7),
    ("//doc//sec", 0x4010aaaaaaaaaaab),
    ("//sec[.//fig]//p", 0x4013000000000000),
    ("//doc//note//p", 0x3ff0000000000000),
    ("//sec//note", 0x3ffc000000000000),
];

fn assert_v4_estimates(db: &Database, what: &str) {
    for (path, bits) in V4_ESTIMATES {
        let got = db.estimate(path).unwrap().value;
        assert_eq!(
            got.to_bits(),
            bits,
            "{what} {path}: {got} vs {}",
            f64::from_bits(bits)
        );
    }
}

/// A **version 4** catalog carrying a DRIFT section opens under both
/// modes with a clean report and estimates to the bits its writer
/// served. The open walks the section and builds nothing from it, and
/// the re-save carries no DRIFT section.
#[test]
fn v4_catalog_fixture_with_drift_keeps_estimates() {
    assert_eq!(&V4_FIXTURE[..4], b"XCTL");
    assert_eq!(version(V4_FIXTURE), 4);
    let drift = frames(V4_FIXTURE)
        .into_iter()
        .find(|(kind, _)| *kind == SEC_DRIFT)
        .expect("the fixture has a DRIFT section")
        .1;
    assert!(!drift.is_empty());

    let strict = Database::open_catalog(V4_FIXTURE).expect("strict open");
    let (lenient, report) = Database::open_catalog_degraded(V4_FIXTURE).expect("lenient open");
    assert!(report.is_clean(), "{report:?}");
    for (db, what) in [(&strict, "strict"), (&lenient, "lenient")] {
        assert_eq!(
            db.document_names(),
            vec!["c.xml", "d.xml", "e.xml", "f.xml"]
        );
        assert_v4_estimates(db, what);
    }

    let resaved = strict.save_catalog();
    assert_eq!(version(&resaved), 4);
    assert!(frames(&resaved).iter().all(|(kind, _)| *kind != SEC_DRIFT));
    let again = Database::open_catalog(&resaved).expect("re-save opens");
    assert_v4_estimates(&again, "re-save");
}

/// A catalog saved by the **version 1** format (bytes produced by the
/// pre-maintenance code and checked in as a fixture) must still open:
/// the grid policy defaults to `Static` — exactly the behavior the
/// bytes were produced under — and estimates come out bit-identical to
/// a fresh build of the same collection with the same config.
#[test]
fn v1_catalog_fixture_opens_with_static_policy() {
    let bytes = include_bytes!("fixtures/catalog_v1.bin");
    // Header sanity: the fixture really is version 1.
    assert_eq!(&bytes[..4], b"XCTL");
    assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 1);

    let reopened = Database::open_catalog(bytes).expect("v1 catalog opens");
    let (_, report) = Database::open_catalog_degraded(bytes).expect("v1 opens leniently");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(
        reopened.config().policy,
        xmlest::core::GridPolicy::Static,
        "v1 catalogs default to the static-grid policy"
    );
    assert_eq!(reopened.document_names(), vec!["a.xml", "b.xml"]);

    // The exact collection the fixture was generated from (see
    // CHANGES.md, PR 5): estimates must match a fresh build bit for
    // bit — the deterministic build pipeline guarantees it.
    let fresh = Database::load_documents(
        [
            (
                "a.xml",
                "<dept><fac><name/><RA/></fac><fac><name/><TA/><TA/></fac><staff><name/></staff></dept>",
            ),
            ("b.xml", "<dept><fac><TA/></fac><x><y/></x></dept>"),
        ],
        &SummaryConfig::paper_defaults().with_grid_size(6),
    )
    .unwrap();
    for path in ["//fac//TA", "//dept//RA", "//fac//name", "//dept//y"] {
        let got = reopened.estimate(path).unwrap().value;
        let want = fresh.estimate(path).unwrap().value;
        assert_eq!(got.to_bits(), want.to_bits(), "{path}: {got} vs {want}");
    }

    // Re-saving writes the current version; the upgrade round-trips.
    let upgraded = reopened.save_catalog();
    assert_eq!(version(&upgraded), 4);
    let again = Database::open_catalog(&upgraded).expect("v4 re-save opens");
    for path in ["//fac//TA", "//dept//RA"] {
        assert_eq!(
            again.estimate(path).unwrap().value.to_bits(),
            reopened.estimate(path).unwrap().value.to_bits()
        );
    }
}

/// FNV-1a 64, the catalog's section and payload checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A little-endian reader over catalog bytes, for locating fields.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn u8(&mut self) -> u8 {
        self.pos += 1;
        self.bytes[self.pos - 1]
    }
    fn u32(&mut self) -> usize {
        self.pos += 4;
        u32::from_le_bytes(self.bytes[self.pos - 4..self.pos].try_into().unwrap()) as usize
    }
    fn u64(&mut self) -> usize {
        self.pos += 8;
        u64::from_le_bytes(self.bytes[self.pos - 8..self.pos].try_into().unwrap()) as usize
    }
    fn skip(&mut self, n: usize) {
        self.pos += n;
    }
    fn str(&mut self) {
        let n = self.u32();
        self.skip(n);
    }
    fn grid(&mut self) {
        let n = self.u32();
        self.skip(4 * n);
        if self.u8() == 1 {
            self.skip(4);
        }
    }
}

/// Where a v1 or v3 catalog stores its coefficient-table count, and the
/// first table's entry count when there is a table.
fn coefficient_counts(bytes: &[u8]) -> (usize, Option<usize>) {
    let mut c = Cursor { bytes, pos: 0 };
    if version(bytes) >= 3 {
        c.pos = frames(bytes)
            .into_iter()
            .find(|(kind, _)| *kind == SEC_COEFFS)
            .expect("v3 has a COEFFS section")
            .1
            .start;
    } else {
        // Unframed: config, predicate catalog, merged summaries, shards,
        // then the coefficient tables.
        c.pos = HEADER_LEN + 5;
        for _ in 0..c.u32() {
            c.str();
            match c.u8() {
                0..=4 => c.str(),
                5 => c.skip(16),
                6 => c.skip(4),
                _ => {}
            }
        }
        let merged = c.u64();
        c.skip(merged);
        for _ in 0..c.u32() {
            c.str();
            c.skip(4);
            let shard = c.u64();
            c.skip(shard);
        }
    }
    let tables_at = c.pos;
    if c.u32() == 0 {
        return (tables_at, None);
    }
    c.str();
    c.skip(1);
    c.grid();
    (tables_at, Some(c.pos))
}

/// Overwrites the `u32` at `at` with a hostile count, then recomputes
/// the checksum of the section holding it (framed formats) and the
/// payload checksum.
fn inflate(bytes: &[u8], at: usize) -> Vec<u8> {
    let mut bad = bytes.to_vec();
    bad[at..at + 4].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
    if version(&bad) >= 3 {
        for (_, body) in frames(&bad) {
            if body.contains(&at) {
                let sum = fnv1a64(&bad[body.clone()]);
                bad[body.start - 8..body.start].copy_from_slice(&sum.to_le_bytes());
            }
        }
    }
    let sum = fnv1a64(&bad[HEADER_LEN..]);
    bad[14..22].copy_from_slice(&sum.to_le_bytes());
    bad
}

/// Checksums are corruption detection, not authentication: a crafted
/// catalog can inflate a length prefix and recompute every checksum.
/// Opening it must be a clean `Err` — never an allocation sized by the
/// hostile count (which aborts the process).
#[test]
fn inflated_length_prefix_with_valid_checksums_is_rejected() {
    const SEC_MERGED: u8 = 2;
    const SEC_SHARD: u8 = 3;
    let db = Database::load_documents(
        [("a.xml", "<doc><sec><p/><p/></sec><sec><p/></sec></doc>")],
        &SummaryConfig::paper_defaults().with_grid_size(6),
    )
    .unwrap();
    let bytes = db.save_catalog();

    // Every summaries body starts with magic (4) and version (2), then
    // the grid's boundary count; shard bodies prefix a u32 index.
    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    for (kind, count_at) in [(SEC_MERGED, 6), (SEC_SHARD, 4 + 6)] {
        let (_, body) = frames(&bytes)
            .into_iter()
            .find(|(k, _)| *k == kind)
            .expect("section present");
        cases.push((
            format!("kind {kind}"),
            inflate(&bytes, body.start + count_at),
        ));
    }
    // The coefficient tables the v1 and v3 fixtures still carry: the
    // table count, and the first table's entry count.
    let v1: &[u8] = include_bytes!("fixtures/catalog_v1.bin");
    for (name, fixture) in [("v1", v1), ("v3", V3_FIXTURE)] {
        let (tables_at, entries_at) = coefficient_counts(fixture);
        cases.push((format!("{name} table count"), inflate(fixture, tables_at)));
        let entries_at = entries_at.expect("the fixture holds a table");
        cases.push((format!("{name} entry count"), inflate(fixture, entries_at)));
    }
    // The v4 fixture's DRIFT row count: after g u16, baseline f64 and
    // mutations u64.
    let (_, drift) = frames(V4_FIXTURE)
        .into_iter()
        .find(|(k, _)| *k == SEC_DRIFT)
        .expect("the v4 fixture has a DRIFT section");
    cases.push((
        "v4 drift row count".into(),
        inflate(V4_FIXTURE, drift.start + 2 + 8 + 8),
    ));

    for (what, bad) in &cases {
        match Database::open_catalog(bad) {
            Err(xmlest::engine::Error::Core(CoreError::Corrupt(msg))) => {
                assert!(msg.contains("length prefix"), "{what}: {msg:?}");
            }
            Err(other) => panic!("{what}: expected Corrupt, got {other:?}"),
            Ok(_) => panic!("{what}: inflated length prefix accepted"),
        }
        // Lenient opens may rebuild around the damage, but must not
        // abort or panic either.
        let _ = Database::open_catalog_degraded(bad);
    }
}
