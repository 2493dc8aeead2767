//! The persistent summary catalog — everything a serving database
//! derives from the data, in one versioned, checksummed binary blob.
//!
//! The paper's premise (Section 2) is that the summary structure `T'` is
//! a small fraction of the data and answers estimation queries alone.
//! This module takes that to its deployment conclusion: a **catalog
//! file** persisting every derived structure estimation reads, so
//! `Database::open_catalog(bytes)` reconstructs a serving-ready database
//! with *zero tree traversal* and byte-identical estimates to a fresh
//! build. Persisted, in order:
//!
//! * the [`SummaryConfig`] the summaries were built with (grid size,
//!   equi-depth flag, coverage/level toggles; the optional DTD analysis
//!   is derivable from the schema and is **not** persisted),
//! * the grid policy and the explicit collection grid,
//! * the predicate catalog (name → [`BasePredicate`]),
//! * the merged mega-tree [`Summaries`] (reusing
//!   [`crate::summary::to_bytes`] wholesale), and
//! * one summary shard per document ([`CatalogShard`]: name, position
//!   offset, its own [`Summaries`] over the shared grid).
//!
//! ## Wire layout (version 4)
//!
//! ```text
//! ┌──────────┬─────────┬──────────────┬──────────────┬───────────────┐
//! │ magic    │ version │ payload len  │ FNV-1a 64    │ payload …     │
//! │ "XCTL"   │ u16     │ u64          │ u64 checksum │               │
//! └──────────┴─────────┴──────────────┴──────────────┴───────────────┘
//! payload := section*            every section independently framed:
//! section := kind u8, body_len u64, body FNV-1a 64 u64, body bytes
//!
//! kind 1  META    (required, first)
//!   config   := grid_size u16, equi_depth u8, build_coverage u8,
//!               build_levels u8
//!   policy   := 0u8 | (1u8, slack_percent u32, drift_threshold f64,
//!                      auto_refresh u8)
//!               drift_threshold and auto_refresh are retired: written
//!               as 1.0 and 0 (an older reader takes that as "never
//!               refresh automatically"), read and dropped
//!   grid     := the explicit collection grid
//!   total    := mega-tree node count u64 (root included)
//!   catalog  := count u32, { name str, base_pred }*
//!   shards   := directory — count u32,
//!               { name str, offset u32, node_count u32 }*
//! kind 2  MERGED  — summary::to_bytes of the mega-tree summaries
//! kind 3  SHARD   — directory index u32, summary::to_bytes bytes
//!                   (one section per directory entry, in order)
//! ```
//!
//! Two section kinds are read and skipped, never written:
//!
//! * Kind 4, COEFFS, is a v1–v3 section: precomputed pH-join
//!   coefficient tables, `count u32, { name str, basis u8, grid,
//!   entries u32, { cell, f64 }* }*`. A **version 3** catalog has the
//!   v4 layout plus one COEFFS frame after the last SHARD.
//! * Kind 5, DRIFT, is the drift tracker earlier writers persisted
//!   (optional, last): `g u16, baseline f64, mutations u64, rows u32,
//!   { name str, buckets u32, u64* }*`.
//!
//! The strict open checks each such frame's checksum and walks its body
//! through the bounds-checked `summary::Reader` without building
//! anything; the lenient open ignores both kinds.
//!
//! **Version 1/2** catalogs (a single unframed payload guarded only by
//! the whole-payload checksum) still open through the legacy parser,
//! which walks past their coefficient list and v2 drift tracker the same
//! way; v1 defaults the policy to [`GridPolicy::Static`] — exactly the
//! behavior those bytes were produced under.
//!
//! ## Two open modes
//!
//! [`CatalogFile::from_bytes`] is **strict**: magic, version, length and
//! the whole-payload checksum are validated before any section is
//! parsed, then every section checksum and every cross-section
//! invariant; any deviation — one flipped bit anywhere — returns
//! [`Error::Corrupt`]. This is the right mode for round-trip
//! verification and for recovery code that prefers falling back to an
//! older generation over serving a patched-up one.
//!
//! [`CatalogFile::open_lenient`] is the **degraded** mode: the
//! per-section checksums localize corruption instead of condemning the
//! blob. The META section is the root of trust and must be intact
//! (without it nothing can be attributed); beyond that, a corrupt shard
//! section **quarantines only that document** — the survivors re-merge
//! into a serving view that preserves the original position space
//! (see [`crate::shard::merge_shards_with_total`]) — and a corrupt MERGED
//! section is rebuilt from the shards. The returned
//! [`OpenReport`] lists every quarantined document with its reason, so
//! the engine can surface a degraded open and `repair()` it from
//! sources. Hostile bytes return [`Error::Corrupt`] or quarantine,
//! never panic: every parser bounds-checks through
//! [`crate::summary::Reader`].

use crate::error::{Error, Result};
use crate::estimator::{Summaries, SummaryConfig};
use crate::grid::Grid;
use crate::regrid::GridPolicy;
use crate::shard::merge_shards_with_total;
use crate::summary::{
    self, read_base_pred, read_grid, write_base_pred, write_grid, Reader, Writer,
};
use xmlest_predicate::Catalog;

const MAGIC: &[u8; 4] = b"XCTL";
const VERSION: u16 = 4;
/// Oldest version [`CatalogFile::from_bytes`] still accepts.
const MIN_VERSION: u16 = 1;
/// Header bytes before the payload: magic + version + length + checksum.
const HEADER_LEN: usize = 4 + 2 + 8 + 8;
/// Section frame header: kind + body length + body checksum.
const FRAME_HEADER_LEN: usize = 1 + 8 + 8;

/// Section kinds of the framed (v3+) payload, in their required order.
const SEC_META: u8 = 1;
const SEC_MERGED: u8 = 2;
const SEC_SHARD: u8 = 3;
/// Coefficient tables: present in v3 files only, never read.
const SEC_COEFFS: u8 = 4;
/// Drift-tracker rows: optional in v3 and v4 files, never read.
const SEC_DRIFT: u8 = 5;

/// One document's persisted summary shard.
#[derive(Debug, Clone)]
pub struct CatalogShard {
    /// Caller-supplied document name (file name, URI, …).
    pub name: String,
    /// Global position offset of the document's root in the mega-tree.
    pub offset: u32,
    /// The document's own summaries on the shared grid.
    pub summaries: Summaries,
}

/// A directory entry for a shard that failed its section validation
/// during [`CatalogFile::open_lenient`] and was excluded from the
/// serving view. Name/offset/node count come from the (intact) META
/// directory, so a `repair()` can rebuild the shard in place.
#[derive(Debug, Clone)]
pub struct QuarantinedShard {
    /// The document's name in the META directory.
    pub name: String,
    /// The document's original mega-tree position offset — a repair
    /// must rebuild at exactly this offset.
    pub offset: u32,
    /// The document's original node count — a repair source with a
    /// different count is a *different document* and stays quarantined.
    pub node_count: u32,
    /// Human-readable reason (checksum mismatch, truncation, …).
    pub reason: String,
}

/// What [`CatalogFile::open_lenient`] had to do to open the bytes.
/// `Default` is the clean report.
#[derive(Debug, Clone, Default)]
pub struct OpenReport {
    /// Documents excluded from the serving view, with reasons.
    pub quarantined: Vec<QuarantinedShard>,
    /// The serving view was re-merged from surviving shards (because
    /// the MERGED section was corrupt, or because quarantined documents
    /// had to be excluded from it).
    pub remerged: bool,
}

impl OpenReport {
    /// Whether the open was fully healthy — nothing quarantined or
    /// rebuilt.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && !self.remerged
    }
}

/// In-memory form of a catalog file; [`CatalogFile::to_bytes`] /
/// [`CatalogFile::from_bytes`] / [`CatalogFile::open_lenient`] are the
/// only serialization surface.
#[derive(Debug)]
pub struct CatalogFile {
    /// Build configuration (DTD analysis stripped — re-attach on load).
    pub config: SummaryConfig,
    /// The predicate catalog.
    pub catalog: Catalog,
    /// The merged (mega-tree) summaries.
    pub merged: Summaries,
    /// Per-document shards, collection order.
    pub shards: Vec<CatalogShard>,
    /// Grid policy the summaries were built under (v1 catalogs open as
    /// [`GridPolicy::Static`], the behavior they were produced under).
    pub policy: GridPolicy,
}

/// FNV-1a 64 over a byte slice — cheap, dependency-free corruption
/// detection (not cryptographic; the threat model is torn writes and
/// bit rot, not adversaries).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends one framed, checksummed section to the payload.
fn frame(payload: &mut Writer, kind: u8, body: &[u8]) {
    payload.u8(kind);
    payload.u64(body.len() as u64);
    payload.u64(fnv1a64(body));
    payload.bytes(body);
}

fn write_policy(w: &mut Writer, policy: &GridPolicy) {
    match policy {
        GridPolicy::Static => w.u8(0),
        GridPolicy::Slack { slack_percent } => {
            w.u8(1);
            w.u32(*slack_percent);
            // The two retired fields (see the wire layout).
            w.f64(1.0);
            w.u8(0);
        }
    }
}

fn read_policy(r: &mut Reader) -> Result<GridPolicy> {
    match r.u8()? {
        0 => Ok(GridPolicy::Static),
        1 => {
            let slack_percent = r.u32()?;
            // The retired drift_threshold and auto_refresh fields.
            r.f64()?;
            r.u8()?;
            Ok(GridPolicy::Slack { slack_percent })
        }
        k => Err(Error::Corrupt(format!("unknown grid policy tag {k}"))),
    }
}

/// Walks past a v1–v3 coefficient-table list without building a
/// table. Every count goes through [`Reader::count`], so a hostile
/// prefix is an error, never an allocation.
fn skip_coefficients(r: &mut Reader) -> Result<()> {
    // Name length, basis tag, empty grid (count + uniform flag), entry
    // count.
    let n = r.count(4 + 1 + 5 + 4)?;
    for _ in 0..n {
        r.str()?;
        r.u8()?;
        read_grid(r)?;
        for _ in 0..r.count(4 + 8)? {
            r.cell()?;
            r.f64()?;
        }
    }
    Ok(())
}

/// Walks past a drift-tracker body without building a tracker. Counts
/// go through [`Reader::count`] like [`skip_coefficients`]; a tracker
/// for another grid size, or a row longer than the grid, is corrupt.
fn skip_drift(r: &mut Reader, expected_g: u16) -> Result<()> {
    let g = r.u16()?;
    if g != expected_g {
        return Err(Error::Corrupt(format!(
            "drift tracker is for a g={g} grid, summaries use g={expected_g}"
        )));
    }
    r.f64()?;
    r.u64()?;
    for _ in 0..r.count(4 + 4)? {
        r.str()?;
        let buckets = r.count(8)?;
        if buckets > g as usize {
            return Err(Error::Corrupt(format!(
                "drift row has {buckets} buckets on a g={g} grid"
            )));
        }
        r.take(8 * buckets)?;
    }
    Ok(())
}

/// Runs `skip` over a whole section body the open discards; bytes it
/// leaves unread are corrupt.
fn skip_section(
    body: &[u8],
    what: &str,
    skip: impl FnOnce(&mut Reader) -> Result<()>,
) -> Result<()> {
    let mut r = Reader { data: body, pos: 0 };
    skip(&mut r)?;
    if r.pos != body.len() {
        return Err(Error::Corrupt(format!("trailing bytes after {what}")));
    }
    Ok(())
}

/// The parsed META section: the root of trust for a framed open. Everything
/// here is required to interpret (or quarantine) the other sections.
struct Meta {
    config: SummaryConfig,
    policy: GridPolicy,
    grid: Grid,
    total_nodes: u64,
    catalog: Catalog,
    directory: Vec<DirEntry>,
}

struct DirEntry {
    name: String,
    offset: u32,
    node_count: u32,
}

fn parse_meta(body: &[u8]) -> Result<Meta> {
    let mut r = Reader { data: body, pos: 0 };
    let mut config = SummaryConfig {
        grid_size: r.u16()?,
        equi_depth: r.u8()? == 1,
        build_coverage: r.u8()? == 1,
        build_levels: r.u8()? == 1,
        dtd: None,
        policy: GridPolicy::Static,
    };
    let policy = read_policy(&mut r)?;
    config.policy = policy;
    let grid = read_grid(&mut r)?;
    let total_nodes = r.u64()?;
    if total_nodes == 0 {
        return Err(Error::Corrupt("catalog meta claims zero nodes".into()));
    }
    let n = r.count(4 + 1)?;
    let mut catalog = Catalog::new();
    for _ in 0..n {
        let name = r.str()?;
        let pred = read_base_pred(&mut r)?;
        catalog.define(name, pred);
    }
    let n = r.count(4 + 4 + 4)?;
    let mut directory = Vec::with_capacity(n);
    for _ in 0..n {
        directory.push(DirEntry {
            name: r.str()?,
            offset: r.u32()?,
            node_count: r.u32()?,
        });
    }
    if !directory.is_empty() {
        let sum: u64 = 1 + directory.iter().map(|d| d.node_count as u64).sum::<u64>();
        if sum != total_nodes {
            return Err(Error::Corrupt(format!(
                "catalog directory accounts for {sum} nodes, meta claims {total_nodes}"
            )));
        }
    }
    if r.pos != body.len() {
        return Err(Error::Corrupt("trailing bytes after catalog meta".into()));
    }
    Ok(Meta {
        config,
        policy,
        grid,
        total_nodes,
        catalog,
        directory,
    })
}

/// Parses one SHARD section body against the directory: index, grid and
/// node-count must all agree with META.
fn parse_shard_body(body: &[u8], meta: &Meta, position: usize) -> Result<Summaries> {
    let mut r = Reader { data: body, pos: 0 };
    let idx = r.u32()? as usize;
    if idx != position {
        return Err(Error::Corrupt(format!(
            "shard section claims directory index {idx}, expected {position}"
        )));
    }
    let rest = r.take(body.len() - r.pos)?;
    let summaries = summary::from_bytes(rest)?;
    if summaries.grid() != &meta.grid {
        return Err(Error::Corrupt(
            "shard is on a different grid than the catalog".into(),
        ));
    }
    let want = meta.directory[position].node_count as u64;
    if summaries.tree_nodes() != want {
        return Err(Error::Corrupt(format!(
            "shard has {} nodes, directory says {want}",
            summaries.tree_nodes()
        )));
    }
    Ok(summaries)
}

/// One framed section located in the payload. `checksum_ok` is the
/// body's FNV verdict — frame boundaries are trusted (a corrupted
/// length field desyncs the walk, which truncates the section list
/// instead).
struct Section<'a> {
    kind: u8,
    body: &'a [u8],
    checksum_ok: bool,
}

/// Walks the framed payload's frames. Returns the sections it could
/// delimit plus whether the walk ended early (truncation, a corrupted
/// frame header, or an unknown kind — everything after that point is
/// lost).
fn walk_frames(payload: &[u8]) -> (Vec<Section<'_>>, bool) {
    let mut sections = Vec::new();
    let mut pos = 0usize;
    while pos < payload.len() {
        if payload.len() - pos < FRAME_HEADER_LEN {
            return (sections, true);
        }
        let kind = payload[pos];
        #[expect(
            clippy::unwrap_used,
            reason = "8-byte sub-slice of a FRAME_HEADER_LEN-checked region; conversion is infallible"
        )]
        let len_bytes: [u8; 8] = payload[pos + 1..pos + 9].try_into().unwrap();
        #[expect(
            clippy::unwrap_used,
            reason = "8-byte sub-slice of a FRAME_HEADER_LEN-checked region; conversion is infallible"
        )]
        let sum_bytes: [u8; 8] = payload[pos + 9..pos + 17].try_into().unwrap();
        let len = u64::from_le_bytes(len_bytes) as usize;
        let checksum = u64::from_le_bytes(sum_bytes);
        pos += FRAME_HEADER_LEN;
        if payload.len() - pos < len || !(SEC_META..=SEC_DRIFT).contains(&kind) {
            return (sections, true);
        }
        let body = &payload[pos..pos + len];
        pos += len;
        sections.push(Section {
            kind,
            body,
            checksum_ok: fnv1a64(body) == checksum,
        });
    }
    (sections, false)
}

impl CatalogFile {
    /// Serializes the catalog (always the current version).
    /// Deterministic for a given input: section order is fixed and
    /// every map iterates in its sorted order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Writer::default();

        // META: config, policy, grid, node total, predicate catalog,
        // shard directory.
        let mut m = Writer::default();
        m.u16(self.config.grid_size);
        m.u8(self.config.equi_depth as u8);
        m.u8(self.config.build_coverage as u8);
        m.u8(self.config.build_levels as u8);
        write_policy(&mut m, &self.policy);
        write_grid(&mut m, self.merged.grid());
        m.u64(self.merged.tree_nodes());
        m.u32(self.catalog.len() as u32);
        for entry in self.catalog.iter() {
            m.str(&entry.name);
            write_base_pred(&mut m, &entry.predicate);
        }
        m.u32(self.shards.len() as u32);
        for shard in &self.shards {
            m.str(&shard.name);
            m.u32(shard.offset);
            m.u32(shard.summaries.tree_nodes() as u32);
        }
        frame(&mut payload, SEC_META, &m.out);

        // MERGED.
        frame(&mut payload, SEC_MERGED, &summary::to_bytes(&self.merged));

        // SHARD sections, directory order.
        for (i, shard) in self.shards.iter().enumerate() {
            let mut b = Writer::default();
            b.u32(i as u32);
            b.bytes(&summary::to_bytes(&shard.summaries));
            frame(&mut payload, SEC_SHARD, &b.out);
        }

        let payload = payload.out;
        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u16(VERSION);
        w.u64(payload.len() as u64);
        w.u64(fnv1a64(&payload));
        w.bytes(&payload);
        w.out
    }

    /// Validates the outer header (magic, version range, payload length
    /// and — when `check_payload` — the whole-payload checksum) and
    /// returns `(version, payload)`.
    fn read_header(data: &[u8], check_payload: bool) -> Result<(u16, &[u8])> {
        if data.len() < HEADER_LEN {
            return Err(Error::Corrupt("catalog shorter than header".into()));
        }
        let mut h = Reader { data, pos: 0 };
        if h.take(4)? != MAGIC {
            return Err(Error::Corrupt("bad catalog magic".into()));
        }
        let version = h.u16()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(Error::Corrupt(format!(
                "unsupported catalog version {version}"
            )));
        }
        let payload_len = h.u64()? as usize;
        let checksum = h.u64()?;
        let payload = &data[HEADER_LEN..];
        if payload.len() != payload_len {
            return Err(Error::Corrupt(format!(
                "catalog payload length mismatch: header says {payload_len}, got {}",
                payload.len()
            )));
        }
        if check_payload && fnv1a64(payload) != checksum {
            return Err(Error::Corrupt("catalog checksum mismatch".into()));
        }
        Ok((version, payload))
    }

    /// Deserializes and **fully validates** a catalog. Magic, version,
    /// length and the whole-payload checksum are checked before any
    /// section is parsed; every section checksum and cross-section
    /// invariant must hold. Any deviation is [`Error::Corrupt`] — use
    /// [`CatalogFile::open_lenient`] to salvage what a checksum failure
    /// doesn't touch.
    pub fn from_bytes(data: &[u8]) -> Result<CatalogFile> {
        let (version, payload) = Self::read_header(data, true)?;
        if version < 3 {
            return Self::from_payload_legacy(version, payload);
        }

        let (sections, truncated) = walk_frames(payload);
        if truncated {
            return Err(Error::Corrupt("catalog sections truncated".into()));
        }
        if let Some(bad) = sections.iter().find(|s| !s.checksum_ok) {
            return Err(Error::Corrupt(format!(
                "catalog section checksum mismatch (kind {})",
                bad.kind
            )));
        }
        // Enforce the exact section sequence the writer produces.
        let (Some(meta_sec), Some(merged_sec)) = (sections.first(), sections.get(1)) else {
            return Err(Error::Corrupt("catalog has too few sections".into()));
        };
        if meta_sec.kind != SEC_META || merged_sec.kind != SEC_MERGED {
            return Err(Error::Corrupt("catalog sections out of order".into()));
        }
        let meta = parse_meta(meta_sec.body)?;
        let n = meta.directory.len();
        let expected_kinds: Vec<u8> = [SEC_META, SEC_MERGED]
            .into_iter()
            .chain(std::iter::repeat_n(SEC_SHARD, n))
            .chain((version == 3).then_some(SEC_COEFFS))
            .collect();
        let kinds: Vec<u8> = sections.iter().map(|s| s.kind).collect();
        let sequence_ok = kinds
            .strip_prefix(&expected_kinds[..])
            .is_some_and(|rest| matches!(rest, [] | [SEC_DRIFT]));
        if !sequence_ok {
            return Err(Error::Corrupt("catalog sections out of order".into()));
        }

        let merged = summary::from_bytes(merged_sec.body)?;
        if merged.grid() != &meta.grid {
            return Err(Error::Corrupt(
                "merged summaries are on a different grid than the catalog".into(),
            ));
        }
        if merged.tree_nodes() != meta.total_nodes {
            return Err(Error::Corrupt(format!(
                "merged summaries have {} nodes, meta claims {}",
                merged.tree_nodes(),
                meta.total_nodes
            )));
        }
        let mut shards = Vec::with_capacity(n);
        for (i, dir) in meta.directory.iter().enumerate() {
            let summaries = parse_shard_body(sections[2 + i].body, &meta, i)?;
            shards.push(CatalogShard {
                name: dir.name.clone(),
                offset: dir.offset,
                summaries,
            });
        }
        // What follows the shards is v3's COEFFS frame and an optional
        // DRIFT frame (the sequence check above), walked and discarded.
        for s in &sections[2 + n..] {
            if s.kind == SEC_COEFFS {
                skip_section(s.body, "coefficient tables", skip_coefficients)?;
            } else {
                skip_section(s.body, "drift tracker", |r| skip_drift(r, meta.grid.g()))?;
            }
        }

        let out = CatalogFile {
            config: meta.config,
            catalog: meta.catalog,
            merged,
            shards,
            policy: meta.policy,
        };
        crate::invariants::checkpoint("CatalogFile::from_bytes", || out.validate());
        Ok(out)
    }

    /// Checks cross-section consistency of an opened catalog: the
    /// merged view and every shard's summaries individually valid and
    /// on one shared grid, per-document position ranges disjoint and
    /// inside the mega-tree span (offset 0 is the synthetic mega-root,
    /// so every shard starts at ≥ 1), and node accounting consistent —
    /// the merged view covers at least the mega-root plus every
    /// *serving* shard (quarantined documents may leave holes, so the
    /// total can exceed the sum, never undercut it). Returns the first
    /// violation found.
    pub fn validate(&self) -> std::result::Result<(), String> {
        use crate::invariants::invariant;
        self.merged
            .validate()
            .map_err(|e| format!("merged view: {e}"))?;
        let total = self.merged.tree_nodes();
        let mut spans: Vec<(u64, u64, &str)> = Vec::with_capacity(self.shards.len());
        let mut shard_sum: u64 = 0;
        for shard in &self.shards {
            let s = &shard.summaries;
            s.validate()
                .map_err(|e| format!("shard {:?}: {e}", shard.name))?;
            invariant!(
                s.grid() == self.merged.grid(),
                "shard {:?} bucketed on a different grid than the merged view",
                shard.name
            );
            let nodes = s.tree_nodes();
            invariant!(nodes >= 1, "shard {:?} holds no nodes", shard.name);
            invariant!(
                shard.offset >= 1,
                "shard {:?} claims offset 0 (the mega-root's position)",
                shard.name
            );
            let end = shard.offset as u64 + nodes;
            invariant!(
                end <= total,
                "shard {:?} spans positions {}..{end}, past the mega-tree total {total}",
                shard.name,
                shard.offset
            );
            spans.push((shard.offset as u64, end, &shard.name));
            shard_sum += nodes;
        }
        invariant!(
            total > shard_sum,
            "merged view accounts for {total} nodes, shards plus mega-root need {}",
            1 + shard_sum
        );
        spans.sort_unstable();
        for w in spans.windows(2) {
            invariant!(
                w[0].1 <= w[1].0,
                "shards {:?} and {:?} overlap in position space ({}..{} vs {}..{})",
                w[0].2,
                w[1].2,
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
        Ok(())
    }

    /// Opens a catalog in **degraded** mode: per-section checksums
    /// localize corruption, bad shard sections are quarantined instead
    /// of failing the open, a bad MERGED section is rebuilt from the
    /// surviving shards, and v3 COEFFS and DRIFT sections are ignored
    /// whatever their state.
    /// Fatal only when the META section (the root of trust) is corrupt,
    /// or when nothing servable survives. The [`OpenReport`] says
    /// exactly what was lost; a clean file returns
    /// [`OpenReport::is_clean`].
    ///
    /// v1/v2 catalogs have no section checksums — they open through the
    /// strict legacy parser (all-or-nothing) with a clean report.
    pub fn open_lenient(data: &[u8]) -> Result<(CatalogFile, OpenReport)> {
        // The whole-payload checksum is deliberately NOT enforced here:
        // it condemns the entire blob for any single flipped bit, which
        // is exactly what degraded mode exists to avoid. The section
        // checksums take over.
        let (version, payload) = Self::read_header(data, false)?;
        if version < 3 {
            // Legacy formats have no section framing to fall back on.
            let file = Self::from_bytes(data)?;
            return Ok((file, OpenReport::default()));
        }

        let (sections, truncated) = walk_frames(payload);
        let mut report = OpenReport::default();

        // META is the root of trust: without an intact directory,
        // nothing can be attributed or quarantined.
        let meta = match sections.first() {
            Some(s) if s.kind == SEC_META && s.checksum_ok => parse_meta(s.body)?,
            Some(s) if s.kind == SEC_META => {
                return Err(Error::Corrupt(
                    "catalog meta section checksum mismatch".into(),
                ))
            }
            _ => return Err(Error::Corrupt("catalog meta section missing".into())),
        };
        let n = meta.directory.len();

        // MERGED: optional — rebuildable from shards.
        let merged_ok: Option<Summaries> = sections
            .iter()
            .find(|s| s.kind == SEC_MERGED && s.checksum_ok)
            .and_then(|s| summary::from_bytes(s.body).ok())
            .filter(|m| m.grid() == &meta.grid && m.tree_nodes() == meta.total_nodes);

        // SHARD sections are attributed positionally (the writer emits
        // them in directory order); the body's own index must agree.
        let shard_secs: Vec<&Section> = sections.iter().filter(|s| s.kind == SEC_SHARD).collect();
        let mut shards: Vec<CatalogShard> = Vec::with_capacity(n);
        for (i, dir) in meta.directory.iter().enumerate() {
            let outcome: std::result::Result<Summaries, String> = match shard_secs.get(i) {
                None => Err(if truncated {
                    "shard section lost to truncation".into()
                } else {
                    "shard section missing".into()
                }),
                Some(s) if !s.checksum_ok => Err("shard section checksum mismatch".into()),
                Some(s) => parse_shard_body(s.body, &meta, i).map_err(|e| e.to_string()),
            };
            match outcome {
                Ok(summaries) => shards.push(CatalogShard {
                    name: dir.name.clone(),
                    offset: dir.offset,
                    summaries,
                }),
                Err(reason) => report.quarantined.push(QuarantinedShard {
                    name: dir.name.clone(),
                    offset: dir.offset,
                    node_count: dir.node_count,
                    reason,
                }),
            }
        }

        // The serving view: the intact MERGED section when every shard
        // survived, else a re-merge of the survivors that preserves the
        // original position space (quarantined documents leave holes).
        let merged = match (merged_ok, report.quarantined.is_empty()) {
            (Some(m), true) => m,
            (merged_ok, _) => {
                if n == 0 {
                    // No shards to rebuild from (single-document
                    // catalogs persist only the merged view).
                    return Err(Error::Corrupt(
                        "merged summaries corrupt and no shards to rebuild from".into(),
                    ));
                }
                report.remerged = true;
                let _ = merged_ok;
                let refs: Vec<&Summaries> = shards.iter().map(|s| &s.summaries).collect();
                merge_shards_with_total(
                    &refs,
                    &meta.grid,
                    &meta.catalog,
                    &meta.config,
                    meta.total_nodes,
                )?
            }
        };

        let out = CatalogFile {
            config: meta.config,
            catalog: meta.catalog,
            merged,
            shards,
            policy: meta.policy,
        };
        crate::invariants::checkpoint("CatalogFile::open_lenient", || out.validate());
        Ok((out, report))
    }

    /// The pre-v3 payload parser: one unframed section sequence guarded
    /// only by the whole-payload checksum (already validated by the
    /// caller).
    fn from_payload_legacy(version: u16, payload: &[u8]) -> Result<CatalogFile> {
        let mut r = Reader {
            data: payload,
            pos: 0,
        };
        // Config. The policy is read from its own (v2) section below
        // and patched in before returning.
        let mut config = SummaryConfig {
            grid_size: r.u16()?,
            equi_depth: r.u8()? == 1,
            build_coverage: r.u8()? == 1,
            build_levels: r.u8()? == 1,
            dtd: None,
            policy: GridPolicy::Static,
        };
        // Predicate catalog.
        let n = r.count(4 + 1)?;
        let mut catalog = Catalog::new();
        for _ in 0..n {
            let name = r.str()?;
            let pred = read_base_pred(&mut r)?;
            catalog.define(name, pred);
        }
        // Merged summaries.
        let merged = read_summaries_section(&mut r)?;
        // Shards: name length, offset, summaries length.
        let n = r.count(4 + 4 + 8)?;
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let offset = r.u32()?;
            let summaries = read_summaries_section(&mut r)?;
            if summaries.grid() != merged.grid() {
                return Err(Error::Corrupt(format!(
                    "shard {name:?} is on a different grid than the merged summaries"
                )));
            }
            shards.push(CatalogShard {
                name,
                offset,
                summaries,
            });
        }
        // Coefficient tables, skipped.
        skip_coefficients(&mut r)?;
        // Grid maintenance sections (v2): the policy, then an optional
        // drift tracker, skipped. A v1 catalog ends here and opens under
        // the static policy it was produced under.
        let policy = if version >= 2 {
            let policy = read_policy(&mut r)?;
            match r.u8()? {
                0 => {}
                1 => skip_drift(&mut r, merged.grid().g())?,
                k => return Err(Error::Corrupt(format!("unknown drift tag {k}"))),
            }
            policy
        } else {
            GridPolicy::Static
        };
        config.policy = policy;
        if r.pos != payload.len() {
            return Err(Error::Corrupt("trailing bytes after catalog".into()));
        }

        Ok(CatalogFile {
            config,
            catalog,
            merged,
            shards,
            policy,
        })
    }
}

/// Reads one length-prefixed `summary::to_bytes` section (legacy
/// payloads only; v3+ sections are framed instead).
fn read_summaries_section(r: &mut Reader) -> Result<Summaries> {
    let len = r.u64()? as usize;
    let bytes = r.take(len)?;
    summary::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlest_predicate::BasePredicate;
    use xmlest_xml::parser::parse_str;

    fn sample() -> CatalogFile {
        let tree = parse_str(
            "<dept><fac><name/><RA/></fac><fac><name/><TA/><TA/></fac><staff><name/></staff></dept>",
        )
        .unwrap();
        let mut catalog = Catalog::new();
        catalog.define_all_tags(&tree);
        let config = SummaryConfig::paper_defaults().with_grid_size(4);
        let merged = Summaries::build(&tree, &catalog, &config).unwrap();
        CatalogFile {
            config,
            catalog,
            merged,
            shards: Vec::new(),
            policy: GridPolicy::Static,
        }
    }

    /// `file`'s frames re-framed under header `version`, followed by
    /// `extra` frames (where earlier writers put COEFFS and DRIFT).
    fn with_frames(file: &CatalogFile, extra: &[(u8, &[u8])], version: u16) -> Vec<u8> {
        let bytes = file.to_bytes();
        let (sections, truncated) = walk_frames(&bytes[HEADER_LEN..]);
        assert!(!truncated);
        let mut payload = Writer::default();
        for s in &sections {
            frame(&mut payload, s.kind, s.body);
        }
        for &(kind, body) in extra {
            frame(&mut payload, kind, body);
        }
        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u16(version);
        w.u64(payload.out.len() as u64);
        w.u64(fnv1a64(&payload.out));
        w.bytes(&payload.out);
        w.out
    }

    /// A v3 COEFFS body: one ancestor-based table with one entry.
    fn coeffs_body(grid: &Grid) -> Vec<u8> {
        let mut c = Writer::default();
        c.u32(1);
        c.str("fac");
        c.u8(0);
        write_grid(&mut c, grid);
        c.u32(1);
        c.cell((0, 1));
        c.f64(0.25);
        c.out
    }

    /// A DRIFT body as earlier writers emitted it: a `g`-bucket tracker
    /// with one row.
    fn drift_body(g: u16, row: &[u64]) -> Vec<u8> {
        let mut d = Writer::default();
        d.u16(g);
        d.f64(0.125);
        d.u64(7);
        d.u32(1);
        d.str("fac");
        d.u32(row.len() as u32);
        for &c in row {
            d.u64(c);
        }
        d.out
    }

    /// Flips one byte in the middle of the first `kind` section's body.
    fn damage(bytes: &[u8], kind: u8) -> Vec<u8> {
        let (sections, _) = walk_frames(&bytes[HEADER_LEN..]);
        let sec = sections.iter().find(|s| s.kind == kind).expect("framed");
        assert!(!sec.body.is_empty());
        let body_start = sec.body.as_ptr() as usize - bytes.as_ptr() as usize;
        let mut bad = bytes.to_vec();
        bad[body_start + sec.body.len() / 2] ^= 0x5A;
        bad
    }

    #[test]
    fn round_trip() {
        let file = sample();
        let bytes = file.to_bytes();
        let back = CatalogFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.config.grid_size, file.config.grid_size);
        assert_eq!(back.catalog.len(), file.catalog.len());
        assert_eq!(
            back.catalog.get("fac").unwrap().predicate,
            BasePredicate::Tag("fac".into())
        );
        assert_eq!(back.merged.len(), file.merged.len());
        assert_eq!(back.merged.grid(), file.merged.grid());
        // Version 4 writes no COEFFS or DRIFT section.
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 4);
        let (sections, _) = walk_frames(&bytes[HEADER_LEN..]);
        assert!(sections.iter().all(|s| s.kind <= SEC_SHARD));
        // Lenient open of clean bytes is clean.
        let (_, report) = CatalogFile::open_lenient(&bytes).unwrap();
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn policy_round_trips_and_drift_frames_are_skipped() {
        let mut file = sample();
        file.policy = GridPolicy::Slack { slack_percent: 35 };
        file.config.policy = file.policy;
        let back = CatalogFile::from_bytes(&file.to_bytes()).unwrap();
        assert_eq!(back.policy, file.policy);
        assert_eq!(back.config.policy, file.policy, "config carries the policy");

        // A DRIFT frame after the shards opens both ways, clean.
        let g = file.merged.grid().g();
        let drift = drift_body(g, &[3, 0, 1, 0]);
        let with_drift = with_frames(&file, &[(SEC_DRIFT, &drift)], 4);
        let strict = CatalogFile::from_bytes(&with_drift).unwrap();
        assert_eq!(strict.policy, file.policy);
        assert_eq!(strict.merged.len(), file.merged.len());
        let (_, report) = CatalogFile::open_lenient(&with_drift).unwrap();
        assert!(report.is_clean(), "{report:?}");

        // The strict walk still rejects a tracker for another grid, a row
        // longer than the grid, a short body and a second DRIFT frame.
        for extra in [
            vec![(SEC_DRIFT, drift_body(g + 1, &[]))],
            vec![(SEC_DRIFT, drift_body(g, &[1; 5]))],
            vec![(SEC_DRIFT, drift[..drift.len() - 1].to_vec())],
            vec![(SEC_DRIFT, drift.clone()), (SEC_DRIFT, drift.clone())],
        ] {
            let extra: Vec<(u8, &[u8])> = extra.iter().map(|(k, b)| (*k, &b[..])).collect();
            assert!(matches!(
                CatalogFile::from_bytes(&with_frames(&file, &extra, 4)),
                Err(Error::Corrupt(_))
            ));
        }
    }

    #[test]
    fn header_tampering_rejected() {
        let bytes = sample().to_bytes();
        // Magic.
        let mut bad = bytes.clone();
        bad[0] = b'Y';
        assert!(matches!(
            CatalogFile::from_bytes(&bad),
            Err(Error::Corrupt(_))
        ));
        // Version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            CatalogFile::from_bytes(&bad),
            Err(Error::Corrupt(_))
        ));
        // Payload flip breaks the checksum.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(
            CatalogFile::from_bytes(&bad),
            Err(Error::Corrupt(_))
        ));
        // Truncations at every prefix length never panic.
        for cut in 0..bytes.len().min(64) {
            assert!(CatalogFile::from_bytes(&bytes[..cut]).is_err());
        }
        assert!(CatalogFile::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn lenient_ignores_damaged_skipped_sections() {
        let file = sample();
        let coeffs = coeffs_body(file.merged.grid());
        let drift = drift_body(file.merged.grid().g(), &[3, 0, 1, 0]);

        // A v3 file with intact COEFFS and DRIFT frames opens both ways,
        // clean.
        let v3 = with_frames(&file, &[(SEC_COEFFS, &coeffs), (SEC_DRIFT, &drift)], 3);
        CatalogFile::from_bytes(&v3).unwrap();
        let (_, report) = CatalogFile::open_lenient(&v3).unwrap();
        assert!(report.is_clean(), "{report:?}");
        // COEFFS belongs to v3 only: a v4 file carrying one is out of
        // order, and a v3 file without one is too.
        assert!(CatalogFile::from_bytes(&with_frames(&file, &[(SEC_COEFFS, &coeffs)], 4)).is_err());
        let mut no_coeffs = file.to_bytes();
        no_coeffs[4] = 3;
        assert!(CatalogFile::from_bytes(&no_coeffs).is_err());

        // A damaged COEFFS or DRIFT frame, in v3 and v4 alike: the strict
        // open rejects it, the lenient open ignores it and loses nothing.
        let v4 = with_frames(&file, &[(SEC_DRIFT, &drift)], 4);
        for bad in [
            damage(&v3, SEC_COEFFS),
            damage(&v3, SEC_DRIFT),
            damage(&v4, SEC_DRIFT),
        ] {
            assert!(CatalogFile::from_bytes(&bad).is_err());
            let (opened, report) = CatalogFile::open_lenient(&bad).unwrap();
            assert!(report.is_clean(), "{report:?}");
            assert_eq!(opened.merged.len(), file.merged.len());
            assert_eq!(opened.catalog.len(), file.catalog.len());
        }
    }

    #[test]
    fn lenient_meta_damage_is_fatal() {
        let bytes = sample().to_bytes();
        // First section is META; its body starts right after the outer
        // header + frame header.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + FRAME_HEADER_LEN] ^= 0xFF;
        assert!(matches!(
            CatalogFile::open_lenient(&bad),
            Err(Error::Corrupt(_))
        ));
        // A merged-section flip on a shardless catalog is fatal too:
        // nothing to rebuild the serving view from.
        let payload = &bytes[HEADER_LEN..];
        let (sections, _) = walk_frames(payload);
        let merged = sections.iter().find(|s| s.kind == SEC_MERGED).unwrap();
        let off = merged.body.as_ptr() as usize - bytes.as_ptr() as usize;
        let mut bad = bytes.clone();
        bad[off + 4] ^= 0xFF;
        assert!(matches!(
            CatalogFile::open_lenient(&bad),
            Err(Error::Corrupt(_))
        ));
    }
}
