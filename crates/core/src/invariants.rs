//! Strict-invariants sanitizer: runtime checkpoints for the structural
//! invariants the estimation kernels silently assume.
//!
//! Every join kernel in this crate (the Fig. 10 coverage co-merges, the
//! pH-join CSR passes) walks sorted flat storage with monotone cursors
//! and never re-checks shape: entries sorted row-major, row offsets
//! monotone, coverage partials restricted to border pairs, grid
//! boundaries strictly increasing, shard node accounting consistent
//! with the merged view. A summary that violates any of these produces
//! silently wrong estimates — worse than an error, since the numbers
//! feed optimizer decisions.
//!
//! The `validate()` methods on [`crate::Grid`], [`crate::FlatHistogram`],
//! [`crate::PositionHistogram`], [`crate::CoverageHistogram`],
//! [`crate::Summaries`] and [`crate::CatalogFile`] check those
//! invariants exhaustively and are always compiled (property tests
//! drive them directly). The [`checkpoint`] wrapper wires them into the
//! construction, `plus`/merge, shard-merge, catalog-open and
//! grid-refresh boundaries — as hard panics under the
//! `strict-invariants` cargo feature, and as nothing at all without it,
//! so production builds pay zero cost.
//!
//! CI runs `cargo test --workspace --features strict-invariants`; the
//! planned snapshot refactor must keep that job green (see ROADMAP).

/// Runs a validator at a structural boundary.
///
/// With the `strict-invariants` feature enabled, a reported violation
/// panics with the boundary name and the violation message; without it
/// the closure is never called. `what` names the boundary (e.g.
/// `"Summaries::build"`) so a trip identifies the producing code path,
/// not just the broken structure.
#[inline]
pub fn checkpoint<F>(what: &str, validate: F)
where
    F: FnOnce() -> Result<(), String>,
{
    #[cfg(feature = "strict-invariants")]
    #[expect(
        clippy::panic,
        reason = "the sanitizer's entire purpose is failing loudly on a broken invariant in checked builds; compiled out without the feature"
    )]
    if let Err(violation) = validate() {
        panic!("strict-invariants: {what}: {violation}");
    }
    #[cfg(not(feature = "strict-invariants"))]
    let _ = (what, validate);
}

/// `Err(msg)` unless `cond` holds — the one-liner the validators are
/// written with. Formats lazily: the message allocates only on failure.
macro_rules! invariant {
    // A `match` rather than `if !cond`: several validators test float
    // comparisons, where a negated operator would hide the possibility
    // of NaN (and trips clippy's `neg_cmp_op_on_partial_ord`). A NaN
    // making `cond` false is exactly a violation.
    ($cond:expr, $($msg:tt)+) => {
        match $cond {
            true => {}
            false => return Err(format!($($msg)+)),
        }
    };
}
pub(crate) use invariant;
