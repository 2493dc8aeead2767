//! Grid maintenance policy: how the collection grid relates to the
//! occupied position span.
//!
//! The paper's accuracy results hinge on the position-histogram grid
//! matching the data distribution — its equi-depth grids beat uniform
//! ones exactly when the data is skewed (Section 7's "non-uniform grid
//! cells"). A *served* collection mutates, though, and re-deriving a
//! tight grid on every `add_document` changes the bucket boundaries,
//! which forces every existing shard summary to re-bucket
//! (O(collection) per mutation).
//!
//! [`GridPolicy`] is the half of the engine's maintenance layer
//! (`xmlest-engine`'s `maintenance` module) that lives here.
//! [`GridPolicy::Static`] re-derives a tight grid on every collection
//! change (the historical behavior). [`GridPolicy::Slack`] pads the
//! final boundary past the current span by a configured percentage, so
//! documents appended *within the slack* bucket onto the existing grid
//! — no boundary moves, no re-bucketing of existing shards, O(new
//! document) total. A slack grid moves only when an append overflows
//! the slack or the caller asks for a refresh.

/// How grid boundaries relate to the occupied position span. Persisted
/// in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GridPolicy {
    /// Re-derive a tight grid on every collection change (the
    /// historical behavior): maximal resolution, but every mutation
    /// moves the boundaries and re-buckets every shard.
    #[default]
    Static,
    /// Pad the final boundary past the current span so appends within
    /// the slack reuse the grid verbatim.
    Slack {
        /// Percent of the occupied span added past the grid edge (at
        /// least one position of slack is always reserved).
        slack_percent: u32,
    },
}

impl GridPolicy {
    /// A slack policy with half the span of headroom.
    pub fn slack() -> Self {
        GridPolicy::Slack { slack_percent: 50 }
    }

    /// Whether this policy pads the grid (stable-append eligible).
    pub fn is_slack(&self) -> bool {
        matches!(self, GridPolicy::Slack { .. })
    }

    /// Number of positions the grid must cover for an occupied span of
    /// `span` positions. Deterministic integer arithmetic: a refresh
    /// and a cold build over the same collection derive the same
    /// capacity, hence the same grid.
    pub fn capacity_for(&self, span: u64) -> u64 {
        match self {
            GridPolicy::Static => span,
            GridPolicy::Slack { slack_percent } => {
                span + (span * *slack_percent as u64 / 100).max(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_static_is_tight_and_slack_pads() {
        assert_eq!(GridPolicy::Static.capacity_for(100), 100);
        let p = GridPolicy::Slack { slack_percent: 50 };
        assert_eq!(p.capacity_for(100), 150);
        // At least one position of slack, even for tiny spans.
        assert_eq!(p.capacity_for(1), 2);
        let none = GridPolicy::Slack { slack_percent: 0 };
        assert_eq!(none.capacity_for(100), 101);
    }
}
