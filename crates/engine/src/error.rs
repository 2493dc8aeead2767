//! Engine error type: wraps the lower layers.

use std::fmt;

/// Any failure the engine can report: wraps the lower layers and adds
/// plan, missing-data, and serving-only conditions.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// An error from the summary/estimation layer.
    Core(xmlest_core::Error),
    /// A query-parse error.
    Query(xmlest_query::Error),
    /// An XML parse or tree error.
    Xml(xmlest_xml::Error),
    /// Plan construction/validation problems.
    Plan(String),
    /// The operation needs data this database does not carry (e.g.
    /// exact counting on a catalog-opened, serving-only database, or
    /// collection mutation on a single-document database).
    NoData(String),
    /// A mutation or refresh was attempted on a **serving-only**
    /// database — one opened from a persisted catalog, which carries
    /// summaries but no document sources to rebuild from. The database
    /// keeps serving estimates; re-ingest the documents (or
    /// `Database::repair` quarantined ones) to mutate.
    ServingOnly(String),
    /// The maintenance worker is gone (its thread shut down or
    /// panicked), so the request cannot be served. Estimates against an
    /// already-held snapshot are unaffected.
    Service(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Core(e) => write!(f, "estimator: {e}"),
            Error::Query(e) => write!(f, "query: {e}"),
            Error::Xml(e) => write!(f, "xml: {e}"),
            Error::Plan(msg) => write!(f, "plan: {msg}"),
            Error::NoData(msg) => write!(f, "no data: {msg}"),
            Error::ServingOnly(msg) => write!(f, "serving-only: {msg}"),
            Error::Service(msg) => write!(f, "service: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<xmlest_core::Error> for Error {
    fn from(e: xmlest_core::Error) -> Self {
        Error::Core(e)
    }
}

impl From<xmlest_query::Error> for Error {
    fn from(e: xmlest_query::Error) -> Self {
        Error::Query(e)
    }
}

impl From<xmlest_xml::Error> for Error {
    fn from(e: xmlest_xml::Error) -> Self {
        Error::Xml(e)
    }
}

/// Result alias over the engine [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = xmlest_core::Error::GridMismatch.into();
        assert!(e.to_string().contains("estimator"));
        let e: Error = xmlest_query::Error::UnknownPredicate("x".into()).into();
        assert!(e.to_string().contains("query"));
        let e = Error::Plan("disconnected".into());
        assert_eq!(e.to_string(), "plan: disconnected");
    }
}
