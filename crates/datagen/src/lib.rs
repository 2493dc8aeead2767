//! Seeded synthetic data generators.
//!
//! The paper evaluates on DBLP, XMark, the Shakespeare plays and an
//! IBM-XML-generator synthetic data set. None of those inputs ship with
//! this reproduction, so each has a deterministic stand-in that preserves
//! the properties the estimator is sensitive to:
//!
//! * [`dblp`] — flat bibliography records with realistic tag frequencies,
//!   year distributions and `conf/`-`journals/` cite keys (Tables 1–2);
//! * [`dept`] — the exact `manager/department/employee` DTD of Section
//!   5.2, expanded by the generic [`dtdgen`] engine (Tables 3–4): deep
//!   recursion, overlap and no-overlap tags side by side;
//! * [`xmark`] / [`shakespeare`] — auxiliary workloads ("results were
//!   substantially similar");
//! * [`example`] — the Fig. 1 running-example document.
//!
//! All generators take a seed and are bit-for-bit reproducible.

pub mod dblp;
pub mod dept;
pub mod dtdgen;
pub mod example;
pub mod shakespeare;
pub mod words;
pub mod xmark;
