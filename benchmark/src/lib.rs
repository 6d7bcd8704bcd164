//! End-to-end and per-layer benchmark of the FNAS workspace.
//!
//! Three workloads drive the system only through its public API:
//! `paper-sweep` (a Fig. 7-shaped surrogate sweep), `trained-search`
//! (children really train) and `fleet-serve` (a `fnas-serve` daemon with a
//! shared fleet). `NOTES.md` beside this crate records why each was chosen,
//! which layer metric should move which end-to-end metric, and the
//! baseline measurements.

pub mod common;
pub mod fleet;
pub mod inproc;
pub mod json;
pub mod manifest;
pub mod paper;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod trained;

/// Times each repetition's set-up is run; the repetition uses the last
/// one, and `setup_s` is the median over all of a run's set-ups. Spreading
/// them over the run keeps one moment of slow disk from deciding it.
pub const SETUPS: usize = 8;
