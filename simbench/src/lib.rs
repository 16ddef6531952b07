//! Host-time benchmark of the execution-migration simulator.
//!
//! Three workloads drive the simulator's public API: the single-core
//! baseline and the four-core migration machine over the 18-member
//! Table 1 suite, and MESI/Dragon on the write-sharing members. The
//! untraced run reports end-to-end metrics; the traced run breaks each
//! workload's host time down by layer. See `README.md` beside this
//! crate.

pub mod check;
pub mod digests;
pub mod ops;
pub mod relocate;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod yardstick;
