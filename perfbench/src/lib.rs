//! End-to-end and per-layer benchmark of the FeFET-IMC serving stack
//! and compiler. `README.md` in this directory describes the workloads
//! and every metric.

pub mod compile_wl;
pub mod gen;
pub mod hist;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod run;
pub mod serving;
pub mod setup;
pub mod trace;
