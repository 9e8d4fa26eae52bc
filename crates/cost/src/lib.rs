//! `imc-cost` — prices, sweeps and calibrates the closed-form CurFe and
//! ChgFe macro model, with per-inference pricing.
//!
//! The Monte-Carlo transient path (`analog-sim` + `imc-core`) prices a
//! design point in minutes; the closed forms of
//! [`imc_core::energy::DesignPoint`] price it in nanoseconds. This crate
//! builds on that model:
//!
//! * [`calibrate`] — fixtures pinning the closed forms to
//!   `analog-sim` transient measurements within stated tolerances.
//! * [`inference`] — price one forward pass of a set of MAC layer
//!   shapes (the quantity `imc-serve` and `imc-fleet` meter).
//! * [`dse`] — sweep geometry × ADC resolution × variant and rank.
//!
//! The `imc-cost` binary exposes `dse`, `estimate`, and `calibrate`
//! subcommands over checkpoints and `ChipImage` files.

#![deny(missing_docs)]

pub mod calibrate;
pub mod dse;
pub mod inference;

pub use dse::{sweep, DseOptions, DseTable};
pub use inference::{inference_cost, mlp_shapes, InferenceCost, LayerShape};

// The macro model lives in `imc_core::energy`; re-exported so dependents
// can build and price points without also depending on `imc-core`.
pub use imc_core::energy::{DesignPoint, MacroCost, Variant, WeightBits};
