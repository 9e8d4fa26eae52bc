//! # imc-core
//!
//! The paper's contribution: FeFET-based analog in-memory-computing
//! macros with **inherent shift-add** — the weight-significance shift-add
//! happens inside the array instead of in dedicated peripheral circuitry.
//!
//! Two dual designs are provided:
//!
//! * [`curfe`] — current mode: `1nFeFET1R` cells with binary-weighted
//!   drain resistors summed on a TIA virtual ground.
//! * [`chgfe`] — charge mode: MLC `1nFeFET`/`1pFeFET` cells with
//!   binary-weighted saturation currents and charge sharing across the
//!   bitline capacitors.
//!
//! Supporting modules: [`weights`] (2's-complement H4B/L4B split),
//! [`adc`] (2CM/N2CM SAR ADC), [`accumulator`] (digital combine +
//! input-bit shift-add), [the `array` module](crate::array) (the full
//! 128×128 macro),
//! [`energy`] (the one macro cost model, [`energy::DesignPoint`]:
//! energy, cycle time and area → TOPS/W and TOPS/mm²),
//! [the `reference` module](crate::reference) (golden integer MAC), and
//! [`circuit`] (netlist builders for the
//! SPICE-level validation figures), and [`grid`] (multi-macro tiling for
//! whole-layer matrix–vector products).
//!
//! ## Quickstart
//!
//! ```
//! use imc_core::array::CurFeMacro;
//! use imc_core::weights::InputPrecision;
//! use imc_core::reference::ideal_mac;
//!
//! // A macro with paper-default parameters and deterministic variation.
//! let mut m = CurFeMacro::paper(42);
//! // Program 32 weights into bank 0, block pair 0.
//! let weights: Vec<i8> = (0..32).map(|i| (i * 3 - 48) as i8).collect();
//! m.program_bank(0, 0, &weights);
//! // Run a 4-bit-input MAC against the 32 activated rows.
//! let inputs: Vec<u32> = (0..32).map(|i| (i % 16) as u32).collect();
//! let out = m.mac(0, 0, &inputs, InputPrecision::new(4));
//! let ideal = ideal_mac(&inputs, &weights) as f64;
//! assert!((out.value - ideal).abs() <= out.error_bound + 64.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod accumulator;
pub mod adc;
pub mod array;
pub mod cell;
pub mod chgfe;
pub mod circuit;
pub mod config;
pub mod curfe;
pub mod energy;
pub mod faults;
pub mod grid;
pub mod mc;
pub mod reference;
pub mod weights;
