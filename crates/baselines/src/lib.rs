//! # imc-baselines
//!
//! Baseline multi-bit-weight IMC organizations and published
//! state-of-the-art data, for the paper's Table 1 and the shift-add
//! ablation study:
//!
//! * [`digital`] — post-ADC digital shift-add with ADC time-multiplexing
//!   (the conventional flow).
//! * [`analog`] — pre-ADC analog shift-add with binary-weighted combining
//!   capacitors (Yue et al. style).
//! * [`sota`] — the published Table 1 rows with the paper's
//!   `energy ∝ node²` scaling and the 1.56×/2.22×/1.37× headline ratios.
//!
//! Both baseline models reuse the *same* array and periphery energy
//! components as the CurFe [`imc_core::energy::DesignPoint`], so
//! comparisons isolate the shift-add organization rather than device
//! assumptions.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod analog;
pub mod digital;
pub mod sota;
