//! Chip-level roll-up: per-layer and whole-network energy, latency and
//! area for a DNN mapped onto CurFe/ChgFe macros — the NeuroSim-style
//! estimator behind Figs. 11/12 and the Table 1 system row.

use crate::component::{htree_energy, htree_levels, PeripheryCosts};
use crate::mapping::{layer_macro_cycles, map_layer, LayerMapping, MacroTile};
use imc_core::energy::{Activity, DesignPoint, Variant};
use neural::models::LayerShape;
use serde::{Deserialize, Serialize};

/// Which macro design the chip instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Design {
    /// Current-mode macro.
    CurFe,
    /// Charge-mode macro.
    ChgFe,
}

/// System evaluation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The macro design.
    pub design: Design,
    /// Input (activation) precision, 1–8 bits.
    pub input_bits: u32,
    /// Weight precision, 4 or 8 bits.
    pub weight_bits: u32,
    /// Macro tiling geometry.
    pub tile: MacroTile,
    /// Peripheral cost constants.
    pub periphery: PeripheryCosts,
    /// Switching activity assumption.
    pub activity: Activity,
    /// ADC partial-sum width routed/accumulated (bits).
    pub psum_bits: u32,
    /// Lumped control / activation / pooling energy per MAC operation
    /// pair (J) — calibrated against the NeuroSim baseline.
    pub misc_e_per_op: f64,
}

impl SystemConfig {
    /// The paper's system operating point for a design.
    ///
    /// # Panics
    ///
    /// Panics unless `weight_bits` is 4 or 8 and `input_bits` is 1..=8.
    #[must_use]
    pub fn paper(design: Design, input_bits: u32, weight_bits: u32) -> Self {
        assert!((1..=8).contains(&input_bits));
        assert!(weight_bits == 4 || weight_bits == 8);
        Self {
            design,
            input_bits,
            weight_bits,
            tile: MacroTile::paper(),
            periphery: PeripheryCosts::calibrated_40nm(),
            activity: Activity::average(),
            psum_bits: 20,
            misc_e_per_op: 14.0e-15,
        }
    }

    /// The paper macro of the chosen design, as the energy model prices
    /// it.
    fn macro_point(&self) -> DesignPoint {
        DesignPoint::paper(match self.design {
            Design::CurFe => Variant::CurFe,
            Design::ChgFe => Variant::ChgFe,
        })
    }

    /// Per-macro-cycle energy of the chosen design (J).
    #[must_use]
    pub fn macro_cycle_energy(&self) -> f64 {
        self.macro_point().cycle_breakdown(self.activity).total()
    }

    /// Macro cycle time (s).
    #[must_use]
    pub fn macro_cycle_time(&self) -> f64 {
        self.macro_point().t_cycle_s()
    }

    /// MACs one macro completes per cycle at this weight precision.
    #[must_use]
    pub fn macs_per_macro_cycle(&self) -> f64 {
        let rows = self.tile.rows_per_cycle as f64;
        let cols = self.tile.cols(self.weight_bits) as f64;
        rows * cols
    }
}

/// Per-layer evaluation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// MACs per inference.
    pub macs: u64,
    /// Macros occupied.
    pub macros: usize,
    /// Dynamic energy per inference (J), total.
    pub energy: f64,
    /// … of which macro (array+ADC) energy.
    pub energy_macro: f64,
    /// … of which buffer energy.
    pub energy_buffer: f64,
    /// … of which interconnect energy.
    pub energy_htree: f64,
    /// … of which digital accumulation + misc energy.
    pub energy_digital: f64,
    /// Latency per inference (s).
    pub latency: f64,
}

/// Whole-network evaluation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemReport {
    /// Per-layer breakdown (Fig. 12).
    pub layers: Vec<LayerReport>,
    /// Total dynamic energy per inference (J).
    pub total_energy: f64,
    /// Per-image latency (s), layers processed sequentially.
    pub total_latency: f64,
    /// Total MACs per inference.
    pub total_macs: u64,
    /// Chip area (mm²) with all weights resident.
    pub area_mm2: f64,
    /// System energy efficiency (TOPS/W), 1 MAC = 2 OPs.
    pub tops_per_watt: f64,
    /// Throughput in frames per second.
    pub fps: f64,
    /// Throughput in TOPS.
    pub tops: f64,
}

/// Evaluates a network (list of MAC layers) on the configured system.
///
/// # Panics
///
/// Panics if `layers` is empty.
#[must_use]
pub fn evaluate(layers: &[LayerShape], cfg: &SystemConfig) -> SystemReport {
    assert!(!layers.is_empty(), "network has no MAC layers");
    let e_cycle = cfg.macro_cycle_energy();
    let t_cycle = cfg.macro_cycle_time();
    let total_macros: usize = layers
        .iter()
        .map(|l| map_layer(l, cfg.tile, cfg.weight_bits).macros)
        .sum();
    let levels = htree_levels(total_macros);

    let mut reports = Vec::with_capacity(layers.len());
    let mut total_energy = 0.0;
    let mut total_latency = 0.0;
    let mut total_macs = 0u64;
    for layer in layers {
        let m: LayerMapping = map_layer(layer, cfg.tile, cfg.weight_bits);
        let cycles = layer_macro_cycles(layer, &m, cfg.input_bits);
        let energy_macro = cycles as f64 * e_cycle;

        let fan = (layer.in_ch * layer.kernel * layer.kernel) as f64;
        let positions = layer.out_positions as f64;
        let oc = layer.out_ch as f64;
        // Buffers: inputs re-read per column-tile; partial sums written
        // and read back once per row group.
        let input_bits_moved = positions * fan * f64::from(cfg.input_bits) * m.col_tiles as f64;
        let psum_words = positions * oc * (m.row_tiles * m.row_groups) as f64;
        let psum_bits_moved = 2.0 * psum_words * f64::from(cfg.psum_bits);
        let energy_buffer = (input_bits_moved + psum_bits_moved) * cfg.periphery.buffer_e_per_bit;
        // Interconnect: inputs descend the tree, partial sums ascend.
        let energy_htree = htree_energy(
            &cfg.periphery,
            input_bits_moved + psum_bits_moved / 2.0,
            levels,
        );
        // Digital: cross-group/tile accumulation plus lumped misc.
        let adds = psum_words;
        let macs = layer.macs();
        let energy_digital =
            adds * cfg.periphery.accum_e_per_add + 2.0 * macs as f64 * cfg.misc_e_per_op;

        let energy = energy_macro + energy_buffer + energy_htree + energy_digital;
        // Latency: positions sequenced through the deepest tile, plus one
        // word-latency pipeline fill per row group.
        let latency = positions * f64::from(cfg.input_bits) * m.row_groups as f64 * t_cycle
            + m.row_groups as f64 * cfg.periphery.word_latency;

        total_energy += energy;
        total_latency += latency;
        total_macs += macs;
        reports.push(LayerReport {
            name: layer.name.clone(),
            macs,
            macros: m.macros,
            energy,
            energy_macro,
            energy_buffer,
            energy_htree,
            energy_digital,
            latency,
        });
    }
    let ops = 2.0 * total_macs as f64;
    let area = total_macros as f64
        * cfg.periphery.macro_area_mm2
        * (1.0 + cfg.periphery.routing_area_overhead);
    SystemReport {
        layers: reports,
        total_energy,
        total_latency,
        total_macs,
        area_mm2: area,
        tops_per_watt: ops / total_energy / 1.0e12,
        fps: 1.0 / total_latency,
        tops: ops / total_latency / 1.0e12,
    }
}

/// Hardware-utilization statistics of a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Utilization {
    /// Total macros instantiated.
    pub macros: usize,
    /// Fraction of instantiated cells that hold real weights.
    pub cell_utilization: f64,
    /// Total 8-bit-weight-equivalent capacity of the chip.
    pub capacity_weights: u64,
    /// Weights actually stored.
    pub stored_weights: u64,
}

/// Computes mapping utilization: how much of the instantiated array
/// capacity the network's weights actually fill (edge tiles are padded).
///
/// # Panics
///
/// Panics if `layers` is empty.
#[must_use]
pub fn utilization(layers: &[LayerShape], cfg: &SystemConfig) -> Utilization {
    assert!(!layers.is_empty());
    let per_macro = (cfg.tile.rows * cfg.tile.cols(cfg.weight_bits)) as u64;
    let mut macros = 0usize;
    let mut stored = 0u64;
    for l in layers {
        let m = map_layer(l, cfg.tile, cfg.weight_bits);
        macros += m.macros;
        stored += l.weight_count();
    }
    let capacity = macros as u64 * per_macro;
    Utilization {
        macros,
        cell_utilization: stored as f64 / capacity as f64,
        capacity_weights: capacity,
        stored_weights: stored,
    }
}

/// Evaluates the network under a layer-pipelined dataflow: every layer
/// owns its macros permanently (as in [`evaluate`]) but successive images
/// stream through the pipeline, so steady-state throughput is set by the
/// *slowest* layer instead of the per-image latency sum.
///
/// Energy per inference is unchanged; only the throughput (and therefore
/// TOPS) improves. This is the "pipelined" operating mode NeuroSim-style
/// estimators report alongside the sequential one.
///
/// # Panics
///
/// Panics if `layers` is empty.
#[must_use]
pub fn evaluate_pipelined(layers: &[LayerShape], cfg: &SystemConfig) -> SystemReport {
    let mut r = evaluate(layers, cfg);
    let bottleneck = r.layers.iter().map(|l| l.latency).fold(0.0f64, f64::max);
    let ops = 2.0 * r.total_macs as f64;
    r.fps = 1.0 / bottleneck;
    r.tops = ops / bottleneck / 1.0e12;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::models::resnet18_shapes;

    const PAPER_CURFE_SYS: f64 = 12.41;
    const PAPER_CHGFE_SYS: f64 = 12.92;

    fn cifar_resnet() -> Vec<LayerShape> {
        resnet18_shapes(32, 10)
    }

    #[test]
    fn pipelined_throughput_beats_sequential() {
        let cfg = SystemConfig::paper(Design::CurFe, 4, 8);
        let seq = evaluate(&cifar_resnet(), &cfg);
        let pipe = evaluate_pipelined(&cifar_resnet(), &cfg);
        assert!(
            pipe.fps > 2.0 * seq.fps,
            "pipe {} vs seq {}",
            pipe.fps,
            seq.fps
        );
        assert!((pipe.total_energy - seq.total_energy).abs() < 1e-12);
        assert!((pipe.tops_per_watt - seq.tops_per_watt).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_a_sane_fraction() {
        let cfg = SystemConfig::paper(Design::CurFe, 4, 8);
        let u = utilization(&cifar_resnet(), &cfg);
        assert!(
            u.cell_utilization > 0.4 && u.cell_utilization <= 1.0,
            "utilization {:.3}",
            u.cell_utilization
        );
        assert!(u.stored_weights > 10_000_000, "ResNet18 ~11M weights");
        assert!(u.capacity_weights >= u.stored_weights);
    }

    #[test]
    fn four_bit_mode_uses_fewer_macros() {
        let u8m = utilization(&cifar_resnet(), &SystemConfig::paper(Design::CurFe, 4, 8));
        let u4m = utilization(&cifar_resnet(), &SystemConfig::paper(Design::CurFe, 4, 4));
        assert!(u4m.macros < u8m.macros);
    }

    #[test]
    fn curfe_system_efficiency_matches_table1() {
        let r = evaluate(&cifar_resnet(), &SystemConfig::paper(Design::CurFe, 4, 8));
        assert!(
            (r.tops_per_watt - PAPER_CURFE_SYS).abs() < 0.08 * PAPER_CURFE_SYS,
            "CurFe system: {:.2} TOPS/W vs paper {PAPER_CURFE_SYS}",
            r.tops_per_watt
        );
    }

    #[test]
    fn chgfe_system_efficiency_matches_table1() {
        let r = evaluate(&cifar_resnet(), &SystemConfig::paper(Design::ChgFe, 4, 8));
        assert!(
            (r.tops_per_watt - PAPER_CHGFE_SYS).abs() < 0.08 * PAPER_CHGFE_SYS,
            "ChgFe system: {:.2} TOPS/W vs paper {PAPER_CHGFE_SYS}",
            r.tops_per_watt
        );
    }

    #[test]
    fn chgfe_beats_curfe_on_system_energy_but_not_throughput() {
        let cur = evaluate(&cifar_resnet(), &SystemConfig::paper(Design::CurFe, 4, 8));
        let chg = evaluate(&cifar_resnet(), &SystemConfig::paper(Design::ChgFe, 4, 8));
        assert!(chg.tops_per_watt > cur.tops_per_watt, "energy: ChgFe wins");
        assert!(cur.fps > chg.fps, "throughput: CurFe wins");
    }

    #[test]
    fn areas_are_similar_between_designs() {
        let cur = evaluate(&cifar_resnet(), &SystemConfig::paper(Design::CurFe, 4, 8));
        let chg = evaluate(&cifar_resnet(), &SystemConfig::paper(Design::ChgFe, 4, 8));
        let rel = (cur.area_mm2 - chg.area_mm2).abs() / cur.area_mm2;
        assert!(rel < 0.05, "area difference {rel:.3}");
    }

    #[test]
    fn efficiency_falls_with_input_precision() {
        let mut last = f64::INFINITY;
        for bits in [1u32, 2, 4, 8] {
            let r = evaluate(
                &cifar_resnet(),
                &SystemConfig::paper(Design::CurFe, bits, 8),
            );
            assert!(r.tops_per_watt < last);
            last = r.tops_per_watt;
        }
    }

    #[test]
    fn imagenet_network_needs_more_energy_than_cifar() {
        let cfg = SystemConfig::paper(Design::CurFe, 4, 8);
        let c = evaluate(&resnet18_shapes(32, 10), &cfg);
        let i = evaluate(&resnet18_shapes(224, 1000), &cfg);
        assert!(i.total_energy > 3.0 * c.total_energy);
        assert!(i.total_latency > c.total_latency);
    }

    #[test]
    fn report_energy_components_sum() {
        let r = evaluate(&cifar_resnet(), &SystemConfig::paper(Design::ChgFe, 4, 8));
        for l in &r.layers {
            let sum = l.energy_macro + l.energy_buffer + l.energy_htree + l.energy_digital;
            assert!((l.energy - sum).abs() < 1e-15 + 1e-9 * l.energy);
        }
        let total: f64 = r.layers.iter().map(|l| l.energy).sum();
        assert!((total - r.total_energy).abs() < 1e-9 * r.total_energy);
    }

    #[test]
    fn big_conv_layers_dominate_the_breakdown() {
        // Fig. 12's shape: early high-resolution layers carry the latency.
        let r = evaluate(
            &resnet18_shapes(224, 1000),
            &SystemConfig::paper(Design::CurFe, 4, 4),
        );
        let max_latency = r.layers.iter().map(|l| l.latency).fold(0.0f64, f64::max);
        let first_conv = &r.layers[0];
        assert!(
            first_conv.latency > 0.3 * max_latency,
            "stem should be among the slowest layers"
        );
    }
}
