//! Fleet topology: which shard owns which accumulation chunks, and the
//! digital glue the router needs to recombine integer partial sums.
//!
//! A [`FleetPlan`] is everything the router must know about the model
//! *without* holding the weights: per-MAC-layer glue constants
//! (`w_scale`, bias, fan/out shapes), the chunk range each shard owns,
//! and the exact image digest an honest replica of each shard must
//! report from `Describe`. Plans come from two places that must agree
//! with the replicas they front:
//!
//! * [`FleetPlan::from_manifest`] — the `fleet.json` written by
//!   `imc-compile fleet`, for image-backed replicas.
//! * [`FleetPlan::synthetic`] — the same `(design, seed)` arithmetic
//!   `ServeModel::synthetic_shard` runs, for synthetic replicas. Both
//!   sides derive chunk ownership from the one even-split rule,
//!   [`ShardSpec::even`], so they agree without a manifest file.

use imc_compile::fleet::FleetManifest;
use imc_compile::image::{ImcSettings, ShardSpec};
use imc_cost::{inference_cost, DesignPoint, LayerShape, Variant, WeightBits};
use imc_serve::{parse_design, synthetic_digest, ServeModel};
use neural::imc_exec::ImcDesign;

/// Digital glue for one MAC layer: after summing every shard's i64
/// partials for output `o` into `total[o]`, the layer output is
/// `total[o] as f32 * w_scale * act_scale + bias[o]` — identical to the
/// single-node `QNetwork::forward` dequantization, so the combine is
/// bit-exact whenever the config satisfies `shift_add_is_exact`.
#[derive(Debug, Clone)]
pub struct GlueLayer {
    /// Human-readable layer name (diagnostics only).
    pub name: String,
    /// Fan-in (rows) of the layer's MAC.
    pub fan: usize,
    /// Output columns.
    pub out_features: usize,
    /// Total accumulation chunks (the shardable unit).
    pub chunks: usize,
    /// Weight dequantization scale.
    pub w_scale: f32,
    /// Per-output bias, applied after dequantization.
    pub bias: Vec<f32>,
}

/// One shard of the fleet: the chunk ranges it owns per layer and the
/// image digest an honest replica of it must report.
#[derive(Debug, Clone)]
pub struct ShardSlot {
    /// Shard index in `0..shard_count`.
    pub index: usize,
    /// Digest a replica serving this shard must report from `Describe`.
    pub expect_digest: u64,
    /// Per-layer owned chunk range `[lo, hi)`, indexed by MAC layer.
    pub layer_chunks: Vec<[usize; 2]>,
}

/// The router's complete model-independent view of the fleet.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// Activation precision: the router quantizes layer inputs to this
    /// many unsigned bits before scattering codes to shards.
    pub input_bits: u32,
    /// Model input features.
    pub features: usize,
    /// Model output classes.
    pub classes: usize,
    /// Digest of the unsharded base image (what whole-model replicas
    /// report).
    pub base_digest: u64,
    /// Analytical energy of one whole-model inference (joules) — what
    /// the router counts per answered request.
    pub energy_per_inference_j: f64,
    /// Digital glue per MAC layer, in forward order.
    pub layers: Vec<GlueLayer>,
    /// The shard slots. Length 1 means whole-model routing (replicate +
    /// load-balance, no scatter/gather).
    pub shards: Vec<ShardSlot>,
}

impl FleetPlan {
    /// Builds the plan for a fleet of synthetic `(design, seed)`
    /// replicas cut `shard_count` ways, using the same even-split
    /// arithmetic as `ServeModel::synthetic_shard`.
    ///
    /// # Errors
    ///
    /// Fails when `shard_count` is zero, or when `shard_count > 1` and
    /// the operating point does not satisfy the exact shift-add
    /// condition (partial sums would not recombine bit-exactly).
    pub fn synthetic(design: ImcDesign, seed: u64, shard_count: usize) -> Result<Self, String> {
        if shard_count == 0 {
            return Err("fleet needs at least one shard".into());
        }
        // Materializing the model here is the price of agreeing with
        // the replicas about glue constants without a manifest file;
        // the router does it once at startup.
        let model = ServeModel::synthetic(design, seed);
        if shard_count > 1 && !model.network().partials_are_exact() {
            return Err(format!(
                "operating point {design:?} is not shift-add exact; \
                 sharded partial sums would not recombine bit-exactly"
            ));
        }
        let meta = model.network().mac_layer_meta();
        let mut layers = Vec::with_capacity(meta.len());
        for (i, m) in meta.iter().enumerate() {
            if !m.is_linear {
                return Err(format!("MAC layer {i} is not linear; cannot shard"));
            }
            layers.push(GlueLayer {
                name: format!("linear{i}"),
                fan: m.fan,
                out_features: m.out_features,
                chunks: m.chunks,
                w_scale: m.w_scale,
                bias: m.bias.clone(),
            });
        }
        let shards = (0..shard_count)
            .map(|i| ShardSlot {
                index: i,
                expect_digest: if shard_count == 1 {
                    synthetic_digest(design, seed, None)
                } else {
                    synthetic_digest(design, seed, Some((i, shard_count)))
                },
                layer_chunks: ShardSpec::even(meta.iter().map(|m| m.chunks), i, shard_count)
                    .layer_chunks,
            })
            .collect();
        Ok(Self {
            input_bits: model.network().config().input_bits,
            features: model.input_features(),
            classes: model.classes(),
            base_digest: synthetic_digest(design, seed, None),
            energy_per_inference_j: model.energy_per_inference_j(),
            layers,
            shards,
        })
    }

    /// Builds the plan from a `fleet.json` manifest written by
    /// `imc-compile fleet`.
    ///
    /// # Errors
    ///
    /// Fails when the manifest does not validate or names an unknown
    /// design.
    pub fn from_manifest(m: &FleetManifest) -> Result<Self, String> {
        m.validate().map_err(|e| e.to_string())?;
        let design = parse_design(&m.imc.design)?;
        let shapes: Vec<LayerShape> = m
            .layers
            .iter()
            .map(|l| LayerShape {
                fan: l.fan,
                out: l.out_features,
            })
            .collect();
        Ok(Self {
            input_bits: m.imc.input_bits,
            features: m.arch.features,
            classes: m.arch.classes,
            base_digest: m.base_digest,
            energy_per_inference_j: manifest_energy(design, &m.imc, &shapes),
            layers: m
                .layers
                .iter()
                .map(|l| GlueLayer {
                    name: l.name.clone(),
                    fan: l.fan,
                    out_features: l.out_features,
                    chunks: l.chunks,
                    w_scale: l.w_scale,
                    bias: l.bias.clone(),
                })
                .collect(),
            shards: m
                .shards
                .iter()
                .map(|s| ShardSlot {
                    index: s.index,
                    expect_digest: s.digest,
                    layer_chunks: s.layer_chunks.clone(),
                })
                .collect(),
        })
    }

    /// Number of shards the model is cut into.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// `true` when the fleet replicates whole-model servers (one shard):
    /// the router load-balances `Infer` instead of scatter/gathering.
    #[must_use]
    pub fn whole_model(&self) -> bool {
        self.shards.len() == 1
    }
}

/// Prices one whole-model inference for a manifest-backed fleet with
/// the `imc-cost` closed forms. The manifest carries the IMC operating
/// point but no macro geometry, so the paper's 16-bank × 4-block-pair
/// floorplan is assumed — the same default `imc-compile` writes into v2
/// images.
fn manifest_energy(design: ImcDesign, imc: &ImcSettings, shapes: &[LayerShape]) -> f64 {
    let point = DesignPoint {
        variant: match design {
            ImcDesign::CurFe => Variant::CurFe,
            ImcDesign::ChgFe => Variant::ChgFe,
        },
        banks: 16,
        rows: imc.rows.max(1),
        block_pairs_per_bank: 4,
        adc_bits: imc.adc_bits,
        input_bits: imc.input_bits,
        weight_bits: if imc.weight_bits <= 4 {
            WeightBits::W4
        } else {
            WeightBits::W8
        },
    };
    inference_cost(&point, shapes).energy_j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_plan_matches_shard_replicas() {
        // The plan's expected digests and chunk ranges must agree with
        // what honest `synthetic_shard` replicas actually report —
        // that agreement is the whole admission mechanism.
        let plan = FleetPlan::synthetic(ImcDesign::ChgFe, 42, 2).unwrap();
        assert_eq!(plan.shard_count(), 2);
        assert!(!plan.whole_model());
        assert_eq!(plan.features, 784);
        assert_eq!(plan.classes, 10);
        for slot in &plan.shards {
            let replica = ServeModel::synthetic_shard(ImcDesign::ChgFe, 42, slot.index, 2).unwrap();
            assert_eq!(slot.expect_digest, replica.digest());
            let spec = replica.shard().unwrap();
            assert_eq!(slot.layer_chunks, spec.layer_chunks);
        }
        // The tiling covers every chunk of every layer exactly once.
        for (li, layer) in plan.layers.iter().enumerate() {
            let mut next = 0usize;
            for slot in &plan.shards {
                let [lo, hi] = slot.layer_chunks[li];
                assert_eq!(lo, next, "gap before shard {} layer {li}", slot.index);
                assert!(hi >= lo);
                next = hi;
            }
            assert_eq!(next, layer.chunks, "layer {li} not fully covered");
        }
    }

    #[test]
    fn whole_model_plan_uses_base_digest() {
        let plan = FleetPlan::synthetic(ImcDesign::CurFe, 7, 1).unwrap();
        assert!(plan.whole_model());
        assert_eq!(plan.shards[0].expect_digest, plan.base_digest);
        assert_eq!(
            plan.base_digest,
            ServeModel::synthetic(ImcDesign::CurFe, 7).digest()
        );
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(FleetPlan::synthetic(ImcDesign::ChgFe, 1, 0).is_err());
    }

    #[test]
    fn synthetic_plan_prices_inference() {
        let plan = FleetPlan::synthetic(ImcDesign::ChgFe, 42, 1).unwrap();
        let model = ServeModel::synthetic(ImcDesign::ChgFe, 42);
        assert_eq!(plan.energy_per_inference_j, model.energy_per_inference_j());
        assert!(plan.energy_per_inference_j > 0.0);
    }
}
