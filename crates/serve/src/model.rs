//! The served model: a quantized [`QNetwork`] running on the CurFe or
//! ChgFe statistical macro executor, wrapped with the shape metadata the
//! protocol layer needs.
//!
//! Two construction paths:
//!
//! * [`ServeModel::synthetic`] — a deterministic MNIST-shaped MLP
//!   (784 → 64 → 10). Both server and load generator can build the exact
//!   same instance from `(design, seed)`, which is what lets `loadgen`
//!   verify responses bit-for-bit against local execution without
//!   shipping weights.
//! * [`ServeModel::from_checkpoint`] — the same architecture with
//!   trained weights restored from a `neural::checkpoint` JSON file.
//! * [`ServeModel::from_image`] — a compiled [`imc_compile`] chip image:
//!   the executor is reconstructed from the image's effective (post-fault,
//!   post-remap) weight codes, so served logits are bit-identical to the
//!   predictions in the image manifest.

use imc_compile::image::{ChipImage, MacroGeometry, ShardSpec};
use neural::checkpoint::{load, Checkpoint};
use neural::imc_exec::{ImcConfig, ImcDesign, QNetwork};
use neural::models::{mlp, Sequential};
use neural::tensor::Tensor;

use crate::protocol::DescribeReply;

/// Input features of the MNIST-shaped default model (28 × 28).
pub const MNIST_FEATURES: usize = 784;
/// Hidden width of the default model.
pub const DEFAULT_HIDDEN: usize = 64;
/// Output classes of the default model.
pub const DEFAULT_CLASSES: usize = 10;
/// Default weight-init seed (shared by server and loadgen so both sides
/// materialize identical weights).
pub const DEFAULT_SEED: u64 = 0x5E44_E001;

/// A quantized network plus its serving metadata.
pub struct ServeModel {
    net: QNetwork,
    features: usize,
    classes: usize,
    design: ImcDesign,
    /// Content digest reported to `Describe` probes. Image-backed models
    /// use [`ChipImage::digest`]; synthetic models derive one from
    /// `(design, seed, shard)`; checkpoint models report 0 (content not
    /// verifiable from the file alone).
    digest: u64,
    /// Set on shard replicas: the chunk ranges this chip owns.
    shard: Option<ShardSpec>,
    /// Analytical energy of one whole-model inference (J), priced by
    /// `imc-cost` from the design, macro geometry, and layer shapes at
    /// construction (DESIGN §15). Serving adds it per answered request
    /// to the `cost.energy_pj_total` counter.
    energy_per_inference_j: f64,
}

/// Prices one whole-model inference (J) with the analytical cost model:
/// the executor's design/precision knobs plus the macro geometry the
/// model was compiled for (paper geometry for synthetic and checkpoint
/// models).
fn price_inference(cfg: &ImcConfig, geometry: MacroGeometry, net: &QNetwork) -> f64 {
    let point = imc_cost::DesignPoint {
        variant: match cfg.design {
            ImcDesign::CurFe => imc_cost::Variant::CurFe,
            ImcDesign::ChgFe => imc_cost::Variant::ChgFe,
        },
        banks: geometry.banks,
        rows: cfg.rows,
        block_pairs_per_bank: geometry.block_pairs_per_bank,
        adc_bits: cfg.adc_bits,
        input_bits: cfg.input_bits,
        weight_bits: if cfg.weight_bits <= 4 {
            imc_cost::WeightBits::W4
        } else {
            imc_cost::WeightBits::W8
        },
    };
    let layers: Vec<imc_cost::LayerShape> = net
        .mac_layer_meta()
        .iter()
        .map(|m| imc_cost::LayerShape {
            fan: m.fan,
            out: m.out_features,
        })
        .collect();
    imc_cost::inference_cost(&point, &layers).energy_j
}

/// Deterministic pseudo-digest for synthetic models, so fleets of
/// `(design, seed)` replicas still get digest-based admission checks.
/// `shard` is `Some((index, count))` for shard replicas, `None` for a
/// whole-model server; the fleet router uses this to predict what an
/// honest synthetic replica must report from `Describe`.
#[must_use]
pub fn synthetic_digest(design: ImcDesign, seed: u64, shard: Option<(usize, usize)>) -> u64 {
    let tag = match design {
        ImcDesign::CurFe => 0x11u64,
        ImcDesign::ChgFe => 0x22u64,
    };
    let (si, sc) = shard.map_or((0, 0), |(i, c)| (i as u64 + 1, c as u64));
    let mut z = seed ^ (tag << 56) ^ (si << 32) ^ sc ^ 0x5E44_F1EE_7000_0000;
    for _ in 0..2 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z | 1 // never 0, which is reserved for "no digest"
}

/// Parses a design name (`curfe` / `chgfe`, case-insensitive).
///
/// # Errors
///
/// Returns the unrecognized name.
pub fn parse_design(s: &str) -> Result<ImcDesign, String> {
    match s.to_ascii_lowercase().as_str() {
        "curfe" => Ok(ImcDesign::CurFe),
        "chgfe" => Ok(ImcDesign::ChgFe),
        other => Err(format!("unknown design `{other}` (expected curfe|chgfe)")),
    }
}

impl ServeModel {
    fn quantize(seq: &Sequential, design: ImcDesign, features: usize, classes: usize) -> Self {
        // The paper operating point: 4-bit activations, 8-bit weights,
        // 5-bit ADC, 32-row chunks, full device noise.
        let cfg = ImcConfig::paper(design, 4, 8);
        let net = QNetwork::from_sequential(seq, cfg);
        let energy_per_inference_j = price_inference(&cfg, MacroGeometry::paper(), &net);
        Self {
            net,
            features,
            classes,
            design,
            digest: 0,
            shard: None,
            energy_per_inference_j,
        }
    }

    /// Builds the deterministic MNIST-shaped default model.
    #[must_use]
    pub fn synthetic(design: ImcDesign, seed: u64) -> Self {
        let seq = mlp(MNIST_FEATURES, DEFAULT_HIDDEN, DEFAULT_CLASSES, seed);
        let mut m = Self::quantize(&seq, design, MNIST_FEATURES, DEFAULT_CLASSES);
        m.digest = synthetic_digest(design, seed, None);
        m
    }

    /// Builds shard `index` of a `count`-way cut of the synthetic model:
    /// the full network is materialized (partials need full weight
    /// planes), but the replica only owns an even contiguous chunk range
    /// per MAC layer and refuses whole-model `Infer` and out-of-range
    /// `Partial` requests. The fleet router's synthetic plan cuts with
    /// the same [`ShardSpec::even`], so both sides agree on ownership
    /// without a manifest file.
    ///
    /// # Errors
    ///
    /// Fails when `count` is zero or `index` is out of range.
    pub fn synthetic_shard(
        design: ImcDesign,
        seed: u64,
        index: usize,
        count: usize,
    ) -> Result<Self, String> {
        if count == 0 || index >= count {
            return Err(format!("shard {index}/{count} is not a valid assignment"));
        }
        let mut m = Self::synthetic(design, seed);
        let chunks = m.net.mac_layer_meta().into_iter().map(|l| l.chunks);
        m.shard = Some(ShardSpec::even(chunks, index, count));
        m.digest = synthetic_digest(design, seed, Some((index, count)));
        Ok(m)
    }

    /// Restores the default architecture from a checkpoint JSON file
    /// (written by serializing [`Checkpoint`] with `serde_json`).
    ///
    /// # Errors
    ///
    /// Fails on unreadable files, malformed JSON, or a checkpoint whose
    /// shapes don't match the MNIST MLP architecture.
    pub fn from_checkpoint(path: &str, design: ImcDesign) -> Result<Self, String> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {path}: {e}"))?;
        let ckpt: Checkpoint = serde_json::from_str(&json)
            .map_err(|e| format!("cannot parse checkpoint {path}: {e}"))?;
        let mut seq = mlp(
            MNIST_FEATURES,
            DEFAULT_HIDDEN,
            DEFAULT_CLASSES,
            DEFAULT_SEED,
        );
        let restore = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            load(&mut seq, &ckpt);
        }));
        if restore.is_err() {
            return Err(format!(
                "checkpoint {path} does not match the {MNIST_FEATURES}→{DEFAULT_HIDDEN}→{DEFAULT_CLASSES} MLP architecture"
            ));
        }
        Ok(Self::quantize(
            &seq,
            design,
            MNIST_FEATURES,
            DEFAULT_CLASSES,
        ))
    }

    /// Loads a compiled chip image and serves its effective network.
    ///
    /// The executor is rebuilt exactly as the compiler predicted it
    /// ([`ChipImage::to_network`]), faults, remapping and all — responses
    /// match the manifest's `predicted_logits` bit-for-bit on the image's
    /// probe set.
    ///
    /// # Errors
    ///
    /// Fails on unreadable, malformed, or invalid images.
    pub fn from_image(path: &str, design_override: Option<ImcDesign>) -> Result<Self, String> {
        let image = ChipImage::load(path).map_err(|e| e.to_string())?;
        let cfg = image.imc.to_config().map_err(|e| e.to_string())?;
        if let Some(want) = design_override {
            if want != cfg.design {
                return Err(format!(
                    "image {path} was compiled for {:?}, not {want:?} — recompile \
                     instead of overriding the design",
                    cfg.design
                ));
            }
        }
        let net = image.to_network().map_err(|e| e.to_string())?;
        let energy_per_inference_j = price_inference(&cfg, image.geometry, &net);
        Ok(Self {
            net,
            features: image.arch.features,
            classes: image.arch.classes,
            design: cfg.design,
            digest: image.digest(),
            shard: image.shard.clone(),
            energy_per_inference_j,
        })
    }

    /// Expected flat input length per request.
    #[must_use]
    pub fn input_features(&self) -> usize {
        self.features
    }

    /// Number of output classes (logits per response).
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Which macro design executes the MACs.
    #[must_use]
    pub fn design(&self) -> ImcDesign {
        self.design
    }

    /// The underlying quantized network (for direct single-input
    /// execution, e.g. loadgen verification).
    #[must_use]
    pub fn network(&self) -> &QNetwork {
        &self.net
    }

    /// Packed weight-plane footprint (resident since construction — the
    /// weight-stationary cache is warmed eagerly, so the first request
    /// never pays packing cost).
    #[must_use]
    pub fn prepack(&self) -> neural::imc_exec::PrepackSummary {
        self.net.prepack()
    }

    /// Runs a `[n, features]` batch, one independent noise stream per
    /// sample — each output row bit-identical to
    /// [`QNetwork::forward`] on that row alone.
    #[must_use]
    pub fn infer_batch(&self, x: &Tensor) -> Tensor {
        self.net.forward_each(x)
    }

    /// Runs one flat input directly (the reference path batching must
    /// reproduce bit-for-bit).
    #[must_use]
    pub fn infer_one(&self, input: &[f32]) -> Vec<f32> {
        let x = Tensor::from_vec(&[1, self.features], input.to_vec());
        self.net.forward(&x).data().to_vec()
    }

    /// Content digest reported to `Describe` (0 = not verifiable).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Analytical energy of one whole-model inference (J), from the
    /// calibrated `imc-cost` closed forms.
    #[must_use]
    pub fn energy_per_inference_j(&self) -> f64 {
        self.energy_per_inference_j
    }

    /// The same estimate in integer picojoules — the unit the
    /// `cost.energy_pj_total` counter accumulates.
    #[must_use]
    pub fn energy_per_inference_pj(&self) -> u64 {
        (self.energy_per_inference_j * 1.0e12).round() as u64
    }

    /// The shard assignment, when this replica serves a fleet cut.
    #[must_use]
    pub fn shard(&self) -> Option<&ShardSpec> {
        self.shard.as_ref()
    }

    /// Whether this replica serves a shard (and must refuse whole-model
    /// `Infer` requests).
    #[must_use]
    pub fn is_sharded(&self) -> bool {
        self.shard.is_some()
    }

    /// The identity answer for a `Describe` probe.
    #[must_use]
    pub fn describe(&self) -> DescribeReply {
        let (shard_index, shard_count) = self.shard.as_ref().map_or((0, 0), |s| (s.index, s.count));
        DescribeReply {
            digest: self.digest,
            shard_index,
            shard_count,
            features: self.features,
            classes: self.classes,
        }
    }

    /// Executes a partial MAC: layer `layer`, global chunks
    /// `[chunk_lo, chunk_hi)`, over pre-quantized activation codes.
    /// Deterministic by construction (chunk-addressed noise streams), so
    /// it runs on the connection thread, not through the batcher.
    ///
    /// # Errors
    ///
    /// Fails on a chunk range outside this replica's shard, or any
    /// kernel-level validation error (`PartialMacError`).
    pub fn partial(
        &self,
        layer: usize,
        chunk_lo: usize,
        chunk_hi: usize,
        codes: &[f32],
    ) -> Result<Vec<i64>, String> {
        if let Some(s) = &self.shard {
            let owned = s.layer_chunks.get(layer).copied().ok_or_else(|| {
                format!(
                    "layer {layer} out of range for shard {}/{}",
                    s.index, s.count
                )
            })?;
            if chunk_lo < owned[0] || chunk_hi > owned[1] {
                return Err(format!(
                    "chunks {chunk_lo}..{chunk_hi} of layer {layer} outside shard {}/{} \
                     (owns {}..{})",
                    s.index, s.count, owned[0], owned[1]
                ));
            }
        }
        let x = Tensor::from_vec(&[1, codes.len()], codes.to_vec());
        self.net
            .linear_partial(layer, &x, chunk_lo, chunk_hi)
            .map_err(|e| e.to_string())
    }
}

impl std::fmt::Debug for ServeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeModel")
            .field("features", &self.features)
            .field("classes", &self.classes)
            .field("design", &self.design)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_design_accepts_both_cases() {
        assert_eq!(parse_design("CurFe").unwrap(), ImcDesign::CurFe);
        assert_eq!(parse_design("chgfe").unwrap(), ImcDesign::ChgFe);
        assert!(parse_design("sram").is_err());
    }

    #[test]
    fn batch_rows_match_single_inference_bits() {
        let m = ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED);
        let a: Vec<f32> = (0..MNIST_FEATURES)
            .map(|i| (i % 17) as f32 / 17.0)
            .collect();
        let b: Vec<f32> = (0..MNIST_FEATURES).map(|i| (i % 5) as f32 / 5.0).collect();
        let mut data = a.clone();
        data.extend_from_slice(&b);
        let batch = Tensor::from_vec(&[2, MNIST_FEATURES], data);
        let out = m.infer_batch(&batch);
        assert_eq!(out.shape(), &[2, DEFAULT_CLASSES]);
        for (row, input) in [(0usize, &a), (1usize, &b)] {
            let direct = m.infer_one(input);
            let got = &out.data()[row * DEFAULT_CLASSES..(row + 1) * DEFAULT_CLASSES];
            for (x, y) in got.iter().zip(&direct) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn energy_estimate_is_positive_and_chgfe_is_cheaper() {
        let cur = ServeModel::synthetic(ImcDesign::CurFe, DEFAULT_SEED);
        let chg = ServeModel::synthetic(ImcDesign::ChgFe, DEFAULT_SEED);
        assert!(cur.energy_per_inference_j() > 0.0);
        assert!(
            chg.energy_per_inference_j() < cur.energy_per_inference_j(),
            "paper ordering: ChgFe ({:.3e} J) must price below CurFe ({:.3e} J)",
            chg.energy_per_inference_j(),
            cur.energy_per_inference_j()
        );
        assert_eq!(
            chg.energy_per_inference_pj(),
            (chg.energy_per_inference_j() * 1.0e12).round() as u64
        );
        assert!(chg.energy_per_inference_pj() > 0);
    }

    #[test]
    fn checkpoint_round_trip_restores_weights() {
        let mut seq = mlp(MNIST_FEATURES, DEFAULT_HIDDEN, DEFAULT_CLASSES, 777);
        let ckpt = neural::checkpoint::save(&mut seq);
        let json = serde_json::to_string(&ckpt).unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join("imc_serve_ckpt_test.json");
        std::fs::write(&path, &json).unwrap();
        let m = ServeModel::from_checkpoint(path.to_str().unwrap(), ImcDesign::CurFe).unwrap();
        // Same weights quantized the same way as building from `seq`
        // directly: outputs must agree bitwise.
        let direct = ServeModel::quantize(&seq, ImcDesign::CurFe, MNIST_FEATURES, DEFAULT_CLASSES);
        let input: Vec<f32> = (0..MNIST_FEATURES)
            .map(|i| (i % 11) as f32 / 11.0)
            .collect();
        assert_eq!(m.infer_one(&input), direct.infer_one(&input));
        std::fs::remove_file(&path).ok();
        assert!(ServeModel::from_checkpoint("/nonexistent/ckpt.json", ImcDesign::CurFe).is_err());
    }
}
