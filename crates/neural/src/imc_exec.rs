//! IMC-macro-backed quantized inference — the machinery behind the
//! paper's Fig. 10 (accuracy vs ADC resolution / precision / design).
//!
//! A trained float network (flat [`Sequential`], e.g. VGG8) is converted
//! into a [`QNetwork`]: convolutions and linear layers execute on a
//! *statistical macro model* that applies exactly the error mechanisms of
//! the hardware —
//!
//! 1. weight quantization to 4-/8-bit 2's complement and H4B/L4B
//!    splitting,
//! 2. activation quantization to 1–8-bit unsigned, processed bit-serially,
//! 3. 32-row partial-sum chunking (the macro's accumulation depth),
//! 4. per-cycle Gaussian analog noise with the per-bit-significance
//!    relative current spreads measured from the behavioural cell models
//!    (CurFe: resistor-limited, tight; ChgFe: V_TH-slope-limited, wide),
//! 5. 2CM/N2CM SAR ADC quantization per chunk, then digital nibble
//!    combining and input shift-add.
//!
//! The statistical model runs on the packed bit-plane kernel of
//! [`packed`]; its noise constants are validated against the
//! cycle-accurate [`imc_core`] bank models by the integration tests.
//! Convolutions and linear layers are one MAC layer type, and its one
//! quantize → kernel → dequantize step serves both
//! [`QNetwork::forward`] (the noisy kernel) and [`QNetwork::calibrate`]
//! (the ideal calibration kernel).

pub mod packed;

use std::sync::Arc;

use crate::layers::{BatchNorm2d, Conv2d, Layer, Linear};
use crate::models::Sequential;
use crate::quant::{quantize_activations, quantize_weights, QuantizedWeights};
use crate::tensor::Tensor;
use imc_core::adc::{h4b_adc, l4b_adc, SarAdc};

/// Which macro design executes the MACs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImcDesign {
    /// Current-mode (TIA) design.
    CurFe,
    /// Charge-mode (charge-sharing) design.
    ChgFe,
}

/// Noise constants: relative 1-σ current spread per intra-nibble bit
/// significance (index 0–3) and for the sign column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseProfile {
    /// Relative σ of the bit-`j` cell current.
    pub rel_sigma: [f64; 4],
    /// Relative σ of the sign-column current.
    pub rel_sigma_sign: f64,
}

impl NoiseProfile {
    /// CurFe: the drain resistor dominates, so the spread is essentially
    /// the 1 % resistor mismatch (Fig. 7(a)).
    #[must_use]
    pub fn curfe() -> Self {
        Self {
            rel_sigma: [0.012; 4],
            rel_sigma_sign: 0.012,
        }
    }

    /// ChgFe: σ(I)/I = 2·σ(V_TH)/OV_j with the √2 overdrive ladder of the
    /// paper configuration, so the LSB cell is the noisiest (Fig. 7(b)).
    #[must_use]
    pub fn chgfe() -> Self {
        let cfg = imc_core::config::ChgFeConfig::paper();
        let sigma = cfg.variation.sigma_vth;
        let s = |j: usize| 2.0 * sigma / (cfg.ladder.v_read - cfg.ladder.vth_on[j]);
        Self {
            rel_sigma: [s(0), s(1), s(2), s(3)],
            rel_sigma_sign: s(3),
        }
    }

    /// The profile of a design.
    #[must_use]
    pub fn for_design(design: ImcDesign) -> Self {
        match design {
            ImcDesign::CurFe => Self::curfe(),
            ImcDesign::ChgFe => Self::chgfe(),
        }
    }
}

/// Hardware configuration of the statistical executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImcConfig {
    /// The macro design.
    pub design: ImcDesign,
    /// ADC resolution (bits).
    pub adc_bits: u32,
    /// Activation precision (1–8 bits).
    pub input_bits: u32,
    /// Weight precision (4 or 8 bits).
    pub weight_bits: u32,
    /// Accumulation rows per chunk (the macro's 32).
    pub rows: usize,
    /// Noise seed (deterministic).
    pub seed: u64,
    /// Scale on the noise profile (0 disables device noise).
    pub noise_scale: f64,
    /// Fraction of the device σ that re-rolls every read cycle
    /// (cycle-to-cycle read noise); the rest is a static program-time
    /// perturbation, the physically dominant component.
    pub read_noise_fraction: f64,
}

impl ImcConfig {
    /// The paper's operating point: 5-bit ADC, 32 rows.
    ///
    /// # Panics
    ///
    /// Panics if `weight_bits` is not 4 or 8.
    #[must_use]
    pub fn paper(design: ImcDesign, input_bits: u32, weight_bits: u32) -> Self {
        assert!(
            weight_bits == 4 || weight_bits == 8,
            "weights are 4 or 8 bit"
        );
        Self {
            design,
            adc_bits: 5,
            input_bits,
            weight_bits,
            rows: 32,
            seed: 0x0FEF_E7A0,
            noise_scale: 1.0,
            read_noise_fraction: 0.15,
        }
    }
}

/// A MAC (convolution or linear) layer: packed `u64` weight bit-planes
/// (shared through the weight-stationary cache), their per-conversion
/// noise constants, the H4B/L4B ADC pair, and the digital dequantize
/// glue.
#[derive(Debug)]
struct MacLayer {
    planes: Arc<packed::PackedPlanes>,
    noise: packed::PlaneNoise,
    adcs: (SarAdc, SarAdc),
    w_scale: f32,
    bias: Vec<f32>,
    /// Convolution geometry; `None` for a linear layer.
    conv: Option<ConvGeometry>,
}

/// Kernel size, stride, padding and input channels of a convolution
/// (its output channels are the planes' `out_features`).
#[derive(Debug, Clone, Copy)]
struct ConvGeometry {
    k: usize,
    stride: usize,
    pad: usize,
    in_ch: usize,
}

impl MacLayer {
    /// Quantize → MAC → dequantize: quantizes `x` to `input_bits`-bit
    /// codes (im2col'd for a convolution), runs `kernel` on the
    /// `[positions, fan]` codes, and maps its `[positions, oc]` MAC
    /// units back to floats (`units · w_scale · x_scale + bias`), in
    /// NCHW for a convolution.
    fn run(&self, x: &Tensor, input_bits: u32, kernel: impl FnOnce(&Tensor) -> Tensor) -> Tensor {
        let qa = quantize_activations(x, input_bits);
        let codes = qa.q.iter().map(|&v| v as f32).collect();
        let n = x.shape()[0];
        let (cols, out_hw) = match self.conv {
            Some(g) => {
                let (n, c, h, w) = nchw(x);
                assert_eq!(c, g.in_ch);
                let codes = Tensor::from_vec(&[n, c, h, w], codes);
                let (cols, hw) = im2col_codes(&codes, g.k, g.stride, g.pad);
                (cols, Some(hw))
            }
            None => (Tensor::from_vec(&[n, x.len() / n], codes), None),
        };
        let mut units = kernel(&cols);
        let oc = self.planes.out_features;
        for row in units.data_mut().chunks_exact_mut(oc) {
            for (v, b) in row.iter_mut().zip(&self.bias) {
                *v = *v * self.w_scale * qa.scale + b;
            }
        }
        let Some((oh, ow)) = out_hw else {
            return units;
        };
        // Positions-major `[n·oh·ow, oc]` → NCHW.
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        let od = out.data_mut();
        for (pos, row) in units.data().chunks_exact(oc).enumerate() {
            let (ni, yx) = (pos / (oh * ow), pos % (oh * ow));
            for (o, &v) in row.iter().enumerate() {
                od[(ni * oc + o) * oh * ow + yx] = v;
            }
        }
        out
    }
}

/// A quantized network layer.
#[derive(Debug)]
enum QLayer {
    Mac(MacLayer),
    /// Folded eval-mode batch norm: per-channel `a·x + b`.
    Affine {
        a: Vec<f32>,
        b: Vec<f32>,
    },
    Relu,
    MaxPool2,
    GlobalAvgPool,
    Flatten,
}

/// Builds the calibrated ADC pair for a layer from observed chunk ranges.
fn calibrated_adcs(cfg: &ImcConfig, max_units: (f64, f64), margin: f64) -> (SarAdc, SarAdc) {
    use imc_core::adc::AdcMode;
    let worst_h = 8.0 * cfg.rows as f64;
    let worst_l = 15.0 * cfg.rows as f64;
    let h = (max_units.0 * (1.0 + margin)).clamp(1.0, worst_h);
    let l = (max_units.1 * (1.0 + margin)).clamp(1.0, worst_l);
    (
        SarAdc::new(cfg.adc_bits, AdcMode::TwosComplement, 0.0, 1.0, (-h, h)),
        SarAdc::new(cfg.adc_bits, AdcMode::Unsigned, 0.0, 1.0, (0.0, l)),
    )
}

fn default_adcs(cfg: &ImcConfig) -> (SarAdc, SarAdc) {
    (
        h4b_adc(cfg.adc_bits, cfg.rows, 0.0, 1.0),
        l4b_adc(cfg.adc_bits, cfg.rows, 0.0, 1.0),
    )
}

/// Footprint of a network's packed weight bit-planes (see
/// [`QNetwork::prepack`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepackSummary {
    /// MAC (conv/linear) layers in the network.
    pub mac_layers: usize,
    /// Total 32-row accumulation chunks across those layers.
    pub chunks: usize,
    /// Total packed `u64` words resident.
    pub words: usize,
    /// `words · 8` — the packed-plane memory footprint.
    pub bytes: usize,
}

/// A quantized, IMC-executed network.
#[derive(Debug)]
pub struct QNetwork {
    layers: Vec<QLayer>,
    cfg: ImcConfig,
}

impl QNetwork {
    /// Converts a trained **flat** [`Sequential`] (conv/BN/ReLU/pool/
    /// flatten/linear layers, e.g. [`crate::models::vgg8`]) into an
    /// IMC-executed quantized network.
    ///
    /// # Panics
    ///
    /// Panics if the network contains an unsupported layer type (nested
    /// blocks are not supported by the converter).
    #[must_use]
    pub fn from_sequential(net: &Sequential, cfg: ImcConfig) -> Self {
        Self::from_sequential_with(net, cfg, |_, qw| qw)
    }

    /// Like [`from_sequential`](Self::from_sequential), but routes every
    /// MAC layer's freshly quantized weights through `override_weights`
    /// before they are packed. The closure receives the MAC layer index
    /// (counting conv/linear layers only, in network order) and must
    /// return a [`QuantizedWeights`] of the **same shape and bit width**
    /// — typically the original codes with some entries replaced, e.g.
    /// the effective stored codes of a compiled chip image after
    /// fault-aware remapping.
    ///
    /// Because the planes are packed from the *returned* codes and the
    /// noise streams depend only on `cfg`, two networks built from the
    /// same `(cfg, effective codes, biases)` are bit-identical in
    /// [`forward`](Self::forward) — the property the compiler relies on
    /// to predict served outputs exactly.
    ///
    /// # Panics
    ///
    /// Panics if the network contains an unsupported layer type, or if the
    /// closure changes the weight shape or bit width.
    #[must_use]
    pub fn from_sequential_with(
        net: &Sequential,
        cfg: ImcConfig,
        mut override_weights: impl FnMut(usize, QuantizedWeights) -> QuantizedWeights,
    ) -> Self {
        let mut layers = Vec::new();
        let mut mac_idx = 0usize;
        let mut reweigh = |qw: QuantizedWeights| {
            let (shape, bits) = (qw.shape, qw.bits);
            let out = override_weights(mac_idx, qw);
            assert_eq!(out.shape, shape, "weight override changed the shape");
            assert_eq!(out.bits, bits, "weight override changed the bit width");
            mac_idx += 1;
            out
        };
        let mut mac = |weight: &Tensor, bias: &Tensor, conv: Option<ConvGeometry>| {
            let qw = reweigh(quantize_weights(weight, cfg.weight_bits));
            QLayer::Mac(MacLayer {
                planes: packed::pack_planes_cached(&qw, cfg.rows),
                noise: packed::PlaneNoise::for_config(&cfg),
                adcs: default_adcs(&cfg),
                w_scale: qw.scale,
                bias: bias.data().to_vec(),
                conv,
            })
        };
        for l in net.layers() {
            let any = l.as_any();
            if let Some(conv) = any.downcast_ref::<Conv2d>() {
                let geometry = ConvGeometry {
                    k: conv.kernel(),
                    stride: conv.stride(),
                    pad: conv.padding(),
                    in_ch: conv.channels().0,
                };
                layers.push(mac(&conv.weight.value, &conv.bias.value, Some(geometry)));
            } else if let Some(lin) = any.downcast_ref::<Linear>() {
                layers.push(mac(&lin.weight.value, &lin.bias.value, None));
            } else if let Some(bn) = any.downcast_ref::<BatchNorm2d>() {
                let (a, b) = bn.affine_eval();
                layers.push(QLayer::Affine { a, b });
            } else {
                match l.name() {
                    "relu" => layers.push(QLayer::Relu),
                    "maxpool2" => layers.push(QLayer::MaxPool2),
                    "gavgpool" => layers.push(QLayer::GlobalAvgPool),
                    "flatten" => layers.push(QLayer::Flatten),
                    other => panic!("unsupported layer in IMC conversion: {other}"),
                }
            }
        }
        Self { layers, cfg }
    }

    /// The hardware configuration.
    #[must_use]
    pub fn config(&self) -> &ImcConfig {
        &self.cfg
    }

    /// Summarizes the packed weight-plane footprint of this network.
    ///
    /// Packing happens eagerly at construction (through the
    /// weight-stationary cache), so by the time this returns, every MAC
    /// layer's planes are resident — the first inference pays no packing
    /// cost.
    #[must_use]
    pub fn prepack(&self) -> PrepackSummary {
        let mut s = PrepackSummary::default();
        for mac in self.macs() {
            s.mac_layers += 1;
            s.chunks += mac.planes.chunks.len();
            s.words += mac.planes.words();
        }
        s.bytes = s.words * std::mem::size_of::<u64>();
        s
    }

    /// Programs the reference banks: runs a noise-free calibration pass
    /// over `x` recording the actual per-layer chunk partial-sum ranges,
    /// then narrows each layer's 2CM/N2CM ADC references to cover them
    /// (plus `margin`, e.g. 0.25 = 25 %).
    ///
    /// This mirrors real macro bring-up — the paper's reference bank
    /// generates programmable ADC references (Section 3.1, after
    /// [6, 8, 10]) — and is what makes a 5-bit conversion usable: sized to
    /// the worst case (±8·32 units) its LSB would dwarf the typical
    /// partial sums of a trained network.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not NCHW.
    pub fn calibrate(&mut self, x: &Tensor, margin: f64) {
        let cfg = self.cfg;
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = match layer {
                QLayer::Mac(mac) => {
                    let mut max_units = (0.0, 0.0);
                    let out = mac.run(&cur, cfg.input_bits, |codes| {
                        packed::ideal_matmul_packed(codes, &mac.planes, &cfg, &mut max_units)
                    });
                    mac.adcs = calibrated_adcs(&cfg, max_units, margin);
                    out
                }
                other => Self::run_stateless(other, &cur),
            };
        }
    }

    /// Runs quantized inference on a float NCHW batch, returning logits.
    ///
    /// Each MAC layer draws its noise from the chunk-addressed streams of
    /// a [`packed::StreamKey`] over `(cfg.seed, MAC layer index)`: one
    /// stream per `(input bit, chunk)`, shared by every row of the batch
    /// in row order, so a row's noise depends on its batch position (see
    /// [`forward_each`](Self::forward_each)). A single row's normals are
    /// the same on every call and come from the layer's shared noise
    /// table, built on the first such call (see [`packed`]).
    ///
    /// # Panics
    ///
    /// Panics if the input is not 4-D.
    #[must_use]
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut mac_idx = 0u32;
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = match layer {
                QLayer::Mac(mac) => {
                    let key = packed::StreamKey {
                        seed: self.cfg.seed,
                        layer: mac_idx,
                    };
                    mac_idx += 1;
                    mac.run(&cur, self.cfg.input_bits, |codes| {
                        packed::imc_matmul_packed(
                            codes,
                            &mac.planes,
                            &mac.noise,
                            &mac.adcs,
                            &self.cfg,
                            key,
                        )
                    })
                }
                other => Self::run_stateless(other, &cur),
            };
        }
        cur
    }

    /// The MAC layers in execution order (index = MAC layer index).
    fn macs(&self) -> impl Iterator<Item = &MacLayer> {
        self.layers.iter().filter_map(|l| match l {
            QLayer::Mac(mac) => Some(mac),
            _ => None,
        })
    }

    /// Stateless (non-MAC) layers shared by inference and calibration.
    fn run_stateless(layer: &QLayer, x: &Tensor) -> Tensor {
        match layer {
            QLayer::Affine { a, b } => {
                let (n, c, h, w) = nchw(x);
                assert_eq!(c, a.len());
                let mut out = x.clone();
                let od = out.data_mut();
                for ni in 0..n {
                    for ci in 0..c {
                        let base = (ni * c + ci) * h * w;
                        for v in &mut od[base..base + h * w] {
                            *v = a[ci] * *v + b[ci];
                        }
                    }
                }
                out
            }
            QLayer::Relu => {
                let mut out = x.clone();
                for v in out.data_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
                out
            }
            QLayer::MaxPool2 => {
                let mut p = crate::layers::MaxPool2::new();
                p.forward(x, false)
            }
            QLayer::GlobalAvgPool => {
                let mut p = crate::layers::GlobalAvgPool::new();
                p.forward(x, false)
            }
            QLayer::Flatten => {
                let n = x.shape()[0];
                let rest: usize = x.shape()[1..].iter().product();
                x.clone().reshape(&[n, rest])
            }
            QLayer::Mac(_) => unreachable!("MAC layers are handled by the caller"),
        }
    }

    /// Batch-friendly inference for serving: evaluates every sample of a
    /// batch **independently**, each as its own single-row
    /// [`forward`](Self::forward) with fresh noise streams, and fans the
    /// samples out across the shared `par_exec` pool.
    ///
    /// Unlike a batched `forward` — where the rows take turns drawing
    /// from each shared stream, so a sample's noise depends on its batch
    /// position — each output row here is **bit-identical** to `forward`
    /// on that sample alone
    /// (`[1, ...]`), whatever the batch composition or thread count. That
    /// is the property a dynamic batcher needs: coalescing requests must
    /// never change any individual response.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or its layer sequence rejects the shape.
    #[must_use]
    pub fn forward_each(&self, x: &Tensor) -> Tensor {
        let n = x.shape()[0];
        assert!(n > 0, "forward_each needs at least one sample");
        let sample_shape: Vec<usize> = std::iter::once(1)
            .chain(x.shape()[1..].iter().copied())
            .collect();
        let stride = x.len() / n;
        let outs = par_exec::par_map_indexed(n, |i| {
            let xi = Tensor::from_vec(
                &sample_shape,
                x.data()[i * stride..(i + 1) * stride].to_vec(),
            );
            self.forward(&xi)
        });
        let per = outs[0].len();
        let mut shape = outs[0].shape().to_vec();
        shape[0] = n;
        let mut data = Vec::with_capacity(n * per);
        for o in &outs {
            assert_eq!(o.len(), per, "ragged per-sample outputs");
            data.extend_from_slice(o.data());
        }
        Tensor::from_vec(&shape, data)
    }

    /// Classification accuracy over (a prefix of) a dataset.
    ///
    /// Batches are evaluated concurrently on the shared `par_exec` pool.
    /// Each [`forward`](Self::forward) call derives its noise streams
    /// from `cfg.seed` afresh, so batches are independent and the result is
    /// bit-identical to a serial evaluation at any thread count.
    #[must_use]
    pub fn accuracy(&self, data: &crate::dataset::Dataset, max_samples: usize) -> f64 {
        let n = data.len().min(max_samples);
        let batch = 16usize;
        let ranges: Vec<(usize, usize)> = (0..n)
            .step_by(batch)
            .map(|i| (i, (i + batch).min(n)))
            .collect();
        let corrects = par_exec::par_map(&ranges, |&(lo, hi)| {
            let idx: Vec<usize> = (lo..hi).collect();
            let (x, y) = data.batch(&idx);
            let logits = self.forward(&x);
            let c = logits.shape()[1];
            let mut correct = 0usize;
            for (bi, &label) in y.iter().enumerate() {
                let row = &logits.data()[bi * c..(bi + 1) * c];
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(j, _)| j)
                    .expect("non-empty");
                if pred == label {
                    correct += 1;
                }
            }
            correct
        });
        corrects.iter().sum::<usize>() as f64 / n as f64
    }

    /// Digital glue of each MAC (conv/linear) layer, in execution order
    /// — everything a fleet router needs to finish a layer from gathered
    /// integer partial sums without touching the analog path (DESIGN
    /// §14): `out[o] = (Σ shards) · w_scale · act_scale + bias[o]`.
    #[must_use]
    pub fn mac_layer_meta(&self) -> Vec<MacLayerMeta> {
        self.macs()
            .map(|mac| MacLayerMeta {
                fan: mac.planes.chunks.iter().map(|c| c.rows).sum(),
                out_features: mac.planes.out_features,
                chunks: mac.planes.chunks.len(),
                w_scale: mac.w_scale,
                bias: mac.bias.clone(),
                is_linear: mac.conv.is_none(),
            })
            .collect()
    }

    /// Whether every MAC layer of this network satisfies the integer
    /// shift-add exactness bound ([`packed::shift_add_is_exact`]) — the
    /// precondition for bit-exact sharded serving.
    #[must_use]
    pub fn partials_are_exact(&self) -> bool {
        self.macs()
            .all(|mac| packed::shift_add_is_exact(&mac.adcs, &self.cfg, mac.planes.chunks.len()))
    }

    /// Executes global chunks `chunk_lo..chunk_hi` of the `mac_idx`-th
    /// MAC layer (a linear layer) on pre-quantized activation codes,
    /// returning exact i64 partial sums — the shard replica's half of
    /// fleet serving. `codes` is `[positions, fan]` with integer codes
    /// stored as f32, exactly as `quantize_activations` produces them;
    /// the noise streams are keyed on `(cfg.seed, mac_idx, input bit,
    /// global chunk)`, so the same chunk computed on any replica draws
    /// the same Gaussians as the single-node forward pass.
    ///
    /// # Errors
    ///
    /// Typed [`PartialMacError`]s on a missing/non-linear layer, fan
    /// mismatch, bad chunk range, a code that is not an integer in
    /// `0..=2^input_bits − 1`, or an ADC operating point that breaks
    /// integer-exact recombination.
    pub fn linear_partial(
        &self,
        mac_idx: usize,
        codes: &Tensor,
        chunk_lo: usize,
        chunk_hi: usize,
    ) -> Result<Vec<i64>, PartialMacError> {
        let mac = self
            .macs()
            .nth(mac_idx)
            .ok_or(PartialMacError::NoSuchLayer(mac_idx))?;
        if mac.conv.is_some() {
            return Err(PartialMacError::NotLinear(mac_idx));
        }
        let planes = &mac.planes;
        let chunks = planes.chunks.len();
        if chunk_lo >= chunk_hi || chunk_hi > chunks {
            return Err(PartialMacError::BadChunkRange {
                lo: chunk_lo,
                hi: chunk_hi,
                chunks,
            });
        }
        let fan: usize = planes.chunks.iter().map(|c| c.rows).sum();
        if codes.shape().len() != 2 || codes.shape()[1] != fan {
            return Err(PartialMacError::BadFan {
                got: codes.shape().last().copied().unwrap_or(0),
                want: fan,
            });
        }
        let max_code = ((1u32 << self.cfg.input_bits) - 1) as f32;
        if let Some(index) = codes
            .data()
            .iter()
            .position(|&v| !((0.0..=max_code).contains(&v) && v.fract() == 0.0))
        {
            return Err(PartialMacError::BadCode { index });
        }
        if !packed::shift_add_is_exact(&mac.adcs, &self.cfg, chunks) {
            return Err(PartialMacError::InexactShiftAdd);
        }
        #[allow(clippy::cast_possible_truncation)]
        let key = packed::StreamKey {
            seed: self.cfg.seed,
            layer: mac_idx as u32,
        };
        Ok(packed::imc_matmul_packed_partial(
            codes,
            planes,
            &mac.noise,
            &mac.adcs,
            &self.cfg,
            key,
            chunk_lo..chunk_hi,
        ))
    }
}

/// Digital (post-ADC) parameters of one MAC layer, surfaced for the
/// fleet router's partial-sum combine (see
/// [`QNetwork::mac_layer_meta`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MacLayerMeta {
    /// Fan-in (rows) of the layer's MAC.
    pub fan: usize,
    /// Output columns.
    pub out_features: usize,
    /// 32-row accumulation chunks (the shardable unit).
    pub chunks: usize,
    /// Weight dequantization scale.
    pub w_scale: f32,
    /// Per-output bias, applied after dequantization.
    pub bias: Vec<f32>,
    /// `true` for linear layers (the shardable kind), `false` for conv.
    pub is_linear: bool,
}

/// Typed failures of [`QNetwork::linear_partial`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartialMacError {
    /// No MAC layer with this index exists.
    NoSuchLayer(usize),
    /// The indexed MAC layer is a convolution (sharding serves MLPs).
    NotLinear(usize),
    /// The requested global chunk range is empty or out of bounds.
    BadChunkRange {
        /// Requested start chunk.
        lo: usize,
        /// Requested end chunk (exclusive).
        hi: usize,
        /// Chunks the layer actually has.
        chunks: usize,
    },
    /// The activation codes do not match the layer fan-in.
    BadFan {
        /// Fan-in of the provided codes.
        got: usize,
        /// Fan-in the layer expects.
        want: usize,
    },
    /// An activation code is not an integer in `0..=2^input_bits − 1`
    /// (NaN, fractional, negative or too large).
    BadCode {
        /// Position of the first bad code.
        index: usize,
    },
    /// The ADC operating point breaks integer-exact recombination
    /// ([`packed::shift_add_is_exact`]).
    InexactShiftAdd,
}

impl std::fmt::Display for PartialMacError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSuchLayer(i) => write!(f, "no MAC layer {i}"),
            Self::NotLinear(i) => write!(f, "MAC layer {i} is a convolution, not shardable"),
            Self::BadChunkRange { lo, hi, chunks } => {
                write!(f, "chunk range {lo}..{hi} invalid for {chunks} chunks")
            }
            Self::BadFan { got, want } => {
                write!(
                    f,
                    "activation fan-in {got} does not match layer fan-in {want}"
                )
            }
            Self::BadCode { index } => {
                write!(f, "activation code {index} is not a valid input code")
            }
            Self::InexactShiftAdd => {
                write!(
                    f,
                    "ADC operating point breaks integer-exact shift-add recombination"
                )
            }
        }
    }
}

impl std::error::Error for PartialMacError {}

fn nchw(x: &Tensor) -> (usize, usize, usize, usize) {
    let s = x.shape();
    assert_eq!(s.len(), 4, "expected NCHW, got {s:?}");
    (s[0], s[1], s[2], s[3])
}

/// im2col on integer activation codes stored as f32.
fn im2col_codes(x: &Tensor, k: usize, stride: usize, pad: usize) -> (Tensor, (usize, usize)) {
    let (n, c, h, w) = nchw(x);
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let mut cols = Tensor::zeros(&[n * oh * ow, c * k * k]);
    let xd = x.data();
    let cd = cols.data_mut();
    let row_len = c * k * k;
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = ((ni * oh + oy) * ow + ox) * row_len;
                for ci in 0..c {
                    for ky in 0..k {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            cd[row + (ci * k + ky) * k + kx] =
                                xd[((ni * c + ci) * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    (cols, (oh, ow))
}

/// NaN-safe total-order argmax — the canonical tie-break rule shared by
/// the compile predict pass and the serving classifier, so a manifest
/// and a server can never disagree on which class a logit row names.
///
/// NaN never beats anything (an all-NaN row keeps index 0); any non-NaN
/// beats NaN; finite ties keep the **last** maximal index, matching
/// `Iterator::max_by` with `partial_cmp` on finite rows.
#[must_use]
pub fn argmax_total(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (j, v) in row.iter().enumerate().skip(1) {
        let cur = row[best];
        let better = if v.is_nan() {
            false
        } else {
            cur.is_nan() || *v >= cur
        };
        if better {
            best = j;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::vgg8;

    fn tiny_net() -> Sequential {
        vgg8(10, 4, 11)
    }

    #[test]
    fn conversion_covers_vgg8() {
        let net = tiny_net();
        let q = QNetwork::from_sequential(&net, ImcConfig::paper(ImcDesign::CurFe, 4, 8));
        assert_eq!(q.layers.len(), net.len());
    }

    #[test]
    fn high_precision_noiseless_imc_matches_float_forward() {
        let mut net = tiny_net();
        let x = Tensor::full(&[1, 3, 32, 32], 0.5);
        // Warm the BN running stats so eval mode is meaningful.
        for _ in 0..4 {
            let _ = net.forward(&x, true);
        }
        let y_float = net.forward(&x, false);
        let mut cfg = ImcConfig::paper(ImcDesign::CurFe, 8, 8);
        cfg.adc_bits = 12;
        cfg.noise_scale = 0.0;
        let q = QNetwork::from_sequential(&net, cfg);
        let y_q = q.forward(&x);
        // Logit ordering should be preserved; magnitudes near.
        assert_eq!(y_float.shape(), y_q.shape());
        let rel: f32 = y_float
            .data()
            .iter()
            .zip(y_q.data())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / y_float
                .data()
                .iter()
                .map(|v| v.abs())
                .sum::<f32>()
                .max(1e-3);
        assert!(rel < 0.25, "relative deviation {rel}");
    }

    #[test]
    fn noise_changes_outputs_deterministically() {
        let net = tiny_net();
        let x = Tensor::full(&[1, 3, 32, 32], 0.3);
        let cfg = ImcConfig::paper(ImcDesign::ChgFe, 4, 8);
        let q = QNetwork::from_sequential(&net, cfg);
        let y1 = q.forward(&x);
        let y2 = q.forward(&x);
        assert_eq!(y1.data(), y2.data(), "same seed ⇒ same outputs");
        let mut cfg2 = cfg;
        cfg2.seed += 1;
        let q2 = QNetwork::from_sequential(&net, cfg2);
        let y3 = q2.forward(&x);
        assert_ne!(y1.data(), y3.data(), "different seed ⇒ different noise");
    }

    #[test]
    fn chgfe_noise_is_larger_than_curfe() {
        // Same network/input: the ChgFe profile must perturb logits more.
        let net = tiny_net();
        let x = Tensor::full(&[1, 3, 32, 32], 0.4);
        let clean_cfg = {
            let mut c = ImcConfig::paper(ImcDesign::CurFe, 4, 8);
            c.adc_bits = 12;
            c.noise_scale = 0.0;
            c
        };
        let clean = QNetwork::from_sequential(&net, clean_cfg).forward(&x);
        let dev = |design| {
            let mut cfg = ImcConfig::paper(design, 4, 8);
            cfg.adc_bits = 12; // isolate device noise from ADC quantization
            let y = QNetwork::from_sequential(&net, cfg).forward(&x);
            y.data()
                .iter()
                .zip(clean.data())
                .map(|(a, b)| f64::from((a - b).powi(2)))
                .sum::<f64>()
        };
        let cur = dev(ImcDesign::CurFe);
        let chg = dev(ImcDesign::ChgFe);
        assert!(chg > 2.0 * cur, "ChgFe dev {chg:.3e} vs CurFe {cur:.3e}");
    }

    #[test]
    fn coarser_adc_degrades_fidelity() {
        let net = tiny_net();
        let x = Tensor::full(&[1, 3, 32, 32], 0.45);
        let reference = {
            let mut cfg = ImcConfig::paper(ImcDesign::CurFe, 4, 8);
            cfg.adc_bits = 12;
            cfg.noise_scale = 0.0;
            QNetwork::from_sequential(&net, cfg).forward(&x)
        };
        let dev = |bits| {
            let mut cfg = ImcConfig::paper(ImcDesign::CurFe, 4, 8);
            cfg.adc_bits = bits;
            cfg.noise_scale = 0.0;
            let y = QNetwork::from_sequential(&net, cfg).forward(&x);
            y.data()
                .iter()
                .zip(reference.data())
                .map(|(a, b)| f64::from((a - b).powi(2)))
                .sum::<f64>()
        };
        let d3 = dev(3);
        let d5 = dev(5);
        let d7 = dev(7);
        assert!(d3 > d5, "3-bit dev {d3:.3e} should exceed 5-bit {d5:.3e}");
        assert!(d5 > d7 * 0.5, "5-bit {d5:.3e} vs 7-bit {d7:.3e}");
    }

    #[test]
    fn calibration_tightens_the_quantizer_and_improves_fidelity() {
        let mut net = tiny_net();
        let x = Tensor::full(&[1, 3, 32, 32], 0.5);
        for _ in 0..4 {
            let _ = net.forward(&x, true);
        }
        let reference = net.forward(&x, false);
        let fidelity = |calibrate: bool| {
            let mut cfg = ImcConfig::paper(ImcDesign::CurFe, 4, 8);
            cfg.noise_scale = 0.0;
            let mut q = QNetwork::from_sequential(&net, cfg);
            if calibrate {
                q.calibrate(&x, 0.25);
            }
            let y = q.forward(&x);
            y.data()
                .iter()
                .zip(reference.data())
                .map(|(a, b)| f64::from((a - b).powi(2)))
                .sum::<f64>()
        };
        let raw = fidelity(false);
        let cal = fidelity(true);
        assert!(
            cal < raw * 0.5,
            "calibrated 5-bit dev {cal:.3e} should beat uncalibrated {raw:.3e}"
        );
    }

    #[test]
    fn forward_each_rows_are_bit_identical_to_single_sample_forward() {
        // ChgFe with full noise: the strongest test of per-sample stream
        // isolation. Batched `forward` would interleave one stream across
        // rows; `forward_each` must not.
        let net = crate::models::mlp(48, 16, 10, 5);
        let cfg = ImcConfig::paper(ImcDesign::ChgFe, 4, 8);
        let q = QNetwork::from_sequential(&net, cfg);
        let n = 7;
        let x = Tensor::from_vec(
            &[n, 48],
            (0..n * 48).map(|i| (i % 29) as f32 / 29.0).collect(),
        );
        let batched = q.forward_each(&x);
        assert_eq!(batched.shape(), &[n, 10]);
        for i in 0..n {
            let xi = Tensor::from_vec(&[1, 48], x.data()[i * 48..(i + 1) * 48].to_vec());
            let yi = q.forward(&xi);
            let row = &batched.data()[i * 10..(i + 1) * 10];
            for (a, b) in row.iter().zip(yi.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} diverged");
            }
        }
    }

    #[test]
    fn weight_override_identity_is_bit_identical() {
        let net = crate::models::mlp(32, 12, 6, 21);
        let cfg = ImcConfig::paper(ImcDesign::ChgFe, 4, 8);
        let x = Tensor::from_vec(&[1, 32], (0..32).map(|i| (i % 13) as f32 / 13.0).collect());
        let plain = QNetwork::from_sequential(&net, cfg).forward(&x);
        let with = QNetwork::from_sequential_with(&net, cfg, |_, qw| qw).forward(&x);
        for (a, b) in plain.data().iter().zip(with.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn weight_override_codes_change_outputs_deterministically() {
        let net = crate::models::mlp(32, 12, 6, 21);
        let cfg = ImcConfig::paper(ImcDesign::CurFe, 4, 8);
        // Every input feature is strictly positive so a perturbed weight
        // in the first layer is guaranteed to reach the logits.
        let x = Tensor::from_vec(
            &[1, 32],
            (0..32).map(|i| (i % 7 + 1) as f32 / 8.0).collect(),
        );
        let flip = |i: usize, mut qw: QuantizedWeights| {
            if i == 0 {
                for q in &mut qw.q {
                    *q = q.wrapping_add(16);
                }
            }
            qw
        };
        let a = QNetwork::from_sequential_with(&net, cfg, flip).forward(&x);
        let b = QNetwork::from_sequential_with(&net, cfg, flip).forward(&x);
        assert_eq!(a.data(), b.data(), "same override ⇒ bit-identical");
        let plain = QNetwork::from_sequential(&net, cfg).forward(&x);
        assert_ne!(a.data(), plain.data(), "changed codes must show up");
    }

    #[test]
    #[should_panic(expected = "changed the shape")]
    fn weight_override_shape_change_rejected() {
        let net = crate::models::mlp(8, 4, 2, 1);
        let cfg = ImcConfig::paper(ImcDesign::CurFe, 4, 8);
        let _ = QNetwork::from_sequential_with(&net, cfg, |_, mut qw| {
            qw.q.push(0);
            qw.shape[1] += 1;
            qw
        });
    }

    #[test]
    fn sharded_linear_partials_reproduce_forward_bit_exactly() {
        // The full fleet contract at the neural level (DESIGN §14): a
        // router that quantizes activations, scatters chunk slices to
        // shards (`linear_partial`), sums the i64 partials, and applies
        // the digital glue from `mac_layer_meta` must reproduce the
        // single-node `forward` bit-for-bit — full noise, MNIST shape.
        let net = crate::models::mlp(784, 64, 10, 0x5E44_E001);
        let cfg = ImcConfig::paper(ImcDesign::ChgFe, 4, 8);
        let q = QNetwork::from_sequential(&net, cfg);
        assert!(q.partials_are_exact(), "paper point must be exact");
        let x = Tensor::from_vec(
            &[1, 784],
            (0..784).map(|i| (i % 23) as f32 / 23.0).collect(),
        );
        let expect = q.forward(&x);
        let meta = q.mac_layer_meta();
        assert_eq!(meta.len(), 2);
        for shards in [1usize, 2, 3] {
            let mut cur = x.clone();
            for (idx, m) in meta.iter().enumerate() {
                assert!(m.is_linear);
                if idx > 0 {
                    // The mlp builder puts a ReLU between linears.
                    for v in cur.data_mut() {
                        if *v < 0.0 {
                            *v = 0.0;
                        }
                    }
                }
                let qa = quantize_activations(&cur, cfg.input_bits);
                let codes = Tensor::from_vec(&[1, m.fan], qa.q.iter().map(|&v| v as f32).collect());
                let mut total = vec![0i64; m.out_features];
                let per = m.chunks.div_ceil(shards);
                let mut lo = 0usize;
                while lo < m.chunks {
                    let hi = (lo + per).min(m.chunks);
                    let part = q.linear_partial(idx, &codes, lo, hi).expect("valid slice");
                    for (acc, v) in total.iter_mut().zip(part) {
                        *acc += v;
                    }
                    lo = hi;
                }
                #[allow(clippy::cast_precision_loss)]
                let out: Vec<f32> = total
                    .iter()
                    .enumerate()
                    .map(|(o, &t)| (t as f32) * m.w_scale * qa.scale + m.bias[o])
                    .collect();
                cur = Tensor::from_vec(&[1, m.out_features], out);
            }
            for (i, (a, b)) in expect.data().iter().zip(cur.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{shards} shards: logit {i} diverged ({a} vs {b})"
                );
            }
        }
    }

    #[test]
    fn linear_partial_rejects_bad_requests_with_typed_errors() {
        let net = crate::models::mlp(64, 16, 4, 3);
        let cfg = ImcConfig::paper(ImcDesign::CurFe, 4, 8);
        let q = QNetwork::from_sequential(&net, cfg);
        let codes = Tensor::from_vec(&[1, 64], vec![1.0; 64]);
        assert_eq!(
            q.linear_partial(9, &codes, 0, 1),
            Err(PartialMacError::NoSuchLayer(9))
        );
        assert_eq!(
            q.linear_partial(0, &codes, 0, 99),
            Err(PartialMacError::BadChunkRange {
                lo: 0,
                hi: 99,
                chunks: 2
            })
        );
        assert_eq!(
            q.linear_partial(0, &codes, 1, 1),
            Err(PartialMacError::BadChunkRange {
                lo: 1,
                hi: 1,
                chunks: 2
            })
        );
        let short = Tensor::from_vec(&[1, 8], vec![1.0; 8]);
        assert_eq!(
            q.linear_partial(0, &short, 0, 1),
            Err(PartialMacError::BadFan { got: 8, want: 64 })
        );
        // 4-bit inputs: codes are the integers 0..=15.
        for (index, bad) in [(3, 300.0), (17, f32::NAN), (40, 2.7), (63, -1.0)] {
            let mut data = vec![15.0; 64];
            data[index] = bad;
            let codes = Tensor::from_vec(&[1, 64], data);
            assert_eq!(
                q.linear_partial(0, &codes, 0, 1),
                Err(PartialMacError::BadCode { index }),
                "code {bad}"
            );
        }
    }
}
