//! Kernel equivalence suite: at `noise_scale = 0` the packed `u64`
//! bit-plane shift-add MAC kernel must reproduce an independent
//! reference **exactly** (f32 bit equality) — the integer pMACV, the ADC
//! transfer, and the digital shift-add are all deterministic, so any
//! divergence is a kernel bug, not a tolerance question. With noise on,
//! golden digests pin the outputs instead.
//!
//! The reference below is written from the paper's dataflow with public
//! APIs only and shares no code with `neural::imc_exec::packed`: each
//! stored code splits into its H4B/L4B nibbles, the integer nibble sums
//! of every 32-row chunk go through the 2CM/N2CM ADCs, the nibbles
//! combine as `16·H + L`, and input bits shift-add as `Σ_t 2^t`,
//! accumulated in f32 in input bit → chunk order.

use imc_core::adc::{h4b_adc, l4b_adc};
use imc_core::weights::SplitWeight;
use neural::imc_exec::{ImcConfig, ImcDesign, QNetwork};
use neural::layers::Linear;
use neural::models::{mlp, Sequential};
use neural::quant::{quantize_activations, quantize_weights};
use neural::tensor::Tensor;
use proptest::prelude::*;

/// Serve-model default weight seed (mirrors
/// `imc_serve::model::DEFAULT_SEED` without linking the serve crate).
const DEFAULT_SEED: u64 = 0x5E44_E001;

fn noiseless(design: ImcDesign, weight_bits: u32) -> ImcConfig {
    let mut cfg = ImcConfig::paper(design, 4, weight_bits);
    cfg.noise_scale = 0.0;
    cfg
}

/// Noise-free reference of one linear layer on `x` (`[n, fan]`),
/// computed per row straight from the quantized codes.
fn reference_linear(lin: &Linear, cfg: &ImcConfig, x: &Tensor) -> Tensor {
    let qw = quantize_weights(&lin.weight.value, cfg.weight_bits);
    let qa = quantize_activations(x, cfg.input_bits);
    let [oc, fan] = qw.shape;
    let n = x.shape()[0];
    let adc_h = h4b_adc(cfg.adc_bits, cfg.rows, 0.0, 1.0);
    let adc_l = l4b_adc(cfg.adc_bits, cfg.rows, 0.0, 1.0);
    // (H4B, L4B) nibble values of a stored code; a 4-bit code is all H4B.
    let nibbles = |w: i8| match cfg.weight_bits {
        8 => {
            let sw = SplitWeight::split(w);
            (i64::from(sw.high.value()), i64::from(sw.low.value()))
        }
        _ => (i64::from(w), 0),
    };
    let mut out = Vec::with_capacity(n * oc);
    for codes in qa.q.chunks(fan) {
        for (o, bias) in lin.bias.value.data().iter().enumerate() {
            let weights = &qw.q[o * fan..(o + 1) * fan];
            let mut units = 0.0f32;
            for t in 0..cfg.input_bits {
                for (xc, wc) in codes.chunks(cfg.rows).zip(weights.chunks(cfg.rows)) {
                    let (mut h, mut l) = (0i64, 0i64);
                    for (&x, &w) in xc.iter().zip(wc) {
                        if (x >> t) & 1 == 1 {
                            let (wh, wl) = nibbles(w);
                            h += wh;
                            l += wl;
                        }
                    }
                    let h = adc_h.read_units(h as f64);
                    let combined = match cfg.weight_bits {
                        8 => 16.0 * h + adc_l.read_units(l as f64),
                        _ => h,
                    };
                    units += (combined * f64::from(1u32 << t)) as f32;
                }
            }
            out.push(units * qw.scale * qa.scale + bias);
        }
    }
    Tensor::from_vec(&[n, oc], out)
}

/// Reference forward of an `mlp` (linear layers with ReLUs between).
fn reference_forward(seq: &Sequential, cfg: &ImcConfig, x: &Tensor) -> Tensor {
    let mut cur = x.clone();
    for layer in seq.layers() {
        if let Some(lin) = layer.as_any().downcast_ref::<Linear>() {
            cur = reference_linear(lin, cfg, &cur);
        } else {
            assert_eq!(layer.name(), "relu", "the reference covers MLPs only");
            for v in cur.data_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
    }
    cur
}

/// Asserts bitwise identical logits between the packed network and the
/// reference for every input row.
fn assert_matches_reference(seq: &Sequential, cfg: ImcConfig, x: &Tensor) {
    let yp = QNetwork::from_sequential(seq, cfg).forward(x);
    let yr = reference_forward(seq, &cfg, x);
    assert_eq!(yp.shape(), yr.shape());
    for (i, (a, b)) in yp.data().iter().zip(yr.data()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "logit {i} diverged: packed {a} vs reference {b}"
        );
    }
}

fn ramp_rows(rows: usize, features: usize, phase: usize) -> Tensor {
    Tensor::from_vec(
        &[rows, features],
        (0..rows * features)
            .map(|i| ((i + phase) % 13) as f32 / 13.0)
            .collect(),
    )
}

/// ADC resolutions of the noise-0 cases. One LSB spans 480 / 2^bits
/// units. At the paper's 5 bits that is 15, so no integer H or L lands
/// on a half-LSB tie and nothing pins how the ADC rounds one. At 4 bits
/// (30 units) every H ≡ 15 (mod 30) is a tie, and at 3 bits (60 units)
/// every H ≡ 30 (mod 60): rounding them half to even, not away from
/// zero, fails these cases. 6 bits gives a step of 7.5 units, which is
/// not an integer.
const ADC_BITS: [u32; 4] = [5, 3, 4, 6];

#[test]
fn kernels_bit_identical_on_seed_checkpoints() {
    // The serve model's shape at its default seed plus fixed checkpoint
    // seeds, both designs, both weight widths and every ADC resolution
    // of `ADC_BITS`. Exact equality on every logit.
    for &seed in &[DEFAULT_SEED, 0xA5A5, 0x1234_5678, 7] {
        for design in [ImcDesign::CurFe, ImcDesign::ChgFe] {
            for bits in [8, 4] {
                let seq = mlp(64, 16, 10, seed);
                let x = ramp_rows(1, 64, seed as usize);
                for adc_bits in ADC_BITS {
                    let cfg = ImcConfig {
                        adc_bits,
                        ..noiseless(design, bits)
                    };
                    assert_matches_reference(&seq, cfg, &x);
                }
            }
        }
    }
}

#[test]
fn kernels_bit_identical_on_the_serve_shape() {
    // Full 784→64→10 MNIST shape at the serving seed — the exact
    // network `imc-serve` runs, minus noise — on a 3-row batch, at
    // every ADC resolution of `ADC_BITS`.
    let seq = mlp(784, 64, 10, DEFAULT_SEED);
    let x = ramp_rows(3, 784, 3);
    for adc_bits in ADC_BITS {
        let cfg = ImcConfig {
            adc_bits,
            ..noiseless(ImcDesign::ChgFe, 8)
        };
        assert_matches_reference(&seq, cfg, &x);
    }
}

/// FNV-1a 64 over the 8 little-endian bytes of each value.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn digest_f32(t: &Tensor) -> u64 {
    fnv1a(t.data().iter().map(|v| u64::from(v.to_bits())))
}

#[test]
fn noisy_outputs_match_golden_digests() {
    // Full-noise outputs pinned bit for bit: the noise-0 reference above
    // cannot see a change to the draw order, the stream keying or the
    // noisy ADC read, so any kernel rewrite must keep these digests.
    // Columns: design, weight bits, forward, forward_each, the layer-0
    // partial sums of one row over chunks 0..12 then 12..25, the layer-0
    // partial sums of two rows over all 25 chunks (the only multi-row
    // i64 pass), the calibrated 64→16→10 forward (W8 only) and the vgg8
    // forward (W8 only).
    let golden = [
        (
            ImcDesign::CurFe,
            8,
            0xbd1d_4379_3474_f78f,
            0x188c_42d6_a712_77c7,
            0xe5a2_6886_ce2f_83e8,
            0x7e9d_a73c_2145_3a96,
            Some((0xe583_4367_df30_5a62, 0x1dbc_28da_8e19_cf63)),
        ),
        (
            ImcDesign::CurFe,
            4,
            0x7679_1e99_93ed_87ff,
            0x27c6_ab43_4ec9_fe91,
            0x6508_7653_f630_c0c2,
            0x0c95_3af4_524d_ff37,
            None,
        ),
        (
            ImcDesign::ChgFe,
            8,
            0x37f4_7286_d9bf_44f9,
            0x3934_346e_0b87_7cab,
            0xd88f_297f_fa35_5a2d,
            0x7e89_53b9_f025_60d9,
            Some((0x5b55_2c11_a75e_8744, 0xec38_4054_c7d6_5f92)),
        ),
        (
            ImcDesign::ChgFe,
            4,
            0xe8d7_1cd2_b6ea_61ab,
            0x5a5e_bbb9_2108_824a,
            0x2aa8_8c5a_8f77_dd24,
            0xf13c_055d_4772_4f56,
            None,
        ),
    ];
    let serve = mlp(784, 64, 10, DEFAULT_SEED);
    let x = ramp_rows(3, 784, 3);
    for (design, bits, forward, forward_each, partial, partial_rows2, w8_only) in golden {
        let cfg = ImcConfig::paper(design, 4, bits);
        let net = QNetwork::from_sequential(&serve, cfg);
        let tag = format!("{design:?} W{bits}");
        assert_eq!(digest_f32(&net.forward(&x)), forward, "{tag} forward");
        assert_eq!(
            digest_f32(&net.forward_each(&x)),
            forward_each,
            "{tag} forward_each"
        );
        let qa = quantize_activations(&ramp_rows(1, 784, 3), 4);
        let codes = Tensor::from_vec(&[1, 784], qa.q.iter().map(|&v| v as f32).collect());
        let mut sums = net.linear_partial(0, &codes, 0, 12).expect("chunks 0..12");
        sums.extend(
            net.linear_partial(0, &codes, 12, 25)
                .expect("chunks 12..25"),
        );
        assert_eq!(
            fnv1a(sums.iter().map(|&v| v as u64)),
            partial,
            "{tag} partial"
        );
        let qa = quantize_activations(&ramp_rows(2, 784, 3), 4);
        let codes = Tensor::from_vec(&[2, 784], qa.q.iter().map(|&v| v as f32).collect());
        let sums = net
            .linear_partial(0, &codes, 0, 25)
            .expect("2 rows, chunks 0..25");
        assert_eq!(
            fnv1a(sums.iter().map(|&v| v as u64)),
            partial_rows2,
            "{tag} 2-row partial"
        );
        if let Some((calibrated, vgg)) = w8_only {
            let mut small = QNetwork::from_sequential(&mlp(64, 16, 10, 0xA5A5), cfg);
            small.calibrate(&ramp_rows(8, 64, 5), 0.25);
            assert_eq!(
                digest_f32(&small.forward(&ramp_rows(2, 64, 1))),
                calibrated,
                "{tag} calibrated forward"
            );
            let img = Tensor::from_vec(
                &[1, 3, 32, 32],
                (0..3 * 32 * 32).map(|i| (i % 17) as f32 / 17.0).collect(),
            );
            let vgg8 = QNetwork::from_sequential(&neural::models::vgg8(10, 4, 7), cfg);
            assert_eq!(digest_f32(&vgg8.forward(&img)), vgg, "{tag} vgg8 forward");
        }
    }
}

#[test]
fn forward_each_matches_forward_under_noise() {
    // Batched execution must be row-wise bit-identical to single-sample
    // execution (the serving bit-exactness contract).
    let seq = mlp(32, 8, 4, 0xBEEF);
    let cfg = ImcConfig::paper(ImcDesign::ChgFe, 4, 8); // full noise
    let net = QNetwork::from_sequential(&seq, cfg);
    let rows: Vec<f32> = (0..3 * 32).map(|i| (i % 9) as f32 / 9.0).collect();
    let batch = Tensor::from_vec(&[3, 32], rows.clone());
    let out = net.forward_each(&batch);
    for r in 0..3 {
        let one = Tensor::from_vec(&[1, 32], rows[r * 32..(r + 1) * 32].to_vec());
        let solo = net.forward(&one);
        for (a, b) in out.data()[r * 4..(r + 1) * 4].iter().zip(solo.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "row {r}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random small architectures, seeds, inputs, designs, and weight
    /// widths: the packed kernel is bit-identical to the reference at
    /// noise 0, for both 2CM (CurFe) and N2CM-style (ChgFe) readout.
    #[test]
    fn packed_equals_scalar_reference_proptest(
        features in 5usize..48,
        hidden in 3usize..16,
        classes in 2usize..6,
        seed in any::<u64>(),
        phase in 0usize..97,
        chgfe in any::<bool>(),
        four_bit in any::<bool>(),
    ) {
        let design = if chgfe { ImcDesign::ChgFe } else { ImcDesign::CurFe };
        let cfg = noiseless(design, if four_bit { 4 } else { 8 });
        let seq = mlp(features, hidden, classes, seed);
        let x = ramp_rows(1, features, phase);
        let yp = QNetwork::from_sequential(&seq, cfg).forward(&x);
        let yr = reference_forward(&seq, &cfg, &x);
        for (a, b) in yp.data().iter().zip(yr.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
