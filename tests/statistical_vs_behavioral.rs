//! The fast statistical executor (`neural::imc_exec`) and the true
//! behavioural hardware path (`imc_core::grid`) must agree on the same
//! quantized layer — this pins the Fig. 10 machinery to the cycle-level
//! models.

use fefet_imc::device::variation::VariationParams;
use fefet_imc::imc::config::CurFeConfig;
use fefet_imc::imc::grid::{CurFeGrid, MacroGrid};
use fefet_imc::imc::weights::InputPrecision;

#[test]
fn behavioral_grid_matches_ideal_with_no_variation_and_fine_adc() {
    // Variation off + 10-bit ADC: the behavioural grid must be nearly
    // exact, which is the precondition for using it as the reference.
    let mut cfg = CurFeConfig::paper();
    cfg.variation = VariationParams::none();
    let (rows, cols) = (96usize, 4usize);
    let w: Vec<i8> = (0..rows * cols)
        .map(|i| ((i * 23) % 200) as u8 as i8)
        .collect();
    let x: Vec<u32> = (0..rows).map(|i| (i as u32 * 5) % 16).collect();
    let g: CurFeGrid = MacroGrid::program(cfg, 10, &w, rows, cols, 0);
    let hw = g.mac(&x, InputPrecision::new(4));
    let ideal = g.ideal_mac(&x, &w);
    for (c, (h, i)) in hw.iter().zip(&ideal).enumerate() {
        let gross: f64 = (0..rows)
            .map(|r| f64::from(x[r]) * f64::from(w[r * cols + c]).abs())
            .sum::<f64>()
            .max(1.0);
        assert!(
            (h - *i as f64).abs() < 0.02 * gross + 50.0,
            "col {c}: {h} vs {i}"
        );
    }
}

#[test]
fn statistical_noise_magnitude_matches_behavioral_spread() {
    // Program the same column many times with different variation seeds
    // on the behavioural grid; its output spread must be of the same
    // order as the statistical model's predicted sigma (the per-cell
    // relative spreads of NoiseProfile). The packed kernel's own spread
    // on that column is then pinned to the prediction within 10 %.
    use fefet_imc::imc::adc::{h4b_adc, l4b_adc};
    use fefet_imc::nn::imc_exec::{packed, ImcConfig, ImcDesign, NoiseProfile};
    use fefet_imc::nn::quant::QuantizedWeights;
    use fefet_imc::nn::tensor::Tensor;
    let rows = 32usize;
    let w: Vec<i8> = (0..rows).map(|i| ((i * 91) % 256) as u8 as i8).collect();
    let x: Vec<u32> = vec![1; rows];
    // Behavioural spread over 40 re-programs (CurFe, 12-bit ADC so
    // quantization doesn't mask the device noise).
    let mut vals = Vec::new();
    for seed in 0..40u64 {
        let g: CurFeGrid = MacroGrid::program(CurFeConfig::paper(), 12, &w, rows, 1, seed);
        vals.push(g.mac(&x, InputPrecision::new(1))[0]);
    }
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
    let sigma_behavioral = var.sqrt();
    // Statistical prediction: combined weight-unit variance from the
    // noise profile, summed over active rows.
    let profile = NoiseProfile::for_design(ImcDesign::CurFe);
    let mut var_pred = 0.0f64;
    for &wv in &w {
        let sw = fefet_imc::imc::weights::SplitWeight::split(wv);
        let hb = sw.high.bits();
        let lb = sw.low.bits();
        for (j, &b) in lb.iter().enumerate() {
            if b {
                var_pred += (profile.rel_sigma[j] * f64::from(1u32 << j)).powi(2);
            }
        }
        for (j, &b) in hb.iter().enumerate().take(3) {
            if b {
                var_pred += (16.0 * profile.rel_sigma[j] * f64::from(1u32 << j)).powi(2);
            }
        }
        if hb[3] {
            var_pred += (16.0 * profile.rel_sigma_sign * 8.0).powi(2);
        }
    }
    let sigma_stat = var_pred.sqrt();
    // Same order of magnitude: within 3x either way.
    assert!(
        sigma_behavioral < 3.0 * sigma_stat && sigma_stat < 3.0 * sigma_behavioral,
        "behavioural sigma {sigma_behavioral:.2} vs statistical {sigma_stat:.2}"
    );

    // The packed kernel's spread on the same column: one conversion per
    // noise-stream seed. It draws once per conversion with the combined
    // sigma √((1−f)² + f²)·√V (static share plus per-read re-roll,
    // f = read_noise_fraction), so it must land on that factor times
    // sigma_stat.
    let mut cfg = ImcConfig::paper(ImcDesign::CurFe, 1, 8);
    cfg.adc_bits = 12;
    let qw = QuantizedWeights {
        q: w,
        scale: 1.0,
        bits: 8,
        shape: [1, rows],
    };
    let planes = packed::pack_planes(&qw, cfg.rows);
    let noise = packed::PlaneNoise::for_config(&cfg);
    let adcs = (
        h4b_adc(cfg.adc_bits, cfg.rows, 0.0, 1.0),
        l4b_adc(cfg.adc_bits, cfg.rows, 0.0, 1.0),
    );
    let codes = Tensor::from_vec(&[1, rows], vec![1.0; rows]);
    let draws: Vec<f64> = (0..2000u64)
        .map(|seed| {
            let key = packed::StreamKey { seed, layer: 0 };
            let y = packed::imc_matmul_packed(&codes, &planes, &noise, &adcs, &cfg, key);
            f64::from(y.data()[0])
        })
        .collect();
    let mean = draws.iter().sum::<f64>() / draws.len() as f64;
    let var = draws.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / draws.len() as f64;
    let sigma_packed = var.sqrt();
    let f = cfg.read_noise_fraction;
    let sigma_expect = ((1.0 - f).powi(2) + f * f).sqrt() * sigma_stat;
    assert!(
        (sigma_packed - sigma_expect).abs() < 0.1 * sigma_expect,
        "packed sigma {sigma_packed:.2} vs expected {sigma_expect:.2}"
    );
}
