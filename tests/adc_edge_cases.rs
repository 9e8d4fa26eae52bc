//! ADC edge cases: the resolution extremes (1-bit and the 12-bit cap),
//! saturation behavior at and beyond the references, and
//! property-based monotonicity across the full resolution range for
//! both `SarAdc::convert` and the hoisted `AdcReader` hot path,
//! including the reader's identity-affine skip on the unit-scale ADCs
//! the MAC kernel reads.

use fefet_imc::imc::adc::{h4b_adc, l4b_adc, AdcMode, SarAdc};
use proptest::prelude::*;

/// 1-bit N2CM: a single threshold in the middle of the unit span.
#[test]
fn one_bit_unsigned_transfer_curve_is_a_single_threshold() {
    // L4B span at 32 rows is [0, 480] units; 1 bit → 240 units/LSB and
    // codes {0, 1} with the decision threshold at 120 units (mid-tread
    // rounding: code = round(units / 240)).
    let adc = l4b_adc(1, 32, 0.0, 1.0);
    assert_eq!(adc.code_range(), (0, 1));
    assert!((adc.units_per_lsb() - 240.0).abs() < 1e-12);
    assert_eq!(adc.convert(0.0), 0);
    assert_eq!(adc.convert(119.9), 0);
    assert_eq!(adc.convert(120.1), 1);
    assert_eq!(adc.convert(480.0), 1);
    // Reconstruction lands on {0, 240} units only.
    assert_eq!(adc.read_units(50.0), 0.0);
    assert_eq!(adc.read_units(300.0), 240.0);
}

/// 1-bit 2CM: the sign bit alone — codes {-1, 0}.
#[test]
fn one_bit_twos_complement_transfer_curve_is_a_sign_detector() {
    let adc = h4b_adc(1, 32, 0.5, 1.0e-3);
    assert_eq!(adc.code_range(), (-1, 0));
    // H4B span at 32 rows is [-256, 224] units; 1 bit → 240 units/LSB,
    // so the single decision threshold sits at -120 units.
    assert!((adc.units_per_lsb() - 240.0).abs() < 1e-12);
    let at_units = |u: f64| 0.5 + u * 1.0e-3;
    assert_eq!(adc.convert(at_units(-256.0)), -1);
    assert_eq!(adc.convert(at_units(-121.0)), -1);
    assert_eq!(adc.convert(at_units(-119.0)), 0);
    assert_eq!(
        adc.convert(at_units(224.0)),
        0,
        "positive overdrive clips to 0"
    );
}

/// 12-bit (the constructor cap): the transfer curve round-trips every
/// code and the LSB shrinks to span/4096.
#[test]
fn max_resolution_transfer_curve_round_trips_every_code() {
    let adc = l4b_adc(12, 32, 0.25, 2.0e-4);
    assert_eq!(adc.code_range(), (0, 4095));
    let lsb = adc.units_per_lsb();
    assert!((lsb - 480.0 / 4096.0).abs() < 1e-12);
    for code in (0..=4095).step_by(7) {
        let v = 0.25 + f64::from(code) * lsb * 2.0e-4;
        assert_eq!(adc.convert(v), code, "code {code} did not round trip");
        assert_eq!(adc.read_units(v), f64::from(code) * lsb);
    }
    // 13 bits stays rejected — the cap is the edge, not a soft limit.
    let r = std::panic::catch_unwind(|| SarAdc::new(13, AdcMode::Unsigned, 0.0, 1.0, (0.0, 1.0)));
    assert!(r.is_err(), "13-bit ADC must be rejected");
}

/// Saturation: inputs at, just past, and far past the references clamp
/// to the end codes in both modes; non-finite inputs cannot escape the
/// code range either.
#[test]
fn saturation_clamps_to_end_codes_in_both_modes() {
    let l4b = l4b_adc(5, 32, 0.0, 1.0);
    let (lo, hi) = l4b.code_range();
    assert_eq!(l4b.convert(480.0), hi, "top reference");
    assert_eq!(l4b.convert(481.0), hi, "just past the top reference");
    assert_eq!(l4b.convert(1.0e12), hi, "far overdrive");
    assert_eq!(l4b.convert(-1.0e12), lo, "far underdrive");
    assert_eq!(l4b.convert(f64::INFINITY), hi);
    assert_eq!(l4b.convert(f64::NEG_INFINITY), lo);
    assert_eq!(l4b.convert(f64::NAN), 0, "NaN maps to code 0, not UB");

    let h4b = h4b_adc(5, 32, 0.5, 1.0e-3);
    let (lo, hi) = h4b.code_range();
    assert_eq!(h4b.convert(10.0), hi);
    assert_eq!(h4b.convert(-10.0), lo);
    // The reader hot path saturates identically.
    let reader = h4b.reader();
    assert_eq!(reader.read_units(10.0), h4b.read_units(10.0));
    assert_eq!(reader.read_units(-10.0), h4b.read_units(-10.0));
}

/// The unit-scale ADCs the MAC kernel reads: the default H4B/L4B pair
/// and the calibrated pair (`(−h, h)` for 2CM, `(0, h)` for N2CM).
fn unit_scale_adc(kind: u8, bits: u32, h: f64) -> SarAdc {
    match kind {
        0 => h4b_adc(bits, 32, 0.0, 1.0),
        1 => l4b_adc(bits, 32, 0.0, 1.0),
        2 => SarAdc::new(bits, AdcMode::TwosComplement, 0.0, 1.0, (-h, h)),
        _ => SarAdc::new(bits, AdcMode::Unsigned, 0.0, 1.0, (0.0, h)),
    }
}

/// The reader skips the identity affine of a unit-scale ADC; on the
/// values where skipping could differ (−0.0, which the affine turns into
/// +0.0) or where the transfer saturates, it still returns exactly what
/// the full conversion returns.
#[test]
fn unit_scale_reader_matches_at_signed_zeros_and_non_finite_inputs() {
    let inputs = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0e12,
        -1.0e12,
    ];
    for kind in 0..4 {
        for bits in [1, 5, 12] {
            let adc = unit_scale_adc(kind, bits, 37.5);
            let reader = adc.reader();
            for v in inputs {
                assert_eq!(
                    reader.read_units(v).to_bits(),
                    adc.read_units(v).to_bits(),
                    "ADC {kind}, {bits} bits, v = {v}"
                );
            }
        }
    }
}

proptest! {
    /// Monotonicity holds at every legal resolution (1..=12 bits), for
    /// both modes, with a comparator offset in play: a higher input
    /// voltage never yields a lower code.
    #[test]
    fn convert_is_monotone_at_every_resolution(
        bits in 1u32..=12,
        signed in any::<bool>(),
        offset in -4.0f64..4.0,
        v1 in -1.0f64..2.0,
        v2 in -1.0f64..2.0,
    ) {
        let adc = if signed {
            h4b_adc(bits, 32, 0.5, 1.0e-3)
        } else {
            l4b_adc(bits, 32, 0.5, 1.0e-3)
        }
        .with_offset(offset);
        let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        prop_assert!(adc.convert(lo) <= adc.convert(hi));
        // Codes always stay inside the mode's range.
        let (cmin, cmax) = adc.code_range();
        for v in [lo, hi] {
            let c = adc.convert(v);
            prop_assert!((cmin..=cmax).contains(&c));
        }
    }

    /// The hoisted `AdcReader` is bit-identical to `SarAdc::read_units`
    /// over the full resolution range, offsets included — the contract
    /// the MAC inner loops rely on.
    #[test]
    fn reader_is_bit_identical_to_source_adc(
        bits in 1u32..=12,
        signed in any::<bool>(),
        offset in -4.0f64..4.0,
        v in -10.0f64..10.0,
    ) {
        let adc = if signed {
            h4b_adc(bits, 32, 0.5, 1.0e-3)
        } else {
            l4b_adc(bits, 32, 0.5, 1.0e-3)
        }
        .with_offset(offset);
        let reader = adc.reader();
        prop_assert_eq!(
            reader.read_units(v).to_bits(),
            adc.read_units(v).to_bits(),
            "reader diverged at {} bits, v = {}",
            bits,
            v
        );
    }

    /// On the unit-scale ADCs the kernel reads, the reader skips the
    /// identity affine and stays bit-identical to `SarAdc::read_units`,
    /// over the full resolution range, inside and beyond the references.
    #[test]
    fn unit_scale_reader_is_bit_identical_to_source_adc(
        kind in 0u8..4,
        bits in 1u32..=12,
        h in 1.0f64..512.0,
        v in -1000.0f64..1000.0,
    ) {
        let adc = unit_scale_adc(kind, bits, h);
        let reader = adc.reader();
        prop_assert_eq!(
            reader.read_units(v).to_bits(),
            adc.read_units(v).to_bits(),
            "unit-scale reader diverged: ADC {}, {} bits, h = {}, v = {}",
            kind,
            bits,
            h,
            v
        );
    }
}
