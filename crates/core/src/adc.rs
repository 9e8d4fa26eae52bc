//! SAR ADC model with 2's-complement (2CM) and non-2's-complement (N2CM)
//! modes, after Yue et al. (ISSCC'20).
//!
//! The converter quantizes the analog partial-MAC voltage of a block onto
//! a signed (2CM, for H4B) or unsigned (N2CM, for L4B) digital code. The
//! reference voltages come from a reference bank (modelled as an ideal
//! ladder here; its energy is accounted in [`crate::energy`]).
//!
//! The natural unit of the digital side is the *unit count*: the bank
//! voltage is `v_zero + units · volts_per_unit`, where one unit is one
//! active LSB cell. The ADC's LSB therefore corresponds to
//! `span_units / 2^bits` units.

use serde::{Deserialize, Serialize};

/// Conversion mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdcMode {
    /// 2's-complement mode: signed output code, used for H4B nibbles.
    TwosComplement,
    /// Non-2's-complement (unsigned) mode, used for L4B nibbles.
    Unsigned,
}

/// A successive-approximation ADC for one block output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SarAdc {
    bits: u32,
    mode: AdcMode,
    /// Bank output voltage corresponding to zero units.
    v_zero: f64,
    /// Volts per unit count at the bank output.
    volts_per_unit: f64,
    /// Expected unit range `(min, max)` of the block output.
    unit_range: (f64, f64),
    /// Comparator input-referred offset, in unit counts (0 = ideal).
    offset_units: f64,
}

impl SarAdc {
    /// Creates an ADC for a block whose output is
    /// `v_zero + units · volts_per_unit`, with `units ∈ unit_range`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=12`, `volts_per_unit == 0`, or the
    /// range is empty.
    #[must_use]
    pub fn new(
        bits: u32,
        mode: AdcMode,
        v_zero: f64,
        volts_per_unit: f64,
        unit_range: (f64, f64),
    ) -> Self {
        assert!(
            (1..=12).contains(&bits),
            "ADC resolution must be 1..=12 bits"
        );
        assert!(volts_per_unit != 0.0 && volts_per_unit.is_finite());
        assert!(unit_range.1 > unit_range.0, "unit range must be non-empty");
        Self {
            bits,
            mode,
            v_zero,
            volts_per_unit,
            unit_range,
            offset_units: 0.0,
        }
    }

    /// Returns a copy with a comparator input-referred offset (unit
    /// counts), the dominant SAR non-ideality besides quantization. The
    /// offset shifts every decision threshold together.
    #[must_use]
    pub fn with_offset(mut self, offset_units: f64) -> Self {
        self.offset_units = offset_units;
        self
    }

    /// The configured comparator offset (unit counts).
    #[must_use]
    pub fn offset_units(&self) -> f64 {
        self.offset_units
    }

    /// Resolution in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Conversion mode.
    #[must_use]
    pub fn mode(&self) -> AdcMode {
        self.mode
    }

    /// Units represented by one ADC LSB.
    #[inline]
    #[must_use]
    pub fn units_per_lsb(&self) -> f64 {
        (self.unit_range.1 - self.unit_range.0) / f64::from(1u32 << self.bits)
    }

    /// The digital code range `(min, max)` of the mode.
    #[inline]
    #[must_use]
    pub fn code_range(&self) -> (i32, i32) {
        match self.mode {
            AdcMode::TwosComplement => {
                let half = 1i32 << (self.bits - 1);
                (-half, half - 1)
            }
            AdcMode::Unsigned => (0, (1i32 << self.bits) - 1),
        }
    }

    /// Converts a block output voltage to a digital code (SAR binary
    /// search is equivalent to uniform mid-tread quantization with
    /// clamping at the references).
    #[inline]
    #[must_use]
    pub fn convert(&self, v: f64) -> i32 {
        self.convert_with_lsb(v, self.units_per_lsb())
    }

    #[inline]
    fn convert_with_lsb(&self, v: f64, lsb: f64) -> i32 {
        let units = (v - self.v_zero) / self.volts_per_unit + self.offset_units;
        let code = (units / lsb).round();
        let (lo, hi) = self.code_range();
        if code.is_nan() {
            return 0;
        }
        (code as i64).clamp(i64::from(lo), i64::from(hi)) as i32
    }

    /// Reconstructs the unit count represented by a code.
    #[inline]
    #[must_use]
    pub fn dequantize(&self, code: i32) -> f64 {
        f64::from(code) * self.units_per_lsb()
    }

    /// Convenience: convert then dequantize. The LSB is computed once
    /// and shared by both halves — this is the MAC hot path (two calls
    /// per chunk conversion), and the shared value is bit-identical to
    /// what `convert` and `dequantize` each derive on their own.
    #[inline]
    #[must_use]
    pub fn read_units(&self, v: f64) -> f64 {
        let lsb = self.units_per_lsb();
        f64::from(self.convert_with_lsb(v, lsb)) * lsb
    }

    /// Precomputes the read-path constants for MAC inner loops.
    #[inline]
    #[must_use]
    pub fn reader(&self) -> AdcReader {
        let (lo, hi) = self.code_range();
        AdcReader {
            v_zero: self.v_zero,
            volts_per_unit: self.volts_per_unit,
            offset_units: self.offset_units,
            unit_scale: self.v_zero == 0.0
                && self.volts_per_unit == 1.0
                && self.offset_units == 0.0,
            lsb: self.units_per_lsb(),
            lo: i64::from(lo),
            hi: i64::from(hi),
        }
    }
}

/// Hoisted read-path constants of a [`SarAdc`] (LSB, code range, and
/// transfer parameters), so a MAC inner loop making millions of
/// conversions per second pays none of the per-call derivations.
/// [`AdcReader::read_units`] returns exactly what
/// [`SarAdc::read_units`] returns — results are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct AdcReader {
    v_zero: f64,
    volts_per_unit: f64,
    offset_units: f64,
    /// `v_zero` 0, 1 V/unit and no offset: the voltage → units affine is
    /// the identity and is skipped.
    unit_scale: bool,
    lsb: f64,
    lo: i64,
    hi: i64,
}

impl AdcReader {
    /// Converts a block output voltage to reconstructed unit counts,
    /// bit-identical to [`SarAdc::read_units`] on the source ADC.
    ///
    /// On a unit-scale ADC (every ADC the packed MAC kernel reads) the
    /// identity affine `(v − 0)/1 + 0` is skipped. That changes nothing:
    /// it maps every `v` to itself except −0.0, which it turns into
    /// +0.0, and both round to code 0.
    ///
    /// `inline(always)` so feature-specialized MAC loops absorb the
    /// `f64::round` and lower it to `roundsd` instead of a libm call.
    #[inline(always)]
    #[must_use]
    pub fn read_units(&self, v: f64) -> f64 {
        let units = if self.unit_scale {
            v
        } else {
            (v - self.v_zero) / self.volts_per_unit + self.offset_units
        };
        let code = (units / self.lsb).round();
        let code = if code.is_nan() {
            0
        } else {
            (code as i64).clamp(self.lo, self.hi)
        };
        exact_f64(code) * self.lsb
    }
}

/// `v as f64` for `|v| < 2^51`, bit for bit, without an int → float
/// convert instruction, for MAC inner loops.
///
/// SSE's `cvtsi2sd` writes only the low lane of its register and so
/// waits for the register's previous value. When the register allocator
/// gives a MAC loop's convert a register that last held the previous
/// conversion's ADC result, that false dependency chains conversions
/// that are independent, and it comes and goes from build to build: in
/// one build the packed kernel's f32 pass took 263 µs for the serving
/// model's 784→64 layer where its i64 pass took 170 µs (2-vCPU Xeon).
/// Adding `v` to the bits of `1.5·2^52` puts it in the mantissa, and
/// subtracting `1.5·2^52` again is exact (0 gives +0.0).
#[inline(always)]
#[must_use]
pub fn exact_f64(v: i64) -> f64 {
    const SHIFT: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
    debug_assert!(
        v.unsigned_abs() < 1 << 51,
        "{v} is out of exact_f64's range"
    );
    f64::from_bits(SHIFT.to_bits().wrapping_add(v as u64)) - SHIFT
}

/// Builds the 2CM ADC for an H4B block: units span `[-8·rows, 7·rows]`.
#[must_use]
pub fn h4b_adc(bits: u32, rows: usize, v_zero: f64, volts_per_unit: f64) -> SarAdc {
    let r = rows as f64;
    SarAdc::new(
        bits,
        AdcMode::TwosComplement,
        v_zero,
        volts_per_unit,
        (-8.0 * r, 7.0 * r),
    )
}

/// Builds the N2CM ADC for an L4B block: units span `[0, 15·rows]`.
#[must_use]
pub fn l4b_adc(bits: u32, rows: usize, v_zero: f64, volts_per_unit: f64) -> SarAdc {
    let r = rows as f64;
    SarAdc::new(
        bits,
        AdcMode::Unsigned,
        v_zero,
        volts_per_unit,
        (0.0, 15.0 * r),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_quantization_round_trips_at_codes() {
        let adc = l4b_adc(5, 32, 0.5, 1.0e-3);
        let lsb = adc.units_per_lsb();
        assert!((lsb - 15.0).abs() < 1e-12);
        for code in 0..32 {
            let v = 0.5 + f64::from(code) * lsb * 1.0e-3;
            assert_eq!(adc.convert(v), code);
        }
    }

    #[test]
    fn unsigned_clamps_at_references() {
        let adc = l4b_adc(5, 32, 0.5, 1.0e-3);
        assert_eq!(adc.convert(10.0), 31);
        assert_eq!(adc.convert(-10.0), 0);
    }

    #[test]
    fn twos_complement_code_range() {
        let adc = h4b_adc(5, 32, 0.5, 1.0e-3);
        assert_eq!(adc.code_range(), (-16, 15));
        // 480-unit span at 5 bits: 15 units/LSB.
        assert!((adc.units_per_lsb() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn twos_complement_sign_symmetry() {
        let adc = h4b_adc(5, 32, 0.5, 1.0e-3);
        let v_pos = 0.5 + 60.0 * 1.0e-3;
        let v_neg = 0.5 - 60.0 * 1.0e-3;
        assert_eq!(adc.convert(v_pos), -adc.convert(v_neg));
    }

    #[test]
    fn quantization_error_is_bounded_by_half_lsb() {
        // Within the representable code range; the topmost half LSB of
        // the span clips to the last code (the SAR references end there).
        let adc = l4b_adc(5, 32, 0.0, 1.0);
        let max_rep = adc.dequantize(adc.code_range().1) + adc.units_per_lsb() / 2.0;
        for k in 0..=480 {
            let units = f64::from(k);
            if units > max_rep {
                continue;
            }
            let rec = adc.read_units(units);
            assert!(
                (rec - units).abs() <= adc.units_per_lsb() / 2.0 + 1e-9,
                "units {units}: rec {rec}"
            );
        }
        // Beyond the top reference the converter clips to the last code.
        assert_eq!(adc.convert(1.0e3), adc.code_range().1);
    }

    #[test]
    fn higher_resolution_shrinks_error() {
        let errs: Vec<f64> = [3u32, 5, 7]
            .iter()
            .map(|&b| {
                let adc = l4b_adc(b, 32, 0.0, 1.0);
                (0..=480)
                    .map(|k| (adc.read_units(f64::from(k)) - f64::from(k)).abs())
                    .fold(0.0f64, f64::max)
            })
            .collect();
        assert!(errs[0] > errs[1] && errs[1] > errs[2], "errors {errs:?}");
    }

    #[test]
    fn negative_volts_per_unit_supported() {
        // ChgFe L4B: more units = lower voltage (discharge), so
        // volts_per_unit is negative. Codes must still grow with units.
        let adc = l4b_adc(5, 32, 1.5, -1.0e-3);
        let v_low = 1.5 - 300.0 * 1.0e-3 * 1.0; // 300 units discharged
        assert!(adc.convert(v_low) > adc.convert(1.5));
    }

    #[test]
    fn offset_shifts_every_threshold_together() {
        let adc = l4b_adc(5, 32, 0.0, 1.0);
        let lsb = adc.units_per_lsb();
        let shifted = adc.with_offset(lsb); // exactly one LSB of offset
        for k in [0.0f64, 30.0, 120.0, 300.0] {
            assert_eq!(shifted.convert(k), adc.convert(k + lsb));
        }
        assert_eq!(shifted.offset_units(), lsb);
    }

    #[test]
    fn small_offset_preserves_monotonicity() {
        let adc = h4b_adc(5, 32, 0.5, 1.0e-3).with_offset(3.0);
        let mut last = i32::MIN;
        for k in -250..=220 {
            let c = adc.convert(0.5 + f64::from(k) * 1.0e-3);
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn exact_f64_matches_the_cast() {
        let edge = (1i64 << 51) - 1;
        for v in [
            0,
            1,
            -1,
            7,
            -8,
            480,
            -4096,
            1 << 40,
            -(1 << 40),
            edge,
            -edge,
        ] {
            #[allow(clippy::cast_precision_loss)]
            let cast = v as f64;
            assert_eq!(exact_f64(v).to_bits(), cast.to_bits(), "v = {v}");
        }
    }

    #[test]
    #[should_panic(expected = "1..=12")]
    fn silly_resolution_rejected() {
        let _ = SarAdc::new(0, AdcMode::Unsigned, 0.0, 1.0, (0.0, 1.0));
    }
}
