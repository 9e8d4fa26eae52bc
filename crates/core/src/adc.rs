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
    /// Its lane twin, [`AdcLanes::read_units`], reads four conversions
    /// at once and must stay bit-identical to this read, lane for lane:
    /// `lane_read_matches_the_scalar_read_bit_for_bit` in this module
    /// pins them together, signed zeros, half-LSB ties, clamps and
    /// non-finite inputs included.
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

    /// The four-lane twin of this reader, or `None` unless it is
    /// unit-scale: only the identity affine has a lane read.
    #[cfg(target_arch = "x86_64")]
    #[must_use]
    pub fn lanes(&self) -> Option<AdcLanes> {
        self.unit_scale.then_some(AdcLanes {
            lsb: self.lsb,
            lo: exact_f64(self.lo),
            hi: exact_f64(self.hi),
        })
    }
}

/// The read of a unit-scale [`AdcReader`], four conversions at a time
/// (x86-64 AVX): lane `k` of [`AdcLanes::read_units`] has the bits
/// `AdcReader::read_units` returns for input `k`.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct AdcLanes {
    lsb: f64,
    lo: f64,
    hi: f64,
}

#[cfg(target_arch = "x86_64")]
impl AdcLanes {
    /// `/ lsb`, round half away from zero, NaN → 0, clamp to the code
    /// range, `· lsb`, in four lanes, each step with the scalar read's
    /// exact bits:
    ///
    /// - `f64::round` is `trunc(q + copysign(pred(0.5), q))` (what
    ///   LLVM lowers it to with SSE4.1): the sum reaches the next
    ///   integer exactly when `|q|`'s fraction is at least ½. Rounding
    ///   to nearest instead would send halves to even.
    /// - `max_pd`/`min_pd` return their second operand when either is
    ///   NaN, so NaN is masked to 0 *before* the clamp.
    /// - The clamp runs in f64: the code is an integer or ±∞ there, and
    ///   the scalar read's saturating `as i64` clamps to the same code.
    /// - `+ 0.0` turns a −0 code into +0, as the scalar read's integer
    ///   code does.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX. `inline(always)`: inlined into a
    /// function compiled with AVX, every intrinsic is one instruction;
    /// elsewhere each would be a call.
    #[inline(always)]
    #[must_use]
    pub unsafe fn read_units(&self, v: std::arch::x86_64::__m256d) -> std::arch::x86_64::__m256d {
        use std::arch::x86_64::{
            _mm256_add_pd, _mm256_and_pd, _mm256_cmp_pd, _mm256_div_pd, _mm256_max_pd,
            _mm256_min_pd, _mm256_mul_pd, _mm256_or_pd, _mm256_round_pd, _mm256_set1_pd,
            _mm256_setzero_pd, _CMP_ORD_Q, _MM_FROUND_NO_EXC, _MM_FROUND_TO_ZERO,
        };
        // SAFETY: the caller guarantees AVX.
        unsafe {
            let lsb = _mm256_set1_pd(self.lsb);
            let q = _mm256_div_pd(v, lsb);
            let sign = _mm256_and_pd(q, _mm256_set1_pd(-0.0));
            let half = _mm256_or_pd(_mm256_set1_pd(0.5f64.next_down()), sign);
            let code = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(
                _mm256_add_pd(q, half),
            );
            let code = _mm256_and_pd(code, _mm256_cmp_pd::<_CMP_ORD_Q>(code, code));
            let code = _mm256_max_pd(code, _mm256_set1_pd(self.lo));
            let code = _mm256_min_pd(code, _mm256_set1_pd(self.hi));
            _mm256_mul_pd(_mm256_add_pd(code, _mm256_setzero_pd()), lsb)
        }
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

    /// Four lanes of `AdcLanes::read_units`, through an AVX compile.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    fn read_lanes(lanes: &AdcLanes, v: [f64; 4]) -> [f64; 4] {
        use std::arch::x86_64::{_mm256_loadu_pd, _mm256_storeu_pd};
        let mut out = [0.0; 4];
        // SAFETY: both pointers address four f64s, and this function
        // is compiled with AVX, which the lane read needs.
        unsafe {
            _mm256_storeu_pd(
                out.as_mut_ptr(),
                lanes.read_units(_mm256_loadu_pd(v.as_ptr())),
            )
        };
        out
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_read_matches_the_scalar_read_bit_for_bit() {
        // Only the identity affine has lanes; any other reader takes the
        // scalar read.
        assert!(h4b_adc(5, 32, 0.5, 1.0).reader().lanes().is_none());
        assert!(l4b_adc(5, 32, 0.0, -1.0).reader().lanes().is_none());
        let offset = l4b_adc(5, 32, 0.0, 1.0).with_offset(0.25);
        assert!(offset.reader().lanes().is_none());
        if !std::arch::is_x86_feature_detected!("avx") {
            eprintln!("no AVX on this CPU: the lane read is never taken");
            return;
        }
        for bits in [3, 5, 12] {
            for adc in [h4b_adc(bits, 32, 0.0, 1.0), l4b_adc(bits, 32, 0.0, 1.0)] {
                let reader = adc.reader();
                let lanes = reader.lanes().expect("a unit-scale reader has lanes");
                let lsb = adc.units_per_lsb();
                let codes = 1i32 << bits;
                let mut inputs = vec![
                    0.0,
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                    1e12,
                    -1e12,
                    2f64.powi(60),
                    -(2f64.powi(60)),
                    0.3 * lsb,
                    -0.3 * lsb,
                ];
                // Every half-LSB tie ±(k + ½)·lsb inside and past both
                // clamps, one ulp either side, and the code points.
                for k in -codes - 2..=codes + 2 {
                    let tie = (f64::from(k) + 0.5) * lsb;
                    inputs.extend([tie, tie.next_up(), tie.next_down()]);
                    inputs.push(f64::from(k) * lsb);
                }
                while inputs.len() % 4 != 0 {
                    inputs.push(-0.0);
                }
                for v in inputs.chunks_exact(4) {
                    let v = [v[0], v[1], v[2], v[3]];
                    // SAFETY: AVX is checked above.
                    let got = unsafe { read_lanes(&lanes, v) };
                    for (x, y) in v.iter().zip(got) {
                        assert_eq!(
                            y.to_bits(),
                            reader.read_units(*x).to_bits(),
                            "{:?} {bits}-bit read of {x:e}: lanes gave {y:e}",
                            adc.mode()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=12")]
    fn silly_resolution_rejected() {
        let _ = SarAdc::new(0, AdcMode::Unsigned, 0.0, 1.0, (0.0, 1.0));
    }
}
