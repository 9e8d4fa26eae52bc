//! SWAR bit-serial shift-add MAC kernel over packed weight bit-planes.
//!
//! The paper's pMACV is *inherently* shifted-and-added: a 4-bit nibble
//! occupies four adjacent columns whose analog partial sums are combined
//! with fixed binary weights, and the H4B/L4B column groups are fused
//! digitally as `16·H + L`. This module mirrors that dataflow in
//! software: each weight bit becomes one **bit-plane packed into `u64`
//! lanes** — bit `r` of a plane word is chunk-row `r` — and a MAC
//! against an input bit-vector is eight `AND`+`popcount` operations:
//!
//! ```text
//! plane j   meaning                 contribution to the chunk pMACV
//! ───────   ─────────────────────   ─────────────────────────────────
//!   0..=2   H4B magnitude bit j     +2^j · popcount(x & plane_j)
//!   3       H4B sign column         −8   · popcount(x & plane_3)
//!   4..=7   L4B magnitude bit j−4   +2^(j−4) · popcount(x & plane_j)
//! ```
//!
//! `H = n0 + 2n1 + 4n2 − 8n3` and `L = n4 + 2n5 + 4n6 + 8n7` are exact
//! integers, the [`SarAdc`]s quantize them per chunk, and the digital
//! combine `16·H + L` plus the input-bit shift-add `Σ_t 2^t` accumulate
//! in f32 in a fixed input bit → chunk → output order. At
//! `noise_scale = 0` the kernel is pinned bit for bit to an independent
//! per-row reference in `tests/kernel_equivalence.rs`; with noise on,
//! the same file pins its outputs by golden digest.
//!
//! The AND+popcount loop is written once, as an `#[inline(always)]` pass
//! body generic over the *read* of each conversion's popcounts (the
//! noisy ADC pair, or the ideal calibration read that converts nothing
//! and records the largest |H| and L) and over the *accumulator* its
//! `2^t` shift-add lands in (f32, or exact i64 for shard partial sums).
//! [`imc_matmul_packed`], [`imc_matmul_packed_partial`] and
//! [`ideal_matmul_packed`] are its three pairings, all run by one driver
//! that builds the input bit-masks, opens the noise streams and picks
//! the compile. For each position the body first counts a block of up
//! to 64 columns into a plane-major stack array (planes 0–3 only at W4,
//! whose planes 4–7 are zero), then reads the counts.
//! It is compiled three times: portably, with `popcnt,sse4.1`, and with
//! `avx2,popcnt,sse4.1`; on x86-64 the fastest one the CPU runs is
//! picked at run time, so calibration takes a fast compile too. Only
//! the AVX2 compile reads four columns at once: the noisy read over
//! unit-scale ADCs has a lane read ([`imc_core::adc::AdcLanes`]),
//! bit-identical to four scalar reads. Leftover columns (`oc mod 4`),
//! other ADCs and the ideal read stay scalar. The position loop keeps
//! an explicit bound; the comment there says why.
//!
//! Statistical device noise rides on top of the integer pMACV: the
//! per-active-cell variances are recovered *exactly* from the popcounts
//! (`V = Σ_j n_j·c_j` in f64), and one Gaussian per conversion is drawn
//! with the **combined** effective sigma
//! `noise_scale · √((1−f)² + f²) · √V` (`f` = `read_noise_fraction`):
//! the static program-time share and the per-read re-roll folded into a
//! single draw with their summed variance; see `DESIGN.md` §13 for the
//! rationale. Draws come from a ziggurat sampler ([`ZigGauss`]) over a
//! SplitMix64 stream, and a single row's are drawn once per model: a
//! read takes one normal per H and one per L conversion whatever its
//! popcounts, so the first `oc · draws` normals of each stream are a
//! constant of the layer. A layer's first single-row pass builds that
//! noise table (~100 KiB for the MNIST MLP) and the process shares it by
//! stream identity, as it shares planes (below); passes over more rows
//! draw into a per-call buffer instead.
//!
//! Noise streams are **chunk-addressed**: every `(MAC layer, input bit,
//! chunk)` triple gets its own deterministic [`ZigGauss`] stream via
//! [`stream_seed`], and draws inside one stream stay in the fixed
//! `position → column → (H, L)` order. Because a stream never crosses a
//! chunk boundary, a replica that executes only a *slice* of a layer's
//! chunks (fleet sharding, DESIGN §14) draws bit-for-bit the same
//! Gaussians the single-node kernel draws for those chunks — which is
//! what lets [`imc_matmul_packed_partial`]'s integer partial sums
//! recombine into bit-identical logits at the fleet router.
//!
//! Packing is **weight-stationary**: [`pack_planes_cached`] keys a
//! process-wide cache on the exact stored codes (rows, bit width,
//! shape, code bytes), so a re-built network — a fresh [`ChipImage`]
//! load, a restarted bank, the loadgen oracle — reuses the planes
//! instead of re-packing, and a *changed* image (new effective codes)
//! can never alias a stale entry.
//!
//! [`SarAdc`]: imc_core::adc::SarAdc
//! [`ChipImage`]: ../../../imc_compile/image/struct.ChipImage.html

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

use crate::quant::QuantizedWeights;
use crate::tensor::Tensor;
use imc_core::adc::{exact_f64, AdcReader, SarAdc};
use imc_core::weights::{SignedNibble, SplitWeight};

use super::{ImcConfig, NoiseProfile};

/// Bit-planes per packed cell: H4B bits 0–2, sign, L4B bits 0–3.
pub const PLANES: usize = 8;

/// One 32-row (`cfg.rows`) accumulation chunk, bit-plane packed.
///
/// Layout: `words[(o·PLANES + j)·words_per_plane + s]` holds rows
/// `64s..64s+63` of output column `o`, plane `j` — bit `b` set means
/// chunk-row `64s + b` stores a 1 in that weight bit. At W4 the L4B
/// planes 4–7 are zero words.
#[derive(Debug, Clone)]
pub struct PackedChunk {
    /// Rows in this chunk (`≤ cfg.rows`; the last chunk may be short).
    pub rows: usize,
    /// `u64` words per plane (`ceil(rows / 64)`; 1 for the paper's 32).
    pub words_per_plane: usize,
    /// `out_features · PLANES · words_per_plane` packed words.
    pub words: Vec<u64>,
}

/// A MAC layer's weights packed as per-chunk bit-planes.
#[derive(Debug, Clone)]
pub struct PackedPlanes {
    /// Chunks in row order (fan-in split every `cfg.rows` rows).
    pub chunks: Vec<PackedChunk>,
    /// Output columns.
    pub out_features: usize,
    /// Stored weight precision (4 or 8).
    pub weight_bits: u32,
}

impl PackedPlanes {
    /// Total packed `u64` words across all chunks.
    #[must_use]
    pub fn words(&self) -> usize {
        self.chunks.iter().map(|c| c.words.len()).sum()
    }
}

/// High/low nibble bit rows of one stored weight (LSB-first, index 3 of
/// the high nibble is the sign column).
fn nibble_bits(w: i8, weight_bits: u32) -> ([bool; 4], [bool; 4]) {
    if weight_bits == 8 {
        let sw = SplitWeight::split(w);
        (sw.high.bits(), sw.low.bits())
    } else {
        (SignedNibble::new(w).bits(), [false; 4])
    }
}

/// Packs quantized weights into per-chunk `u64` bit-planes.
///
/// # Panics
///
/// Panics if `rows == 0`.
#[must_use]
pub fn pack_planes(qw: &QuantizedWeights, rows: usize) -> PackedPlanes {
    assert!(rows > 0, "chunk rows must be positive");
    let [oc, fan] = qw.shape;
    let n_chunks = fan.div_ceil(rows);
    let mut chunks = Vec::with_capacity(n_chunks);
    for c in 0..n_chunks {
        let r0 = c * rows;
        let rc = (r0 + rows).min(fan) - r0;
        let wpp = rc.div_ceil(64);
        let mut words = vec![0u64; oc * PLANES * wpp];
        for o in 0..oc {
            for r in 0..rc {
                let (hb, lb) = nibble_bits(qw.q[o * fan + r0 + r], qw.bits);
                let s = r >> 6;
                let bit = 1u64 << (r & 63);
                for j in 0..4 {
                    if hb[j] {
                        words[(o * PLANES + j) * wpp + s] |= bit;
                    }
                    if lb[j] {
                        words[(o * PLANES + 4 + j) * wpp + s] |= bit;
                    }
                }
            }
        }
        chunks.push(PackedChunk {
            rows: rc,
            words_per_plane: wpp,
            words,
        });
    }
    PackedPlanes {
        chunks,
        out_features: oc,
        weight_bits: qw.bits,
    }
}

/// Content-addressed key of the weight-stationary plane cache: two
/// entries collide only if every stored code (and the chunking) is
/// identical, in which case the packed planes *are* interchangeable.
/// A `ChipImage` swap produces different effective codes, so it misses
/// by construction — no explicit invalidation hook is needed.
#[derive(PartialEq, Eq, Hash)]
struct CacheKey {
    rows: usize,
    bits: u32,
    shape: [usize; 2],
    codes: Vec<i8>,
}

/// Entries a process-wide cache keeps before it is wholesale cleared
/// (the MNIST MLP's plane set and its noise table are ~100 KiB each; 32
/// covers every model in the workspace many times over).
const CACHE_CAP: usize = 32;

type Cache<K, V> = OnceLock<Mutex<HashMap<K, Arc<V>>>>;

/// `key`'s entry of a process-wide cache, and whether it was a hit. A
/// miss builds the entry outside the lock: building is the slow part,
/// and a racing duplicate insert is harmless (same content, last one
/// wins).
fn cached<K: Eq + Hash, V: ?Sized>(
    cache: &'static Cache<K, V>,
    key: K,
    build: impl FnOnce() -> Arc<V>,
) -> (Arc<V>, bool) {
    let map = cache.get_or_init(|| Mutex::new(HashMap::new()));
    let lock = || {
        map.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    };
    if let Some(hit) = lock().get(&key) {
        return (Arc::clone(hit), true);
    }
    let built = build();
    let mut map = lock();
    if map.len() >= CACHE_CAP {
        map.clear();
    }
    map.insert(key, Arc::clone(&built));
    (built, false)
}

/// [`pack_planes`] through the process-wide weight-stationary cache.
///
/// Hits and misses are exported as the obs counters
/// `imc_neural_plane_cache_hits_total` /
/// `imc_neural_plane_cache_misses_total`.
#[must_use]
pub fn pack_planes_cached(qw: &QuantizedWeights, rows: usize) -> Arc<PackedPlanes> {
    static PLANES: Cache<CacheKey, PackedPlanes> = OnceLock::new();
    let key = CacheKey {
        rows,
        bits: qw.bits,
        shape: qw.shape,
        codes: qw.q.clone(),
    };
    let (planes, hit) = cached(&PLANES, key, || Arc::new(pack_planes(qw, rows)));
    if hit {
        imc_obs::counter!(
            "imc_neural_plane_cache_hits_total",
            "Weight-stationary packed-plane cache hits"
        )
        .inc();
    } else {
        imc_obs::counter!(
            "imc_neural_plane_cache_misses_total",
            "Weight-stationary packed-plane cache misses (pack performed)"
        )
        .inc();
    }
    planes
}

/// Current (hits, misses) of the plane cache — for tests and the
/// compiler's `inspect` summary.
#[must_use]
pub fn plane_cache_stats() -> (u64, u64) {
    let snap = imc_obs::registry().snapshot();
    (
        snap.counter("imc_neural_plane_cache_hits_total")
            .unwrap_or(0),
        snap.counter("imc_neural_plane_cache_misses_total")
            .unwrap_or(0),
    )
}

/// Per-conversion noise constants derived from an [`ImcConfig`]: the
/// variance contributed by one *active* cell of each plane, plus the
/// combined effective scale on `√V` (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneNoise {
    /// Variance per active H4B cell, planes 0–3 (3 = sign column).
    pub ch: [f64; 4],
    /// Variance per active L4B cell, planes 4–7.
    pub cl: [f64; 4],
    /// `noise_scale · √((1−f)² + f²)`, `f = read_noise_fraction`.
    pub eff_scale: f64,
}

impl PlaneNoise {
    /// Derives the constants for a configuration.
    #[must_use]
    pub fn for_config(cfg: &ImcConfig) -> Self {
        let p = NoiseProfile::for_design(cfg.design);
        let mut ch = [0.0f64; 4];
        let mut cl = [0.0f64; 4];
        for j in 0..4 {
            let c = (p.rel_sigma[j] * f64::from(1u32 << j)).powi(2);
            if j < 3 {
                ch[j] = c;
            }
            cl[j] = c;
        }
        ch[3] = (p.rel_sigma_sign * 8.0).powi(2);
        let s = (1.0 - cfg.read_noise_fraction).max(0.0);
        let f = cfg.read_noise_fraction;
        Self {
            ch,
            cl,
            eff_scale: cfg.noise_scale * (s * s + f * f).sqrt(),
        }
    }
}

/// Derives the per-`(layer, input bit, chunk)` noise-stream seed.
///
/// The triple is xor-packed into disjoint bit fields of the base seed
/// and diffused through two SplitMix64 finalizer rounds, so adjacent
/// chunks get statistically unrelated streams while staying fully
/// deterministic in `(seed, layer, t, chunk)` — the property fleet
/// sharding relies on (a shard reproduces exactly the streams of the
/// chunks it owns, no matter which replica runs them).
#[must_use]
pub fn stream_seed(seed: u64, layer: u32, t: u32, chunk: usize) -> u64 {
    let mut z = seed ^ (u64::from(layer) << 48) ^ (u64::from(t) << 40) ^ chunk as u64;
    for _ in 0..2 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// Identifies one MAC layer's family of noise streams: the kernels
/// spawn a fresh [`ZigGauss`] per `(input bit, chunk)` from this key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamKey {
    /// Base seed (`ImcConfig::seed` of the serving configuration).
    pub seed: u64,
    /// Index of this MAC (Conv/Linear) layer within the network, in
    /// execution order.
    pub layer: u32,
}

impl StreamKey {
    /// The noise stream for input bit `t` of global chunk `chunk`.
    #[must_use]
    pub fn stream(&self, t: u32, chunk: usize) -> ZigGauss {
        ZigGauss::new(stream_seed(self.seed, self.layer, t, chunk))
    }
}

/// Identity of a MAC layer's noise table: the streams it prefixes and
/// the normals one pass of a single row reads from each.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct TableKey {
    key: StreamKey,
    input_bits: u32,
    chunks: usize,
    oc: usize,
    draws: usize,
}

/// The first `oc · draws` normals of each of a layer's `(input bit,
/// chunk)` streams, at `(t · chunks + c) · oc · draws`: everything a
/// single-row pass draws. A noisy read takes `draws` normals whatever
/// its popcounts, so these are a constant of the model. Built on the
/// first single-row pass and shared across the process by identity.
fn noise_table(id: TableKey) -> Arc<[f64]> {
    static TABLES: Cache<TableKey, [f64]> = OnceLock::new();
    let per_pass = id.oc * id.draws;
    let build = || {
        (0..id.input_bits)
            .flat_map(|t| (0..id.chunks).map(move |c| id.key.stream(t, c)))
            .flat_map(|mut g| (0..per_pass).map(move |_| g.normal()))
            .collect()
    };
    cached(&TABLES, id, build).0
}

/// Columns a pass counts before it reads them.
const BLOCK: usize = 64;

/// The plane popcounts of a block of up to [`BLOCK`] columns,
/// plane-major: `[j][k]` is plane `j` of the block's column `k`, so one
/// load takes a plane's counts of four adjacent columns.
type Counts = [[u32; BLOCK]; PLANES];

/// How one conversion's plane popcounts `n` are read out: the noisy
/// ADC pair of inference ([`AdcRead`]) or the ideal calibration read
/// ([`IdealRead`]). Returns the combined pMACV `16·H + L` (`H` in 4-bit
/// mode).
trait Readout {
    /// The streams a read's normals come from and how many one
    /// conversion takes; `None` for a read that draws nothing.
    fn draws(&self) -> Option<(StreamKey, usize)>;
    /// Reads one conversion, taking its normals from `g`.
    fn read(&mut self, n: &[u32; PLANES], g: &[f64]) -> f64;
    /// Whether [`Readout::read4`] reads this read's conversions.
    fn has_lanes(&self) -> bool {
        false
    }
    /// Reads block columns `k..k + 4` of `counts` at once, taking their
    /// normals from `g` in column order, and returns the bits four
    /// [`Readout::read`]s return.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and [`Readout::has_lanes`] must hold.
    unsafe fn read4(&mut self, _counts: &Counts, _k: usize, _g: &[f64]) -> [f64; 4] {
        unreachable!("a read without lanes reads one column at a time")
    }
}

/// Where a read pMACV lands: shift-added by its input bit `t` into an
/// f32 output (single-node kernel) or an exact i64 partial sum (shard
/// kernel).
trait ShiftAdd: Copy + Default {
    fn shift_add(&mut self, combined: f64, t: u32);
}

impl ShiftAdd for f32 {
    #[inline(always)]
    fn shift_add(&mut self, combined: f64, t: u32) {
        *self += (combined * f64::from(1u32 << t)) as f32;
    }
}

impl ShiftAdd for i64 {
    /// `combined` is integral whenever the ADC step sizes are
    /// ([`shift_add_is_exact`]); the cast is exact there and the debug
    /// assert pins it.
    #[inline(always)]
    #[allow(clippy::cast_possible_truncation)]
    fn shift_add(&mut self, combined: f64, t: u32) {
        debug_assert_eq!(
            combined.fract(),
            0.0,
            "partial-sum MAC requires integer ADC outputs (shift_add_is_exact)"
        );
        *self += (combined as i64) << t;
    }
}

/// The noisy read through the ADC pair, drawing from `key`'s streams.
struct AdcRead<'a> {
    noise: &'a PlaneNoise,
    adc_h: AdcReader,
    adc_l: AdcReader,
    /// The pair's four-lane twins, when both are unit-scale.
    #[cfg(target_arch = "x86_64")]
    lanes: Option<(imc_core::adc::AdcLanes, imc_core::adc::AdcLanes)>,
    eight_bit: bool,
    key: StreamKey,
}

impl<'a> AdcRead<'a> {
    fn new(
        noise: &'a PlaneNoise,
        adcs: &(SarAdc, SarAdc),
        cfg: &ImcConfig,
        key: StreamKey,
    ) -> Self {
        let (adc_h, adc_l) = (adcs.0.reader(), adcs.1.reader());
        Self {
            noise,
            adc_h,
            adc_l,
            #[cfg(target_arch = "x86_64")]
            lanes: adc_h.lanes().zip(adc_l.lanes()),
            eight_bit: cfg.weight_bits == 8,
            key,
        }
    }
}

impl Readout for AdcRead<'_> {
    /// One normal per H conversion, one more per L conversion at W8.
    fn draws(&self) -> Option<(StreamKey, usize)> {
        let per_conversion = if self.eight_bit { 2 } else { 1 };
        (self.noise.eff_scale > 0.0).then_some((self.key, per_conversion))
    }

    /// `inline(always)`: the feature-specialized pass must absorb this
    /// body (and the ADC math inside it) for SSE4.1 `roundsd` lowering
    /// to apply; a plain `#[inline]` hint loses that and leaves two libm
    /// calls per conversion on the hot path.
    #[inline(always)]
    fn read(&mut self, n: &[u32; PLANES], g: &[f64]) -> f64 {
        let eff = self.noise.eff_scale;
        // Integer shift-add first, one exact int→f64 convert after: the
        // popcounts are ≤ 64·words, so both the i64 sums and their f64
        // images are exact — bit-identical to summing f64 terms. Every
        // convert goes through `exact_f64` (see there why).
        let f = n.map(|c| exact_f64(i64::from(c)));
        let h_int = exact_f64(
            i64::from(n[0]) + 2 * i64::from(n[1]) + 4 * i64::from(n[2]) - 8 * i64::from(n[3]),
        );
        let noise_h = if eff > 0.0 {
            let ch = &self.noise.ch;
            let vh = f[0] * ch[0] + f[1] * ch[1] + f[2] * ch[2] + f[3] * ch[3];
            eff * vh.sqrt() * g[0]
        } else {
            0.0
        };
        let h_units = self.adc_h.read_units(h_int + noise_h);
        if !self.eight_bit {
            return h_units;
        }
        let l_int = exact_f64(
            i64::from(n[4]) + 2 * i64::from(n[5]) + 4 * i64::from(n[6]) + 8 * i64::from(n[7]),
        );
        let noise_l = if eff > 0.0 {
            let cl = &self.noise.cl;
            let vl = f[4] * cl[0] + f[5] * cl[1] + f[6] * cl[2] + f[7] * cl[3];
            eff * vl.sqrt() * g[1]
        } else {
            0.0
        };
        16.0 * h_units + self.adc_l.read_units(l_int + noise_l)
    }

    #[cfg(target_arch = "x86_64")]
    fn has_lanes(&self) -> bool {
        self.lanes.is_some()
    }

    /// [`AdcRead::read`] in four lanes, each step with its bits: `H` and
    /// `L` sum in i32 and convert exactly (`cvtdq2pd` writes the whole
    /// register, so no false dependency forms), `V` adds its products
    /// in the scalar order without FMA, `(eff · √V) · g` keeps its
    /// operand order, and the ADC pair reads through its lane twins. At
    /// W8 the H and L normals alternate in `g` and are split apart.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn read4(&mut self, counts: &Counts, k: usize, g: &[f64]) -> [f64; 4] {
        use std::arch::x86_64::{
            _mm256_add_pd, _mm256_cvtepi32_pd, _mm256_loadu_pd, _mm256_mul_pd,
            _mm256_permute4x64_pd, _mm256_set1_pd, _mm256_storeu_pd, _mm256_unpackhi_pd,
            _mm256_unpacklo_pd, _mm_add_epi32, _mm_loadu_si128, _mm_slli_epi32, _mm_sub_epi32,
        };
        let (lanes_h, lanes_l) = self.lanes.expect("read4 needs has_lanes");
        let noise = self.noise;
        let noisy = noise.eff_scale > 0.0;
        let draws = if self.eight_bit { 8 } else { 4 };
        assert!(k + 4 <= BLOCK && (!noisy || g.len() >= draws));
        let mut out = [0.0; 4];
        // SAFETY: the caller guarantees AVX2, and every load and store
        // touches four in-bounds elements (the assert above).
        unsafe {
            let n: [_; PLANES] =
                std::array::from_fn(|j| _mm_loadu_si128(counts[j][k..].as_ptr().cast()));
            let h = _mm_sub_epi32(
                _mm_add_epi32(
                    _mm_add_epi32(n[0], _mm_slli_epi32::<1>(n[1])),
                    _mm_slli_epi32::<2>(n[2]),
                ),
                _mm_slli_epi32::<3>(n[3]),
            );
            let mut h = _mm256_cvtepi32_pd(h);
            if !self.eight_bit {
                if noisy {
                    let g = _mm256_loadu_pd(g.as_ptr());
                    h = with_noise(h, &n[..4], &noise.ch, noise.eff_scale, g);
                }
                _mm256_storeu_pd(out.as_mut_ptr(), lanes_h.read_units(h));
                return out;
            }
            let l = _mm_add_epi32(
                _mm_add_epi32(n[4], _mm_slli_epi32::<1>(n[5])),
                _mm_add_epi32(_mm_slli_epi32::<2>(n[6]), _mm_slli_epi32::<3>(n[7])),
            );
            let mut l = _mm256_cvtepi32_pd(l);
            if noisy {
                // [h0 l0 h1 l1], [h2 l2 h3 l3] → [h0 h2 h1 h3] → [h0 h1 h2 h3].
                let (a, b) = (
                    _mm256_loadu_pd(g.as_ptr()),
                    _mm256_loadu_pd(g[4..].as_ptr()),
                );
                let gh = _mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_unpacklo_pd(a, b));
                let gl = _mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_unpackhi_pd(a, b));
                h = with_noise(h, &n[..4], &noise.ch, noise.eff_scale, gh);
                l = with_noise(l, &n[4..], &noise.cl, noise.eff_scale, gl);
            }
            let combined = _mm256_add_pd(
                _mm256_mul_pd(_mm256_set1_pd(16.0), lanes_h.read_units(h)),
                lanes_l.read_units(l),
            );
            _mm256_storeu_pd(out.as_mut_ptr(), combined);
        }
        out
    }
}

/// `units + (eff · √V) · g` in four lanes, `V = ((f0·c0 + f1·c1) +
/// f2·c2) + f3·c3` over the four planes' counts `n`: the scalar read's
/// operations in its order, with no FMA.
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn with_noise(
    units: std::arch::x86_64::__m256d,
    n: &[std::arch::x86_64::__m128i],
    c: &[f64; 4],
    eff: f64,
    g: std::arch::x86_64::__m256d,
) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_cvtepi32_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_sqrt_pd,
    };
    // SAFETY: the caller guarantees AVX.
    unsafe {
        let term = |j: usize| _mm256_mul_pd(_mm256_cvtepi32_pd(n[j]), _mm256_set1_pd(c[j]));
        let v = _mm256_add_pd(
            _mm256_add_pd(_mm256_add_pd(term(0), term(1)), term(2)),
            term(3),
        );
        let sigma = _mm256_mul_pd(_mm256_set1_pd(eff), _mm256_sqrt_pd(v));
        _mm256_add_pd(units, _mm256_mul_pd(sigma, g))
    }
}

/// The calibration read: no noise and no conversion, recording the
/// largest |H4B| and L4B chunk partial sums seen.
struct IdealRead {
    eight_bit: bool,
    max_units: (f64, f64),
}

impl Readout for IdealRead {
    fn draws(&self) -> Option<(StreamKey, usize)> {
        None
    }

    #[inline(always)]
    fn read(&mut self, n: &[u32; PLANES], _g: &[f64]) -> f64 {
        let h =
            f64::from(n[0]) + 2.0 * f64::from(n[1]) + 4.0 * f64::from(n[2]) - 8.0 * f64::from(n[3]);
        let l =
            f64::from(n[4]) + 2.0 * f64::from(n[5]) + 4.0 * f64::from(n[6]) + 8.0 * f64::from(n[7]);
        self.max_units.0 = self.max_units.0.max(h.abs());
        self.max_units.1 = self.max_units.1.max(l);
        if self.eight_bit {
            16.0 * h + l
        } else {
            h
        }
    }
}

/// One chunk at input bit `t`: the chunk's input bit-masks (`positions`
/// sets of `wpp` words), its packed weight words, and the normals its
/// reads take, `draws` per conversion in position → column order.
struct Pass<'a> {
    masks: &'a [u64],
    words: &'a [u64],
    normals: &'a [f64],
    draws: usize,
    wpp: usize,
    positions: usize,
    oc: usize,
    t: u32,
    /// W8 planes: planes 4–7 hold the L4B bits. W4 stores them as zero
    /// words ([`pack_planes`]), and the pass does not count them.
    eight_bit: bool,
}

/// Counts planes `0..LIVE` of block columns `o0..o0 + cols` against one
/// position's input bit-masks `xm` into `counts`. Planes from `LIVE` on
/// keep the zeros they start with.
#[inline(always)]
fn count_block<const LIVE: usize>(
    p: &Pass<'_>,
    xm: &[u64],
    o0: usize,
    cols: usize,
    counts: &mut Counts,
) {
    let wpp = p.wpp;
    for k in 0..cols {
        let o = o0 + k;
        let w = &p.words[o * PLANES * wpp..(o * PLANES + LIVE) * wpp];
        let mut n = [0u32; LIVE];
        for (s, &x) in xm.iter().enumerate() {
            for (j, nj) in n.iter_mut().enumerate() {
                *nj += (x & w[j * wpp + s]).count_ones();
            }
        }
        for (plane, nj) in counts.iter_mut().zip(n) {
            plane[k] = nj;
        }
    }
}

/// The `positions × oc` popcount → read → shift-add loop of one pass.
/// For each position it counts a block of up to [`BLOCK`] columns into a
/// plane-major [`Counts`] ([`count_block`], the kernel's only popcount
/// loop: four planes at W4, eight at W8), then reads them: four columns
/// at a time through [`Readout::read4`] when `LANES` is set and the read
/// has lanes, the rest one at a time. Each accumulator still takes one
/// shift-add per pass. Compiled three times, by the three functions
/// below; only [`pass_x86_avx2`] sets `LANES`.
///
/// # Safety
///
/// With `LANES`, the CPU must support AVX2.
#[inline(always)]
unsafe fn pass_body<const LANES: bool, R: Readout, A: ShiftAdd>(
    p: &Pass<'_>,
    read: &mut R,
    acc: &mut [A],
) {
    let (wpp, d, oc) = (p.wpp, p.draws, p.oc);
    let lanes = LANES && read.has_lanes();
    let mut counts: Counts = [[0; BLOCK]; PLANES];
    // Keep the explicit `positions` bound: bounding this loop by
    // `masks.len() / wpp`, or iterating `masks.chunks_exact(wpp)`,
    // compiles the f32 pass ~40% slower with the same instruction mix.
    for pos in 0..p.positions {
        let xm = &p.masks[pos * wpp..(pos + 1) * wpp];
        for o0 in (0..oc).step_by(BLOCK) {
            let cols = BLOCK.min(oc - o0);
            if p.eight_bit {
                count_block::<PLANES>(p, xm, o0, cols, &mut counts);
            } else {
                count_block::<4>(p, xm, o0, cols, &mut counts);
            }
            let i0 = pos * oc + o0;
            let out = &mut acc[i0..i0 + cols];
            let mut k = 0;
            while lanes && k + 4 <= cols {
                let i = i0 + k;
                // SAFETY: `lanes` implies `LANES`, whose caller
                // guarantees AVX2, and `has_lanes`.
                let v = unsafe { read.read4(&counts, k, &p.normals[i * d..(i + 4) * d]) };
                for (a, v) in out[k..k + 4].iter_mut().zip(v) {
                    a.shift_add(v, p.t);
                }
                k += 4;
            }
            for (k, a) in out.iter_mut().enumerate().skip(k) {
                let i = i0 + k;
                let n = std::array::from_fn(|j| counts[j][k]);
                a.shift_add(read.read(&n, &p.normals[i * d..(i + 1) * d]), p.t);
            }
        }
    }
}

/// Baseline-ISA compilation of the pass (software popcount on x86-64
/// without `-C target-cpu`).
fn pass_portable<R: Readout, A: ShiftAdd>(p: &Pass<'_>, read: &mut R, acc: &mut [A]) {
    // SAFETY: without `LANES` the body needs no CPU feature.
    unsafe { pass_body::<false, _, _>(p, read, acc) };
}

/// The same pass compiled with hardware `popcnt` (the eight AND+count
/// ops per conversion become single instructions) and SSE4.1 (inline
/// `roundsd`-based lowering of the ADC's `f64::round` instead of a
/// libm call). Bit-identical results — only the instruction selection
/// changes.
///
/// # Safety
///
/// Caller must ensure the CPU supports `popcnt` and `sse4.1`
/// ([`Compile::Popcnt`] or better).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt,sse4.1")]
unsafe fn pass_x86_fast<R: Readout, A: ShiftAdd>(p: &Pass<'_>, read: &mut R, acc: &mut [A]) {
    // SAFETY: without `LANES` the body needs no CPU feature.
    unsafe { pass_body::<false, _, _>(p, read, acc) };
}

/// The pass compiled with AVX2 as well, and with `LANES` set: an
/// [`AdcRead`] over unit-scale ADCs reads four columns at once
/// ([`AdcRead::read4`]), bit-identical to four scalar reads. Leftover
/// columns and every other read stay scalar.
///
/// # Safety
///
/// Caller must ensure the CPU supports `avx2`, `popcnt` and `sse4.1`
/// ([`Compile::Avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt,sse4.1")]
unsafe fn pass_x86_avx2<R: Readout, A: ShiftAdd>(p: &Pass<'_>, read: &mut R, acc: &mut [A]) {
    // SAFETY: the caller guarantees AVX2.
    unsafe { pass_body::<true, _, _>(p, read, acc) };
}

/// The compiles of the pass body, slowest first; a CPU that runs one
/// runs every one before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Compile {
    /// [`pass_portable`].
    Portable,
    /// [`pass_x86_fast`]: `popcnt,sse4.1`.
    Popcnt,
    /// [`pass_x86_avx2`]: `avx2,popcnt,sse4.1`.
    Avx2,
}

impl Compile {
    /// The fastest compile this CPU runs, probed once.
    fn best() -> Self {
        static BEST: OnceLock<Compile> = OnceLock::new();
        *BEST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected as has;
                if has!("popcnt") && has!("sse4.1") {
                    return if has!("avx2") {
                        Compile::Avx2
                    } else {
                        Compile::Popcnt
                    };
                }
            }
            Compile::Portable
        })
    }

    /// Runs pass `p` on this compile.
    ///
    /// # Safety
    ///
    /// The CPU must run this compile (`self <= Compile::best()`).
    unsafe fn run<R: Readout, A: ShiftAdd>(self, p: &Pass<'_>, read: &mut R, acc: &mut [A]) {
        match self {
            Compile::Portable => pass_portable(p, read, acc),
            // SAFETY: the caller guarantees the features.
            #[cfg(target_arch = "x86_64")]
            Compile::Popcnt => unsafe { pass_x86_fast(p, read, acc) },
            // SAFETY: the caller guarantees the features.
            #[cfg(target_arch = "x86_64")]
            Compile::Avx2 => unsafe { pass_x86_avx2(p, read, acc) },
            #[cfg(not(target_arch = "x86_64"))]
            Compile::Popcnt | Compile::Avx2 => pass_portable(p, read, acc),
        }
    }
}

/// Most normals a pass over several rows draws ahead of its reads
/// (32 KiB): those passes run over blocks of positions, so the buffer
/// does not grow with the batch.
const DRAWN_CAP: usize = 4096;

/// The kernel driver: for every input bit `t` and global chunk `c` of
/// `chunks`, in that order, builds the chunk's input bit-masks from
/// `acts_codes` (`[positions, fan]`) and runs its passes on the fastest
/// compile the CPU supports. A noisy read takes its normals from stream
/// `key.stream(t, c)`: a single row's from the layer's noise table; more
/// rows' are drawn into a buffer in stream order, one block of positions
/// at a time. Returns the `[positions, oc]` accumulators.
fn run_passes<R: Readout, A: ShiftAdd>(
    acts_codes: &Tensor,
    planes: &PackedPlanes,
    chunks: std::ops::Range<usize>,
    cfg: &ImcConfig,
    read: &mut R,
) -> Vec<A> {
    let positions = acts_codes.shape()[0];
    let fan = acts_codes.shape()[1];
    let src = acts_codes.data();
    let oc = planes.out_features;
    let mut acc = vec![A::default(); positions * oc];
    // Reused input bit-mask arena: one u64 row-mask set per position.
    let mut masks: Vec<u64> = Vec::new();
    let draws = read.draws();
    let d = draws.map_or(0, |(_, d)| d);
    let table = draws.filter(|_| positions == 1).map(|(key, _)| {
        noise_table(TableKey {
            key,
            input_bits: cfg.input_bits,
            chunks: planes.chunks.len(),
            oc,
            draws: d,
        })
    });
    let mut drawn: Vec<f64> = Vec::new();
    // Positions per pass: all of them, unless the normals are drawn into
    // `drawn`, which then holds at most `DRAWN_CAP`.
    let block = match (&table, draws) {
        (None, Some(_)) => DRAWN_CAP / (oc * d).max(1),
        _ => positions,
    }
    .max(1);
    // Row offset of the first chunk in the slice.
    let base_r0: usize = planes.chunks[..chunks.start].iter().map(|c| c.rows).sum();
    for t in 0..cfg.input_bits {
        let mut r0 = base_r0;
        for c in chunks.clone() {
            let chunk = &planes.chunks[c];
            let (rc, wpp) = (chunk.rows, chunk.words_per_plane);
            masks.clear();
            masks.resize(positions * wpp, 0);
            for p in 0..positions {
                let row = &src[p * fan + r0..p * fan + r0 + rc];
                let m = &mut masks[p * wpp..(p + 1) * wpp];
                for (r, &code) in row.iter().enumerate() {
                    m[r >> 6] |= u64::from((code as u32 >> t) & 1) << (r & 63);
                }
            }
            r0 += rc;
            let mut stream = draws
                .filter(|_| table.is_none())
                .map(|(key, _)| key.stream(t, c));
            for p0 in (0..positions).step_by(block) {
                let rows = block.min(positions - p0);
                let want = rows * oc * d;
                let normals: &[f64] = match (&table, &mut stream) {
                    (Some(table), _) => {
                        let at = (t as usize * planes.chunks.len() + c) * want;
                        &table[at..at + want]
                    }
                    (None, Some(g)) => {
                        drawn.clear();
                        drawn.extend((0..want).map(|_| g.normal()));
                        &drawn
                    }
                    (None, None) => &[],
                };
                let pass = Pass {
                    masks: &masks[p0 * wpp..(p0 + rows) * wpp],
                    words: &chunk.words,
                    normals,
                    draws: d,
                    wpp,
                    positions: rows,
                    oc,
                    t,
                    eight_bit: planes.weight_bits == 8,
                };
                let out = &mut acc[p0 * oc..(p0 + rows) * oc];
                // SAFETY: `Compile::best` is what the CPU runs.
                unsafe { Compile::best().run(&pass, read, out) };
            }
        }
    }
    acc
}

/// The packed bit-serial MAC: `acts_codes` is `[positions, fan]`
/// (integer activation codes as f32, as produced by
/// `quantize_activations`), output `[positions, oc]` in MAC units.
///
/// Loop order is input bit → chunk → `position·oc + o` ascending, which
/// fixes the f32 accumulation order of every output. Each `(input bit,
/// chunk)` pass draws from its own [`StreamKey`]-derived stream.
#[must_use]
pub fn imc_matmul_packed(
    acts_codes: &Tensor,
    planes: &PackedPlanes,
    noise: &PlaneNoise,
    adcs: &(SarAdc, SarAdc),
    cfg: &ImcConfig,
    key: StreamKey,
) -> Tensor {
    let _span = imc_obs::span!("kernel.packed_mac");
    let mut read = AdcRead::new(noise, adcs, cfg, key);
    let all = 0..planes.chunks.len();
    let units = run_passes(acts_codes, planes, all, cfg, &mut read);
    Tensor::from_vec(&[acts_codes.shape()[0], planes.out_features], units)
}

/// Integer partial-sum MAC over a global chunk slice — the shard-side
/// kernel of fleet serving (DESIGN §14).
///
/// Runs only the `chunks` slice of `planes` (global indices, which
/// also key the noise streams) and accumulates the shifted pMACV
/// `Σ_t 2^t · combined` per `(position, column)` as exact `i64`s
/// instead of f32. Under [`shift_add_is_exact`] every per-conversion
/// `combined` is an integer (the ADC emits `code · lsb` with an integer
/// `lsb`) small enough that the single-node kernel's f32 accumulator
/// never rounds — so summing the disjoint slices' i64 outputs and
/// casting once to f32 reproduces [`imc_matmul_packed`]'s output
/// bit-for-bit, no matter how the chunks are split across replicas.
///
/// # Panics
///
/// Panics if the chunk range is out of bounds or inverted
/// (`chunks.start > chunks.end`).
#[must_use]
pub fn imc_matmul_packed_partial(
    acts_codes: &Tensor,
    planes: &PackedPlanes,
    noise: &PlaneNoise,
    adcs: &(SarAdc, SarAdc),
    cfg: &ImcConfig,
    key: StreamKey,
    chunks: std::ops::Range<usize>,
) -> Vec<i64> {
    let _span = imc_obs::span!("kernel.packed_mac_partial");
    assert!(
        chunks.start <= chunks.end && chunks.end <= planes.chunks.len(),
        "chunk slice {chunks:?} out of bounds ({} chunks)",
        planes.chunks.len()
    );
    let mut read = AdcRead::new(noise, adcs, cfg, key);
    run_passes(acts_codes, planes, chunks, cfg, &mut read)
}

/// Checks the preconditions under which i64 partial sums recombine
/// bit-exactly with the f32 single-node kernel (see
/// [`imc_matmul_packed_partial`]): both ADC step sizes are integers
/// (their outputs `code · lsb` then are too), and the worst-case
/// shift-added total over `n_chunks` chunks stays below 2²⁴, where
/// every integer is exactly representable in f32 so the single-node
/// accumulator never rounds.
#[must_use]
pub fn shift_add_is_exact(adcs: &(SarAdc, SarAdc), cfg: &ImcConfig, n_chunks: usize) -> bool {
    let lsb_h = adcs.0.units_per_lsb();
    let lsb_l = adcs.1.units_per_lsb();
    if lsb_h.fract() != 0.0 || lsb_l.fract() != 0.0 {
        return false;
    }
    let (h_lo, h_hi) = adcs.0.code_range();
    let (l_lo, l_hi) = adcs.1.code_range();
    let max_h = f64::from(h_lo.abs().max(h_hi.abs())) * lsb_h;
    let max_l = f64::from(l_lo.abs().max(l_hi.abs())) * lsb_l;
    let per_conv = if cfg.weight_bits == 8 {
        16.0 * max_h + max_l
    } else {
        max_h
    };
    #[allow(clippy::cast_precision_loss)]
    let total = per_conv * f64::from((1u32 << cfg.input_bits) - 1) * n_chunks as f64;
    total < f64::from(1u32 << 24)
}

/// Noise-free, conversion-free packed MAC recording the largest |H4B|
/// and L4B chunk partial sums — the calibration pass of the packed
/// kernel. It runs the same passes as [`imc_matmul_packed`] with the
/// ideal read, which draws no noise.
#[must_use]
pub fn ideal_matmul_packed(
    acts_codes: &Tensor,
    planes: &PackedPlanes,
    cfg: &ImcConfig,
    max_units: &mut (f64, f64),
) -> Tensor {
    let mut read = IdealRead {
        eight_bit: cfg.weight_bits == 8,
        max_units: *max_units,
    };
    let all = 0..planes.chunks.len();
    let units = run_passes(acts_codes, planes, all, cfg, &mut read);
    *max_units = read.max_units;
    Tensor::from_vec(&[acts_codes.shape()[0], planes.out_features], units)
}

/// Ziggurat normal sampler (Marsaglia–Tsang, 128 layers) over a
/// SplitMix64 stream — exact standard-normal marginals, ~5× faster than
/// Box–Muller, and fully deterministic in the seed.
#[derive(Debug, Clone)]
pub struct ZigGauss {
    state: u64,
    tables: &'static ZigTables,
}

/// Tail start of the 128-layer ziggurat.
const ZIG_R: f64 = 3.442_619_855_899;
/// Area of each ziggurat box.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

#[derive(Debug)]
struct ZigTables {
    /// Layer-acceptance thresholds on |hz| (2^31-scaled).
    kn: [u32; 128],
    /// `x[i] / 2^31`: maps the 32-bit draw to a coordinate.
    wn: [f64; 128],
    /// `exp(−x[i]²/2)`.
    fx: [f64; 128],
}

fn zig_tables() -> &'static ZigTables {
    static T: OnceLock<ZigTables> = OnceLock::new();
    T.get_or_init(|| {
        let m1 = 2_147_483_648.0f64; // 2^31
        let mut kn = [0u32; 128];
        let mut wn = [0.0f64; 128];
        let mut fx = [0.0f64; 128];
        let mut dn = ZIG_R;
        let mut tn = ZIG_R;
        let q = ZIG_V / (-0.5 * dn * dn).exp();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            kn[0] = ((dn / q) * m1) as u32;
        }
        kn[1] = 0;
        wn[0] = q / m1;
        wn[127] = dn / m1;
        fx[0] = 1.0;
        fx[127] = (-0.5 * dn * dn).exp();
        for i in (1..=126usize).rev() {
            dn = (-2.0 * (ZIG_V / dn + (-0.5 * dn * dn).exp()).ln()).sqrt();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                kn[i + 1] = ((dn / tn) * m1) as u32;
            }
            tn = dn;
            fx[i] = (-0.5 * dn * dn).exp();
            wn[i] = dn / m1;
        }
        ZigTables { kn, wn, fx }
    })
}

impl ZigGauss {
    /// A fresh stream at `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed,
            tables: zig_tables(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The next standard-normal draw.
    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
    #[inline(always)]
    pub fn normal(&mut self) -> f64 {
        let t = self.tables;
        loop {
            let hz = self.next_u64() as u32 as i32;
            let iz = (hz & 127) as usize;
            if hz.unsigned_abs() < t.kn[iz] {
                // ~98.8 % of draws take this three-operation path.
                return f64::from(hz) * t.wn[iz];
            }
            if iz == 0 {
                // Base layer: sample the tail beyond R by inversion.
                loop {
                    let x = -self.uniform().max(1e-300).ln() / ZIG_R;
                    let y = -self.uniform().max(1e-300).ln();
                    if y + y > x * x {
                        return if hz < 0 { -(ZIG_R + x) } else { ZIG_R + x };
                    }
                }
            }
            let x = f64::from(hz) * t.wn[iz];
            if t.fx[iz] + self.uniform() * (t.fx[iz - 1] - t.fx[iz]) < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize_weights;

    fn test_weights(oc: usize, fan: usize, bits: u32, seed: u64) -> QuantizedWeights {
        let mut s = seed;
        let data: Vec<f32> = (0..oc * fan)
            .map(|_| {
                s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((s >> 33) as i32 % 255 - 127) as f32 / 127.0
            })
            .collect();
        quantize_weights(&Tensor::from_vec(&[oc, fan], data), bits)
    }

    fn test_codes(positions: usize, fan: usize, input_bits: u32, seed: u64) -> Tensor {
        let m = (1u32 << input_bits) - 1;
        Tensor::from_vec(
            &[positions, fan],
            (0..positions * fan)
                .map(|i| {
                    ((i as u32)
                        .wrapping_mul(2654435761)
                        .wrapping_add(seed as u32)
                        % (m + 1)) as f32
                })
                .collect(),
        )
    }

    /// Scalar reference for the packed kernel: identical semantics, draw
    /// order, and accumulation order, but the plane popcounts are rebuilt
    /// per row directly from the quantized codes — no packed data is
    /// involved, so an equivalence test against [`imc_matmul_packed`]
    /// checks the packing *and* the SWAR popcount logic at once. It shares
    /// only the ADC read ([`AdcRead`]) with the kernel.
    fn imc_matmul_reference(
        acts_codes: &Tensor,
        qw: &QuantizedWeights,
        noise: &PlaneNoise,
        adcs: &(SarAdc, SarAdc),
        cfg: &ImcConfig,
        key: StreamKey,
    ) -> Tensor {
        let positions = acts_codes.shape()[0];
        let fan = acts_codes.shape()[1];
        let [oc, qfan] = qw.shape;
        assert_eq!(fan, qfan, "activation fan-in must match the weights");
        let mut read = AdcRead::new(noise, adcs, cfg, key);
        let d = read.draws().map_or(0, |(_, d)| d);
        let rows = cfg.rows;
        let n_chunks = fan.div_ceil(rows);
        let mut acc = Tensor::zeros(&[positions, oc]);
        let src = acts_codes.data();
        for t in 0..cfg.input_bits {
            let weight = f64::from(1u32 << t);
            for c in 0..n_chunks {
                let r0 = c * rows;
                let r1 = (r0 + rows).min(fan);
                let ad = acc.data_mut();
                let mut gauss = key.stream(t, c);
                for p in 0..positions {
                    let base = p * oc;
                    for o in 0..oc {
                        let mut n = [0u32; PLANES];
                        for r in r0..r1 {
                            if (src[p * fan + r] as u32 >> t) & 1 == 0 {
                                continue;
                            }
                            let (hb, lb) = nibble_bits(qw.q[o * fan + r], qw.bits);
                            for j in 0..4 {
                                n[j] += u32::from(hb[j]);
                                n[4 + j] += u32::from(lb[j]);
                            }
                        }
                        let g: Vec<f64> = (0..d).map(|_| gauss.normal()).collect();
                        let combined = read.read(&n, &g);
                        ad[base + o] += (combined * weight) as f32;
                    }
                }
            }
        }
        acc
    }

    #[test]
    fn portable_and_fast_compiles_agree_bit_for_bit() {
        // `run_passes` takes only the fastest compile the CPU runs, so the
        // others run only here: one pass through every compile the host
        // supports, for every (read, accumulator) pairing the kernel uses,
        // at W4 and W8 with noise off and on, on column counts with no
        // lanes (3), lanes only (4, 8), both (5) and two blocks (70). The
        // noisy read over ADCs with `v_zero` 0.5 has no lanes and must
        // read every column on its own.
        let compiles: Vec<Compile> = [Compile::Portable, Compile::Popcnt, Compile::Avx2]
            .into_iter()
            .filter(|&c| c <= Compile::best())
            .collect();
        println!("pass compiles run on this host: {compiles:?}");
        #[cfg(target_arch = "x86_64")]
        assert!(
            compiles.contains(&Compile::Popcnt),
            "x86-64 has popcnt and sse4.1"
        );
        fn run<R: Readout, A: ShiftAdd>(
            compile: Compile,
            pass: &Pass<'_>,
            read: &mut R,
            init: A,
        ) -> Vec<A> {
            let mut acc = vec![init; pass.positions * pass.oc];
            // SAFETY: the test runs only compiles up to `Compile::best`.
            unsafe { compile.run(pass, read, &mut acc) };
            acc
        }
        let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let positions = 3;
        for weight_bits in [4, 8] {
            for noise_scale in [0.0, 1.0] {
                for oc in [3, 4, 5, 8, 70] {
                    let mut cfg = ImcConfig::paper(super::super::ImcDesign::ChgFe, 4, weight_bits);
                    cfg.noise_scale = noise_scale;
                    let qw = test_weights(oc, 70, weight_bits, 0xFA57);
                    let planes = pack_planes(&qw, cfg.rows);
                    let chunk = &planes.chunks[1];
                    // Mask bits past the chunk's rows meet zero weight bits.
                    let masks: Vec<u64> = (0..positions * chunk.words_per_plane)
                        .map(|i| stream_seed(9, 0, 0, i))
                        .collect();
                    let noise = PlaneNoise::for_config(&cfg);
                    let adcs = super::super::default_adcs(&cfg);
                    let offset_adcs = (
                        imc_core::adc::h4b_adc(cfg.adc_bits, cfg.rows, 0.5, 1.0),
                        imc_core::adc::l4b_adc(cfg.adc_bits, cfg.rows, 0.5, 1.0),
                    );
                    let key = StreamKey { seed: 1, layer: 0 };
                    let noisy = |adcs| AdcRead::new(&noise, adcs, &cfg, key);
                    assert_eq!(noisy(&adcs).has_lanes(), cfg!(target_arch = "x86_64"));
                    assert!(!noisy(&offset_adcs).has_lanes());
                    let d = noisy(&adcs).draws().map_or(0, |(_, d)| d);
                    let mut gauss = ZigGauss::new(0x5EED);
                    let normals: Vec<f64> =
                        (0..positions * oc * d).map(|_| gauss.normal()).collect();
                    let pass = Pass {
                        masks: &masks,
                        words: &chunk.words,
                        normals: &normals,
                        draws: d,
                        wpp: chunk.words_per_plane,
                        positions,
                        oc,
                        t: 2,
                        eight_bit: weight_bits == 8,
                    };
                    let outputs = |compile| {
                        let mut ideal = IdealRead {
                            eight_bit: weight_bits == 8,
                            max_units: (1.0, 2.0),
                        };
                        let ideal_acc = bits(run(compile, &pass, &mut ideal, 0.5f32));
                        (
                            bits(run(compile, &pass, &mut noisy(&adcs), 0.5f32)),
                            run(compile, &pass, &mut noisy(&adcs), 7i64),
                            bits(run(compile, &pass, &mut noisy(&offset_adcs), 0.5f32)),
                            (
                                ideal_acc,
                                ideal.max_units.0.to_bits(),
                                ideal.max_units.1.to_bits(),
                            ),
                        )
                    };
                    let portable = outputs(Compile::Portable);
                    for &compile in &compiles[1..] {
                        let got = outputs(compile);
                        let tag = format!("{compile:?} W{weight_bits} noise {noise_scale} oc {oc}");
                        assert_eq!(got.0, portable.0, "{tag}: noisy f32 pass");
                        assert_eq!(got.1, portable.1, "{tag}: noisy i64 pass");
                        assert_eq!(got.2, portable.2, "{tag}: offset-ADC f32 pass");
                        assert_eq!(got.3, portable.3, "{tag}: ideal pass");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_counts_match_cell_values() {
        // Popcount-reconstructed H and L of a single all-ones input row
        // must equal the summed nibble values of the stored weights.
        let qw = test_weights(3, 40, 8, 7);
        let planes = pack_planes(&qw, 32);
        assert_eq!(planes.chunks.len(), 2);
        assert_eq!(planes.chunks[0].rows, 32);
        assert_eq!(planes.chunks[1].rows, 8);
        for o in 0..3usize {
            let mut h_expect = 0i32;
            let mut l_expect = 0i32;
            for r in 0..32 {
                let sw = SplitWeight::split(qw.q[o * 40 + r]);
                h_expect += i32::from(sw.high.value());
                l_expect += i32::from(sw.low.value());
            }
            let chunk = &planes.chunks[0];
            let mut n = [0u32; PLANES];
            for (j, nj) in n.iter_mut().enumerate() {
                *nj = chunk.words[o * PLANES + j].count_ones();
            }
            let h = n[0] as i32 + 2 * n[1] as i32 + 4 * n[2] as i32 - 8 * n[3] as i32;
            let l = n[4] as i32 + 2 * n[5] as i32 + 4 * n[6] as i32 + 8 * n[7] as i32;
            assert_eq!(h, h_expect, "column {o} H4B");
            assert_eq!(l, l_expect, "column {o} L4B");
        }
    }

    #[test]
    fn packed_matches_reference_bit_for_bit() {
        // The SWAR kernel and the scalar reference share one semantics
        // definition; across designs, noise scales, bit widths, odd
        // shapes, and passes split into blocks of positions (70 rows of
        // 64 columns draw 2 · 64 normals a row: blocks of 32, 32 and 6)
        // they must agree on every output bit.
        for (design, noise_scale, bits, oc, fan, positions) in [
            (super::super::ImcDesign::CurFe, 1.0, 8, 5, 70, 3),
            (super::super::ImcDesign::ChgFe, 1.0, 8, 4, 64, 2),
            (super::super::ImcDesign::ChgFe, 0.0, 8, 7, 33, 1),
            (super::super::ImcDesign::ChgFe, 1.0, 8, 4, 64, 1),
            (super::super::ImcDesign::CurFe, 2.5, 4, 3, 129, 2),
            (super::super::ImcDesign::CurFe, 1.0, 8, 64, 40, 70),
        ] {
            let mut cfg = ImcConfig::paper(design, 4, bits);
            cfg.noise_scale = noise_scale;
            let qw = test_weights(oc, fan, bits, 11 + fan as u64);
            let codes = test_codes(positions, fan, cfg.input_bits, 3);
            let planes = pack_planes(&qw, cfg.rows);
            let noise = PlaneNoise::for_config(&cfg);
            let adcs = super::super::default_adcs(&cfg);
            let key = StreamKey {
                seed: cfg.seed,
                layer: 0,
            };
            let a = imc_matmul_packed(&codes, &planes, &noise, &adcs, &cfg, key);
            let b = imc_matmul_reference(&codes, &qw, &noise, &adcs, &cfg, key);
            assert_eq!(a.shape(), b.shape());
            for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{design:?} ns={noise_scale} bits={bits}: output {i} diverged"
                );
            }
        }
    }

    #[test]
    fn partial_sums_recombine_bit_exactly_for_any_chunk_split() {
        // The fleet bit-exactness contract (DESIGN §14): splitting a
        // layer's chunks across shards, running the i64 partial kernel
        // per slice, summing, and casting once to f32 must reproduce
        // the single-node f32 kernel bit-for-bit — with full noise on.
        for (design, positions, fan, oc, layer) in [
            (super::super::ImcDesign::ChgFe, 1, 784, 64, 0u32),
            (super::super::ImcDesign::CurFe, 2, 70, 5, 1),
            (super::super::ImcDesign::ChgFe, 1, 64, 10, 1),
        ] {
            let cfg = ImcConfig::paper(design, 4, 8);
            let qw = test_weights(oc, fan, 8, 0xD00D + fan as u64);
            let codes = test_codes(positions, fan, cfg.input_bits, 5);
            let planes = pack_planes(&qw, cfg.rows);
            let noise = PlaneNoise::for_config(&cfg);
            let adcs = super::super::default_adcs(&cfg);
            let n_chunks = planes.chunks.len();
            assert!(
                shift_add_is_exact(&adcs, &cfg, n_chunks),
                "paper operating point must satisfy the exactness bound"
            );
            let key = StreamKey {
                seed: cfg.seed,
                layer,
            };
            let full = imc_matmul_packed(&codes, &planes, &noise, &adcs, &cfg, key);
            for split in [
                vec![0, n_chunks],
                vec![0, 1, n_chunks],
                vec![0, n_chunks / 2, n_chunks],
                vec![0, 1, 2, n_chunks.max(3)],
            ] {
                if split.windows(2).any(|w| w[0] >= w[1]) || *split.last().unwrap() != n_chunks {
                    continue;
                }
                let mut total = vec![0i64; positions * oc];
                for w in split.windows(2) {
                    let part = imc_matmul_packed_partial(
                        &codes,
                        &planes,
                        &noise,
                        &adcs,
                        &cfg,
                        key,
                        w[0]..w[1],
                    );
                    for (acc, v) in total.iter_mut().zip(part) {
                        *acc += v;
                    }
                }
                for (i, (&f, &t)) in full.data().iter().zip(total.iter()).enumerate() {
                    #[allow(clippy::cast_precision_loss)]
                    let recombined = t as f32;
                    assert_eq!(
                        f.to_bits(),
                        recombined.to_bits(),
                        "{design:?} split {split:?}: output {i} diverged ({f} vs {recombined})"
                    );
                }
            }
        }
    }

    #[test]
    fn noise_table_prefixes_every_stream_and_is_shared() {
        let id = TableKey {
            key: StreamKey {
                seed: 0x7AB1E,
                layer: 3,
            },
            input_bits: 2,
            chunks: 3,
            oc: 5,
            draws: 2,
        };
        let table = noise_table(id);
        assert_eq!(table.len(), 2 * 3 * 5 * 2);
        for (at, pass) in table.chunks_exact(5 * 2).enumerate() {
            let mut g = id.key.stream((at / 3) as u32, at % 3);
            for &v in pass {
                assert_eq!(v.to_bits(), g.normal().to_bits(), "pass {at}");
            }
        }
        assert!(
            Arc::ptr_eq(&table, &noise_table(id)),
            "one copy per identity"
        );
        let other = TableKey { draws: 1, ..id };
        assert!(!Arc::ptr_eq(&table, &noise_table(other)));
    }

    #[test]
    fn stream_seed_separates_layers_bits_and_chunks() {
        let base = stream_seed(42, 0, 0, 0);
        assert_ne!(base, stream_seed(42, 1, 0, 0), "layer must key the stream");
        assert_ne!(base, stream_seed(42, 0, 1, 0), "bit must key the stream");
        assert_ne!(base, stream_seed(42, 0, 0, 1), "chunk must key the stream");
        assert_ne!(base, stream_seed(43, 0, 0, 0), "seed must key the stream");
        assert_eq!(base, stream_seed(42, 0, 0, 0), "keying is deterministic");
    }

    #[test]
    fn plane_cache_hits_on_identical_codes_and_misses_on_changed() {
        let qw = test_weights(4, 50, 8, 99);
        let (h0, m0) = plane_cache_stats();
        let a = pack_planes_cached(&qw, 32);
        let b = pack_planes_cached(&qw, 32);
        assert!(Arc::ptr_eq(&a, &b), "identical codes must share planes");
        let (h1, m1) = plane_cache_stats();
        assert!(h1 > h0, "second pack must hit");
        assert!(m1 > m0, "first pack must miss");
        // One changed code (a new chip image) can never alias.
        let mut qw2 = qw;
        qw2.q[17] = qw2.q[17].wrapping_add(1);
        let c = pack_planes_cached(&qw2, 32);
        assert!(!Arc::ptr_eq(&a, &c), "changed codes must re-pack");
    }

    #[test]
    fn ziggurat_moments_and_determinism() {
        let mut g = ZigGauss::new(0x51C6_0D2F);
        let n = 200_000;
        let (mut sum, mut sq, mut tail) = (0.0f64, 0.0f64, 0usize);
        for _ in 0..n {
            let v = g.normal();
            sum += v;
            sq += v * v;
            if v.abs() > 3.0 {
                tail += 1;
            }
        }
        let mean = sum / f64::from(n);
        let var = sq / f64::from(n) - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
        // P(|Z| > 3) ≈ 0.27 %; the tail must be reachable but rare.
        let frac = tail as f64 / f64::from(n);
        assert!(frac > 0.0005 && frac < 0.006, "3σ tail fraction {frac}");
        // Determinism in the seed.
        let mut a = ZigGauss::new(42);
        let mut b = ZigGauss::new(42);
        for _ in 0..1000 {
            assert!((a.normal() - b.normal()).abs() == 0.0);
        }
    }
}
