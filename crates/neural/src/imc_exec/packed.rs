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
//! per-row reference in `tests/kernel_equivalence.rs`.
//!
//! Statistical device noise rides on top of the integer pMACV: the
//! per-active-cell variances are recovered *exactly* from the popcounts
//! (`V = Σ_j n_j·c_j` in f64), and one Gaussian per conversion is drawn
//! with the **combined** effective sigma
//! `noise_scale · √((1−f)² + f²) · √V` (`f` = `read_noise_fraction`):
//! the static program-time share and the per-read re-roll folded into a
//! single draw with their summed variance; see `DESIGN.md` §13 for the
//! rationale. Draws come from a ziggurat sampler ([`ZigGauss`]) over a
//! SplitMix64 stream, ~13k draws per MNIST-MLP inference.
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
use std::sync::{Arc, Mutex, OnceLock};

use crate::quant::QuantizedWeights;
use crate::tensor::Tensor;
use imc_core::adc::{AdcReader, SarAdc};
use imc_core::weights::{SignedNibble, SplitWeight};

use super::{ImcConfig, NoiseProfile};

/// Bit-planes per packed cell: H4B bits 0–2, sign, L4B bits 0–3.
pub const PLANES: usize = 8;

/// One 32-row (`cfg.rows`) accumulation chunk, bit-plane packed.
///
/// Layout: `words[(o·PLANES + j)·words_per_plane + s]` holds rows
/// `64s..64s+63` of output column `o`, plane `j` — bit `b` set means
/// chunk-row `64s + b` stores a 1 in that weight bit.
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

/// Entries kept before the cache is wholesale cleared (each entry is a
/// few KiB; 32 covers every model in the workspace many times over).
const CACHE_CAP: usize = 32;

fn cache() -> &'static Mutex<HashMap<CacheKey, Arc<PackedPlanes>>> {
    static CACHE: OnceLock<Mutex<HashMap<CacheKey, Arc<PackedPlanes>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// [`pack_planes`] through the process-wide weight-stationary cache.
///
/// Hits and misses are exported as the obs counters
/// `imc_neural_plane_cache_hits_total` /
/// `imc_neural_plane_cache_misses_total`.
#[must_use]
pub fn pack_planes_cached(qw: &QuantizedWeights, rows: usize) -> Arc<PackedPlanes> {
    let key = CacheKey {
        rows,
        bits: qw.bits,
        shape: qw.shape,
        codes: qw.q.clone(),
    };
    {
        let map = cache()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(hit) = map.get(&key) {
            imc_obs::counter!(
                "imc_neural_plane_cache_hits_total",
                "Weight-stationary packed-plane cache hits"
            )
            .inc();
            return Arc::clone(hit);
        }
    }
    // Pack outside the lock: packing is the slow part, and a racing
    // duplicate insert is harmless (same content, last one wins).
    imc_obs::counter!(
        "imc_neural_plane_cache_misses_total",
        "Weight-stationary packed-plane cache misses (pack performed)"
    )
    .inc();
    let packed = Arc::new(pack_planes(qw, rows));
    let mut map = cache()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if map.len() >= CACHE_CAP {
        map.clear();
    }
    map.insert(key, Arc::clone(&packed));
    packed
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// One noisy conversion of a chunk's plane popcounts through the ADC
/// pair, returning the combined pMACV `16·H + L` (or `H` in 4-bit
/// mode). Shared verbatim by the packed kernel and the scalar
/// reference so their semantics cannot drift.
///
/// `inline(always)`: the feature-specialized chunk pass must absorb
/// this body (and the ADC math inside it) for SSE4.1 `roundsd`
/// lowering to apply; a plain `#[inline]` hint loses that and leaves
/// two libm calls per conversion on the hot path.
#[inline(always)]
fn convert_counts(
    n: &[u32; PLANES],
    noise: &PlaneNoise,
    adc_h: &AdcReader,
    adc_l: &AdcReader,
    eight_bit: bool,
    gauss: &mut ZigGauss,
) -> f64 {
    let eff = noise.eff_scale;
    // Integer shift-add first, one exact int→f64 convert after: the
    // popcounts are ≤ 64·words, so both the i64 sums and their f64
    // images are exact — bit-identical to summing f64 terms.
    let h_int =
        (i64::from(n[0]) + 2 * i64::from(n[1]) + 4 * i64::from(n[2]) - 8 * i64::from(n[3])) as f64;
    let noise_h = if eff > 0.0 {
        let vh = f64::from(n[0]) * noise.ch[0]
            + f64::from(n[1]) * noise.ch[1]
            + f64::from(n[2]) * noise.ch[2]
            + f64::from(n[3]) * noise.ch[3];
        eff * vh.sqrt() * gauss.normal()
    } else {
        0.0
    };
    let h_units = adc_h.read_units(h_int + noise_h);
    if eight_bit {
        let l_int =
            (i64::from(n[4]) + 2 * i64::from(n[5]) + 4 * i64::from(n[6]) + 8 * i64::from(n[7]))
                as f64;
        let noise_l = if eff > 0.0 {
            let vl = f64::from(n[4]) * noise.cl[0]
                + f64::from(n[5]) * noise.cl[1]
                + f64::from(n[6]) * noise.cl[2]
                + f64::from(n[7]) * noise.cl[3];
            eff * vl.sqrt() * gauss.normal()
        } else {
            0.0
        };
        let l_units = adc_l.read_units(l_int + noise_l);
        16.0 * h_units + l_units
    } else {
        h_units
    }
}

/// Borrowed arguments of one chunk's conversion pass, bundled so the
/// hot loop can be compiled twice (portable and feature-specialized)
/// from a single body.
struct ChunkPass<'a> {
    masks: &'a [u64],
    words: &'a [u64],
    wpp: usize,
    positions: usize,
    oc: usize,
    noise: &'a PlaneNoise,
    adc_h: AdcReader,
    adc_l: AdcReader,
    eight_bit: bool,
    weight: f64,
}

/// The `positions × oc` popcount-convert-accumulate loop for one chunk
/// at one input-bit significance. Shared verbatim by both compiled
/// entry points below.
#[inline(always)]
fn chunk_pass_body(a: &ChunkPass<'_>, gauss: &mut ZigGauss, ad: &mut [f32]) {
    let wpp = a.wpp;
    for p in 0..a.positions {
        let xm = &a.masks[p * wpp..(p + 1) * wpp];
        let base = p * a.oc;
        for o in 0..a.oc {
            let w = &a.words[o * PLANES * wpp..(o + 1) * PLANES * wpp];
            let mut n = [0u32; PLANES];
            for (s, &x) in xm.iter().enumerate() {
                for (j, nj) in n.iter_mut().enumerate() {
                    *nj += (x & w[j * wpp + s]).count_ones();
                }
            }
            let combined = convert_counts(&n, a.noise, &a.adc_h, &a.adc_l, a.eight_bit, gauss);
            ad[base + o] += (combined * a.weight) as f32;
        }
    }
}

/// Baseline-ISA compilation of the chunk pass (software popcount on
/// x86-64 without `-C target-cpu`).
fn chunk_pass_portable(a: &ChunkPass<'_>, gauss: &mut ZigGauss, ad: &mut [f32]) {
    chunk_pass_body(a, gauss, ad);
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
/// ([`have_fast_mac_features`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt,sse4.1")]
unsafe fn chunk_pass_x86_fast(a: &ChunkPass<'_>, gauss: &mut ZigGauss, ad: &mut [f32]) {
    chunk_pass_body(a, gauss, ad);
}

/// Borrowed arguments of one chunk's *integer partial-sum* pass
/// ([`imc_matmul_packed_partial`]): same popcount/convert loop as
/// [`ChunkPass`], but the shifted pMACV accumulates into `i64`s.
struct PartialPass<'a> {
    masks: &'a [u64],
    words: &'a [u64],
    wpp: usize,
    positions: usize,
    oc: usize,
    noise: &'a PlaneNoise,
    adc_h: AdcReader,
    adc_l: AdcReader,
    eight_bit: bool,
    shift: u32,
}

/// The `positions × oc` loop of the partial-sum kernel. `combined` is
/// integral whenever the ADC step sizes are ([`shift_add_is_exact`]);
/// the cast is exact there and the debug assert pins it.
#[inline(always)]
#[allow(clippy::cast_possible_truncation)]
fn partial_pass_body(a: &PartialPass<'_>, gauss: &mut ZigGauss, acc: &mut [i64]) {
    let wpp = a.wpp;
    for p in 0..a.positions {
        let xm = &a.masks[p * wpp..(p + 1) * wpp];
        let base = p * a.oc;
        for o in 0..a.oc {
            let w = &a.words[o * PLANES * wpp..(o + 1) * PLANES * wpp];
            let mut n = [0u32; PLANES];
            for (s, &x) in xm.iter().enumerate() {
                for (j, nj) in n.iter_mut().enumerate() {
                    *nj += (x & w[j * wpp + s]).count_ones();
                }
            }
            let combined = convert_counts(&n, a.noise, &a.adc_h, &a.adc_l, a.eight_bit, gauss);
            debug_assert_eq!(
                combined.fract(),
                0.0,
                "partial-sum MAC requires integer ADC outputs (shift_add_is_exact)"
            );
            acc[base + o] += (combined as i64) << a.shift;
        }
    }
}

/// Baseline-ISA compilation of the partial pass.
fn partial_pass_portable(a: &PartialPass<'_>, gauss: &mut ZigGauss, acc: &mut [i64]) {
    partial_pass_body(a, gauss, acc);
}

/// [`partial_pass_body`] compiled with hardware `popcnt` + SSE4.1,
/// mirroring [`chunk_pass_x86_fast`].
///
/// # Safety
///
/// Caller must ensure the CPU supports `popcnt` and `sse4.1`
/// ([`have_fast_mac_features`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt,sse4.1")]
unsafe fn partial_pass_x86_fast(a: &PartialPass<'_>, gauss: &mut ZigGauss, acc: &mut [i64]) {
    partial_pass_body(a, gauss, acc);
}

/// Runtime CPU feature gate for [`chunk_pass_x86_fast`], probed once.
#[cfg(target_arch = "x86_64")]
fn have_fast_mac_features() -> bool {
    static HAVE: OnceLock<bool> = OnceLock::new();
    *HAVE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("popcnt")
            && std::arch::is_x86_feature_detected!("sse4.1")
    })
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
    let positions = acts_codes.shape()[0];
    let fan = acts_codes.shape()[1];
    let oc = planes.out_features;
    let (adc_h, adc_l) = (adcs.0.reader(), adcs.1.reader());
    let eight_bit = cfg.weight_bits == 8;
    let mut acc = Tensor::zeros(&[positions, oc]);
    // Reused input bit-mask arena: one u64 row-mask set per position.
    let mut masks: Vec<u64> = Vec::new();
    for t in 0..cfg.input_bits {
        let weight = f64::from(1u32 << t);
        let mut r0 = 0usize;
        for (c, chunk) in planes.chunks.iter().enumerate() {
            let rc = chunk.rows;
            let wpp = chunk.words_per_plane;
            masks.clear();
            masks.resize(positions * wpp, 0);
            let src = acts_codes.data();
            for p in 0..positions {
                let row = &src[p * fan + r0..p * fan + r0 + rc];
                let m = &mut masks[p * wpp..(p + 1) * wpp];
                for (r, &code) in row.iter().enumerate() {
                    m[r >> 6] |= u64::from((code as u32 >> t) & 1) << (r & 63);
                }
            }
            let ad = acc.data_mut();
            let mut gauss = key.stream(t, c);
            let pass = ChunkPass {
                masks: &masks,
                words: &chunk.words,
                wpp,
                positions,
                oc,
                noise,
                adc_h,
                adc_l,
                eight_bit,
                weight,
            };
            #[cfg(target_arch = "x86_64")]
            if have_fast_mac_features() {
                // SAFETY: guarded by runtime CPU feature detection.
                unsafe { chunk_pass_x86_fast(&pass, &mut gauss, ad) };
                r0 += rc;
                continue;
            }
            chunk_pass_portable(&pass, &mut gauss, ad);
            r0 += rc;
        }
    }
    acc
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
    let (chunk_lo, chunk_hi) = (chunks.start, chunks.end);
    assert!(
        chunk_lo <= chunk_hi && chunk_hi <= planes.chunks.len(),
        "chunk slice {chunk_lo}..{chunk_hi} out of bounds ({} chunks)",
        planes.chunks.len()
    );
    let positions = acts_codes.shape()[0];
    let fan = acts_codes.shape()[1];
    let oc = planes.out_features;
    let (adc_h, adc_l) = (adcs.0.reader(), adcs.1.reader());
    let eight_bit = cfg.weight_bits == 8;
    let mut acc = vec![0i64; positions * oc];
    let mut masks: Vec<u64> = Vec::new();
    // Row offset of the first chunk in the slice.
    let base_r0: usize = planes.chunks[..chunk_lo].iter().map(|c| c.rows).sum();
    for t in 0..cfg.input_bits {
        let mut r0 = base_r0;
        for (c, chunk) in planes.chunks[chunk_lo..chunk_hi].iter().enumerate() {
            let rc = chunk.rows;
            let wpp = chunk.words_per_plane;
            masks.clear();
            masks.resize(positions * wpp, 0);
            let src = acts_codes.data();
            for p in 0..positions {
                let row = &src[p * fan + r0..p * fan + r0 + rc];
                let m = &mut masks[p * wpp..(p + 1) * wpp];
                for (r, &code) in row.iter().enumerate() {
                    m[r >> 6] |= u64::from((code as u32 >> t) & 1) << (r & 63);
                }
            }
            let mut gauss = key.stream(t, chunk_lo + c);
            let pass = PartialPass {
                masks: &masks,
                words: &chunk.words,
                wpp,
                positions,
                oc,
                noise,
                adc_h,
                adc_l,
                eight_bit,
                shift: t,
            };
            #[cfg(target_arch = "x86_64")]
            if have_fast_mac_features() {
                // SAFETY: guarded by runtime CPU feature detection.
                unsafe { partial_pass_x86_fast(&pass, &mut gauss, &mut acc) };
                r0 += rc;
                continue;
            }
            partial_pass_portable(&pass, &mut gauss, &mut acc);
            r0 += rc;
        }
    }
    acc
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

/// Scalar reference for the packed kernel: identical semantics, draw
/// order, and accumulation order, but the plane popcounts are rebuilt
/// per row directly from the quantized codes — no packed data is
/// involved, so an equivalence test against [`imc_matmul_packed`]
/// checks the packing *and* the SWAR popcount logic at once.
#[must_use]
pub fn imc_matmul_reference(
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
    let (adc_h, adc_l) = (adcs.0.reader(), adcs.1.reader());
    let eight_bit = cfg.weight_bits == 8;
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
                    let combined = convert_counts(&n, noise, &adc_h, &adc_l, eight_bit, &mut gauss);
                    ad[base + o] += (combined * weight) as f32;
                }
            }
        }
    }
    acc
}

/// Noise-free, conversion-free packed MAC recording the largest |H4B|
/// and L4B chunk partial sums — the calibration pass of the packed
/// kernel.
#[must_use]
pub fn ideal_matmul_packed(
    acts_codes: &Tensor,
    planes: &PackedPlanes,
    cfg: &ImcConfig,
    max_units: &mut (f64, f64),
) -> Tensor {
    let positions = acts_codes.shape()[0];
    let fan = acts_codes.shape()[1];
    let oc = planes.out_features;
    let eight_bit = cfg.weight_bits == 8;
    let mut acc = Tensor::zeros(&[positions, oc]);
    let mut masks: Vec<u64> = Vec::new();
    for t in 0..cfg.input_bits {
        let weight = f64::from(1u32 << t);
        let mut r0 = 0usize;
        for chunk in &planes.chunks {
            let rc = chunk.rows;
            let wpp = chunk.words_per_plane;
            masks.clear();
            masks.resize(positions * wpp, 0);
            let src = acts_codes.data();
            for p in 0..positions {
                let row = &src[p * fan + r0..p * fan + r0 + rc];
                let m = &mut masks[p * wpp..(p + 1) * wpp];
                for (r, &code) in row.iter().enumerate() {
                    m[r >> 6] |= u64::from((code as u32 >> t) & 1) << (r & 63);
                }
            }
            let ad = acc.data_mut();
            for p in 0..positions {
                let xm = &masks[p * wpp..(p + 1) * wpp];
                let base = p * oc;
                for o in 0..oc {
                    let w = &chunk.words[o * PLANES * wpp..(o + 1) * PLANES * wpp];
                    let mut n = [0u32; PLANES];
                    for (s, &x) in xm.iter().enumerate() {
                        for (j, nj) in n.iter_mut().enumerate() {
                            *nj += (x & w[j * wpp + s]).count_ones();
                        }
                    }
                    let h = f64::from(n[0]) + 2.0 * f64::from(n[1]) + 4.0 * f64::from(n[2])
                        - 8.0 * f64::from(n[3]);
                    let l = f64::from(n[4])
                        + 2.0 * f64::from(n[5])
                        + 4.0 * f64::from(n[6])
                        + 8.0 * f64::from(n[7]);
                    max_units.0 = max_units.0.max(h.abs());
                    max_units.1 = max_units.1.max(l);
                    let combined = if eight_bit { 16.0 * h + l } else { h };
                    ad[base + o] += (combined * weight) as f32;
                }
            }
            r0 += rc;
        }
    }
    acc
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
        // definition; across designs, noise scales, bit widths, and odd
        // shapes they must agree on every output bit.
        for (design, noise_scale, bits, oc, fan, positions) in [
            (super::super::ImcDesign::CurFe, 1.0, 8, 5, 70, 3),
            (super::super::ImcDesign::ChgFe, 1.0, 8, 4, 64, 2),
            (super::super::ImcDesign::ChgFe, 0.0, 8, 7, 33, 1),
            (super::super::ImcDesign::CurFe, 2.5, 4, 3, 129, 2),
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
