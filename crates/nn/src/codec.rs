//! Pluggable model-update codecs for the FL data plane.
//!
//! The dense little-endian `f32` format ([`crate::params`]) stays the
//! wire-compatible default; the lossy codecs trade fidelity for uplink
//! bytes, the lever the massive-IoT literature identifies as binding fleet
//! size (per-client uplink, not compute):
//!
//! * **fp16** — half-precision truncation, 2x smaller, ~1e-3 relative
//!   error;
//! * **int8** — affine (min/scale) quantization over the whole vector,
//!   ~4x smaller, error ≤ half a quantization step per element;
//! * **top-k** — sparse *delta* against a shared base vector (the last
//!   applied global model): only the `k` largest-magnitude delta
//!   coordinates ship — their values, then their indices as LEB128 gaps
//!   (one byte each at the default density) — ~26x smaller.
//!
//! Lossy codecs compose with **error feedback**: the caller keeps a
//! per-model residual vector, the codec folds it into the value it
//! encodes and writes back what the encoding dropped, so quantization
//! error from round *r* is retried in round *r+1* instead of compounding
//! (the standard EF-SGD construction). The residual lives with the model
//! (`ModelController` in `sdflmq-core`), not in the codec — codecs are
//! stateless values.
//!
//! Every encoding is self-describing (own magic + version + element
//! count), so a receiver can [`UpdateCodec::sniff`] a payload even when
//! transport metadata is missing or wrong.
//!
//! ## Parallel, but bit-identical
//!
//! Encode and decode run chunk-parallel on a [`WorkerPool`]: the vector is
//! split into fixed [`PAR_CHUNK`]-element chunks (a pure function of the
//! length, never of the thread count) and each chunk is processed
//! independently. Every byte of output — and every residual bit — is
//! **identical to the serial reference** at any thread count:
//!
//! * fp16/int8 quantization and residual update are element-local;
//! * the int8 min/max reduction is exactly associative for the values it
//!   sees (non-NaN, with a rare serial re-scan when the extremum is ±0,
//!   the one order-dependent case);
//! * top-k selection is a threshold select under the same strict total
//!   order as the serial sort: per-chunk histograms of `|e|`'s top bits
//!   (integer counts, merged in chunk order) name the bucket holding the
//!   k-th key, and only keys at or above it are collected and selected, so
//!   the selected *set* — and therefore the index-sorted payload — is the
//!   same.
//!
//! The serial implementations survive verbatim in [`mod@reference`] as the
//! differential-test oracle. Chaos traces hash bit-exact global models, so
//! this equivalence is load-bearing: `data_plane_threads` must never
//! change a simulation outcome.

use crate::parallel::{self, WorkerPool};
use crate::params;
use crate::simd;
use std::sync::Mutex;

/// Stable one-byte codec identifiers, carried in blob metadata and in the
/// session-negotiation `codec` field. Wire-stable: never renumber.
pub const CODEC_DENSE: u8 = 0;
/// Half-precision codec id.
pub const CODEC_FP16: u8 = 1;
/// Affine int8 codec id.
pub const CODEC_INT8: u8 = 2;
/// Top-k sparse-delta codec id.
pub const CODEC_TOPK: u8 = 3;

const FP16_MAGIC: [u8; 3] = *b"SFH"; // "Sdflmq Flat Half"
const INT8_MAGIC: [u8; 3] = *b"SFQ"; // "Sdflmq Flat Quantized"
const TOPK_MAGIC: [u8; 3] = *b"SFS"; // "Sdflmq Flat Sparse"
const FP16_VERSION: u8 = 1;
const INT8_VERSION: u8 = 1;
/// Version 2: values first, then LEB128 index gaps. Version 1 (interleaved
/// `(u32 index, f32 value)` pairs) is refused.
const TOPK_VERSION: u8 = 2;

/// `|e|`'s bits shifted right by this many give its top-k histogram bucket:
/// 11 bits (the sign is cleared), so [`TOPK_BUCKETS`] buckets.
const TOPK_BUCKET_SHIFT: u32 = 20;
const TOPK_BUCKETS: usize = 1 << (31 - TOPK_BUCKET_SHIFT);

/// Default top-k density: coordinates kept per 1000 (3%).
pub const DEFAULT_TOPK_PER_MILLE: u16 = 30;

/// Fixed chunk size (elements) for parallel codec kernels.
///
/// Determinism-critical: chunk boundaries depend only on the vector
/// length, so any thread count walks the same chunks and produces the
/// same bytes. 8192 elements ≈ 32 KiB of f32 — large enough to amortize
/// dispatch, small enough to load-balance a ~100k-parameter model.
pub const PAR_CHUNK: usize = 8192;

/// Largest finite binary16 value (fp16 targets saturate here).
const F16_MAX: f32 = 65504.0;

/// One chunk of a parallel encode pass: `(input, residual, output bytes)`,
/// wrapped in a `Mutex` so disjoint chunks can be handed to pool workers.
type EncodeChunk<'a> = Mutex<(&'a [f32], &'a mut [f32], &'a mut [u8])>;

/// Largest element count a zero-base sparse frame may declare (64M
/// parameters ≈ 256 MB decoded) — the header is attacker-controlled and,
/// uniquely for the sparse format, not bounded by the payload length.
pub const MAX_SPARSE_ELEMS: usize = 1 << 26;

/// Decoding errors for the update codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input shorter than its header or declared contents.
    Truncated,
    /// Payload magic does not match the codec asked to decode it.
    WrongCodec,
    /// Unsupported encoding version.
    BadVersion(u8),
    /// The sparse index stream is malformed: an index out of range or not
    /// strictly increasing, a gap that is not a valid `u32` varint, or
    /// bytes after the last gap.
    BadIndex,
    /// A delta payload was decoded against a base of the wrong length.
    BaseMismatch,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated update payload"),
            CodecError::WrongCodec => write!(f, "payload magic does not match codec"),
            CodecError::BadVersion(v) => write!(f, "unsupported update-codec version {v}"),
            CodecError::BadIndex => write!(f, "bad sparse index in update payload"),
            CodecError::BaseMismatch => write!(f, "delta base length mismatch"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<params::ParamError> for CodecError {
    fn from(e: params::ParamError) -> CodecError {
        match e {
            params::ParamError::Truncated => CodecError::Truncated,
            params::ParamError::BadMagic => CodecError::WrongCodec,
            params::ParamError::BadVersion(v) => CodecError::BadVersion(v),
        }
    }
}

/// A model-update encoding. `Copy` by design: a codec is a *value*
/// (negotiated per session and stamped into role specs), all mutable
/// state — the error-feedback residual — stays with the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateCodec {
    /// Raw little-endian `f32`s — the wire-compatible default, byte-
    /// identical to [`crate::params::serialize`].
    #[default]
    Dense,
    /// Half-precision floats (2 bytes/element).
    Fp16,
    /// Affine int8 quantization: one `(min, scale)` pair per vector,
    /// 1 byte/element.
    Int8,
    /// Top-k sparse delta against a shared base vector: only the largest-
    /// magnitude `per_mille`/1000 of delta coordinates ship.
    TopK {
        /// Coordinates kept per 1000 elements (clamped to ≥ 1 element).
        per_mille: u16,
    },
}

impl UpdateCodec {
    /// The top-k codec at its default density.
    pub const TOP_K_DEFAULT: UpdateCodec = UpdateCodec::TopK {
        per_mille: DEFAULT_TOPK_PER_MILLE,
    };

    /// The codec's wire id.
    pub fn id(self) -> u8 {
        match self {
            UpdateCodec::Dense => CODEC_DENSE,
            UpdateCodec::Fp16 => CODEC_FP16,
            UpdateCodec::Int8 => CODEC_INT8,
            UpdateCodec::TopK { .. } => CODEC_TOPK,
        }
    }

    /// Builds a codec from a wire id (top-k at default density).
    pub fn from_id(id: u8) -> Option<UpdateCodec> {
        match id {
            CODEC_DENSE => Some(UpdateCodec::Dense),
            CODEC_FP16 => Some(UpdateCodec::Fp16),
            CODEC_INT8 => Some(UpdateCodec::Int8),
            CODEC_TOPK => Some(UpdateCodec::TOP_K_DEFAULT),
            _ => None,
        }
    }

    /// Stable name for configs and reports.
    pub fn name(self) -> &'static str {
        match self {
            UpdateCodec::Dense => "dense",
            UpdateCodec::Fp16 => "fp16",
            UpdateCodec::Int8 => "int8",
            UpdateCodec::TopK { .. } => "topk",
        }
    }

    /// True if payloads are deltas against a shared base vector.
    pub fn is_delta(self) -> bool {
        matches!(self, UpdateCodec::TopK { .. })
    }

    /// True if decode(encode(x)) may differ from x.
    pub fn is_lossy(self) -> bool {
        !matches!(self, UpdateCodec::Dense)
    }

    /// Sniffs a payload's codec from its magic bytes.
    pub fn sniff(bytes: &[u8]) -> Option<UpdateCodec> {
        let magic = bytes.get(..3)?;
        if magic == b"SFP" {
            Some(UpdateCodec::Dense)
        } else if magic == FP16_MAGIC {
            Some(UpdateCodec::Fp16)
        } else if magic == INT8_MAGIC {
            Some(UpdateCodec::Int8)
        } else if magic == TOPK_MAGIC {
            Some(UpdateCodec::TOP_K_DEFAULT)
        } else {
            None
        }
    }

    /// Encodes `params`, folding in and updating the caller's error-
    /// feedback `residual` (resized to `params.len()`; lossless codecs
    /// leave it untouched). For delta codecs, `base` is the shared base
    /// vector (`None` = all zeros, the round-1 state); non-delta codecs
    /// ignore it.
    ///
    /// Runs on the process-wide worker pool; output is bit-identical to
    /// [`reference::encode`] at any thread count. Use
    /// [`UpdateCodec::encode_into`] to control the pool and reuse buffers.
    pub fn encode(self, x: &[f32], base: Option<&[f32]>, residual: &mut Vec<f32>) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(x, base, residual, &WorkerPool::global(), &mut out);
        out
    }

    /// Encodes without error feedback (aggregates relayed up the
    /// hierarchy are one-shot: there is no next round to retry their
    /// truncation error in).
    pub fn encode_stateless(self, x: &[f32], base: Option<&[f32]>) -> Vec<u8> {
        let mut residual = Vec::new();
        self.encode(x, base, &mut residual)
    }

    /// [`UpdateCodec::encode`] into a caller-provided buffer (cleared
    /// first), running chunk kernels on `pool`.
    pub fn encode_into(
        self,
        x: &[f32],
        base: Option<&[f32]>,
        residual: &mut Vec<f32>,
        pool: &WorkerPool,
        out: &mut Vec<u8>,
    ) {
        match self {
            UpdateCodec::Dense => params::serialize_into(x, pool, out),
            UpdateCodec::Fp16 => {
                residual.resize(x.len(), 0.0);
                out.clear();
                out.reserve(8 + x.len() * 2);
                out.extend_from_slice(&FP16_MAGIC);
                out.push(FP16_VERSION);
                out.extend_from_slice(&(x.len() as u32).to_le_bytes());
                out.resize(8 + x.len() * 2, 0);
                let body = &mut out[8..];
                let tasks: Vec<EncodeChunk<'_>> = x
                    .chunks(PAR_CHUNK)
                    .zip(residual.chunks_mut(PAR_CHUNK))
                    .zip(body.chunks_mut(PAR_CHUNK * 2))
                    .map(|((x, r), o)| Mutex::new((x, r, o)))
                    .collect();
                pool.run(tasks.len(), |i| {
                    let mut t = tasks[i].lock().unwrap();
                    let (x, r, o) = &mut *t;
                    fp16_encode_chunk(x, r, o);
                });
            }
            UpdateCodec::Int8 => {
                let n = x.len();
                residual.resize(n, 0.0);
                // Pass 1: min/max of the compensated targets v + r. Chunk
                // minima combine in chunk order; min/max is associative
                // for everything this filtered reduction can see except a
                // ±0 extremum, which defers to the serial loop.
                let chunks = parallel::chunk_count(n, PAR_CHUNK);
                let bounds: Vec<Mutex<(f32, f32)>> = (0..chunks)
                    .map(|_| Mutex::new((f32::INFINITY, f32::NEG_INFINITY)))
                    .collect();
                {
                    let res = &residual[..];
                    pool.run(chunks, |i| {
                        let rg = parallel::chunk_range(n, PAR_CHUNK, i);
                        *bounds[i].lock().unwrap() = simd::minmax_finite(&x[rg.clone()], &res[rg]);
                    });
                }
                let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                for b in &bounds {
                    let (l, h) = *b.lock().unwrap();
                    lo = lo.min(l);
                    hi = hi.max(h);
                }
                if lo == 0.0 {
                    lo = simd::minmax_serial(x, residual).0;
                }
                if hi == 0.0 {
                    hi = simd::minmax_serial(x, residual).1;
                }
                if !lo.is_finite() || !hi.is_finite() {
                    (lo, hi) = (0.0, 0.0);
                }
                // The spread is computed in f64: hi − lo can overflow f32
                // (e.g. ±3e38), and an infinite scale would decode every
                // element to NaN and poison the residual.
                let scale = ((hi as f64 - lo as f64) / 255.0) as f32;
                out.clear();
                out.reserve(16 + n);
                out.extend_from_slice(&INT8_MAGIC);
                out.push(INT8_VERSION);
                out.extend_from_slice(&(n as u32).to_le_bytes());
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&scale.to_le_bytes());
                out.resize(16 + n, 0);
                let body = &mut out[16..];
                let tasks: Vec<EncodeChunk<'_>> = x
                    .chunks(PAR_CHUNK)
                    .zip(residual.chunks_mut(PAR_CHUNK))
                    .zip(body.chunks_mut(PAR_CHUNK))
                    .map(|((x, r), o)| Mutex::new((x, r, o)))
                    .collect();
                pool.run(tasks.len(), |i| {
                    let mut t = tasks[i].lock().unwrap();
                    let (x, r, o) = &mut *t;
                    simd::int8_body(x, r, o, lo, scale);
                });
            }
            UpdateCodec::TopK { per_mille } => {
                let n = x.len();
                residual.resize(n, 0.0);
                let chunks = parallel::chunk_count(n, PAR_CHUNK);
                // Compensated delta, computed in place: after this pass
                // `residual[i]` holds e[i] = x[i] − base[i] + r[i], what we
                // *owe* the receiver. Element-local, so chunking is free;
                // each chunk also counts its |e| per histogram bucket.
                let mut hist = vec![0u32; chunks * TOPK_BUCKETS];
                {
                    let tasks: Vec<Mutex<(&mut [f32], &mut [u32])>> = residual
                        .chunks_mut(PAR_CHUNK)
                        .zip(hist.chunks_mut(TOPK_BUCKETS))
                        .map(Mutex::new)
                        .collect();
                    pool.run(chunks, |i| {
                        let mut t = tasks[i].lock().unwrap();
                        let (r, h) = &mut *t;
                        let h: &mut [u32; TOPK_BUCKETS] = (*h).try_into().expect("bucket row");
                        let rg = parallel::chunk_range(n, PAR_CHUNK, i);
                        // Evaluation order pinned to the serial reference
                        // — do not fold into `+=`.
                        #[allow(clippy::assign_op_pattern)]
                        match base {
                            Some(b) => {
                                debug_assert_eq!(b.len(), n);
                                let xb = x[rg.clone()].iter().zip(&b[rg]);
                                for ((v, b), r) in xb.zip(r.iter_mut()) {
                                    *r = v - b + *r;
                                }
                            }
                            None => {
                                for (v, r) in x[rg].iter().zip(r.iter_mut()) {
                                    *r = v + *r;
                                }
                            }
                        }
                        // A second loop over the chunk, still in cache: fused
                        // into the one above, it stops that one vectorizing.
                        for e in r.iter() {
                            h[topk_bucket(*e)] += 1;
                        }
                    });
                }
                let k = top_k_count(n, per_mille);
                let order: Vec<u32> = if k < n {
                    topk_threshold_select(residual, &hist, k, pool)
                } else {
                    (0..n as u32).collect()
                };
                out.clear();
                out.reserve(12 + order.len() * 9);
                out.extend_from_slice(&TOPK_MAGIC);
                out.push(TOPK_VERSION);
                out.extend_from_slice(&(n as u32).to_le_bytes());
                out.extend_from_slice(&(order.len() as u32).to_le_bytes());
                for &idx in &order {
                    let i = idx as usize;
                    out.extend_from_slice(&residual[i].to_le_bytes());
                    residual[i] = 0.0; // shipped exactly: nothing owed
                }
                let mut prev = 0;
                for &idx in &order {
                    put_varint(out, idx - prev);
                    prev = idx;
                }
            }
        }
    }

    /// Decodes a payload back to a full-length vector. For delta codecs,
    /// `base` must be the same base the sender encoded against (`None` =
    /// all zeros); non-delta codecs ignore it.
    ///
    /// Runs on the process-wide worker pool; results are identical to
    /// [`reference::decode`] at any thread count. Use
    /// [`UpdateCodec::decode_into`] to control the pool and reuse buffers.
    pub fn decode(self, bytes: &[u8], base: Option<&[f32]>) -> Result<Vec<f32>, CodecError> {
        let mut out = Vec::new();
        self.decode_into(bytes, base, &WorkerPool::global(), &mut out)?;
        Ok(out)
    }

    /// [`UpdateCodec::decode`] into a caller-provided buffer (cleared
    /// first), running chunk kernels on `pool`. Dense decoding is a single
    /// copy and runs on the calling thread.
    pub fn decode_into(
        self,
        bytes: &[u8],
        base: Option<&[f32]>,
        pool: &WorkerPool,
        out: &mut Vec<f32>,
    ) -> Result<(), CodecError> {
        match self {
            UpdateCodec::Dense => Ok(params::deserialize_into(bytes, out)?),
            UpdateCodec::Fp16 => {
                let (count, body) = check_header(bytes, &FP16_MAGIC, FP16_VERSION)?;
                if body.len() < count * 2 {
                    return Err(CodecError::Truncated);
                }
                out.clear();
                out.resize(count, 0.0);
                let tasks: Vec<Mutex<(&[u8], &mut [f32])>> = body[..count * 2]
                    .chunks(PAR_CHUNK * 2)
                    .zip(out.chunks_mut(PAR_CHUNK))
                    .map(Mutex::new)
                    .collect();
                pool.run(tasks.len(), |i| {
                    let mut t = tasks[i].lock().unwrap();
                    let (src, dst) = &mut *t;
                    for (o, v) in src.chunks_exact(2).zip(dst.iter_mut()) {
                        *v = f16_to_f32(u16::from_le_bytes([o[0], o[1]]));
                    }
                });
                Ok(())
            }
            UpdateCodec::Int8 => {
                let (count, body) = check_header(bytes, &INT8_MAGIC, INT8_VERSION)?;
                if body.len() < 8 + count {
                    return Err(CodecError::Truncated);
                }
                let lo = f32::from_le_bytes(body[0..4].try_into().expect("4 bytes"));
                let scale = f32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
                out.clear();
                out.resize(count, 0.0);
                let tasks: Vec<Mutex<(&[u8], &mut [f32])>> = body[8..8 + count]
                    .chunks(PAR_CHUNK)
                    .zip(out.chunks_mut(PAR_CHUNK))
                    .map(Mutex::new)
                    .collect();
                pool.run(tasks.len(), |i| {
                    let mut t = tasks[i].lock().unwrap();
                    let (src, dst) = &mut *t;
                    for (q, v) in src.iter().zip(dst.iter_mut()) {
                        *v = dequant_int8(lo, scale, *q) as f32;
                    }
                });
                Ok(())
            }
            UpdateCodec::TopK { .. } => {
                // Sparse payloads are small (k ≪ n) and sequential by
                // construction (gap-coded indices): no parallel pass is
                // worth its dispatch here.
                let (count, body) = check_header(bytes, &TOPK_MAGIC, TOPK_VERSION)?;
                if body.len() < 4 {
                    return Err(CodecError::Truncated);
                }
                let nnz = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes")) as usize;
                if nnz > count {
                    return Err(CodecError::BadIndex);
                }
                // Bounded by the body before anything is sized by it: each
                // entry takes 4 value bytes and at least 1 gap byte.
                if nnz > (body.len() - 4) / 5 {
                    return Err(CodecError::Truncated);
                }
                let (values, gaps) = body[4..].split_at(nnz * 4);
                out.clear();
                match base {
                    Some(b) => {
                        if b.len() != count {
                            return Err(CodecError::BaseMismatch);
                        }
                        out.extend_from_slice(b);
                    }
                    None => {
                        // The other codecs tie `count` to the payload
                        // length; a sparse frame has no such tie, so the
                        // zero-base allocation is the one place a
                        // 24-byte frame could demand gigabytes. Cap it.
                        if count > MAX_SPARSE_ELEMS {
                            return Err(CodecError::BadIndex);
                        }
                        out.resize(count, 0.0);
                    }
                }
                let out = &mut out[..count];
                // `idx` is the previous index, `next` the least the next
                // one may be: the first gap may be 0, later ones may not.
                let (mut pos, mut idx, mut next) = (0, 0usize, 0);
                for val in values.chunks_exact(4) {
                    let gap = match gaps.get(pos) {
                        Some(&b) if b < 0x80 => {
                            pos += 1;
                            b as usize
                        }
                        _ => get_varint(gaps, &mut pos)? as usize,
                    };
                    idx = idx.saturating_add(gap);
                    if idx < next || idx >= count {
                        return Err(CodecError::BadIndex);
                    }
                    next = idx + 1;
                    out[idx] += f32::from_le_bytes(val.try_into().expect("4 bytes"));
                }
                if pos != gaps.len() {
                    return Err(CodecError::BadIndex);
                }
                Ok(())
            }
        }
    }
}

/// The top-k selection key: `|e|`'s bits above the inverted index. Larger
/// key = selected first, which is exactly the reference's strict order
/// (largest |e| first by `total_cmp`, ties to the smaller index): `abs`
/// clears the sign, and `total_cmp` on non-negative floats is bit order,
/// with NaN payloads above ∞.
#[inline]
fn topk_key(e: f32, idx: u32) -> u64 {
    ((e.abs().to_bits() as u64) << 32) | u64::from(!idx)
}

/// The histogram bucket of `|e|`: the top bits of its key.
#[inline]
fn topk_bucket(e: f32) -> usize {
    ((e.to_bits() & 0x7fff_ffff) >> TOPK_BUCKET_SHIFT) as usize
}

/// Returns the indices, ascending, of the `k` largest keys of `e`, given
/// each chunk's bucket counts of it in `hist` (`0 < k < e.len()`).
///
/// The chunk counts, summed, name the *boundary bucket*: the highest one
/// at or above which at least `k` elements lie. Every key above it is
/// selected and the k-th largest key is in it, so only keys at or above
/// it are collected — chunk-parallel, into disjoint slots sized by the
/// counts, so in index order. One `select_nth_unstable` over the boundary
/// bucket's keys finds the k-th key, and the collected keys at or above it
/// are the selection, still in index order: no sort needed. Integer counts
/// and a strict key order make the result independent of the thread
/// count. If every element ties, the boundary bucket holds all of them
/// and this degrades to one full select.
fn topk_threshold_select(e: &[f32], hist: &[u32], k: usize, pool: &WorkerPool) -> Vec<u32> {
    let n = e.len();
    let mut total = [0usize; TOPK_BUCKETS];
    for row in hist.chunks(TOPK_BUCKETS) {
        for (t, c) in total.iter_mut().zip(row) {
            *t += *c as usize;
        }
    }
    // `higher`: elements in buckets above `cut`, all of them selected.
    let (mut cut, mut higher) = (TOPK_BUCKETS - 1, 0);
    while higher + total[cut] < k {
        higher += total[cut];
        cut -= 1;
    }
    let mut keys = vec![0u64; higher + total[cut]];
    let mut slots = Vec::with_capacity(hist.len() / TOPK_BUCKETS);
    let mut rest = &mut keys[..];
    for row in hist.chunks(TOPK_BUCKETS) {
        let len: usize = row[cut..].iter().map(|c| *c as usize).sum();
        let (slot, tail) = rest.split_at_mut(len);
        slots.push(Mutex::new(slot));
        rest = tail;
    }
    pool.run(slots.len(), |i| {
        let mut slot = slots[i].lock().unwrap();
        if slot.is_empty() {
            return;
        }
        let rg = parallel::chunk_range(n, PAR_CHUNK, i);
        let mut j = 0;
        for (idx, v) in rg.clone().zip(&e[rg]) {
            if topk_bucket(*v) >= cut {
                slot[j] = topk_key(*v, idx as u32);
                j += 1;
            }
        }
    });
    drop(slots);
    let next = ((cut + 1) as u64) << (32 + TOPK_BUCKET_SHIFT);
    let mut ties: Vec<u64> = keys.iter().copied().filter(|key| *key < next).collect();
    let at = ties.len() - (k - higher);
    let threshold = *ties.select_nth_unstable(at).1;
    keys.iter()
        .filter(|key| **key >= threshold)
        .map(|key| !(*key as u32))
        .collect()
}

/// Appends `v` as an LEB128 varint (1–5 bytes).
#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint from `buf` at `*pos`, advancing it. More than
/// five bytes, or a value above `u32::MAX`, is a bad index.
#[inline]
fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let b = *buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift == 28 && b > 0x0f {
            return Err(CodecError::BadIndex);
        }
        v |= u32::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// One fp16 chunk: element-local encode + residual update, shared by the
/// parallel path at every thread count.
fn fp16_encode_chunk(x: &[f32], residual: &mut [f32], out: &mut [u8]) {
    for ((v, r), o) in x
        .iter()
        .zip(residual.iter_mut())
        .zip(out.chunks_exact_mut(2))
    {
        let target = v + *r;
        if target.is_finite() {
            // Saturate instead of converting to ±inf: an overflowing
            // target would otherwise leave an infinite residual
            // (target − inf) that poisons every later round.
            let clamped = target.clamp(-F16_MAX, F16_MAX);
            let h = f32_to_f16(clamped);
            o.copy_from_slice(&h.to_le_bytes());
            *r = target - f16_to_f32(h);
        } else {
            // Non-finite model values ship as-is; feeding them back
            // would turn the residual into NaN.
            o.copy_from_slice(&f32_to_f16(target).to_le_bytes());
            *r = 0.0;
        }
    }
}

/// Reconstructs an int8 grid point in f64 — `q · scale` can overflow f32
/// at extreme spreads even though the grid point itself is a finite f32.
fn dequant_int8(lo: f32, scale: f32, q: u8) -> f64 {
    lo as f64 + q as f64 * scale as f64
}

/// Number of coordinates the top-k codec keeps for an `n`-element vector.
pub fn top_k_count(n: usize, per_mille: u16) -> usize {
    if n == 0 {
        return 0;
    }
    ((n * per_mille as usize) / 1000).max(1).min(n)
}

/// Validates a lossy-codec header (magic, the `version` this build
/// speaks, element count) and returns `(count, rest)`.
fn check_header<'a>(
    bytes: &'a [u8],
    magic: &[u8; 3],
    version: u8,
) -> Result<(usize, &'a [u8]), CodecError> {
    if bytes.len() < 8 {
        return Err(CodecError::Truncated);
    }
    if &bytes[..3] != magic {
        return Err(CodecError::WrongCodec);
    }
    if bytes[3] != version {
        return Err(CodecError::BadVersion(bytes[3]));
    }
    let count = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    Ok((count, &bytes[8..]))
}

/// Converts an `f32` to IEEE 754 binary16 bits, rounding to nearest even.
///
/// Bit-twiddling fast path (integer RTNE with carry through the exponent),
/// bit-identical to [`reference::f32_to_f16`] — the hand-rolled branchy
/// version it replaced — for every input.
pub fn f32_to_f16(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    if abs >= 0x7f80_0000 {
        // Inf / NaN: keep NaN-ness even when the top mantissa bits are 0.
        let man = bits & 0x007f_ffff;
        let payload = (man >> 13) as u16;
        let quiet = u16::from(man != 0 && payload == 0);
        return sign | 0x7c00 | payload | quiet;
    }
    if abs >= 0x4780_0000 {
        return sign | 0x7c00; // unbiased exponent > 15: overflow → ±inf
    }
    if abs >= 0x3880_0000 {
        // Normal half: round-to-nearest-even as one integer add — the
        // +0x0fff (+1 on odd) carries through mantissa and exponent in
        // one go, including the carry to ±inf at the top of the range.
        let rounded = abs + 0x0fff + ((abs >> 13) & 1);
        return sign | ((rounded - (112 << 23)) >> 13) as u16;
    }
    if abs >= 0x3380_0000 {
        // Subnormal half (unbiased exponent in −24..−15).
        let unbiased = ((bits >> 23) & 0xff) as i32 - 127;
        let full = (bits & 0x007f_ffff) | 0x0080_0000;
        let shift = (13 - 14 - unbiased) as u32;
        let mut m = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        if rem > half || (rem == half && (m & 1) == 1) {
            m += 1; // may carry into the exponent field: still correct
        }
        return sign | m as u16;
    }
    sign // underflows to ±0
}

/// Converts IEEE 754 binary16 bits to an `f32` (exact).
///
/// Branch-light bit-shift construction, bit-identical to
/// [`reference::f16_to_f32`] for all 65536 inputs (tested exhaustively).
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let mut o = ((h as u32 & 0x7fff) << 13) + ((127 - 15) << 23);
    let exp = (h >> 10) & 0x1f;
    if exp == 31 {
        o += (128 - 16) << 23; // re-bias inf/NaN exponent to 255
    } else if exp == 0 {
        // Subnormal (or zero): renormalize by floating-point subtraction
        // of the implicit-one magic constant.
        o += 1 << 23;
        o = (f32::from_bits(o) - f32::from_bits(113 << 23)).to_bits();
    }
    f32::from_bits(o | sign)
}

pub mod reference {
    //! The serial codec implementations, kept verbatim as the oracle for
    //! differential tests (and the 1-thread baseline in benches). The
    //! parallel paths in [`UpdateCodec`] must stay bit-identical to these
    //! — chaos trace hashes pin bit-exact global models.

    use super::{
        check_header, dequant_int8, params, top_k_count, CodecError, UpdateCodec, F16_MAX,
        FP16_MAGIC, FP16_VERSION, INT8_MAGIC, INT8_VERSION, MAX_SPARSE_ELEMS, TOPK_MAGIC,
        TOPK_VERSION,
    };

    /// Serial [`UpdateCodec::encode`].
    pub fn encode(
        codec: UpdateCodec,
        x: &[f32],
        base: Option<&[f32]>,
        residual: &mut Vec<f32>,
    ) -> Vec<u8> {
        match codec {
            UpdateCodec::Dense => params::serialize(x),
            UpdateCodec::Fp16 => {
                residual.resize(x.len(), 0.0);
                let mut out = Vec::with_capacity(8 + x.len() * 2);
                out.extend_from_slice(&FP16_MAGIC);
                out.push(FP16_VERSION);
                out.extend_from_slice(&(x.len() as u32).to_le_bytes());
                for (v, r) in x.iter().zip(residual.iter_mut()) {
                    let target = v + *r;
                    if target.is_finite() {
                        let clamped = target.clamp(-F16_MAX, F16_MAX);
                        let h = f32_to_f16(clamped);
                        out.extend_from_slice(&h.to_le_bytes());
                        *r = target - f16_to_f32(h);
                    } else {
                        out.extend_from_slice(&f32_to_f16(target).to_le_bytes());
                        *r = 0.0;
                    }
                }
                out
            }
            UpdateCodec::Int8 => {
                residual.resize(x.len(), 0.0);
                let targets: Vec<f32> = x.iter().zip(residual.iter()).map(|(v, r)| v + r).collect();
                let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                for t in &targets {
                    if t.is_finite() {
                        lo = lo.min(*t);
                        hi = hi.max(*t);
                    }
                }
                if !lo.is_finite() || !hi.is_finite() {
                    (lo, hi) = (0.0, 0.0);
                }
                let scale = ((hi as f64 - lo as f64) / 255.0) as f32;
                let mut out = Vec::with_capacity(16 + targets.len());
                out.extend_from_slice(&INT8_MAGIC);
                out.push(INT8_VERSION);
                out.extend_from_slice(&(targets.len() as u32).to_le_bytes());
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&scale.to_le_bytes());
                for (t, r) in targets.iter().zip(residual.iter_mut()) {
                    let q = if scale > 0.0 && t.is_finite() {
                        ((*t as f64 - lo as f64) / scale as f64)
                            .round()
                            .clamp(0.0, 255.0) as u8
                    } else {
                        0
                    };
                    out.push(q);
                    *r = if t.is_finite() {
                        (*t as f64 - dequant_int8(lo, scale, q)) as f32
                    } else {
                        0.0
                    };
                }
                out
            }
            UpdateCodec::TopK { per_mille } => {
                residual.resize(x.len(), 0.0);
                let mut e: Vec<f32> = match base {
                    Some(b) => {
                        debug_assert_eq!(b.len(), x.len());
                        x.iter()
                            .zip(b)
                            .zip(residual.iter())
                            .map(|((v, b), r)| v - b + r)
                            .collect()
                    }
                    None => x.iter().zip(residual.iter()).map(|(v, r)| v + r).collect(),
                };
                let k = top_k_count(x.len(), per_mille);
                let mut order: Vec<u32> = (0..e.len() as u32).collect();
                if k < order.len() {
                    order.select_nth_unstable_by(k, |&a, &b| {
                        let (ma, mb) = (e[a as usize].abs(), e[b as usize].abs());
                        mb.total_cmp(&ma).then(a.cmp(&b))
                    });
                    order.truncate(k);
                }
                order.sort_unstable();
                let mut out = Vec::with_capacity(12 + order.len() * 9);
                out.extend_from_slice(&TOPK_MAGIC);
                out.push(TOPK_VERSION);
                out.extend_from_slice(&(x.len() as u32).to_le_bytes());
                out.extend_from_slice(&(order.len() as u32).to_le_bytes());
                for idx in &order {
                    out.extend_from_slice(&e[*idx as usize].to_le_bytes());
                    e[*idx as usize] = 0.0;
                }
                for (p, idx) in order.iter().enumerate() {
                    let mut gap = if p == 0 { *idx } else { idx - order[p - 1] };
                    loop {
                        let low = (gap & 0x7f) as u8;
                        gap >>= 7;
                        if gap == 0 {
                            out.push(low);
                            break;
                        }
                        out.push(low | 0x80);
                    }
                }
                *residual = e;
                out
            }
        }
    }

    /// Serial [`UpdateCodec::encode_stateless`].
    pub fn encode_stateless(codec: UpdateCodec, x: &[f32], base: Option<&[f32]>) -> Vec<u8> {
        let mut residual = Vec::new();
        encode(codec, x, base, &mut residual)
    }

    /// Serial [`UpdateCodec::decode`].
    pub fn decode(
        codec: UpdateCodec,
        bytes: &[u8],
        base: Option<&[f32]>,
    ) -> Result<Vec<f32>, CodecError> {
        match codec {
            UpdateCodec::Dense => Ok(params::deserialize(bytes)?),
            UpdateCodec::Fp16 => {
                let (count, body) = check_header(bytes, &FP16_MAGIC, FP16_VERSION)?;
                if body.len() < count * 2 {
                    return Err(CodecError::Truncated);
                }
                Ok((0..count)
                    .map(|i| f16_to_f32(u16::from_le_bytes([body[i * 2], body[i * 2 + 1]])))
                    .collect())
            }
            UpdateCodec::Int8 => {
                let (count, body) = check_header(bytes, &INT8_MAGIC, INT8_VERSION)?;
                if body.len() < 8 + count {
                    return Err(CodecError::Truncated);
                }
                let lo = f32::from_le_bytes(body[0..4].try_into().expect("4 bytes"));
                let scale = f32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
                Ok(body[8..8 + count]
                    .iter()
                    .map(|q| dequant_int8(lo, scale, *q) as f32)
                    .collect())
            }
            UpdateCodec::TopK { .. } => {
                let (count, body) = check_header(bytes, &TOPK_MAGIC, TOPK_VERSION)?;
                if body.len() < 4 {
                    return Err(CodecError::Truncated);
                }
                let nnz = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes")) as usize;
                if nnz > count {
                    return Err(CodecError::BadIndex);
                }
                // Every entry is 4 value bytes and at least 1 gap byte.
                if body.len() - 4 < nnz * 5 {
                    return Err(CodecError::Truncated);
                }
                let mut out = match base {
                    Some(b) => {
                        if b.len() != count {
                            return Err(CodecError::BaseMismatch);
                        }
                        b.to_vec()
                    }
                    None => {
                        if count > MAX_SPARSE_ELEMS {
                            return Err(CodecError::BadIndex);
                        }
                        vec![0.0f32; count]
                    }
                };
                let values = &body[4..4 + nnz * 4];
                let gaps = &body[4 + nnz * 4..];
                // Pass 1: the whole index stream, strictly increasing and
                // in range, with nothing after it.
                let mut indices: Vec<u64> = Vec::with_capacity(nnz);
                let mut at = 0usize;
                for p in 0..nnz {
                    let mut gap = 0u64;
                    let mut len = 0;
                    loop {
                        let Some(&b) = gaps.get(at) else {
                            return Err(CodecError::Truncated);
                        };
                        at += 1;
                        gap |= u64::from(b & 0x7f) << (7 * len);
                        len += 1;
                        if b & 0x80 == 0 {
                            break;
                        }
                        if len == 5 {
                            return Err(CodecError::BadIndex); // a 6th byte
                        }
                    }
                    if gap > u64::from(u32::MAX) || (p > 0 && gap == 0) {
                        return Err(CodecError::BadIndex);
                    }
                    let idx = if p == 0 { gap } else { indices[p - 1] + gap };
                    if idx >= count as u64 {
                        return Err(CodecError::BadIndex);
                    }
                    indices.push(idx);
                }
                if at != gaps.len() {
                    return Err(CodecError::BadIndex);
                }
                // Pass 2: apply the values.
                for (idx, val) in indices.iter().zip(values.chunks_exact(4)) {
                    out[*idx as usize] += f32::from_le_bytes(val.try_into().expect("4 bytes"));
                }
                Ok(out)
            }
        }
    }

    /// The original branchy `f32` → binary16 conversion (RTNE).
    pub fn f32_to_f16(value: f32) -> u16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let man = bits & 0x007f_ffff;
        if exp == 255 {
            // Inf / NaN: keep NaN-ness even when the top mantissa bits are 0.
            let payload = (man >> 13) as u16;
            let quiet = u16::from(man != 0 && payload == 0);
            return sign | 0x7c00 | payload | quiet;
        }
        let unbiased = exp - 127;
        if unbiased > 15 {
            return sign | 0x7c00; // overflow → ±inf
        }
        if unbiased >= -14 {
            // Normal half.
            let e = (unbiased + 15) as u32;
            let mut m = man >> 13;
            let rem = man & 0x1fff;
            if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
                m += 1;
                if m == 0x400 {
                    // Mantissa carry bumps the exponent (e == 30 → inf is
                    // exactly the binary16 rounding rule).
                    return sign | (((e + 1) << 10) as u16);
                }
            }
            return sign | ((e << 10) as u16) | m as u16;
        }
        if unbiased >= -24 {
            // Subnormal half.
            let full = man | 0x0080_0000;
            let shift = (13 - 14 - unbiased) as u32;
            let mut m = full >> shift;
            let rem = full & ((1u32 << shift) - 1);
            let half = 1u32 << (shift - 1);
            if rem > half || (rem == half && (m & 1) == 1) {
                m += 1; // may carry into the exponent field: still correct
            }
            return sign | m as u16;
        }
        sign // underflows to ±0
    }

    /// The original branchy binary16 → `f32` conversion (exact).
    pub fn f16_to_f32(h: u16) -> f32 {
        let sign = ((h & 0x8000) as u32) << 16;
        let exp = ((h >> 10) & 0x1f) as u32;
        let man = (h & 0x3ff) as u32;
        let bits = if exp == 31 {
            sign | 0x7f80_0000 | (man << 13)
        } else if exp == 0 {
            if man == 0 {
                sign
            } else {
                // Subnormal: renormalize into f32's wider exponent range.
                let mut e: i32 = 127 - 15 + 1;
                let mut m = man;
                while m & 0x400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                sign | ((e as u32) << 23) | ((m & 0x3ff) << 13)
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (man << 13)
        };
        f32::from_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.37).sin() * (1.0 + (i % 17) as f32 * 0.25))
            .collect()
    }

    #[test]
    fn dense_is_byte_identical_to_params_serialize() {
        let x = ramp(257);
        let mut residual = Vec::new();
        let enc = UpdateCodec::Dense.encode(&x, None, &mut residual);
        assert_eq!(enc, params::serialize(&x));
        assert!(residual.is_empty(), "dense never touches the residual");
        assert_eq!(UpdateCodec::Dense.decode(&enc, None).unwrap(), x);
    }

    #[test]
    fn f16_conversion_exact_cases() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0] {
            assert_eq!(f16_to_f32(f32_to_f16(v)), v, "{v}");
        }
        assert_eq!(f16_to_f32(f32_to_f16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(f32::NEG_INFINITY)), f32::NEG_INFINITY);
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        // Overflow saturates to infinity; tiny values flush to zero.
        assert_eq!(f16_to_f32(f32_to_f16(1e9)), f32::INFINITY);
        assert_eq!(f16_to_f32(f32_to_f16(1e-30)), 0.0);
        // Subnormal halves round-trip.
        let sub = f16_to_f32(0x0001);
        assert_eq!(f32_to_f16(sub), 0x0001);
    }

    #[test]
    fn f16_decode_fast_path_matches_reference_exhaustively() {
        for h in 0..=u16::MAX {
            let fast = f16_to_f32(h);
            let slow = reference::f16_to_f32(h);
            assert_eq!(fast.to_bits(), slow.to_bits(), "h = {h:#06x}");
        }
    }

    #[test]
    fn f16_encode_fast_path_matches_reference() {
        // Every binary16 value and its f32 neighbours (covers all exact
        // and near-boundary inputs), plus a dense stride over the whole
        // f32 bit space and the format's branch thresholds.
        for h in 0..=u16::MAX {
            let v = reference::f16_to_f32(h);
            for ulp in [-2i64, -1, 0, 1, 2] {
                let w = f32::from_bits((v.to_bits() as i64).wrapping_add(ulp) as u32);
                assert_eq!(f32_to_f16(w), reference::f32_to_f16(w), "{w} bits");
            }
        }
        for (i, &edge) in [0x3380_0000u32, 0x3880_0000, 0x4780_0000, 0x7f80_0000]
            .iter()
            .enumerate()
        {
            for delta in -4i64..=4 {
                for sign in [0u32, 0x8000_0000] {
                    let bits = (edge as i64 + delta) as u32 | sign;
                    let v = f32::from_bits(bits);
                    assert_eq!(
                        f32_to_f16(v),
                        reference::f32_to_f16(v),
                        "edge {i} {bits:#x}"
                    );
                }
            }
        }
        let mut bits = 0u32;
        loop {
            let v = f32::from_bits(bits);
            assert_eq!(f32_to_f16(v), reference::f32_to_f16(v), "{bits:#x}");
            match bits.checked_add(99_991) {
                Some(b) => bits = b,
                None => break,
            }
        }
    }

    /// Differential harness: parallel encode/decode at several thread
    /// counts must be byte- and bit-identical to the serial reference.
    fn assert_parallel_matches_reference(codec: UpdateCodec, x: &[f32], base: Option<&[f32]>) {
        let mut ref_residual = Vec::new();
        let ref_enc = reference::encode(codec, x, base, &mut ref_residual);
        let ref_dec = reference::decode(codec, &ref_enc, base).unwrap();
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let mut residual = Vec::new();
            let mut enc = Vec::new();
            codec.encode_into(x, base, &mut residual, &pool, &mut enc);
            assert_eq!(enc, ref_enc, "{} bytes @ {threads} threads", codec.name());
            let res_bits: Vec<u32> = residual.iter().map(|v| v.to_bits()).collect();
            let ref_bits: Vec<u32> = ref_residual.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                res_bits,
                ref_bits,
                "{} residual @ {threads} threads",
                codec.name()
            );
            let mut dec = Vec::new();
            codec.decode_into(&enc, base, &pool, &mut dec).unwrap();
            let dec_bits: Vec<u32> = dec.iter().map(|v| v.to_bits()).collect();
            let refd_bits: Vec<u32> = ref_dec.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                dec_bits,
                refd_bits,
                "{} decode @ {threads} threads",
                codec.name()
            );
        }
    }

    #[test]
    fn parallel_codecs_match_reference_across_chunk_boundaries() {
        // Adversarial lengths around the fixed chunk size, plus a
        // multi-chunk length, with specials sprinkled in.
        for n in [0usize, 1, PAR_CHUNK - 1, PAR_CHUNK, PAR_CHUNK + 1, 20_000] {
            let mut x = ramp(n);
            if n > 10 {
                x[1] = f32::INFINITY;
                x[3] = f32::NAN;
                x[5] = -0.0;
                x[7] = 0.0;
            }
            let base: Vec<f32> = (0..n).map(|i| (i % 13) as f32 * 0.5 - 3.0).collect();
            for codec in [
                UpdateCodec::Dense,
                UpdateCodec::Fp16,
                UpdateCodec::Int8,
                UpdateCodec::TOP_K_DEFAULT,
                UpdateCodec::TopK { per_mille: 900 },
            ] {
                assert_parallel_matches_reference(codec, &x, None);
                if codec.is_delta() {
                    assert_parallel_matches_reference(codec, &x, Some(&base));
                }
            }
        }
    }

    #[test]
    fn parallel_encode_is_deterministic_round_over_round() {
        // Residual feedback across rounds must evolve identically to the
        // reference, not just within a single call.
        let n = 2 * PAR_CHUNK + 77;
        let x = ramp(n);
        let pool = WorkerPool::new(4);
        for codec in [
            UpdateCodec::Fp16,
            UpdateCodec::Int8,
            UpdateCodec::TOP_K_DEFAULT,
        ] {
            let mut ref_residual = Vec::new();
            let mut par_residual = Vec::new();
            for round in 0..3 {
                let ref_enc = reference::encode(codec, &x, None, &mut ref_residual);
                let mut enc = Vec::new();
                codec.encode_into(&x, None, &mut par_residual, &pool, &mut enc);
                assert_eq!(enc, ref_enc, "{} round {round}", codec.name());
            }
        }
    }

    #[test]
    fn fp16_roundtrip_error_bounded() {
        let x = ramp(500);
        let enc = UpdateCodec::Fp16.encode_stateless(&x, None);
        assert_eq!(enc.len(), 8 + x.len() * 2);
        let dec = UpdateCodec::Fp16.decode(&enc, None).unwrap();
        for (a, b) in x.iter().zip(&dec) {
            assert!((a - b).abs() <= a.abs() / 1024.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn fp16_overflow_saturates_and_residual_stays_finite() {
        let x = vec![1e9f32, -1e9, 1.0];
        let mut residual = Vec::new();
        let enc = UpdateCodec::Fp16.encode(&x, None, &mut residual);
        let dec = UpdateCodec::Fp16.decode(&enc, None).unwrap();
        // Saturated, not ±inf — and the overflow remainder is owed.
        assert_eq!(dec[0], 65504.0);
        assert_eq!(dec[1], -65504.0);
        assert!(residual.iter().all(|r| r.is_finite()), "{residual:?}");
        assert!((residual[0] - (1e9 - 65504.0)).abs() < 1e3);

        // Non-finite model values pass through without poisoning the
        // residual with inf − inf = NaN.
        let weird = vec![f32::INFINITY, f32::NAN, 2.0];
        let mut residual = Vec::new();
        let enc = UpdateCodec::Fp16.encode(&weird, None, &mut residual);
        let dec = UpdateCodec::Fp16.decode(&enc, None).unwrap();
        assert_eq!(dec[0], f32::INFINITY);
        assert!(dec[1].is_nan());
        assert!(residual.iter().all(|r| r.is_finite()), "{residual:?}");

        let mut residual = Vec::new();
        let _ = UpdateCodec::Int8.encode(&weird, None, &mut residual);
        assert!(residual.iter().all(|r| r.is_finite()), "{residual:?}");
    }

    #[test]
    fn int8_roundtrip_error_bounded_by_half_step() {
        let x = ramp(400);
        let enc = UpdateCodec::Int8.encode_stateless(&x, None);
        assert_eq!(enc.len(), 16 + x.len());
        let dec = UpdateCodec::Int8.decode(&enc, None).unwrap();
        let (lo, hi) = x.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |a, v| {
            (a.0.min(*v), a.1.max(*v))
        });
        let step = (hi - lo) / 255.0;
        for (a, b) in x.iter().zip(&dec) {
            assert!((a - b).abs() <= step * 0.5 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn int8_constant_vector_is_exact() {
        let x = vec![3.25f32; 64];
        let dec = UpdateCodec::Int8
            .decode(&UpdateCodec::Int8.encode_stateless(&x, None), None)
            .unwrap();
        assert_eq!(dec, x);
    }

    #[test]
    fn int8_extreme_spread_stays_finite() {
        // hi − lo overflows f32 here; the f64 scale computation must keep
        // the grid (and therefore residual and decode) finite.
        let x = vec![-3e38f32, 3e38, 0.0];
        let mut residual = Vec::new();
        let enc = UpdateCodec::Int8.encode(&x, None, &mut residual);
        let dec = UpdateCodec::Int8.decode(&enc, None).unwrap();
        assert!(dec.iter().all(|v| v.is_finite()), "{dec:?}");
        assert!(residual.iter().all(|v| v.is_finite()), "{residual:?}");
    }

    #[test]
    fn int8_signed_zero_extremum_matches_reference() {
        // A vector whose min (and max) is ±0 with mixed zero signs is the
        // one case where a reordered min/max could pick the other zero;
        // the parallel path must still reproduce the serial bytes.
        for n in [9usize, PAR_CHUNK + 9] {
            let mut x = vec![0.5f32; n];
            for (i, v) in x.iter_mut().enumerate() {
                *v = match i % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1.0,
                    _ => 0.5,
                };
            }
            assert_parallel_matches_reference(UpdateCodec::Int8, &x, None);
            // All-negative-zero lower bound, mixed upper.
            let y: Vec<f32> = (0..n)
                .map(|i| if i % 2 == 0 { -0.0 } else { 0.0 })
                .collect();
            assert_parallel_matches_reference(UpdateCodec::Int8, &y, None);
        }
    }

    /// A hand-built top-k v2 frame: header, `values`, then raw gap bytes.
    fn sparse_frame(count: u32, nnz: u32, values: &[f32], gaps: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&TOPK_MAGIC);
        frame.push(TOPK_VERSION);
        frame.extend_from_slice(&count.to_le_bytes());
        frame.extend_from_slice(&nnz.to_le_bytes());
        for v in values {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        frame.extend_from_slice(gaps);
        frame
    }

    /// Decodes with the parallel and the reference decoder, requires the
    /// two to agree, and returns the parallel result.
    fn decode_both(bytes: &[u8], base: Option<&[f32]>) -> Result<Vec<f32>, CodecError> {
        let codec = UpdateCodec::TOP_K_DEFAULT;
        let fast = codec.decode(bytes, base);
        let slow = reference::decode(codec, bytes, base);
        let bits = |r: &Result<Vec<f32>, CodecError>| {
            r.clone()
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(&fast), bits(&slow), "parallel vs reference decode");
        fast
    }

    #[test]
    fn topk_zero_base_count_is_capped() {
        // A 16-byte frame must not be able to demand a 16 GiB allocation:
        // count is only trusted up to MAX_SPARSE_ELEMS when there is no
        // base vector to check it against.
        let frame = sparse_frame(u32::MAX, 0, &[], &[]);
        assert_eq!(frame.len(), 12);
        assert_eq!(decode_both(&frame, None), Err(CodecError::BadIndex));
        // With a base, the length check still governs.
        assert_eq!(
            decode_both(&frame, Some(&[0.0; 4])),
            Err(CodecError::BaseMismatch)
        );
    }

    #[test]
    fn a_v1_sparse_frame_is_refused() {
        // The version-1 layout: interleaved (u32 index, f32 value) pairs.
        // Every peer runs the same build, so v1 is refused, not read.
        let mut frame = Vec::new();
        frame.extend_from_slice(&TOPK_MAGIC);
        frame.push(1);
        frame.extend_from_slice(&4u32.to_le_bytes());
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&2u32.to_le_bytes());
        frame.extend_from_slice(&1.5f32.to_le_bytes());
        assert_eq!(decode_both(&frame, None), Err(CodecError::BadVersion(1)));
        assert_eq!(
            decode_both(&frame, Some(&[0.0; 4])),
            Err(CodecError::BadVersion(1))
        );
        // The same entry as a v2 frame decodes.
        let v2 = sparse_frame(4, 1, &[1.5], &[2]);
        assert_eq!(decode_both(&v2, None), Ok(vec![0.0, 0.0, 1.5, 0.0]));
    }

    #[test]
    fn topk_v2_decoder_rejects_malformed_index_streams() {
        let cases: Vec<(&str, Vec<u8>, CodecError)> = vec![
            (
                "6-byte varint",
                sparse_frame(10, 1, &[1.0], &[0x80, 0x80, 0x80, 0x80, 0x80, 0x00]),
                CodecError::BadIndex,
            ),
            (
                // 2^32 + 1: truncated to 32 bits it would be index 1.
                "gap overflowing u32",
                sparse_frame(10, 1, &[1.0], &[0x81, 0x80, 0x80, 0x80, 0x10]),
                CodecError::BadIndex,
            ),
            (
                "zero gap after the first",
                sparse_frame(10, 2, &[1.0, 2.0], &[3, 0]),
                CodecError::BadIndex,
            ),
            (
                "nnz one larger than the body holds",
                sparse_frame(10, 2, &[1.0], &[3]),
                CodecError::Truncated,
            ),
            (
                "one trailing byte",
                sparse_frame(10, 2, &[1.0, 2.0], &[3, 4, 0]),
                CodecError::BadIndex,
            ),
            (
                "index equal to n",
                sparse_frame(10, 2, &[1.0, 2.0], &[3, 7]),
                CodecError::BadIndex,
            ),
            (
                "nnz above n",
                sparse_frame(1, 2, &[1.0, 2.0], &[0, 1]),
                CodecError::BadIndex,
            ),
            (
                "gap stream ends mid-varint",
                sparse_frame(1000, 2, &[1.0, 2.0], &[3, 0x80]),
                CodecError::Truncated,
            ),
        ];
        for (name, frame, err) in cases {
            assert_eq!(decode_both(&frame, None), Err(err.clone()), "{name}");
            let count = u32::from_le_bytes(frame[4..8].try_into().unwrap()) as usize;
            let base = vec![0.5; count];
            assert_eq!(decode_both(&frame, Some(&base)), Err(err), "{name} + base");
        }
        // Well-formed neighbours of those cases decode: gaps summing to the
        // last index, and an over-long (but in-range) varint.
        let ok = sparse_frame(10, 2, &[1.0, 2.0], &[3, 6]);
        let dec = decode_both(&ok, None).unwrap();
        assert_eq!((dec[3], dec[9]), (1.0, 2.0));
        let mut gaps = vec![0x80, 0x80, 0x80, 0x80, 0x00]; // 0, over-long
        gaps.extend_from_slice(&[0xff, 0x01]); // + 255
        let wide = sparse_frame(300, 2, &[1.0, 2.0], &gaps);
        let dec = decode_both(&wide, None).unwrap();
        assert_eq!((dec[0], dec[255]), (1.0, 2.0));
    }

    /// Values drawn from four magnitudes (random signs), so the boundary
    /// bucket of the threshold select is all ties, with ±0, ±∞ and NaNs
    /// sprinkled in.
    fn tied(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let mag = [0.25f32, 1.0, 3.0, 7.5][(s >> 60) as usize & 3];
                let v = match (s >> 32) % 64 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::INFINITY,
                    3 => f32::NEG_INFINITY,
                    4 => f32::NAN,
                    5 => -f32::NAN,
                    _ => mag,
                };
                if s & 1 == 0 {
                    v
                } else {
                    -v
                }
            })
            .collect()
    }

    #[test]
    fn threshold_select_breaks_ties_like_the_reference() {
        for n in [0usize, 1, PAR_CHUNK - 1, PAR_CHUNK + 1, 3 * PAR_CHUNK + 7] {
            let sets = [
                ramp(n),
                tied(n, n as u64 + 1),
                vec![-2.5f32; n],
                (0..n)
                    .map(|i| if i % 3 == 0 { f32::NAN } else { 0.0 })
                    .collect(),
            ];
            let base: Vec<f32> = (0..n).map(|i| (i % 4) as f32).collect();
            for x in &sets {
                for per_mille in [1u16, 30, 500, 999, 1000] {
                    let codec = UpdateCodec::TopK { per_mille };
                    assert_parallel_matches_reference(codec, x, None);
                    assert_parallel_matches_reference(codec, x, Some(&base));
                }
            }
        }
    }

    #[test]
    fn topk_keeps_largest_deltas_and_owes_the_rest() {
        let base = vec![1.0f32; 10];
        let mut x = base.clone();
        x[3] += 5.0;
        x[7] -= 4.0;
        x[1] += 0.01;
        let mut residual = Vec::new();
        // per_mille 200 over 10 elements → k = 2.
        let codec = UpdateCodec::TopK { per_mille: 200 };
        let enc = codec.encode(&x, Some(&base), &mut residual);
        let dec = codec.decode(&enc, Some(&base)).unwrap();
        assert_eq!(dec[3], x[3]);
        assert_eq!(dec[7], x[7]);
        assert_eq!(dec[1], base[1], "small delta not shipped");
        assert!((residual[1] - 0.01).abs() < 1e-7, "owed via residual");
        assert_eq!(residual[3], 0.0);

        // Next round, the residual makes the small delta win.
        let enc2 = codec.encode(&base, Some(&base), &mut residual);
        let dec2 = codec.decode(&enc2, Some(&base)).unwrap();
        assert!((dec2[1] - (base[1] + 0.01)).abs() < 1e-7, "EF retried");
    }

    #[test]
    fn topk_zero_base_reconstructs_against_zeros() {
        let x = vec![0.0f32, 9.0, 0.0, -7.0];
        let codec = UpdateCodec::TopK { per_mille: 500 };
        let enc = codec.encode_stateless(&x, None);
        let dec = codec.decode(&enc, None).unwrap();
        assert_eq!(dec, x);
    }

    #[test]
    fn decode_rejects_corruption() {
        let x = ramp(32);
        for codec in [
            UpdateCodec::Fp16,
            UpdateCodec::Int8,
            UpdateCodec::TopK { per_mille: 100 },
        ] {
            let enc = codec.encode_stateless(&x, None);
            assert!(codec.decode(&enc[..4], None).is_err(), "truncated header");
            assert!(
                codec.decode(&enc[..enc.len() - 1], None).is_err(),
                "truncated body"
            );
            let mut bad = enc.clone();
            bad[0] = b'X';
            assert!(matches!(
                codec.decode(&bad, None),
                Err(CodecError::WrongCodec)
            ));
            let mut ver = enc.clone();
            ver[3] = 9;
            assert!(matches!(
                codec.decode(&ver, None),
                Err(CodecError::BadVersion(9))
            ));
        }
        // Cross-codec magic is rejected, not misparsed.
        let enc = UpdateCodec::Fp16.encode_stateless(&x, None);
        assert!(matches!(
            UpdateCodec::Int8.decode(&enc, None),
            Err(CodecError::WrongCodec)
        ));
    }

    #[test]
    fn topk_rejects_bad_indices_and_base_mismatch() {
        let x = ramp(16);
        let codec = UpdateCodec::TopK { per_mille: 500 };
        let enc = codec.encode_stateless(&x, None);
        // Base of the wrong length.
        assert!(matches!(
            codec.decode(&enc, Some(&[0.0; 4])),
            Err(CodecError::BaseMismatch)
        ));
        // Out-of-range index: the first gap (one byte, after k = 8
        // values) is the first index.
        let mut bad = enc.clone();
        bad[12 + 8 * 4] = 100;
        assert!(matches!(
            codec.decode(&bad, None),
            Err(CodecError::BadIndex)
        ));
    }

    #[test]
    fn ids_and_sniffing_agree() {
        for codec in [
            UpdateCodec::Dense,
            UpdateCodec::Fp16,
            UpdateCodec::Int8,
            UpdateCodec::TOP_K_DEFAULT,
        ] {
            assert_eq!(UpdateCodec::from_id(codec.id()).unwrap().id(), codec.id());
            let enc = codec.encode_stateless(&ramp(8), None);
            assert_eq!(UpdateCodec::sniff(&enc).unwrap().id(), codec.id());
        }
        assert_eq!(UpdateCodec::from_id(99), None);
        assert_eq!(UpdateCodec::sniff(b"xx"), None);
    }

    #[test]
    fn empty_vector_roundtrips_everywhere() {
        for codec in [
            UpdateCodec::Dense,
            UpdateCodec::Fp16,
            UpdateCodec::Int8,
            UpdateCodec::TOP_K_DEFAULT,
        ] {
            let enc = codec.encode_stateless(&[], None);
            assert_eq!(codec.decode(&enc, None).unwrap(), Vec::<f32>::new());
        }
    }

    #[test]
    fn compression_ratios_hold_at_model_scale() {
        let n = 109_386; // the paper's MNIST MLP
        let x = ramp(n);
        let dense = UpdateCodec::Dense.encode_stateless(&x, None).len() as f64;
        let fp16 = UpdateCodec::Fp16.encode_stateless(&x, None).len() as f64;
        let int8 = UpdateCodec::Int8.encode_stateless(&x, None).len() as f64;
        let topk = UpdateCodec::TOP_K_DEFAULT.encode_stateless(&x, None).len() as f64;
        assert!(dense / fp16 > 1.9, "fp16 ~2x: {}", dense / fp16);
        assert!(dense / int8 > 3.9, "int8 ~4x: {}", dense / int8);
        assert!(dense / topk > 25.0, "topk >25x: {}", dense / topk);
    }
}
