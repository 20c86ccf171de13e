//! Property-based tests: tensor algebra laws and parameter serialization.

use proptest::prelude::*;
use sdflmq_nn::{deserialize_params, serialize_params, Matrix};

fn matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn assert_close(a: &Matrix, b: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.rows(), b.rows());
    prop_assert_eq!(a.cols(), b.cols());
    for (x, y) in a.data().iter().zip(b.data().iter()) {
        prop_assert!(
            (x - y).abs() <= 1e-3 + 1e-4 * x.abs().max(y.abs()),
            "{x} vs {y}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimized matmul agrees with the naive triple loop.
    #[test]
    fn matmul_matches_naive(
        a in matrix(1..20, 1..20),
        cols in 1usize..20,
    ) {
        let b_data: Vec<f32> = (0..a.cols() * cols)
            .map(|i| ((i % 13) as f32) * 0.31 - 1.8)
            .collect();
        let b = Matrix::from_vec(a.cols(), cols, b_data);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b))?;
    }

    /// `a @ bᵀ` equals `a @ (explicit transpose of b)`.
    #[test]
    fn matmul_transpose_b_agrees(
        a in matrix(1..12, 1..12),
        rows_b in 1usize..12,
    ) {
        let b_data: Vec<f32> = (0..rows_b * a.cols())
            .map(|i| ((i % 7) as f32) * 0.5 - 1.5)
            .collect();
        let b = Matrix::from_vec(rows_b, a.cols(), b_data);
        let mut bt = Matrix::zeros(a.cols(), rows_b);
        for i in 0..rows_b {
            for j in 0..a.cols() {
                bt.set(j, i, b.get(i, j));
            }
        }
        assert_close(&a.matmul_transpose_b(&b), &naive_matmul(&a, &bt))?;
    }

    /// `aᵀ @ b` equals the explicit construction too.
    #[test]
    fn transpose_a_matmul_agrees(
        a in matrix(1..12, 1..12),
        cols_b in 1usize..12,
    ) {
        let b_data: Vec<f32> = (0..a.rows() * cols_b)
            .map(|i| ((i % 11) as f32) * 0.25 - 1.0)
            .collect();
        let b = Matrix::from_vec(a.rows(), cols_b, b_data);
        let mut at = Matrix::zeros(a.cols(), a.rows());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                at.set(j, i, a.get(i, j));
            }
        }
        assert_close(&a.transpose_a_matmul(&b), &naive_matmul(&at, &b))?;
    }

    /// Column sums equal the row-bias inverse: sum(add_row_bias(zeros, b))
    /// distributes b to every row.
    #[test]
    fn bias_column_sum_law(
        rows in 1usize..16,
        bias in prop::collection::vec(-5.0f32..5.0, 1..16),
    ) {
        let mut m = Matrix::zeros(rows, bias.len());
        m.add_row_bias(&bias);
        let sums = m.column_sums();
        for (s, b) in sums.iter().zip(&bias) {
            prop_assert!((s - b * rows as f32).abs() < 1e-3);
        }
    }

    /// Parameter blobs round-trip bit-exactly.
    #[test]
    fn params_roundtrip(params in prop::collection::vec(any::<f32>(), 0..2048)) {
        let bytes = serialize_params(&params);
        let back = deserialize_params(&bytes).unwrap();
        prop_assert_eq!(back.len(), params.len());
        for (a, b) in back.iter().zip(&params) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Deserialization never panics on arbitrary bytes.
    #[test]
    fn deserialize_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = deserialize_params(&bytes);
    }
}

// ---------------------------------------------------------------------
// Update-codec laws: every codec round-trips within its error bound,
// error feedback conserves what lossy encodings drop, and decoders
// never panic on arbitrary bytes.
// ---------------------------------------------------------------------

use sdflmq_nn::codec::{f16_to_f32, f32_to_f16, reference, top_k_count, UpdateCodec};

fn finite_params(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Dense is bit-exact and byte-identical to the legacy serializer.
    #[test]
    fn dense_roundtrip_is_exact(params in finite_params(512)) {
        let enc = UpdateCodec::Dense.encode_stateless(&params, None);
        prop_assert_eq!(&enc, &serialize_params(&params));
        let dec = UpdateCodec::Dense.decode(&enc, None).unwrap();
        for (a, b) in dec.iter().zip(&params) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// fp16 error is bounded by half-precision ULP: |x|/1024 + a small
    /// absolute floor for the subnormal range.
    #[test]
    fn fp16_error_bounded(params in finite_params(512)) {
        let enc = UpdateCodec::Fp16.encode_stateless(&params, None);
        prop_assert_eq!(enc.len(), 8 + params.len() * 2);
        let dec = UpdateCodec::Fp16.decode(&enc, None).unwrap();
        for (a, b) in params.iter().zip(&dec) {
            prop_assert!((a - b).abs() <= a.abs() / 1024.0 + 1e-4, "{} vs {}", a, b);
        }
    }

    /// f16 conversion round-trips its own output exactly (idempotence).
    #[test]
    fn f16_conversion_is_idempotent(x in -65504.0f32..65504.0) {
        let once = f16_to_f32(f32_to_f16(x));
        let twice = f16_to_f32(f32_to_f16(once));
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    /// int8 affine error is bounded by half a quantization step.
    #[test]
    fn int8_error_bounded_by_half_step(params in finite_params(512)) {
        let enc = UpdateCodec::Int8.encode_stateless(&params, None);
        prop_assert_eq!(enc.len(), 16 + params.len());
        let dec = UpdateCodec::Int8.decode(&enc, None).unwrap();
        let (lo, hi) = params
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |a, v| (a.0.min(*v), a.1.max(*v)));
        let half_step = (hi - lo) / 255.0 * 0.5;
        for (a, b) in params.iter().zip(&dec) {
            prop_assert!((a - b).abs() <= half_step + 1e-5, "{} vs {}", a, b);
        }
    }

    /// Top-k delta + residual reconstruction: what ships decodes exactly
    /// against the base, and (decoded - base) + residual equals the full
    /// compensated delta — error feedback conserves every coordinate.
    #[test]
    fn topk_residual_conserves_the_delta(
        base in finite_params(256),
        noise in prop::collection::vec(-1.0f32..1.0, 256),
        prior in prop::collection::vec(-0.5f32..0.5, 256),
        per_mille in 1u16..1000,
    ) {
        let n = base.len();
        let params: Vec<f32> = base.iter().zip(&noise).map(|(b, d)| b + d).collect();
        let mut residual: Vec<f32> = prior[..n].to_vec();
        let expected: Vec<f32> = params
            .iter()
            .zip(&base)
            .zip(&residual)
            .map(|((x, b), r)| x - b + r)
            .collect();
        let codec = UpdateCodec::TopK { per_mille };
        let enc = codec.encode(&params, Some(&base), &mut residual);
        // Decoding against the zero base exposes the shipped delta values
        // bit-exactly (decoding against `base` would re-round through a
        // base + delta f32 addition).
        let sent = codec.decode(&enc, None).unwrap();
        prop_assert_eq!(sent.len(), n);
        let k = top_k_count(n, per_mille);
        let mut shipped = 0usize;
        for i in 0..n {
            // Conservation: shipped + owed == compensated delta, exactly
            // (the split moves f32 values, it never recomputes them).
            prop_assert!(
                sent[i] + residual[i] == expected[i],
                "coord {}: {} + {} != {}", i, sent[i], residual[i], expected[i]
            );
            // Each coordinate is either shipped exactly or fully owed.
            if sent[i] != 0.0 {
                prop_assert_eq!(residual[i], 0.0);
                shipped += 1;
            }
        }
        prop_assert!(shipped <= k, "{} coords shipped, k = {}", shipped, k);
    }

    /// The k largest-magnitude compensated deltas are the ones shipped.
    #[test]
    fn topk_ships_the_largest_magnitudes(
        params in finite_params(128),
        per_mille in 1u16..1000,
    ) {
        let n = params.len();
        let codec = UpdateCodec::TopK { per_mille };
        let mut residual = Vec::new();
        let enc = codec.encode(&params, None, &mut residual);
        let k = top_k_count(n, per_mille);
        let mut magnitudes: Vec<f32> = params.iter().map(|v| v.abs()).collect();
        magnitudes.sort_by(|a, b| b.total_cmp(a));
        let threshold = magnitudes[k - 1];
        let dec = codec.decode(&enc, None).unwrap();
        for i in 0..n {
            if params[i].abs() > threshold {
                prop_assert_eq!(dec[i].to_bits(), params[i].to_bits(), "coord {}", i);
            }
        }
    }

    /// Lossy codecs never grow the payload beyond their nominal ratio.
    #[test]
    fn encoded_sizes_match_the_format(params in finite_params(600)) {
        let n = params.len();
        prop_assert_eq!(
            UpdateCodec::Fp16.encode_stateless(&params, None).len(),
            8 + n * 2
        );
        prop_assert_eq!(
            UpdateCodec::Int8.encode_stateless(&params, None).len(),
            16 + n
        );
        // Top-k v2: header, k f32 values, then the k sorted indices as
        // LEB128 gaps (the first gap is the first index).
        let k = top_k_count(n, 30);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| params[b].abs().total_cmp(&params[a].abs()).then(a.cmp(&b)));
        order.truncate(k);
        order.sort_unstable();
        let varint_len = |g: usize| 1 + (g >= 1 << 7) as usize + (g >= 1 << 14) as usize;
        let gap_bytes: usize = order
            .iter()
            .enumerate()
            .map(|(p, &i)| varint_len(if p == 0 { i } else { i - order[p - 1] }))
            .sum();
        prop_assert_eq!(
            UpdateCodec::TOP_K_DEFAULT.encode_stateless(&params, None).len(),
            12 + 4 * k + gap_bytes
        );
    }

    /// Mutated top-k frames (a byte flipped, truncated, extended, or two
    /// frames spliced) decode to an error or to exactly the declared
    /// element count, never a panic, with or without a base — and the
    /// parallel decoder agrees with the reference on every one.
    #[test]
    fn topk_decoder_survives_mutated_frames(
        params in finite_params(300),
        other in finite_params(300),
        per_mille in 1u16..1000,
        kind in 0u8..4,
        at in any::<u32>(),
        byte in any::<u8>(),
        tail in prop::collection::vec(any::<u8>(), 1..12),
    ) {
        let codec = UpdateCodec::TopK { per_mille };
        let a = codec.encode_stateless(&params, None);
        let b = codec.encode_stateless(&other, None);
        let cut = at as usize % (a.len() + 1);
        let frame: Vec<u8> = match kind {
            0 => {
                let mut f = a.clone();
                f[cut.min(a.len() - 1)] ^= byte.max(1);
                f
            }
            1 => a[..cut].to_vec(),
            2 => [&a[..], &tail[..]].concat(),
            _ => [&a[..cut], &b[(byte as usize) % (b.len() + 1)..]].concat(),
        };
        let declared = frame
            .get(4..8)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()) as usize);
        // Counts past 64k cost only memory here; the zero-base cap has
        // its own test.
        let small = declared.filter(|&c| c <= 1 << 16);
        let declared_base = small.map(|c| vec![0.25f32; c]);
        let own_base = vec![0.5f32; params.len()];
        let mut bases: Vec<Option<&[f32]>> = vec![Some(&own_base)];
        if let Some(b) = &declared_base {
            bases.push(None);
            bases.push(Some(b));
        }
        for base in bases {
            let fast = codec.decode(&frame, base);
            let slow = reference::decode(codec, &frame, base);
            match (&fast, &slow) {
                (Ok(f), Ok(s)) => {
                    prop_assert_eq!(Some(f.len()), declared);
                    for (x, y) in f.iter().zip(s) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                (Err(f), Err(s)) => prop_assert_eq!(f, s),
                _ => prop_assert!(false, "fast {:?} vs reference {:?}", fast.is_ok(), slow.is_ok()),
            }
        }
    }

    /// No codec's decoder panics on arbitrary bytes, with or without a
    /// base vector.
    #[test]
    fn codec_decode_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        base in prop::collection::vec(-1.0f32..1.0, 0..64),
    ) {
        for codec in [
            UpdateCodec::Dense,
            UpdateCodec::Fp16,
            UpdateCodec::Int8,
            UpdateCodec::TOP_K_DEFAULT,
        ] {
            let _ = codec.decode(&bytes, None);
            let _ = codec.decode(&bytes, Some(&base));
        }
    }
}

// ---------------------------------------------------------------------
// Parallel-vs-serial differential laws: the chunked multi-threaded
// codec paths must be *bit-identical* to the retained serial reference
// at every thread count — payload bytes, error-feedback residual, and
// decoded values alike. Chaos trace hashes pin bit-exact globals, so
// "close enough" is not an option here.
// ---------------------------------------------------------------------

use sdflmq_nn::codec::PAR_CHUNK;
use sdflmq_nn::parallel::WorkerPool;

/// Lengths that straddle the parallel chunk boundary (the adversarial
/// set: empty, single element, chunk−1 / chunk / chunk+1), plus a band
/// of small random lengths for chunk-interior coverage.
fn adversarial_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(PAR_CHUNK - 1),
        Just(PAR_CHUNK),
        Just(PAR_CHUNK + 1),
        2usize..600,
    ]
}

/// Deterministic xorshift-derived vector — cheap at chunk-sized lengths
/// where a `vec()` strategy would dominate the test's runtime.
fn seeded_vec(seed: u64, len: usize, scale: f32) -> Vec<f32> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 2.0 * scale
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every codec's parallel encode and decode agree bit-for-bit with
    /// the serial reference at 1, 2, and 4 worker threads — including
    /// the updated error-feedback residual — at lengths that hit the
    /// empty, single-chunk, exact-boundary, and multi-chunk layouts.
    #[test]
    fn parallel_codecs_match_reference_at_every_thread_count(
        len in adversarial_len(),
        seed in any::<u64>(),
        with_base in any::<bool>(),
    ) {
        let x = seeded_vec(seed, len, 80.0);
        let base_vec = seeded_vec(seed.wrapping_add(1), len, 40.0);
        let prior = seeded_vec(seed.wrapping_add(2), len, 0.5);
        let base = with_base.then_some(base_vec.as_slice());
        let pools: Vec<WorkerPool> = [1, 2, 4].into_iter().map(WorkerPool::new).collect();
        for codec in [
            UpdateCodec::Dense,
            UpdateCodec::Fp16,
            UpdateCodec::Int8,
            UpdateCodec::TOP_K_DEFAULT,
        ] {
            let mut ref_res = prior.clone();
            let ref_enc = reference::encode(codec, &x, base, &mut ref_res);
            let ref_dec = reference::decode(codec, &ref_enc, base).unwrap();
            for pool in &pools {
                let mut res = prior.clone();
                let mut enc = Vec::new();
                codec.encode_into(&x, base, &mut res, pool, &mut enc);
                prop_assert_eq!(&enc, &ref_enc, "{} encode bytes", codec.name());
                prop_assert_eq!(res.len(), ref_res.len());
                for (a, b) in res.iter().zip(&ref_res) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{} residual", codec.name());
                }
                let mut dec = Vec::new();
                codec.decode_into(&ref_enc, base, pool, &mut dec).unwrap();
                prop_assert_eq!(dec.len(), ref_dec.len());
                for (a, b) in dec.iter().zip(&ref_dec) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{} decode", codec.name());
                }
            }
        }
    }
}
