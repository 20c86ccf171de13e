//! The workspace's one CRC-32 (IEEE 802.3, reflected polynomial
//! `0xEDB88320`): WAL frames here, chunk and whole-payload checksums in
//! `sdflmq-mqttfc`. [`crc32_combine`] joins the CRCs of two adjacent
//! byte ranges without reading them again, which is how mqttfc derives
//! frame and whole-payload checksums from one pass over each chunk.
//!
//! [`crc32`] has two paths with the same result, chosen per call:
//!
//! * on `x86_64`, when the CPU has PCLMULQDQ and SSE4.1 (detected at run
//!   time) and the input is at least `CLMUL_MIN_LEN` (64) bytes, a
//!   carry-less-multiply folding kernel (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel 2009; the method zlib and Linux use) reads 64 bytes per step;
//! * otherwise a slicing-by-8 table loop: other platforms, CPUs without
//!   the instructions, and short inputs such as chunk headers and the
//!   smallest control messages, too short for the kernel's first 64-byte
//!   step. The kernel hands its last (< 16-byte) tail to the same loop.

/// Inputs shorter than this take the table loop even where the kernel
/// runs: the kernel needs one 64-byte block to start its four
/// accumulators. On a 2-vCPU x86_64 host it is 2–3x faster than the
/// tables at 64 B, 6x at 128 B and 14–16x on a 437,588-byte blob.
const CLMUL_MIN_LEN: usize = 64;

/// CRC-32 (IEEE 802.3) slicing-by-8 tables, built at compile time.
///
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; tables 1..8
/// fold 8 input bytes per iteration so the serial
/// table-load-per-byte dependency chain (~5 cycles/byte) becomes eight
/// independent loads per 8 bytes. This is the fallback path: it runs
/// every short input and every input where the kernel cannot, so it is
/// still worth the 8 KiB of tables.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// The reflected IEEE generator polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN_LEN {
        if let Some(crc) = clmul::update(!0, data) {
            return !crc;
        }
    }
    !update(!0, data)
}

/// Feeds `data` through the CRC register `c` with the slicing-by-8
/// tables. The register is the inverted CRC: start from `!0` and invert
/// the result.
fn update(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The PCLMULQDQ folding kernel. Every `unsafe` in the crate's checksum
/// code is in here.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    // Constants for the reflected IEEE polynomial (Gopal et al., and
    // zlib's `crc32_sse42_simd_`): each `K` is `x^n mod P` for the fold
    // distance `n`, shifted for the reflected domain.
    /// Fold one accumulator forward by 512 bits (four blocks).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// Fold one accumulator forward by 128 bits (one block).
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// Reduce 64 bits to 32 ahead of the Barrett step.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial `P′` and the Barrett constant `μ = ⌊x⁶⁴ / P⌋`.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Feeds `data` through the CRC register `crc` with the kernel, or
    /// `None` when this CPU lacks PCLMULQDQ or SSE4.1.
    pub(super) fn update(crc: u32, data: &[u8]) -> Option<u32> {
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            // SAFETY: both features `fold` is compiled for were detected
            // on this CPU just above.
            Some(unsafe { fold(crc, data) })
        } else {
            None
        }
    }

    /// [`update`] with the features assumed: four accumulators fold 64
    /// bytes per step, then fold into one, take in the remaining 16-byte
    /// blocks, reduce 128 → 64 → 32 bits and finish with a Barrett
    /// reduction. The last `len % 16` bytes go through the table loop, as
    /// does an input with fewer than four whole blocks.
    ///
    /// # Safety
    ///
    /// The caller must have detected `pclmulqdq` and `sse4.1` on the
    /// running CPU.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold(crc: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<16>();
        let Some((first, rest)) = blocks.split_first_chunk::<4>() else {
            return super::update(crc, data);
        };
        let mut acc = first.each_ref().map(load);
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (a, block) in acc.iter_mut().zip(quad) {
                *a = _mm_xor_si128(fold_by(*a, k1k2), load(block));
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = acc[0];
        for next in acc[1..].iter().copied().chain(singles.iter().map(load)) {
            x = _mm_xor_si128(fold_by(x, k3k4), next);
        }

        // 128 → 64 bits: the low half times K4, plus the high half.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        // 64 → 32 bits: the low word times K5, plus the rest.
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
        );
        // Barrett: q = ⌊x·μ⌋ (low word), then x ⊕ q·P leaves the remainder
        // in the second 32-bit lane.
        let pmu = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), pmu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, qp)) as u32;
        super::update(crc, tail)
    }

    /// `a`'s low half times `k`'s low half, plus the high halves' product:
    /// `a` moved forward by the distance `k` encodes.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_by(a: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(a, k),
            _mm_clmulepi64_si128::<0x11>(a, k),
        )
    }

    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, `loadu` has no alignment
        // requirement, and SSE2 is part of the x86_64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

/// `a(x) · b(x) mod P(x)` over GF(2), both operands reflected (bit 31 is
/// the `x⁰` coefficient, as in the CRC register).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0u32;
    let mut i = 0;
    while i < 32 {
        if a & (1 << (31 - i)) != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        i += 1;
    }
    p
}

/// `X2N[k] = x^(2^k) mod P(x)`, reflected. The sequence has period 32
/// (`x^(2^32) ≡ x mod P`), so `k & 31` indexes any power.
const X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x¹
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
};

/// CRC-32 of `A ++ B` from `crc_a = crc32(A)`, `crc_b = crc32(B)` and
/// `len_b = B.len()`, without touching the bytes: shifting `A`'s remainder
/// past `8·len_b` zero bits is one multiplication by `x^(8·len_b) mod P`,
/// one table power per set bit of `len_b` (zlib's `crc32_combine`).
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // x^(8·len_b) = ∏ x^(2^(k+3)) over the set bits k of len_b, applied
    // one factor at a time. A zero remainder (the empty `A` that starts
    // every fold) stays zero however far it is shifted, and x is
    // invertible mod P, so no nonzero one ever becomes zero.
    let mut crc = crc_a;
    let mut n = len_b;
    let mut k = 3;
    while n != 0 && crc != 0 {
        if n & 1 != 0 {
            crc = multmodp(X2N[k & 31], crc);
        }
        n >>= 1;
        k += 1;
    }
    crc ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::{crc32, crc32_combine, multmodp, update, CLMUL_MIN_LEN, X2N};

    /// The textbook bit-at-a-time definition both paths must agree with:
    /// the CRC of every prefix of `data`, from the empty one up.
    fn bitwise_prefixes(data: &[u8]) -> Vec<u32> {
        let mut c = 0xFFFF_FFFFu32;
        let mut out = vec![!c];
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            out.push(!c);
        }
        out
    }

    fn bitwise(data: &[u8]) -> u32 {
        bitwise_prefixes(data)[data.len()]
    }

    /// A fixed, non-repeating byte pattern (the top byte of a Knuth
    /// multiplicative hash of the index).
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((i as u32).wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect()
    }

    #[test]
    fn known_vectors() {
        // "123456789" → 0xCBF43926 is the IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Checksums written before the kernel existed (chunk frames, WAL
    /// frames) must still verify: these values come from the slicing-by-8
    /// implementation alone. 65,559 B is one full 64 KiB chunk frame;
    /// 437,588 B is one `fl_dense_mlp` update blob.
    #[test]
    fn pinned_checksums_of_a_fixed_pattern() {
        let data = pattern(437_588);
        for (len, want) in [
            (0, 0x0000_0000),
            (1, 0xd202_ef8d),
            (15, 0x20a6_f16e),
            (16, 0x7e9e_b03c),
            (17, 0xc410_be78),
            (63, 0x6b53_518c),
            (64, 0x06d2_8c3e),
            (65, 0x806c_df37),
            (127, 0x37fd_09fd),
            (128, 0x3f8d_91a4),
            (129, 0x89e3_cc01),
            (255, 0xb9b4_5bde),
            (256, 0x3a03_8fe5),
            (4_095, 0xf0fb_d39a),
            (65_536, 0xa627_5846),
            (65_559, 0x9119_30d7),
            (437_588, 0x6f85_cd80),
        ] {
            assert_eq!(crc32(&data[..len]), want, "len {len}");
        }
    }

    /// Each path on its own, not through the dispatch: every length up to
    /// 1 KiB at all 16 start misalignments. On a CPU without the kernel's
    /// features only the table path is checked.
    #[test]
    fn both_paths_match_the_bitwise_reference_at_every_length_and_misalignment() {
        let data = pattern(1024 + 16);
        #[cfg(target_arch = "x86_64")]
        let kernel = |bytes: &[u8]| super::clmul::update(!0, bytes).map(|c| !c);
        #[cfg(not(target_arch = "x86_64"))]
        let kernel = |_: &[u8]| None::<u32>;
        if kernel(&[]).is_none() {
            eprintln!("no PCLMULQDQ/SSE4.1 here: checking the table path only");
        }
        for offset in 0..16 {
            let window = &data[offset..offset + 1024];
            let want = bitwise_prefixes(window);
            for (len, &want) in want.iter().enumerate() {
                let slice = &window[..len];
                assert_eq!(
                    !update(!0, slice),
                    want,
                    "table: len {len} at offset {offset}"
                );
                if let Some(got) = kernel(slice) {
                    assert_eq!(got, want, "kernel: len {len} at offset {offset}");
                }
            }
        }
    }

    #[test]
    fn slicing_by_8_matches_the_bitwise_reference_at_any_length_and_offset() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x >> 32
        };
        let data: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        // Through the dispatch: every short length (each head/tail
        // remainder of the 8-byte inner loop), then random lengths up to
        // 4 KiB, all at unaligned starts.
        for i in 0..=72 + 256 {
            let len = if i <= 72 { i } else { (next() % 4097) as usize };
            let offset = (next() % 8) as usize;
            let slice = &data[offset..offset + len];
            assert_eq!(crc32(slice), bitwise(slice), "len {len} at offset {offset}");
        }
    }

    #[test]
    fn the_power_table_wraps_after_32_squarings() {
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
    }

    #[test]
    fn combine_agrees_with_one_pass_over_any_split() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let data: Vec<u8> = (0..70_000).map(|_| next() as u8).collect();
        // Empty halves, every short split, one half on each side of the
        // kernel threshold (either way round, at its edge and far past it),
        // then random unaligned windows and cut points (some past 64 KiB,
        // so high length bits are used).
        let mut cases: Vec<(usize, usize, usize)> = vec![(0, 0, 0), (0, 0, 9), (0, 9, 9)];
        cases.extend((0..=24).flat_map(|cut| [(0, cut, 24), (3, 3 + cut, 27)]));
        let t = CLMUL_MIN_LEN;
        for (short, long) in [(t - 1, t), (1, t), (t - 1, 65_559), (17, 4_099)] {
            let start = (next() % 16) as usize;
            cases.push((start, start + short, start + short + long));
            cases.push((start, start + long, start + long + short));
        }
        for _ in 0..200 {
            let start = (next() % 4096) as usize;
            let end = start + (next() % (data.len() - start) as u64) as usize;
            let cut = start + (next() % (end - start + 1) as u64) as usize;
            cases.push((start, cut, end));
        }
        for (start, cut, end) in cases {
            let (a, b) = (&data[start..cut], &data[cut..end]);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                crc32(&data[start..end]),
                "[{start}, {cut}) ++ [{cut}, {end})"
            );
        }
        // A zero-length tail leaves the head's CRC alone; an empty head
        // contributes nothing.
        assert_eq!(crc32_combine(0x1234_5678, 0, 0), 0x1234_5678);
        assert_eq!(crc32_combine(0, 0x1234_5678, 1 << 40), 0x1234_5678);
    }
}
