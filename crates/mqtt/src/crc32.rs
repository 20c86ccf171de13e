//! The workspace's one CRC-32 (IEEE 802.3, reflected polynomial
//! `0xEDB88320`): WAL frames here, chunk and whole-payload checksums in
//! `sdflmq-mqttfc`. [`crc32_combine`] joins the CRCs of two adjacent
//! byte ranges without reading them again, which is how mqttfc derives
//! frame and whole-payload checksums from one pass over each chunk.

/// CRC-32 (IEEE 802.3) slicing-by-8 tables, built at compile time.
///
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; tables 1..8
/// fold 8 input bytes per iteration so the serial
/// table-load-per-byte dependency chain (~5 cycles/byte) becomes eight
/// independent loads per 8 bytes. WAL frames are checksummed on both the
/// persistence hot path and recovery replay, and every data-plane chunk
/// and blob on the way in and out, so this is worth the 8 KiB of tables.
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
    let mut c = 0xFFFF_FFFFu32;
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
    c ^ 0xFFFF_FFFF
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
    use super::{crc32, crc32_combine, multmodp, X2N};

    /// The textbook bit-at-a-time definition the tables must agree with.
    fn bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // "123456789" → 0xCBF43926 is the IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
        // Every short length (each head/tail remainder of the 8-byte inner
        // loop), then random lengths up to 4 KiB, all at unaligned starts.
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
        // Empty halves, every short split, then random unaligned windows
        // and cut points (some past 64 KiB, so high length bits are used).
        let mut cases: Vec<(usize, usize, usize)> = vec![(0, 0, 0), (0, 0, 9), (0, 9, 9)];
        cases.extend((0..=24).flat_map(|cut| [(0, cut, 24), (3, 3 + cut, 27)]));
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
