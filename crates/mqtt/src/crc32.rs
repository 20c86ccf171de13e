//! The workspace's one CRC-32 (IEEE 802.3, reflected polynomial
//! `0xEDB88320`): WAL frames here, chunk and whole-payload checksums in
//! `sdflmq-mqttfc`.

/// CRC-32 (IEEE 802.3) slicing-by-8 tables, built at compile time.
///
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; tables 1..8
/// fold 8 input bytes per iteration so the serial
/// table-load-per-byte dependency chain (~5 cycles/byte) becomes eight
/// independent loads per 8 bytes. WAL frames are checksummed on both the
/// persistence hot path and recovery replay, and every data-plane chunk
/// and blob on the way in and out, so this is worth the 8 KiB of tables.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
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

#[cfg(test)]
mod tests {
    use super::crc32;

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
}
