//! LZSS compression — the repo's stand-in for the paper's zlib usage.
//!
//! This module implements LZSS with a 4 KiB sliding window and hash-chain
//! match finding (the same scheme zlib's deflate uses for its LZ77 stage,
//! minus the entropy coder):
//!
//! * token stream = flag bytes, each governing the next 8 items;
//! * flag bit 1 → literal byte; flag bit 0 → 16-bit (offset, length) pair
//!   with 12-bit offset (1..=4096) and 4-bit length (3..=18);
//! * a 4-byte header carries the uncompressed length.
//!
//! **Not on the send path.** [`crate::batching::split`] stores every body
//! RAW: LZSS never shrank an update blob any workload ships (dense `f32`
//! mantissas are near-random and top-k frames gap-code their indices), so
//! the trial only cost time. The receive side still calls
//! [`decompress_auto`] on any body whose mode tag is not RAW, which keeps
//! the chunk format and its tag as they were. The encoder stays public
//! for the callers that measure it: the benchmark's replay, the ABL-3
//! table and the transfer-path tests.
//!
//! [`compress_auto`] prepends a 1-byte mode tag and falls back to storing
//! the input verbatim when compression would not shrink it, so callers can
//! always round-trip through [`decompress_auto`]. It decides early: once
//! 8 KiB of input are consumed, a trial whose output is not yet smaller
//! than that input is abandoned and the input stored raw. Dense `f32`
//! parameters are never smaller, so they cost an 8 KiB probe instead of a
//! full trial, and so do sparse top-k frames; quantized or blocky bytes
//! are already winning by then. The decision looks only at the bytes —
//! no codec id, no workload — and inputs of at most 8 KiB run the whole
//! trial exactly as [`compress`] does. [`compress`] itself is always
//! exhaustive.

/// Sliding-window size (12-bit offsets).
const WINDOW: usize = 4096;
/// Minimum match length worth encoding (a pair costs ~2.1 bytes).
const MIN_MATCH: usize = 3;
/// Maximum match length (4-bit length field: 0..=15 → 3..=18).
const MAX_MATCH: usize = 18;
/// Hash-chain table size (power of two).
const HASH_SIZE: usize = 1 << 13;
/// Cap on chain traversal per position, bounding worst-case time.
const MAX_CHAIN: usize = 64;

/// Mode tag for [`compress_auto`]: payload stored uncompressed.
pub const MODE_RAW: u8 = 0;
/// Mode tag for [`compress_auto`]: payload is LZSS-compressed.
pub const MODE_LZSS: u8 = 1;

/// Errors from [`decompress`] / [`decompress_auto`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// The compressed stream ended unexpectedly or is internally
    /// inconsistent.
    Corrupt(&'static str),
    /// An unknown mode tag was encountered.
    UnknownMode(u8),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Corrupt(what) => write!(f, "corrupt compressed data: {what}"),
            CompressError::UnknownMode(m) => write!(f, "unknown compression mode {m}"),
        }
    }
}

impl std::error::Error for CompressError {}

#[inline]
fn hash3(data: &[u8], pos: usize) -> usize {
    let h = (data[pos] as u32)
        .wrapping_mul(0x9E37)
        .wrapping_add((data[pos + 1] as u32).wrapping_mul(0x79B9))
        .wrapping_add((data[pos + 2] as u32).wrapping_mul(0x85EB));
    (h as usize) & (HASH_SIZE - 1)
}

/// Compresses `input` with LZSS. The output always starts with the
/// uncompressed length as a little-endian u32.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    lzss_into(input, &mut out, usize::MAX);
    out
}

/// Appends the LZSS stream for `input` to `out`. Once `probe` input bytes
/// are consumed, gives up (returns `false`, `out` holding a partial
/// stream) if the stream so far is not smaller than that input.
fn lzss_into(input: &[u8], out: &mut Vec<u8>, mut probe: usize) -> bool {
    let base = out.len();
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());
    if input.is_empty() {
        return true;
    }

    // Hash chains: head[h] = most recent position with hash h;
    // prev[pos % WINDOW] = previous position with the same hash.
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; WINDOW];

    let mut flags_at = out.len();
    out.push(0);
    let mut flag_bit = 0u8;
    let mut flag_acc = 0u8;

    let push_item = |out: &mut Vec<u8>,
                     literal: Option<u8>,
                     pair: Option<(usize, usize)>,
                     flags_at: &mut usize,
                     flag_bit: &mut u8,
                     flag_acc: &mut u8| {
        if let Some(b) = literal {
            *flag_acc |= 1 << *flag_bit;
            out.push(b);
        } else if let Some((offset, len)) = pair {
            debug_assert!((1..=WINDOW).contains(&offset));
            debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
            let off12 = (offset - 1) as u16; // 0..=4095
            let len4 = (len - MIN_MATCH) as u16; // 0..=15
            let token = (off12 << 4) | len4;
            out.extend_from_slice(&token.to_le_bytes());
        }
        *flag_bit += 1;
        if *flag_bit == 8 {
            out[*flags_at] = *flag_acc;
            *flags_at = out.len();
            out.push(0);
            *flag_bit = 0;
            *flag_acc = 0;
        }
    };

    let mut pos = 0usize;
    while pos < input.len() {
        if pos >= probe {
            if out.len() - base >= pos {
                return false;
            }
            probe = usize::MAX;
        }
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if pos + MIN_MATCH <= input.len() {
            let h = hash3(input, pos);
            let mut candidate = head[h];
            let mut chain = 0;
            let window_floor = pos.saturating_sub(WINDOW);
            while candidate != usize::MAX && candidate >= window_floor && chain < MAX_CHAIN {
                if candidate < pos {
                    let max_len = MAX_MATCH.min(input.len() - pos);
                    let mut l = 0usize;
                    while l < max_len && input[candidate + l] == input[pos + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_off = pos - candidate;
                        if l == max_len {
                            break;
                        }
                    }
                }
                let nxt = prev[candidate % WINDOW];
                if nxt == candidate {
                    break;
                }
                candidate = nxt;
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            push_item(
                out,
                None,
                Some((best_off, best_len)),
                &mut flags_at,
                &mut flag_bit,
                &mut flag_acc,
            );
            // Insert every skipped position into the chains.
            let end = pos + best_len;
            while pos < end {
                if pos + MIN_MATCH <= input.len() {
                    let h = hash3(input, pos);
                    prev[pos % WINDOW] = head[h];
                    head[h] = pos;
                }
                pos += 1;
            }
        } else {
            push_item(
                out,
                Some(input[pos]),
                None,
                &mut flags_at,
                &mut flag_bit,
                &mut flag_acc,
            );
            if pos + MIN_MATCH <= input.len() {
                let h = hash3(input, pos);
                prev[pos % WINDOW] = head[h];
                head[h] = pos;
            }
            pos += 1;
        }
    }

    if flag_bit > 0 {
        out[flags_at] = flag_acc;
    } else {
        // The trailing reserved flag byte was never used.
        out.pop();
    }
    true
}

/// Decompresses an LZSS stream produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    if input.len() < 4 {
        return Err(CompressError::Corrupt("missing length header"));
    }
    let expected = u32::from_le_bytes([input[0], input[1], input[2], input[3]]) as usize;
    let mut out = Vec::with_capacity(expected);
    let mut pos = 4usize;

    while out.len() < expected {
        if pos >= input.len() {
            return Err(CompressError::Corrupt("truncated stream"));
        }
        let flags = input[pos];
        pos += 1;
        for bit in 0..8 {
            if out.len() == expected {
                break;
            }
            if flags & (1 << bit) != 0 {
                // Literal.
                let b = *input
                    .get(pos)
                    .ok_or(CompressError::Corrupt("truncated literal"))?;
                out.push(b);
                pos += 1;
            } else {
                // (offset, length) pair.
                if pos + 2 > input.len() {
                    return Err(CompressError::Corrupt("truncated pair"));
                }
                let token = u16::from_le_bytes([input[pos], input[pos + 1]]);
                pos += 2;
                let offset = ((token >> 4) as usize) + 1;
                let len = ((token & 0x0F) as usize) + MIN_MATCH;
                if offset > out.len() {
                    return Err(CompressError::Corrupt("offset before start"));
                }
                let start = out.len() - offset;
                // Overlapping copies are the normal case (run-length
                // encoding via offset < len), so copy byte-by-byte.
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    if out.len() != expected {
        return Err(CompressError::Corrupt("length mismatch"));
    }
    Ok(out)
}

/// Compresses if it helps; otherwise stores verbatim. Output = 1-byte mode
/// tag + body.
///
/// The LZSS trial is abandoned after the first 8 KiB of input if its
/// output is not yet smaller than the input consumed, and the payload is
/// stored raw; inputs of at most 8 KiB always run the whole trial.
pub fn compress_auto(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.push(MODE_LZSS);
    if lzss_into(input, &mut out, PROBE) && out.len() - 1 < input.len() {
        return out;
    }
    out.clear();
    out.push(MODE_RAW);
    out.extend_from_slice(input);
    out
}

/// Input bytes after which [`compress_auto`] gives up on an LZSS trial
/// that is not yet winning: dense `f32` bytes never turn around, so
/// finishing the trial only produces output that is thrown away.
const PROBE: usize = 8 * 1024;

/// Inverse of [`compress_auto`].
pub fn decompress_auto(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    match input.first() {
        None => Err(CompressError::Corrupt("empty input")),
        Some(&MODE_RAW) => Ok(input[1..].to_vec()),
        Some(&MODE_LZSS) => decompress(&input[1..]),
        Some(&other) => Err(CompressError::UnknownMode(other)),
    }
}

/// Compression ratio achieved by [`compress_auto`] on `input`
/// (compressed/original; 1.0 when stored raw).
pub fn ratio(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 1.0;
    }
    compress_auto(input).len() as f64 / (input.len() + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data, "plain roundtrip, {} bytes", data.len());
        let ca = compress_auto(data);
        let da = decompress_auto(&ca).unwrap();
        assert_eq!(da, data, "auto roundtrip, {} bytes", data.len());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_input_shrinks() {
        let data = b"abcabcabcabcabcabcabcabcabcabcabcabc".repeat(100);
        roundtrip(&data);
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "repetitive data compresses well: {} vs {}",
            c.len(),
            data.len()
        );
    }

    #[test]
    fn run_length_overlapping_copy() {
        let data = vec![0x55u8; 10_000];
        roundtrip(&data);
        let c = compress(&data);
        // With 4-bit match lengths a run costs ~2.25 bytes per 18 input
        // bytes: 10_000 → ≈ 1_260 bytes.
        assert!(c.len() < 1_500, "long runs collapse: {} bytes", c.len());
    }

    #[test]
    fn incompressible_input_stored_raw() {
        // A pseudo-random byte sequence (xorshift) defeats LZSS.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state & 0xFF) as u8
            })
            .collect();
        let auto = compress_auto(&data);
        assert_eq!(auto[0], MODE_RAW);
        assert_eq!(decompress_auto(&auto).unwrap(), data);
    }

    fn xorshift_bytes(n: usize) -> Vec<u8> {
        let mut state = 0x2468_ACE1u32;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                state as u8
            })
            .collect()
    }

    #[test]
    fn inputs_up_to_the_probe_run_the_whole_trial() {
        // Noise then zeros: losing when the probe would look, winning at
        // the end. Up to 8 KiB that must still come out as LZSS,
        // byte-identical to the exhaustive stream.
        for len in [8 * 1024 - 1, 8 * 1024] {
            let mut data = xorshift_bytes(len * 3 / 4);
            data.resize(len, 0);
            let auto = compress_auto(&data);
            assert_eq!(auto[0], MODE_LZSS, "{len} bytes");
            assert_eq!(auto[1..], compress(&data)[..], "{len} bytes");
        }
    }

    #[test]
    fn a_trial_still_losing_at_the_probe_is_abandoned() {
        // The price of deciding early, paid knowingly: 8 KiB of noise
        // ahead of 64 KiB of zeros is stored raw, although the exhaustive
        // trial would end up smaller.
        let mut data = xorshift_bytes(8 * 1024);
        data.resize(72 * 1024, 0);
        assert!(compress(&data).len() < data.len() / 2);
        let auto = compress_auto(&data);
        assert_eq!(auto[0], MODE_RAW);
        assert_eq!(decompress_auto(&auto).unwrap(), data);
        // The same zeros with the noise after them win as before.
        data.rotate_left(8 * 1024);
        assert_eq!(compress_auto(&data)[1..], compress(&data)[..]);
    }

    #[test]
    fn serialized_float_params_compress() {
        // Model parameters: many near-zero f32 little-endian patterns share
        // byte structure, which is the payload shape SDFLMQ ships.
        let floats: Vec<f32> = (0..10_000).map(|i| (i % 7) as f32 * 0.01).collect();
        let bytes: Vec<u8> = floats.iter().flat_map(|f| f.to_le_bytes()).collect();
        roundtrip(&bytes);
        let r = ratio(&bytes);
        assert!(r < 0.8, "float params should compress: ratio {r:.3}");
    }

    #[test]
    fn matches_across_window_boundary_are_rejected_cleanly() {
        // Data whose repeats exceed the 4 KiB window still round-trips.
        let mut data = Vec::new();
        for i in 0..20u8 {
            data.extend_from_slice(&[i; 500]);
        }
        data.extend_from_slice(&data.clone()); // 20 KiB apart repeats
        roundtrip(&data);
    }

    #[test]
    fn corrupt_streams_error() {
        assert!(decompress(&[]).is_err());
        assert!(decompress(&[5, 0, 0, 0]).is_err(), "missing body");
        assert!(
            decompress(&[5, 0, 0, 0, 0b0000_0000, 0xFF]).is_err(),
            "truncated pair"
        );
        // Offset pointing before output start.
        let bad = [2u8, 0, 0, 0, 0b0000_0000, 0xFF, 0xFF];
        assert!(decompress(&bad).is_err());
        assert!(decompress_auto(&[]).is_err());
        assert!(decompress_auto(&[9, 1, 2]).is_err(), "unknown mode");
    }

    #[test]
    fn exhaustive_small_alphabet() {
        // All byte strings of length ≤ 6 over {a, b} — brute-force edge
        // coverage of flag-bit boundaries and short matches.
        for len in 0..=6usize {
            for bits in 0..(1u32 << len) {
                let data: Vec<u8> = (0..len)
                    .map(|i| if bits & (1 << i) != 0 { b'a' } else { b'b' })
                    .collect();
                roundtrip(&data);
            }
        }
    }

    #[test]
    fn flag_byte_boundary_lengths() {
        // Lengths that land exactly on 8-item flag groups.
        for len in [7usize, 8, 9, 15, 16, 17, 24, 64, 65] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            roundtrip(&data);
        }
    }
}
