//! Property-based tests: compression, batching, JSON, and RFC wire format.

use bytes::Bytes;
use proptest::prelude::*;
use sdflmq_mqttfc::batching::{split, BatchConfig, PushResult, Reassembler};
use sdflmq_mqttfc::compress::{compress, compress_auto, decompress, decompress_auto};
use sdflmq_mqttfc::json::Json;
use sdflmq_mqttfc::wire::{Chunk, RfcKind, RfcMessage};
use std::collections::BTreeMap;
use std::time::Duration;

proptest! {
    /// LZSS round-trips arbitrary binary data.
    #[test]
    fn lzss_roundtrip(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(decompress(&compress(&data)).unwrap(), data.clone());
        prop_assert_eq!(decompress_auto(&compress_auto(&data)).unwrap(), data);
    }

    /// Repetitive data round-trips and never *grows* through the auto path
    /// by more than the 1-byte mode tag.
    #[test]
    fn lzss_auto_bounded_overhead(
        pattern in prop::collection::vec(any::<u8>(), 1..16),
        repeats in 1usize..200,
    ) {
        let data: Vec<u8> = pattern.iter().copied().cycle().take(pattern.len() * repeats).collect();
        let auto = compress_auto(&data);
        prop_assert!(auto.len() <= data.len() + 1);
        prop_assert_eq!(decompress_auto(&auto).unwrap(), data);
    }

    /// The decompressor must never panic on arbitrary input.
    #[test]
    fn decompress_never_panics(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decompress(&data);
        let _ = decompress_auto(&data);
    }

    /// Batching round-trips any payload at any chunk size, in order or
    /// reversed.
    #[test]
    fn batching_roundtrip(
        payload in prop::collection::vec(any::<u8>(), 0..20_000),
        chunk_size in 1usize..8192,
        reversed in prop::bool::ANY,
    ) {
        let cfg = BatchConfig {
            chunk_size,
            stale_after: Duration::from_secs(60),
        };
        let mut frames = split(&payload, 42, &cfg);
        if reversed {
            frames.reverse();
        }
        let mut r = Reassembler::new(cfg);
        let mut out = None;
        for f in frames {
            if let PushResult::Complete(b) = r.push("prop", f).unwrap() {
                out = Some(b);
            }
        }
        prop_assert_eq!(&out.expect("transfer completes")[..], &payload[..]);
        prop_assert_eq!(r.pending(), 0);
    }

    /// Whatever the network does to the frames of two transfers sharing
    /// one (sender, transfer id) and one chunk count — flipping a
    /// byte of any frame, dropping, duplicating, reordering, interleaving
    /// — the reassembler never completes with anything but one of the two
    /// payloads.
    #[test]
    fn mangled_or_interleaved_transfers_never_complete_wrong(
        a in prop::collection::vec(any::<u8>(), 0..12_000),
        chunk_size in 64usize..4096,
        merge in prop::collection::vec(prop::bool::ANY, 0..64),
        ops in prop::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 0..24),
    ) {
        // Every byte differs, so a mix of the two is neither; equal
        // lengths give equal chunk counts.
        let b: Vec<u8> = a.iter().map(|x| x ^ 0x5A).collect();
        let cfg = BatchConfig {
            chunk_size,
            stale_after: Duration::from_secs(60),
        };
        let (mut fa, mut fb) = (split(&a, 9, &cfg).into_iter(), split(&b, 9, &cfg).into_iter());
        let mut bits = merge.iter().copied().cycle();
        let mut stream: Vec<Bytes> = Vec::new();
        loop {
            let next = if bits.next().unwrap_or(true) {
                fa.next().or_else(|| fb.next())
            } else {
                fb.next().or_else(|| fa.next())
            };
            match next {
                Some(frame) => stream.push(frame),
                None => break,
            }
        }
        for (op, x, y) in ops {
            let (i, j) = (x as usize % stream.len(), y as usize % stream.len());
            match op {
                0 => stream.swap(i, j),
                1 => stream.insert(j, stream[i].clone()),
                2 if stream.len() > 1 => {
                    stream.remove(i);
                }
                2 => {}
                _ => {
                    let mut frame = stream[i].to_vec();
                    let at = y as usize % frame.len();
                    frame[at] ^= (x % 255 + 1) as u8;
                    stream[i] = Bytes::from(frame);
                }
            }
        }
        let mut r = Reassembler::new(cfg);
        for frame in stream {
            if let Ok(PushResult::Complete(got)) = r.push("peer", frame) {
                prop_assert!(got[..] == a[..] || got[..] == b[..], "completed with a third payload");
            }
        }
    }

    /// Chunk frames survive encode/decode; corrupted frames are rejected,
    /// never mis-decoded silently (CRC property). The flip may land on any
    /// bit of the frame (id, seq, total, payload CRC, length, data or
    /// trailer), and data runs from one byte to past a full 64 KiB chunk,
    /// so both CRC paths are exercised.
    #[test]
    fn chunk_crc_catches_single_bitflips(
        data in chunk_data(),
        flip_bit in any::<u32>(),
    ) {
        let (chunk, encoded) = encoded_chunk(data);
        prop_assert_eq!(Chunk::decode(encoded.clone()).unwrap(), chunk);
        let mut corrupted = encoded.to_vec();
        let bit = flip_bit as usize % (corrupted.len() * 8);
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(Chunk::decode(Bytes::from(corrupted)).is_err(), "flip of bit {} passed", bit);
    }

    /// Any burst of 2–32 bits inside the checksummed bytes (header and
    /// data), or inside the stored CRC, is caught: CRC-32 detects every
    /// error burst no longer than its degree. Bit `i` of the frame is bit
    /// `i % 8` of byte `i / 8`, the order the reflected CRC reads them in.
    #[test]
    fn chunk_crc_catches_bursts_of_up_to_32_bits(
        data in chunk_data(),
        burst_len in 2usize..=32,
        inner in any::<u32>(),
        at in any::<u32>(),
    ) {
        let (_, encoded) = encoded_chunk(data);
        let mut corrupted = encoded.to_vec();
        let covered = (corrupted.len() - 4) * 8;
        // The burst starts anywhere and is moved back, if need be, so it
        // stays within one side of the checksummed/trailer boundary.
        let mut start = at as usize % (corrupted.len() * 8 - burst_len + 1);
        if start < covered && start + burst_len > covered {
            start = covered - burst_len;
        }
        // First and last bit set; the ones between are arbitrary.
        let middle = (u64::from(inner) << 1) & ((1 << (burst_len - 1)) - 1);
        let pattern = 1 | (1 << (burst_len - 1)) | middle;
        for i in 0..burst_len {
            if pattern >> i & 1 != 0 {
                let bit = start + i;
                corrupted[bit / 8] ^= 1 << (bit % 8);
            }
        }
        prop_assert!(
            Chunk::decode(Bytes::from(corrupted)).is_err(),
            "{}-bit burst {:#x} at bit {} passed", burst_len, pattern, start
        );
    }

    /// RFC envelopes round-trip arbitrary contents.
    #[test]
    fn rfc_message_roundtrip(
        call_id in any::<u64>(),
        function in "[a-z_]{1,20}",
        sender in "[a-z0-9_]{1,20}",
        has_reply in prop::bool::ANY,
        kind_sel in 0u8..3,
        payload in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        let msg = RfcMessage {
            call_id,
            function,
            sender: sender.clone(),
            reply_to: if has_reply { Some(format!("mqttfc/inbox/{sender}")) } else { None },
            kind: match kind_sel {
                0 => RfcKind::Request,
                1 => RfcKind::Response,
                _ => RfcKind::Error,
            },
            payload: Bytes::from(payload),
        };
        prop_assert_eq!(RfcMessage::decode(msg.encode()).unwrap(), msg);
    }
}

// --- JSON value strategy ---------------------------------------------

fn json_leaf() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        // Finite numbers only: NaN/Inf intentionally serialize as null.
        (-1e9f64..1e9).prop_map(|n| Json::Number((n * 100.0).round() / 100.0)),
        "[ -~]{0,20}".prop_map(Json::String),
    ]
}

fn json_value() -> impl Strategy<Value = Json> {
    json_leaf().prop_recursive(3, 32, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..6)
                .prop_map(|m| Json::Object(m.into_iter().collect::<BTreeMap<_, _>>())),
        ]
    })
}

proptest! {
    /// Serialized JSON parses back to the same value.
    #[test]
    fn json_roundtrip(value in json_value()) {
        let text = value.to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        prop_assert_eq!(parsed, value);
    }

    /// The parser never panics on arbitrary input strings.
    #[test]
    fn json_parse_never_panics(text in "[ -~]{0,128}") {
        let _ = Json::parse(&text);
    }
}

/// Chunk data from one byte to past a full 64 KiB chunk, half of it
/// under 256 B.
fn chunk_data() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 1..256),
        prop::collection::vec(any::<u8>(), 256..70_001),
    ]
}

/// A one-chunk transfer carrying `data`, and its encoded frame.
fn encoded_chunk(data: Vec<u8>) -> (Chunk, Bytes) {
    let chunk = Chunk {
        transfer_id: 7,
        seq: 0,
        total: 1,
        payload_crc: 0xABCD_EF01,
        data: Bytes::from(data),
    };
    let encoded = chunk.encode();
    (chunk, encoded)
}
