//! Payload batching: serialize → split → reassemble.
//!
//! MQTT brokers and constrained links dislike multi-megabyte publishes, so
//! MQTTFC splits large payloads (e.g. a full set of MLP parameters) into
//! fixed-size chunks, each a self-verifying [`Chunk`] frame, and reassembles
//! them on the receiving side (paper §IV: "a batching mechanism … which
//! serializes the payload and divides it into multiple batches before
//! sending. The batches are encoded and batch ids are allocated to them").
//!
//! Senders store every body RAW: [`split`] frames it straight from the
//! caller's payload, with no staging copy and no compression trial (LZSS
//! never shrank an update blob any workload ships). Receivers still read
//! the mode tag, so a transfer whose body is
//! [`compress_auto`](crate::compress::compress_auto) output reassembles
//! too.
//!
//! Each byte is checksummed once per side. The sender takes one CRC of
//! each chunk's data and derives both that frame's CRC and the
//! whole-payload CRC from it with [`sdflmq_mqtt::crc32_combine`]; the
//! receiver keeps the data CRC its frame check computed and folds the
//! whole-payload check from those. The bytes each CRC covers are those of
//! a full pass, so frames are unchanged on the wire (`docs/PROTOCOL.md`,
//! "Chunk frames").
//!
//! The [`Reassembler`] tolerates out-of-order and duplicated chunks,
//! isolates concurrent transfers by (sender, transfer id), verifies the
//! whole-payload CRC before releasing it, and evicts stale partial
//! transfers after a configurable age so lost chunks cannot leak memory.

use crate::compress::{decompress_auto, MODE_RAW};
use crate::wire::{crc32, encode_chunk, Chunk, WireError};
use bytes::Bytes;
use sdflmq_mqtt::crc32_combine;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Batching configuration.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Maximum bytes of payload per chunk.
    pub chunk_size: usize,
    /// Partial transfers older than this are evicted by
    /// [`Reassembler::evict_stale`].
    pub stale_after: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            chunk_size: 64 * 1024,
            stale_after: Duration::from_secs(60),
        }
    }
}

/// Splits `payload` into encoded chunk frames ready to publish.
///
/// The transfer body is `[MODE_RAW] ++ payload`, framed straight from
/// `payload` with the tag written into chunk 0. Each chunk's data is
/// checksummed once, and both the frame CRC and the whole-body
/// `payload_crc` are derived from those sums. Receivers reverse all of it
/// with [`Reassembler::push`].
pub fn split(payload: &[u8], transfer_id: u64, config: &BatchConfig) -> Vec<Bytes> {
    let head: &[u8] = &[MODE_RAW];
    // Chunk `seq` covers body bytes [seq·chunk_size, (seq+1)·chunk_size);
    // `parts` maps that range onto `head ++ payload`.
    let body_len = head.len() + payload.len();
    let chunk_size = config.chunk_size.max(1);
    let total = body_len.div_ceil(chunk_size).max(1) as u32;
    let parts = |seq: u32| -> [&[u8]; 2] {
        let start = seq as usize * chunk_size;
        let end = (start + chunk_size).min(body_len);
        let cut = |at: usize| at.saturating_sub(head.len());
        [
            &head[start.min(head.len())..end.min(head.len())],
            &payload[cut(start)..cut(end)],
        ]
    };
    let mut data_crcs = Vec::with_capacity(total as usize);
    let mut payload_crc = 0;
    for seq in 0..total {
        let [a, b] = parts(seq);
        let crc = crc32_combine(crc32(a), crc32(b), b.len() as u64);
        payload_crc = crc32_combine(payload_crc, crc, (a.len() + b.len()) as u64);
        data_crcs.push(crc);
    }
    (0..total)
        .map(|seq| {
            encode_chunk(
                transfer_id,
                seq,
                total,
                payload_crc,
                parts(seq),
                data_crcs[seq as usize],
            )
        })
        .collect()
}

/// Outcome of feeding one chunk to the reassembler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushResult {
    /// More chunks are needed; `received`/`total` report progress.
    Incomplete {
        /// Chunks received so far for this transfer.
        received: u32,
        /// Total chunks expected.
        total: u32,
    },
    /// The transfer completed; the original payload is returned.
    Complete(Bytes),
    /// The chunk was a duplicate of one already received.
    Duplicate,
}

/// One transfer in flight. Chunks are kept by sequence number in an
/// ordered map, so memory follows the bytes actually received and never
/// the `total` a (CRC-valid but possibly hostile) first chunk declares.
/// Each chunk keeps its data CRC from the frame check, so the
/// whole-payload CRC is folded from them instead of re-read.
struct Partial {
    chunks: BTreeMap<u32, (Bytes, u32)>,
    total: u32,
    payload_crc: u32,
    started: Instant,
    bytes: usize,
}

impl Partial {
    fn new(chunk: &Chunk) -> Partial {
        Partial {
            chunks: BTreeMap::new(),
            total: chunk.total,
            payload_crc: chunk.payload_crc,
            started: Instant::now(),
            bytes: 0,
        }
    }
}

/// Reassembles chunked transfers keyed by (sender, transfer id).
pub struct Reassembler {
    partials: HashMap<(String, u64), Partial>,
    config: BatchConfig,
    copied: u64,
}

impl Reassembler {
    /// Creates a reassembler with the given config.
    pub fn new(config: BatchConfig) -> Self {
        Reassembler {
            partials: HashMap::new(),
            config,
            copied: 0,
        }
    }

    /// Number of in-progress transfers.
    pub fn pending(&self) -> usize {
        self.partials.len()
    }

    /// Total buffered bytes across partial transfers.
    pub fn buffered_bytes(&self) -> usize {
        self.partials.values().map(|p| p.bytes).sum()
    }

    /// Cumulative payload bytes this reassembler has *copied*: multi-chunk
    /// concatenation plus decompression output. Single-chunk uncompressed
    /// transfers complete as slices of the received frame and add nothing.
    pub fn copied_bytes(&self) -> u64 {
        self.copied
    }

    /// Feeds one encoded chunk frame received from `sender`.
    pub fn push(&mut self, sender: &str, frame: Bytes) -> Result<PushResult, WireError> {
        let (chunk, data_crc) = Chunk::decode_with_crc(frame)?;
        let key = (sender.to_owned(), chunk.transfer_id);
        let partial = self
            .partials
            .entry(key.clone())
            .or_insert_with(|| Partial::new(&chunk));
        if partial.total != chunk.total || partial.payload_crc != chunk.payload_crc {
            // A new transfer reused the id with different shape: restart.
            *partial = Partial::new(&chunk);
        }
        if partial.chunks.contains_key(&chunk.seq) {
            return Ok(PushResult::Duplicate);
        }
        partial.bytes += chunk.data.len();
        partial.chunks.insert(chunk.seq, (chunk.data, data_crc));
        let received = partial.chunks.len() as u32;

        if received == partial.total {
            let mut partial = self.partials.remove(&key).expect("just inserted");
            let actual = partial.chunks.values().fold(0, |acc, (piece, crc)| {
                crc32_combine(acc, *crc, piece.len() as u64)
            });
            if actual != partial.payload_crc {
                return Err(WireError::BadChecksum {
                    expected: partial.payload_crc,
                    actual,
                });
            }
            // A single-chunk transfer's body *is* its one chunk — already
            // a slice of the received frame, so no concatenation copy.
            let body: Bytes = if partial.total == 1 {
                partial.chunks.remove(&0).expect("all received").0
            } else {
                let mut v = Vec::with_capacity(partial.bytes);
                for (piece, _) in partial.chunks.values() {
                    v.extend_from_slice(piece);
                }
                self.copied += v.len() as u64;
                Bytes::from(v)
            };
            // Raw-mode bodies need no inflation either: slicing off the
            // mode tag yields the payload without touching the bytes.
            match body.first() {
                Some(&MODE_RAW) => Ok(PushResult::Complete(body.slice(1..))),
                _ => {
                    let payload = decompress_auto(&body)
                        .map_err(|_| WireError::Invalid("bad compression"))?;
                    self.copied += payload.len() as u64;
                    Ok(PushResult::Complete(Bytes::from(payload)))
                }
            }
        } else {
            Ok(PushResult::Incomplete {
                received,
                total: partial.total,
            })
        }
    }

    /// Drops partial transfers older than the configured staleness bound.
    /// Returns how many were evicted.
    pub fn evict_stale(&mut self) -> usize {
        let deadline = self.config.stale_after;
        let before = self.partials.len();
        self.partials.retain(|_, p| p.started.elapsed() < deadline);
        before - self.partials.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress_auto, MODE_LZSS};

    fn config(chunk_size: usize) -> BatchConfig {
        BatchConfig {
            chunk_size,
            stale_after: Duration::from_secs(60),
        }
    }

    /// Frames `body` — mode tag included — as the chunks of one transfer,
    /// the way a sender that stored another mode would have.
    fn frames_of_body(body: &[u8], transfer_id: u64, chunk_size: usize) -> Vec<Bytes> {
        let pieces: Vec<&[u8]> = body.chunks(chunk_size).collect();
        let total = pieces.len() as u32;
        let payload_crc = crc32(body);
        pieces
            .iter()
            .zip(0..)
            .map(|(data, seq)| {
                Chunk {
                    transfer_id,
                    seq,
                    total,
                    payload_crc,
                    data: Bytes::copy_from_slice(data),
                }
                .encode()
            })
            .collect()
    }

    fn roundtrip_with(payload: &[u8], cfg: &BatchConfig) {
        let frames = split(payload, 7, cfg);
        let mut r = Reassembler::new(cfg.clone());
        let mut out = None;
        for (i, f) in frames.iter().enumerate() {
            match r.push("alice", f.clone()).unwrap() {
                PushResult::Complete(b) => {
                    assert_eq!(i, frames.len() - 1, "completes on last chunk");
                    out = Some(b);
                }
                PushResult::Incomplete { received, total } => {
                    assert_eq!(received as usize, i + 1);
                    assert_eq!(total as usize, frames.len());
                }
                PushResult::Duplicate => panic!("unexpected duplicate"),
            }
        }
        assert_eq!(&out.unwrap()[..], payload);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn single_chunk_roundtrip() {
        roundtrip_with(b"small", &config(1024));
        roundtrip_with(b"", &config(1024));
    }

    #[test]
    fn multi_chunk_roundtrip() {
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        roundtrip_with(&payload, &config(4096));
        roundtrip_with(&payload, &config(1)); // pathological chunk size
    }

    #[test]
    fn out_of_order_reassembly() {
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 13) as u8).collect();
        let cfg = config(1000);
        let mut frames = split(&payload, 1, &cfg);
        frames.reverse();
        let mut r = Reassembler::new(cfg);
        let mut done = None;
        for f in frames {
            if let PushResult::Complete(b) = r.push("bob", f).unwrap() {
                done = Some(b);
            }
        }
        assert_eq!(&done.unwrap()[..], &payload[..]);
    }

    #[test]
    fn duplicates_are_flagged_and_harmless() {
        let payload = vec![9u8; 10_000];
        let cfg = config(1000);
        let frames = split(&payload, 3, &cfg);
        let mut r = Reassembler::new(cfg);
        assert!(matches!(
            r.push("x", frames[0].clone()).unwrap(),
            PushResult::Incomplete { .. }
        ));
        assert_eq!(
            r.push("x", frames[0].clone()).unwrap(),
            PushResult::Duplicate
        );
        for f in &frames[1..] {
            let _ = r.push("x", f.clone()).unwrap();
        }
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn a_declared_total_is_not_an_allocation_size() {
        // One 33-byte, CRC-valid chunk claiming to be the first of
        // u32::MAX: it must cost its own five bytes, not a slot per
        // promised chunk (which used to ask for more than 100 GB).
        let lone = Chunk {
            transfer_id: 7,
            seq: 0,
            total: u32::MAX,
            payload_crc: 0,
            data: Bytes::from_static(b"hello"),
        };
        let mut r = Reassembler::new(config(1000));
        assert_eq!(
            r.push("mallory", lone.encode()).unwrap(),
            PushResult::Incomplete {
                received: 1,
                total: u32::MAX
            }
        );
        assert_eq!(r.buffered_bytes(), 5);
        assert_eq!(r.pending(), 1);
    }

    #[test]
    fn concurrent_transfers_do_not_mix() {
        let pa: Vec<u8> = vec![1; 5000];
        let pb: Vec<u8> = vec![2; 5000];
        let cfg = config(512);
        let fa = split(&pa, 1, &cfg);
        let fb = split(&pb, 1, &cfg); // same transfer id, different sender
        let mut r = Reassembler::new(cfg);
        let mut done = HashMap::new();
        for (f1, f2) in fa.iter().zip(fb.iter()) {
            if let PushResult::Complete(b) = r.push("alice", f1.clone()).unwrap() {
                done.insert("alice", b);
            }
            if let PushResult::Complete(b) = r.push("bob", f2.clone()).unwrap() {
                done.insert("bob", b);
            }
        }
        assert_eq!(&done["alice"][..], &pa[..]);
        assert_eq!(&done["bob"][..], &pb[..]);
    }

    #[test]
    fn stale_partials_evicted() {
        let cfg = BatchConfig {
            chunk_size: 10,
            stale_after: Duration::from_millis(10),
        };
        let frames = split(&[0u8; 100], 5, &cfg);
        let mut r = Reassembler::new(cfg);
        let _ = r.push("s", frames[0].clone()).unwrap();
        assert_eq!(r.pending(), 1);
        assert!(r.buffered_bytes() > 0);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(r.evict_stale(), 1);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn corrupted_chunk_rejected() {
        let cfg = config(100);
        let frames = split(&[7u8; 1000], 9, &cfg);
        let mut bad = frames[0].to_vec();
        let last = bad.len() - 10;
        bad[last] ^= 0xFF;
        let mut r = Reassembler::new(cfg);
        assert!(r.push("s", Bytes::from(bad)).is_err());
    }

    #[test]
    fn single_chunk_raw_transfer_is_zero_copy() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 7) as u8).collect();
        let cfg = config(64 * 1024);
        let frames = split(&payload, 11, &cfg);
        assert_eq!(frames.len(), 1);
        let frame = frames[0].clone();
        let mut r = Reassembler::new(cfg);
        let PushResult::Complete(out) = r.push("s", frame.clone()).unwrap() else {
            panic!("single chunk should complete");
        };
        assert_eq!(&out[..], &payload[..]);
        assert_eq!(r.copied_bytes(), 0, "no payload bytes should be copied");
        // Pointer identity: the delivered payload is a slice of the
        // received frame's own storage, not a reallocation.
        let frame_start = frame.as_ptr() as usize;
        let out_start = out.as_ptr() as usize;
        assert!(
            out_start >= frame_start && out_start + out.len() <= frame_start + frame.len(),
            "payload must alias the frame buffer"
        );
    }

    #[test]
    fn multi_chunk_and_compressed_transfers_count_copies() {
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        // Multi-chunk raw: concatenation copies the body once.
        let cfg = config(4096);
        let mut r = Reassembler::new(cfg.clone());
        for f in split(&payload, 1, &cfg) {
            let _ = r.push("s", f).unwrap();
        }
        // The whole body (payload + 1-byte mode tag) was concatenated.
        assert_eq!(r.copied_bytes(), payload.len() as u64 + 1);
        // LZSS-tagged: decompression output is copied as well.
        let blocky = vec![5u8; 50_000];
        let body = compress_auto(&blocky);
        assert_eq!(body[0], MODE_LZSS);
        let mut r = Reassembler::new(config(64 * 1024));
        for f in frames_of_body(&body, 2, 64 * 1024) {
            let _ = r.push("s", f).unwrap();
        }
        assert_eq!(r.copied_bytes(), blocky.len() as u64);
    }

    #[test]
    fn an_lzss_tagged_transfer_still_reassembles() {
        // `split` sends RAW only, but receivers keep reading the tag: a
        // body of `compress_auto` output reassembles to the payload, in
        // one chunk or many, in order or reversed.
        let payload: Vec<u8> = (0..60_000u32).map(|i| ((i / 64) % 10) as u8).collect();
        let body = compress_auto(&payload);
        assert_eq!(body[0], MODE_LZSS);
        for (chunk_size, reversed) in [(64 * 1024, false), (100, false), (100, true)] {
            let mut frames = frames_of_body(&body, 3, chunk_size);
            if reversed {
                frames.reverse();
            }
            let mut r = Reassembler::new(config(chunk_size));
            let mut out = None;
            for f in frames {
                if let PushResult::Complete(b) = r.push("old-sender", f).unwrap() {
                    out = Some(b);
                }
            }
            assert_eq!(&out.expect("transfer completes")[..], &payload[..]);
        }
        // The helper frames a RAW body exactly as `split` does.
        let raw = [&[MODE_RAW][..], &payload].concat();
        assert_eq!(
            frames_of_body(&raw, 3, 4096),
            split(&payload, 3, &config(4096))
        );
    }

    /// Every frame `split` makes of a fixed corpus — empty to 200 KB,
    /// chunk sizes from 7 bytes to 64 KiB — concatenated.
    fn golden_frames() -> Vec<u8> {
        let mut state = 0x9E37_79B9u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let mut unit = || next() as f32 / u32::MAX as f32 - 0.5;
        let noise: Vec<u8> = (0..30_000).map(|_| (unit() * 512.0) as u8).collect();
        let dense: Vec<u8> = (0..40_000)
            .flat_map(|_| (unit() * 0.2).to_le_bytes())
            .collect();
        let blocky: Vec<u8> = (0..50_000)
            .flat_map(|i| (((i / 64) % 10) as f32 * 0.1).to_le_bytes())
            .collect();
        // Sorted (u32 index, f32 value) pairs: the shape of a top-k update.
        let mut index = 0u32;
        let sparse: Vec<u8> = (0..4_000)
            .flat_map(|_| {
                index += 1 + (unit().abs() * 64.0) as u32;
                [index.to_le_bytes(), unit().to_le_bytes()].concat()
            })
            .collect();
        let text = b"round_done session=s1 round=7 ".repeat(100);
        let corpus: [&[u8]; 7] = [b"", b"x", &text, &noise, &dense, &blocky, &sparse];
        let mut all = Vec::new();
        for payload in corpus {
            for chunk_size in [7, 1000, 4096, 64 * 1024] {
                if chunk_size == 7 && payload.len() > 4096 {
                    continue;
                }
                for frame in split(payload, 77, &config(chunk_size)) {
                    all.extend_from_slice(&frame);
                }
            }
        }
        all
    }

    #[test]
    fn split_frames_are_pinned_byte_for_byte() {
        // Pinned by the split that still offered payloads to LZSS, over
        // the corpus with compression off: dropping the trial moves no
        // byte of a RAW frame.
        let all = golden_frames();
        assert_eq!(
            (all.len(), sdflmq_mqtt::fnv1a64(&all)),
            (1_305_552, 0xdead_318a_cabd_eefd)
        );
    }
}
