//! The update blobs a fleet really ships, on the transfer path and off
//! it. `split` stores every body RAW; `compress_auto`'s early LZSS stop,
//! no longer on the send path but still what the benchmark's replay and
//! ABL-3 measure, is held against the exhaustive trial: it must choose
//! the same storage mode as running LZSS to the end, while dense blobs
//! pay only for the probe.

use bytes::Bytes;
use sdflmq::core::messages::{Blob, UpdateMeta};
use sdflmq::core::{SessionId, UpdateCodec, WireVersion};
use sdflmq::mqttfc::batching::split;
use sdflmq::mqttfc::compress::{compress, compress_auto, MODE_LZSS, MODE_RAW};
use sdflmq::mqttfc::{BatchConfig, PushResult, Reassembler};

/// The 784-128-64-10 MLP's parameter count.
const MLP_PARAMS: usize = 109_386;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// A framed update blob as a client publishes it: `local` encoded with
/// `codec` (deltas against `base`) behind a binary `BlobMeta` header.
fn update_blob(codec: UpdateCodec, local: &[f32], base: &[f32]) -> Vec<u8> {
    let params = codec.encode(local, codec.is_delta().then_some(base), &mut Vec::new());
    let meta = UpdateMeta {
        codec: codec.id(),
        elems: local.len() as u64,
        delta_base: u32::from(codec.is_delta()),
    };
    Blob {
        session_id: SessionId::new("transfer-path").unwrap(),
        round: 1,
        sender: "dev000".to_owned(),
        weight: 256,
        params: Bytes::from(params),
    }
    .encode_update(WireVersion::LATEST, &meta)
    .to_vec()
}

/// The MLP's global and a local one a cubed-uniform step away from it:
/// most coordinates barely move, a few move a lot.
fn global_and_local(rng: &mut Rng) -> (Vec<f32>, Vec<f32>) {
    let global: Vec<f32> = (0..MLP_PARAMS).map(|_| 0.1 * rng.unit()).collect();
    let local: Vec<f32> = global
        .iter()
        .map(|g| {
            let u = rng.unit();
            g + 0.005 * u * u * u
        })
        .collect();
    (global, local)
}

/// The mode a trial run to the end chooses: LZSS exactly when its whole
/// stream is smaller than the input.
fn exhaustive_mode(input: &[u8]) -> u8 {
    if compress(input).len() < input.len() {
        MODE_LZSS
    } else {
        MODE_RAW
    }
}

#[test]
fn the_early_stop_chooses_the_exhaustive_mode() {
    let mut rng = Rng(2);
    let (global, local) = global_and_local(&mut rng);
    let small: Vec<f32> = local[..64].to_vec();
    let blocky: Vec<u8> = (0..50_000)
        .flat_map(|i| (((i / 64) % 10) as f32 * 0.1).to_le_bytes())
        .collect();
    let mut state = 0x1234_5678u32;
    let noise: Vec<u8> = (0..64 * 1024)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state as u8
        })
        .collect();
    let text = b"round_done session=s1 round=7 ".repeat(300);

    // (name, input, the mode it must come out in — `None`: whichever the
    // exhaustive trial picks).
    let cases: Vec<(&str, Vec<u8>, Option<u8>)> = vec![
        (
            "dense MLP blob",
            update_blob(UpdateCodec::Dense, &local, &global),
            Some(MODE_RAW),
        ),
        (
            // Gap-coded indices leave LZSS nothing to find: the exhaustive
            // trial is RAW too.
            "top-k MLP blob",
            update_blob(UpdateCodec::TOP_K_DEFAULT, &local, &global),
            Some(MODE_RAW),
        ),
        (
            "int8 MLP blob",
            update_blob(UpdateCodec::Int8, &local, &global),
            None,
        ),
        (
            "fp16 MLP blob",
            update_blob(UpdateCodec::Fp16, &local, &global),
            None,
        ),
        ("blocky floats", blocky, Some(MODE_LZSS)),
        ("xorshift bytes", noise.clone(), Some(MODE_RAW)),
        (
            "64-element dense blob",
            update_blob(UpdateCodec::Dense, &small, &global[..64]),
            None,
        ),
        (
            "sub-8 KiB noise",
            noise[..8 * 1024 - 1].to_vec(),
            Some(MODE_RAW),
        ),
        ("sub-8 KiB text", text[..8 * 1024].to_vec(), Some(MODE_LZSS)),
    ];
    for (name, input, expected) in cases {
        let exhaustive = exhaustive_mode(&input);
        if let Some(mode) = expected {
            assert_eq!(exhaustive, mode, "{name}: the exhaustive trial");
        }
        let auto = compress_auto(&input);
        assert_eq!(auto[0], exhaustive, "{name}: the early stop");
        if exhaustive == MODE_LZSS {
            assert_eq!(auto[1..], compress(&input)[..], "{name}: LZSS stream");
        } else {
            assert_eq!(auto[1..], input[..], "{name}: raw body");
        }
    }
}

#[test]
fn a_default_topk_update_is_one_raw_chunk_and_arrives_uncopied() {
    let (global, local) = global_and_local(&mut Rng(7));
    let blob = update_blob(UpdateCodec::TOP_K_DEFAULT, &local, &global);
    // ~3.3k values and ~3.3k one- or two-byte gaps: under a 64 KiB chunk.
    assert!(blob.len() < 20_000, "top-k blob is {} B", blob.len());
    let config = BatchConfig::default();
    let frames = split(&blob, 1, &config);
    assert_eq!(frames.len(), 1, "one chunk");
    let mut reassembler = Reassembler::new(config);
    let Ok(PushResult::Complete(payload)) = reassembler.push("dev000", frames[0].clone()) else {
        panic!("a single chunk completes the transfer");
    };
    assert_eq!(payload[..], blob[..]);
    assert_eq!(
        reassembler.copied_bytes(),
        0,
        "a RAW single-chunk transfer is delivered as a slice of its frame"
    );
}
