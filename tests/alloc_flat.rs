//! Steady-state allocation gates, measured with a counting
//! `#[global_allocator]`: a data-plane round on reused buffers allocates
//! the same number of times every round (nothing escapes the pools), and
//! the WAL writer appends without allocating at all.
//!
//! One `#[test]` on purpose: the counter is process-wide, so a second test
//! (or the harness reporting one) running beside a measurement would show
//! up in it.

use bytes::Bytes;
use sdflmq::core::{AggregationMethod, FedAvg, UpdateCodec};
use sdflmq::mqtt::persist::wal::{WalRecord, WalWriter};
use sdflmq::mqtt::{QoS, TopicName};
use sdflmq::nn::parallel::WorkerPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const MODEL_PARAMS: usize = 109_386; // the paper's 784-128-64-10 MLP
const WARMUP: usize = 2;
const ROUNDS: usize = 6;

/// Allocation counts of `ROUNDS` calls to `round`, after `WARMUP` calls
/// that let buffers and thread-locals reach their steady capacity.
fn allocs_per_round(mut round: impl FnMut()) -> Vec<u64> {
    for _ in 0..WARMUP {
        round();
    }
    (0..ROUNDS)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            round();
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .collect()
}

/// One data-plane round the way the client runtime's pooled path runs it:
/// int8-encode, decode and FedAvg-fold a model-sized update through
/// buffers that live across rounds.
fn data_plane_rounds() -> Vec<u64> {
    let x: Vec<f32> = (0..MODEL_PARAMS)
        .map(|i| ((i as f32) * 0.37).sin() * (1.0 + (i % 17) as f32 * 0.25))
        .collect();
    let codec = UpdateCodec::Int8;
    let pool = WorkerPool::new(2);
    let mut residual = Vec::new();
    let mut encoded = Vec::new();
    let mut decoded = Vec::new();
    allocs_per_round(|| {
        codec.encode_into(&x, None, &mut residual, &pool, &mut encoded);
        codec
            .decode_into(&encoded, None, &pool, &mut decoded)
            .expect("decodes");
        let mut acc = FedAvg.accumulator();
        acc.fold_par(&decoded, 600, &pool).expect("fold");
        assert_eq!(acc.finish().expect("finish").len(), MODEL_PARAMS);
    })
}

/// One WAL round: 32 per-record appends and one 32-record group commit
/// through the writer's reused encode scratch.
fn wal_writer_rounds() -> Vec<u64> {
    let dir = std::env::temp_dir().join(format!("sdflmq-alloc-flat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut writer = WalWriter::create(&dir.join("probe.log")).expect("create wal");
    let records: Vec<WalRecord> = (0..64)
        .map(|i| WalRecord::InflightInsert {
            client: format!("probe-client-{}", i % 4),
            id: i + 1,
            topic: TopicName::new("dur/all").unwrap(),
            qos: QoS::AtLeastOnce,
            retain: false,
            released: false,
            payload: Bytes::from_static(b"durable-round-update"),
        })
        .collect();
    let mut seq = 0u64;
    let per_round = allocs_per_round(|| {
        for rec in &records[..32] {
            seq += 1;
            writer.append(seq, rec).expect("append");
        }
        seq = writer.append_batch(seq, &records[32..]).expect("batch");
    });
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
    per_round
}

#[test]
fn steady_state_allocations_are_flat() {
    let data_plane = data_plane_rounds();
    assert!(
        data_plane.windows(2).all(|w| w[0] == w[1]),
        "data-plane allocations grew round over round: {data_plane:?}"
    );
    let wal = wal_writer_rounds();
    assert!(
        wal.iter().all(|&n| n == 0),
        "steady-state WAL appends must be allocation-free: {wal:?}"
    );
}
