//! Low-bandwidth swarm — compressed data plane at massive-IoT scale.
//!
//! Forty contributors run a ten-round hierarchical FL session on
//! constrained 256 KB/s uplinks — the regime where per-client uplink
//! bytes, not compute, bound fleet size. The same deployment runs three
//! times: dense f32 (the wire-compatible baseline), int8 affine
//! quantization, and top-k sparse deltas, and reports the per-round
//! data-plane bytes and total processing delay of each.
//!
//! ```text
//! cargo run --release --example lowbandwidth_swarm
//! ```

use sdflmq::core::{simulate, MemoryAware, SimConfig, SimReport, Topology, UpdateCodec};

const CLIENTS: usize = 40;
const ROUNDS: u32 = 10;

fn run(update_codec: UpdateCodec) -> SimReport {
    simulate(SimConfig {
        rounds: ROUNDS,
        optimizer: Box::new(MemoryAware),
        bandwidth: 256.0 * 1024.0, // constrained edge uplinks
        update_codec,
        seed: 42,
        ..SimConfig::fig8(
            CLIENTS,
            Topology::Hierarchical {
                aggregator_ratio: 0.3,
            },
        )
    })
}

fn main() {
    let dense = run(UpdateCodec::Dense);
    let int8 = run(UpdateCodec::Int8);
    let topk = run(UpdateCodec::TOP_K_DEFAULT);

    println!("codec  bytes/round  reduction  divergence  total-delay");
    for report in [&dense, &int8, &topk] {
        let per_round = report.network_bytes / ROUNDS as u64;
        println!(
            "{:<5}  {:>11}  {:>8.2}x  {:>10.2e}  {}",
            report.data_codec,
            per_round,
            dense.network_bytes as f64 / report.network_bytes as f64,
            report.codec_divergence,
            report.total
        );
    }

    let int8_reduction = dense.network_bytes as f64 / int8.network_bytes as f64;
    let topk_reduction = dense.network_bytes as f64 / topk.network_bytes as f64;
    println!(
        "\n{CLIENTS} clients × {ROUNDS} rounds: int8 cuts data-plane bytes {int8_reduction:.2}x, \
         top-k {topk_reduction:.2}x; delay {} → {} (int8) → {} (top-k)",
        dense.total, int8.total, topk.total
    );

    // The acceptance claims, asserted so CI can run this as a smoke test.
    assert_eq!(dense.rounds.len(), ROUNDS as usize);
    assert_eq!(int8.rounds.len(), ROUNDS as usize);
    assert_eq!(topk.rounds.len(), ROUNDS as usize);
    assert!(
        int8_reduction >= 3.9,
        "int8 bytes/round reduction {int8_reduction:.3} < 3.9x"
    );
    assert!(
        topk_reduction >= 25.0,
        "top-k bytes/round reduction {topk_reduction:.3} < 25x"
    );
    assert!(
        int8.total < dense.total && topk.total < int8.total,
        "smaller updates must finish rounds faster on constrained links"
    );
    assert!(
        int8.codec_divergence < 0.01,
        "int8 single-update divergence stays below 1%"
    );
    println!("\nlow-bandwidth swarm holds: ≥3.9x (int8) and ≥25x (top-k) bytes/round reduction");
}
