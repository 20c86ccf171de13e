//! Straggler swarm — dropout-tolerant rounds at massive-IoT scale.
//!
//! Fifty contributors run a ten-round hierarchical FL session while ~20%
//! of them die over the run (2.2% per-client, per-round churn) and a
//! quarter of the fleet straggles at 3× training time. The paper's
//! all-or-abort lifecycle (§III.E.1) would kill this session on the first
//! blown deadline; the dropout-tolerant runtime instead evicts the dead,
//! re-delegates the aggregator positions they held mid-round, and
//! finishes every round with the survivors.
//!
//! ```text
//! cargo run --release --example straggler_swarm
//! ```

use sdflmq::core::{simulate, MemoryAware, SimConfig, Topology};

const CLIENTS: usize = 50;
const ROUNDS: u32 = 10;
// (1 - 0.022)^10 ≈ 0.80: about 20% of the fleet dies over the session.
const DROPOUT_PROB: f64 = 0.022;

fn main() {
    let report = simulate(SimConfig {
        rounds: ROUNDS,
        optimizer: Box::new(MemoryAware),
        dropout_prob: DROPOUT_PROB,
        straggler_fraction: 0.25,
        straggler_multiplier: 3.0,
        seed: 42,
        ..SimConfig::fig8(
            CLIENTS,
            Topology::Hierarchical {
                aggregator_ratio: 0.3,
            },
        )
    });

    println!("round  survivors  evicted  rearranged  round-span");
    for r in &report.rounds {
        println!(
            "{:>5}  {:>9}  {:>7}  {:>10}  {}",
            r.round, r.survivors, r.evicted, r.rearranged, r.round_span
        );
    }
    println!(
        "\n{} rounds completed, {} clients evicted ({} held aggregator \
         positions and were re-delegated mid-round), {} rounds finished \
         despite active dropout; total {}",
        report.rounds.len(),
        report.evicted,
        report.aggregators_redelegated,
        report.completed_despite_dropout,
        report.total
    );

    // The acceptance claims, asserted so CI can run this as a smoke test.
    assert_eq!(
        report.rounds.len(),
        ROUNDS as usize,
        "every round completed — no abort"
    );
    assert!(report.evicted > 0, "churn actually occurred");
    assert!(
        report.completed_despite_dropout > 0,
        "rounds kept completing after evictions"
    );
    let survivors = report.rounds.last().unwrap().survivors;
    assert_eq!(survivors + report.evicted, CLIENTS, "ledger balances");
    println!("\nsession finished with {survivors}/{CLIENTS} survivors — no abort");
}
