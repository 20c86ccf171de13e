//! Figure 8 reproduction: total processing delay of 10 FL rounds vs number
//! of contributing clients, for 2-layer hierarchical aggregation (30%
//! aggregators) against central aggregation.
//!
//! The paper measured wall-clock delay on a real testbed; this harness
//! reproduces the experiment in deterministic virtual time (the
//! `core::simrun` row of "Why there are still two" in
//! `docs/ARCHITECTURE.md`) with the same mechanism under test: a single aggregator
//! must serialize the ingest of N parameter uploads on its access link and
//! hold an N-deep parameter stack in memory, while hierarchical
//! aggregation spreads both across cluster heads.
//!
//! Expected shape (paper §VI): both curves grow with client count, the two
//! stay close, and the gap moves in hierarchical aggregation's favour as N
//! grows.
//!
//! ```text
//! cargo run --release -p sdflmq-bench --bin fig8
//! ```

use sdflmq_core::{simulate, MemoryAware, SimConfig, Topology};

const CLIENT_COUNTS: [usize; 4] = [5, 10, 15, 20];

fn run(num_clients: usize, topology: Topology) -> (f64, f64, f64) {
    let report = simulate(SimConfig {
        optimizer: Box::new(MemoryAware),
        ..SimConfig::fig8(num_clients, topology)
    });
    let train: f64 = report
        .rounds
        .iter()
        .map(|r| r.train_span.as_secs_f64())
        .sum();
    let agg: f64 = report
        .rounds
        .iter()
        .map(|r| r.agg_span.as_secs_f64() - r.train_span.as_secs_f64())
        .sum();
    (report.total.as_secs_f64(), train, agg)
}

fn fmt_mmss(secs: f64) -> String {
    let m = (secs / 60.0).floor() as u64;
    let s = secs - m as f64 * 60.0;
    format!("{m}:{s:05.2}")
}

fn main() {
    println!("# Fig. 8 — total processing delay of 10 FL rounds (virtual time)");
    println!("# hier: 2-layer hierarchical SDFL, 30% aggregators, memory-aware placement");
    println!("# cent: central aggregation (single aggregator)");
    println!(
        "{:>8} | {:>12} {:>12} | {:>12} {:>12} | {:>9}",
        "clients", "hier total", "(mm:ss)", "cent total", "(mm:ss)", "cent/hier"
    );
    let mut prev_ratio = f64::NEG_INFINITY;
    let mut ratios = Vec::new();
    for &n in &CLIENT_COUNTS {
        let (hier, _, _) = run(
            n,
            Topology::Hierarchical {
                aggregator_ratio: 0.3,
            },
        );
        let (cent, _, _) = run(n, Topology::Central);
        let ratio = cent / hier;
        println!(
            "{n:>8} | {hier:>12.2} {:>12} | {cent:>12.2} {:>12} | {ratio:>9.3}",
            fmt_mmss(hier),
            fmt_mmss(cent)
        );
        ratios.push(ratio);
        prev_ratio = prev_ratio.max(ratio);
    }
    println!(
        "\nshape check: delay grows with N for both topologies; central/hierarchical \
         ratio at N=20 ({:.3}) >= ratio at N=5 ({:.3}): {}",
        ratios[ratios.len() - 1],
        ratios[0],
        ratios[ratios.len() - 1] >= ratios[0]
    );

    // Per-phase breakdown at the largest scale, for the discussion section.
    println!("\n# phase breakdown at N=20 (sums over 10 rounds, seconds)");
    println!("{:>6} | {:>10} {:>14}", "topo", "training", "agg+transfer");
    for (name, topo) in [
        (
            "hier",
            Topology::Hierarchical {
                aggregator_ratio: 0.3,
            },
        ),
        ("cent", Topology::Central),
    ] {
        let (total, train, agg) = run(20, topo);
        println!(
            "{name:>6} | {train:>10.2} {:>14.2}   (total {total:.2})",
            agg
        );
    }
}
