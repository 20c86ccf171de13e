//! Ablation benches for the design choices the paper leaves open (§III.E:
//! aggregator ratio, load-balancer policy) and the ones this
//! implementation added (`docs/ARCHITECTURE.md`: payload batching,
//! bridging; robust aggregation).
//!
//! Subcommands (run all with no argument):
//!
//! * `ratio`     — aggregator-ratio sweep at 20 clients (ABL-1)
//! * `optimizer` — load-balancer policies under memory drift (ABL-2)
//! * `payload`   — chunk-size sweep, RAW vs an LZSS body (ABL-3)
//! * `bridge`    — single broker vs bridged regions (ABL-4)
//! * `robust`    — FedAvg vs median vs trimmed mean under label-flip
//!   poisoning (ABL-5)
//!
//! ```text
//! cargo run --release -p sdflmq-bench --bin ablations -- [subcommand]
//! ```

use sdflmq_core::{
    simulate, AggregationMethod, CoordinateMedian, FedAvg, GeneticConfig, GeneticPlacement,
    MemoryAware, RandomPlacement, RoundRobin, SimConfig, StaticOrder, Topology, TrimmedMean,
};
use sdflmq_dataset::{Split, SynthDigits};
use sdflmq_mqttfc::batching::{split, BatchConfig};
use sdflmq_mqttfc::compress::compress_auto;
use sdflmq_nn::{evaluate, train, Matrix, Mlp, MlpSpec, Sgd, TrainConfig};
use sdflmq_sim::SystemSpec;
use std::time::Duration as StdDuration;

fn ratio_sweep() {
    println!("\n## ABL-1: aggregator ratio sweep (20 clients, 10 rounds, virtual time)");
    println!(
        "{:>7} | {:>10} | {:>12}",
        "ratio", "total (s)", "aggregators"
    );
    for ratio in [0.1, 0.2, 0.3, 0.4, 0.5] {
        let topo = Topology::Hierarchical {
            aggregator_ratio: ratio,
        };
        let aggs = topo.aggregator_count(20);
        let report = simulate(SimConfig {
            optimizer: Box::new(MemoryAware),
            ..SimConfig::fig8(20, topo)
        });
        println!(
            "{ratio:>7.1} | {:>10.2} | {aggs:>12}",
            report.total.as_secs_f64()
        );
    }
}

fn optimizer_sweep() {
    println!("\n## ABL-2: role-optimizer policies (15 clients, 10 rounds, drifting memory)");
    println!(
        "{:>12} | {:>10} | {:>16}",
        "policy", "total (s)", "role changes/rnd"
    );
    let policies: Vec<(&str, Box<dyn sdflmq_core::RoleOptimizer>)> = vec![
        ("static", Box::new(StaticOrder)),
        ("round_robin", Box::new(RoundRobin)),
        ("memory", Box::new(MemoryAware)),
        ("random", Box::new(RandomPlacement::new(3))),
    ];
    for (name, optimizer) in policies {
        let report = simulate(SimConfig {
            optimizer,
            ..SimConfig::fig8(
                15,
                Topology::Hierarchical {
                    aggregator_ratio: 0.3,
                },
            )
        });
        let changes: usize = report.rounds.iter().skip(1).map(|r| r.rearranged).sum();
        println!(
            "{name:>12} | {:>10.2} | {:>16.1}",
            report.total.as_secs_f64(),
            changes as f64 / (report.rounds.len() - 1).max(1) as f64
        );
    }
}

fn payload_sweep() {
    println!("\n## ABL-3: batching + compression on an MLP parameter payload");
    // A realistically-shaped payload: trained-ish parameter bytes.
    let spec = MlpSpec::mnist_mlp();
    let model = Mlp::new(spec, 9);
    let payload = sdflmq_nn::serialize_params(model.params());
    println!(
        "raw payload: {} bytes ({} params)",
        payload.len(),
        model.param_count()
    );
    println!(
        "{:>10} {:>12} | {:>8} | {:>12} | {:>14}",
        "chunk", "compress", "chunks", "wire bytes", "vs raw"
    );
    for chunk_size in [16 * 1024usize, 64 * 1024, 256 * 1024] {
        for compress in [false, true] {
            let (chunks, wire) = transfer(&payload, chunk_size, compress);
            println!(
                "{:>10} {:>12} | {:>8} | {:>12} | {:>13.1}%",
                chunk_size,
                compress,
                chunks,
                wire,
                100.0 * wire as f64 / payload.len() as f64
            );
        }
    }
    println!("(raw f32 parameters have near-random mantissas: LZSS stores them verbatim)");

    // The classic FL remedy: 8-bit uniform quantization before transport.
    // Quantized tensors have long runs and small alphabets — they compress.
    let params = model.params();
    let (lo, hi) = params
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let scale = (hi - lo).max(1e-12) / 255.0;
    let quantized: Vec<u8> = params.iter().map(|&v| ((v - lo) / scale) as u8).collect();
    let (_, wire) = transfer(&quantized, 64 * 1024, true);
    println!(
        "8-bit quantized + LZSS: {} bytes on the wire ({:.1}% of the raw f32 payload)",
        wire,
        100.0 * wire as f64 / payload.len() as f64
    );
}

/// Chunk count and wire bytes of one transfer of `payload`: as `split`
/// sends it (RAW), or with `compress` as a body of [`compress_auto`]
/// output. `split` always frames `[MODE_RAW] ++ x`, so framing the
/// `compress_auto` body minus its own tag yields frames of that body's
/// exact length and chunk boundaries.
fn transfer(payload: &[u8], chunk_size: usize, compress: bool) -> (usize, usize) {
    let cfg = BatchConfig {
        chunk_size,
        stale_after: StdDuration::from_secs(60),
    };
    let frames = if compress {
        split(&compress_auto(payload)[1..], 1, &cfg)
    } else {
        split(payload, 1, &cfg)
    };
    (frames.len(), frames.iter().map(|f| f.len()).sum())
}

fn bridge_sweep() {
    println!("\n## ABL-4: broker bridging (20 clients, 10 rounds, virtual time)");
    println!("{:>8} | {:>10}", "regions", "total (s)");
    for regions in [1u32, 2, 4] {
        let report = simulate(SimConfig {
            optimizer: Box::new(MemoryAware),
            regions,
            ..SimConfig::fig8(
                20,
                Topology::Hierarchical {
                    aggregator_ratio: 0.3,
                },
            )
        });
        println!("{regions:>8} | {:>10.2}", report.total.as_secs_f64());
    }
    println!("(bridged regions pay a per-hop latency but keep per-broker load lower;");
    println!(" the virtual-time model charges only the hop here — broker CPU contention");
    println!(" is visible in the threaded stack's broker stats instead)");
}

fn robust_sweep() {
    println!("\n## ABL-5: aggregation robustness under label-flip poisoning");
    let clients = 10usize;
    let samples = 200usize;
    let gen = SynthDigits::new(11);
    let train_ds = gen.generate(Split::Train, clients * samples);
    let test = gen.generate(Split::Test, 1000);
    let test_x = Matrix::from_vec(test.len(), 784, test.images.clone());
    let spec = MlpSpec {
        input: 784,
        hidden: vec![64],
        output: 10,
    };

    // Train each client once on its slice; poisoned clients rotate labels.
    let train_client = |ci: usize, poisoned: bool| -> Vec<f32> {
        let idx: Vec<usize> = (ci * samples..(ci + 1) * samples).collect();
        let subset = train_ds.subset(&idx);
        let labels: Vec<usize> = if poisoned {
            subset.labels.iter().map(|&l| (l + 1) % 10).collect()
        } else {
            subset.labels.clone()
        };
        let x = Matrix::from_vec(subset.len(), 784, subset.images.clone());
        let mut model = Mlp::new(spec.clone(), 5);
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        train(
            &mut model,
            &mut opt,
            &x,
            &labels,
            &TrainConfig {
                batch_size: 32,
                epochs: 4,
                shuffle_seed: ci as u64,
            },
        );
        model.params().to_vec()
    };

    println!(
        "{:>9} | {:>8} {:>8} {:>13}",
        "poisoned", "fedavg", "median", "trimmed(0.2)"
    );
    for poisoned in [0usize, 1, 2, 3, 4] {
        let locals: Vec<Vec<f32>> = (0..clients)
            .map(|ci| train_client(ci, ci < poisoned))
            .collect();
        let contributions: Vec<(&[f32], u64)> = locals
            .iter()
            .map(|p| (p.as_slice(), samples as u64))
            .collect();
        let mut row = format!("{poisoned:>9} |");
        for method in [
            Box::new(FedAvg) as Box<dyn AggregationMethod>,
            Box::new(CoordinateMedian),
            Box::new(TrimmedMean::new(0.2)),
        ] {
            let agg = method.aggregate(&contributions).unwrap();
            let mut model = Mlp::new(spec.clone(), 5);
            model.set_params(&agg);
            let acc = evaluate(&model, &test_x, &test.labels) * 100.0;
            row.push_str(&format!(" {acc:>8.2}"));
        }
        println!("{row}");
    }
}

fn genetic_sweep() {
    println!("\n## ABL-6: black-box genetic placement (paper future work) - heterogeneous fleet");
    println!("16 clients (1 large / 1 medium / 2 small, cycled), 120 rounds, stationary loads");
    let run = |optimizer: Box<dyn sdflmq_core::RoleOptimizer>| -> Vec<f64> {
        let report = simulate(SimConfig {
            optimizer,
            rounds: 120,
            drift: false, // stationary fleet: GA fitness stays comparable
            // Light local training plus a large model: the round is
            // dominated by aggregation, and an aggregator whose parameter
            // stack spills its free memory pays the thrash penalty (paper
            // s-III.E.6) - placement is the lever under test.
            samples_per_client: 50,
            local_epochs: 1,
            model_params: 2_000_000,
            scale_bandwidth_with_cpu: true,
            system_mix: vec![
                SystemSpec::edge_large(),
                SystemSpec::edge_medium(),
                SystemSpec::edge_small(),
                SystemSpec::edge_small(),
            ],
            ..SimConfig::fig8(
                16,
                Topology::Hierarchical {
                    aggregator_ratio: 0.3,
                },
            )
        });
        report
            .rounds
            .iter()
            .map(|r| r.round_span.as_secs_f64())
            .collect()
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    println!(
        "{:>12} | {:>15} | {:>15} | {:>10}",
        "policy", "rounds 1-20 (s)", "rounds 101-120", "learned?"
    );
    for (name, optimizer) in [
        (
            "genetic",
            Box::new(GeneticPlacement::new(GeneticConfig::default()))
                as Box<dyn sdflmq_core::RoleOptimizer>,
        ),
        ("memory", Box::new(MemoryAware)),
        ("random", Box::new(RandomPlacement::new(9))),
    ] {
        let spans = run(optimizer);
        let early = mean(&spans[..20]);
        let late = mean(&spans[spans.len() - 20..]);
        println!(
            "{name:>12} | {early:>15.2} | {late:>15.2} | {:>10}",
            if late < early * 0.98 { "improved" } else { "-" }
        );
    }
}

fn main() {
    let arg = std::env::args().nth(1);
    match arg.as_deref() {
        Some("ratio") => ratio_sweep(),
        Some("optimizer") => optimizer_sweep(),
        Some("payload") => payload_sweep(),
        Some("bridge") => bridge_sweep(),
        Some("robust") => robust_sweep(),
        Some("genetic") => genetic_sweep(),
        Some(other) => {
            eprintln!("unknown ablation {other:?}; running all");
            run_all();
        }
        None => run_all(),
    }
}

fn run_all() {
    ratio_sweep();
    optimizer_sweep();
    payload_sweep();
    bridge_sweep();
    robust_sweep();
    genetic_sweep();
}
