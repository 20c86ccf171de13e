//! Non-IID partitioning and robust aggregation (library-level demo).
//!
//! Shows the dataset partitioners (IID vs shards vs Dirichlet) and compares
//! FedAvg against coordinate-median aggregation when a minority of clients
//! are poisoned (label-flipped training) — one of the framework's
//! modular-aggregation extension points.
//!
//! It exits non-zero unless the label skew rises strictly from IID
//! through shrinking Dirichlet concentrations to two-class shards, and
//! both aggregators beat 50 % test accuracy (chance is 10 %).
//!
//! ```text
//! cargo run --release --example noniid_robust_aggregation
//! ```

use sdflmq::core::{AggregationMethod, CoordinateMedian, FedAvg};
use sdflmq::dataset::{partition, Split, SynthDigits};
use sdflmq::nn::{evaluate, train, Matrix, Mlp, MlpSpec, Sgd, TrainConfig};

const CLIENTS: usize = 10;
const SAMPLES_PER_CLIENT: usize = 300;
const POISONED: usize = 3;

fn main() {
    let gen = SynthDigits::new(7);
    let train_ds = gen.generate(Split::Train, CLIENTS * SAMPLES_PER_CLIENT);
    let test_ds = gen.generate(Split::Test, 1500);
    let test_x = Matrix::from_vec(test_ds.len(), 784, test_ds.images.clone());

    // --- Partition skew comparison -----------------------------------
    println!("label skew by partitioner (0 = IID, 1 = single-class):");
    let skew = |parts: &[Vec<usize>]| partition::label_skew(&train_ds.labels, parts);
    let iid = partition::iid(train_ds.len(), CLIENTS, SAMPLES_PER_CLIENT, 1);
    let mut skews = vec![("iid".to_owned(), skew(&iid))];
    for alpha in [10.0, 0.5, 0.1] {
        let d = partition::dirichlet(&train_ds.labels, CLIENTS, alpha, 1);
        skews.push((format!("dirichlet({alpha})"), skew(&d)));
    }
    let shards = partition::shards(&train_ds.labels, CLIENTS, 2, 1);
    skews.push(("shards (2/cli)".to_owned(), skew(&shards)));
    for (name, value) in &skews {
        println!("  {name:<15} {value:.3}");
    }
    assert!(
        skews.windows(2).all(|pair| pair[0].1 < pair[1].1),
        "label skew must rise strictly in the order printed: {skews:?}"
    );

    // --- Robust aggregation under poisoning --------------------------
    // Each client trains one local round; POISONED clients train on
    // rotated labels (label + 1 mod 10), a classic poisoning model.
    let spec = MlpSpec {
        input: 784,
        hidden: vec![64],
        output: 10,
    };
    let mut locals: Vec<(Vec<f32>, u64)> = Vec::new();
    for (ci, part) in iid.iter().enumerate() {
        let subset = train_ds.subset(part);
        let x = Matrix::from_vec(subset.len(), 784, subset.images.clone());
        let labels: Vec<usize> = if ci < POISONED {
            subset.labels.iter().map(|&l| (l + 1) % 10).collect()
        } else {
            subset.labels.clone()
        };
        let mut model = Mlp::new(spec.clone(), 3);
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
        locals.push((model.params().to_vec(), subset.len() as u64));
    }

    let contributions: Vec<(&[f32], u64)> =
        locals.iter().map(|(p, w)| (p.as_slice(), *w)).collect();
    println!("\nglobal accuracy with {POISONED}/{CLIENTS} poisoned clients:");
    for method in [
        Box::new(FedAvg) as Box<dyn AggregationMethod>,
        Box::new(CoordinateMedian),
    ] {
        let aggregated = method.aggregate(&contributions).unwrap();
        let mut model = Mlp::new(spec.clone(), 3);
        model.set_params(&aggregated);
        let acc = evaluate(&model, &test_x, &test_ds.labels);
        println!("  {:<12} {:.2}%", method.name(), acc * 100.0);
        assert!(
            acc > 0.5,
            "{} must beat 50 % accuracy, got {:.2}%",
            method.name(),
            acc * 100.0
        );
    }
}
