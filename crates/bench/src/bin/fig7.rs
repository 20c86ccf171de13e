//! Figure 7 reproduction: accuracy convergence of offline (local) training
//! vs 2-layer hierarchical SDFL with 5 clients.
//!
//! Paper setup (§VI): MLP on MNIST; FL clients each hold 1% of the
//! training set (600 samples), the offline baseline holds 5% (3,000
//! samples — "to set an equal ground"); FedAvg aggregation; accuracy is
//! measured on a held-out test set after each of 10 rounds (5 local epochs
//! per round).
//!
//! This harness runs the *real* threaded SDFLMQ stack — broker,
//! coordinator, parameter server, five client threads — plus the offline
//! baseline, and prints both series. Paper reference values are printed
//! alongside (absolute numbers come from MNIST; ours from the documented
//! synthetic substitute — the comparison is about the *shape*).
//!
//! It is also a smoke test of the real stack: the exit code is non-zero
//! unless all 10 SDFL rounds report and the printed shape check holds.
//!
//! ```text
//! cargo run --release -p sdflmq-bench --bin fig7
//! ```

use sdflmq_core::{
    ClientId, Coordinator, CoordinatorConfig, ModelId, ParamServer, PreferredRole, SdflmqClient,
    SdflmqClientConfig, SessionId, Topology, WaitOutcome,
};
use sdflmq_dataset::{Split, SynthDigits};
use sdflmq_mqtt::Broker;
use sdflmq_mqttfc::BatchConfig;
use sdflmq_nn::{evaluate, train, Adam, Matrix, Mlp, MlpSpec, TrainConfig};
use std::sync::mpsc;
use std::time::Duration;

const ROUNDS: u32 = 10;
const LOCAL_EPOCHS: usize = 5;
const CLIENTS: usize = 5;
const SAMPLES_PER_CLIENT: usize = 600; // 1% of 60k
const OFFLINE_SAMPLES: usize = 3_000; // 5% of 60k
const TEST_SAMPLES: usize = 10_000;

/// Paper-reported accuracy series (Fig. 7) for side-by-side comparison.
const PAPER_OFFLINE: [f64; 10] = [
    59.96, 88.31, 89.32, 89.51, 89.74, 89.61, 89.56, 89.60, 89.50, 89.60,
];
const PAPER_SDFL: [f64; 10] = [
    81.21, 88.30, 90.95, 92.21, 92.77, 92.92, 92.91, 92.98, 93.05, 93.01,
];

fn offline_series(gen: &SynthDigits, test_x: &Matrix, test_labels: &[usize]) -> Vec<f64> {
    let ds = gen.generate(Split::Train, OFFLINE_SAMPLES);
    let x = Matrix::from_vec(ds.len(), 784, ds.images.clone());
    let mut model = Mlp::new(MlpSpec::mnist_mlp(), 1);
    let mut opt = Adam::new(0.001);
    (1..=ROUNDS)
        .map(|round| {
            train(
                &mut model,
                &mut opt,
                &x,
                &ds.labels,
                &TrainConfig {
                    batch_size: 32,
                    epochs: LOCAL_EPOCHS,
                    shuffle_seed: round as u64,
                },
            );
            evaluate(&model, test_x, test_labels) * 100.0
        })
        .collect()
}

fn sdfl_series(gen: &SynthDigits, test_x: &Matrix, test_labels: &[usize]) -> Vec<f64> {
    let broker = Broker::start_default();
    let _coordinator = Coordinator::start(
        &broker,
        CoordinatorConfig {
            topology: Topology::Hierarchical {
                aggregator_ratio: 0.4, // 2 aggregators of 5 — 2-layer hierarchy
            },
            round_timeout: Duration::from_secs(600),
            ..CoordinatorConfig::default()
        },
    )
    .expect("coordinator");
    let _ps = ParamServer::start(&broker, BatchConfig::default()).expect("param server");

    let session = SessionId::new("fig7").unwrap();
    let model_name = ModelId::new("mlp").unwrap();

    // Round-accuracy reports flow back over a channel from client 0.
    let (acc_tx, acc_rx) = mpsc::channel::<f64>();

    let mut handles = Vec::new();
    for i in 0..CLIENTS {
        let client = SdflmqClient::connect(
            &broker,
            ClientId::new(format!("client_{i}")).unwrap(),
            SdflmqClientConfig {
                system_seed: i as u64,
                ..SdflmqClientConfig::default()
            },
        )
        .expect("connect");
        if i == 0 {
            client
                .create_fl_session(
                    &session,
                    &model_name,
                    Duration::from_secs(7200),
                    CLIENTS,
                    CLIENTS,
                    Duration::from_secs(300),
                    ROUNDS,
                    PreferredRole::Any,
                    SAMPLES_PER_CLIENT as u64,
                )
                .expect("create");
        } else {
            client
                .join_fl_session(
                    &session,
                    &model_name,
                    PreferredRole::Any,
                    SAMPLES_PER_CLIENT as u64,
                )
                .expect("join");
        }

        let local = gen.generate_range(Split::Train, i * SAMPLES_PER_CLIENT, SAMPLES_PER_CLIENT);
        let session = session.clone();
        let acc_tx = acc_tx.clone();
        let test_x = if i == 0 { Some(test_x.clone()) } else { None };
        let test_labels = test_labels.to_vec();

        handles.push(std::thread::spawn(move || {
            let x = Matrix::from_vec(local.len(), 784, local.images.clone());
            let mut model = Mlp::new(MlpSpec::mnist_mlp(), 1);
            let mut opt = Adam::new(0.001);
            for round in 1..=ROUNDS {
                train(
                    &mut model,
                    &mut opt,
                    &x,
                    &local.labels,
                    &TrainConfig {
                        batch_size: 32,
                        epochs: LOCAL_EPOCHS,
                        shuffle_seed: (i as u64) << 8 | round as u64,
                    },
                );
                client.set_model(&session, model.params()).unwrap();
                client.send_local(&session).unwrap();
                let outcome = client
                    .wait_global_update(&session, Duration::from_secs(600))
                    .unwrap();
                model.set_params(&client.model_params(&session).unwrap());
                if let Some(test_x) = &test_x {
                    let acc = evaluate(&model, test_x, &test_labels) * 100.0;
                    acc_tx.send(acc).unwrap();
                }
                if outcome == WaitOutcome::Completed {
                    break;
                }
            }
        }));
    }
    drop(acc_tx);

    let series: Vec<f64> = acc_rx.iter().collect();
    for h in handles {
        h.join().unwrap();
    }
    series
}

fn main() {
    let gen = SynthDigits::new(42);
    let test = gen.generate(Split::Test, TEST_SAMPLES);
    let test_x = Matrix::from_vec(test.len(), 784, test.images.clone());

    eprintln!("running offline baseline ({OFFLINE_SAMPLES} samples, {ROUNDS} rounds)...");
    let offline = offline_series(&gen, &test_x, &test.labels);
    eprintln!(
        "running 2-layer hierarchical SDFL ({CLIENTS} clients x {SAMPLES_PER_CLIENT} samples)..."
    );
    let sdfl = sdfl_series(&gen, &test_x, &test.labels);

    println!("\n# Fig. 7 — MLP accuracy convergence (test accuracy %, per round)");
    println!("# offline: local training on 5% of the train set");
    println!("# sdfl:    5 clients x 1% each, FedAvg, 2-layer hierarchical SDFL");
    println!(
        "{:>5} | {:>12} {:>12} | {:>12} {:>12}",
        "round", "offline", "sdfl", "paper-offl", "paper-sdfl"
    );
    for r in 0..ROUNDS as usize {
        println!(
            "{:>5} | {:>12.2} {:>12.2} | {:>12.2} {:>12.2}",
            r + 1,
            offline.get(r).copied().unwrap_or(f64::NAN),
            sdfl.get(r).copied().unwrap_or(f64::NAN),
            PAPER_OFFLINE[r],
            PAPER_SDFL[r]
        );
    }
    let last_off = offline.last().copied().unwrap_or(0.0);
    let last_sdfl = sdfl.last().copied().unwrap_or(0.0);
    let shape_holds = last_sdfl >= last_off - 2.0;
    println!(
        "\nshape check: both converge (offline {last_off:.1}%, sdfl {last_sdfl:.1}%); \
         sdfl final >= offline final - 2pp: {shape_holds}"
    );
    if sdfl.len() != ROUNDS as usize || !shape_holds {
        eprintln!(
            "fig7 failed: {} of {ROUNDS} SDFL rounds reported, shape check {shape_holds}",
            sdfl.len()
        );
        std::process::exit(1);
    }
}
