//! Quickstart — the paper's Listing 1, in Rust.
//!
//! Five clients collaboratively train an MLP digit classifier over MQTT:
//! one creates the FL session, four join, each trains locally for a few
//! epochs per round, sends its parameters for hierarchical aggregation,
//! and waits for the global update.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sdflmq::core::{
    ClientId, Coordinator, CoordinatorConfig, ModelId, ParamServer, PreferredRole, SdflmqClient,
    SdflmqClientConfig, SessionId, Topology, WaitOutcome,
};
use sdflmq::dataset::{Split, SynthDigits};
use sdflmq::mqtt::Broker;
use sdflmq::mqttfc::BatchConfig;
use sdflmq::nn::{evaluate, train, Adam, Matrix, Mlp, MlpSpec, TrainConfig};
use std::time::Duration;

const FL_ROUNDS: u32 = 3;
const CLIENTS: usize = 5;
const SAMPLES_PER_CLIENT: usize = 400;
const LOCAL_EPOCHS: usize = 3;
/// The final global model must beat this test accuracy (it reaches ~76%).
const ACCURACY_FLOOR: f64 = 0.70;

fn main() {
    // Infrastructure: embedded broker, coordinator, parameter server.
    let broker = Broker::start_default();
    let _coordinator = Coordinator::start(
        &broker,
        CoordinatorConfig {
            topology: Topology::Hierarchical {
                aggregator_ratio: 0.4,
            },
            ..CoordinatorConfig::default()
        },
    )
    .expect("start coordinator");
    let _param_server = ParamServer::start(&broker, BatchConfig::default()).expect("start ps");

    let session = SessionId::new("quickstart").unwrap();
    let model_name = ModelId::new("mlp").unwrap();
    let spec = MlpSpec {
        input: 784,
        hidden: vec![64],
        output: 10,
    };

    // Shared test set for reporting.
    let gen = SynthDigits::new(42);
    let test = gen.generate(Split::Test, 1000);
    let test_x = Matrix::from_vec(test.len(), 784, test.images.clone());

    let mut handles = Vec::new();
    for i in 0..CLIENTS {
        let broker_client = SdflmqClient::connect(
            &broker,
            ClientId::new(format!("client_{i}")).unwrap(),
            SdflmqClientConfig {
                system_seed: i as u64,
                ..SdflmqClientConfig::default()
            },
        )
        .expect("connect client");

        // Paper Listing 1: the first client creates the session, the rest
        // join it.
        if i == 0 {
            broker_client
                .create_fl_session(
                    &session,
                    &model_name,
                    Duration::from_secs(3600), // session_time
                    CLIENTS,                   // capacity_min
                    CLIENTS,                   // capacity_max
                    Duration::from_secs(120),  // waiting_time
                    FL_ROUNDS,
                    PreferredRole::Aggregator,
                    SAMPLES_PER_CLIENT as u64,
                )
                .expect("create session");
        } else {
            broker_client
                .join_fl_session(
                    &session,
                    &model_name,
                    PreferredRole::Any,
                    SAMPLES_PER_CLIENT as u64,
                )
                .expect("join session");
        }

        // Each client owns a disjoint slice of the training stream.
        let local = gen.generate_range(Split::Train, i * SAMPLES_PER_CLIENT, SAMPLES_PER_CLIENT);
        let spec = spec.clone();
        let session = session.clone();
        let test_x = test_x.clone();
        let test_labels = test.labels.clone();

        handles.push(std::thread::spawn(move || {
            let x = Matrix::from_vec(local.len(), 784, local.images.clone());
            let mut model = Mlp::new(spec, 7); // same init everywhere
            let mut optimizer = Adam::new(0.001);

            for round in 1..=FL_ROUNDS {
                // Local training.
                train(
                    &mut model,
                    &mut optimizer,
                    &x,
                    &local.labels,
                    &TrainConfig {
                        batch_size: 32,
                        epochs: LOCAL_EPOCHS,
                        shuffle_seed: round as u64,
                    },
                );
                // Federated learning (Listing 1, lines 50-52).
                broker_client.set_model(&session, model.params()).unwrap();
                broker_client.send_local(&session).unwrap();
                let outcome = broker_client
                    .wait_global_update(&session, Duration::from_secs(300))
                    .unwrap();
                // Adopt the global model.
                let global = broker_client.model_params(&session).unwrap();
                model.set_params(&global);

                if i == 0 {
                    let acc = evaluate(&model, &test_x, &test_labels);
                    let role = broker_client
                        .current_role(&session)
                        .map(|r| r.role.as_token().to_owned())
                        .unwrap_or_else(|| "?".into());
                    println!(
                        "round {round}: global test accuracy {:.2}%  (client_0 role: {role})",
                        acc * 100.0
                    );
                }
                if outcome == WaitOutcome::Completed {
                    break;
                }
            }
            model
        }));
    }

    let final_model = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .next()
        .unwrap();
    let acc = evaluate(&final_model, &test_x, &test.labels);
    println!("final global model accuracy: {:.2}%", acc * 100.0);
    assert!(
        acc >= ACCURACY_FLOOR,
        "final accuracy {:.2}% is below the {:.0}% floor",
        acc * 100.0,
        ACCURACY_FLOOR * 100.0
    );
}
