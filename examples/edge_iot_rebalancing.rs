//! Edge-IoT role rebalancing — the paper's motivating scenario (§II).
//!
//! Twelve heterogeneous edge devices (small/medium/large machines) run an
//! FL session. Their memory/CPU loads drift between rounds; the
//! coordinator's memory-aware load balancer moves aggregation duty to
//! whichever devices currently have headroom, notifying *only* the clients
//! whose roles changed (paper §III.E.5). The example prints the aggregator
//! set each round so the migration is visible.
//!
//! ```text
//! cargo run --release --example edge_iot_rebalancing
//! ```

use sdflmq::core::{
    ClientId, Coordinator, CoordinatorConfig, MemoryAware, ModelId, ParamServer, PreferredRole,
    SdflmqClient, SdflmqClientConfig, SessionId, Topology, WaitOutcome,
};
use sdflmq::mqtt::Broker;
use sdflmq::mqttfc::BatchConfig;
use sdflmq::sim::SystemSpec;
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 12;
const FL_ROUNDS: u32 = 6;
const PARAMS: usize = 4096;

fn main() {
    let broker = Broker::start_default();
    let coordinator = Coordinator::start(
        &broker,
        CoordinatorConfig {
            topology: Topology::Hierarchical {
                aggregator_ratio: 0.3,
            },
            optimizer: Box::new(MemoryAware),
            ..CoordinatorConfig::default()
        },
    )
    .expect("start coordinator");
    let _ps = ParamServer::start(&broker, BatchConfig::default()).expect("start ps");

    let session = SessionId::new("edge-iot").unwrap();
    let model_name = ModelId::new("sensor-model").unwrap();

    // A heterogeneous fleet: a few beefy gateways, the rest constrained.
    let spec_of = |i: usize| match i % 4 {
        0 => SystemSpec::edge_large(),
        1 => SystemSpec::edge_medium(),
        _ => SystemSpec::edge_small(),
    };

    let mut clients = Vec::new();
    for i in 0..CLIENTS {
        let c = SdflmqClient::connect(
            &broker,
            ClientId::new(format!("edge_{i:02}")).unwrap(),
            SdflmqClientConfig {
                system: spec_of(i),
                system_seed: 1000 + i as u64,
                ..SdflmqClientConfig::default()
            },
        )
        .expect("connect");
        if i == 0 {
            c.create_fl_session(
                &session,
                &model_name,
                Duration::from_secs(3600),
                CLIENTS,
                CLIENTS,
                Duration::from_secs(60),
                FL_ROUNDS,
                PreferredRole::Any,
                128,
            )
            .expect("create");
        } else {
            c.join_fl_session(&session, &model_name, PreferredRole::Any, 128)
                .expect("join");
        }
        clients.push(c);
    }

    let session_arc = Arc::new(session.clone());
    let mut handles = Vec::new();
    for (i, client) in clients.into_iter().enumerate() {
        let session = Arc::clone(&session_arc);
        handles.push(std::thread::spawn(move || {
            // Each device "trains" a small parameter vector; the content
            // is irrelevant here — the interesting part is role movement.
            let local = vec![i as f32; PARAMS];
            let mut aggregator_rounds = 0u32;
            let mut finished = 0u32;
            for _round in 1..=FL_ROUNDS {
                client.set_model(&session, &local).unwrap();
                client.send_local(&session).unwrap();
                if client
                    .current_role(&session)
                    .map(|r| r.role.aggregates())
                    .unwrap_or(false)
                {
                    aggregator_rounds += 1;
                }
                match client
                    .wait_global_update(&session, Duration::from_secs(120))
                    .unwrap()
                {
                    WaitOutcome::NextRound(_) => finished += 1,
                    WaitOutcome::Completed => {
                        finished += 1;
                        break;
                    }
                    WaitOutcome::Evicted => break,
                }
            }
            (i, aggregator_rounds, finished)
        }));
    }

    println!("device  aggregator-rounds (of {FL_ROUNDS})  machine");
    let mut results: Vec<(usize, u32, u32)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort();
    let mut total_agg_rounds = 0;
    for (i, agg_rounds, finished) in &results {
        assert_eq!(*finished, FL_ROUNDS, "edge_{i:02} stopped early");
        let machine = match i % 4 {
            0 => "large ",
            1 => "medium",
            _ => "small ",
        };
        total_agg_rounds += agg_rounds;
        println!("edge_{i:02}  {agg_rounds:^24}  {machine}");
    }
    println!(
        "\naggregation duty was spread over the fleet by the memory-aware \
         load balancer ({total_agg_rounds} aggregator-rounds total)"
    );
    assert!(total_agg_rounds > 0, "nobody aggregated");
    drop(coordinator);
}
