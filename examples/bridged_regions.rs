//! Broker bridging across regions (paper §III.F, Fig. 2).
//!
//! Three brokers serve three local regions; bridges share all SDFLMQ
//! topics between them. The coordinator and parameter server live in
//! region A, but clients connect only to *their region's* broker — their
//! contributions, and the global the root publishes from whichever region
//! it sits in, cross the bridges transparently. Exits non-zero unless
//! every client and the parameter server end with the expected global
//! model (every parameter 2.0 after the last round) and every broker
//! received traffic over a bridge.
//!
//! ```text
//! cargo run --release --example bridged_regions
//! ```

use sdflmq::core::model_controller::ModelController;
use sdflmq::core::{
    ClientId, Coordinator, CoordinatorConfig, ModelId, ParamServer, PreferredRole, SdflmqClient,
    SdflmqClientConfig, SessionId, Topology, WaitOutcome,
};
use sdflmq::mqtt::{Bridge, BridgeConfig, Broker, BrokerConfig};
use sdflmq::mqttfc::BatchConfig;
use std::time::{Duration, Instant};

const CLIENTS_PER_REGION: usize = 3;
const FL_ROUNDS: u32 = 2;
const PARAMS: usize = 1024;

fn main() {
    // One broker per region, bridged in a chain A - B - C (bridging must
    // stay acyclic; see sdflmq_mqtt::bridge).
    let broker_a = Broker::start(BrokerConfig {
        name: "region-a".into(),
        ..BrokerConfig::default()
    });
    let broker_b = Broker::start(BrokerConfig {
        name: "region-b".into(),
        ..BrokerConfig::default()
    });
    let broker_c = Broker::start(BrokerConfig {
        name: "region-c".into(),
        ..BrokerConfig::default()
    });
    let _bridge_ab = Bridge::establish(&broker_a, &broker_b, BridgeConfig::mirror_all("ab"))
        .expect("bridge a-b");
    let _bridge_bc = Bridge::establish(&broker_b, &broker_c, BridgeConfig::mirror_all("bc"))
        .expect("bridge b-c");

    // Control plane lives in region A.
    let _coordinator = Coordinator::start(
        &broker_a,
        CoordinatorConfig {
            topology: Topology::Hierarchical {
                aggregator_ratio: 0.34,
            },
            ..CoordinatorConfig::default()
        },
    )
    .expect("start coordinator");
    let ps = ParamServer::start(&broker_a, BatchConfig::default()).expect("start ps");

    let session = SessionId::new("bridged").unwrap();
    let model_name = ModelId::new("regional-model").unwrap();
    let total = CLIENTS_PER_REGION * 3;

    let regions: [(&str, &Broker); 3] = [("a", &broker_a), ("b", &broker_b), ("c", &broker_c)];

    let mut handles = Vec::new();
    let mut created = false;
    for (region, broker) in regions {
        for i in 0..CLIENTS_PER_REGION {
            let client = SdflmqClient::connect(
                broker,
                ClientId::new(format!("{region}{i}")).unwrap(),
                SdflmqClientConfig::default(),
            )
            .expect("connect");
            if !created {
                client
                    .create_fl_session(
                        &session,
                        &model_name,
                        Duration::from_secs(3600),
                        total,
                        total,
                        Duration::from_secs(60),
                        FL_ROUNDS,
                        PreferredRole::Any,
                        64,
                    )
                    .expect("create");
                created = true;
            } else {
                client
                    .join_fl_session(&session, &model_name, PreferredRole::Any, 64)
                    .expect("join");
            }
            let session = session.clone();
            let value = i as f32 + 1.0;
            handles.push(std::thread::spawn(move || {
                let local = vec![value; PARAMS];
                for _ in 1..=FL_ROUNDS {
                    client.set_model(&session, &local).unwrap();
                    client.send_local(&session).unwrap();
                    if client
                        .wait_global_update(&session, Duration::from_secs(120))
                        .unwrap()
                        == WaitOutcome::Completed
                    {
                        break;
                    }
                }
                client.model_params(&session).unwrap()
            }));
        }
    }

    // Every region converged to the same global model: the mean of
    // 1,2,3 repeated per region = 2.0.
    let mut finals = Vec::new();
    for h in handles {
        finals.push(h.join().unwrap());
    }
    for (i, f) in finals.iter().enumerate() {
        assert_eq!(f.len(), PARAMS, "client {i} holds the whole model");
        if let Some(x) = f.iter().find(|&&x| x != 2.0) {
            panic!("client {i} ended with a parameter of {x}, expected 2.0");
        }
    }
    println!(
        "all {total} clients across 3 bridged regions hold the global model \
         (every param = 2.0)"
    );
    // The parameter server in region A subscribes to the global like any
    // client, so it may store the last one after the clients finish.
    let patience = Instant::now() + Duration::from_secs(30);
    let stored = loop {
        match ps.global(&session) {
            Some(global) if global.round == FL_ROUNDS => break global,
            other => assert!(
                Instant::now() < patience,
                "the parameter server holds round {:?}, expected {FL_ROUNDS}",
                other.map(|g| g.round)
            ),
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let params = ModelController::decode_update_stateless(&stored.update, &stored.params)
        .expect("the stored global decodes");
    assert_eq!(params.len(), PARAMS, "the stored global is the whole model");
    if let Some(x) = params.iter().find(|&&x| x != 2.0) {
        panic!("the parameter server stored a parameter of {x}, expected 2.0");
    }
    println!("the parameter server in region A stores round {FL_ROUNDS}'s global");
    let stats = [broker_a.stats(), broker_b.stats(), broker_c.stats()];
    println!(
        "broker publish counts  a: {}  b: {}  c: {} (bridge-ins: {}, {}, {})",
        stats[0].publishes_in,
        stats[1].publishes_in,
        stats[2].publishes_in,
        stats[0].bridge_in,
        stats[1].bridge_in,
        stats[2].bridge_in
    );
    for (s, region) in stats.iter().zip(["a", "b", "c"]) {
        assert!(
            s.bridge_in > 0,
            "region {region} received nothing over a bridge"
        );
    }
}
