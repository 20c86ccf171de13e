//! End-to-end integration tests: full SDFLMQ sessions over the real
//! threaded MQTT broker — coordinator, parameter server, and contributor
//! clients exchanging actual MQTT frames.

use sdflmq::core::{
    ClientId, Coordinator, CoordinatorConfig, ModelId, ParamServer, PreferredRole, SdflmqClient,
    SdflmqClientConfig, SessionId, Topology, WaitOutcome,
};
use sdflmq_mqtt::{Broker, BrokerConfig};
use sdflmq_mqttfc::BatchConfig;
use std::time::Duration;

fn broker() -> Broker {
    Broker::start(BrokerConfig {
        name: "it-broker".into(),
        ..BrokerConfig::default()
    })
}

fn infra(broker: &Broker, topology: Topology) -> (Coordinator, ParamServer) {
    let coordinator = Coordinator::start(
        broker,
        CoordinatorConfig {
            topology,
            round_timeout: Duration::from_secs(60),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let ps = ParamServer::start(broker, BatchConfig::default()).unwrap();
    (coordinator, ps)
}

fn client(broker: &Broker, id: &str, seed: u64) -> SdflmqClient {
    SdflmqClient::connect(
        broker,
        ClientId::new(id).unwrap(),
        SdflmqClientConfig {
            system_seed: seed,
            ..SdflmqClientConfig::default()
        },
    )
    .unwrap()
}

/// Runs one contributor through `rounds` rounds with a constant local
/// parameter vector, returning the final global parameters.
fn run_contributor(
    client: SdflmqClient,
    session: SessionId,
    local: Vec<f32>,
    rounds: u32,
) -> Vec<f32> {
    for round in 1..=rounds {
        client.set_model(&session, &local).unwrap();
        client.send_local(&session).unwrap();
        let outcome = client
            .wait_global_update(&session, Duration::from_secs(60))
            .unwrap();
        if round < rounds {
            assert_eq!(outcome, WaitOutcome::NextRound(round + 1));
        } else {
            assert_eq!(outcome, WaitOutcome::Completed);
        }
    }
    client.model_params(&session).unwrap()
}

#[test]
fn central_session_fedavg_two_rounds() {
    let broker = broker();
    let (_coord, _ps) = infra(&broker, Topology::Central);

    let session = SessionId::new("e2e-central").unwrap();
    let model = ModelId::new("toy").unwrap();

    let creator = client(&broker, "alice", 1);
    creator
        .create_fl_session(
            &session,
            &model,
            Duration::from_secs(600),
            3,
            3,
            Duration::from_secs(30),
            2,
            PreferredRole::Any,
            100,
        )
        .unwrap();

    let joiners: Vec<SdflmqClient> = ["bob", "carol"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let c = client(&broker, name, i as u64 + 2);
            c.join_fl_session(&session, &model, PreferredRole::Any, 100)
                .unwrap();
            c
        })
        .collect();

    // Equal weights: the global model is the plain mean of [1,1], [2,2],
    // [3,3] → [2,2].
    let locals = [vec![1.0f32, 1.0], vec![2.0f32, 2.0], vec![3.0f32, 3.0]];
    let mut handles = Vec::new();
    let all: Vec<SdflmqClient> = std::iter::once(creator).chain(joiners).collect();
    for (c, local) in all.into_iter().zip(locals.iter().cloned()) {
        let s = session.clone();
        handles.push(std::thread::spawn(move || run_contributor(c, s, local, 2)));
    }
    for h in handles {
        let finals = h.join().unwrap();
        for v in &finals {
            assert!(
                (v - 2.0).abs() < 1e-5,
                "global should be the mean: {finals:?}"
            );
        }
    }
}

#[test]
fn a_session_completes_over_the_binary_control_plane() {
    let broker = broker();
    let (_coord, _ps) = infra(&broker, Topology::Central);

    let session = SessionId::new("e2e-binary").unwrap();
    let model = ModelId::new("toy").unwrap();

    let creator = client(&broker, "neg-a", 1);
    creator
        .create_fl_session(
            &session,
            &model,
            Duration::from_secs(600),
            2,
            2,
            Duration::from_secs(30),
            1,
            PreferredRole::Any,
            100,
        )
        .unwrap();
    let joiner = client(&broker, "neg-b", 2);
    joiner
        .join_fl_session(&session, &model, PreferredRole::Any, 100)
        .unwrap();

    // The round below runs entirely over binary control frames and blob
    // metadata on the real broker.
    let mut handles = Vec::new();
    for (c, local) in [(creator, vec![1.0f32, 3.0]), (joiner, vec![3.0f32, 5.0])] {
        let s = session.clone();
        handles.push(std::thread::spawn(move || run_contributor(c, s, local, 1)));
    }
    for h in handles {
        let finals = h.join().unwrap();
        assert_eq!(finals, vec![2.0, 4.0], "mean over binary control plane");
    }
}

#[test]
fn hierarchical_session_weighted_fedavg() {
    let broker = broker();
    let (_coord, _ps) = infra(
        &broker,
        Topology::Hierarchical {
            aggregator_ratio: 0.4,
        },
    );

    let session = SessionId::new("e2e-hier").unwrap();
    let model = ModelId::new("toy").unwrap();

    // 5 clients, heterogeneous weights. Weighted mean of value v_i = i+1
    // with weight w_i = (i+1)*100:
    // sum(v*w)/sum(w) = (1*100+2*200+3*300+4*400+5*500)/1500 = 11/3.
    let expected = 5500.0 / 1500.0;

    let creator = client(&broker, "c0", 10);
    creator
        .create_fl_session(
            &session,
            &model,
            Duration::from_secs(600),
            5,
            5,
            Duration::from_secs(30),
            3,
            PreferredRole::Any,
            100,
        )
        .unwrap();
    let mut all = vec![(creator, 1.0f32)];
    for i in 1..5 {
        let c = client(&broker, &format!("c{i}"), 10 + i as u64);
        c.join_fl_session(&session, &model, PreferredRole::Any, (i as u64 + 1) * 100)
            .unwrap();
        all.push((c, i as f32 + 1.0));
    }

    let mut handles = Vec::new();
    for (c, value) in all {
        let s = session.clone();
        handles.push(std::thread::spawn(move || {
            run_contributor(c, s, vec![value; 8], 3)
        }));
    }
    for h in handles {
        let finals = h.join().unwrap();
        for v in &finals {
            assert!(
                (v - expected).abs() < 1e-4,
                "weighted mean expected {expected}, got {finals:?}"
            );
        }
    }
}

#[test]
fn session_starts_at_capacity_min_after_waiting_window() {
    let broker = broker();
    let (_coord, _ps) = infra(&broker, Topology::Central);

    let session = SessionId::new("e2e-min").unwrap();
    let model = ModelId::new("toy").unwrap();

    // capacity_min 2, max 10, short waiting window: with only 2 joiners
    // the session starts when the window closes.
    let a = client(&broker, "a", 20);
    a.create_fl_session(
        &session,
        &model,
        Duration::from_secs(600),
        2,
        10,
        Duration::from_millis(400),
        1,
        PreferredRole::Any,
        50,
    )
    .unwrap();
    let b = client(&broker, "b", 21);
    b.join_fl_session(&session, &model, PreferredRole::Any, 50)
        .unwrap();

    let s1 = session.clone();
    let ha = std::thread::spawn(move || run_contributor(a, s1, vec![4.0; 4], 1));
    let s2 = session.clone();
    let hb = std::thread::spawn(move || run_contributor(b, s2, vec![8.0; 4], 1));
    for h in [ha, hb] {
        let finals = h.join().unwrap();
        for v in &finals {
            assert!((v - 6.0).abs() < 1e-5);
        }
    }
}

#[test]
fn undersubscribed_session_aborts() {
    let broker = broker();
    let (_coord, _ps) = infra(&broker, Topology::Central);

    let session = SessionId::new("e2e-abort").unwrap();
    let model = ModelId::new("toy").unwrap();

    let lonely = client(&broker, "lonely", 30);
    lonely
        .create_fl_session(
            &session,
            &model,
            Duration::from_secs(600),
            3, // needs 3, only 1 joins
            5,
            Duration::from_millis(300),
            1,
            PreferredRole::Any,
            10,
        )
        .unwrap();
    let err = lonely
        .wait_global_update(&session, Duration::from_secs(10))
        .unwrap_err();
    match err {
        sdflmq::core::CoreError::Aborted(reason) => {
            assert!(reason.contains("contributors"), "{reason}")
        }
        other => panic!("expected abort, got {other:?}"),
    }
}

#[test]
fn duplicate_session_creation_is_refused() {
    let broker = broker();
    let (_coord, _ps) = infra(&broker, Topology::Central);

    let session = SessionId::new("e2e-dup").unwrap();
    let model = ModelId::new("toy").unwrap();

    let first = client(&broker, "first", 40);
    first
        .create_fl_session(
            &session,
            &model,
            Duration::from_secs(600),
            2,
            5,
            Duration::from_secs(30),
            1,
            PreferredRole::Any,
            10,
        )
        .unwrap();

    let second = client(&broker, "second", 41);
    let err = second
        .create_fl_session(
            &session,
            &model,
            Duration::from_secs(600),
            2,
            5,
            Duration::from_secs(30),
            1,
            PreferredRole::Any,
            10,
        )
        .unwrap_err();
    match err {
        sdflmq::core::CoreError::Refused(reason) => assert!(reason.contains("exists"), "{reason}"),
        other => panic!("expected refusal, got {other:?}"),
    }
}

#[test]
fn model_mismatch_join_is_refused() {
    let broker = broker();
    let (_coord, _ps) = infra(&broker, Topology::Central);

    let session = SessionId::new("e2e-model").unwrap();
    let creator = client(&broker, "creator", 50);
    creator
        .create_fl_session(
            &session,
            &ModelId::new("mlp").unwrap(),
            Duration::from_secs(600),
            2,
            5,
            Duration::from_secs(30),
            1,
            PreferredRole::Any,
            10,
        )
        .unwrap();

    let stranger = client(&broker, "stranger", 51);
    let err = stranger
        .join_fl_session(
            &session,
            &ModelId::new("cnn").unwrap(),
            PreferredRole::Any,
            10,
        )
        .unwrap_err();
    assert!(
        matches!(err, sdflmq::core::CoreError::Refused(_)),
        "{err:?}"
    );
}
