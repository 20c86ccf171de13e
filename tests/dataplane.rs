//! End-to-end tests for the compressed data plane: full sessions over the
//! real threaded MQTT broker where the update codec is negotiated at join
//! time, trainers ship quantized/sparse payloads, aggregators fold them
//! streamingly, and the root broadcasts globals in the session's
//! negotiated form.

use sdflmq::core::{
    ClientId, Coordinator, CoordinatorConfig, ModelId, ParamServer, PreferredRole, SdflmqClient,
    SdflmqClientConfig, SessionId, Topology, UpdateCodec, WaitOutcome,
};
use sdflmq_mqtt::{Broker, BrokerConfig};
use sdflmq_mqttfc::BatchConfig;
use std::time::Duration;

fn broker(name: &str) -> Broker {
    Broker::start(BrokerConfig {
        name: name.into(),
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

fn codec_client(broker: &Broker, id: &str, codec: UpdateCodec) -> SdflmqClient {
    SdflmqClient::connect(
        broker,
        ClientId::new(id).unwrap(),
        SdflmqClientConfig {
            update_codec: codec,
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

/// Spreads `value` into a non-constant vector so affine quantization has
/// a real range to cover.
fn spread(value: f32, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| value + (i as f32 / len as f32) * 2.0 - 1.0)
        .collect()
}

fn run_session(
    name: &str,
    clients: Vec<SdflmqClient>,
    rounds: u32,
    len: usize,
) -> (Vec<Vec<f32>>, Vec<SdflmqClient>) {
    let session = SessionId::new(name).unwrap();
    let model = ModelId::new("toy").unwrap();
    let n = clients.len();
    clients[0]
        .create_fl_session(
            &session,
            &model,
            Duration::from_secs(600),
            n,
            n,
            Duration::from_secs(30),
            rounds,
            PreferredRole::Any,
            100,
        )
        .unwrap();
    for c in &clients[1..] {
        c.join_fl_session(&session, &model, PreferredRole::Any, 100)
            .unwrap();
    }
    let mut handles = Vec::new();
    for (i, c) in clients.iter().enumerate() {
        let session = session.clone();
        let local = spread((i + 1) as f32, len);
        let c = c.clone();
        handles.push(std::thread::spawn(move || {
            run_contributor(c, session, local, rounds)
        }));
    }
    let finals: Vec<Vec<f32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    (finals, clients)
}

#[test]
fn int8_session_converges_within_quantization_error() {
    let b = broker("dp-int8");
    let (_coord, _ps) = infra(
        &b,
        Topology::Hierarchical {
            aggregator_ratio: 0.4,
        },
    );
    let clients: Vec<SdflmqClient> = (0..4)
        .map(|i| codec_client(&b, &format!("q{i}"), UpdateCodec::Int8))
        .collect();
    let (finals, clients) = run_session("dp-int8", clients, 2, 64);

    // Expected: mean of spread(1..=4) = spread(2.5). The int8 grid spans
    // ~[0,5] → step ≈ 0.02; two rounds of quantize→average stay within a
    // few steps per coordinate.
    let expected = spread(2.5, 64);
    for finals in &finals {
        for (got, want) in finals.iter().zip(&expected) {
            assert!(
                (got - want).abs() < 0.1,
                "int8 global {got} vs expected {want}"
            );
        }
    }
    for c in &clients {
        let stats = c.data_plane_stats();
        assert_eq!(stats.dropped_transfers, 0, "{c:?}");
        assert_eq!(stats.undecodable_updates, 0, "{c:?}");
    }
}

#[test]
fn a_dense_mlp_round_reaches_the_parameter_server_uncopied() {
    // The 784-128-64-10 MLP's parameter count: one default chunk per
    // update, so the root aggregate arrives as a slice of its frame.
    const MLP_PARAMS: usize = 109_386;
    let b = broker("dp-mlp");
    let (_coord, ps) = infra(
        &b,
        Topology::Hierarchical {
            aggregator_ratio: 0.4,
        },
    );
    let clients: Vec<SdflmqClient> = (0..4)
        .map(|i| codec_client(&b, &format!("m{i}"), UpdateCodec::Dense))
        .collect();
    let (finals, clients) = run_session("dp-mlp", clients, 1, MLP_PARAMS);
    let expected = spread(2.5, MLP_PARAMS);
    for finals in &finals {
        assert_eq!(finals.len(), MLP_PARAMS);
        for (got, want) in finals.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-5, "dense {got} vs {want}");
        }
    }
    // The parameter server subscribes to the root's global beside the
    // clients, so it may store it after they have finished.
    let session = SessionId::new("dp-mlp").unwrap();
    sdflmq_testkit::require("the global stored", Duration::from_secs(10), || {
        ps.global(&session).map(|g| g.round) == Some(1)
    });
    assert_eq!(ps.copied_bytes(), 0, "the parameter server copied a body");
    for c in &clients {
        assert_eq!(c.data_plane_stats().dropped_transfers, 0, "{c:?}");
    }
}

#[test]
fn topk_delta_session_reconstructs_against_rolling_base() {
    let b = broker("dp-topk");
    let (_coord, _ps) = infra(&b, Topology::Central);
    // per_mille 1000 ships every coordinate: the *delta mechanics* (zero
    // base in round 1, reconstruction against the applied global in round
    // 2) are exercised without top-k truncation noise.
    let codec = UpdateCodec::TopK { per_mille: 1000 };
    let clients: Vec<SdflmqClient> = (0..3)
        .map(|i| codec_client(&b, &format!("t{i}"), codec))
        .collect();
    let (finals, clients) = run_session("dp-topk", clients, 3, 32);

    let expected = spread(2.0, 32); // mean of 1, 2, 3
    for finals in &finals {
        for (got, want) in finals.iter().zip(&expected) {
            assert!(
                (got - want).abs() < 1e-4,
                "topk global {got} vs expected {want}"
            );
        }
    }
    for c in &clients {
        assert_eq!(c.data_plane_stats().undecodable_updates, 0, "{c:?}");
    }
}

#[test]
fn dense_only_member_floors_the_session_codec() {
    let b = broker("dp-floor");
    let (_coord, _ps) = infra(&b, Topology::Central);
    // Two int8-capable members plus one legacy dense-only member: the
    // coordinator must stamp dense (0) for everyone.
    let mut clients: Vec<SdflmqClient> = (0..2)
        .map(|i| codec_client(&b, &format!("f{i}"), UpdateCodec::Int8))
        .collect();
    clients.push(codec_client(&b, "legacy", UpdateCodec::Dense));
    let (finals, clients) = run_session("dp-floor", clients, 2, 16);

    // Dense end to end: exact FedAvg result (up to the f64 fold).
    let expected = spread(2.0, 16);
    for finals in &finals {
        for (got, want) in finals.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-5, "dense {got} vs {want}");
        }
    }
    let session = SessionId::new("dp-floor").unwrap();
    for c in &clients {
        if let Some(role) = c.current_role(&session) {
            assert_eq!(role.data_codec, 0, "dense floor stamped for {c:?}");
        }
    }
}

#[test]
fn int8_sessions_stamp_the_negotiated_codec() {
    let b = broker("dp-stamp");
    let (_coord, _ps) = infra(&b, Topology::Central);
    let clients: Vec<SdflmqClient> = (0..3)
        .map(|i| codec_client(&b, &format!("s{i}"), UpdateCodec::Int8))
        .collect();
    let (_finals, clients) = run_session("dp-stamp", clients, 2, 16);
    let session = SessionId::new("dp-stamp").unwrap();
    let stamped: Vec<u8> = clients
        .iter()
        .filter_map(|c| c.current_role(&session))
        .map(|r| r.data_codec)
        .collect();
    assert!(!stamped.is_empty());
    assert!(
        stamped.iter().all(|c| *c == UpdateCodec::Int8.id()),
        "all roles stamped int8, got {stamped:?}"
    );
}
