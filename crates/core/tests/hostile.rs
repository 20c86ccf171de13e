//! Requests no honest client sends must be refused, not crash the node.

use sdflmq_core::topics::functions;
use sdflmq_core::{
    ClientId, Coordinator, CoordinatorConfig, CoreError, ModelId, ParamServer, PreferredRole,
    SdflmqClient, SdflmqClientConfig, SessionId, WaitOutcome,
};
use sdflmq_mqtt::{Broker, Client, ClientOptions, QoS, TopicName};
use sdflmq_mqttfc::batching::split;
use sdflmq_mqttfc::{BatchConfig, FleetController, RfcError};
use std::time::{Duration, Instant};

#[test]
fn an_unrepresentable_session_time_is_refused_and_the_coordinator_lives_on() {
    let broker = Broker::start_default();
    let _coordinator = Coordinator::start(&broker, CoordinatorConfig::default()).unwrap();
    let client = SdflmqClient::connect(
        &broker,
        ClientId::new("c0").unwrap(),
        SdflmqClientConfig::default(),
    )
    .unwrap();
    let model = ModelId::new("mlp").unwrap();
    let create = |session: &str, session_time| {
        client.create_fl_session(
            &SessionId::new(session).unwrap(),
            &model,
            session_time,
            1,
            2,
            Duration::from_secs(60),
            1,
            PreferredRole::Any,
            10,
        )
    };
    // ~1.8e19 s on the wire: more than a `Duration` parsed from an f64
    // can hold. It used to panic the coordinator's dispatcher thread,
    // after which every request from every client timed out.
    let err = create("forever", Duration::MAX).unwrap_err();
    assert!(matches!(err, CoreError::Refused(_)), "got {err:?}");
    create("an-hour", Duration::from_secs(3600)).unwrap();
}

#[test]
fn a_refused_join_leaves_nothing_behind_and_can_be_retried() {
    let broker = Broker::start_default();
    let _coordinator = Coordinator::start(&broker, CoordinatorConfig::default()).unwrap();
    let _ps = ParamServer::start(&broker, BatchConfig::default()).unwrap();
    let connect = |id: &str| {
        let id = ClientId::new(id).unwrap();
        SdflmqClient::connect(&broker, id, SdflmqClientConfig::default()).unwrap()
    };
    let (creator, joiner) = (connect("c0"), connect("c1"));
    let session = SessionId::new("s").unwrap();
    let model = ModelId::new("mlp").unwrap();
    // The session does not exist yet. The refused join used to leave its
    // local handle behind, so the retry below failed "already joined
    // locally".
    let err = joiner
        .join_fl_session(&session, &model, PreferredRole::Any, 10)
        .unwrap_err();
    assert!(matches!(err, CoreError::Refused(_)), "got {err:?}");
    creator
        .create_fl_session(
            &session,
            &model,
            Duration::from_secs(60),
            2,
            2,
            Duration::from_secs(30),
            1,
            PreferredRole::Any,
            10,
        )
        .unwrap();
    joiner
        .join_fl_session(&session, &model, PreferredRole::Any, 10)
        .unwrap();
    let rounds: Vec<_> = [creator, joiner]
        .into_iter()
        .map(|client| {
            let session = session.clone();
            std::thread::spawn(move || {
                client.set_model(&session, &[1.0; 8]).unwrap();
                client.send_local(&session).unwrap();
                client.wait_global_update(&session, Duration::from_secs(30))
            })
        })
        .collect();
    for round in rounds {
        assert_eq!(round.join().unwrap().unwrap(), WaitOutcome::Completed);
    }
}

#[test]
fn deeply_nested_brackets_are_refused_and_the_nodes_live_on() {
    let broker = Broker::start_default();
    let _coordinator = Coordinator::start(&broker, CoordinatorConfig::default()).unwrap();
    let ps = ParamServer::start(&broker, BatchConfig::default()).unwrap();
    let raw = Client::connect(&broker, ClientOptions::new("raw")).unwrap();
    let raw = FleetController::new(raw, "raw").unwrap();
    // Twenty thousand `[`: a JSON document nested that deep overflowed
    // the stack of whichever dispatcher thread parsed it, and the stack
    // overflow aborted the whole process, broker included. No frame
    // starts with `[`, so it is refused before anything parses it.
    let nested = vec![b'['; 20_000];
    for function in [functions::NEW_SESSION, functions::JOIN_SESSION] {
        let err = raw.call_with_reply(function, nested.clone()).unwrap_err();
        assert!(
            matches!(err, RfcError::Remote(_)),
            "{function}: got {err:?}"
        );
    }
    // A member of session `s`: it subscribes the session's global topic,
    // as the parameter server does for every session.
    let connect = |id: &str| {
        let id = ClientId::new(id).unwrap();
        SdflmqClient::connect(&broker, id, SdflmqClientConfig::default()).unwrap()
    };
    let session = SessionId::new("s").unwrap();
    let model = ModelId::new("mlp").unwrap();
    let creator = connect("c0");
    creator
        .create_fl_session(
            &session,
            &model,
            Duration::from_secs(60),
            2,
            2,
            Duration::from_secs(60),
            1,
            PreferredRole::Any,
            10,
        )
        .unwrap();
    // The same bytes as a blob's metadata header on that global topic:
    // the parameter server and the member each drop and count it.
    let mut blob = (nested.len() as u32).to_be_bytes().to_vec();
    blob.extend_from_slice(&nested);
    let topic = TopicName::new("sdflmq/session/s/global").unwrap();
    let frames = split(&blob, 1, &BatchConfig::default());
    let frames = frames.into_iter().map(|frame| (&topic, frame));
    raw.client()
        .publish_all(frames, QoS::AtLeastOnce, false)
        .unwrap();
    let patience = Instant::now() + Duration::from_secs(10);
    while ps.dropped_transfers() == 0 || creator.data_plane_stats().dropped_transfers == 0 {
        assert!(
            Instant::now() < patience,
            "dropped: parameter server {}, member {}",
            ps.dropped_transfers(),
            creator.data_plane_stats().dropped_transfers
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Both live on: a second member starts the session, its round
    // completes, and the parameter server stores the root's global.
    let joiner = connect("c1");
    joiner
        .join_fl_session(&session, &model, PreferredRole::Any, 10)
        .unwrap();
    let rounds: Vec<_> = [creator, joiner]
        .into_iter()
        .map(|client| {
            let session = session.clone();
            std::thread::spawn(move || {
                client.set_model(&session, &[1.0; 8]).unwrap();
                client.send_local(&session).unwrap();
                client.wait_global_update(&session, Duration::from_secs(30))
            })
        })
        .collect();
    for round in rounds {
        assert_eq!(round.join().unwrap().unwrap(), WaitOutcome::Completed);
    }
    let patience = Instant::now() + Duration::from_secs(10);
    while ps.global(&session).map(|g| g.round) != Some(1) {
        assert!(
            Instant::now() < patience,
            "the parameter server stored no global"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
