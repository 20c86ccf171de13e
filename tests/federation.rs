//! Integration tests for federation behaviours beyond the happy path:
//! bridged-broker sessions, role rearrangement under drift, failure
//! injection, and large-model transport.

use sdflmq::core::{
    simulate, ClientId, Coordinator, CoordinatorConfig, CoreError, MemoryAware, ModelId,
    ParamServer, PreferredRole, RoundRobin, SdflmqClient, SdflmqClientConfig, SessionId, SimConfig,
    StaticOrder, Topology, WaitOutcome,
};
use sdflmq::mqtt::{Bridge, BridgeConfig, Broker, BrokerConfig};
use sdflmq::mqttfc::BatchConfig;
use sdflmq::sim::SystemSpec;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn broker(name: &str) -> Broker {
    Broker::start(BrokerConfig {
        name: name.into(),
        ..BrokerConfig::default()
    })
}

#[test]
fn fl_session_spans_bridged_brokers() {
    let a = broker("region-a");
    let b = broker("region-b");
    let _bridge = Bridge::establish(&a, &b, BridgeConfig::mirror_all("ab")).unwrap();

    let _coord = Coordinator::start(&a, CoordinatorConfig::default()).unwrap();
    let _ps = ParamServer::start(&a, BatchConfig::default()).unwrap();

    let session = SessionId::new("bridged-fl").unwrap();
    let model = ModelId::new("toy").unwrap();

    // Two clients on A (including the creator), two on B.
    let creator = SdflmqClient::connect(
        &a,
        ClientId::new("a0").unwrap(),
        SdflmqClientConfig::default(),
    )
    .unwrap();
    creator
        .create_fl_session(
            &session,
            &model,
            Duration::from_secs(600),
            4,
            4,
            Duration::from_secs(30),
            2,
            PreferredRole::Any,
            100,
        )
        .unwrap();
    let mut contributors = vec![(creator, 1.0f32)];
    for (i, (home, value)) in [(&a, 2.0f32), (&b, 3.0), (&b, 4.0)].iter().enumerate() {
        let c = SdflmqClient::connect(
            home,
            ClientId::new(format!("x{i}")).unwrap(),
            SdflmqClientConfig::default(),
        )
        .unwrap();
        c.join_fl_session(&session, &model, PreferredRole::Any, 100)
            .unwrap();
        contributors.push((c, *value));
    }

    let mut handles = Vec::new();
    for (client, value) in contributors {
        let session = session.clone();
        handles.push(std::thread::spawn(move || {
            let local = vec![value; 16];
            for _ in 0..2 {
                client.set_model(&session, &local).unwrap();
                client.send_local(&session).unwrap();
                if client
                    .wait_global_update(&session, Duration::from_secs(60))
                    .unwrap()
                    == WaitOutcome::Completed
                {
                    break;
                }
            }
            client.model_params(&session).unwrap()
        }));
    }
    for h in handles {
        let finals = h.join().unwrap();
        for v in finals {
            assert!((v - 2.5).abs() < 1e-5, "mean of 1..4 is 2.5, got {v}");
        }
    }
}

#[test]
fn round_robin_rotates_aggregators_across_rounds() {
    let b = broker("rr");
    let _coord = Coordinator::start(
        &b,
        CoordinatorConfig {
            topology: Topology::Central,
            optimizer: Box::new(RoundRobin),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let _ps = ParamServer::start(&b, BatchConfig::default()).unwrap();

    let session = SessionId::new("rr-session").unwrap();
    let model = ModelId::new("toy").unwrap();
    let rounds = 4u32;

    let aggregator_log: Arc<Mutex<HashSet<String>>> = Arc::new(Mutex::new(HashSet::new()));
    let mut handles = Vec::new();
    for i in 0..3usize {
        let client = SdflmqClient::connect(
            &b,
            ClientId::new(format!("rr{i}")).unwrap(),
            SdflmqClientConfig::default(),
        )
        .unwrap();
        if i == 0 {
            client
                .create_fl_session(
                    &session,
                    &model,
                    Duration::from_secs(600),
                    3,
                    3,
                    Duration::from_secs(30),
                    rounds,
                    PreferredRole::Any,
                    10,
                )
                .unwrap();
        } else {
            client
                .join_fl_session(&session, &model, PreferredRole::Any, 10)
                .unwrap();
        }
        let session = session.clone();
        let log = Arc::clone(&aggregator_log);
        handles.push(std::thread::spawn(move || {
            let local = vec![1.0f32; 8];
            for _ in 1..=rounds {
                client.set_model(&session, &local).unwrap();
                client.send_local(&session).unwrap();
                if client
                    .current_role(&session)
                    .map(|r| r.role.aggregates())
                    .unwrap_or(false)
                {
                    log.lock().unwrap().insert(client.id().as_str().to_owned());
                }
                if client
                    .wait_global_update(&session, Duration::from_secs(60))
                    .unwrap()
                    == WaitOutcome::Completed
                {
                    break;
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // With round-robin over 4 rounds and 3 clients, aggregation duty must
    // have visited more than one client.
    let distinct = aggregator_log.lock().unwrap().len();
    assert!(
        distinct >= 2,
        "round robin should rotate the aggregator: only {distinct} distinct"
    );
}

#[test]
fn dead_client_aborts_session_via_round_timeout() {
    // With capacity_min == 2 and one dead contributor, eviction leaves too
    // few survivors, so the dropout-tolerant runtime still aborts — it
    // just takes `max_missed_rounds` blown deadlines to conclude the
    // straggler is gone.
    let b = broker("timeout");
    let _coord = Coordinator::start(
        &b,
        CoordinatorConfig {
            topology: Topology::Central,
            round_timeout: Duration::from_secs(2),
            max_missed_rounds: 1,
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let _ps = ParamServer::start(&b, BatchConfig::default()).unwrap();

    let session = SessionId::new("dead-client").unwrap();
    let model = ModelId::new("toy").unwrap();

    let alive = SdflmqClient::connect(
        &b,
        ClientId::new("alive").unwrap(),
        SdflmqClientConfig::default(),
    )
    .unwrap();
    alive
        .create_fl_session(
            &session,
            &model,
            Duration::from_secs(600),
            2,
            2,
            Duration::from_secs(30),
            2,
            PreferredRole::Any,
            10,
        )
        .unwrap();
    // The second contributor joins but never sends its local model.
    let ghost = SdflmqClient::connect(
        &b,
        ClientId::new("ghost").unwrap(),
        SdflmqClientConfig::default(),
    )
    .unwrap();
    ghost
        .join_fl_session(&session, &model, PreferredRole::Any, 10)
        .unwrap();

    alive.set_model(&session, &[1.0; 4]).unwrap();
    alive.send_local(&session).unwrap();
    // The round can never complete; the coordinator's deadline fires.
    let err = alive
        .wait_global_update(&session, Duration::from_secs(20))
        .unwrap_err();
    assert!(
        matches!(err, CoreError::Aborted(_)),
        "expected abort, got {err:?}"
    );
}

#[test]
fn large_model_crosses_batching_path() {
    let b = broker("large");
    let _coord = Coordinator::start(
        &b,
        CoordinatorConfig {
            topology: Topology::Central,
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let ps = ParamServer::start(&b, BatchConfig::default()).unwrap();

    let session = SessionId::new("large-model").unwrap();
    let model = ModelId::new("big").unwrap();

    // ~800 KB of parameters per client — more than one default chunk, so
    // every hop is a multi-chunk transfer.
    const PARAMS: usize = 200_000;
    assert!(PARAMS * 4 > BatchConfig::default().chunk_size);
    let mut handles = Vec::new();
    for i in 0..2usize {
        let client = SdflmqClient::connect(
            &b,
            ClientId::new(format!("big{i}")).unwrap(),
            SdflmqClientConfig::default(),
        )
        .unwrap();
        if i == 0 {
            client
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
        } else {
            client
                .join_fl_session(&session, &model, PreferredRole::Any, 100)
                .unwrap();
        }
        let session = session.clone();
        let value = i as f32;
        handles.push(std::thread::spawn(move || {
            let local = vec![value; PARAMS];
            client.set_model(&session, &local).unwrap();
            client.send_local(&session).unwrap();
            assert_eq!(
                client
                    .wait_global_update(&session, Duration::from_secs(120))
                    .unwrap(),
                WaitOutcome::Completed
            );
            client.model_params(&session).unwrap()
        }));
    }
    for h in handles {
        let finals = h.join().unwrap();
        assert_eq!(finals.len(), PARAMS);
        for v in finals {
            assert!((v - 0.5).abs() < 1e-5);
        }
    }
    // The root's global reached the parameter server in several chunks:
    // only a multi-chunk transfer is concatenated. The server is one more
    // subscriber of the global, so it may get it after the clients finish.
    sdflmq_testkit::require("the global concatenated", Duration::from_secs(10), || {
        ps.copied_bytes() > (PARAMS * 4) as u64
    });
}

#[test]
fn topology_document_is_retained_for_observers() {
    // Paper Fig. 5: the coordinator publishes the cluster topology on the
    // session topic. It is retained, so an observer subscribing *after*
    // session start still receives it.
    use sdflmq::mqtt::{Client, ClientOptions, QoS};
    use sdflmq::mqttfc::Json;

    let b = broker("observer");
    let coord = Coordinator::start(
        &b,
        CoordinatorConfig {
            topology: Topology::Central,
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let _ps = ParamServer::start(&b, BatchConfig::default()).unwrap();

    let session = SessionId::new("observed").unwrap();
    let model = ModelId::new("toy").unwrap();
    let mut clients = Vec::new();
    for i in 0..2usize {
        let c = SdflmqClient::connect(
            &b,
            ClientId::new(format!("obs{i}")).unwrap(),
            SdflmqClientConfig::default(),
        )
        .unwrap();
        if i == 0 {
            c.create_fl_session(
                &session,
                &model,
                Duration::from_secs(600),
                2,
                2,
                Duration::from_secs(30),
                1,
                PreferredRole::Any,
                10,
            )
            .unwrap();
        } else {
            c.join_fl_session(&session, &model, PreferredRole::Any, 10)
                .unwrap();
        }
        clients.push(c);
    }
    // Let the session start (roles handed out, topology published): poll
    // for the observable effects instead of sleeping a fixed amount.
    sdflmq_testkit::require("session running", Duration::from_secs(10), || {
        coord
            .session_state(&session)
            .is_some_and(|s| !matches!(s, sdflmq::core::session::SessionState::Waiting))
    });
    sdflmq_testkit::require("topology retained", Duration::from_secs(10), || {
        b.stats().retained_current >= 1
    });

    let observer = Client::connect(&b, ClientOptions::new("late-observer")).unwrap();
    observer
        .subscribe_str("sdflmq/session/observed/topology", QoS::AtLeastOnce)
        .unwrap();
    let msg = observer.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(msg.retain, "topology arrives via retained replay");
    let doc = Json::parse(&String::from_utf8_lossy(&msg.payload)).unwrap();
    assert_eq!(doc.get("session").unwrap().as_str(), Some("observed"));
    let assignments = doc.get("assignments").unwrap().as_array().unwrap();
    assert_eq!(assignments.len(), 2);
    // Exactly one root position in a central topology.
    let roots = assignments
        .iter()
        .filter(|a| a.get("position").and_then(Json::as_str) == Some("root"))
        .count();
    assert_eq!(roots, 1);

    // Drive the session to completion so threads exit cleanly.
    let mut handles = Vec::new();
    for c in clients {
        let session = session.clone();
        handles.push(std::thread::spawn(move || {
            c.set_model(&session, &[1.0; 4]).unwrap();
            c.send_local(&session).unwrap();
            c.wait_global_update(&session, Duration::from_secs(60))
                .unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn dead_aggregator_is_evicted_and_round_redelegated_mid_round() {
    // The ROOT aggregator joins and then never trains: the round stalls
    // with everyone else's contributions stuck in its stack. The
    // coordinator must evict it mid-round, re-delegate the root position
    // to a survivor, re-announce the round so survivors re-send, and run
    // the session to completion — the paper's runtime would have aborted.
    // max_missed_rounds stays at the default (2): strikes must accrue
    // across consecutive blown deadlines of the SAME stalled round, while
    // the live clients stay safe by re-pinging on each re-announcement.
    let b = broker("evict-agg");
    let _coord = Coordinator::start(
        &b,
        CoordinatorConfig {
            topology: Topology::Central,
            optimizer: Box::new(StaticOrder), // "a_root" sorts first → root
            round_timeout: Duration::from_millis(700),
            role_ack_timeout: Duration::from_secs(5),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let _ps = ParamServer::start(&b, BatchConfig::default()).unwrap();

    let session = SessionId::new("evict-agg").unwrap();
    let model = ModelId::new("toy").unwrap();

    let ghost = SdflmqClient::connect(
        &b,
        ClientId::new("a_root").unwrap(),
        SdflmqClientConfig::default(),
    )
    .unwrap();
    ghost
        .create_fl_session(
            &session,
            &model,
            Duration::from_secs(600),
            3,
            4,
            Duration::from_secs(30),
            2,
            PreferredRole::Any,
            10,
        )
        .unwrap();
    let mut survivors = Vec::new();
    for i in 0..3usize {
        let c = SdflmqClient::connect(
            &b,
            ClientId::new(format!("b{i}")).unwrap(),
            SdflmqClientConfig::default(),
        )
        .unwrap();
        c.join_fl_session(&session, &model, PreferredRole::Any, 10)
            .unwrap();
        survivors.push(c);
    }

    // The ghost never calls send_local; it only waits — and must learn it
    // was evicted rather than time out or see an abort.
    let ghost_session = session.clone();
    let ghost_handle = std::thread::spawn(move || {
        // Round-start events pass through (the ghost never contributed, so
        // its baseline is 0); the eviction must surface eventually.
        loop {
            match ghost.wait_global_update(&ghost_session, Duration::from_secs(30)) {
                Ok(WaitOutcome::Evicted) => break,
                Ok(WaitOutcome::NextRound(_)) => continue,
                // The teardown can land between two waits; the handle
                // being gone is the same signal.
                Err(CoreError::UnknownSession(_)) => break,
                other => panic!("expected eviction, got {other:?}"),
            }
        }
        // The handle is torn down: the session is gone locally.
        assert!(ghost.current_role(&ghost_session).is_none());
        assert!(matches!(
            ghost.wait_global_update(&ghost_session, Duration::from_millis(50)),
            Err(CoreError::UnknownSession(_))
        ));
    });

    let mut handles = Vec::new();
    for (i, client) in survivors.into_iter().enumerate() {
        let session = session.clone();
        handles.push(std::thread::spawn(move || {
            let local = vec![i as f32; 8];
            let mut rounds_seen = 0u32;
            loop {
                client.set_model(&session, &local).unwrap();
                client.send_local(&session).unwrap();
                rounds_seen += 1;
                match client
                    .wait_global_update(&session, Duration::from_secs(30))
                    .unwrap()
                {
                    WaitOutcome::Completed => break,
                    WaitOutcome::NextRound(_) => {}
                    WaitOutcome::Evicted => panic!("survivor must not be evicted"),
                }
            }
            rounds_seen
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), 2, "both rounds completed");
    }
    ghost_handle.join().unwrap();
}

#[test]
fn session_survives_mid_session_dropout_at_capacity_min() {
    // Four contributors, capacity_min = 3, quorum = 0.75: one client dies
    // after contributing to round 1. Round 1 closes by quorum (its done
    // report never arrives), the dead client is evicted on the next blown
    // deadline, and the remaining three — exactly capacity_min — finish
    // all rounds.
    let b = broker("dropout-quorum");
    let coord = Coordinator::start(
        &b,
        CoordinatorConfig {
            topology: Topology::Central,
            optimizer: Box::new(StaticOrder),
            round_timeout: Duration::from_millis(800),
            quorum: 0.75,
            grace: Duration::from_millis(100),
            max_missed_rounds: 1,
            role_ack_timeout: Duration::from_secs(5),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let _ps = ParamServer::start(&b, BatchConfig::default()).unwrap();

    let session = SessionId::new("dropout-quorum").unwrap();
    let model = ModelId::new("toy").unwrap();
    let rounds = 3u32;

    let mut clients = Vec::new();
    // "z3" sorts last under StaticOrder, so it is a plain trainer.
    for name in ["a0", "b1", "c2", "z3"] {
        let c = SdflmqClient::connect(
            &b,
            ClientId::new(name).unwrap(),
            SdflmqClientConfig::default(),
        )
        .unwrap();
        if name == "a0" {
            c.create_fl_session(
                &session,
                &model,
                Duration::from_secs(600),
                3,
                4,
                Duration::from_secs(30),
                rounds,
                PreferredRole::Any,
                10,
            )
            .unwrap();
        } else {
            c.join_fl_session(&session, &model, PreferredRole::Any, 10)
                .unwrap();
        }
        clients.push(c);
    }

    let dropper = clients.pop().unwrap(); // z3
    let dropper_session = session.clone();
    let dropper_handle = std::thread::spawn(move || {
        dropper.set_model(&dropper_session, &[9.0; 8]).unwrap();
        dropper.send_local(&dropper_session).unwrap();
        // The client object drops here: it disconnects before it can apply
        // the global update or report round_done — a mid-session death.
    });
    dropper_handle.join().unwrap();

    let mut handles = Vec::new();
    for client in clients {
        let session = session.clone();
        handles.push(std::thread::spawn(move || {
            let local = vec![1.0f32; 8];
            loop {
                client.set_model(&session, &local).unwrap();
                client.send_local(&session).unwrap();
                match client
                    .wait_global_update(&session, Duration::from_secs(30))
                    .unwrap()
                {
                    WaitOutcome::Completed => break,
                    WaitOutcome::NextRound(_) => {}
                    WaitOutcome::Evicted => panic!("live client must not be evicted"),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // The dead contributor was evicted: exactly capacity_min survivors.
    let members = coord.session_members(&session);
    if let Some(members) = members {
        assert_eq!(members.len(), 3, "z3 evicted, got {members:?}");
        assert!(!members.iter().any(|m| m.as_str() == "z3"));
    }
}

#[test]
fn retained_topology_is_cleared_when_session_finishes() {
    use sdflmq::mqtt::{Client, ClientOptions, QoS};

    let b = broker("topo-clear");
    let coord = Coordinator::start(
        &b,
        CoordinatorConfig {
            topology: Topology::Central,
            terminal_linger: Duration::from_millis(200),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let _ps = ParamServer::start(&b, BatchConfig::default()).unwrap();

    let session = SessionId::new("topo-clear").unwrap();
    let model = ModelId::new("toy").unwrap();
    let mut clients = Vec::new();
    for i in 0..2usize {
        let c = SdflmqClient::connect(
            &b,
            ClientId::new(format!("tc{i}")).unwrap(),
            SdflmqClientConfig::default(),
        )
        .unwrap();
        if i == 0 {
            c.create_fl_session(
                &session,
                &model,
                Duration::from_secs(600),
                2,
                2,
                Duration::from_secs(30),
                1,
                PreferredRole::Any,
                10,
            )
            .unwrap();
        } else {
            c.join_fl_session(&session, &model, PreferredRole::Any, 10)
                .unwrap();
        }
        clients.push(c);
    }
    let mut handles = Vec::new();
    for c in clients {
        let session = session.clone();
        handles.push(std::thread::spawn(move || {
            c.set_model(&session, &[1.0; 4]).unwrap();
            c.send_local(&session).unwrap();
            assert_eq!(
                c.wait_global_update(&session, Duration::from_secs(60))
                    .unwrap(),
                WaitOutcome::Completed
            );
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Wait for the observable completion effects — the retained plan
    // cleared at the broker and the coordinator's session record GC'd
    // after the linger — instead of sleeping a fixed amount.
    sdflmq_testkit::require("retained topology cleared", Duration::from_secs(10), || {
        b.stats().retained_current == 0
    });
    sdflmq_testkit::require("terminal session GC'd", Duration::from_secs(10), || {
        coord.session_state(&session).is_none()
    });
    // A late subscriber must see no stale retained plan.
    let observer = Client::connect(&b, ClientOptions::new("late-observer")).unwrap();
    observer
        .subscribe_str("sdflmq/session/topo-clear/topology", QoS::AtLeastOnce)
        .unwrap();
    assert!(
        observer.recv_timeout(Duration::from_millis(800)).is_err(),
        "no retained topology replay for a finished session"
    );
}

#[test]
fn a_session_id_reused_after_gc_runs_its_rounds() {
    let b = broker("id-reuse");
    let coord = Coordinator::start(
        &b,
        CoordinatorConfig {
            topology: Topology::Central,
            terminal_linger: Duration::from_millis(200),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let _ps = ParamServer::start(&b, BatchConfig::default()).unwrap();
    let session = SessionId::new("reused").unwrap();

    // One 2-client, 1-round session per incarnation of the id, on fresh
    // clients. Returns what each client's wait reported.
    let run = |prefix: &str| {
        let model = ModelId::new("toy").unwrap();
        let mut handles = Vec::new();
        for i in 0..2usize {
            let c = SdflmqClient::connect(
                &b,
                ClientId::new(format!("{prefix}{i}")).unwrap(),
                SdflmqClientConfig::default(),
            )
            .unwrap();
            if i == 0 {
                c.create_fl_session(
                    &session,
                    &model,
                    Duration::from_secs(600),
                    2,
                    2,
                    Duration::from_secs(30),
                    1,
                    PreferredRole::Any,
                    10,
                )
                .unwrap();
            } else {
                c.join_fl_session(&session, &model, PreferredRole::Any, 10)
                    .unwrap();
            }
            let session = session.clone();
            handles.push(std::thread::spawn(move || {
                c.set_model(&session, &[i as f32; 4]).unwrap();
                c.send_local(&session).unwrap();
                c.wait_global_update(&session, Duration::from_secs(60))
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    };

    for outcome in run("first") {
        assert_eq!(outcome.unwrap(), WaitOutcome::Completed);
    }
    sdflmq_testkit::require("terminal session GC'd", Duration::from_secs(10), || {
        coord.session_state(&session).is_none()
    });
    // The coordinator accepts the id again. Its round 1 is no newer than
    // the parameter server's record of the old incarnation, and the round
    // must still reach both clients.
    for outcome in run("second") {
        assert_eq!(outcome.unwrap(), WaitOutcome::Completed);
    }
}

#[test]
fn fifty_client_simulated_session_completes_under_twenty_percent_dropout() {
    // The acceptance scenario: 50 contributors, ~20% of them dying over
    // the run, every round still completing, with aggregator positions
    // re-delegated as their holders drop (virtual-time runtime).
    let report = simulate(SimConfig {
        rounds: 10,
        optimizer: Box::new(MemoryAware),
        dropout_prob: 0.022, // (1 - 0.022)^10 ≈ 0.80 survival
        seed: 42,
        ..SimConfig::fig8(
            50,
            Topology::Hierarchical {
                aggregator_ratio: 0.3,
            },
        )
    });
    assert_eq!(report.rounds.len(), 10, "all rounds completed, no abort");
    assert!(
        report.evicted >= 5 && report.evicted <= 16,
        "~20% of 50 evicted, got {}",
        report.evicted
    );
    assert!(
        report.aggregators_redelegated >= 1,
        "at least one dead aggregator forced a re-delegation"
    );
    assert!(report.completed_despite_dropout > 0);
    let final_survivors = report.rounds.last().unwrap().survivors;
    assert_eq!(final_survivors + report.evicted, 50, "ledger balances");
    assert!(final_survivors >= 34, "most of the fleet survives");
}

#[test]
fn heterogeneous_fleet_prefers_big_machines_for_aggregation() {
    let b = broker("hetero");
    let _coord = Coordinator::start(
        &b,
        CoordinatorConfig {
            topology: Topology::Central,
            optimizer: Box::new(MemoryAware),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let _ps = ParamServer::start(&b, BatchConfig::default()).unwrap();

    let session = SessionId::new("hetero").unwrap();
    let model = ModelId::new("toy").unwrap();

    // One big gateway among small devices: with memory-aware placement it
    // must hold the aggregator role in round 1.
    let specs = [
        SystemSpec::edge_small(),
        SystemSpec::edge_large(),
        SystemSpec::edge_small(),
    ];
    let mut clients = Vec::new();
    for (i, spec) in specs.into_iter().enumerate() {
        let c = SdflmqClient::connect(
            &b,
            ClientId::new(format!("h{i}")).unwrap(),
            SdflmqClientConfig {
                system: spec,
                system_seed: i as u64,
                ..SdflmqClientConfig::default()
            },
        )
        .unwrap();
        if i == 0 {
            c.create_fl_session(
                &session,
                &model,
                Duration::from_secs(600),
                3,
                3,
                Duration::from_secs(30),
                1,
                PreferredRole::Any,
                10,
            )
            .unwrap();
        } else {
            c.join_fl_session(&session, &model, PreferredRole::Any, 10)
                .unwrap();
        }
        clients.push(c);
    }

    let mut handles = Vec::new();
    for client in clients {
        let session = session.clone();
        handles.push(std::thread::spawn(move || {
            client.set_model(&session, &[1.0; 4]).unwrap();
            client.send_local(&session).unwrap();
            client
                .wait_global_update(&session, Duration::from_secs(60))
                .unwrap();
            (
                client.id().as_str().to_owned(),
                client
                    .current_role(&session)
                    .map(|r| r.role.aggregates())
                    .unwrap_or(false),
            )
        }));
    }
    let results: Vec<(String, bool)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let aggregator: Vec<&str> = results
        .iter()
        .filter(|(_, agg)| *agg)
        .map(|(id, _)| id.as_str())
        .collect();
    assert_eq!(aggregator, vec!["h1"], "the large machine aggregates");
}
