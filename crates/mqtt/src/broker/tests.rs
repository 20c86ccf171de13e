//! Live-broker tests: real shard threads, in-process links (and, for the
//! CONNECT gate, real sockets). Protocol rules that need no thread are
//! pinned in `proto_tests` instead.

use super::*;
use crate::codec;
use crate::error::ConnectReturnCode;
use crate::fault::FaultRule;
use crate::topic::TopicFilter;
use std::time::Duration;

/// Minimal raw-packet client for exercising the broker without the
/// full `Client` machinery.
struct RawClient {
    link: LinkEnd,
}

impl RawClient {
    fn connect(broker: &Broker, id: &str, clean: bool) -> RawClient {
        Self::connect_full(broker, id, clean, 0, None)
    }

    fn connect_full(
        broker: &Broker,
        id: &str,
        clean: bool,
        keep_alive: u16,
        will: Option<LastWill>,
    ) -> RawClient {
        let link = broker.connect_transport().unwrap();
        link.send_packet(&Packet::Connect(Connect {
            client_id: id.to_owned(),
            clean_session: clean,
            keep_alive,
            will,
        }))
        .unwrap();
        // Generous timeout: the full workspace test run executes many
        // binaries in parallel and can starve this thread for seconds.
        match link.recv_packet_timeout(Duration::from_secs(30)).unwrap() {
            Packet::Connack(c) => assert_eq!(c.code, ConnectReturnCode::Accepted),
            other => panic!("expected connack, got {other:?}"),
        }
        RawClient { link }
    }

    fn subscribe(&self, filter: &str, qos: QoS) {
        self.link
            .send_packet(&Packet::Subscribe(Subscribe {
                packet_id: 1,
                filters: vec![(TopicFilter::new(filter).unwrap(), qos)],
            }))
            .unwrap();
        match self.recv() {
            Packet::Suback(_) => {}
            other => panic!("expected suback, got {other:?}"),
        }
    }

    fn publish(&self, topic: &str, payload: &[u8], qos: QoS, retain: bool) {
        let packet_id = if qos == QoS::AtMostOnce {
            None
        } else {
            Some(9)
        };
        self.link
            .send_packet(&Packet::Publish(Publish {
                dup: false,
                qos,
                retain,
                topic: TopicName::new(topic).unwrap(),
                packet_id,
                payload: Bytes::from(payload.to_vec()),
            }))
            .unwrap();
    }

    fn recv(&self) -> Packet {
        self.link
            .recv_packet_timeout(Duration::from_secs(30))
            .unwrap()
    }

    fn expect_publish(&self) -> Publish {
        loop {
            match self.recv() {
                Packet::Publish(p) => return p,
                Packet::Puback(_) | Packet::Pubrec(_) | Packet::Pubcomp(_) => continue,
                other => panic!("expected publish, got {other:?}"),
            }
        }
    }
}

#[test]
fn qos0_pubsub_roundtrip() {
    let broker = Broker::start_default();
    let sub = RawClient::connect(&broker, "sub", true);
    sub.subscribe("a/b", QoS::AtMostOnce);
    let publ = RawClient::connect(&broker, "pub", true);
    publ.publish("a/b", b"hi", QoS::AtMostOnce, false);
    let got = sub.expect_publish();
    assert_eq!(got.topic.as_str(), "a/b");
    assert_eq!(got.payload, Bytes::from_static(b"hi"));
    assert_eq!(got.qos, QoS::AtMostOnce);
}

#[test]
fn qos1_gets_puback_and_delivery() {
    let broker = Broker::start_default();
    let sub = RawClient::connect(&broker, "sub", true);
    sub.subscribe("t", QoS::AtLeastOnce);
    let publ = RawClient::connect(&broker, "pub", true);
    publ.publish("t", b"x", QoS::AtLeastOnce, false);
    match publ.recv() {
        Packet::Puback(9) => {}
        other => panic!("expected puback(9), got {other:?}"),
    }
    let got = sub.expect_publish();
    assert_eq!(got.qos, QoS::AtLeastOnce);
    assert!(got.packet_id.is_some());
}

#[test]
fn qos2_full_handshake_no_duplicates() {
    let broker = Broker::start_default();
    let sub = RawClient::connect(&broker, "sub", true);
    sub.subscribe("t", QoS::ExactlyOnce);
    let publ = RawClient::connect(&broker, "pub", true);

    publ.publish("t", b"x", QoS::ExactlyOnce, false);
    match publ.recv() {
        Packet::Pubrec(9) => {}
        other => panic!("expected pubrec, got {other:?}"),
    }
    // Duplicate publish with the same id must not be re-routed.
    publ.publish("t", b"x", QoS::ExactlyOnce, false);
    match publ.recv() {
        Packet::Pubrec(9) => {}
        other => panic!("expected pubrec, got {other:?}"),
    }
    publ.link.send_packet(&Packet::Pubrel(9)).unwrap();
    match publ.recv() {
        Packet::Pubcomp(9) => {}
        other => panic!("expected pubcomp, got {other:?}"),
    }

    let got = sub.expect_publish();
    assert_eq!(got.qos, QoS::ExactlyOnce);
    // Complete the subscriber-side handshake.
    let id = got.packet_id.unwrap();
    sub.link.send_packet(&Packet::Pubrec(id)).unwrap();
    match sub.recv() {
        Packet::Pubrel(got_id) => assert_eq!(got_id, id),
        other => panic!("expected pubrel, got {other:?}"),
    }
    sub.link.send_packet(&Packet::Pubcomp(id)).unwrap();

    // Exactly one delivery.
    assert_eq!(broker.stats().publishes_out, 1);
}

#[test]
fn qos_downgrade_to_subscription_grant() {
    let broker = Broker::start_default();
    let sub = RawClient::connect(&broker, "sub", true);
    sub.subscribe("t", QoS::AtMostOnce);
    let publ = RawClient::connect(&broker, "pub", true);
    publ.publish("t", b"x", QoS::AtLeastOnce, false);
    let got = sub.expect_publish();
    assert_eq!(got.qos, QoS::AtMostOnce, "delivery QoS = min(pub, sub)");
}

#[test]
fn retained_message_replayed_on_subscribe() {
    let broker = Broker::start_default();
    let publ = RawClient::connect(&broker, "pub", true);
    publ.publish("cfg/x", b"v1", QoS::AtMostOnce, true);
    std::thread::sleep(Duration::from_millis(50));
    let sub = RawClient::connect(&broker, "sub", true);
    sub.subscribe("cfg/#", QoS::AtMostOnce);
    let got = sub.expect_publish();
    assert!(got.retain, "retained replay sets the retain flag");
    assert_eq!(got.payload, Bytes::from_static(b"v1"));
}

#[test]
fn empty_retained_clears() {
    let broker = Broker::start_default();
    let publ = RawClient::connect(&broker, "pub", true);
    publ.publish("cfg/x", b"v1", QoS::AtMostOnce, true);
    publ.publish("cfg/x", b"", QoS::AtMostOnce, true);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(broker.stats().retained_current, 0);
}

#[test]
fn persistent_session_queues_while_offline() {
    let broker = Broker::start_default();
    let sub = RawClient::connect(&broker, "sub", false);
    sub.subscribe("t", QoS::AtLeastOnce);
    drop(sub); // goes offline; session persists
    std::thread::sleep(Duration::from_millis(50));

    let publ = RawClient::connect(&broker, "pub", true);
    publ.publish("t", b"while-away", QoS::AtLeastOnce, false);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(broker.stats().queued_current, 1);

    // Reconnect without clean: message is replayed.
    let link = broker.connect_transport().unwrap();
    link.send_packet(&Packet::Connect(Connect {
        client_id: "sub".into(),
        clean_session: false,
        keep_alive: 0,
        will: None,
    }))
    .unwrap();
    match link.recv_packet_timeout(Duration::from_secs(2)).unwrap() {
        Packet::Connack(c) => assert!(c.session_present),
        other => panic!("expected connack, got {other:?}"),
    }
    match link.recv_packet_timeout(Duration::from_secs(2)).unwrap() {
        Packet::Publish(p) => assert_eq!(p.payload, Bytes::from_static(b"while-away")),
        other => panic!("expected publish, got {other:?}"),
    }
}

#[test]
fn clean_session_discards_state() {
    let broker = Broker::start_default();
    let sub = RawClient::connect(&broker, "sub", false);
    sub.subscribe("t", QoS::AtLeastOnce);
    drop(sub);
    std::thread::sleep(Duration::from_millis(50));

    // Reconnect with clean=true: no session, no subscriptions.
    let link = broker.connect_transport().unwrap();
    link.send_packet(&Packet::Connect(Connect {
        client_id: "sub".into(),
        clean_session: true,
        keep_alive: 0,
        will: None,
    }))
    .unwrap();
    match link.recv_packet_timeout(Duration::from_secs(2)).unwrap() {
        Packet::Connack(c) => assert!(!c.session_present),
        other => panic!("expected connack, got {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(broker.stats().subscriptions_current, 0);
}

#[test]
fn last_will_published_on_ungraceful_drop() {
    let broker = Broker::start_default();
    let watcher = RawClient::connect(&broker, "watcher", true);
    watcher.subscribe("status/+", QoS::AtMostOnce);
    let doomed = RawClient::connect_full(
        &broker,
        "doomed",
        true,
        0,
        Some(LastWill {
            topic: TopicName::new("status/doomed").unwrap(),
            payload: Bytes::from_static(b"offline"),
            qos: QoS::AtMostOnce,
            retain: false,
        }),
    );
    drop(doomed); // ungraceful: no DISCONNECT sent
    let got = watcher.expect_publish();
    assert_eq!(got.topic.as_str(), "status/doomed");
    assert_eq!(got.payload, Bytes::from_static(b"offline"));
}

#[test]
fn graceful_disconnect_suppresses_will() {
    let broker = Broker::start_default();
    let watcher = RawClient::connect(&broker, "watcher", true);
    watcher.subscribe("status/+", QoS::AtMostOnce);
    let polite = RawClient::connect_full(
        &broker,
        "polite",
        true,
        0,
        Some(LastWill {
            topic: TopicName::new("status/polite").unwrap(),
            payload: Bytes::from_static(b"offline"),
            qos: QoS::AtMostOnce,
            retain: false,
        }),
    );
    polite.link.send_packet(&Packet::Disconnect).unwrap();
    drop(polite);
    // No will should arrive.
    assert!(watcher
        .link
        .recv_packet_timeout(Duration::from_millis(200))
        .is_err());
}

#[test]
fn kill_connection_fault_fires_will() {
    // A KillConnection rule assassinates the recipient instead of
    // delivering — the broker sees an ungraceful close and publishes
    // the victim's testament.
    let plan = FaultPlan::seeded(3).rule(
        FaultRule::kill_connection("assassin")
            .on_topic("trigger")
            .to_client("victim")
            .take(1),
    );
    let broker = Broker::start(BrokerConfig {
        fault_plan: Some(plan),
        ..BrokerConfig::default()
    });
    let watcher = RawClient::connect(&broker, "watcher", true);
    watcher.subscribe("status/+", QoS::AtMostOnce);
    let victim = RawClient::connect_full(
        &broker,
        "victim",
        true,
        0,
        Some(LastWill {
            topic: TopicName::new("status/victim").unwrap(),
            payload: Bytes::from_static(b"assassinated"),
            qos: QoS::AtMostOnce,
            retain: false,
        }),
    );
    victim.subscribe("trigger", QoS::AtMostOnce);
    let publ = RawClient::connect(&broker, "pub", true);
    publ.publish("trigger", b"bang", QoS::AtMostOnce, false);
    // The trigger message is consumed, the testament arrives instead.
    let got = watcher.expect_publish();
    assert_eq!(got.topic.as_str(), "status/victim");
    assert_eq!(got.payload, Bytes::from_static(b"assassinated"));
    // The victim's link is dead and it never saw the trigger.
    let r = victim.link.recv_packet_timeout(Duration::from_millis(500));
    assert!(r.is_err(), "victim link should be severed, got {r:?}");
    assert_eq!(broker.fault_hits(), vec![("assassin".to_owned(), 1)]);
}

#[test]
fn session_takeover_disconnects_old() {
    let broker = Broker::start_default();
    let first = RawClient::connect(&broker, "dup", true);
    let _second = RawClient::connect(&broker, "dup", true);
    std::thread::sleep(Duration::from_millis(50));
    // The first connection's link is now closed by the broker.
    assert_eq!(broker.stats().connections_current, 1);
    // Receiving on the first link eventually errors (channel closed).
    let r = first.link.recv_packet_timeout(Duration::from_millis(200));
    assert!(r.is_err());
}

#[test]
fn fanout_to_many_subscribers() {
    let broker = Broker::start_default();
    let subs: Vec<RawClient> = (0..10)
        .map(|i| {
            let c = RawClient::connect(&broker, &format!("sub{i}"), true);
            c.subscribe("fan/+", QoS::AtMostOnce);
            c
        })
        .collect();
    let publ = RawClient::connect(&broker, "pub", true);
    publ.publish("fan/1", b"data", QoS::AtMostOnce, false);
    for sub in &subs {
        assert_eq!(sub.expect_publish().payload, Bytes::from_static(b"data"));
    }
    let stats = broker.stats();
    assert_eq!(stats.publishes_in, 1);
    assert_eq!(stats.publishes_out, 10);
    assert!((stats.fanout_ratio() - 10.0).abs() < 1e-9);
}

#[test]
fn publish_before_connect_drops_connection() {
    let broker = Broker::start_default();
    let link = broker.connect_transport().unwrap();
    link.send_packet(&Packet::Publish(Publish::simple(
        TopicName::new("t").unwrap(),
        b"x".to_vec(),
    )))
    .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(broker.stats().connections_current, 0);
}

#[test]
fn second_connect_drops_connection() {
    let broker = Broker::start_default();
    let client = RawClient::connect(&broker, "twice", true);
    client
        .link
        .send_packet(&Packet::Connect(Connect {
            client_id: "twice".into(),
            clean_session: true,
            keep_alive: 0,
            will: None,
        }))
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(broker.stats().connections_current, 0);
}

#[test]
fn unsubscribe_stops_delivery() {
    let broker = Broker::start_default();
    let sub = RawClient::connect(&broker, "sub", true);
    sub.subscribe("t", QoS::AtMostOnce);
    sub.link
        .send_packet(&Packet::Unsubscribe(Unsubscribe {
            packet_id: 2,
            filters: vec![TopicFilter::new("t").unwrap()],
        }))
        .unwrap();
    match sub.recv() {
        Packet::Unsuback(2) => {}
        other => panic!("expected unsuback, got {other:?}"),
    }
    let publ = RawClient::connect(&broker, "pub", true);
    publ.publish("t", b"x", QoS::AtMostOnce, false);
    assert!(sub
        .link
        .recv_packet_timeout(Duration::from_millis(200))
        .is_err());
}

// ------------------------------------------------------------------
// Sharded-core tests
// ------------------------------------------------------------------

fn sharded(shards: usize) -> Broker {
    Broker::start(BrokerConfig {
        name: format!("sharded{shards}"),
        shards,
        ..BrokerConfig::default()
    })
}

#[test]
fn sharded_fanout_reaches_every_shard() {
    let broker = sharded(4);
    assert_eq!(broker.shards(), 4);
    let subs: Vec<RawClient> = (0..16)
        .map(|i| {
            let c = RawClient::connect(&broker, &format!("s{i:02}"), true);
            c.subscribe("fan/#", QoS::AtMostOnce);
            c
        })
        .collect();
    let publ = RawClient::connect(&broker, "pub", true);
    publ.publish("fan/x", b"blast", QoS::AtMostOnce, false);
    for sub in &subs {
        assert_eq!(sub.expect_publish().payload, Bytes::from_static(b"blast"));
    }
    assert_eq!(broker.stats().publishes_out, 16);
}

#[test]
fn sharded_qos1_crosses_shards_with_session_ids() {
    let broker = sharded(4);
    // 16 ids cover all 4 shards with overwhelming probability.
    let subs: Vec<RawClient> = (0..16)
        .map(|i| {
            let c = RawClient::connect(&broker, &format!("q{i:02}"), true);
            c.subscribe("t", QoS::AtLeastOnce);
            c
        })
        .collect();
    let publ = RawClient::connect(&broker, "pub", true);
    publ.publish("t", b"ack-me", QoS::AtLeastOnce, false);
    for sub in &subs {
        let p = sub.expect_publish();
        assert_eq!(p.qos, QoS::AtLeastOnce);
        let id = p.packet_id.expect("QoS1 delivery carries a packet id");
        sub.link.send_packet(&Packet::Puback(id)).unwrap();
    }
    // The publisher's shard routed; other shards' sessions were
    // reached via mailbox hops.
    assert!(
        broker.stats().cross_shard_hops > 0,
        "expected cross-shard hops"
    );
}

#[test]
fn sharded_persistent_queue_and_replay() {
    let broker = sharded(4);
    let sub = RawClient::connect(&broker, "parked", false);
    sub.subscribe("t", QoS::AtLeastOnce);
    drop(sub);
    std::thread::sleep(Duration::from_millis(50));
    let publ = RawClient::connect(&broker, "pub", true);
    publ.publish("t", b"held", QoS::AtLeastOnce, false);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(broker.stats().queued_current, 1);
    let sub = RawClient::connect(&broker, "parked", false);
    let got = sub.expect_publish();
    assert_eq!(got.payload, Bytes::from_static(b"held"));
}

#[test]
fn fanout_order_is_sorted_by_client_id() {
    // A take(1) drop rule consumes exactly the FIRST delivery of the
    // fan-out. With sorted fan-out the victim is always the
    // lexicographically smallest subscriber, run after run —
    // previously HashMap iteration order picked a random victim.
    for _ in 0..3 {
        let plan = FaultPlan::seeded(7).rule(FaultRule::drop_matching("first").take(1));
        let broker = Broker::start(BrokerConfig {
            fault_plan: Some(plan),
            ..BrokerConfig::default()
        });
        // Connect in non-sorted order to rule out join-order effects.
        let names = ["m2", "m0", "m1"];
        let subs: Vec<RawClient> = names
            .iter()
            .map(|n| {
                let c = RawClient::connect(&broker, n, true);
                c.subscribe("t", QoS::AtMostOnce);
                c
            })
            .collect();
        let publ = RawClient::connect(&broker, "pub", true);
        publ.publish("t", b"x", QoS::AtMostOnce, false);
        // m0 (sorted-first) is always the victim; m1 and m2 receive.
        assert_eq!(subs[2].expect_publish().payload, Bytes::from_static(b"x")); // m1
        assert_eq!(subs[0].expect_publish().payload, Bytes::from_static(b"x")); // m2
        assert!(
            subs[1] // m0
                .link
                .recv_packet_timeout(Duration::from_millis(150))
                .is_err(),
            "sorted-first subscriber m0 must be the dropped one"
        );
    }
}

#[test]
fn qos0_fanout_shares_one_encoded_frame() {
    // Encode-once: all QoS0 subscribers of one publish receive the
    // exact same frame (one shared head, and the publisher's payload
    // allocation as the body), and payload counters reflect every
    // delivery.
    let broker = Broker::start_default();
    let subs: Vec<RawClient> = (0..5)
        .map(|i| {
            let c = RawClient::connect(&broker, &format!("e{i}"), true);
            c.subscribe("enc", QoS::AtMostOnce);
            c
        })
        .collect();
    let publ = RawClient::connect(&broker, "pub", true);
    let payload = Bytes::from(b"shared-bytes".to_vec());
    publ.link
        .send_packet(&Packet::Publish(Publish::simple(
            TopicName::new("enc").unwrap(),
            payload.clone(),
        )))
        .unwrap();
    let frames: Vec<Frame> = subs
        .iter()
        .map(|s| s.link.recv_timeout(Duration::from_secs(5)).expect("frame"))
        .collect();
    for f in &frames {
        assert_eq!(f, &frames[0]);
        // The shim's Bytes shares one allocation across clones.
        assert_eq!(f.head.as_ptr(), frames[0].head.as_ptr(), "one shared head");
        assert_eq!(f.body.as_ptr(), payload.as_ptr(), "the publisher's body");
    }
    assert_eq!(
        broker.stats().payload_bytes_out,
        5 * b"shared-bytes".len() as u64
    );
}

// ------------------------------------------------------------------
// The CONNECT gate, over both transports
// ------------------------------------------------------------------

fn eventually(what: &str, cond: impl Fn() -> bool) {
    let patience = std::time::Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(std::time::Instant::now() < patience, "timed out: {what}");
        std::thread::yield_now();
    }
}

fn frame_of(packets: &[Packet]) -> Bytes {
    let mut bytes = Vec::new();
    for p in packets {
        bytes.extend_from_slice(&codec::encode(p).unwrap());
    }
    Bytes::from(bytes)
}

fn connect_packet(id: &str) -> Packet {
    Packet::Connect(Connect {
        client_id: id.to_owned(),
        clean_session: true,
        keep_alive: 0,
        will: None,
    })
}

/// One gate, one table: every row must hold whether the connection is an
/// in-process link or a real socket.
#[test]
fn connect_gate_is_the_same_for_links_and_sockets() {
    let broker = sharded(4);
    let addr = broker.listen("127.0.0.1:0").unwrap();
    type Dial<'a> = Box<dyn Fn() -> LinkEnd + 'a>;
    let transports: [(&str, Dial<'_>); 2] = [
        ("link", Box::new(|| broker.connect_transport().unwrap())),
        (
            "tcp",
            Box::new(|| crate::transport::tcp_link(addr).unwrap()),
        ),
    ];
    let wait = Duration::from_secs(30);
    for (name, dial) in &transports {
        // An empty client id is refused with a CONNACK, then hung up on.
        let end = dial();
        end.send_packet(&connect_packet("")).unwrap();
        match end.recv_packet_timeout(wait).unwrap() {
            Packet::Connack(c) => assert_eq!(c.code, ConnectReturnCode::IdentifierRejected),
            other => panic!("{name}: expected a refusal, got {other:?}"),
        }
        assert_eq!(
            end.recv_packet_timeout(wait).unwrap_err(),
            MqttError::Disconnected,
            "{name}: refused connection must be closed"
        );

        // Anything but CONNECT first gets the connection dropped unanswered.
        let end = dial();
        end.send_packet(&Packet::Pingreq).unwrap();
        assert_eq!(
            end.recv_packet_timeout(wait).unwrap_err(),
            MqttError::Disconnected,
            "{name}: a packet before CONNECT must drop the connection"
        );
        eventually("gated connections uncounted", || {
            broker.stats().connections_current == 0
        });

        // Packets pipelined behind the CONNECT — in the same frame on a
        // link, in the same segment on a socket — are handled after it,
        // on whichever shard the client id lands.
        let mut kept = Vec::new();
        for i in 0..8 {
            // Even rows pick an id this connection's home shard owns; odd
            // rows one it must migrate for.
            let home = (broker.next_conn.load(Ordering::Relaxed) % 4) as usize;
            let id = (0..)
                .map(|n| format!("{name}-gate-{i}-{n}"))
                .find(|id| (shard_of(id, 4) == home) == (i % 2 == 0))
                .unwrap();
            let end = dial();
            end.send_frame(frame_of(&[
                connect_packet(&id),
                Packet::Subscribe(Subscribe {
                    packet_id: 7,
                    filters: vec![(TopicFilter::new("gate/#").unwrap(), QoS::AtMostOnce)],
                }),
                Packet::Pingreq,
            ]))
            .unwrap();
            match end.recv_packet_timeout(wait).unwrap() {
                Packet::Connack(c) => assert_eq!(c.code, ConnectReturnCode::Accepted),
                other => panic!("{name}/{id}: expected connack, got {other:?}"),
            }
            match end.recv_packet_timeout(wait).unwrap() {
                Packet::Suback(s) => assert_eq!(s.packet_id, 7),
                other => panic!("{name}/{id}: expected suback, got {other:?}"),
            }
            assert_eq!(end.recv_packet_timeout(wait).unwrap(), Packet::Pingresp);
            kept.push(end);
        }
        assert_eq!(broker.stats().subscriptions_current, 8);
        drop(kept);
        eventually("connections closed", || {
            broker.stats().connections_current == 0
        });
    }
}

/// A link's nudges are aimed at one shard at a time, so frames (and a
/// hangup) sent while the connection is between shards have theirs
/// dropped; the owner must catch up on arrival.
#[test]
fn frames_and_hangups_racing_a_link_migration_are_not_lost() {
    let broker = sharded(8);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let broker = &broker;
            scope.spawn(move || {
                for i in 0..200 {
                    let end = broker.connect_transport().unwrap();
                    end.send_packet(&connect_packet(&format!("race-{t}-{i}")))
                        .unwrap();
                    if i % 4 == 0 {
                        // Hang up right behind the CONNECT.
                        continue;
                    }
                    // No waiting for the CONNACK: these race the hand-over.
                    end.send_packet(&Packet::Subscribe(Subscribe {
                        packet_id: 3,
                        filters: vec![(TopicFilter::new("race/#").unwrap(), QoS::AtMostOnce)],
                    }))
                    .unwrap();
                    end.send_packet(&Packet::Pingreq).unwrap();
                    let wait = Duration::from_secs(30);
                    assert!(matches!(
                        end.recv_packet_timeout(wait).unwrap(),
                        Packet::Connack(_)
                    ));
                    assert!(matches!(
                        end.recv_packet_timeout(wait).unwrap(),
                        Packet::Suback(_)
                    ));
                    assert_eq!(end.recv_packet_timeout(wait).unwrap(), Packet::Pingresp);
                }
            });
        }
    });
    eventually("every connection, raced or not, was closed", || {
        broker.stats().connections_current == 0
    });
    assert_eq!(broker.stats().connections_total, 800);
}

// ------------------------------------------------------------------
// The frame path: payloads are shared, bytes on the wire unchanged
// ------------------------------------------------------------------

/// The first `prefix-<n>` client id that shard `shard` of `shards` owns.
fn id_on(prefix: &str, shard: usize, shards: usize) -> String {
    (0..)
        .map(|n| format!("{prefix}-{n}"))
        .find(|id| shard_of(id, shards) == shard)
        .unwrap()
}

/// Publishes `payload` itself (not a copy) and completes the publisher's
/// side of the QoS handshake.
fn publish_shared(publ: &RawClient, topic: &str, payload: &Bytes, qos: QoS, retain: bool) {
    publ.link
        .send_packet(&Packet::Publish(Publish {
            dup: false,
            qos,
            retain,
            topic: TopicName::new(topic).unwrap(),
            packet_id: (qos != QoS::AtMostOnce).then_some(9),
            payload: payload.clone(),
        }))
        .unwrap();
    match qos {
        QoS::AtMostOnce => {}
        QoS::AtLeastOnce => assert_eq!(publ.recv(), Packet::Puback(9)),
        QoS::ExactlyOnce => {
            assert_eq!(publ.recv(), Packet::Pubrec(9));
            publ.link.send_packet(&Packet::Pubrel(9)).unwrap();
            assert_eq!(publ.recv(), Packet::Pubcomp(9));
        }
    }
}

/// The next PUBLISH frame a subscriber receives, and what it decodes to.
fn recv_delivery(sub: &RawClient) -> (Frame, Publish) {
    let frame = sub.link.recv_timeout(Duration::from_secs(30)).unwrap();
    match codec::decode_frame(&mut frame.clone()).unwrap() {
        Packet::Publish(p) => (frame, p),
        other => panic!("expected a publish, got {other:?}"),
    }
}

fn model_payload() -> Bytes {
    Bytes::from((0..64 * 1024).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

const QOS_ALL: [QoS; 3] = [QoS::AtMostOnce, QoS::AtLeastOnce, QoS::ExactlyOnce];

#[test]
fn every_delivery_shares_the_publishers_payload() {
    let broker = sharded(2);
    let payload = model_payload();
    let same = |got: &Publish, what: &str| {
        assert_eq!(got.payload, payload, "{what}");
        assert_eq!(got.payload.as_ptr(), payload.as_ptr(), "{what}: copied");
    };
    // One subscriber per (granted QoS, shard); the publisher is on shard 0.
    let subs: Vec<(RawClient, QoS)> = QOS_ALL
        .iter()
        .flat_map(|&qos| (0..2).map(move |shard| (qos, shard)))
        .map(|(qos, shard)| {
            let c =
                RawClient::connect(&broker, &id_on(&format!("zc{}", qos as u8), shard, 2), true);
            c.subscribe("zc/live", qos);
            (c, qos)
        })
        .collect();
    let publ = RawClient::connect(&broker, &id_on("zc-pub", 0, 2), true);
    for qos in QOS_ALL {
        publish_shared(&publ, "zc/live", &payload, qos, false);
        for (sub, granted) in &subs {
            let (_, got) = recv_delivery(sub);
            assert_eq!(got.qos, qos.min(*granted));
            same(&got, &format!("live QoS {qos:?} → {granted:?}"));
        }
    }
    drop(subs);

    // A retained message replayed to a later subscriber on either shard.
    publish_shared(&publ, "zc/retained", &payload, QoS::AtLeastOnce, true);
    for shard in 0..2 {
        let late = RawClient::connect(&broker, &id_on("zc-late", shard, 2), true);
        late.subscribe("zc/retained", QoS::AtLeastOnce);
        let (_, got) = recv_delivery(&late);
        assert!(got.retain);
        same(&got, &format!("retained replay on shard {shard}"));
    }

    // The offline queue of a parked session on either shard, replayed
    // when it reconnects.
    eventually("only the publisher connected", || {
        broker.stats().connections_current == 1
    });
    let parked: Vec<String> = (0..2).map(|shard| id_on("zc-parked", shard, 2)).collect();
    for id in &parked {
        RawClient::connect(&broker, id, false).subscribe("zc/queued", QoS::AtLeastOnce);
    }
    eventually("parked sessions offline", || {
        broker.stats().connections_current == 1
    });
    publish_shared(&publ, "zc/queued", &payload, QoS::AtLeastOnce, false);
    eventually("both queued", || broker.stats().queued_current == 2);
    for id in &parked {
        let back = RawClient::connect(&broker, id, false);
        let (_, got) = recv_delivery(&back);
        same(&got, &format!("offline replay to {id}"));
    }
}

/// Reads one whole MQTT packet's bytes off a socket.
fn read_packet_bytes(stream: &mut std::net::TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut bytes = vec![0u8; 2];
    stream.read_exact(&mut bytes).unwrap();
    let len = loop {
        if let Some(len) = codec::frame_length(&bytes).unwrap() {
            break len;
        }
        let mut more = [0u8; 1];
        stream.read_exact(&mut more).unwrap();
        bytes.push(more[0]);
    };
    let have = bytes.len();
    bytes.resize(len, 0);
    stream.read_exact(&mut bytes[have..]).unwrap();
    bytes
}

#[test]
fn deliveries_are_the_encoded_packet_byte_for_byte() {
    use std::io::Write;
    let broker = sharded(2);
    let addr = broker.listen("127.0.0.1:0").unwrap();
    let payload = model_payload();
    let topic = TopicName::new("pin/egress").unwrap();
    let filter = || vec![(TopicFilter::new("pin/egress").unwrap(), QoS::ExactlyOnce)];
    // What a subscriber granted `granted` must receive, given the packet
    // id its session allocated.
    let expected = |granted: QoS, got: &Publish| {
        codec::encode(&Packet::Publish(Publish {
            dup: false,
            qos: granted,
            retain: false,
            topic: topic.clone(),
            packet_id: (granted != QoS::AtMostOnce).then(|| got.packet_id.unwrap()),
            payload: payload.clone(),
        }))
        .unwrap()
    };

    let mut links = Vec::new();
    let mut sockets = Vec::new();
    for qos in QOS_ALL {
        for shard in 0..2 {
            let c =
                RawClient::connect(&broker, &id_on(&format!("pl{}", qos as u8), shard, 2), true);
            c.subscribe("pin/egress", qos);
            links.push((c, qos));

            let mut s = std::net::TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut filters = filter();
            filters[0].1 = qos;
            for p in [
                connect_packet(&id_on(&format!("pt{}", qos as u8), shard, 2)),
                Packet::Subscribe(Subscribe {
                    packet_id: 1,
                    filters,
                }),
            ] {
                s.write_all(&codec::encode(&p).unwrap()).unwrap();
            }
            let connack = Packet::Connack(Connack {
                session_present: false,
                code: ConnectReturnCode::Accepted,
            });
            assert_eq!(
                read_packet_bytes(&mut s),
                codec::encode(&connack).unwrap().to_vec()
            );
            let suback = Packet::Suback(Suback {
                packet_id: 1,
                return_codes: vec![SubackCode::Granted(qos)],
            });
            assert_eq!(
                read_packet_bytes(&mut s),
                codec::encode(&suback).unwrap().to_vec()
            );
            sockets.push((s, qos));
        }
    }
    let publ = RawClient::connect(&broker, &id_on("pin-pub", 0, 2), true);
    publish_shared(&publ, "pin/egress", &payload, QoS::ExactlyOnce, false);

    for (sub, granted) in &links {
        let (frame, got) = recv_delivery(sub);
        assert_eq!(frame.join(), expected(*granted, &got), "link, {granted:?}");
    }
    for (s, granted) in &mut sockets {
        let bytes = read_packet_bytes(s);
        let Packet::Publish(got) = codec::decode(&Bytes::from(bytes.clone())).unwrap().0 else {
            panic!("expected a publish");
        };
        assert_eq!(bytes, expected(*granted, &got).to_vec(), "tcp, {granted:?}");
    }
}
