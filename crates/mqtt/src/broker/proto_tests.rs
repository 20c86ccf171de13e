//! Thread-free tests of the protocol core.
//!
//! A [`Rig`] stands where the reactor glue does: it holds the broker half
//! of every [`link`], feeds what clients sent into a [`ShardProto`] with
//! a `now` of its choosing, and drains the shard's own mailbox. No shard
//! thread, poller or sleep is involved, so rules that depend on time or
//! on the order of two packets are checked exactly. The differential
//! proptest at the bottom then holds the live broker to the same answers.

use super::proto::ShardProto;
use super::*;
use crate::codec;
use crate::error::ConnectReturnCode;
use crate::topic::TopicFilter;
use crate::transport::{FrameReceiver, FrameSender, TryRecv};
use crossbeam::channel::Receiver;
use proptest::prelude::*;
use std::time::{Duration, Instant};

struct Rig {
    proto: ShardProto,
    mailbox: Receiver<Event>,
    counters: Arc<BrokerCounters>,
    /// Broker halves of the links dialed so far, by connection id.
    wires: HashMap<ConnId, (FrameSender, FrameReceiver)>,
    next_conn: ConnId,
    now: Instant,
}

impl Rig {
    fn new() -> Rig {
        Rig::with_config(&BrokerConfig::default())
    }

    fn with_config(config: &BrokerConfig) -> Rig {
        let counters = Arc::new(BrokerCounters::default());
        let index = Arc::new(SharedIndex::new());
        let (tx, mailbox) = unbounded();
        let (wake, _wake_rx) = waker().expect("waker");
        let now = Instant::now();
        let proto = ShardProto::new(
            0,
            config,
            &counters,
            &index,
            vec![ShardHandle::new(tx, wake)],
            None,
            now,
        );
        Rig {
            proto,
            mailbox,
            counters,
            wires: HashMap::new(),
            next_conn: 1,
            now,
        }
    }

    /// Opens a transport the way `Broker::connect_transport` does.
    fn dial(&mut self) -> LinkEnd {
        let (client, broker) = link();
        BrokerCounters::bump(&self.counters.connections_current);
        self.wires.insert(self.next_conn, broker.split());
        self.next_conn += 1;
        client
    }

    /// Feeds everything clients have sent into the core at `self.now`,
    /// first frame of a connection through `on_connect`, hangups through
    /// `on_conn_closed`; then the shard's own mailbox; then releases the
    /// wires of connections the core closed.
    fn pump(&mut self) {
        let mut conns: Vec<ConnId> = self.wires.keys().copied().collect();
        conns.sort_unstable();
        for conn in conns {
            while let Some((tx, rx)) = self.wires.get(&conn) {
                match rx.try_recv_frame() {
                    TryRecv::Frame(frame) if self.proto.has_conn(conn) => {
                        self.proto.on_frame(conn, frame, self.now);
                    }
                    TryRecv::Frame(mut frame) => match codec::decode_frame(&mut frame) {
                        Ok(Packet::Connect(c)) => {
                            self.proto.on_connect(conn, tx.clone(), c, self.now);
                        }
                        other => panic!("first frame must be CONNECT, got {other:?}"),
                    },
                    TryRecv::Empty => break,
                    TryRecv::Closed => {
                        self.proto.on_conn_closed(conn, self.now);
                        self.wires.remove(&conn);
                        break;
                    }
                }
                self.reap();
            }
        }
        self.proto.flush_hops();
        while let Ok(event) = self.mailbox.try_recv() {
            match event {
                Event::ConnClosed(conn) => self.proto.on_conn_closed(conn, self.now),
                Event::Deliver(batch) => self.proto.on_deliver(batch, self.now),
                _ => panic!("unexpected mailbox event"),
            }
            self.reap();
        }
    }

    fn reap(&mut self) {
        for conn in self.proto.closed.drain(..) {
            self.wires.remove(&conn);
        }
    }

    fn connect(&mut self, id: &str, clean: bool, keep_alive: u16, will: Option<LastWill>) -> Peer {
        let peer = Peer {
            conn: self.next_conn,
            end: self.dial(),
        };
        peer.send(Packet::Connect(Connect {
            client_id: id.to_owned(),
            clean_session: clean,
            keep_alive,
            will,
        }));
        self.pump();
        peer
    }
}

/// A client: the far end of a link whose broker half the rig holds.
struct Peer {
    conn: ConnId,
    end: LinkEnd,
}

impl Peer {
    fn send(&self, packet: Packet) {
        self.end.send_packet(&packet).expect("link open");
    }

    /// The next packet the core already sent this client, if any.
    fn recv(&self) -> Option<Packet> {
        self.end.recv_packet_timeout(Duration::ZERO).ok()
    }

    fn expect_connack(&self, session_present: bool) {
        assert_eq!(
            self.recv(),
            Some(Packet::Connack(Connack {
                session_present,
                code: ConnectReturnCode::Accepted
            }))
        );
    }

    fn subscribe(&self, rig: &mut Rig, filter: &str, qos: QoS) {
        self.send(Packet::Subscribe(Subscribe {
            packet_id: 1,
            filters: vec![(TopicFilter::new(filter).unwrap(), qos)],
        }));
        rig.pump();
        assert!(matches!(self.recv(), Some(Packet::Suback(_))));
    }
}

fn publish(topic: &str, payload: &'static [u8], qos: QoS, id: Option<PacketId>) -> Packet {
    Packet::Publish(Publish {
        dup: false,
        qos,
        retain: false,
        topic: TopicName::new(topic).unwrap(),
        packet_id: id,
        payload: Bytes::from_static(payload),
    })
}

#[test]
fn keepalive_expires_at_exactly_one_and_a_half_intervals() {
    let mut rig = Rig::new();
    let t0 = rig.now;
    let peer = rig.connect("quiet", true, 2, None);
    peer.expect_connack(false);
    let tick = Duration::from_nanos(1);
    let limit = Duration::from_secs(3);
    // The glue parks until exactly this instant.
    assert_eq!(rig.proto.next_deadline(), Some(t0 + limit));
    assert!(!rig.proto.expire_keepalives(t0 + limit - tick));
    assert!(rig.proto.has_conn(peer.conn));

    // A PINGREQ at t0 + 2 s pushes the deadline to t0 + 5 s. The cached
    // deadline is allowed to be early: it fires, expires nobody, and is
    // recomputed.
    rig.now = t0 + Duration::from_secs(2);
    peer.send(Packet::Pingreq);
    rig.pump();
    assert_eq!(peer.recv(), Some(Packet::Pingresp));
    assert!(rig.proto.expire_keepalives(t0 + limit));
    assert!(rig.proto.has_conn(peer.conn));
    let deadline = rig.now + limit;
    assert_eq!(rig.proto.next_deadline(), Some(deadline));

    assert!(!rig.proto.expire_keepalives(deadline - tick));
    assert!(rig.proto.has_conn(peer.conn));
    assert!(rig.proto.expire_keepalives(deadline));
    assert!(!rig.proto.has_conn(peer.conn));
    assert_eq!(rig.proto.closed, vec![peer.conn]);
    assert_eq!(rig.proto.next_deadline(), None);
    let stats = rig.counters.snapshot();
    assert_eq!(stats.keepalive_timeouts, 1);
    assert_eq!(stats.connections_current, 0);
}

#[test]
fn offline_queue_keeps_the_newest_max_queued_per_session() {
    let mut rig = Rig::with_config(&BrokerConfig {
        max_queued_per_session: 3,
        ..BrokerConfig::default()
    });
    let sub = rig.connect("sub", false, 0, None);
    sub.expect_connack(false);
    sub.subscribe(&mut rig, "t", QoS::AtLeastOnce);
    drop(sub);
    rig.pump();
    let publ = rig.connect("pub", true, 0, None);
    publ.expect_connack(false);
    for (id, payload) in [(1, b"1"), (2, b"2"), (3, b"3"), (4, b"4"), (5, b"5")] {
        publ.send(publish("t", payload, QoS::AtLeastOnce, Some(id)));
    }
    rig.pump();
    let stats = rig.counters.snapshot();
    assert_eq!((stats.queued_current, stats.dropped), (3, 2));

    let sub = rig.connect("sub", false, 0, None);
    sub.expect_connack(true);
    let replayed: Vec<Bytes> = std::iter::from_fn(|| sub.recv())
        .map(|packet| match packet {
            Packet::Publish(p) => p.payload,
            other => panic!("expected a replayed publish, got {other:?}"),
        })
        .collect();
    assert_eq!(replayed, [&b"3"[..], b"4", b"5"]);
}

#[test]
fn qos2_duplicate_publish_before_pubrel_routes_once() {
    let mut rig = Rig::new();
    let sub = rig.connect("sub", true, 0, None);
    sub.expect_connack(false);
    sub.subscribe(&mut rig, "t", QoS::AtMostOnce);
    let publ = rig.connect("pub", true, 0, None);
    publ.expect_connack(false);

    for _ in 0..2 {
        publ.send(publish("t", b"once", QoS::ExactlyOnce, Some(9)));
        rig.pump();
        assert_eq!(publ.recv(), Some(Packet::Pubrec(9)));
    }
    assert!(matches!(sub.recv(), Some(Packet::Publish(p)) if &p.payload[..] == b"once"));
    assert_eq!(sub.recv(), None, "the duplicate must not be routed");

    // PUBREL frees the id: the same id now names a new message.
    publ.send(Packet::Pubrel(9));
    rig.pump();
    assert_eq!(publ.recv(), Some(Packet::Pubcomp(9)));
    publ.send(publish("t", b"again", QoS::ExactlyOnce, Some(9)));
    rig.pump();
    assert!(matches!(sub.recv(), Some(Packet::Publish(p)) if &p.payload[..] == b"again"));
    assert_eq!(rig.counters.snapshot().publishes_out, 2);
}

#[test]
fn takeover_fires_old_will_before_new_connack() {
    let mut rig = Rig::new();
    let watcher = rig.connect("watcher", true, 0, None);
    watcher.expect_connack(false);
    watcher.subscribe(&mut rig, "status/#", QoS::AtMostOnce);
    let will = LastWill {
        topic: TopicName::new("status/dup").unwrap(),
        payload: Bytes::from_static(b"gone"),
        qos: QoS::AtLeastOnce,
        retain: false,
    };
    // A persistent client that subscribes to its own will topic: whether
    // the will reaches its *next* connection live or through the offline
    // queue tells which came first, the will or the registration.
    let first = rig.connect("dup", false, 0, Some(will.clone()));
    first.expect_connack(false);
    first.subscribe(&mut rig, "status/dup", QoS::AtLeastOnce);

    let second = rig.connect("dup", false, 0, Some(will));
    // The old connection is gone and its will went out...
    assert!(!rig.proto.has_conn(first.conn));
    assert!(first.end.recv_packet_timeout(Duration::ZERO).is_err());
    assert!(matches!(watcher.recv(), Some(Packet::Publish(p)) if &p.payload[..] == b"gone"));
    // ...while "dup" was offline: the new connection sees CONNACK with the
    // session resumed, then the will replayed out of the offline queue.
    second.expect_connack(true);
    match second.recv() {
        Some(Packet::Publish(p)) => {
            assert_eq!(&p.payload[..], b"gone");
            assert_eq!(p.qos, QoS::AtLeastOnce);
        }
        other => panic!("expected the queued will, got {other:?}"),
    }
    assert_eq!(second.recv(), None);
    assert_eq!(rig.counters.snapshot().connections_current, 2);
}

// ---------------------------------------------------------------------
// Differential: the protocol core alone vs. the live one-shard broker
// ---------------------------------------------------------------------

const CLIENTS: usize = 3;
const TOPICS: [&str; 3] = ["a/x", "a/y", "b"];
const FILTERS: [&str; 4] = ["a/#", "a/x", "+", "#"];

#[derive(Debug, Clone)]
enum Op {
    Connect {
        client: usize,
        clean: bool,
        will: bool,
    },
    Disconnect {
        client: usize,
        graceful: bool,
    },
    Subscribe {
        client: usize,
        filter: usize,
        qos: QoS,
    },
    Publish {
        client: usize,
        topic: usize,
        qos: QoS,
        retain: bool,
        byte: u8,
    },
    /// Acknowledge the oldest delivery this connection has not yet.
    Ack {
        client: usize,
    },
}

fn qos() -> impl Strategy<Value = QoS> {
    prop_oneof![
        Just(QoS::AtMostOnce),
        Just(QoS::AtLeastOnce),
        Just(QoS::ExactlyOnce)
    ]
}

fn op() -> impl Strategy<Value = Op> {
    let client = 0..CLIENTS;
    prop_oneof![
        2 => (client.clone(), prop::bool::ANY, prop::bool::ANY)
            .prop_map(|(client, clean, will)| Op::Connect { client, clean, will }).boxed(),
        1 => (client.clone(), prop::bool::ANY)
            .prop_map(|(client, graceful)| Op::Disconnect { client, graceful }).boxed(),
        2 => (client.clone(), 0..FILTERS.len(), qos())
            .prop_map(|(client, filter, qos)| Op::Subscribe { client, filter, qos }).boxed(),
        4 => (client.clone(), 0..TOPICS.len(), qos(), prop::bool::ANY, any::<u8>())
            .prop_map(|(client, topic, qos, retain, byte)| Op::Publish {
                client, topic, qos, retain, byte,
            }).boxed(),
        2 => client.prop_map(|client| Op::Ack { client }).boxed(),
    ]
}

/// The broker under the script: the bare core on a [`Rig`], or a live
/// one-shard [`Broker`].
enum Sut {
    Core(Box<Rig>),
    Live(Broker),
}

impl Sut {
    fn dial(&mut self) -> LinkEnd {
        match self {
            Sut::Core(rig) => rig.dial(),
            Sut::Live(broker) => broker.connect_transport().unwrap(),
        }
    }

    /// Lets the broker act on what clients sent (the live one does so by
    /// itself).
    fn pump(&mut self) {
        if let Sut::Core(rig) = self {
            rig.pump();
        }
    }

    /// The next packet for `end`. Callers only ask for packets the broker
    /// is bound to send, so the core must have sent it already and the
    /// live broker gets ample time.
    fn recv(&mut self, end: &LinkEnd) -> Packet {
        self.pump();
        let wait = match self {
            Sut::Core(_) => Duration::ZERO,
            Sut::Live(_) => Duration::from_secs(30),
        };
        end.recv_packet_timeout(wait).expect("packet due")
    }

    fn connections(&self) -> u64 {
        match self {
            Sut::Core(rig) => rig.counters.snapshot().connections_current,
            Sut::Live(broker) => broker.stats().connections_current,
        }
    }
}

type Delivered = (String, QoS, Vec<u8>);

#[derive(Default)]
struct Device {
    end: Option<LinkEnd>,
    /// Deliveries not yet acknowledged on the current connection.
    unacked: std::collections::VecDeque<(PacketId, QoS)>,
    delivered: Vec<Delivered>,
}

impl Device {
    fn note(&mut self, packet: Packet) {
        if let Packet::Publish(p) = packet {
            if let Some(id) = p.packet_id {
                self.unacked.push_back((id, p.qos));
            }
            self.delivered
                .push((p.topic.as_str().to_owned(), p.qos, p.payload.to_vec()));
        }
    }
}

/// Runs `script` against `sut`; returns what each client was delivered,
/// in order.
fn run_script(mut sut: Sut, script: &[Op]) -> Vec<Vec<Delivered>> {
    let mut devices: Vec<Device> = (0..CLIENTS).map(|_| Device::default()).collect();
    let mut next_id: PacketId = 100;
    for op in script {
        match *op {
            Op::Connect {
                client,
                clean,
                will,
            } => {
                let end = sut.dial();
                let id = format!("c{client}");
                end.send_packet(&Packet::Connect(Connect {
                    client_id: id.clone(),
                    clean_session: clean,
                    keep_alive: 0,
                    will: will.then(|| LastWill {
                        topic: TopicName::new("a/x").unwrap(),
                        payload: Bytes::from(id.into_bytes()),
                        qos: QoS::AtLeastOnce,
                        retain: false,
                    }),
                }))
                .unwrap();
                assert!(matches!(sut.recv(&end), Packet::Connack(_)));
                // A takeover: the old link is dead, forget its window.
                devices[client].end = Some(end);
                devices[client].unacked.clear();
            }
            Op::Disconnect { client, graceful } => {
                let Some(end) = devices[client].end.take() else {
                    continue;
                };
                let before = sut.connections();
                if graceful {
                    end.send_packet(&Packet::Disconnect).unwrap();
                }
                drop(end);
                sut.pump();
                let patience = Instant::now() + Duration::from_secs(30);
                while sut.connections() >= before {
                    assert!(Instant::now() < patience, "broker never saw the hangup");
                    std::thread::yield_now();
                }
                devices[client].unacked.clear();
            }
            Op::Subscribe {
                client,
                filter,
                qos,
            } => {
                let Some(end) = &devices[client].end else {
                    continue;
                };
                end.send_packet(&Packet::Subscribe(Subscribe {
                    packet_id: 1,
                    filters: vec![(TopicFilter::new(FILTERS[filter]).unwrap(), qos)],
                }))
                .unwrap();
            }
            Op::Publish {
                client,
                topic,
                qos,
                retain,
                byte,
            } => {
                let Some(end) = &devices[client].end else {
                    continue;
                };
                next_id += 1;
                end.send_packet(&Packet::Publish(Publish {
                    dup: false,
                    qos,
                    retain,
                    topic: TopicName::new(TOPICS[topic]).unwrap(),
                    packet_id: (qos != QoS::AtMostOnce).then_some(next_id),
                    payload: Bytes::from(vec![byte]),
                }))
                .unwrap();
                if qos == QoS::ExactlyOnce {
                    end.send_packet(&Packet::Pubrel(next_id)).unwrap();
                }
            }
            Op::Ack { client } => {
                let device = &mut devices[client];
                let (Some(end), Some((id, qos))) = (&device.end, device.unacked.pop_front()) else {
                    continue;
                };
                let ack = match qos {
                    QoS::ExactlyOnce => Packet::Pubrec(id),
                    _ => Packet::Puback(id),
                };
                end.send_packet(&ack).unwrap();
                if qos == QoS::ExactlyOnce {
                    // The PUBREL this draws is read by the settle below.
                    end.send_packet(&Packet::Pubcomp(id)).unwrap();
                }
            }
        }
        // Settle: a PINGRESP on every live link means the broker handled
        // everything sent before it, so what was delivered so far is all
        // there is.
        for device in &mut devices {
            let Some(end) = device.end.clone() else {
                continue;
            };
            end.send_packet(&Packet::Pingreq).unwrap();
            loop {
                match sut.recv(&end) {
                    Packet::Pingresp => break,
                    other => device.note(other),
                }
            }
        }
    }
    devices.into_iter().map(|d| d.delivered).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn core_and_live_broker_deliver_the_same_sequences(
        script in prop::collection::vec(op(), 1..40)
    ) {
        let core = run_script(Sut::Core(Box::new(Rig::new())), &script);
        let live = run_script(Sut::Live(Broker::start_default()), &script);
        prop_assert_eq!(core, live);
    }
}
