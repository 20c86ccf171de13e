//! Durability tests for the broker's WAL + snapshot persistence:
//!
//! * property tests replaying random WAL record sequences through the
//!   frame codec and recovery fold, including truncated-tail and
//!   corrupted-frame streams (recovery stops at the last valid checksum);
//! * a live-broker differential: random retained/subscription traffic
//!   against a reference model, recovered state must match exactly;
//! * restart integration tests — QoS 1 window retransmission, offline
//!   queue resume, clean-session purging, crash wills firing on recovery
//!   and graceful disconnects suppressing them;
//! * the `kill_connection` fault action assassinating a client through
//!   the fault plan while its testament and redial machinery take over.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use sdflmq_mqtt::broker::{Broker, BrokerConfig};
use sdflmq_mqtt::error::ConnectReturnCode;
use sdflmq_mqtt::packet::{
    Connack, Connect, LastWill, Packet, Publish, QoS, Subscribe, Unsubscribe,
};
use sdflmq_mqtt::persist::recovery::{self, RecoveredState};
use sdflmq_mqtt::persist::{store, wal, Durability, Persistence, WalRecord};
use sdflmq_mqtt::stats::BrokerCounters;
use sdflmq_mqtt::topic::{TopicFilter, TopicName};
use sdflmq_mqtt::transport::LinkEnd;
use sdflmq_mqtt::{Client, ClientOptions, Dialer, FaultPlan, FaultRule};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Helpers

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique, empty persistence directory for one test (or one proptest
/// case).
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sdflmq-persist-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A single-shard broker persisting under `dir`.
fn durable_broker(dir: &Path) -> Broker {
    Broker::start(BrokerConfig {
        persistence: Persistence::at(dir.to_path_buf()),
        ..BrokerConfig::default()
    })
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Minimal raw-packet client: speaks MQTT frames over the broker's
/// in-process transport without the `Client` machinery, so tests control
/// exactly which acknowledgements are (not) sent.
struct Raw {
    link: LinkEnd,
}

impl Raw {
    /// Connects and returns the client plus the CONNACK's
    /// `session_present` flag.
    fn connect(broker: &Broker, id: &str, clean: bool, will: Option<LastWill>) -> (Raw, bool) {
        let link = broker.connect_transport().unwrap();
        link.send_packet(&Packet::Connect(Connect {
            client_id: id.to_owned(),
            clean_session: clean,
            keep_alive: 0,
            will,
        }))
        .unwrap();
        match link.recv_packet_timeout(Duration::from_secs(30)).unwrap() {
            Packet::Connack(Connack {
                session_present,
                code,
            }) => {
                assert_eq!(code, ConnectReturnCode::Accepted);
                (Raw { link }, session_present)
            }
            other => panic!("expected connack, got {other:?}"),
        }
    }

    fn subscribe(&self, filter: &str, qos: QoS) {
        self.link
            .send_packet(&Packet::Subscribe(Subscribe {
                packet_id: 1,
                filters: vec![(TopicFilter::new(filter).unwrap(), qos)],
            }))
            .unwrap();
        match self.recv_ctrl() {
            Packet::Suback(_) => {}
            other => panic!("expected suback, got {other:?}"),
        }
    }

    fn unsubscribe(&self, filter: &str) {
        self.link
            .send_packet(&Packet::Unsubscribe(Unsubscribe {
                packet_id: 2,
                filters: vec![TopicFilter::new(filter).unwrap()],
            }))
            .unwrap();
        match self.recv_ctrl() {
            Packet::Unsuback(_) => {}
            other => panic!("expected unsuback, got {other:?}"),
        }
    }

    /// Publishes at QoS 1 and blocks until the broker acknowledges — once
    /// the PUBACK arrives the matching WAL records are on disk.
    fn publish_qos1(&self, topic: &str, payload: &[u8], retain: bool) {
        self.link
            .send_packet(&Packet::Publish(Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain,
                topic: TopicName::new(topic).unwrap(),
                packet_id: Some(7),
                payload: Bytes::from(payload.to_vec()),
            }))
            .unwrap();
        match self.recv_ctrl() {
            Packet::Puback(7) => {}
            other => panic!("expected puback, got {other:?}"),
        }
    }

    fn recv(&self) -> Packet {
        self.link
            .recv_packet_timeout(Duration::from_secs(30))
            .unwrap()
    }

    /// Receives the next control packet, skipping (and acking) any
    /// interleaved deliveries — subscribers in the differential test get
    /// publishes and retained replays between their own acknowledgements.
    fn recv_ctrl(&self) -> Packet {
        loop {
            match self.recv() {
                Packet::Publish(p) => {
                    if let Some(id) = p.packet_id {
                        self.link.send_packet(&Packet::Puback(id)).unwrap();
                    }
                }
                other => return other,
            }
        }
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

    fn disconnect(self) {
        self.link.send_packet(&Packet::Disconnect).unwrap();
        // Let the broker process the DISCONNECT before the link drops, so
        // the close is graceful rather than a crash.
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Canonical fingerprint of a recovered state: sorted record streams for
/// sessions and retained messages, plus pending wills. Two states with
/// equal fingerprints are behaviorally identical after recovery.
type Fingerprint = (Vec<WalRecord>, Vec<WalRecord>, Vec<(String, LastWill)>);

fn fingerprint(state: &RecoveredState) -> Fingerprint {
    let mut sessions = Vec::new();
    for session in state.sessions.values() {
        recovery::session_records(session, &mut sessions);
    }
    let retained = recovery::retained_records(state.retained.iter().map(|(t, (q, p))| (t, *q, p)));
    let wills = state
        .wills
        .iter()
        .map(|(c, w)| (c.clone(), w.clone()))
        .collect();
    (sessions, retained, wills)
}

// ---------------------------------------------------------------------
// WAL record strategies

fn client_id() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("alice".to_owned()),
        Just("bob".to_owned()),
        Just("carol".to_owned()),
    ]
}

fn level() -> impl Strategy<Value = String> {
    "[a-z]{1,4}"
}

fn topic_name() -> impl Strategy<Value = TopicName> {
    prop::collection::vec(level(), 1..4)
        .prop_map(|levels| TopicName::new(levels.join("/")).unwrap())
}

fn topic_filter() -> impl Strategy<Value = TopicFilter> {
    (
        prop::collection::vec(
            prop_oneof![2 => level().boxed(), 1 => Just("+".to_owned()).boxed()],
            1..4,
        ),
        prop::bool::ANY,
    )
        .prop_map(|(mut levels, hash_tail)| {
            if hash_tail {
                levels.push("#".to_owned());
            }
            TopicFilter::new(levels.join("/")).unwrap()
        })
}

fn qos() -> impl Strategy<Value = QoS> {
    prop_oneof![
        Just(QoS::AtMostOnce),
        Just(QoS::AtLeastOnce),
        Just(QoS::ExactlyOnce),
    ]
}

/// Mostly short payloads, with some from 200 B up to 70 KB so that frame
/// checksums run both CRC paths.
fn payload() -> impl Strategy<Value = Bytes> {
    prop_oneof![
        8 => prop::collection::vec(any::<u8>(), 0..24).boxed(),
        1 => prop::collection::vec(any::<u8>(), 200..70_000).boxed(),
    ]
    .prop_map(Bytes::from)
}

fn packet_id() -> impl Strategy<Value = u16> {
    1u16..16
}

fn last_will() -> impl Strategy<Value = LastWill> {
    (topic_name(), payload(), qos(), prop::bool::ANY).prop_map(|(topic, payload, qos, retain)| {
        LastWill {
            topic,
            payload,
            qos,
            retain,
        }
    })
}

/// One random WAL record. Client ids draw from a three-name pool so
/// create/destroy/mutate sequences genuinely interact.
fn wal_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        1 => (0u64..1000).prop_map(|seq| WalRecord::Watermark { seq }).boxed(),
        4 => client_id().prop_map(|client| WalRecord::SessionCreate { client }).boxed(),
        2 => client_id().prop_map(|client| WalRecord::SessionDestroy { client }).boxed(),
        4 => (client_id(), topic_filter(), qos())
            .prop_map(|(client, filter, qos)| WalRecord::Subscribe { client, filter, qos })
            .boxed(),
        2 => (client_id(), topic_filter())
            .prop_map(|(client, filter)| WalRecord::Unsubscribe { client, filter })
            .boxed(),
        3 => (client_id(), topic_name(), qos(), payload())
            .prop_map(|(client, topic, qos, payload)| WalRecord::Enqueue {
                client,
                topic,
                qos,
                payload
            })
            .boxed(),
        1 => client_id().prop_map(|client| WalRecord::QueueDrained { client }).boxed(),
        3 => (
            client_id(),
            packet_id(),
            topic_name(),
            qos(),
            prop::bool::ANY,
            prop::bool::ANY,
            payload()
        )
            .prop_map(|(client, id, topic, qos, retain, released, payload)| {
                WalRecord::InflightInsert {
                    client,
                    id,
                    topic,
                    qos,
                    retain,
                    released,
                    payload,
                }
            })
            .boxed(),
        2 => (client_id(), packet_id())
            .prop_map(|(client, id)| WalRecord::InflightRelease { client, id })
            .boxed(),
        2 => (client_id(), packet_id())
            .prop_map(|(client, id)| WalRecord::InflightRemove { client, id })
            .boxed(),
        2 => (client_id(), packet_id())
            .prop_map(|(client, id)| WalRecord::InboundQos2Insert { client, id })
            .boxed(),
        2 => (client_id(), packet_id())
            .prop_map(|(client, id)| WalRecord::InboundQos2Remove { client, id })
            .boxed(),
        2 => (client_id(), last_will())
            .prop_map(|(client, will)| WalRecord::WillSet { client, will })
            .boxed(),
        1 => client_id().prop_map(|client| WalRecord::WillClear { client }).boxed(),
        3 => (topic_name(), qos(), payload())
            .prop_map(|(topic, qos, payload)| WalRecord::RetainedSet { topic, qos, payload })
            .boxed(),
    ]
}

/// Encodes `records` as one contiguous WAL stream, returning the buffer
/// and each frame's end offset.
fn encode_stream(records: &[WalRecord]) -> (BytesMut, Vec<usize>) {
    let mut buf = BytesMut::new();
    let mut ends = Vec::with_capacity(records.len());
    for (i, rec) in records.iter().enumerate() {
        wal::encode_frame(i as u64 + 1, rec, &mut buf);
        ends.push(buf.len());
    }
    (buf, ends)
}

// ---------------------------------------------------------------------
// Property tests

proptest! {
    /// Random record sequences survive the frame codec byte-exactly, and
    /// replaying the decoded stream folds into the same recovered state
    /// as applying the originals directly.
    #[test]
    fn wal_stream_roundtrips_and_replays_identically(
        records in prop::collection::vec(wal_record(), 0..40),
    ) {
        let (buf, _) = encode_stream(&records);
        let decoded = wal::decode_frames(&buf);
        prop_assert_eq!(decoded.len(), records.len());
        for (i, (seq, rec)) in decoded.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            prop_assert_eq!(rec, &records[i]);
        }

        let mut direct = RecoveredState::default();
        for rec in &records {
            direct.apply(rec.clone(), 64);
        }
        let mut replayed = RecoveredState::default();
        replayed.apply_stream(0, Vec::new(), decoded, 64);
        prop_assert_eq!(fingerprint(&direct), fingerprint(&replayed));
    }

    /// A WAL cut at an arbitrary byte recovers exactly the records whose
    /// frames lie fully before the cut — a torn tail loses only the frame
    /// being written.
    #[test]
    fn truncated_wal_recovers_longest_complete_prefix(
        records in prop::collection::vec(wal_record(), 1..30),
        cut_sel in 0u32..100_000,
    ) {
        let (buf, ends) = encode_stream(&records);
        let cut = cut_sel as usize % (buf.len() + 1);
        let decoded = wal::decode_frames(&buf[..cut]);
        let expected = ends.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(decoded.len(), expected);
        for (i, (_, rec)) in decoded.iter().enumerate() {
            prop_assert_eq!(rec, &records[i]);
        }
    }

    /// Flipping any single byte inside a frame invalidates its checksum:
    /// recovery keeps every record before the corrupted frame and stops
    /// there instead of replaying garbage.
    #[test]
    fn corrupted_frame_stops_recovery_at_last_valid_record(
        records in prop::collection::vec(wal_record(), 1..30),
        victim_sel in 0u32..100_000,
        offset_sel in 0u32..100_000,
    ) {
        let (buf, ends) = encode_stream(&records);
        let victim = victim_sel as usize % records.len();
        let start = if victim == 0 { 0 } else { ends[victim - 1] };
        let len = ends[victim] - start;
        let mut data = buf.to_vec();
        data[start + offset_sel as usize % len] ^= 0xFF;

        let decoded = wal::decode_frames(&data);
        prop_assert_eq!(decoded.len(), victim);
        for (i, (_, rec)) in decoded.iter().enumerate() {
            prop_assert_eq!(rec, &records[i]);
        }
    }
}

/// The WAL byte format is pinned: a fixed record list, one of them a
/// 64 KiB retained publish, encodes to the stream recorded when frame
/// checksums were computed by the slicing-by-8 tables alone, and decodes
/// back to the same records. A WAL written then still recovers.
#[test]
fn wal_frames_are_pinned_byte_for_byte() {
    let topic = |t: &str| TopicName::new(t).unwrap();
    let filler = |len: usize, salt: u32| -> Bytes {
        (0..len as u32)
            .map(|i| (i.wrapping_add(salt).wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect::<Vec<u8>>()
            .into()
    };
    let records = vec![
        WalRecord::Watermark { seq: 41 },
        WalRecord::SessionCreate {
            client: "edge-7".to_owned(),
        },
        WalRecord::Subscribe {
            client: "edge-7".to_owned(),
            filter: TopicFilter::new("sdfl/+/global").unwrap(),
            qos: QoS::AtLeastOnce,
        },
        WalRecord::Enqueue {
            client: "edge-7".to_owned(),
            topic: topic("sdfl/s1/global"),
            qos: QoS::AtLeastOnce,
            payload: filler(300, 1),
        },
        WalRecord::InflightInsert {
            client: "edge-7".to_owned(),
            id: 9,
            topic: topic("sdfl/s1/agg"),
            qos: QoS::ExactlyOnce,
            retain: false,
            released: true,
            payload: filler(17, 2),
        },
        WalRecord::WillSet {
            client: "edge-7".to_owned(),
            will: LastWill {
                topic: topic("sdfl/s1/gone"),
                payload: filler(100, 3),
                qos: QoS::AtMostOnce,
                retain: true,
            },
        },
        WalRecord::RetainedSet {
            topic: topic("sdfl/s1/model"),
            qos: QoS::AtLeastOnce,
            payload: filler(64 * 1024, 4),
        },
        WalRecord::RetainedSet {
            topic: topic("sdfl/s1/status"),
            qos: QoS::AtMostOnce,
            payload: Bytes::new(),
        },
        WalRecord::SessionDestroy {
            client: "edge-7".to_owned(),
        },
    ];
    let (buf, _) = encode_stream(&records);
    assert_eq!(
        (buf.len(), sdflmq_mqtt::fnv1a64(&buf)),
        (66_281, 0x3b67_fcc2_63b1_85c8),
        "WAL stream bytes moved"
    );
    let decoded = wal::decode_frames(&buf);
    assert_eq!(decoded.len(), records.len());
    for (i, (seq, rec)) in decoded.into_iter().enumerate() {
        assert_eq!((seq, rec), (i as u64 + 1, records[i].clone()));
    }
}

// ---------------------------------------------------------------------
// Write-behind differential: group commit vs per-record reference

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The group-committing batch writer produces a byte stream
    /// identical to the per-record reference writer, for any record
    /// sequence and any partition into batches.
    #[test]
    fn group_committed_wal_is_byte_identical_to_per_record_writer(
        records in prop::collection::vec(wal_record(), 1..40),
        splits in prop::collection::vec(0u32..100_000, 0..8),
    ) {
        let dir = temp_dir("batch-diff");
        let ref_path = dir.join("reference.log");
        let batch_path = dir.join("batched.log");
        let mut reference = wal::WalWriter::create(&ref_path).unwrap();
        for (i, rec) in records.iter().enumerate() {
            reference.append(i as u64 + 1, rec).unwrap();
        }
        let mut cuts: Vec<usize> = splits
            .iter()
            .map(|s| *s as usize % (records.len() + 1))
            .chain([0, records.len()])
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut batched = wal::WalWriter::create(&batch_path).unwrap();
        let mut seq = 0u64;
        for w in cuts.windows(2) {
            seq = batched.append_batch(seq, &records[w[0]..w[1]]).unwrap();
        }
        prop_assert_eq!(seq, records.len() as u64);
        prop_assert_eq!(
            std::fs::read(&ref_path).unwrap(),
            std::fs::read(&batch_path).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End to end through the write-behind pipeline — bounded queue,
    /// persistence thread, group commit, drain barrier — the on-disk
    /// stream is byte-identical to the per-record reference encoding,
    /// whatever the queue capacity forces the batching to look like.
    #[test]
    fn write_behind_store_stream_matches_reference_bytes(
        records in prop::collection::vec(wal_record(), 1..40),
        capacity in 1usize..16,
    ) {
        let dir = temp_dir("store-diff");
        let cfg = Persistence::at(dir.clone())
            .queue_capacity(capacity)
            .durability(Durability::GroupCommit {
                interval: Duration::from_millis(5),
            });
        let counters = Arc::new(BrokerCounters::default());
        let (pstore, _) = store::PersistStore::open(&dir, 1, &cfg, 64, counters).unwrap();
        for rec in &records {
            pstore.append_shard(0, rec.clone());
        }
        pstore.drain();
        let on_disk = std::fs::read(dir.join("wal-shard-0.log")).unwrap();
        let (reference, _) = encode_stream(&records);
        prop_assert_eq!(on_disk.as_slice(), &reference[..]);
        drop(pstore);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash that flushes only part of a group-committed batch (the
    /// file ends mid-frame) recovers exactly the longest complete
    /// prefix of records — same torn-tail contract as the per-record
    /// writer.
    #[test]
    fn partially_flushed_batch_recovers_longest_complete_prefix(
        records in prop::collection::vec(wal_record(), 1..30),
        cut_sel in 0u32..100_000,
    ) {
        let dir = temp_dir("torn-batch");
        let path = dir.join("batched.log");
        let mut w = wal::WalWriter::create(&path).unwrap();
        w.append_batch(0, &records).unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        let (_, ends) = encode_stream(&records);
        let cut = cut_sel as usize % (full.len() + 1);
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);
        let recovered = wal::read_wal(&path);
        let expected = ends.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(recovered.len(), expected);
        for (i, (seq, rec)) in recovered.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            prop_assert_eq!(rec, &records[i]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One random retained/subscription op for the live-broker differential.
#[derive(Debug, Clone)]
enum LiveOp {
    /// Retained publish (empty payload clears the topic).
    Retain { topic: usize, payload: Bytes },
    /// Persistent-session subscribe.
    Sub { filter: usize },
    /// Persistent-session unsubscribe.
    Unsub { filter: usize },
}

const LIVE_TOPICS: [&str; 5] = ["cfg/a", "cfg/b", "cfg/c/d", "x", "y/z"];
const LIVE_FILTERS: [&str; 4] = ["cfg/#", "x", "y/+", "cfg/a"];

fn live_op() -> impl Strategy<Value = LiveOp> {
    prop_oneof![
        4 => (0usize..LIVE_TOPICS.len(), prop::collection::vec(any::<u8>(), 0..8))
            .prop_map(|(topic, payload)| LiveOp::Retain {
                topic,
                payload: Bytes::from(payload)
            })
            .boxed(),
        2 => (0usize..LIVE_FILTERS.len()).prop_map(|filter| LiveOp::Sub { filter }).boxed(),
        1 => (0usize..LIVE_FILTERS.len()).prop_map(|filter| LiveOp::Unsub { filter }).boxed(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential against the live broker: random retained publishes
    /// and persistent-session (un)subscribes applied both to a durable
    /// broker and to a trivial reference model. The state recovered from
    /// disk after a crash must equal the model exactly.
    #[test]
    fn recovered_state_matches_live_broker_reference_model(
        ops in prop::collection::vec(live_op(), 1..40),
    ) {
        let dir = temp_dir("differential");
        let mut retained_model: BTreeMap<String, Bytes> = BTreeMap::new();
        let mut subs_model: BTreeMap<String, ()> = BTreeMap::new();
        {
            let broker = durable_broker(&dir);
            let (sub, _) = Raw::connect(&broker, "alice", false, None);
            let (publ, _) = Raw::connect(&broker, "publisher", true, None);
            for op in &ops {
                match op {
                    LiveOp::Retain { topic, payload } => {
                        let topic = LIVE_TOPICS[*topic];
                        publ.publish_qos1(topic, payload, true);
                        if payload.is_empty() {
                            retained_model.remove(topic);
                        } else {
                            retained_model.insert(topic.to_owned(), payload.clone());
                        }
                    }
                    LiveOp::Sub { filter } => {
                        let filter = LIVE_FILTERS[*filter];
                        sub.subscribe(filter, QoS::AtLeastOnce);
                        subs_model.insert(filter.to_owned(), ());
                    }
                    LiveOp::Unsub { filter } => {
                        let filter = LIVE_FILTERS[*filter];
                        sub.unsubscribe(filter);
                        subs_model.remove(filter);
                    }
                }
            }
            // Crash: drop the broker without disconnecting anyone.
        }

        let state = store::recover_dir(&dir, 64);
        let recovered_retained: BTreeMap<String, Bytes> = state
            .retained
            .iter()
            .map(|(t, (_, p))| (t.as_str().to_owned(), p.clone()))
            .collect();
        prop_assert_eq!(&recovered_retained, &retained_model);

        let session = state.sessions.get("alice").expect("persistent session recovered");
        let mut recovered_subs: Vec<String> = session
            .subscriptions
            .keys()
            .map(|f| f.as_str().to_owned())
            .collect();
        recovered_subs.sort();
        let model_subs: Vec<String> = subs_model.keys().cloned().collect();
        prop_assert_eq!(recovered_subs, model_subs);

        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// Restart integration tests

#[test]
fn qos1_inflight_window_retransmits_after_restart() {
    let dir = temp_dir("inflight");
    {
        let broker = durable_broker(&dir);
        let (sub, _) = Raw::connect(&broker, "slow", false, None);
        sub.subscribe("t", QoS::AtLeastOnce);
        let (publ, _) = Raw::connect(&broker, "pub", true, None);
        publ.publish_qos1("t", b"m1", false);
        // The delivery reaches the subscriber, which never acks it.
        let got = sub.expect_publish();
        assert_eq!(got.payload, Bytes::from_static(b"m1"));
        assert!(got.packet_id.is_some());
        // Crash with the message still in the QoS 1 window.
    }

    let broker = durable_broker(&dir);
    assert_eq!(broker.stats().recovered_sessions, 1);
    let (sub, present) = Raw::connect(&broker, "slow", false, None);
    assert!(present, "persistent session resumes across restart");
    let got = sub.expect_publish();
    assert_eq!(got.payload, Bytes::from_static(b"m1"));
    assert_eq!(got.qos, QoS::AtLeastOnce);
    assert!(got.dup, "recovered inflight retransmits with DUP=1");

    // Acknowledge this time: the window entry must not survive another
    // restart.
    sub.link
        .send_packet(&Packet::Puback(got.packet_id.unwrap()))
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    drop(sub);
    drop(broker);
    let state = store::recover_dir(&dir, 64);
    let session = state.sessions.get("slow").expect("session persisted");
    assert!(
        session.inflight_out.is_empty(),
        "acked message must leave the persisted window"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn offline_queue_resumes_in_order_after_restart() {
    let dir = temp_dir("offline-queue");
    {
        let broker = durable_broker(&dir);
        let (sub, _) = Raw::connect(&broker, "sleeper", false, None);
        sub.subscribe("news", QoS::AtLeastOnce);
        sub.disconnect();
        let (publ, _) = Raw::connect(&broker, "pub", true, None);
        publ.publish_qos1("news", b"n1", false);
        publ.publish_qos1("news", b"n2", false);
    }

    let broker = durable_broker(&dir);
    assert_eq!(broker.stats().recovered_sessions, 1);
    let (sub, present) = Raw::connect(&broker, "sleeper", false, None);
    assert!(present);
    assert_eq!(sub.expect_publish().payload, Bytes::from_static(b"n1"));
    assert_eq!(sub.expect_publish().payload, Bytes::from_static(b"n2"));
    drop(sub);
    drop(broker);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_session_reconnect_purges_persisted_state() {
    let dir = temp_dir("clean-purge");
    {
        let broker = durable_broker(&dir);
        let (sub, _) = Raw::connect(&broker, "flaky", false, None);
        sub.subscribe("t", QoS::AtLeastOnce);
    }

    let broker = durable_broker(&dir);
    assert_eq!(broker.stats().recovered_sessions, 1);
    // Reconnecting clean discards everything the broker kept.
    let (sub, present) = Raw::connect(&broker, "flaky", true, None);
    assert!(!present, "clean reconnect must not resume the session");
    assert!(
        wait_until(Duration::from_secs(5), || broker.stats().sessions_cleaned
            == 1),
        "clean reconnect over a persisted session bumps sessions_cleaned"
    );
    drop(sub);
    drop(broker);
    let state = store::recover_dir(&dir, 64);
    assert!(
        !state.sessions.contains_key("flaky"),
        "purged session must not reappear after another restart"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_will_fires_on_recovery() {
    let dir = temp_dir("crash-will");
    {
        let broker = durable_broker(&dir);
        let (listener, _) = Raw::connect(&broker, "listener", false, None);
        listener.subscribe("wills/#", QoS::AtLeastOnce);
        listener.disconnect();
        let (_martyr, _) = Raw::connect(
            &broker,
            "martyr",
            true,
            Some(LastWill {
                topic: TopicName::new("wills/martyr").unwrap(),
                payload: Bytes::from_static(b"died-with-broker"),
                qos: QoS::AtLeastOnce,
                retain: false,
            }),
        );
        // Crash with martyr still connected: the will never fired and
        // its registration is in the WAL.
    }

    let broker = durable_broker(&dir);
    // The testament fired during startup and queued into the recovered
    // offline session.
    let (listener, present) = Raw::connect(&broker, "listener", false, None);
    assert!(present);
    let got = listener.expect_publish();
    assert_eq!(got.topic.as_str(), "wills/martyr");
    assert_eq!(got.payload, Bytes::from_static(b"died-with-broker"));
    drop(listener);
    drop(broker);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_disconnect_suppresses_will_across_restart() {
    let dir = temp_dir("polite-will");
    {
        let broker = durable_broker(&dir);
        let (listener, _) = Raw::connect(&broker, "listener", false, None);
        listener.subscribe("wills/#", QoS::AtLeastOnce);
        listener.disconnect();
        let (polite, _) = Raw::connect(
            &broker,
            "polite",
            true,
            Some(LastWill {
                topic: TopicName::new("wills/polite").unwrap(),
                payload: Bytes::from_static(b"never-sent"),
                qos: QoS::AtLeastOnce,
                retain: false,
            }),
        );
        polite.disconnect(); // discharges the registration (WillClear)
    }

    let broker = durable_broker(&dir);
    let (listener, present) = Raw::connect(&broker, "listener", false, None);
    assert!(present);
    assert!(
        listener
            .link
            .recv_packet_timeout(Duration::from_millis(300))
            .is_err(),
        "a discharged will must not fire on recovery"
    );
    drop(listener);
    drop(broker);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retained_messages_survive_restart_for_fresh_subscriber() {
    let dir = temp_dir("retained");
    {
        let broker = durable_broker(&dir);
        let (publ, _) = Raw::connect(&broker, "pub", true, None);
        publ.publish_qos1("cfg/a", b"1", true);
        publ.publish_qos1("cfg/b", b"2", true);
        publ.publish_qos1("cfg/a", b"", true); // clear
    }

    let broker = durable_broker(&dir);
    assert_eq!(broker.stats().recovered_retained, 1);
    let (sub, _) = Raw::connect(&broker, "fresh", true, None);
    sub.subscribe("cfg/#", QoS::AtLeastOnce);
    let got = sub.expect_publish();
    assert_eq!(got.topic.as_str(), "cfg/b");
    assert_eq!(got.payload, Bytes::from_static(b"2"));
    assert!(got.retain);
    assert!(
        sub.link
            .recv_packet_timeout(Duration::from_millis(300))
            .is_err(),
        "the cleared topic must stay cleared across restart"
    );
    drop(sub);
    drop(broker);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_compaction_preserves_state_across_restart() {
    let dir = temp_dir("compaction");
    let mut model: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
    {
        let broker = Broker::start(BrokerConfig {
            persistence: Persistence::at(dir.clone()).snapshot_every(8),
            ..BrokerConfig::default()
        });
        let (publ, _) = Raw::connect(&broker, "pub", true, None);
        let topics = ["cfg/a", "cfg/b", "cfg/c"];
        for i in 0..30u8 {
            let topic = topics[i as usize % topics.len()];
            let payload = vec![b'v', i];
            publ.publish_qos1(topic, &payload, true);
            model.insert(topic, payload);
        }
        // Compaction happens on the persistence thread; wait for it to
        // land instead of racing the write-behind queue.
        assert!(
            wait_until(Duration::from_secs(5), || broker.stats().wal_snapshots >= 1),
            "30 updates over an 8-record threshold must compact at least once"
        );
    }

    let broker = durable_broker(&dir);
    assert_eq!(broker.stats().recovered_retained, model.len() as u64);
    let (sub, _) = Raw::connect(&broker, "fresh", true, None);
    sub.subscribe("cfg/#", QoS::AtLeastOnce);
    let mut seen: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
    for _ in 0..model.len() {
        let got = sub.expect_publish();
        let topic = match got.topic.as_str() {
            "cfg/a" => "cfg/a",
            "cfg/b" => "cfg/b",
            "cfg/c" => "cfg/c",
            other => panic!("unexpected retained topic {other}"),
        };
        seen.insert(topic, got.payload.to_vec());
    }
    assert_eq!(seen, model);
    drop(sub);
    drop(broker);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Kill-connection fault: testament + redial

#[test]
fn kill_fault_fires_testament_then_victim_redials_and_resumes() {
    let plan = FaultPlan::seeded(11).rule(
        FaultRule::kill_connection("sniper")
            .on_topic("trigger")
            .to_client("victim")
            .take(1),
    );
    let broker = Arc::new(Broker::start(BrokerConfig {
        fault_plan: Some(plan),
        ..BrokerConfig::default()
    }));

    let watcher = Client::connect(&broker, ClientOptions::new("watcher")).unwrap();
    watcher.subscribe_str("wills/#", QoS::AtLeastOnce).unwrap();

    let dial_broker = Arc::clone(&broker);
    let dialer: Dialer = Arc::new(move || dial_broker.connect_transport());
    let victim_options = ClientOptions {
        clean_session: false,
        will: Some(LastWill {
            topic: TopicName::new("wills/victim").unwrap(),
            payload: Bytes::from_static(b"gone"),
            qos: QoS::AtLeastOnce,
            retain: false,
        }),
        dialer: Some(dialer),
        ..ClientOptions::new("victim")
    };
    let victim = Client::connect(&broker, victim_options).unwrap();
    victim.subscribe_str("trigger", QoS::AtLeastOnce).unwrap();

    let publisher = Client::connect(&broker, ClientOptions::new("publisher")).unwrap();
    publisher
        .publish_str("trigger", b"bang".as_slice(), QoS::AtLeastOnce, false)
        .unwrap();

    // The fault plan assassinated the victim instead of delivering; its
    // testament arrives at the watcher.
    let got = watcher.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(got.topic.as_str(), "wills/victim");
    assert_eq!(got.payload, Bytes::from_static(b"gone"));
    assert_eq!(broker.fault_hits(), vec![("sniper".to_owned(), 1)]);

    // The victim's dialer brings it back with its persistent session (and
    // subscription) intact; the kill rule is exhausted, so the next
    // trigger goes through.
    assert!(
        wait_until(Duration::from_secs(10), || {
            broker.stats().connections_current == 3
        }),
        "victim must redial after the kill"
    );
    publisher
        .publish_str("trigger", b"bang2".as_slice(), QoS::AtLeastOnce, false)
        .unwrap();
    let got = victim.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(got.payload, Bytes::from_static(b"bang2"));
}
