//! `mqtt_tcp_durable`: no FL stack. Raw MQTT frames over real loopback TCP
//! to a 2-shard broker with a write-behind WAL (`Durability::OsCache`);
//! one publisher and one persistent-session subscriber pinned to different
//! shards. Two driver threads, one per TCP connection.
//!
//! A round is 16 × 64 KiB + 64 × 200 B QoS 1 publishes with at most 16
//! unacknowledged in flight; it is done when all 80 are PUBACKed and
//! received in order with intact payloads.

use crate::counters::BrokerCounts;
use crate::gen::Rng;
use crate::rawmqtt;
use crate::replay::{self, DeliverProbe, LARGE, SMALL};
use crate::report::{self, Outcome};
use crate::stats;
use crate::trace::{Tracer, NO_CLIENT};
use crate::{RunArgs, CHECK_EVERY, SHARDS, WARMUP_ROUNDS};
use bytes::Bytes;
use sdflmq::mqtt::transport::{tcp_link, LinkEnd};
use sdflmq::mqtt::{
    Broker, BrokerConfig, Durability, Packet, Persistence, Publish, QoS, TopicName,
};
use sdflmq::mqttfc::crc32;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Instant;

const LARGE_PER_ROUND: usize = 16;
const SMALL_PER_ROUND: usize = 64;
const PER_ROUND: usize = LARGE_PER_ROUND + SMALL_PER_ROUND;
const WINDOW: usize = 16;
/// WAL append-queue capacity: a round and a half of records (a QoS 1
/// delivery logs two). With the default 4096 the closed loop runs tens of
/// rounds ahead of the writer, and `VmHWM` then measures how far it happened
/// to get (18 to 92 MB over ten runs) rather than the broker. This keeps the
/// WAL on the round's critical path and its backlog bounded.
const WAL_QUEUE: usize = 256;
/// Payload header: per-topic sequence number (u64 LE) + CRC-32 of the body.
const HEADER: usize = 12;
const TOPICS: [&str; 2] = ["bench/large", "bench/small"];

/// The broker under test and its two raw TCP connections.
struct Rig {
    publisher: LinkEnd,
    subscriber: LinkEnd,
    addr: SocketAddr,
    /// `Some` until drop, which must stop the broker before its WAL
    /// directory can be removed.
    broker: Option<Broker>,
    wal_dir: PathBuf,
}

impl Rig {
    fn broker(&self) -> &Broker {
        self.broker.as_ref().expect("present until drop")
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Some(broker) = self.broker.take() {
            broker.shutdown(); // drains the WAL queue, joins its threads
        }
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// Broker start with persistence, listen, two dials, CONNECT ×2, SUBSCRIBE:
/// until the subscription is acknowledged, i.e. a first round can be sent.
fn set_up(out_dir: &Path, nth: usize) -> Result<(Rig, f64), String> {
    let start = Instant::now();
    let wal_dir = out_dir.join(format!("wal-{}-{nth}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let broker = Broker::start(BrokerConfig {
        name: "bench-tcp".into(),
        shards: SHARDS,
        persistence: Persistence::at(wal_dir.clone())
            .durability(Durability::OsCache)
            .queue_capacity(WAL_QUEUE),
        ..BrokerConfig::default()
    });
    let addr = broker
        .listen("127.0.0.1:0")
        .map_err(|e| format!("listen: {e}"))?;
    let publisher = tcp_link(addr).map_err(|e| format!("dial: {e}"))?;
    let subscriber = tcp_link(addr).map_err(|e| format!("dial: {e}"))?;
    // Ids are fixed (never seeded): they pin the two ends to different
    // shards, so every delivery crosses the shard mailbox.
    rawmqtt::connect(
        &publisher,
        &rawmqtt::pinned_id("bench-pub", 0, SHARDS),
        true,
    )?;
    rawmqtt::connect(
        &subscriber,
        &rawmqtt::pinned_id("bench-sub", 1, SHARDS),
        false,
    )?;
    rawmqtt::subscribe(&subscriber, "bench/#", QoS::AtLeastOnce)?;
    let rig = Rig {
        publisher,
        subscriber,
        addr,
        broker: Some(broker),
        wal_dir,
    };
    Ok((rig, start.elapsed().as_secs_f64()))
}

/// `header(seq, crc of body) + body`.
fn stamp(seq: u64, body: &[u8], body_crc: u32) -> Bytes {
    let mut payload = Vec::with_capacity(HEADER + body.len());
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&body_crc.to_le_bytes());
    payload.extend_from_slice(body);
    Bytes::from(payload)
}

/// What the subscriber thread tells the publisher after each round.
struct RoundReceipt {
    /// Messages lost, out of order, duplicated without DUP, carrying a
    /// foreign body, or (on check rounds) failing their CRC.
    bad: u64,
    why: Option<String>,
}

/// Verdict on one received PUBLISH.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// The next message of its topic, intact.
    Fresh,
    /// A DUP-flagged copy of a message already seen: legal at QoS 1.
    Redelivery,
    Bad(&'static str),
}

/// Judges a PUBLISH against the per-topic sequence and the known bodies,
/// advancing the sequence past it (and past any gap before it).
fn verify(
    publish: &Publish,
    bodies: &[Vec<u8>; 2],
    next_seq: &mut [u64; 2],
    crc_too: bool,
) -> Verdict {
    let Some(topic) = TOPICS.iter().position(|t| *t == publish.topic.as_str()) else {
        return Verdict::Bad("foreign topic");
    };
    let payload = &publish.payload[..];
    if payload.len() != HEADER + bodies[topic].len() {
        return Verdict::Bad("wrong length");
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
    let stamped_crc = u32::from_le_bytes(payload[8..HEADER].try_into().expect("4 bytes"));
    let expected = next_seq[topic];
    if seq < expected {
        return if publish.dup {
            Verdict::Redelivery
        } else {
            Verdict::Bad("duplicated without DUP")
        };
    }
    next_seq[topic] = seq + 1;
    if seq > expected {
        Verdict::Bad("messages lost or out of order")
    } else if payload[HEADER..] != bodies[topic][..] {
        Verdict::Bad("body differs")
    } else if crc_too && crc32(&payload[HEADER..]) != stamped_crc {
        Verdict::Bad("CRC mismatch")
    } else {
        Verdict::Fresh
    }
}

/// The subscriber's driver thread: receive, verify, acknowledge; report
/// after every `PER_ROUND` messages. `checks` yields, per round, whether
/// to recompute each payload's CRC on top of comparing its bytes.
fn subscriber_loop(
    link: LinkEnd,
    bodies: [Vec<u8>; 2],
    checks: mpsc::Receiver<bool>,
    receipts: mpsc::Sender<RoundReceipt>,
) {
    let mut next_seq = [0u64; 2];
    while let Ok(crc_too) = checks.recv() {
        let mut receipt = RoundReceipt { bad: 0, why: None };
        let mut got = 0;
        while got < PER_ROUND {
            let publish = match link.recv_packet_timeout(rawmqtt::IO_TIMEOUT) {
                Ok(Packet::Publish(p)) => p,
                Ok(_) => continue,
                Err(e) => {
                    receipt.bad += (PER_ROUND - got) as u64;
                    receipt.why = Some(format!("{} messages lost: {e}", PER_ROUND - got));
                    let _ = receipts.send(receipt);
                    return;
                }
            };
            if let Some(id) = publish.packet_id {
                let _ = link.send_packet(&Packet::Puback(id));
            }
            match verify(&publish, &bodies, &mut next_seq, crc_too) {
                Verdict::Fresh => {}
                Verdict::Redelivery => continue,
                Verdict::Bad(what) => {
                    receipt.bad += 1;
                    receipt.why = Some(format!("{}: {what}", publish.topic.as_str()));
                }
            }
            got += 1;
        }
        if receipts.send(receipt).is_err() {
            return;
        }
    }
}

/// The publisher side of the generator: owns the link, the sequence
/// numbers and the channel pair to the subscriber thread.
struct Publisher<'a> {
    link: &'a LinkEnd,
    topics: [TopicName; 2],
    bodies: &'a [Vec<u8>; 2],
    body_crcs: [u32; 2],
    next_seq: [u64; 2],
    next_id: u16,
    checks: mpsc::Sender<bool>,
    receipts: mpsc::Receiver<RoundReceipt>,
    round: u64,
}

impl Publisher<'_> {
    fn await_puback(&self) -> Result<(), String> {
        loop {
            match self.link.recv_packet_timeout(rawmqtt::IO_TIMEOUT) {
                Ok(Packet::Puback(_)) => return Ok(()),
                Ok(_) => continue,
                Err(e) => return Err(format!("round {}: waiting for PUBACK: {e}", self.round)),
            }
        }
    }

    /// One round; returns its wall-clock in ms. `Err` means the rig is
    /// broken and the run cannot continue.
    fn round(
        &mut self,
        full_check: bool,
        out: &mut Outcome,
        tracer: &mut Tracer,
    ) -> Result<f64, String> {
        self.round += 1;
        let round = self.round;
        out.attempted += PER_ROUND as u64;
        self.checks
            .send(full_check)
            .map_err(|_| "subscriber thread is gone".to_owned())?;
        let start = Instant::now();
        let root = tracer.live_begin("round", None, round, NO_CLIENT);
        let publish = tracer.live_begin("publish", root, round, NO_CLIENT);
        let mut in_flight = 0;
        // One large message, then four small ones, sixteen times over.
        for i in 0..PER_ROUND {
            let topic = usize::from(i % 5 != 0);
            self.next_id = self.next_id % 60_000 + 1;
            let frame = rawmqtt::publish_frame(
                &self.topics[topic],
                self.next_id,
                stamp(
                    self.next_seq[topic],
                    &self.bodies[topic],
                    self.body_crcs[topic],
                ),
            );
            self.next_seq[topic] += 1;
            if in_flight == WINDOW {
                self.await_puback()?;
                in_flight -= 1;
            }
            self.link
                .send_frame(frame)
                .map_err(|e| format!("round {round}: publish: {e}"))?;
            in_flight += 1;
        }
        tracer.live_end(publish);
        let drain = tracer.live_begin("drain", root, round, NO_CLIENT);
        for _ in 0..in_flight {
            self.await_puback()?;
        }
        let receipt = self
            .receipts
            .recv_timeout(rawmqtt::IO_TIMEOUT)
            .map_err(|e| format!("round {round}: subscriber receipt: {e}"))?;
        tracer.live_end(drain);
        tracer.live_end(root);
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        if receipt.bad > 0 {
            out.fail(
                receipt.bad,
                format!("round {round}: {}", receipt.why.unwrap_or_default()),
            );
        }
        Ok(elapsed_ms)
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    if let Err(why) = run_inner(args, &mut out) {
        out.fail(1, why);
    }
    out
}

fn run_inner(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let mut setups = Vec::new();
    let mut kept = None;
    for nth in 0..args.setups {
        drop(kept.take());
        let (rig, setup_s) = set_up(&args.out_dir, nth)?;
        setups.push(setup_s);
        kept = Some(rig);
    }
    let rig = kept.expect("at least one set-up");

    let mut rng = Rng::new(args.seed);
    let mut bodies = [vec![0u8; LARGE - HEADER], vec![0u8; SMALL - HEADER]];
    for body in &mut bodies {
        rng.fill_bytes(body);
    }
    let (check_tx, check_rx) = mpsc::channel();
    let (receipt_tx, receipt_rx) = mpsc::channel();
    let mut publisher = Publisher {
        link: &rig.publisher,
        topics: TOPICS.map(|t| TopicName::new(t).expect("valid topic")),
        bodies: &bodies,
        body_crcs: [crc32(&bodies[0]), crc32(&bodies[1])],
        next_seq: [0; 2],
        next_id: 0,
        checks: check_tx,
        receipts: receipt_rx,
        round: 0,
    };
    let sub_link = rig.subscriber.clone();
    let sub_bodies = bodies.clone();

    let result = std::thread::scope(|scope| {
        let subscriber = std::thread::Builder::new()
            .name("bench-sub".into())
            .spawn_scoped(scope, move || {
                subscriber_loop(sub_link, sub_bodies, check_rx, receipt_tx)
            })
            .map_err(|e| format!("spawn subscriber: {e}"))?;
        let result = drive(args, &rig, &mut publisher, &setups, out);
        // Closing the check channel ends the subscriber loop.
        drop(publisher);
        subscriber
            .join()
            .map_err(|_| "subscriber thread panicked".to_owned())?;
        result
    });
    drop(rig);
    out.set("peak_rss_mb", report::peak_rss_mb());
    result
}

fn drive(
    args: &RunArgs,
    rig: &Rig,
    publisher: &mut Publisher<'_>,
    setups: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    for _ in 0..WARMUP_ROUNDS {
        publisher.round(false, out, &mut tracer)?;
    }
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_counts = BrokerCounts::default();
    let counts = || BrokerCounts::of(&rig.broker().stats());
    let window_start = Instant::now();
    let window_counts = counts();
    let mut measured = 0u64;
    loop {
        let window_s = window_start.elapsed().as_secs_f64();
        let last = match args.max_rounds {
            Some(max) => measured + 1 >= max,
            None => window_s >= args.seconds,
        };
        let full_check = last || (measured + 1).is_multiple_of(CHECK_EVERY);
        tracer.live = args.traces_round(measured);
        if tracer.live {
            let before = counts();
            let ms = publisher.round(full_check, out, &mut tracer)?;
            traced_counts.add(&counts().since(&before));
            traced_ms.push(ms);
        } else {
            plain_ms.push(publisher.round(full_check, out, &mut tracer)?);
        }
        measured += 1;
        if last {
            break;
        }
    }
    let window_s = window_start.elapsed().as_secs_f64();
    let total = counts().since(&window_counts);

    out.set_round_metrics(
        &plain_ms,
        measured,
        window_s,
        total.payload_bytes_out,
        setups,
    );
    out.note("messages_per_round", PER_ROUND as u32);
    out.note("wal_records", total.wal_records as f64);
    if total.wal_records == 0 {
        out.fail(1, "the durable broker wrote no WAL record".to_owned());
    }
    if total.dropped + total.slow_consumer_evictions > 0 {
        out.fail(
            total.dropped + total.slow_consumer_evictions,
            format!(
                "broker dropped {} messages and evicted {} consumers",
                total.dropped, total.slow_consumer_evictions
            ),
        );
    }

    if !args.trace {
        return Ok(());
    }
    if traced_ms.is_empty() {
        return Err("the traced run measured no traced round".into());
    }
    traced_counts.report(traced_ms.len() as f64, out);
    // The replay for this workload is the mqtt layer alone: the packet
    // codec and publish→deliver through the same durable broker over TCP.
    let mut probe = DeliverProbe::over_tcp(rig.addr, SHARDS)?;
    replay::report_mqtt_probes(&mut tracer, &mut probe, args.max_rounds.is_some(), out)?;
    // A serial estimate: the live round keeps 16 publishes in flight, so
    // this over-counts and the unattributed share may be negative.
    let mqtt_est = out.metrics["mqtt.deliver_large_ms_p50"] * LARGE_PER_ROUND as f64
        + out.metrics["mqtt.deliver_small_ms_p50"] * SMALL_PER_ROUND as f64;
    out.set("layers.mqtt.est_ms_per_round", mqtt_est);
    let plain_p50 = stats::median(&plain_ms);
    out.set("unattributed_share", 1.0 - mqtt_est / plain_p50);
    out.set(
        "trace_overhead_share",
        stats::median(&traced_ms) / plain_p50 - 1.0,
    );
    out.note("traced_rounds", traced_ms.len() as u32);
    crate::write_trace(args, &tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn publish(topic: usize, seq: u64, body: &[u8], dup: bool) -> Publish {
        Publish {
            dup,
            qos: QoS::AtLeastOnce,
            retain: false,
            topic: TopicName::new(TOPICS[topic]).unwrap(),
            packet_id: Some(1),
            payload: stamp(seq, body, crc32(body)),
        }
    }

    #[test]
    fn subscriber_accepts_order_and_flags_loss_duplicates_and_corruption() {
        let bodies = [vec![1u8; 32], vec![2u8; 8]];
        let mut next = [0u64; 2];
        assert_eq!(
            verify(&publish(0, 0, &bodies[0], false), &bodies, &mut next, true),
            Verdict::Fresh
        );
        assert_eq!(
            verify(&publish(1, 0, &bodies[1], false), &bodies, &mut next, true),
            Verdict::Fresh
        );
        assert_eq!(next, [1, 1]);
        // A DUP copy of something seen is legal; the same without DUP is not.
        assert_eq!(
            verify(&publish(0, 0, &bodies[0], true), &bodies, &mut next, true),
            Verdict::Redelivery
        );
        assert!(matches!(
            verify(&publish(0, 0, &bodies[0], false), &bodies, &mut next, true),
            Verdict::Bad(_)
        ));
        // A gap is one fault, after which the sequence carries on.
        assert!(matches!(
            verify(&publish(0, 3, &bodies[0], false), &bodies, &mut next, true),
            Verdict::Bad(_)
        ));
        assert_eq!(
            verify(&publish(0, 4, &bodies[0], false), &bodies, &mut next, true),
            Verdict::Fresh
        );
        // Corrupted bytes are caught without the CRC pass too.
        assert!(matches!(
            verify(&publish(1, 1, &[9u8; 8], false), &bodies, &mut next, false),
            Verdict::Bad(_)
        ));
        assert!(matches!(
            verify(&publish(1, 2, &[9u8; 9], false), &bodies, &mut next, false),
            Verdict::Bad(_)
        ));
    }
}
