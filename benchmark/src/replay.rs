//! Pipeline replay: a real update of the workload's shape pushed through
//! each layer's public functions, in order, on one thread — the layer
//! spans the live run cannot see from outside the program.
//!
//! `encode_into` → `Blob::encode_update_into` → `batching::split`
//! (⊃ `compress_auto`, `crc32`) → `mqtt::codec::encode`/`decode` around a
//! live-broker publish→deliver → `Reassembler::push` →
//! `Blob::decode_update` → `decode_into` → `fold`/`finish`.

use crate::rawmqtt;
use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, SpanId, Tracer, NO_CLIENT};
use bytes::Bytes;
use sdflmq::core::messages::{Blob, UpdateMeta};
use sdflmq::core::{AggregationMethod, FedAvg, SessionId, UpdateCodec, WireVersion};
use sdflmq::mqtt::transport::{tcp_link, LinkEnd};
use sdflmq::mqtt::{codec, Broker, Packet, QoS, TopicName};
use sdflmq::mqttfc::batching::split;
use sdflmq::mqttfc::compress::{compress_auto, MODE_LZSS};
use sdflmq::mqttfc::{crc32, BatchConfig, PushResult, Reassembler};
use sdflmq::nn::parallel::WorkerPool;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

/// Sizes of the two publish-to-deliver probes: a control-message-sized
/// payload and a full default chunk.
pub const SMALL: usize = 200;
pub const LARGE: usize = 64 * 1024;

/// A publisher and a QoS 1 subscriber on different shards of a live
/// broker, driven one message at a time by the calling thread.
pub struct DeliverProbe {
    publisher: LinkEnd,
    subscriber: LinkEnd,
    topic: TopicName,
    next_id: u16,
}

impl DeliverProbe {
    /// Over the in-process link, as the FL fleets connect.
    pub fn in_process(broker: &Broker, shards: usize) -> Result<DeliverProbe, String> {
        let dial = || {
            broker
                .connect_transport()
                .map_err(|e| format!("probe link: {e}"))
        };
        DeliverProbe::handshake(dial()?, dial()?, shards, true)
    }

    /// Over loopback TCP with a persistent-session subscriber, as
    /// `mqtt_tcp_durable` connects.
    pub fn over_tcp(addr: SocketAddr, shards: usize) -> Result<DeliverProbe, String> {
        let dial = || tcp_link(addr).map_err(|e| format!("probe dial: {e}"));
        DeliverProbe::handshake(dial()?, dial()?, shards, false)
    }

    fn handshake(
        publisher: LinkEnd,
        subscriber: LinkEnd,
        shards: usize,
        clean_subscriber: bool,
    ) -> Result<DeliverProbe, String> {
        let last = shards.saturating_sub(1);
        rawmqtt::connect(
            &publisher,
            &rawmqtt::pinned_id("probe-pub", 0, shards),
            true,
        )?;
        rawmqtt::connect(
            &subscriber,
            &rawmqtt::pinned_id("probe-sub", last, shards),
            clean_subscriber,
        )?;
        rawmqtt::subscribe(&subscriber, "probe/#", QoS::AtLeastOnce)?;
        Ok(DeliverProbe {
            publisher,
            subscriber,
            topic: TopicName::new("probe/frame").expect("valid topic"),
            next_id: 0,
        })
    }

    /// One closed-loop delivery, recorded as a `name` span with the packet
    /// codec as true child spans: encode the PUBLISH, send it, receive it
    /// at the subscriber, decode it. Acknowledgements are exchanged after
    /// the span closes. Returns the delivered payload.
    fn deliver(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        parent: Option<SpanId>,
        round: u64,
        payload: Bytes,
    ) -> Result<(Bytes, f64), String> {
        self.next_id = self.next_id % 60_000 + 1;
        let span = tracer.begin(name, parent, round, NO_CLIENT);
        let frame = tracer.time("mqtt.packet_encode", Some(span), round, || {
            rawmqtt::publish_frame(&self.topic, self.next_id, payload)
        });
        self.publisher
            .send_frame(frame)
            .map_err(|e| format!("probe publish: {e}"))?;
        let frame = self
            .subscriber
            .recv_frame_timeout(rawmqtt::IO_TIMEOUT)
            .map_err(|e| format!("probe receive: {e}"))?;
        let packet = tracer.time("mqtt.packet_decode", Some(span), round, || {
            codec::decode(&frame)
        });
        tracer.end(span);
        let ms = tracer.spans()[span].duration_ms();
        let Ok((Packet::Publish(publish), _)) = packet else {
            return Err(format!("probe expected a PUBLISH, got {packet:?}"));
        };
        if let Some(id) = publish.packet_id {
            self.subscriber
                .send_packet(&Packet::Puback(id))
                .map_err(|e| format!("probe PUBACK: {e}"))?;
        }
        match self.publisher.recv_packet_timeout(rawmqtt::IO_TIMEOUT) {
            Ok(Packet::Puback(_)) => Ok((publish.payload, ms)),
            other => Err(format!("probe expected a PUBACK, got {other:?}")),
        }
    }
}

/// What the replay measured, per call, as medians in ms keyed by span
/// name — `nn.encode`, `core.blob_encode`, `mqttfc.split` (⊃
/// `mqttfc.compress`, `mqttfc.crc`), `mqtt.deliver` (⊃ `mqtt.packet_encode`,
/// `mqtt.packet_decode`; one call per chunk frame), `mqttfc.reassemble`,
/// `core.blob_decode`, `nn.decode`, `core.fold`, `core.finish` — and the
/// blob's shape.
pub struct Replayed {
    /// Span duration, children included.
    pub total_ms: BTreeMap<&'static str, f64>,
    /// Span duration minus what its child spans cover.
    pub self_ms: BTreeMap<&'static str, f64>,
    pub chunks_per_blob: usize,
    pub blob_bytes: usize,
    /// Blobs on which LZSS beat storing raw ÷ blobs compressed.
    pub lzss_win_share: f64,
}

/// Replays `reps` updates, cycling through the clients' real locals of the
/// last round, each against the global it was computed from.
pub fn replay_updates(
    tracer: &mut Tracer,
    probe: &mut DeliverProbe,
    update_codec: UpdateCodec,
    locals: &[&[f32]],
    base: &[f32],
    reps: usize,
) -> Result<Replayed, String> {
    let pool = WorkerPool::global();
    let batch = BatchConfig::default();
    let session = SessionId::new("bench-replay").expect("valid id");
    let delta_base = update_codec.is_delta().then_some(base);
    let mut lzss_wins = 0usize;
    let mut chunks_per_blob = 0;
    let mut blob_bytes = 0;
    let mut encoded_update = Vec::new();
    let mut decoded = Vec::new();
    for rep in 0..reps {
        let round = rep as u64;
        let local = locals[rep % locals.len()];
        let replay = tracer.begin("replay", None, round, (rep % locals.len()) as i64);
        let root = Some(replay);

        // Error feedback starts empty each time: every rep encodes the
        // same way a client's first update of a session does.
        let mut residual = Vec::new();
        tracer.time("nn.encode", root, round, || {
            update_codec.encode_into(local, delta_base, &mut residual, &pool, &mut encoded_update)
        });
        let blob = Blob {
            session_id: session.clone(),
            round: 1,
            sender: "dev000".to_owned(),
            weight: 256,
            params: Bytes::from(std::mem::take(&mut encoded_update)),
        };
        let meta = UpdateMeta {
            codec: update_codec.id(),
            elems: local.len() as u64,
            delta_base: u32::from(update_codec.is_delta()),
        };
        let framed = tracer.time("core.blob_encode", root, round, || {
            blob.encode_update_into(WireVersion::LATEST, &meta, Vec::new())
        });
        blob_bytes = framed.len();

        let split_span = tracer.begin("mqttfc.split", root, round, NO_CLIENT);
        let frames = split(&framed, rep as u64 + 1, &batch);
        tracer.end(split_span);
        chunks_per_blob = frames.len();
        // `split` cannot be opened from outside, so its two stages are
        // timed by calling the same public functions on the same bytes
        // right after, and laid into its interval as child spans.
        let start = Instant::now();
        let body = compress_auto(&framed);
        let compress_ns = start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        std::hint::black_box(crc32(&body));
        let crc_ns = start.elapsed().as_nanos() as u64;
        lzss_wins += usize::from(body.first() == Some(&MODE_LZSS));
        let at = tracer.spans()[split_span].start_ns;
        tracer.record(
            "mqttfc.compress",
            Some(split_span),
            round,
            NO_CLIENT,
            at,
            at + compress_ns,
        );
        tracer.record(
            "mqttfc.crc",
            Some(split_span),
            round,
            NO_CLIENT,
            at + compress_ns,
            at + compress_ns + crc_ns,
        );

        let mut received = Vec::with_capacity(frames.len());
        for frame in frames {
            let (payload, _) = probe.deliver(tracer, "mqtt.deliver", root, round, frame)?;
            received.push(payload);
        }

        let mut reassembler = Reassembler::new(batch.clone());
        let body = tracer.time("mqttfc.reassemble", root, round, || {
            let mut complete = None;
            for payload in received {
                if let Ok(PushResult::Complete(body)) = reassembler.push("dev000", payload) {
                    complete = Some(body);
                }
            }
            complete
        });
        let body = body.ok_or("replay: the reassembler did not complete the blob")?;
        let (blob, meta, _) = tracer
            .time("core.blob_decode", root, round, || {
                Blob::decode_update(body)
            })
            .map_err(|e| format!("replay: blob decode: {e}"))?;
        if meta.elems as usize != local.len() {
            return Err("replay: blob header lost the element count".into());
        }
        tracer
            .time("nn.decode", root, round, || {
                update_codec.decode_into(&blob.params, delta_base, &pool, &mut decoded)
            })
            .map_err(|e| format!("replay: update decode: {e}"))?;
        if !update_codec.is_lossy() && decoded.as_slice() != local {
            return Err("replay: a lossless codec did not round-trip".into());
        }

        // An aggregation stack's first fold allocates the running sum and
        // the later ones do not: replay one of each.
        let mut acc = FedAvg.accumulator();
        for _ in 0..2 {
            tracer
                .time("core.fold", root, round, || {
                    acc.fold_par(&decoded, 256, &pool)
                })
                .map_err(|e| format!("replay: fold: {e}"))?;
        }
        let mean = tracer
            .time("core.finish", root, round, || acc.finish())
            .map_err(|e| format!("replay: finish: {e}"))?;
        std::hint::black_box(mean);
        encoded_update = Vec::new();
        tracer.end(replay);
    }
    let names = [
        "nn.encode",
        "core.blob_encode",
        "mqttfc.split",
        "mqttfc.compress",
        "mqttfc.crc",
        "mqtt.deliver",
        "mqtt.packet_encode",
        "mqtt.packet_decode",
        "mqttfc.reassemble",
        "core.blob_decode",
        "nn.decode",
        "core.fold",
        "core.finish",
    ];
    let self_ms = trace::self_ms_by_name(tracer.spans());
    Ok(Replayed {
        total_ms: names
            .iter()
            .map(|name| (*name, stats::median(&tracer.durations_ms(name))))
            .collect(),
        self_ms: names
            .iter()
            .map(|name| (*name, stats::median(&self_ms[name])))
            .collect(),
        chunks_per_blob,
        blob_bytes,
        lzss_win_share: lzss_wins as f64 / reps as f64,
    })
}

/// The `mqtt.packet_codec_*` and `mqtt.deliver_*` metrics: the packet
/// codec alone, and publish→receive through the live broker, at both
/// probe sizes.
pub fn report_mqtt_probes(
    tracer: &mut Tracer,
    probe: &mut DeliverProbe,
    quick: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    // p90 needs ten samples beyond it.
    let samples = if quick { 10 } else { 100 };
    for (size, codec_metric, span, p50, p90) in [
        (
            SMALL,
            "mqtt.packet_codec_small_ns",
            "mqtt.deliver_small",
            "mqtt.deliver_small_ms_p50",
            "mqtt.deliver_small_ms_p90",
        ),
        (
            LARGE,
            "mqtt.packet_codec_large_ns",
            "mqtt.deliver_large",
            "mqtt.deliver_large_ms_p50",
            "mqtt.deliver_large_ms_p90",
        ),
    ] {
        let payload = Bytes::from(vec![0xa5u8; size]);
        let codec_ns: Vec<f64> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                let frame = rawmqtt::publish_frame(&probe.topic, 1, payload.clone());
                std::hint::black_box(codec::decode(&frame)).ok();
                start.elapsed().as_nanos() as f64
            })
            .collect();
        out.set(codec_metric, stats::median(&codec_ns));
        let mut deliver_ms = Vec::with_capacity(samples);
        for i in 0..samples {
            let (_, ms) = probe.deliver(tracer, span, None, i as u64, payload.clone())?;
            deliver_ms.push(ms);
        }
        let sorted = stats::sorted(&deliver_ms);
        out.set(p50, stats::percentile(&sorted, 0.5));
        out.set(p90, stats::percentile(&sorted, 0.9));
    }
    Ok(())
}
