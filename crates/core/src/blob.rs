//! Chunked parameter-blob pub/sub on raw MQTT topics.
//!
//! Control messages ride MQTTFC functions, but model parameters flow over
//! *positional role topics* (see [`crate::topics`]) where the set of
//! receivers is determined by subscription, not by function registry. This
//! channel reuses the MQTTFC batching layer (split → CRC-checked chunks →
//! reassemble) on arbitrary topics.

use crate::bufpool::BufferPool;
use crate::error::Result;
use crate::messages::{Blob, UpdateMeta};
use crate::wirecodec::WireVersion;
use bytes::Bytes;
use parking_lot::Mutex;
use sdflmq_mqtt::{Client, QoS, TopicFilter, TopicName};
use sdflmq_mqttfc::batching::{split, BatchConfig, PushResult, Reassembler};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-delivery context passed to blob handlers: the metadata wire
/// version the sender used (so relays can answer in kind) and the
/// update-codec metadata from the blob header.
#[derive(Debug, Clone, Copy)]
pub struct BlobCtx {
    /// Wire version of the blob's metadata header.
    pub version: WireVersion,
    /// How the parameter payload is encoded.
    pub update: UpdateMeta,
}

/// Handler invoked with each fully reassembled blob.
pub type BlobHandler = Arc<dyn Fn(Blob, BlobCtx) + Send + Sync>;

/// QoS of every blob publish and subscription.
const QOS: QoS = QoS::AtLeastOnce;

/// A blob pub/sub endpoint bound to one MQTT client.
#[derive(Clone)]
pub struct BlobChannel {
    client: Client,
    batch: BatchConfig,
    transfer_base: u64,
    next_transfer: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
    copied: Arc<AtomicU64>,
    /// Recycles frame-encode buffers across publishes (steady-state
    /// rounds re-encode into the previous round's reclaimed storage).
    pool: Arc<BufferPool>,
}

impl BlobChannel {
    /// Wraps an MQTT client. `node_id` seeds transfer-id uniqueness.
    pub fn new(client: Client, node_id: &str, batch: BatchConfig) -> BlobChannel {
        BlobChannel {
            client,
            batch,
            transfer_base: sdflmq_mqtt::fnv1a64(node_id.as_bytes()),
            next_transfer: Arc::new(AtomicU64::new(1)),
            dropped: Arc::new(AtomicU64::new(0)),
            copied: Arc::new(AtomicU64::new(0)),
            pool: BufferPool::new(),
        }
    }

    /// Payload bytes the receive path has copied (multi-chunk
    /// concatenation and decompression output, summed across this
    /// channel's subscriptions). Single-chunk uncompressed transfers
    /// deliver zero-copy slices of the received frames and add nothing.
    pub fn copied_bytes(&self) -> u64 {
        self.copied.load(Ordering::Relaxed)
    }

    /// The channel's frame-buffer pool (see [`BufferPool::counters`] for
    /// the allocation-reuse counters).
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Transfers this endpoint received but could not deliver: corrupt
    /// chunks, unparseable blob frames, or reassembly failures. Each one
    /// was silently discarded on the data path (the sender's QoS handles
    /// transport loss; corruption means a protocol bug or malicious
    /// peer) — this counter makes that loss observable.
    pub fn dropped_transfers(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Publishes a blob, splitting it into chunks as needed; every chunk
    /// is in flight at once, behind one acknowledgement wait
    /// ([`Client::publish_all`]). `version` is the metadata wire version
    /// (relays answer in the version the inbound blob carried;
    /// participants use their role's stamped data-plane version) and
    /// `update` declares the payload's codec.
    pub fn publish_update(
        &self,
        topic: &TopicName,
        blob: &Blob,
        version: WireVersion,
        update: &UpdateMeta,
    ) -> Result<()> {
        // Encode into a pooled buffer; once the frames (which carry their
        // own copies of the body) are published, or have failed to be,
        // nothing else holds the frame buffer, so lending it back lets
        // the next publish reclaim the allocation.
        let encoded = blob.encode_update_into(version, update, self.pool.take_bytes());
        let transfer_id = self.transfer_base ^ self.next_transfer.fetch_add(1, Ordering::Relaxed);
        let frames = split(&encoded, transfer_id, &self.batch);
        let frames = frames.into_iter().map(|frame| (topic, frame));
        let published = self.client.publish_all(frames, QOS, false);
        self.pool.lend(encoded);
        Ok(published?)
    }

    /// Subscribes to `filter` (wildcards allowed), invoking `handler` for
    /// every complete, valid blob. Corrupt transfers are dropped (the
    /// sender's QoS handles transport loss; corruption here means a
    /// protocol bug or malicious peer) and counted in
    /// [`BlobChannel::dropped_transfers`].
    pub fn subscribe(&self, filter: &TopicFilter, handler: BlobHandler) -> Result<()> {
        let reassembler = Mutex::new(Reassembler::new(self.batch.clone()));
        let counter = AtomicU64::new(0);
        let dropped = Arc::clone(&self.dropped);
        let copied = Arc::clone(&self.copied);
        let copied_seen = AtomicU64::new(0);
        self.client.subscribe_with(
            filter,
            QOS,
            Arc::new(move |publish| {
                if counter.fetch_add(1, Ordering::Relaxed) % 256 == 255 {
                    reassembler.lock().evict_stale();
                }
                let result = {
                    let mut r = reassembler.lock();
                    // The payload `Bytes` clone shares storage (refcount
                    // bump, no copy); real copies are what the
                    // reassembler's own counter reports.
                    let result = r.push(publish.topic.as_str(), publish.payload.clone());
                    let now = r.copied_bytes();
                    let before = copied_seen.swap(now, Ordering::Relaxed);
                    copied.fetch_add(now - before, Ordering::Relaxed);
                    result
                };
                match result {
                    Ok(PushResult::Complete(body)) => match Blob::decode_update(body) {
                        Ok((blob, update, version)) => handler(blob, BlobCtx { version, update }),
                        Err(_) => {
                            dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    },
                    // Duplicates are QoS redelivery, not data loss.
                    Ok(PushResult::Incomplete { .. }) | Ok(PushResult::Duplicate) => {}
                    Err(_) => {
                        dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }),
        )?;
        Ok(())
    }

    /// Removes a subscription added with [`BlobChannel::subscribe`].
    pub fn unsubscribe(&self, filter: &TopicFilter) -> Result<()> {
        self.client.unsubscribe(filter)?;
        Ok(())
    }

    /// The underlying MQTT client.
    pub fn client(&self) -> &Client {
        &self.client
    }
}

/// Encodes a one-off JSON document as a retained message on `topic`
/// (used for topology publications).
pub fn publish_retained_json(
    client: &Client,
    topic: &TopicName,
    json: &sdflmq_mqttfc::Json,
) -> Result<()> {
    client.publish(
        topic,
        Bytes::from(json.to_string_compact().into_bytes()),
        QoS::AtLeastOnce,
        true,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SessionId;
    use crossbeam::channel::bounded;
    use sdflmq_mqtt::{Broker, ClientOptions};
    use std::time::Duration;

    fn channel(broker: &Broker, id: &str) -> BlobChannel {
        let client = Client::connect(broker, ClientOptions::new(id)).unwrap();
        BlobChannel::new(client, id, BatchConfig::default())
    }

    /// Publishes with JSON v1 metadata and the dense codec's header.
    fn publish(chan: &BlobChannel, topic: &TopicName, blob: &Blob) -> Result<()> {
        chan.publish_update(topic, blob, WireVersion::V1Json, &UpdateMeta::default())
    }

    fn blob(params: Vec<u8>) -> Blob {
        Blob {
            session_id: SessionId::new("s1").unwrap(),
            round: 1,
            sender: "alice".into(),
            weight: 10,
            params: Bytes::from(params),
        }
    }

    #[test]
    fn blob_pubsub_roundtrip() {
        let broker = Broker::start_default();
        let rx_chan = channel(&broker, "rx");
        let (tx, rx) = bounded(1);
        rx_chan
            .subscribe(
                &TopicFilter::new("params/in").unwrap(),
                Arc::new(move |b, _| {
                    let _ = tx.send(b);
                }),
            )
            .unwrap();
        let tx_chan = channel(&broker, "tx");
        let sent = blob((0..200_000u32).map(|i| (i % 251) as u8).collect());
        publish(&tx_chan, &TopicName::new("params/in").unwrap(), &sent).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, sent);
    }

    #[test]
    fn binary_meta_pubsub_roundtrip() {
        let broker = Broker::start_default();
        let rx_chan = channel(&broker, "rx2");
        let (tx, rx) = bounded(1);
        rx_chan
            .subscribe(
                &TopicFilter::new("params/bin").unwrap(),
                Arc::new(move |b, _| {
                    let _ = tx.send(b);
                }),
            )
            .unwrap();
        let tx_chan = channel(&broker, "tx2");
        let sent = blob(vec![9u8; 10_000]);
        tx_chan
            .publish_update(
                &TopicName::new("params/bin").unwrap(),
                &sent,
                WireVersion::V2Binary,
                &UpdateMeta::default(),
            )
            .unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, sent);
    }

    #[test]
    fn corrupt_transfers_are_counted_not_delivered() {
        let broker = Broker::start_default();
        let rx_chan = channel(&broker, "rxd");
        let (tx, rx) = bounded(2);
        rx_chan
            .subscribe(
                &TopicFilter::new("params/corrupt").unwrap(),
                Arc::new(move |b, _| {
                    let _ = tx.send(b);
                }),
            )
            .unwrap();
        assert_eq!(rx_chan.dropped_transfers(), 0);
        let tx_chan = channel(&broker, "txd");
        let topic = TopicName::new("params/corrupt").unwrap();
        // A completed transfer whose body is not a blob frame: reassembly
        // succeeds, decoding fails, the transfer is dropped and counted.
        for frame in split(b"not a blob frame", 99, &BatchConfig::default()) {
            tx_chan
                .client()
                .publish(&topic, frame, QoS::AtLeastOnce, false)
                .unwrap();
        }
        // A valid blob still flows on the same subscription.
        let sent = blob(vec![7u8; 1000]);
        publish(&tx_chan, &topic, &sent).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, sent);
        assert_eq!(rx_chan.dropped_transfers(), 1);
    }

    #[test]
    fn single_chunk_receive_copies_nothing() {
        let broker = Broker::start_default();
        let client = Client::connect(&broker, ClientOptions::new("rx0")).unwrap();
        // A payload below the chunk size: the blob body must arrive as a
        // slice of the received frame.
        let rx_chan = BlobChannel::new(client, "rx0", BatchConfig::default());
        let (tx, rx) = bounded(1);
        rx_chan
            .subscribe(
                &TopicFilter::new("params/zc").unwrap(),
                Arc::new(move |b, _| {
                    let _ = tx.send(b);
                }),
            )
            .unwrap();
        let client = Client::connect(&broker, ClientOptions::new("tx0")).unwrap();
        let tx_chan = BlobChannel::new(client, "tx0", BatchConfig::default());
        let sent = blob((0..10_000u32).map(|i| (i % 251) as u8).collect());
        publish(&tx_chan, &TopicName::new("params/zc").unwrap(), &sent).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, sent);
        assert_eq!(rx_chan.copied_bytes(), 0, "receive path must be zero-copy");
    }

    #[test]
    fn publish_reuses_pooled_frame_buffers() {
        let broker = Broker::start_default();
        let tx_chan = channel(&broker, "txp");
        let topic = TopicName::new("params/pool").unwrap();
        let sent = blob(vec![3u8; 20_000]);
        publish(&tx_chan, &topic, &sent).unwrap();
        let (fresh_after_first, _) = tx_chan.buffer_pool().counters();
        for _ in 0..5 {
            publish(&tx_chan, &topic, &sent).unwrap();
        }
        let (fresh, reused) = tx_chan.buffer_pool().counters();
        assert_eq!(
            fresh, fresh_after_first,
            "steady-state publishes must not allocate new frame buffers"
        );
        assert_eq!(reused, 5);
    }

    #[test]
    fn a_failed_publish_still_returns_its_frame_buffer() {
        let broker = Broker::start_default();
        let tx_chan = channel(&broker, "txf");
        tx_chan.client().disconnect().unwrap();
        let topic = TopicName::new("params/fail").unwrap();
        let sent = blob(vec![4u8; 20_000]);
        for _ in 0..4 {
            assert!(publish(&tx_chan, &topic, &sent).is_err());
        }
        // One allocation, then the failed publishes' buffers come back.
        assert_eq!(tx_chan.buffer_pool().counters(), (1, 3));
    }

    #[test]
    fn wildcard_subscription_sees_all_sessions() {
        let broker = Broker::start_default();
        let rx_chan = channel(&broker, "ps");
        let (tx, rx) = bounded(4);
        rx_chan
            .subscribe(
                &TopicFilter::new("sdflmq/session/+/ps").unwrap(),
                Arc::new(move |b, _| {
                    let _ = tx.send(b.session_id.as_str().to_owned());
                }),
            )
            .unwrap();
        let tx_chan = channel(&broker, "root");
        for sid in ["a", "b"] {
            let mut b = blob(vec![1, 2, 3]);
            b.session_id = SessionId::new(sid).unwrap();
            let topic = TopicName::new(format!("sdflmq/session/{sid}/ps")).unwrap();
            publish(&tx_chan, &topic, &b).unwrap();
        }
        let mut got = vec![
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            rx.recv_timeout(Duration::from_secs(5)).unwrap(),
        ];
        got.sort();
        assert_eq!(got, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn concurrent_senders_to_one_topic() {
        let broker = Broker::start_default();
        let rx_chan = channel(&broker, "agg");
        let (tx, rx) = bounded(8);
        rx_chan
            .subscribe(
                &TopicFilter::new("agg/stack").unwrap(),
                Arc::new(move |b, _| {
                    let _ = tx.send(b.sender.clone());
                }),
            )
            .unwrap();
        let mut handles = Vec::new();
        for i in 0..4 {
            let chan = channel(&broker, &format!("t{i}"));
            handles.push(std::thread::spawn(move || {
                let mut b = blob(vec![0u8; 50_000]);
                b.sender = format!("t{i}");
                publish(&chan, &TopicName::new("agg/stack").unwrap(), &b).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got: Vec<String> = (0..4)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort();
        assert_eq!(got, vec!["t0", "t1", "t2", "t3"]);
    }
}
