//! Broker-side session state.
//!
//! A session outlives its transport connection when the client connected
//! with `clean_session = false`: subscriptions persist, and QoS 1/2 messages
//! destined for the client are queued while it is offline and replayed on
//! reconnect (MQTT 3.1.1 §3.1.2.4).

use crate::packet::{PacketId, QoS};
use crate::topic::{TopicFilter, TopicName};
use bytes::Bytes;
use std::collections::{HashMap, HashSet, VecDeque};

/// Outbound message awaiting acknowledgement from the client.
#[derive(Debug, Clone)]
pub struct InflightOut {
    /// Topic the message targets.
    pub topic: TopicName,
    /// Message payload.
    pub payload: Bytes,
    /// Delivery QoS (1 or 2).
    pub qos: QoS,
    /// Retain flag to set on the (re)transmission.
    pub retain: bool,
    /// QoS 2 state: true once PUBREC has been received and PUBREL sent.
    pub released: bool,
}

/// A message queued for an offline persistent session.
#[derive(Debug, Clone)]
pub struct QueuedMessage {
    /// Topic the message targets.
    pub topic: TopicName,
    /// Message payload.
    pub payload: Bytes,
    /// Delivery QoS granted by the matching subscription.
    pub qos: QoS,
}

/// Per-client session state held by the broker.
#[derive(Debug)]
pub struct Session {
    /// The client identifier that owns this session.
    pub client_id: String,
    /// Whether the session is discarded on disconnect.
    pub clean: bool,
    /// Filter → granted QoS, mirrored into the broker's subscription trie.
    pub subscriptions: HashMap<TopicFilter, QoS>,
    /// Outbound QoS>0 messages awaiting acks, keyed by packet id.
    pub inflight_out: HashMap<PacketId, InflightOut>,
    /// Inbound QoS 2 packet ids seen but not yet released (dedupe set).
    pub inbound_qos2: HashSet<PacketId>,
    /// Messages queued while the session was offline.
    pub queued: VecDeque<QueuedMessage>,
    /// Next packet id to allocate for broker→client deliveries.
    next_packet_id: PacketId,
    /// Cap on the offline queue; oldest messages are dropped beyond it.
    pub max_queued: usize,
}

impl Session {
    /// Creates a fresh session.
    pub fn new(client_id: String, clean: bool, max_queued: usize) -> Self {
        Session {
            client_id,
            clean,
            subscriptions: HashMap::new(),
            inflight_out: HashMap::new(),
            inbound_qos2: HashSet::new(),
            queued: VecDeque::new(),
            next_packet_id: 1,
            max_queued,
        }
    }

    /// Allocates the next free packet id, skipping ids still inflight.
    pub fn alloc_packet_id(&mut self) -> PacketId {
        // Packet ids are u16 and must be non-zero; wrap and skip collisions.
        for _ in 0..=u16::MAX {
            let id = self.next_packet_id;
            self.next_packet_id = self.next_packet_id.wrapping_add(1);
            if self.next_packet_id == 0 {
                self.next_packet_id = 1;
            }
            if id != 0 && !self.inflight_out.contains_key(&id) {
                return id;
            }
        }
        // All 65535 ids inflight: practically unreachable; reuse id 1.
        1
    }

    /// Queues a message for later delivery, honouring the queue cap.
    /// Returns false if an old message had to be dropped to make room.
    pub fn queue_message(&mut self, msg: QueuedMessage) -> bool {
        let mut intact = true;
        while self.queued.len() >= self.max_queued {
            self.queued.pop_front();
            intact = false;
        }
        self.queued.push_back(msg);
        intact
    }

    /// Takes every queued message for replay on reconnect.
    pub fn drain_queued(&mut self) -> Vec<QueuedMessage> {
        self.queued.drain(..).collect()
    }

    /// Takes the current inflight map for retransmission on reconnect
    /// (entries are re-inserted by the broker as it resends with DUP=1),
    /// in packet-id order so the resend order does not vary run to run.
    pub fn take_inflight(&mut self) -> Vec<(PacketId, InflightOut)> {
        let mut inflight: Vec<_> = self.inflight_out.drain().collect();
        inflight.sort_unstable_by_key(|(id, _)| *id);
        inflight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::new("c1".into(), false, 8)
    }

    #[test]
    fn packet_ids_skip_zero_and_inflight() {
        let mut s = session();
        let first = s.alloc_packet_id();
        assert_eq!(first, 1);
        s.inflight_out.insert(
            2,
            InflightOut {
                topic: TopicName::new("t").unwrap(),
                payload: Bytes::new(),
                qos: QoS::AtLeastOnce,
                retain: false,
                released: false,
            },
        );
        assert_eq!(s.alloc_packet_id(), 3, "id 2 is inflight and skipped");
    }

    #[test]
    fn packet_id_wraps_past_u16_max() {
        let mut s = session();
        s.next_packet_id = u16::MAX;
        assert_eq!(s.alloc_packet_id(), u16::MAX);
        assert_eq!(s.alloc_packet_id(), 1, "zero is skipped on wrap");
    }

    #[test]
    fn queue_cap_drops_oldest() {
        let mut s = session();
        for i in 0..10u8 {
            s.queue_message(QueuedMessage {
                topic: TopicName::new("t").unwrap(),
                payload: Bytes::from(vec![i]),
                qos: QoS::AtLeastOnce,
            });
        }
        assert_eq!(s.queued.len(), 8);
        let drained = s.drain_queued();
        assert_eq!(drained.first().unwrap().payload[0], 2, "oldest two dropped");
        assert!(s.queued.is_empty());
    }
}
