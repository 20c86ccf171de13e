//! MQTT 3.1.1 control packet model.
//!
//! The embedded broker speaks real MQTT framing over its in-process links:
//! every packet crossing a [`crate::transport::LinkEnd`] is encoded to bytes by
//! [`crate::codec`] and decoded on the other side, so the wire format is
//! exercised on every message in every test.

use crate::error::ConnectReturnCode;
use crate::topic::{TopicFilter, TopicName};
use bytes::Bytes;

/// Quality-of-service level for a PUBLISH or a subscription grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(u8)]
pub enum QoS {
    /// Fire and forget: no acknowledgement.
    #[default]
    AtMostOnce = 0,
    /// Acknowledged delivery (PUBACK); may duplicate.
    AtLeastOnce = 1,
    /// Assured once-only delivery (PUBREC/PUBREL/PUBCOMP handshake).
    ExactlyOnce = 2,
}

impl QoS {
    /// Decodes a 2-bit QoS field; returns `None` for the reserved value 3.
    pub fn from_u8(b: u8) -> Option<QoS> {
        match b {
            0 => Some(QoS::AtMostOnce),
            1 => Some(QoS::AtLeastOnce),
            2 => Some(QoS::ExactlyOnce),
            _ => None,
        }
    }
}

/// Packet identifier used by QoS>0 flows and subscribe transactions.
pub type PacketId = u16;

/// CONNECT — client requests a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connect {
    /// Client identifier; unique per broker.
    pub client_id: String,
    /// Start a fresh session, discarding stored state.
    pub clean_session: bool,
    /// Keep-alive interval in seconds (0 disables).
    pub keep_alive: u16,
    /// Optional last-will message published on ungraceful disconnect.
    pub will: Option<LastWill>,
}

/// A last-will message registered at CONNECT time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LastWill {
    /// Topic the will is published to.
    pub topic: TopicName,
    /// Will payload.
    pub payload: Bytes,
    /// QoS of the will publication.
    pub qos: QoS,
    /// Whether the will is retained.
    pub retain: bool,
}

/// CONNACK — broker accepts or refuses a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Connack {
    /// True if the broker resumed stored session state.
    pub session_present: bool,
    /// Accept/refuse code.
    pub code: ConnectReturnCode,
}

/// PUBLISH — an application message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Publish {
    /// Set on retransmissions of QoS>0 messages.
    pub dup: bool,
    /// Delivery QoS.
    pub qos: QoS,
    /// Retain flag: broker stores the message for future subscribers.
    pub retain: bool,
    /// Destination topic.
    pub topic: TopicName,
    /// Packet id; present iff `qos > AtMostOnce`.
    pub packet_id: Option<PacketId>,
    /// Application payload.
    pub payload: Bytes,
}

impl Publish {
    /// Convenience constructor for a QoS 0, non-retained message.
    pub fn simple(topic: TopicName, payload: impl Into<Bytes>) -> Self {
        Publish {
            dup: false,
            qos: QoS::AtMostOnce,
            retain: false,
            topic,
            packet_id: None,
            payload: payload.into(),
        }
    }

    /// Total application-level size: topic bytes + payload bytes. Used by
    /// the simulated network to compute transfer delay.
    pub fn wire_size_hint(&self) -> usize {
        self.topic.as_str().len() + self.payload.len()
    }
}

/// SUBSCRIBE — one or more filter requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscribe {
    /// Transaction id echoed in SUBACK.
    pub packet_id: PacketId,
    /// Requested (filter, max-QoS) pairs.
    pub filters: Vec<(TopicFilter, QoS)>,
}

/// SUBACK — per-filter grant results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suback {
    /// Transaction id from the SUBSCRIBE.
    pub packet_id: PacketId,
    /// One entry per requested filter: granted QoS or failure.
    pub return_codes: Vec<SubackCode>,
}

/// A single SUBACK return code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubackCode {
    /// Subscription accepted at the given QoS.
    Granted(QoS),
    /// Subscription refused.
    Failure,
}

impl SubackCode {
    /// Encodes to the wire byte (0/1/2 or 0x80).
    pub fn to_u8(self) -> u8 {
        match self {
            SubackCode::Granted(q) => q as u8,
            SubackCode::Failure => 0x80,
        }
    }

    /// Decodes from the wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0x80 => Some(SubackCode::Failure),
            q => QoS::from_u8(q).map(SubackCode::Granted),
        }
    }
}

/// UNSUBSCRIBE — remove filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsubscribe {
    /// Transaction id echoed in UNSUBACK.
    pub packet_id: PacketId,
    /// Filters to remove.
    pub filters: Vec<TopicFilter>,
}

/// All MQTT 3.1.1 control packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Client → broker session request.
    Connect(Connect),
    /// Broker → client session response.
    Connack(Connack),
    /// Application message, either direction.
    Publish(Publish),
    /// QoS 1 acknowledgement.
    Puback(PacketId),
    /// QoS 2 step 1: receiver got the publish.
    Pubrec(PacketId),
    /// QoS 2 step 2: sender releases the message.
    Pubrel(PacketId),
    /// QoS 2 step 3: receiver completes the handshake.
    Pubcomp(PacketId),
    /// Subscription request.
    Subscribe(Subscribe),
    /// Subscription response.
    Suback(Suback),
    /// Unsubscription request.
    Unsubscribe(Unsubscribe),
    /// Unsubscription response.
    Unsuback(PacketId),
    /// Keep-alive probe.
    Pingreq,
    /// Keep-alive response.
    Pingresp,
    /// Graceful disconnect notice.
    Disconnect,
}

impl Packet {
    /// Human-readable packet type name, used in traces and stats.
    pub fn type_name(&self) -> &'static str {
        match self {
            Packet::Connect(_) => "CONNECT",
            Packet::Connack(_) => "CONNACK",
            Packet::Publish(_) => "PUBLISH",
            Packet::Puback(_) => "PUBACK",
            Packet::Pubrec(_) => "PUBREC",
            Packet::Pubrel(_) => "PUBREL",
            Packet::Pubcomp(_) => "PUBCOMP",
            Packet::Subscribe(_) => "SUBSCRIBE",
            Packet::Suback(_) => "SUBACK",
            Packet::Unsubscribe(_) => "UNSUBSCRIBE",
            Packet::Unsuback(_) => "UNSUBACK",
            Packet::Pingreq => "PINGREQ",
            Packet::Pingresp => "PINGRESP",
            Packet::Disconnect => "DISCONNECT",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_decoding() {
        assert_eq!(QoS::from_u8(0), Some(QoS::AtMostOnce));
        assert_eq!(QoS::from_u8(1), Some(QoS::AtLeastOnce));
        assert_eq!(QoS::from_u8(2), Some(QoS::ExactlyOnce));
        assert_eq!(QoS::from_u8(3), None);
    }

    #[test]
    fn qos_ordering_supports_min_grant() {
        // Overlapping subscriptions grant min(requested, published).
        assert!(QoS::AtMostOnce < QoS::AtLeastOnce);
        assert!(QoS::AtLeastOnce < QoS::ExactlyOnce);
        assert_eq!(QoS::ExactlyOnce.min(QoS::AtLeastOnce), QoS::AtLeastOnce);
    }

    #[test]
    fn suback_code_roundtrip() {
        for code in [
            SubackCode::Granted(QoS::AtMostOnce),
            SubackCode::Granted(QoS::AtLeastOnce),
            SubackCode::Granted(QoS::ExactlyOnce),
            SubackCode::Failure,
        ] {
            assert_eq!(SubackCode::from_u8(code.to_u8()), Some(code));
        }
        assert_eq!(SubackCode::from_u8(0x03), None);
    }

    #[test]
    fn publish_size_hint_counts_topic_and_payload() {
        let p = Publish::simple(TopicName::new("a/b").unwrap(), vec![0u8; 10]);
        assert_eq!(p.wire_size_hint(), 3 + 10);
    }
}
