//! Error types for the embedded MQTT stack.

use std::fmt;

/// Errors produced by the MQTT codec, broker, and client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MqttError {
    /// A topic name or filter failed validation.
    InvalidTopic(String),
    /// The wire codec encountered a malformed packet.
    Malformed(&'static str),
    /// The remaining-length prefix exceeds the protocol maximum (268 435 455).
    RemainingLengthOverflow,
    /// A packet was truncated: more bytes were expected.
    UnexpectedEof,
    /// The packet type nibble is unknown or reserved.
    UnknownPacketType(u8),
    /// The broker rejected a CONNECT packet.
    ConnectionRefused(ConnectReturnCode),
    /// The peer closed the connection or the transport channel is gone.
    Disconnected,
    /// An operation was attempted on a client that is not connected.
    NotConnected,
    /// The client id is empty or otherwise unusable.
    InvalidClientId(String),
    /// A blocking operation timed out.
    Timeout,
    /// The broker's event queue is full or closed.
    BrokerUnavailable,
    /// Every packet id (1..=65,535) belongs to an unacknowledged publish.
    PacketIdsExhausted,
}

impl fmt::Display for MqttError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MqttError::InvalidTopic(t) => write!(f, "invalid topic: {t:?}"),
            MqttError::Malformed(what) => write!(f, "malformed packet: {what}"),
            MqttError::RemainingLengthOverflow => write!(f, "remaining length overflow"),
            MqttError::UnexpectedEof => write!(f, "unexpected end of packet"),
            MqttError::UnknownPacketType(b) => write!(f, "unknown packet type {b:#x}"),
            MqttError::ConnectionRefused(rc) => write!(f, "connection refused: {rc:?}"),
            MqttError::Disconnected => write!(f, "disconnected"),
            MqttError::NotConnected => write!(f, "client not connected"),
            MqttError::InvalidClientId(id) => write!(f, "invalid client id: {id:?}"),
            MqttError::Timeout => write!(f, "operation timed out"),
            MqttError::BrokerUnavailable => write!(f, "broker unavailable"),
            MqttError::PacketIdsExhausted => write!(f, "every packet id is in flight"),
        }
    }
}

impl std::error::Error for MqttError {}

/// CONNACK return codes (MQTT 3.1.1 §3.2.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ConnectReturnCode {
    /// Connection accepted.
    Accepted = 0,
    /// The broker does not support the requested protocol level.
    UnacceptableProtocol = 1,
    /// The client identifier is well-formed but not allowed.
    IdentifierRejected = 2,
    /// The broker is unavailable.
    ServerUnavailable = 3,
    /// Bad user name or password (unused by the embedded broker).
    BadCredentials = 4,
    /// The client is not authorized to connect.
    NotAuthorized = 5,
}

impl ConnectReturnCode {
    /// Decodes a return code byte, mapping unknown values to `ServerUnavailable`.
    pub fn from_u8(b: u8) -> Self {
        match b {
            0 => ConnectReturnCode::Accepted,
            1 => ConnectReturnCode::UnacceptableProtocol,
            2 => ConnectReturnCode::IdentifierRejected,
            3 => ConnectReturnCode::ServerUnavailable,
            4 => ConnectReturnCode::BadCredentials,
            5 => ConnectReturnCode::NotAuthorized,
            _ => ConnectReturnCode::ServerUnavailable,
        }
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, MqttError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(
            MqttError::InvalidTopic("a/#/b".into()).to_string(),
            "invalid topic: \"a/#/b\""
        );
        assert_eq!(
            MqttError::UnexpectedEof.to_string(),
            "unexpected end of packet"
        );
    }

    #[test]
    fn return_code_roundtrip() {
        for b in 0u8..=5 {
            assert_eq!(ConnectReturnCode::from_u8(b) as u8, b);
        }
        assert_eq!(
            ConnectReturnCode::from_u8(42),
            ConnectReturnCode::ServerUnavailable
        );
    }
}
