//! Error types for the SDFLMQ core.

use crate::ids::InvalidId;
use sdflmq_mqtt::MqttError;
use sdflmq_mqttfc::RfcError;
use std::fmt;

/// Errors surfaced by coordinator, client, and parameter-server logic.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying MQTT failure.
    Mqtt(MqttError),
    /// Underlying RFC failure.
    Rfc(RfcError),
    /// Malformed or unexpected protocol message.
    Protocol(String),
    /// An identifier failed validation.
    Id(InvalidId),
    /// The session is unknown to this node.
    UnknownSession(String),
    /// Session creation/join was refused; the string carries the reason.
    Refused(String),
    /// The session was aborted; the string carries the reason.
    Aborted(String),
    /// A blocking wait ran out of time.
    Timeout,
    /// An operation needed a registered model but none was set.
    NoModel(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Mqtt(e) => write!(f, "mqtt: {e}"),
            CoreError::Rfc(e) => write!(f, "rfc: {e}"),
            CoreError::Protocol(msg) => write!(f, "protocol: {msg}"),
            CoreError::Id(e) => write!(f, "{e}"),
            CoreError::UnknownSession(s) => write!(f, "unknown session {s:?}"),
            CoreError::Refused(msg) => write!(f, "refused: {msg}"),
            CoreError::Aborted(msg) => write!(f, "session aborted: {msg}"),
            CoreError::Timeout => write!(f, "timed out"),
            CoreError::NoModel(s) => write!(f, "no model registered for session {s:?}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<MqttError> for CoreError {
    fn from(e: MqttError) -> Self {
        CoreError::Mqtt(e)
    }
}

impl From<RfcError> for CoreError {
    fn from(e: RfcError) -> Self {
        CoreError::Rfc(e)
    }
}

impl From<InvalidId> for CoreError {
    fn from(e: InvalidId) -> Self {
        CoreError::Id(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;
