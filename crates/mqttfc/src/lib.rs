//! # sdflmq-mqttfc — MQTT Fleet Control
//!
//! The remote-function-call infrastructure underneath SDFLMQ (paper
//! §III.B.1): functions are bound to MQTT topics; calling a function means
//! publishing its arguments to that topic. This crate adds the plumbing a
//! real deployment needs:
//!
//! * [`rfc::FleetController`] — expose/call API with correlation ids,
//!   replies, and remote error propagation;
//! * [`batching`] — large payloads are compressed, split into
//!   CRC-protected chunks, and reassembled on the far side (paper §IV);
//! * [`compress`] — from-scratch LZSS, the zlib stand-in;
//! * [`json`] — minimal JSON for stats and topology documents.
//!
//! ## Example
//!
//! ```
//! use sdflmq_mqtt::{Broker, Client, ClientOptions};
//! use sdflmq_mqttfc::FleetController;
//! use std::sync::Arc;
//! use bytes::Bytes;
//!
//! let broker = Broker::start_default();
//! let svc = FleetController::new(
//!     Client::connect(&broker, ClientOptions::new("svc")).unwrap(),
//!     "svc",
//! )
//! .unwrap();
//! svc.expose("ping", Arc::new(|_msg| Ok(Bytes::from_static(b"pong"))))
//!     .unwrap();
//!
//! let cli = FleetController::new(
//!     Client::connect(&broker, ClientOptions::new("cli")).unwrap(),
//!     "cli",
//! )
//! .unwrap();
//! let reply = cli.call_with_reply("ping", Bytes::new()).unwrap();
//! assert_eq!(&reply[..], b"pong");
//! ```

#![warn(missing_docs)]

pub mod batching;
pub mod compress;
pub mod error;
pub mod json;
pub mod rfc;
pub mod wire;

pub use batching::{BatchConfig, PushResult, Reassembler};
pub use error::{Result, RfcError};
pub use json::{Json, JsonError};
pub use rfc::{function_topic, inbox_topic, FleetController, RfcHandler};
pub use wire::{crc32, get_varint, put_varint, Chunk, RfcKind, RfcMessage, WireError};
