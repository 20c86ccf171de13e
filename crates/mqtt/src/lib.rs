//! # sdflmq-mqtt — embedded MQTT broker and client
//!
//! A self-contained, in-process MQTT 3.1.1-style messaging substrate built
//! for the SDFLMQ federated-learning framework. It provides everything the
//! paper's deployment outsources to EMQX:
//!
//! * a sharded [`broker::Broker`] with snapshot-routed topic-trie matching
//!   ([`index::SharedIndex`]), encode-once fan-out, QoS 0/1/2, retained
//!   messages, persistent sessions, last-will, and deadline-driven
//!   keep-alive expiry;
//! * a threaded [`client::Client`] with blocking QoS handshakes and
//!   handler-based dispatch;
//! * [`bridge::Bridge`] — broker bridging with loop prevention, used to
//!   regionalize SDFL clusters (paper §III.F);
//! * a real wire [`codec`]: every message crossing an in-process
//!   [`transport::LinkEnd`] is a fully encoded MQTT frame.
//!
//! ## Quick start
//!
//! ```
//! use sdflmq_mqtt::{Broker, Client, ClientOptions, QoS};
//! use std::time::Duration;
//!
//! let broker = Broker::start_default();
//! let sub = Client::connect(&broker, ClientOptions::new("sub")).unwrap();
//! sub.subscribe_str("greetings/#", QoS::AtMostOnce).unwrap();
//!
//! let publ = Client::connect(&broker, ClientOptions::new("pub")).unwrap();
//! publ.publish_str("greetings/hello", b"hi".as_slice(), QoS::AtLeastOnce, false)
//!     .unwrap();
//!
//! let msg = sub.recv_timeout(Duration::from_secs(1)).unwrap();
//! assert_eq!(&msg.payload[..], b"hi");
//! ```

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod bridge;
pub mod broker;
pub mod client;
pub mod codec;
mod crc32;
pub mod error;
pub mod fault;
mod fnv;
pub mod index;
pub mod packet;
pub mod persist;
pub mod reactor;
pub mod retained;
pub mod session;
pub mod stats;
pub mod topic;
pub mod transport;
pub mod trie;

pub use bridge::{Bridge, BridgeConfig, BridgeDirection, BridgeTopic};
pub use broker::{Broker, BrokerConfig, BRIDGE_PREFIX};
pub use client::{Client, ClientOptions, Dialer, MessageHandler};
pub use crc32::{crc32, crc32_combine};
pub use error::{ConnectReturnCode, MqttError, Result};
pub use fault::{FaultAction, FaultHandle, FaultPlan, FaultRule};
pub use fnv::fnv1a64;
pub use packet::{LastWill, Packet, Publish, QoS};
pub use persist::{Durability, Persistence, WalOverflow};
pub use stats::BrokerStatsSnapshot;
pub use topic::{TopicFilter, TopicName};
