//! # sdflmq-sim — discrete-event simulation substrate
//!
//! The virtual-time machinery behind SDFLMQ's delay experiments:
//!
//! * [`time`] — integer-nanosecond virtual clock;
//! * [`event`] — deterministic event-queue simulator;
//! * [`net`] — store-and-forward network with per-link FIFO contention
//!   (the congestion mechanism in the paper's Fig. 8);
//! * [`system`] — per-client memory/CPU models with stochastic drift (the
//!   signal the coordinator's load balancer optimizes over);
//! * [`trace`] — event recording for post-processing.
//!
//! The threaded MQTT stack (`sdflmq-mqtt`) is used by the functional tests
//! and examples; this crate is used where experiments need *controlled,
//! reproducible* timing instead of wall-clock noise (see the `core::simrun`
//! row of "Why there are still two" in `docs/ARCHITECTURE.md`).

#![warn(missing_docs)]

pub mod event;
pub mod net;
pub mod system;
pub mod time;
pub mod trace;

pub use event::Simulator;
pub use net::{LinkModel, Network, NodeLink};
pub use system::{ClientSystem, SystemSpec, SystemStats};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent};
