//! # sdflmq — semi-decentralized federated learning over MQTT, in Rust
//!
//! Umbrella crate re-exporting the SDFLMQ workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `sdflmq-core` | coordinator, client, parameter server, clustering, role optimizers, aggregation, virtual-time simulator |
//! | [`mqtt`] | `sdflmq-mqtt` | embedded MQTT broker/client/bridging substrate |
//! | [`mqttfc`] | `sdflmq-mqttfc` | topic-bound RFC layer with batching + compression |
//! | [`nn`] | `sdflmq-nn` | flat-parameter MLP, losses, optimizers, training loop |
//! | [`dataset`] | `sdflmq-dataset` | synthetic digit data + federated partitioning |
//! | [`sim`] | `sdflmq-sim` | virtual clock, event queue, network & system models |
//!
//! `examples/quickstart.rs` is the shortest full FL session; `docs/`
//! holds the design (`ARCHITECTURE.md`, `PROTOCOL.md`, `PERSISTENCE.md`,
//! `TESTING.md`), `ROADMAP.md` the open items, and `benchmark/` the
//! round-level benchmark every performance claim is made against.

pub use sdflmq_core as core;
pub use sdflmq_dataset as dataset;
pub use sdflmq_mqtt as mqtt;
pub use sdflmq_mqttfc as mqttfc;
pub use sdflmq_nn as nn;
pub use sdflmq_sim as sim;
