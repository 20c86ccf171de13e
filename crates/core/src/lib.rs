//! # sdflmq-core — semi-decentralized federated learning over MQTT
//!
//! The Rust implementation of **SDFLMQ** (Ali-Pour & Gascon-Samson,
//! IPDPSW/PAISE 2025): federated learning whose coordination rides MQTT
//! topics. Roles (trainer / aggregator / trainer-aggregator) map to
//! *positional topics*; a coordinator clusters the contributors, assigns
//! roles by publishing to per-client control functions, and rebalances
//! aggregation duty between rounds from reported system stats. Model
//! parameters never touch the coordinator: they flow trainer → cluster
//! head → root, and the root broadcasts the global to every contributor
//! and the parameter server.
//!
//! Three node types, mirroring the paper's architecture (Fig. 3):
//!
//! * [`coordinator::Coordinator`] — session manager, clustering engine,
//!   load balancer (pluggable [`optimizer::RoleOptimizer`] policies);
//! * [`client::SdflmqClient`] — the contributor API (`create_fl_session`,
//!   `join_fl_session`, `set_model`, `send_local`, `wait_global_update`),
//!   with the role arbiter and aggregation pipeline inside;
//! * [`param_server::ParamServer`] — the global model repository, a
//!   subscriber of every session's global topic.
//!
//! Two execution substrates share all the planning logic:
//!
//! * the *threaded runtime* over the real embedded broker
//!   (`sdflmq-mqtt`) — every byte crosses real MQTT frames;
//! * the *virtual-time simulator* ([`simrun`]) — deterministic delay
//!   measurements for the paper's Fig. 8 experiments.
//!
//! All coordination traffic, and every blob's metadata header, travels as
//! one compact binary [`wirecodec`] frame format, described in
//! `docs/PROTOCOL.md`.
//!
//! Rounds are **dropout-tolerant**: quorum-based closure, straggler
//! eviction, and mid-round aggregator re-delegation keep a session alive
//! under participant churn instead of aborting on the first blown
//! deadline (see `docs/PROTOCOL.md`, "Dropout-tolerant round lifecycle").

#![warn(missing_docs)]

pub mod aggregation;
pub mod blob;
pub mod bufpool;
pub mod client;
pub mod clock;
pub mod clustering;
pub mod coordinator;
pub mod error;
pub mod genetic;
pub mod ids;
pub mod messages;
pub mod model_controller;
pub mod optimizer;
pub mod param_server;
pub mod roles;
pub mod session;
pub mod simrun;
pub mod topics;
pub mod wirecodec;

pub use aggregation::{Accumulator, AggregationMethod, CoordinateMedian, FedAvg, TrimmedMean};
pub use bufpool::BufferPool;
pub use client::{DataPlaneStats, SdflmqClient, SdflmqClientConfig, WaitOutcome};
pub use clock::{wall_clock, Clock, TestClock, WallClock};
pub use clustering::{build_plan, diff_plans, ClientInfo, ClusterPlan, Topology};
pub use coordinator::{Coordinator, CoordinatorConfig, COORDINATOR_ID};
pub use error::{CoreError, Result};
pub use genetic::{GeneticConfig, GeneticPlacement};
pub use ids::{ClientId, ModelId, SessionId};
pub use messages::UpdateMeta;
pub use optimizer::{
    CompositeScore, MemoryAware, RandomPlacement, RoleOptimizer, RoundRobin, StaticOrder,
};
pub use param_server::{ParamServer, PARAM_SERVER_ID};
pub use roles::{PreferredRole, Role, RoleSpec};
pub use sdflmq_nn::codec::UpdateCodec;
pub use simrun::{simulate, RoundBreakdown, SimConfig, SimReport};
pub use topics::Position;
pub use wirecodec::{ControlMsg, MsgKind, WireVersion};
