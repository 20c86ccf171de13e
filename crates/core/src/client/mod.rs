//! The SDFLMQ client (paper §III.C and Listing 1).
//!
//! One [`SdflmqClient`] embeds everything a contributor needs:
//!
//! * the **role arbiter** — consumes `set_role` commands, manages the
//!   position-topic subscription that *is* the aggregation role;
//! * the **aggregation pipeline** — a per-round parameter stack keyed by
//!   sender (so re-sent contributions after a mid-round re-delegation
//!   deduplicate instead of double-counting); when the expected number of
//!   distinct contributions arrives it aggregates and forwards up the
//!   hierarchy, or, at the root, publishes it as the round's global;
//! * the **model controller** — per-session local model storage;
//! * the **global update synchronizer** — applies the root's global
//!   broadcast (the root applies its own, as it comes back on its
//!   subscription) and reports round completion (with fresh system
//!   stats) back to the coordinator.
//!
//! The public surface mirrors the paper's Python API: `create_fl_session`,
//! `join_fl_session`, `set_model`, `send_local`, `wait_global_update`.
//!
//! Dropout tolerance: every contribution is announced to the coordinator
//! with a lightweight `contrib` liveness ping; a `round_start`
//! re-announcement for the *current* round (mid-round re-delegation) makes
//! the client re-send its stored contribution to its — possibly new —
//! parent; and an `evicted` command tears the session handle down,
//! surfacing [`WaitOutcome::Evicted`] to the training loop.
//!
//! **Layout.** Every decision above is made in `core.rs` by a `NodeCore`
//! that does no I/O and never reads a clock. This file is the glue: MQTT,
//! the model controller, the codecs, the clock and the one blocking wait.
//! `docs/ARCHITECTURE.md` has the module map.

mod core;
#[cfg(test)]
mod tests;

use self::core::{Body, Effect, Effects, NodeCore, Publish};
use crate::aggregation::{AggregationMethod, FedAvg};
use crate::blob::BlobChannel;
use crate::bufpool::BufferPool;
use crate::clock::{wait_slice, wall_clock, Clock};
use crate::error::{CoreError, Result};
use crate::ids::{ClientId, ModelId, SessionId};
use crate::messages::{
    Blob, ContribMsg, JoinRequest, NewSessionRequest, RoundDone, StatsMsg, UpdateMeta,
};
use crate::model_controller::ModelController;
use crate::roles::{PreferredRole, RoleSpec};
use crate::topics::{functions, global_topic};
use crate::wirecodec::{ControlMsg, MsgKind};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use sdflmq_mqtt::client::Dialer;
use sdflmq_mqtt::{Broker, Client, ClientOptions, TopicFilter, TopicName};
use sdflmq_mqttfc::{BatchConfig, FleetController};
use sdflmq_nn::codec::UpdateCodec;
use sdflmq_nn::parallel::WorkerPool;
use sdflmq_sim::{ClientSystem, SystemSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client configuration.
pub struct SdflmqClientConfig {
    /// Aggregation rule used when this client holds an aggregator position.
    pub aggregation: Box<dyn AggregationMethod>,
    /// Simulated machine profile (the psutil stand-in; see
    /// `sdflmq_sim::system`).
    pub system: SystemSpec,
    /// Seed for the system model's load drift.
    pub system_seed: u64,
    /// The richest update codec this client supports (and volunteers for
    /// its sessions' data plane). The coordinator negotiates the session
    /// codec as the floor across all members, so a single dense-only
    /// member keeps everyone on dense f32.
    pub update_codec: UpdateCodec,
    /// Time source for blocking waits (`send_local`'s round gate and
    /// `wait_global_update`). Wall clock in production; a
    /// [`crate::clock::TestClock`] measures those timeouts in virtual
    /// time so scenario tests can step through them deterministically.
    pub clock: Arc<dyn Clock>,
    /// Optional broker redial factory. When set, the MQTT layer connects
    /// with a persistent session (`clean_session = false`) and
    /// transparently reconnects after a broker restart, resuming its QoS
    /// windows and offline queue from broker-persisted state.
    pub dialer: Option<Dialer>,
    /// Worker threads for the data-plane chunk kernels (codec encode/
    /// decode and the aggregation fold). `0` shares the process-wide pool
    /// sized from available parallelism; any other value gives this
    /// client its own pool of exactly that many threads. Output is
    /// bit-identical at every setting — the chunk layout is a function of
    /// the model length, never the thread count.
    pub data_plane_threads: usize,
}

impl Default for SdflmqClientConfig {
    fn default() -> Self {
        SdflmqClientConfig {
            aggregation: Box::new(FedAvg),
            system: SystemSpec::edge_medium(),
            system_seed: 0,
            update_codec: UpdateCodec::Dense,
            clock: wall_clock(),
            dialer: None,
            data_plane_threads: 0,
        }
    }
}

/// Data-plane health counters for one client (see
/// [`SdflmqClient::data_plane_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataPlaneStats {
    /// Transfers the blob channel received but discarded: corrupt chunks,
    /// reassembly failures, unparseable blob frames.
    pub dropped_transfers: u64,
    /// Well-framed blobs whose *payload* could not be decoded: unknown
    /// codec id, corrupt encoding, or a delta against a base this client
    /// does not hold.
    pub undecodable_updates: u64,
    /// Microseconds spent encoding outgoing updates and aggregates.
    pub encode_us: u64,
    /// Microseconds spent decoding inbound contributions and globals to
    /// `f32`s: the wall time of each payload decode on the thread that
    /// received it, from the codec header check to the filled vector.
    /// That includes waiting for the model-controller lock (delta codecs
    /// only) and, for fp16/int8/top-k, handing chunks to the worker pool
    /// and waiting for them; dense payloads are one copy on the calling
    /// thread. Reassembly, blob framing and folding are not in it.
    pub decode_us: u64,
    /// Microseconds spent folding contributions into aggregation stacks:
    /// the wall time of each node-core call that may fold (a received
    /// contribution, `send_local`, a control message), taken under the
    /// core lock, plus the final `finish` of each flush.
    pub fold_us: u64,
}

impl DataPlaneStats {
    /// Encode time in milliseconds.
    pub fn encode_ms(&self) -> f64 {
        self.encode_us as f64 / 1000.0
    }

    /// Decode time in milliseconds.
    pub fn decode_ms(&self) -> f64 {
        self.decode_us as f64 / 1000.0
    }

    /// Fold time in milliseconds.
    pub fn fold_ms(&self) -> f64 {
        self.fold_us as f64 / 1000.0
    }
}

/// Events surfaced to [`SdflmqClient::wait_global_update`].
#[derive(Debug, Clone, PartialEq)]
pub enum WaitOutcome {
    /// The global model was applied and the coordinator opened `round`.
    NextRound(u32),
    /// The session finished; the final global model is in the controller.
    Completed,
    /// The coordinator evicted this client (dropout/straggling); the
    /// session continues without it and the local handle was torn down.
    Evicted,
}

struct Inner {
    id: ClientId,
    fc: FleetController,
    blobs: BlobChannel,
    core: Mutex<NodeCore>,
    /// Notified after every control message, which is what opens a round
    /// or ends a session: the one condition blocking calls wait on.
    changed: Condvar,
    mc: Mutex<ModelController>,
    system: Mutex<ClientSystem>,
    /// The richest update codec this client supports (advertised at join).
    update_codec: UpdateCodec,
    clock: Arc<dyn Clock>,
    /// Chunk-kernel workers for the codecs and the fold.
    workers: Arc<WorkerPool>,
    /// Recycles model-sized encode buffers and decode scratch.
    pool: Arc<BufferPool>,
    /// Cumulative data-plane timings (see [`DataPlaneStats`]).
    encode_us: AtomicU64,
    decode_us: AtomicU64,
    fold_us: AtomicU64,
}

/// A connected SDFLMQ contributor.
#[derive(Clone)]
pub struct SdflmqClient {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SdflmqClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SdflmqClient")
            .field("id", &self.inner.id.as_str())
            .finish()
    }
}

impl SdflmqClient {
    /// Connects a contributor to the broker and exposes its control
    /// function.
    pub fn connect(
        broker: &Broker,
        id: ClientId,
        config: SdflmqClientConfig,
    ) -> Result<SdflmqClient> {
        let mut mqtt_options = ClientOptions::new(id.as_str());
        if let Some(dialer) = config.dialer.clone() {
            // A redialing client keeps a broker-side persistent session so
            // QoS windows and queued messages survive the reconnect.
            mqtt_options.clean_session = false;
            mqtt_options.dialer = Some(dialer);
        }
        let mqtt = Client::connect(broker, mqtt_options)?;
        let fc = FleetController::new(mqtt.clone(), id.as_str())?;
        let blobs = BlobChannel::new(mqtt, id.as_str(), BatchConfig::default());
        let workers = if config.data_plane_threads == 0 {
            WorkerPool::global()
        } else {
            Arc::new(WorkerPool::new(config.data_plane_threads))
        };
        let inner = Arc::new(Inner {
            id: id.clone(),
            fc: fc.clone(),
            blobs,
            core: Mutex::new(NodeCore::new(
                id.as_str(),
                config.aggregation,
                config.update_codec,
            )),
            changed: Condvar::new(),
            mc: Mutex::new(ModelController::new()),
            system: Mutex::new(ClientSystem::new(config.system, config.system_seed)),
            update_codec: config.update_codec,
            clock: config.clock,
            workers,
            pool: BufferPool::new(),
            encode_us: AtomicU64::new(0),
            decode_us: AtomicU64::new(0),
            fold_us: AtomicU64::new(0),
        });

        // Control function: role arbiter + session lifecycle.
        let ctrl_inner = Arc::downgrade(&inner);
        fc.expose(
            &functions::client_ctrl(id.as_str()),
            Arc::new(move |msg| {
                let Some(inner) = ctrl_inner.upgrade() else {
                    return Err("client gone".into());
                };
                let decoded =
                    ControlMsg::decode(MsgKind::Ctrl, &msg.payload).map_err(|e| e.to_string())?;
                let ControlMsg::Ctrl { session, msg: ctrl } = decoded else {
                    return Err("expected a ctrl frame".into());
                };
                let effects = inner.folding(|core, workers| core.on_ctrl(&session, ctrl, workers));
                inner.changed.notify_all();
                let executed = effects.and_then(|effects| inner.execute(effects));
                executed.map_err(|e| e.to_string())?;
                Ok(Bytes::new())
            }),
        )?;

        Ok(SdflmqClient { inner })
    }

    /// The client's id.
    pub fn id(&self) -> &ClientId {
        &self.inner.id
    }

    /// Creates a new FL session on the coordinator and joins it
    /// (Listing 1: `create_fl_session`).
    #[allow(clippy::too_many_arguments)]
    pub fn create_fl_session(
        &self,
        session_id: &SessionId,
        model_name: &ModelId,
        session_time: Duration,
        capacity_min: usize,
        capacity_max: usize,
        waiting_time: Duration,
        fl_rounds: u32,
        preferred_role: PreferredRole,
        num_samples: u64,
    ) -> Result<()> {
        let req = NewSessionRequest {
            session_id: session_id.clone(),
            client_id: self.inner.id.clone(),
            model_name: model_name.clone(),
            session_time_secs: session_time.as_secs_f64(),
            capacity_min,
            capacity_max,
            waiting_time_secs: waiting_time.as_secs_f64(),
            fl_rounds,
            preferred_role,
            codec: self.inner.update_codec.id(),
        };
        self.inner
            .fc
            .call_with_reply(functions::NEW_SESSION, ControlMsg::NewSession(req).encode())
            .map_err(map_remote)?;
        self.join_fl_session(session_id, model_name, preferred_role, num_samples)
    }

    /// Joins an existing session (Listing 1: `join_fl_session`). A join
    /// that fails leaves nothing behind, so it can be retried.
    pub fn join_fl_session(
        &self,
        session_id: &SessionId,
        model_name: &ModelId,
        preferred_role: PreferredRole,
        num_samples: u64,
    ) -> Result<()> {
        // Register local state and subscribe the global-update
        // synchronizer *before* the coordinator can start the session.
        self.inner.core.lock().join(session_id, num_samples)?;
        let joined = self.join_remote(session_id, model_name, preferred_role, num_samples);
        if joined.is_err() {
            let teardown = self.inner.core.lock().leave(session_id);
            let _ = self.inner.execute(teardown);
        }
        joined
    }

    fn join_remote(
        &self,
        session_id: &SessionId,
        model_name: &ModelId,
        preferred_role: PreferredRole,
        num_samples: u64,
    ) -> Result<()> {
        let global = global_topic(session_id);
        self.inner.subscribe(session_id, global, Inner::on_global)?;

        let stats = StatsMsg::from_stats(self.inner.system.lock().stats());
        let req = JoinRequest {
            session_id: session_id.clone(),
            client_id: self.inner.id.clone(),
            model_name: model_name.clone(),
            preferred_role,
            num_samples,
            stats,
            codec: self.inner.update_codec.id(),
        };
        self.inner
            .fc
            .call_with_reply(functions::JOIN_SESSION, ControlMsg::Join(req).encode())
            .map_err(map_remote)?;
        Ok(())
    }

    /// Data-plane health counters: transfers dropped by the blob channel
    /// and payloads that failed to decode. Monotonic over the client's
    /// lifetime, across all its sessions.
    pub fn data_plane_stats(&self) -> DataPlaneStats {
        DataPlaneStats {
            dropped_transfers: self.inner.blobs.dropped_transfers(),
            undecodable_updates: self.inner.core.lock().undecodable,
            encode_us: self.inner.encode_us.load(Ordering::Relaxed),
            decode_us: self.inner.decode_us.load(Ordering::Relaxed),
            fold_us: self.inner.fold_us.load(Ordering::Relaxed),
        }
    }

    /// Registers the local model for a session (Listing 1: `set_model`).
    pub fn set_model(&self, session_id: &SessionId, params: &[f32]) -> Result<()> {
        let num_samples = self.inner.core.lock().session(session_id)?.num_samples;
        self.inner
            .mc
            .lock()
            .set_model(session_id, params.to_vec(), num_samples);
        Ok(())
    }

    /// Sends the local model for global aggregation (Listing 1:
    /// `send_local`). Trainers publish to their cluster head's position
    /// topic; aggregating clients feed their own stack directly. The
    /// contribution is also announced to the coordinator (`contrib`
    /// liveness ping) and retained locally so a mid-round re-delegation
    /// can re-send it.
    pub fn send_local(&self, session_id: &SessionId) -> Result<()> {
        let (params, weight) = {
            let mc = self.inner.mc.lock();
            let entry = mc.get(session_id)?;
            if entry.params.is_empty() {
                // A global-tracking entry (created by a broadcast arriving
                // before `set_model`) is not a local model.
                return Err(CoreError::NoModel(session_id.as_str().to_owned()));
            }
            (Arc::clone(&entry.params), entry.num_samples)
        };
        // Block until the coordinator has opened a round (the session may
        // still be forming when the first `send_local` is issued).
        let round = self
            .inner
            .wait_for(session_id, Duration::from_secs(120), |core| {
                core.poll_gate(session_id)
            })?;
        let effects = self
            .inner
            .folding(|core, workers| core.send_local(session_id, round, params, weight, workers))?;
        self.inner.execute(effects)
    }

    /// Blocks until the next global update cycle completes (Listing 1:
    /// `wait_global_update`): returns when the coordinator opens the next
    /// round, completes the session, evicts this client, or aborts.
    pub fn wait_global_update(
        &self,
        session_id: &SessionId,
        timeout: Duration,
    ) -> Result<WaitOutcome> {
        self.inner
            .wait_for(session_id, timeout, |core| core.poll_outcome(session_id))
    }

    /// Current model parameters for a session (after `wait_global_update`
    /// this is the global model).
    pub fn model_params(&self, session_id: &SessionId) -> Result<Vec<f32>> {
        Ok(self.inner.mc.lock().get(session_id)?.params.to_vec())
    }

    /// The last global round applied for a session.
    pub fn global_round(&self, session_id: &SessionId) -> Result<u32> {
        Ok(self.inner.mc.lock().get(session_id)?.global_round)
    }

    /// The role currently assigned by the coordinator, if any.
    pub fn current_role(&self, session_id: &SessionId) -> Option<RoleSpec> {
        self.inner.core.lock().session(session_id).ok()?.role
    }
}

impl Inner {
    /// The one blocking wait: parks on `changed` until `poll` answers for
    /// a known session, or `timeout` passes on the client's clock (polled
    /// in short wall-time slices when the clock is virtual).
    fn wait_for<T>(
        &self,
        session_id: &SessionId,
        timeout: Duration,
        mut poll: impl FnMut(&mut NodeCore) -> Option<Result<T>>,
    ) -> Result<T> {
        let deadline = self.clock.now() + timeout;
        let mut core = self.core.lock();
        core.session(session_id)?;
        loop {
            if let Some(answer) = poll(&mut core) {
                return answer;
            }
            let Some(slice) = wait_slice(&*self.clock, deadline) else {
                return Err(CoreError::Timeout);
            };
            self.changed.wait_until(&mut core, Instant::now() + slice);
        }
    }

    /// Runs one core input that may fold, under the core lock and on this
    /// client's workers; its wall time lands in `fold_us`.
    fn folding<T>(&self, input: impl FnOnce(&mut NodeCore, &WorkerPool) -> T) -> T {
        let mut core = self.core.lock();
        let start = Instant::now();
        let out = input(&mut core, &self.workers);
        add_micros(&self.fold_us, start);
        out
    }

    /// Carries out a core decision in order, stopping at the first failed
    /// publish or subscription; coordinator calls are best-effort.
    fn execute(self: &Arc<Self>, effects: Effects) -> Result<()> {
        let Effects { session, list } = effects;
        for effect in list {
            match effect {
                Effect::Publish(publish) => self.publish(&session, publish)?,
                Effect::Contrib(round) => {
                    let ping = ContribMsg {
                        session_id: session.clone(),
                        client_id: self.id.clone(),
                        round,
                    };
                    self.call(functions::CONTRIB, ControlMsg::Contrib(ping));
                }
                Effect::RoundDone(round) => {
                    // Paper §III.E.4: readiness plus fresh system stats.
                    let stats = {
                        let mut system = self.system.lock();
                        system.drift();
                        StatsMsg::from_stats(system.stats())
                    };
                    let report = RoundDone {
                        session_id: session.clone(),
                        client_id: self.id.clone(),
                        round,
                        stats,
                    };
                    self.call(functions::ROUND_DONE, ControlMsg::RoundDone(report));
                }
                Effect::Subscribe(topic) => {
                    self.subscribe(&session, topic, Inner::on_contribution)?;
                }
                Effect::Unsubscribe(topic) => {
                    let _ = self.blobs.unsubscribe(&filter(topic));
                }
            }
        }
        Ok(())
    }

    fn call(&self, function: &str, msg: ControlMsg) {
        let _ = self.fc.call(function, msg.encode());
    }

    /// Encodes a body that needs it into a pooled buffer — a fresh update
    /// (handed back to the core for re-sends) or an aggregate (residual
    /// discarded: no error feedback up the relay) — and publishes the
    /// blob. The pool reclaims the buffer once every handle is gone.
    fn publish(&self, session_id: &SessionId, publish: Publish) -> Result<()> {
        let (payload, update, lend) = match publish.body {
            Body::Cached(payload, update) => (payload, update, false),
            Body::Fresh(params) => {
                let mut buf = self.pool.take_bytes();
                let start = Instant::now();
                let update = self.mc.lock().encode_update_into(
                    session_id,
                    publish.codec,
                    &params,
                    &self.workers,
                    &mut buf,
                )?;
                add_micros(&self.encode_us, start);
                let payload = Bytes::from(buf);
                let cached = payload.clone();
                self.core
                    .lock()
                    .cache_encoding(session_id, publish.round, cached, update);
                (payload, update, true)
            }
            Body::Aggregate(acc) => {
                let start = Instant::now();
                let aggregated = acc.finish()?;
                add_micros(&self.fold_us, start);
                let mut buf = self.pool.take_bytes();
                let mut scratch = self.pool.take_floats();
                let start = Instant::now();
                let update = self.mc.lock().encode_aggregate_into(
                    session_id,
                    publish.codec,
                    &aggregated,
                    &self.workers,
                    &mut scratch,
                    &mut buf,
                );
                add_micros(&self.encode_us, start);
                self.pool.put_floats(scratch);
                (Bytes::from(buf), update, true)
            }
        };
        let blob = Blob {
            session_id: session_id.clone(),
            round: publish.round,
            sender: self.id.as_str().to_owned(),
            weight: publish.weight,
            params: payload.clone(),
        };
        let result = self.blobs.publish_update(&publish.topic, &blob, &update);
        drop(blob);
        if lend {
            self.pool.lend(payload);
        }
        result
    }

    /// Subscribes `on_blob` to a topic's complete blobs of this session.
    fn subscribe(
        self: &Arc<Self>,
        session_id: &SessionId,
        topic: TopicName,
        on_blob: fn(&Arc<Inner>, &SessionId, Blob, &UpdateMeta),
    ) -> Result<()> {
        let inner = Arc::downgrade(self);
        let sid = session_id.clone();
        self.blobs.subscribe(
            &filter(topic),
            Arc::new(
                move |blob: Blob, update: UpdateMeta| match inner.upgrade() {
                    Some(inner) if blob.session_id == sid => on_blob(&inner, &sid, blob, &update),
                    _ => {}
                },
            ),
        )
    }

    /// Decodes a child's contribution and hands it to the core to fold.
    /// On this fan-in hot path the decode scratch comes from the buffer
    /// pool: one allocation serves the whole fan-in.
    fn on_contribution(self: &Arc<Self>, session_id: &SessionId, blob: Blob, update: &UpdateMeta) {
        let mut scratch = self.pool.take_floats();
        let effects = match self.decode_into(session_id, update, &blob.params, &mut scratch) {
            Ok(()) => self.folding(|core, workers| {
                core.on_contribution(
                    session_id,
                    blob.round,
                    &blob.sender,
                    &scratch,
                    blob.weight,
                    workers,
                )
            }),
            Err(e) => {
                self.core.lock().undecodable += 1;
                Err(e)
            }
        };
        self.pool.put_floats(scratch);
        if let Ok(effects) = effects {
            let _ = self.execute(effects);
        }
    }

    /// Applies a global broadcast the core has not acknowledged yet and
    /// reports round completion.
    fn on_global(self: &Arc<Self>, session_id: &SessionId, blob: Blob, update: &UpdateMeta) {
        // Decoded outside the locks into a fresh vector: it becomes the
        // model. A delta decoded against a base that a newer global
        // replaced meanwhile is caught by apply_global's round check.
        let mut params = Vec::new();
        if self
            .decode_into(session_id, update, &blob.params, &mut params)
            .is_err()
        {
            self.core.lock().undecodable += 1;
            return;
        }
        let Some(report) = self.core.lock().on_global(session_id, blob.round) else {
            return;
        };
        let applied = self.mc.lock().apply_global(session_id, blob.round, params);
        if matches!(applied, Ok(true)) {
            let _ = self.execute(report);
        }
    }

    /// Decodes an inbound payload into `out`, taking the model-controller
    /// lock only when a delta codec needs the stored base; the time lands
    /// in `decode_us`.
    fn decode_into(
        &self,
        session_id: &SessionId,
        update: &UpdateMeta,
        payload: &[u8],
        out: &mut Vec<f32>,
    ) -> Result<()> {
        let start = Instant::now();
        let result = if ModelController::decode_needs_base(update) {
            self.mc
                .lock()
                .decode_update_into(session_id, update, payload, &self.workers, out)
        } else {
            ModelController::decode_update_stateless_into(update, payload, &self.workers, out)
        };
        add_micros(&self.decode_us, start);
        result
    }
}

fn add_micros(counter: &AtomicU64, since: Instant) {
    counter.fetch_add(since.elapsed().as_micros() as u64, Ordering::Relaxed);
}

fn filter(topic: TopicName) -> TopicFilter {
    TopicFilter::new(topic.into_string()).expect("a topic name is a valid filter")
}

fn map_remote(e: sdflmq_mqttfc::RfcError) -> CoreError {
    match e {
        sdflmq_mqttfc::RfcError::Remote(msg) => CoreError::Refused(msg),
        other => CoreError::Rfc(other),
    }
}
