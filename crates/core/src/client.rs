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
//!   hierarchy (or to the parameter server at the root);
//! * the **model controller** — per-session local model storage;
//! * the **global update synchronizer** — applies parameter-server
//!   broadcasts and reports round completion (with fresh system stats)
//!   back to the coordinator.
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

use crate::aggregation::{Accumulator, AggregationMethod, FedAvg};
use crate::blob::{BlobChannel, BlobCtx};
use crate::bufpool::BufferPool;
use crate::clock::{wait_slice, wall_clock, Clock};
use crate::error::{CoreError, Result};
use crate::ids::{ClientId, ModelId, SessionId};
use crate::messages::{
    Blob, ContribMsg, CtrlMsg, JoinRequest, NewSessionRequest, RoundDone, StatsMsg, UpdateMeta,
};
use crate::model_controller::ModelController;
use crate::roles::{PreferredRole, RoleSpec};
use crate::topics::{functions, global_topic, param_server_topic, position_topic, Position};
use crate::wirecodec::{ControlMsg, Envelope, MsgKind, WireVersion};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use sdflmq_mqtt::client::Dialer;
use sdflmq_mqtt::{Broker, Client, ClientOptions, TopicFilter};
use sdflmq_mqttfc::{BatchConfig, FleetController};
use sdflmq_nn::codec::UpdateCodec;
use sdflmq_nn::parallel::WorkerPool;
use sdflmq_sim::{ClientSystem, SystemSpec};
use std::collections::{BTreeSet, HashMap};
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
    /// Microseconds spent folding contributions into aggregation stacks
    /// (including the final `finish` of each flush).
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

#[derive(Debug, Clone)]
enum SessionEvent {
    RoundStart(u32),
    Completed,
    Aborted(String),
    Evicted(String),
}

/// Blocks `send_local` until the coordinator opens a round. The gate value
/// is the currently open round (0 = not started, `CLOSED` = terminal).
struct RoundGate {
    state: Mutex<u32>,
    cond: parking_lot::Condvar,
}

impl RoundGate {
    const CLOSED: u32 = u32::MAX;

    fn new() -> Arc<RoundGate> {
        Arc::new(RoundGate {
            state: Mutex::new(0),
            cond: parking_lot::Condvar::new(),
        })
    }

    fn open(&self, round: u32) {
        *self.state.lock() = round;
        self.cond.notify_all();
    }

    fn close(&self) {
        *self.state.lock() = Self::CLOSED;
        self.cond.notify_all();
    }

    /// Waits for any round to be open; returns the round number. The
    /// timeout is measured on `clock`: under a virtual clock the wait
    /// polls in short wall-time slices so stepped time is observed.
    fn wait_open(&self, clock: &dyn Clock, timeout: Duration) -> Result<u32> {
        let mut state = self.state.lock();
        let deadline = clock.now() + timeout;
        while *state == 0 {
            let Some(slice) = wait_slice(clock, deadline) else {
                return Err(CoreError::Timeout);
            };
            self.cond
                .wait_until(&mut state, std::time::Instant::now() + slice);
        }
        if *state == Self::CLOSED {
            Err(CoreError::Aborted("session closed".into()))
        } else {
            Ok(*state)
        }
    }
}

/// The most recent local contribution, kept so a mid-round re-delegation
/// (`set_role` re-parent or a `round_start` re-announcement) can re-send
/// it without involving the training loop.
#[derive(Clone)]
struct LastSent {
    round: u32,
    params: Vec<f32>,
    weight: u64,
    /// The round's first wire encoding, cached because encoding is
    /// *stateful*: the error-feedback residual folds in exactly once per
    /// round, so a re-send must republish these bytes rather than
    /// re-encode (which would double-count the residual). `Bytes`, so the
    /// cache shares the published payload's storage instead of copying —
    /// when the next round replaces it, the buffer pool reclaims the
    /// allocation.
    encoded: Option<(Bytes, UpdateMeta)>,
}

/// A per-round streaming aggregation stack: each child's decoded update
/// is folded into the accumulator *as it completes* — for FedAvg the
/// aggregator holds one running sum (O(model) peak memory, independent of
/// fan-in) instead of a full vector per child. Sender-keyed dedup is
/// preserved by folding only the **first** contribution per sender per
/// round: a fold cannot be retracted, so re-sends after a re-delegation
/// are dropped here (and the whole stack is rebuilt from scratch when the
/// plan actually changes, which is the only time a re-send could differ).
struct RoundStack {
    acc: Box<dyn Accumulator>,
    senders: BTreeSet<String>,
}

struct SessionHandle {
    role: Option<RoleSpec>,
    subscribed_position: Option<Position>,
    /// Streaming aggregation stacks keyed by round.
    stacks: HashMap<u32, RoundStack>,
    /// The round most recently announced via `round_start` (0 = none).
    /// Contributions for earlier rounds are dropped, and stacks from
    /// closed rounds are pruned when this advances — stragglers and
    /// evictions can otherwise leak partial stacks forever.
    current_round: u32,
    round_gate: Arc<RoundGate>,
    events_tx: Sender<SessionEvent>,
    events_rx: Receiver<SessionEvent>,
    num_samples: u64,
    /// Contribution of the most recent `send_local`; `wait_global_update`
    /// ignores round-start events at or below its round, and re-delegation
    /// re-sends it.
    last_sent: Option<LastSent>,
    /// Wire version negotiated with the coordinator at join time; used
    /// for this session's control messages and blob metadata.
    wire: WireVersion,
}

struct Inner {
    id: ClientId,
    fc: FleetController,
    blobs: BlobChannel,
    aggregation: Box<dyn AggregationMethod>,
    mc: Mutex<ModelController>,
    sessions: Mutex<HashMap<SessionId, SessionHandle>>,
    system: Mutex<ClientSystem>,
    /// The richest update codec this client supports (advertised at join).
    update_codec: UpdateCodec,
    /// Blobs whose payload failed to decode (see [`DataPlaneStats`]).
    undecodable_updates: AtomicU64,
    /// Time source for blocking waits.
    clock: Arc<dyn Clock>,
    /// Chunk-kernel workers for codec encode/decode and the parallel
    /// fold (see [`SdflmqClientConfig::data_plane_threads`]).
    workers: Arc<WorkerPool>,
    /// Recycles model-sized encode buffers and decode scratch across
    /// rounds (see [`crate::bufpool::BufferPool`]).
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
            aggregation: config.aggregation,
            mc: Mutex::new(ModelController::new()),
            sessions: Mutex::new(HashMap::new()),
            system: Mutex::new(ClientSystem::new(config.system, config.system_seed)),
            update_codec: config.update_codec,
            undecodable_updates: AtomicU64::new(0),
            clock: config.clock,
            workers,
            pool: BufferPool::new(),
            encode_us: AtomicU64::new(0),
            decode_us: AtomicU64::new(0),
            fold_us: AtomicU64::new(0),
        });

        // Control function: role arbiter + session lifecycle. Decoding
        // sniffs the frame, so JSON v1 and binary v2 coordinators both
        // work regardless of what this session negotiated.
        let ctrl_inner = Arc::downgrade(&inner);
        fc.expose(
            &functions::client_ctrl(id.as_str()),
            Arc::new(move |msg| {
                let Some(inner) = ctrl_inner.upgrade() else {
                    return Err("client gone".into());
                };
                let envelope =
                    Envelope::decode(MsgKind::Ctrl, &msg.payload).map_err(|e| e.to_string())?;
                let ControlMsg::Ctrl { session, msg: ctrl } = envelope.msg else {
                    return Err("expected a ctrl frame".into());
                };
                Self::handle_ctrl(&inner, &session, ctrl).map_err(|e| e.to_string())?;
                Ok(Bytes::from_static(b"{\"status\":\"ok\"}"))
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
            proto: WireVersion::LATEST.as_u8(),
            codec: self.inner.update_codec.id(),
        };
        // Session requests always go out as JSON v1 so any coordinator can
        // read them; the `proto` field advertises what we support.
        self.inner
            .fc
            .call_with_reply(
                functions::NEW_SESSION,
                Envelope::new(WireVersion::V1Json, ControlMsg::NewSession(req)).encode(),
            )
            .map_err(map_remote)?;
        self.join_fl_session(session_id, model_name, preferred_role, num_samples)
    }

    /// Joins an existing session (Listing 1: `join_fl_session`).
    pub fn join_fl_session(
        &self,
        session_id: &SessionId,
        model_name: &ModelId,
        preferred_role: PreferredRole,
        num_samples: u64,
    ) -> Result<()> {
        // Register local state and subscribe the global-update
        // synchronizer *before* the coordinator can start the session.
        {
            let mut sessions = self.inner.sessions.lock();
            if sessions.contains_key(session_id) {
                return Err(CoreError::Refused("already joined locally".into()));
            }
            let (events_tx, events_rx) = unbounded();
            sessions.insert(
                session_id.clone(),
                SessionHandle {
                    role: None,
                    subscribed_position: None,
                    stacks: HashMap::new(),
                    current_round: 0,
                    round_gate: RoundGate::new(),
                    events_tx,
                    events_rx,
                    num_samples,
                    last_sent: None,
                    wire: WireVersion::V1Json,
                },
            );
        }
        let global_inner = Arc::downgrade(&self.inner);
        let sid = session_id.clone();
        self.inner.blobs.subscribe(
            &TopicFilter::new(global_topic(session_id).as_str().to_owned())
                .expect("global topic is a valid filter"),
            Arc::new(move |blob: Blob, ctx: BlobCtx| {
                if let Some(inner) = global_inner.upgrade() {
                    Self::handle_global(&inner, &sid, blob, &ctx.update);
                }
            }),
        )?;

        let stats = StatsMsg::from_stats(self.inner.system.lock().stats());
        let req = JoinRequest {
            session_id: session_id.clone(),
            client_id: self.inner.id.clone(),
            model_name: model_name.clone(),
            preferred_role,
            num_samples,
            stats,
            proto: WireVersion::LATEST.as_u8(),
            codec: self.inner.update_codec.id(),
        };
        let reply = self
            .inner
            .fc
            .call_with_reply(
                functions::JOIN_SESSION,
                Envelope::new(WireVersion::V1Json, ControlMsg::Join(req)).encode(),
            )
            .map_err(map_remote)?;
        // The coordinator answers with the highest mutually supported wire
        // version; use it for this session's control and blob traffic. A
        // legacy coordinator's reply has no proto field and leaves us on v1.
        let negotiated = match Envelope::decode(MsgKind::Reply, &reply) {
            Ok(env) => match env.msg {
                ControlMsg::Reply(r) => r.version(),
                _ => WireVersion::V1Json,
            },
            Err(_) => WireVersion::V1Json,
        };
        {
            let mut sessions = self.inner.sessions.lock();
            if let Some(handle) = sessions.get_mut(session_id) {
                handle.wire = negotiated;
            }
        }
        Ok(())
    }

    /// The control-plane wire version negotiated for a session (v1 before
    /// the join reply arrives).
    pub fn wire_version(&self, session_id: &SessionId) -> Option<WireVersion> {
        self.inner
            .sessions
            .lock()
            .get(session_id)
            .map(|handle| handle.wire)
    }

    /// Data-plane health counters: transfers dropped by the blob channel
    /// and payloads that failed to decode. Monotonic over the client's
    /// lifetime, across all its sessions.
    pub fn data_plane_stats(&self) -> DataPlaneStats {
        DataPlaneStats {
            dropped_transfers: self.inner.blobs.dropped_transfers(),
            undecodable_updates: self.inner.undecodable_updates.load(Ordering::Relaxed),
            encode_us: self.inner.encode_us.load(Ordering::Relaxed),
            decode_us: self.inner.decode_us.load(Ordering::Relaxed),
            fold_us: self.inner.fold_us.load(Ordering::Relaxed),
        }
    }

    /// Registers the local model for a session (Listing 1: `set_model`).
    pub fn set_model(&self, session_id: &SessionId, params: &[f32]) -> Result<()> {
        let num_samples = {
            let sessions = self.inner.sessions.lock();
            sessions
                .get(session_id)
                .ok_or_else(|| CoreError::UnknownSession(session_id.as_str().into()))?
                .num_samples
        };
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
            (entry.params.clone(), entry.num_samples)
        };
        // Block until the coordinator has opened a round (the session may
        // still be forming when the first `send_local` is issued).
        let gate = {
            let sessions = self.inner.sessions.lock();
            Arc::clone(
                &sessions
                    .get(session_id)
                    .ok_or_else(|| CoreError::UnknownSession(session_id.as_str().into()))?
                    .round_gate,
            )
        };
        let round = gate.wait_open(&*self.inner.clock, Duration::from_secs(120))?;
        let role = {
            let mut sessions = self.inner.sessions.lock();
            let handle = sessions
                .get_mut(session_id)
                .ok_or_else(|| CoreError::UnknownSession(session_id.as_str().into()))?;
            // A repeated send_local in the same round keeps the cached
            // encoding (the model is unchanged until the next global).
            let keep = handle
                .last_sent
                .take()
                .filter(|last| last.round == round && last.params == params)
                .and_then(|last| last.encoded);
            handle.last_sent = Some(LastSent {
                round,
                params: params.clone(),
                weight,
                encoded: keep,
            });
            handle
                .role
                .ok_or_else(|| CoreError::Protocol("no role assigned yet".into()))?
        };
        if !role.role.trains() {
            return Err(CoreError::Protocol(
                "pure aggregators have no local update to send".into(),
            ));
        }
        Self::contribute(&self.inner, session_id, round, params, weight, role)?;
        Self::send_contrib_ping(&self.inner, session_id, round);
        Ok(())
    }

    /// Decodes an inbound payload into `out`, taking the model-controller
    /// lock only when the codec actually needs the stored delta base.
    /// Chunked codecs run on the client's worker pool, dense inline; the
    /// elapsed time lands in the `decode_us` counter.
    fn decode_inbound_into(
        inner: &Inner,
        session_id: &SessionId,
        update: &UpdateMeta,
        payload: &[u8],
        out: &mut Vec<f32>,
    ) -> Result<()> {
        let start = Instant::now();
        let result = if ModelController::decode_needs_base(update) {
            inner
                .mc
                .lock()
                .decode_update_into(session_id, update, payload, &inner.workers, out)
        } else {
            ModelController::decode_update_stateless_into(update, payload, &inner.workers, out)
        };
        inner
            .decode_us
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        result
    }

    /// The update codec for a role's data plane: the session-floor id the
    /// coordinator stamped, using this client's own configured variant
    /// when the ids match (so a locally tuned top-k density survives
    /// negotiation).
    fn data_codec(inner: &Inner, role: &RoleSpec) -> UpdateCodec {
        match UpdateCodec::from_id(role.data_codec) {
            Some(codec) if codec.id() == inner.update_codec.id() => inner.update_codec,
            Some(codec) => codec,
            None => UpdateCodec::Dense,
        }
    }

    /// Routes a local contribution: aggregating clients feed their own
    /// stack (raw — no reason to pay encoding loss on a vector that never
    /// touches the wire), trainers encode with the session codec and
    /// publish to their cluster head's position topic.
    fn contribute(
        inner: &Arc<Inner>,
        session_id: &SessionId,
        round: u32,
        params: Vec<f32>,
        weight: u64,
        role: RoleSpec,
    ) -> Result<()> {
        if role.role.aggregates() {
            // Our own contribution enters our stack.
            Self::ingest_contribution(
                inner,
                session_id,
                round,
                inner.id.as_str().to_owned(),
                &params,
                weight,
            )
        } else {
            // Reuse the round's cached encoding if there is one: the
            // error-feedback residual folds in exactly once per round, so
            // a re-delegation re-send republishes the same bytes instead
            // of re-running the stateful encode (which would double-count
            // the residual into the owed delta).
            let cached = {
                let sessions = inner.sessions.lock();
                sessions
                    .get(session_id)
                    .and_then(|handle| handle.last_sent.as_ref())
                    .filter(|last| last.round == round)
                    .and_then(|last| last.encoded.clone())
            };
            let (payload, update, fresh) = match cached {
                Some((payload, update)) => (payload, update, false),
                None => {
                    let codec = Self::data_codec(inner, &role);
                    // Encode into a pooled buffer on the worker pool; the
                    // payload `Bytes` shares its storage with the cached
                    // re-send copy, and the pool reclaims it once the
                    // next round replaces that cache.
                    let mut buf = inner.pool.take_bytes();
                    let start = Instant::now();
                    let update = inner.mc.lock().encode_update_into(
                        session_id,
                        codec,
                        &params,
                        &inner.workers,
                        &mut buf,
                    )?;
                    inner
                        .encode_us
                        .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
                    let payload = Bytes::from(buf);
                    let mut sessions = inner.sessions.lock();
                    if let Some(last) = sessions
                        .get_mut(session_id)
                        .and_then(|handle| handle.last_sent.as_mut())
                        .filter(|last| last.round == round)
                    {
                        last.encoded = Some((payload.clone(), update));
                    }
                    (payload, update, true)
                }
            };
            let blob = Blob {
                session_id: session_id.clone(),
                round,
                sender: inner.id.as_str().to_owned(),
                weight,
                params: payload.clone(),
            };
            // Blobs travel client → client: use the session-wide floor
            // version the coordinator stamped into the role, not this
            // client's own negotiation result.
            let result = inner.blobs.publish_update(
                &position_topic(session_id, role.parent),
                &blob,
                WireVersion::from_u8(role.data_wire).unwrap_or(WireVersion::V1Json),
                &update,
            );
            drop(blob);
            if fresh {
                inner.pool.lend(payload);
            }
            result
        }
    }

    /// Announces a contribution to the coordinator so the straggler
    /// detector knows this client is alive even while the aggregation
    /// pipeline is still in flight. Best-effort.
    fn send_contrib_ping(inner: &Arc<Inner>, session_id: &SessionId, round: u32) {
        let wire = inner
            .sessions
            .lock()
            .get(session_id)
            .map(|handle| handle.wire)
            .unwrap_or(WireVersion::V1Json);
        let ping = ContribMsg {
            session_id: session_id.clone(),
            client_id: inner.id.clone(),
            round,
        };
        let _ = inner.fc.call(
            functions::CONTRIB,
            Envelope::new(wire, ControlMsg::Contrib(ping)).encode(),
        );
    }

    /// Blocks until the next global update cycle completes (Listing 1:
    /// `wait_global_update`): returns when the coordinator opens the next
    /// round, completes the session, evicts this client, or aborts.
    pub fn wait_global_update(
        &self,
        session_id: &SessionId,
        timeout: Duration,
    ) -> Result<WaitOutcome> {
        let (rx, baseline) = {
            let sessions = self.inner.sessions.lock();
            let handle = sessions
                .get(session_id)
                .ok_or_else(|| CoreError::UnknownSession(session_id.as_str().into()))?;
            (
                handle.events_rx.clone(),
                handle.last_sent.as_ref().map(|l| l.round).unwrap_or(0),
            )
        };
        let clock = Arc::clone(&self.inner.clock);
        let deadline = clock.now() + timeout;
        loop {
            // Under a virtual clock, poll in short wall-time slices so a
            // stepped deadline is observed; a wall clock blocks outright.
            let Some(slice) = wait_slice(&*clock, deadline) else {
                return Err(CoreError::Timeout);
            };
            match rx.recv_timeout(slice) {
                // Round starts at or below the round we contributed to are
                // stale (the session's very first round_start, or a
                // mid-round re-delegation re-announcement).
                Ok(SessionEvent::RoundStart(r)) if r > baseline => {
                    return Ok(WaitOutcome::NextRound(r))
                }
                Ok(SessionEvent::RoundStart(_)) => continue,
                Ok(SessionEvent::Completed) => return Ok(WaitOutcome::Completed),
                Ok(SessionEvent::Evicted(_reason)) => return Ok(WaitOutcome::Evicted),
                Ok(SessionEvent::Aborted(reason)) => return Err(CoreError::Aborted(reason)),
                // A slice expired: loop back, which re-checks the (clock-
                // measured) deadline and times out once it truly passed.
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                // Senders gone means the session handle was torn down —
                // that only happens on eviction. Looping here would spin
                // hot until the deadline (Disconnected returns instantly).
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    return Ok(WaitOutcome::Evicted)
                }
            }
        }
    }

    /// Current model parameters for a session (after `wait_global_update`
    /// this is the global model).
    pub fn model_params(&self, session_id: &SessionId) -> Result<Vec<f32>> {
        Ok(self.inner.mc.lock().get(session_id)?.params.clone())
    }

    /// The last global round applied for a session.
    pub fn global_round(&self, session_id: &SessionId) -> Result<u32> {
        Ok(self.inner.mc.lock().get(session_id)?.global_round)
    }

    /// The role currently assigned by the coordinator, if any.
    pub fn current_role(&self, session_id: &SessionId) -> Option<RoleSpec> {
        self.inner.sessions.lock().get(session_id)?.role
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    fn handle_ctrl(inner: &Arc<Inner>, session_id: &SessionId, msg: CtrlMsg) -> Result<()> {
        match msg {
            CtrlMsg::SetRole(spec) => Self::apply_role(inner, session_id, spec),
            CtrlMsg::ResetRole => {
                let old = {
                    let mut sessions = inner.sessions.lock();
                    let handle = sessions
                        .get_mut(session_id)
                        .ok_or_else(|| CoreError::UnknownSession(session_id.as_str().into()))?;
                    handle.role = None;
                    handle.subscribed_position.take()
                };
                if let Some(pos) = old {
                    let filter =
                        TopicFilter::new(position_topic(session_id, pos).as_str().to_owned())
                            .expect("valid");
                    let _ = inner.blobs.unsubscribe(&filter);
                }
                Ok(())
            }
            CtrlMsg::RoundStart { round } => {
                let (tx, gate, resend) = {
                    let mut sessions = inner.sessions.lock();
                    let handle = sessions
                        .get_mut(session_id)
                        .ok_or_else(|| CoreError::UnknownSession(session_id.as_str().into()))?;
                    if round < handle.current_round {
                        return Ok(()); // stale out-of-order announcement
                    }
                    let resync = round == handle.current_round;
                    if !resync {
                        handle.current_round = round;
                        // Prune stacks from closed rounds: stragglers and
                        // evictions leave partial stacks that would
                        // otherwise never be removed.
                        handle.stacks.retain(|&r, _| r >= round);
                    } else if handle.role.is_some_and(|r| r.role.aggregates()) {
                        // Mid-round re-delegation: the plan may have moved
                        // children to other parents or evicted them, so
                        // entries already stacked could double-count (the
                        // re-parented child re-sends to its new parent
                        // too). Start clean — every live contributor
                        // re-sends in response to this re-announcement.
                        handle.stacks.remove(&round);
                    }
                    // A re-announcement of the running round is the
                    // mid-round re-delegation signal: re-send our stored
                    // contribution (dedup at the receiver makes this safe).
                    let resend = if resync {
                        match (&handle.last_sent, handle.role) {
                            (Some(last), Some(role))
                                if last.round == round && role.role.trains() =>
                            {
                                Some((last.clone(), role))
                            }
                            _ => None,
                        }
                    } else {
                        None
                    };
                    (
                        handle.events_tx.clone(),
                        Arc::clone(&handle.round_gate),
                        resend,
                    )
                };
                gate.open(round);
                let _ = tx.send(SessionEvent::RoundStart(round));
                if let Some((last, role)) = resend {
                    let _ =
                        Self::contribute(inner, session_id, round, last.params, last.weight, role);
                    Self::send_contrib_ping(inner, session_id, round);
                }
                Ok(())
            }
            CtrlMsg::SessionComplete => {
                let (tx, gate) = Self::events_and_gate(inner, session_id)?;
                gate.close();
                let _ = tx.send(SessionEvent::Completed);
                Ok(())
            }
            CtrlMsg::Abort(reason) => {
                let (tx, gate) = Self::events_and_gate(inner, session_id)?;
                gate.close();
                let _ = tx.send(SessionEvent::Aborted(reason));
                Ok(())
            }
            CtrlMsg::Evicted { reason } => {
                // Tear the session handle down: the fleet continues
                // without us. Idempotent — a duplicate eviction finds no
                // handle and does nothing.
                let Some(handle) = inner.sessions.lock().remove(session_id) else {
                    return Ok(());
                };
                handle.round_gate.close();
                let _ = handle.events_tx.send(SessionEvent::Evicted(reason));
                if let Some(pos) = handle.subscribed_position {
                    let filter =
                        TopicFilter::new(position_topic(session_id, pos).as_str().to_owned())
                            .expect("valid");
                    let _ = inner.blobs.unsubscribe(&filter);
                }
                let global =
                    TopicFilter::new(global_topic(session_id).as_str().to_owned()).expect("valid");
                let _ = inner.blobs.unsubscribe(&global);
                Ok(())
            }
        }
    }

    fn events_and_gate(
        inner: &Arc<Inner>,
        session_id: &SessionId,
    ) -> Result<(Sender<SessionEvent>, Arc<RoundGate>)> {
        let sessions = inner.sessions.lock();
        let handle = sessions
            .get(session_id)
            .ok_or_else(|| CoreError::UnknownSession(session_id.as_str().into()))?;
        Ok((handle.events_tx.clone(), Arc::clone(&handle.round_gate)))
    }

    /// Role arbiter: installs a new role spec, adjusting the position-topic
    /// subscription (paper Fig. 6: unsubscribe old role topic, subscribe
    /// the new one). When the spec re-parents this client *within the
    /// running round* (mid-round re-delegation after an eviction), the
    /// stored contribution is redirected to the new parent, and a shrunken
    /// `expected_inputs` re-checks the stack for completeness.
    fn apply_role(inner: &Arc<Inner>, session_id: &SessionId, spec: RoleSpec) -> Result<()> {
        let (to_unsub, to_sub, redirect) = {
            let mut sessions = inner.sessions.lock();
            let handle = sessions
                .get_mut(session_id)
                .ok_or_else(|| CoreError::UnknownSession(session_id.as_str().into()))?;
            let old_spec = handle.role.replace(spec);
            // A mid-round re-delegation invalidates the stack: entries
            // from children that were re-parented away or evicted must
            // not be counted into this aggregator's flush (the child
            // re-sends to its new parent, which would double-count it).
            // The round_start re-announcement that follows rebuilds the
            // stack from the current children's re-sends.
            if spec.round == handle.current_round && spec.role.aggregates() {
                handle.stacks.remove(&spec.round);
            }
            let old = handle.subscribed_position;
            let new = spec.position;
            let subs = if old == new {
                (None, None)
            } else {
                handle.subscribed_position = new;
                (old, new)
            };
            // Redirect an orphaned contribution: we already sent for this
            // round, and the re-delegated spec changes where it must go.
            let redirect = match (&handle.last_sent, old_spec) {
                (Some(last), Some(old_spec))
                    if last.round == spec.round
                        && last.round == handle.current_round
                        && spec.role.trains()
                        && (old_spec.parent != spec.parent || old_spec.role != spec.role) =>
                {
                    Some(last.clone())
                }
                _ => None,
            };
            (subs.0, subs.1, redirect)
        };
        if let Some(pos) = to_unsub {
            let filter = TopicFilter::new(position_topic(session_id, pos).as_str().to_owned())
                .expect("valid");
            let _ = inner.blobs.unsubscribe(&filter);
        }
        if let Some(pos) = to_sub {
            let ingest_inner = Arc::downgrade(inner);
            let sid = session_id.clone();
            let filter = TopicFilter::new(position_topic(session_id, pos).as_str().to_owned())
                .expect("valid");
            inner.blobs.subscribe(
                &filter,
                Arc::new(move |blob: Blob, ctx: BlobCtx| {
                    let Some(inner) = ingest_inner.upgrade() else {
                        return;
                    };
                    if blob.session_id != sid {
                        return;
                    }
                    // Decode with the header's codec; delta payloads
                    // reconstruct against this client's applied global.
                    // Full-vector payloads decode without the controller
                    // lock — this is the fan-in hot path, so the decode
                    // scratch comes from (and returns to) the buffer
                    // pool: one allocation serves the whole fan-in.
                    let mut scratch = inner.pool.take_floats();
                    let decoded = Self::decode_inbound_into(
                        &inner,
                        &sid,
                        &ctx.update,
                        &blob.params,
                        &mut scratch,
                    );
                    match decoded {
                        Ok(()) => {
                            let _ = Self::ingest_contribution(
                                &inner,
                                &sid,
                                blob.round,
                                blob.sender.clone(),
                                &scratch,
                                blob.weight,
                            );
                        }
                        Err(_) => {
                            inner.undecodable_updates.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    inner.pool.put_floats(scratch);
                }),
            )?;
        }
        if let Some(last) = redirect {
            let _ = Self::contribute(
                inner,
                session_id,
                last.round,
                last.params,
                last.weight,
                spec,
            );
        }
        // A re-delegated aggregator may owe fewer inputs than its stack
        // already holds (a dead child was evicted): flush without waiting
        // for an arrival that will never come.
        Self::maybe_flush(inner, session_id, spec.round)
    }

    /// Aggregation pipeline: folds a contribution straight into the
    /// round's streaming accumulator, keyed by sender. Stale-round
    /// contributions (the round already closed under quorum or
    /// re-delegation) are dropped rather than folded, and only the first
    /// contribution per sender counts — a fold cannot be retracted, so
    /// duplicates (re-sends after a re-delegation) are ignored; the
    /// stack-clearing on re-delegation guarantees the kept copy is the
    /// re-sent one whenever the plan changed.
    fn ingest_contribution(
        inner: &Arc<Inner>,
        session_id: &SessionId,
        round: u32,
        sender: String,
        params: &[f32],
        weight: u64,
    ) -> Result<()> {
        let role = {
            let mut sessions = inner.sessions.lock();
            let handle = sessions
                .get_mut(session_id)
                .ok_or_else(|| CoreError::UnknownSession(session_id.as_str().into()))?;
            let Some(role) = handle.role else {
                return Err(CoreError::Protocol("contribution without a role".into()));
            };
            if !role.role.aggregates() {
                return Err(CoreError::Protocol(
                    "trainer received a contribution".into(),
                ));
            }
            // Only the running round and its successor may stack: earlier
            // rounds are closed (their stacks pruned), and anything
            // further ahead is bogus.
            if round < handle.current_round || round > handle.current_round.saturating_add(1) {
                return Ok(());
            }
            let stack = handle.stacks.entry(round).or_insert_with(|| RoundStack {
                acc: inner.aggregation.accumulator(),
                senders: BTreeSet::new(),
            });
            if stack.senders.contains(&sender) {
                return Ok(()); // duplicate delivery: first fold wins
            }
            let start = Instant::now();
            let folded = stack.acc.fold_par(params, weight, &inner.workers);
            inner
                .fold_us
                .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
            if folded.is_err() {
                // A mismatched-shape contribution (corrupt or poisoned
                // child): drop it without marking the sender, so a
                // corrected re-send can still complete the stack.
                inner.undecodable_updates.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            stack.senders.insert(sender);
            role
        };
        // A pure aggregator never calls send_local, so ingest progress is
        // its only liveness evidence: ping the straggler detector on every
        // arrival, or a healthy aggregator blocked by one dead child would
        // accrue strikes as fast as the dead client itself.
        if !role.role.trains() {
            Self::send_contrib_ping(inner, session_id, round);
        }
        Self::maybe_flush(inner, session_id, round)
    }

    /// Flushes the round's stack if it holds the expected number of
    /// distinct contributions: finishes the streaming fold and forwards
    /// the aggregate up the hierarchy (or to the parameter server at the
    /// root) re-encoded with the session codec, announcing liveness so
    /// pure aggregators are also covered by the straggler detector.
    fn maybe_flush(inner: &Arc<Inner>, session_id: &SessionId, round: u32) -> Result<()> {
        let ready = {
            let mut sessions = inner.sessions.lock();
            let Some(handle) = sessions.get_mut(session_id) else {
                return Ok(());
            };
            let Some(role) = handle.role else {
                return Ok(());
            };
            if !role.role.aggregates() || role.expected_inputs == 0 {
                return Ok(());
            }
            let complete = handle
                .stacks
                .get(&round)
                .is_some_and(|stack| stack.senders.len() as u32 >= role.expected_inputs);
            if complete {
                let stack = handle.stacks.remove(&round).expect("stack exists");
                Some((role, stack))
            } else {
                None
            }
        };

        if let Some((role, stack)) = ready {
            let total_weight = stack.acc.total_weight();
            let start = Instant::now();
            let aggregated = stack.acc.finish()?;
            inner
                .fold_us
                .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
            let codec = Self::data_codec(inner, &role);
            // One-shot aggregate encode: pooled output buffer, pooled
            // residual scratch (discarded — no error feedback up the
            // relay), chunk kernels on the worker pool.
            let mut buf = inner.pool.take_bytes();
            let mut scratch = inner.pool.take_floats();
            let start = Instant::now();
            let update = inner.mc.lock().encode_aggregate_into(
                session_id,
                codec,
                &aggregated,
                &inner.workers,
                &mut scratch,
                &mut buf,
            );
            inner
                .encode_us
                .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
            inner.pool.put_floats(scratch);
            let payload = Bytes::from(buf);
            let blob = Blob {
                session_id: session_id.clone(),
                round,
                sender: inner.id.as_str().to_owned(),
                weight: total_weight,
                params: payload.clone(),
            };
            let destination = if role.is_root() {
                param_server_topic(session_id)
            } else {
                position_topic(session_id, role.parent)
            };
            let result = inner.blobs.publish_update(
                &destination,
                &blob,
                WireVersion::from_u8(role.data_wire).unwrap_or(WireVersion::V1Json),
                &update,
            );
            drop(blob);
            inner.pool.lend(payload);
            result?;
            Self::send_contrib_ping(inner, session_id, round);
        }
        Ok(())
    }

    /// Global update synchronizer: applies a parameter-server broadcast,
    /// drifts the simulated system, and reports round completion.
    fn handle_global(inner: &Arc<Inner>, session_id: &SessionId, blob: Blob, update: &UpdateMeta) {
        if &blob.session_id != session_id {
            return;
        }
        // Decode outside the lock where possible; a delta global decoded
        // against a base that a concurrent newer global replaces is caught
        // by apply_global's stale-round check. The decoded vector is
        // stored (it becomes the model), so it is not pool scratch.
        let mut params = Vec::new();
        if Self::decode_inbound_into(inner, session_id, update, &blob.params, &mut params).is_err()
        {
            inner.undecodable_updates.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let applied = {
            let mut mc = inner.mc.lock();
            matches!(mc.apply_global(session_id, blob.round, params), Ok(true))
        };
        if !applied {
            return;
        }
        // Paper §III.E.4: after its contribution, the client sends its
        // readiness plus system stats to the coordinator, encoded with the
        // session's negotiated wire version.
        let stats = {
            let mut system = inner.system.lock();
            system.drift();
            StatsMsg::from_stats(system.stats())
        };
        let wire = inner
            .sessions
            .lock()
            .get(session_id)
            .map(|handle| handle.wire)
            .unwrap_or(WireVersion::V1Json);
        let report = RoundDone {
            session_id: session_id.clone(),
            client_id: inner.id.clone(),
            round: blob.round,
            stats,
        };
        let _ = inner.fc.call(
            functions::ROUND_DONE,
            Envelope::new(wire, ControlMsg::RoundDone(report)).encode(),
        );
    }
}

fn map_remote(e: sdflmq_mqttfc::RfcError) -> CoreError {
    match e {
        sdflmq_mqttfc::RfcError::Remote(msg) => CoreError::Refused(msg),
        other => CoreError::Rfc(other),
    }
}
