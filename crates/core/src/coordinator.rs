//! The SDFLMQ coordinator (paper §III.D-E).
//!
//! Owns session management, the clustering engine, topic-based role
//! (re)arrangement, and the load balancer. The coordinator is *not* on the
//! data path: model parameters flow client → aggregator positions →
//! parameter server; the coordinator only exchanges small JSON control
//! messages, which is the core scalability claim of semi-decentralized FL.
//!
//! Protocol summary:
//!
//! 1. `coord_new_session` — creates a session (first request wins).
//! 2. `coord_join_session` — registers a contributor; when the session
//!    fills (or its waiting window closes above `capacity_min`) the
//!    coordinator builds a [`ClusterPlan`], pushes `set_role` to every
//!    client (awaiting acks so position subscriptions exist before data
//!    flows), publishes the retained topology document, and broadcasts
//!    `round_start`.
//! 3. `coord_contrib` — a lightweight liveness ping each client sends when
//!    its contribution goes on the wire; it separates true stragglers from
//!    clients stuck behind a stalled aggregation pipeline.
//! 4. `coord_round_done` — a round closes when every contributor reports,
//!    or when the session's `quorum` fraction has reported and the `grace`
//!    period elapsed. The load balancer then re-ranks aggregators; only
//!    clients whose assignment changed receive new `set_role` messages
//!    (paper §III.E.5), then the next `round_start` goes out. After the
//!    final round, `session_complete`.
//!
//! **Dropout tolerance.** A blown round deadline no longer aborts the
//! session: unresponsive contributors accrue missed-round strikes and are
//! evicted (`evicted` control message) once the streak reaches
//! `max_missed_rounds`. When an evicted client held an aggregator
//! position, the cluster plan is rebuilt and diffed *mid-round*: orphaned
//! children are re-parented via `set_role` and the same round is restarted
//! with a `round_start` re-announcement, which makes survivors re-send
//! their (sender-deduplicated) contributions. The session aborts only when
//! fewer than `capacity_min` survivors remain or the session time budget
//! runs out. On completion or abort the retained topology document is
//! cleared and the session is eventually garbage-collected.

use crate::blob::publish_retained_json;
use crate::clock::{wall_clock, Clock};
use crate::clustering::{build_plan, diff_plans, PlanChange, Topology};
use crate::error::{CoreError, Result};
use crate::ids::{ClientId, SessionId};
use crate::messages::{ContribMsg, CtrlMsg, JoinRequest, NewSessionRequest, RoundDone};
use crate::optimizer::{MemoryAware, RoleOptimizer};
use crate::session::{FlSession, SessionConfig, SessionState};
use crate::topics::{functions, topology_topic};
use crate::wirecodec::{ControlMsg, Envelope, MsgKind, SessionReply, WireVersion};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use sdflmq_mqtt::{Broker, Client, ClientOptions, Dialer, QoS};
use sdflmq_mqttfc::{FleetController, Json, RfcConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Coordinator configuration.
pub struct CoordinatorConfig {
    /// Topology built for every session.
    pub topology: Topology,
    /// The load-balancer policy.
    pub optimizer: Box<dyn RoleOptimizer>,
    /// Per-round deadline before stragglers are penalized (and, after
    /// `max_missed_rounds` strikes, evicted).
    pub round_timeout: Duration,
    /// Upper bound on how long the housekeeping loop sleeps between
    /// checks. The loop is event-driven — it wakes on new work, clock
    /// advances, and computed deadlines — so this is only a safety net,
    /// not a polling period; idle coordinators no longer wake on it.
    pub tick: Duration,
    /// MQTTFC transport settings.
    pub rfc: RfcConfig,
    /// Fraction of contributors whose round-done reports close a round
    /// (1.0 = wait for everyone, the paper's behaviour).
    pub quorum: f64,
    /// Extra wait after the quorum is met before force-closing the round.
    pub grace: Duration,
    /// Consecutive missed round closures before a contributor is evicted.
    pub max_missed_rounds: u32,
    /// How long to wait for a client to acknowledge a `set_role` push
    /// before carrying on without it (it will be penalized as a straggler
    /// if it really is gone).
    pub role_ack_timeout: Duration,
    /// How long completed/aborted sessions stay queryable before they are
    /// garbage-collected from coordinator memory.
    pub terminal_linger: Duration,
    /// Time source for every deadline the coordinator tracks. Wall clock
    /// in production; a [`crate::clock::TestClock`] lets tests step round
    /// deadlines, grace windows, strike accrual, and GC virtually.
    pub clock: Arc<dyn Clock>,
    /// Optional broker redial factory. When set, the coordinator's MQTT
    /// client uses a persistent session and reconnects transparently
    /// after a broker restart; in-memory session state (rounds, roles,
    /// deadlines) lives in this process and survives with it.
    pub dialer: Option<Dialer>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            topology: Topology::Hierarchical {
                aggregator_ratio: 0.3,
            },
            optimizer: Box::new(MemoryAware),
            round_timeout: Duration::from_secs(120),
            tick: Duration::from_millis(50),
            rfc: RfcConfig::default(),
            quorum: 1.0,
            grace: Duration::from_millis(500),
            max_missed_rounds: 2,
            role_ack_timeout: Duration::from_secs(30),
            terminal_linger: Duration::from_secs(60),
            clock: wall_clock(),
            dialer: None,
        }
    }
}

struct CoordState {
    sessions: HashMap<SessionId, FlSession>,
    optimizer: Box<dyn RoleOptimizer>,
    topology: Topology,
    round_timeout: Duration,
    quorum: f64,
    grace: Duration,
    max_missed_rounds: u32,
    role_ack_timeout: Duration,
    terminal_linger: Duration,
    clock: Arc<dyn Clock>,
}

/// Wakes the housekeeping loop when there is something new to look at:
/// a state mutation (session created/joined/advanced) or a virtual-clock
/// step. Between wake-ups the loop sleeps until the earliest computed
/// deadline instead of polling on a fixed tick.
struct TickSignal {
    pending: Mutex<bool>,
    cond: Condvar,
}

impl TickSignal {
    fn new() -> Arc<TickSignal> {
        Arc::new(TickSignal {
            pending: Mutex::new(false),
            cond: Condvar::new(),
        })
    }

    fn nudge(&self) {
        *self.pending.lock() = true;
        self.cond.notify_all();
    }
}

/// Deferred orchestration work. RFC handlers run on the coordinator's MQTT
/// dispatcher thread; anything that *waits for client acknowledgements*
/// (role handshakes) must run elsewhere or the acks — which arrive on that
/// same dispatcher — could never be processed. A single worker thread
/// serializes all session orchestration.
enum WorkItem {
    StartSession(SessionId),
    /// Close `round` and open the next one. Stamped with the round it was
    /// enqueued for so duplicate closure signals (a late `round_done`
    /// racing housekeeping's quorum check, or an abort racing a closure)
    /// become no-ops instead of double-advancing or resurrecting a
    /// terminal session.
    Advance {
        session: SessionId,
        round: u32,
    },
    /// The round deadline blew: penalize stragglers, maybe evict and
    /// re-delegate mid-round.
    Overdue(SessionId),
    /// Wakes the worker so it sees the coordinator stopped. Needed because
    /// the worker and every exposed handler hold a sender of this very
    /// channel, so it never disconnects on its own.
    Stop,
}

/// A running coordinator node.
pub struct Coordinator {
    fc: FleetController,
    state: Arc<Mutex<CoordState>>,
    running: Arc<AtomicBool>,
    work_tx: crossbeam::channel::Sender<WorkItem>,
    signal: Arc<TickSignal>,
    /// The worker and ticker threads; [`Coordinator::stop`] joins them.
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator").finish_non_exhaustive()
    }
}

/// The coordinator's well-known node id.
pub const COORDINATOR_ID: &str = "coordinator";

impl Coordinator {
    /// Starts a coordinator on `broker`.
    pub fn start(broker: &Broker, config: CoordinatorConfig) -> Result<Coordinator> {
        let mut mqtt_options = ClientOptions::new(COORDINATOR_ID);
        if let Some(dialer) = config.dialer.clone() {
            mqtt_options.clean_session = false;
            mqtt_options.dialer = Some(dialer);
        }
        let client = Client::connect(broker, mqtt_options)?;
        let fc = FleetController::new(client, COORDINATOR_ID, config.rfc.clone())?;
        let clock = Arc::clone(&config.clock);
        let state = Arc::new(Mutex::new(CoordState {
            sessions: HashMap::new(),
            optimizer: config.optimizer,
            topology: config.topology,
            round_timeout: config.round_timeout,
            quorum: config.quorum,
            grace: config.grace,
            max_missed_rounds: config.max_missed_rounds,
            role_ack_timeout: config.role_ack_timeout,
            terminal_linger: config.terminal_linger,
            clock: Arc::clone(&clock),
        }));
        let running = Arc::new(AtomicBool::new(true));
        let (work_tx, work_rx) = crossbeam::channel::unbounded::<WorkItem>();
        let signal = TickSignal::new();

        // A virtual-clock step changes every deadline at once: re-check
        // immediately instead of waiting out a wall-time sleep.
        let clock_signal = Arc::clone(&signal);
        clock.register_waker(Arc::new(move || clock_signal.nudge()));

        let coordinator = Coordinator {
            fc: fc.clone(),
            state: Arc::clone(&state),
            running: Arc::clone(&running),
            work_tx: work_tx.clone(),
            signal: Arc::clone(&signal),
            threads: Mutex::new(Vec::new()),
        };
        coordinator.expose_handlers()?;

        // Orchestration worker: performs role handshakes and round
        // transitions off the dispatcher thread.
        let work_state = Arc::clone(&state);
        let work_fc = fc.clone();
        let loop_tx = work_tx.clone();
        let work_signal = Arc::clone(&signal);
        let work_running = Arc::clone(&running);
        let worker = std::thread::Builder::new()
            .name("coordinator-worker".into())
            .spawn(move || {
                while let Ok(item) = work_rx.recv() {
                    // A stopped coordinator abandons its backlog.
                    if !work_running.load(Ordering::Acquire) {
                        break;
                    }
                    let result = match item {
                        WorkItem::Stop => break,
                        WorkItem::StartSession(sid) => {
                            Self::start_session(&work_state, &work_fc, &sid)
                        }
                        WorkItem::Advance { session, round } => {
                            Self::advance(&work_state, &work_fc, &session, round)
                        }
                        WorkItem::Overdue(sid) => {
                            Self::handle_overdue(&work_state, &work_fc, &loop_tx, &sid)
                        }
                    };
                    if let Err(e) = result {
                        // Orchestration failures abort the affected session.
                        let _ = e;
                    }
                    // Session state (and so the earliest deadline) changed.
                    work_signal.nudge();
                }
            })
            .expect("spawn coordinator worker");

        // Housekeeping thread: waiting-window expiry, quorum grace expiry,
        // round deadlines, session budgets, and terminal-session GC. The
        // loop is condvar-driven: it sleeps until the earliest deadline it
        // computed, or until a nudge (new work / clock advance) arrives —
        // an idle coordinator parks indefinitely instead of burning a
        // wakeup per tick, and virtual-time tests are not bound to the
        // tick period.
        let tick_state = Arc::clone(&state);
        let tick_fc = fc.clone();
        let tick_running = Arc::clone(&running);
        let tick_signal = Arc::clone(&signal);
        let tick_clock = clock;
        let tick = config.tick;
        let ticker = std::thread::Builder::new()
            .name("coordinator-ticker".into())
            .spawn(move || {
                while tick_running.load(Ordering::Acquire) {
                    let next = Self::housekeeping(&tick_state, &tick_fc, &work_tx);
                    let mut pending = tick_signal.pending.lock();
                    if !*pending {
                        match next {
                            Some(deadline) => {
                                // +1ms past the deadline so strict `>`
                                // comparisons read true on wake-up. The
                                // duration is measured on the session
                                // clock; for virtual clocks the advance
                                // waker cuts the wait short.
                                let wait = deadline
                                    .saturating_duration_since(tick_clock.now())
                                    .saturating_add(Duration::from_millis(1))
                                    .min(tick.max(Duration::from_millis(1)) * 100);
                                tick_signal
                                    .cond
                                    .wait_until(&mut pending, Instant::now() + wait);
                            }
                            None => {
                                tick_signal.cond.wait(&mut pending);
                            }
                        }
                    }
                    *pending = false;
                }
            })
            .expect("spawn coordinator ticker");
        coordinator.threads.lock().extend([worker, ticker]);

        Ok(coordinator)
    }

    /// The coordinator's fleet controller (exposed for tests/telemetry).
    pub fn fleet(&self) -> &FleetController {
        &self.fc
    }

    /// Snapshot of a session's lifecycle state. Terminal sessions are
    /// garbage-collected after the configured linger, after which this
    /// returns `None`.
    pub fn session_state(&self, session: &SessionId) -> Option<SessionState> {
        self.state
            .lock()
            .sessions
            .get(session)
            .map(|s| s.state.clone())
    }

    /// Ids of a session's current (surviving) contributors.
    pub fn session_members(&self, session: &SessionId) -> Option<Vec<ClientId>> {
        self.state
            .lock()
            .sessions
            .get(session)
            .map(|s| s.clients.iter().map(|c| c.id.clone()).collect())
    }

    /// Stops orchestration and housekeeping (sessions freeze; used on
    /// shutdown) and waits for both threads to exit. Idempotent.
    pub fn stop(&self) {
        self.running.store(false, Ordering::Release);
        // Wake both loops so they observe the flag even while parked: the
        // ticker without a deadline, the worker on an empty queue.
        self.signal.nudge();
        let _ = self.work_tx.send(WorkItem::Stop);
        let threads = std::mem::take(&mut *self.threads.lock());
        for thread in threads {
            let _ = thread.join();
        }
    }

    fn expose_handlers(&self) -> Result<()> {
        // Handlers decode by sniffing the frame (JSON v1 or binary v2),
        // so a mixed fleet of legacy and upgraded clients coexists. The
        // negotiation replies are always JSON v1 for the same reason.
        // Every handler nudges the housekeeping loop: new sessions, joins,
        // and reports all change what the earliest deadline is.
        let state = Arc::clone(&self.state);
        let signal = Arc::clone(&self.signal);
        self.fc.expose(
            functions::NEW_SESSION,
            Arc::new(move |msg| {
                let envelope = Envelope::decode(MsgKind::NewSession, &msg.payload)
                    .map_err(|e| e.to_string())?;
                let ControlMsg::NewSession(req) = envelope.msg else {
                    return Err("expected a new_session frame".into());
                };
                let negotiated = WireVersion::negotiate(req.proto);
                Self::handle_new_session(&state, req).map_err(|e| e.to_string())?;
                signal.nudge();
                Ok(Envelope::new(
                    WireVersion::V1Json,
                    ControlMsg::Reply(SessionReply::new("created", negotiated)),
                )
                .encode())
            }),
        )?;

        let state = Arc::clone(&self.state);
        let work = self.work_tx.clone();
        let signal = Arc::clone(&self.signal);
        self.fc.expose(
            functions::JOIN_SESSION,
            Arc::new(move |msg| {
                let envelope =
                    Envelope::decode(MsgKind::Join, &msg.payload).map_err(|e| e.to_string())?;
                let ControlMsg::Join(req) = envelope.msg else {
                    return Err("expected a join frame".into());
                };
                let negotiated = WireVersion::negotiate(req.proto);
                Self::handle_join(&state, &work, req, negotiated).map_err(|e| e.to_string())?;
                signal.nudge();
                Ok(Envelope::new(
                    WireVersion::V1Json,
                    ControlMsg::Reply(SessionReply::new("joined", negotiated)),
                )
                .encode())
            }),
        )?;

        let state = Arc::clone(&self.state);
        let work = self.work_tx.clone();
        let signal = Arc::clone(&self.signal);
        self.fc.expose(
            functions::ROUND_DONE,
            Arc::new(move |msg| {
                let envelope = Envelope::decode(MsgKind::RoundDone, &msg.payload)
                    .map_err(|e| e.to_string())?;
                let ControlMsg::RoundDone(report) = envelope.msg else {
                    return Err("expected a round_done frame".into());
                };
                Self::handle_round_done(&state, &work, report).map_err(|e| e.to_string())?;
                // A done report may have armed the quorum-grace deadline.
                signal.nudge();
                Ok(Bytes::new())
            }),
        )?;

        let state = Arc::clone(&self.state);
        self.fc.expose(
            functions::CONTRIB,
            Arc::new(move |msg| {
                let envelope =
                    Envelope::decode(MsgKind::Contrib, &msg.payload).map_err(|e| e.to_string())?;
                let ControlMsg::Contrib(ping) = envelope.msg else {
                    return Err("expected a contrib frame".into());
                };
                Self::handle_contrib(&state, ping);
                Ok(Bytes::new())
            }),
        )?;
        Ok(())
    }

    fn handle_new_session(state: &Mutex<CoordState>, req: NewSessionRequest) -> Result<()> {
        let mut guard = state.lock();
        // "If two clients send initiation requests, the coordinator will
        // serve the first request, and dump the other one."
        if guard.sessions.contains_key(&req.session_id) {
            return Err(CoreError::Refused("session id already exists".into()));
        }
        if req.capacity_min == 0 || req.capacity_min > req.capacity_max {
            return Err(CoreError::Refused("invalid capacity bounds".into()));
        }
        if req.fl_rounds == 0 {
            return Err(CoreError::Refused("fl_rounds must be positive".into()));
        }
        let topology = guard.topology.clone();
        let (quorum, grace, max_missed_rounds) =
            (guard.quorum, guard.grace, guard.max_missed_rounds);
        let clock = Arc::clone(&guard.clock);
        guard.sessions.insert(
            req.session_id.clone(),
            FlSession::with_clock(
                SessionConfig {
                    session_id: req.session_id.clone(),
                    model_name: req.model_name,
                    capacity_min: req.capacity_min,
                    capacity_max: req.capacity_max,
                    fl_rounds: req.fl_rounds,
                    session_time: Duration::from_secs_f64(req.session_time_secs.max(1.0)),
                    waiting_time: Duration::from_secs_f64(req.waiting_time_secs.max(0.0)),
                    topology,
                    quorum,
                    grace,
                    max_missed_rounds,
                    data_codec: req.codec,
                },
                clock,
            ),
        );
        Ok(())
    }

    fn handle_join(
        state: &Mutex<CoordState>,
        work: &crossbeam::channel::Sender<WorkItem>,
        req: JoinRequest,
        negotiated: WireVersion,
    ) -> Result<()> {
        let start_now = {
            let mut guard = state.lock();
            let session = guard
                .sessions
                .get_mut(&req.session_id)
                .ok_or_else(|| CoreError::UnknownSession(req.session_id.as_str().into()))?;
            session.add_client(
                crate::clustering::ClientInfo {
                    id: req.client_id.clone(),
                    stats: req.stats.into_stats(),
                    preferred: req.preferred_role,
                    num_samples: req.num_samples,
                },
                &req.model_name,
            )?;
            session.wire.insert(req.client_id.clone(), negotiated);
            session
                .codec_support
                .insert(req.client_id.clone(), req.codec);
            session.clients.len() >= session.config.capacity_max
        };
        if start_now {
            let _ = work.send(WorkItem::StartSession(req.session_id.clone()));
        }
        Ok(())
    }

    /// Builds the round-1 plan and pushes roles to every contributor.
    fn start_session(
        state: &Mutex<CoordState>,
        fc: &FleetController,
        session_id: &SessionId,
    ) -> Result<()> {
        // Build the plan under the lock, send messages outside it: role
        // acks can take a while and the handlers must stay responsive.
        let (plan, clients, wire, ack_timeout) = {
            let mut guard = state.lock();
            let guard = &mut *guard;
            let session = guard
                .sessions
                .get_mut(session_id)
                .ok_or_else(|| CoreError::UnknownSession(session_id.as_str().into()))?;
            if session.state != SessionState::Waiting {
                return Ok(()); // lost a start race; already started
            }
            let ranking = guard.optimizer.rank(&session.clients, 1);
            let mut plan = build_plan(&session.clients, &session.config.topology, &ranking, 1);
            stamp_data_wire(&mut plan, session);
            session.plan = Some(plan.clone());
            session.start();
            let clients: Vec<ClientId> = session.clients.iter().map(|c| c.id.clone()).collect();
            (plan, clients, session.wire.clone(), guard.role_ack_timeout)
        };

        // Paper Fig. 5: the coordinator informs every client of its role
        // (awaiting acknowledgement so position subscriptions are in place
        // before any trainer publishes), then publishes the topology. Each
        // client hears control traffic in its negotiated wire version. A
        // client that fails to ack is carried anyway — if it really is
        // gone, the straggler machinery will evict it.
        for assignment in &plan.assignments {
            let version = wire_of(&wire, &assignment.client);
            let _ = Self::send_ctrl_acked(
                fc,
                session_id,
                &assignment.client,
                version,
                &CtrlMsg::SetRole(assignment.spec),
                ack_timeout,
            );
        }
        publish_retained_json(
            fc.client(),
            &topology_topic(session_id),
            &plan.topology_json(session_id.as_str()),
        )?;
        for client in &clients {
            let version = wire_of(&wire, client);
            let _ = Self::send_ctrl(
                fc,
                session_id,
                client,
                version,
                &CtrlMsg::RoundStart { round: 1 },
            );
        }
        Ok(())
    }

    fn handle_round_done(
        state: &Mutex<CoordState>,
        work: &crossbeam::channel::Sender<WorkItem>,
        report: RoundDone,
    ) -> Result<()> {
        let round_closed = {
            let mut guard = state.lock();
            let session = guard
                .sessions
                .get_mut(&report.session_id)
                .ok_or_else(|| CoreError::UnknownSession(report.session_id.as_str().into()))?;
            session.update_stats(&report.client_id, report.stats.into_stats());
            session.record_done(&report.client_id, report.round)?
        };
        if round_closed {
            let _ = work.send(WorkItem::Advance {
                session: report.session_id.clone(),
                round: report.round,
            });
        }
        Ok(())
    }

    fn handle_contrib(state: &Mutex<CoordState>, ping: ContribMsg) {
        let mut guard = state.lock();
        if let Some(session) = guard.sessions.get_mut(&ping.session_id) {
            session.record_contrib(&ping.client_id, ping.round);
        }
    }

    /// Closes `round`: penalize/evict stragglers, rearrange roles (diff
    /// only), then start the next round or complete the session. A no-op
    /// unless the session is still `Running` at exactly `round`, so late
    /// or duplicate closure signals — including an `Advance` racing an
    /// abort — cannot double-advance or broadcast `session_complete` after
    /// an `abort`.
    fn advance(
        state: &Mutex<CoordState>,
        fc: &FleetController,
        session_id: &SessionId,
        round: u32,
    ) -> Result<()> {
        enum Next {
            Aborted {
                reason: String,
                all: Vec<ClientId>,
            },
            Complete {
                all: Vec<ClientId>,
                evicted: Vec<ClientId>,
            },
            Round {
                round: u32,
                changes: Vec<(ClientId, PlanChange)>,
                all: Vec<ClientId>,
                evicted: Vec<ClientId>,
                topology: Json,
            },
        }

        let (next, wire, ack_timeout) = {
            let mut guard = state.lock();
            let guard = &mut *guard;
            let ack_timeout = guard.role_ack_timeout;
            let Some(session) = guard.sessions.get_mut(session_id) else {
                return Ok(()); // garbage-collected; nothing to do
            };
            if session.current_round() != Some(round) {
                return Ok(()); // stale closure signal (already advanced or terminal)
            }
            let wire = session.wire.clone();
            // Contributors that neither completed nor contributed this
            // round accrue a strike; long streaks are evicted before the
            // next plan is built.
            let candidates = session.penalize_stragglers();
            if session.clients.len() - candidates.len() < session.config.capacity_min {
                let reason = "too few live contributors".to_string();
                session.abort(&reason);
                let all = session.clients.iter().map(|c| c.id.clone()).collect();
                (Next::Aborted { reason, all }, wire, ack_timeout)
            } else {
                for client in &candidates {
                    session.evict(client);
                }
                let all: Vec<ClientId> = session.clients.iter().map(|c| c.id.clone()).collect();
                // Black-box feedback (paper future-work item): report the
                // closed round's (possibly virtual) time span to the
                // optimizer.
                if let Some(closed_round) = session.current_round() {
                    let span = session.round_elapsed().as_secs_f64();
                    guard.optimizer.observe_round(closed_round, span);
                }
                let next = match session.advance_round() {
                    None => Next::Complete {
                        all,
                        evicted: candidates,
                    },
                    Some(round) => {
                        // Role optimization (paper §III.E.6): re-rank with
                        // the freshest stats, rebuild, diff.
                        let (changes, topology) =
                            rebuild_plan(session, guard.optimizer.as_mut(), round);
                        Next::Round {
                            round,
                            changes,
                            all,
                            evicted: candidates,
                            topology,
                        }
                    }
                };
                (next, wire, ack_timeout)
            }
        };

        match next {
            Next::Aborted { reason, all } => {
                for client in &all {
                    let version = wire_of(&wire, client);
                    let _ = Self::send_ctrl(
                        fc,
                        session_id,
                        client,
                        version,
                        &CtrlMsg::Abort(reason.clone()),
                    );
                }
                Self::clear_retained_topology(fc, session_id);
            }
            Next::Complete { all, evicted } => {
                Self::send_evictions(fc, session_id, &wire, &evicted);
                for client in &all {
                    let version = wire_of(&wire, client);
                    let _ =
                        Self::send_ctrl(fc, session_id, client, version, &CtrlMsg::SessionComplete);
                }
                // Late subscribers must not read a stale retained plan for
                // a finished session.
                Self::clear_retained_topology(fc, session_id);
            }
            Next::Round {
                round,
                changes,
                all,
                evicted,
                topology,
            } => {
                Self::send_evictions(fc, session_id, &wire, &evicted);
                // Only changed clients hear about roles (paper §III.E.5).
                for (client, PlanChange::Set(spec)) in &changes {
                    let version = wire_of(&wire, client);
                    let _ = Self::send_ctrl_acked(
                        fc,
                        session_id,
                        client,
                        version,
                        &CtrlMsg::SetRole(*spec),
                        ack_timeout,
                    );
                }
                if !changes.is_empty() || !evicted.is_empty() {
                    publish_retained_json(fc.client(), &topology_topic(session_id), &topology)?;
                }
                for client in &all {
                    let version = wire_of(&wire, client);
                    // Best-effort: one unreachable client must not starve
                    // the rest of the fleet of its round_start.
                    let _ = Self::send_ctrl(
                        fc,
                        session_id,
                        client,
                        version,
                        &CtrlMsg::RoundStart { round },
                    );
                }
            }
        }
        Ok(())
    }

    /// The round deadline blew without closure (a data-plane stall, e.g. a
    /// dead trainer starving its aggregator, or a dead aggregator starving
    /// the root). Penalize stragglers; once a streak reaches the limit,
    /// evict them and re-delegate *mid-round*: rebuild the plan for the
    /// same round over the survivors, re-parent orphaned children via
    /// `set_role` diffs, and re-announce the round so survivors re-send
    /// their contributions (sender-deduplicated, so re-sends are safe).
    fn handle_overdue(
        state: &Mutex<CoordState>,
        fc: &FleetController,
        work: &crossbeam::channel::Sender<WorkItem>,
        session_id: &SessionId,
    ) -> Result<()> {
        enum Outcome {
            Abort {
                reason: String,
                all: Vec<ClientId>,
            },
            /// No one evictable yet: fresh deadline + re-announce the round
            /// so live clients re-send anything the stall swallowed.
            Nudge {
                round: u32,
                all: Vec<ClientId>,
            },
            /// Evicting the holdouts closed the round outright: no
            /// same-round re-delegation needed, just notify the evicted
            /// and let the regular advance rebuild for the next round.
            Closed {
                round: u32,
                evicted: Vec<ClientId>,
            },
            Redelegate {
                round: u32,
                evicted: Vec<ClientId>,
                changes: Vec<(ClientId, PlanChange)>,
                all: Vec<ClientId>,
                topology: Json,
            },
        }

        let (outcome, wire, ack_timeout) = {
            let mut guard = state.lock();
            let guard = &mut *guard;
            let (round_timeout, ack_timeout) = (guard.round_timeout, guard.role_ack_timeout);
            let Some(session) = guard.sessions.get_mut(session_id) else {
                return Ok(());
            };
            let Some(round) = session.current_round() else {
                return Ok(()); // aborted/completed while this item was queued
            };
            // Re-check under the lock: a previous Overdue item may already
            // have reset the clock, or the round may just have closed.
            if !session.round_overdue(round_timeout) {
                return Ok(());
            }
            let wire = session.wire.clone();
            let candidates = session.penalize_stragglers();
            // Each blown deadline opens a fresh strike window: liveness
            // evidence must be re-established (the resync re-announcement
            // makes live clients re-ping), so dead clients keep accruing
            // strikes even though the round never closes.
            session.begin_strike_window();
            if session.clients.len() - candidates.len() < session.config.capacity_min {
                let reason = "too few live contributors".to_string();
                session.abort(&reason);
                let all = session.clients.iter().map(|c| c.id.clone()).collect();
                (Outcome::Abort { reason, all }, wire, ack_timeout)
            } else if candidates.is_empty() {
                session.reset_round_clock();
                let all = session.clients.iter().map(|c| c.id.clone()).collect();
                (Outcome::Nudge { round, all }, wire, ack_timeout)
            } else {
                for client in &candidates {
                    session.evict(client);
                }
                if session.all_done() {
                    // Evicting the holdouts closed the round: the regular
                    // advance path rebuilds (and diffs against the
                    // outgoing plan) for the *next* round, so a same-round
                    // re-delegation would only trigger a redundant
                    // fleet-wide re-send.
                    (
                        Outcome::Closed {
                            round,
                            evicted: candidates,
                        },
                        wire,
                        ack_timeout,
                    )
                } else {
                    // Mid-round re-delegation: same round, surviving
                    // clients. `build_plan`/`diff_plans` re-parent the
                    // evicted aggregators' orphaned children automatically.
                    let (changes, topology) =
                        rebuild_plan(session, guard.optimizer.as_mut(), round);
                    session.reset_round_clock();
                    let all = session.clients.iter().map(|c| c.id.clone()).collect();
                    (
                        Outcome::Redelegate {
                            round,
                            evicted: candidates,
                            changes,
                            all,
                            topology,
                        },
                        wire,
                        ack_timeout,
                    )
                }
            }
        };

        match outcome {
            Outcome::Abort { reason, all } => {
                for client in &all {
                    let version = wire_of(&wire, client);
                    let _ = Self::send_ctrl(
                        fc,
                        session_id,
                        client,
                        version,
                        &CtrlMsg::Abort(reason.clone()),
                    );
                }
                Self::clear_retained_topology(fc, session_id);
            }
            Outcome::Nudge { round, all } => {
                for client in &all {
                    let version = wire_of(&wire, client);
                    let _ = Self::send_ctrl(
                        fc,
                        session_id,
                        client,
                        version,
                        &CtrlMsg::RoundStart { round },
                    );
                }
            }
            Outcome::Closed { round, evicted } => {
                Self::send_evictions(fc, session_id, &wire, &evicted);
                let _ = work.send(WorkItem::Advance {
                    session: session_id.clone(),
                    round,
                });
            }
            Outcome::Redelegate {
                round,
                evicted,
                changes,
                all,
                topology,
            } => {
                Self::send_evictions(fc, session_id, &wire, &evicted);
                for (client, PlanChange::Set(spec)) in &changes {
                    let version = wire_of(&wire, client);
                    let _ = Self::send_ctrl_acked(
                        fc,
                        session_id,
                        client,
                        version,
                        &CtrlMsg::SetRole(*spec),
                        ack_timeout,
                    );
                }
                publish_retained_json(fc.client(), &topology_topic(session_id), &topology)?;
                // Re-announce the running round: survivors with a pending
                // contribution re-send it to their (possibly new) parent.
                for client in &all {
                    let version = wire_of(&wire, client);
                    let _ = Self::send_ctrl(
                        fc,
                        session_id,
                        client,
                        version,
                        &CtrlMsg::RoundStart { round },
                    );
                }
            }
        }
        Ok(())
    }

    /// Periodic housekeeping: start sessions whose waiting window closed,
    /// abort under-subscribed or budget-blown ones, force-close rounds
    /// whose quorum grace expired, escalate blown round deadlines to the
    /// straggler machinery, and garbage-collect terminal sessions.
    /// Returns the earliest upcoming deadline across all sessions, so the
    /// caller can sleep exactly until something can actually happen.
    fn housekeeping(
        state: &Arc<Mutex<CoordState>>,
        fc: &FleetController,
        work: &crossbeam::channel::Sender<WorkItem>,
    ) -> Option<Instant> {
        #[derive(Debug)]
        enum Action {
            Start(SessionId),
            Abort(SessionId, String, Vec<(ClientId, WireVersion)>),
            CloseQuorum(SessionId, u32),
            Overdue(SessionId),
        }
        let (actions, next_deadline): (Vec<Action>, Option<Instant>) = {
            let mut guard = state.lock();
            let round_timeout = guard.round_timeout;
            let linger = guard.terminal_linger;
            let mut actions = Vec::new();
            guard.sessions.retain(|_, s| !s.collectable(linger));
            for (id, session) in guard.sessions.iter_mut() {
                if session.should_start() {
                    actions.push(Action::Start(id.clone()));
                } else if session.should_abort_waiting() {
                    let clients = session
                        .clients
                        .iter()
                        .map(|c| (c.id.clone(), session.wire_version(&c.id)))
                        .collect();
                    session.abort("not enough contributors");
                    actions.push(Action::Abort(
                        id.clone(),
                        "not enough contributors".into(),
                        clients,
                    ));
                } else if session.budget_blown() {
                    let clients = session
                        .clients
                        .iter()
                        .map(|c| (c.id.clone(), session.wire_version(&c.id)))
                        .collect();
                    session.abort("session time budget exceeded");
                    actions.push(Action::Abort(
                        id.clone(),
                        "session time budget exceeded".into(),
                        clients,
                    ));
                } else if session.quorum_ready() {
                    if let Some(round) = session.current_round() {
                        actions.push(Action::CloseQuorum(id.clone(), round));
                    }
                } else if session.round_overdue(round_timeout) {
                    actions.push(Action::Overdue(id.clone()));
                }
            }
            let next = guard
                .sessions
                .values()
                .filter_map(|s| s.next_deadline(round_timeout, linger))
                .min();
            (actions, next)
        };
        for action in actions {
            match action {
                Action::Start(id) => {
                    let _ = work.send(WorkItem::StartSession(id));
                }
                Action::Abort(id, reason, clients) => {
                    for (client, version) in clients {
                        let _ = Self::send_ctrl(
                            fc,
                            &id,
                            &client,
                            version,
                            &CtrlMsg::Abort(reason.clone()),
                        );
                    }
                    Self::clear_retained_topology(fc, &id);
                }
                Action::CloseQuorum(id, round) => {
                    let _ = work.send(WorkItem::Advance { session: id, round });
                }
                Action::Overdue(id) => {
                    let _ = work.send(WorkItem::Overdue(id));
                }
            }
        }
        next_deadline
    }

    fn send_evictions(
        fc: &FleetController,
        session_id: &SessionId,
        wire: &HashMap<ClientId, WireVersion>,
        evicted: &[ClientId],
    ) {
        for client in evicted {
            let version = wire_of(wire, client);
            // Fire-and-forget: the evictee is very possibly dead.
            let _ = Self::send_ctrl(
                fc,
                session_id,
                client,
                version,
                &CtrlMsg::Evicted {
                    reason: "missed too many consecutive rounds".into(),
                },
            );
        }
    }

    /// Publishes an empty retained payload on the session's topology
    /// topic, clearing the retained plan (MQTT 3.1.1 §3.3.1.3) so late
    /// subscribers of a finished session do not read a stale topology.
    fn clear_retained_topology(fc: &FleetController, session_id: &SessionId) {
        let _ = fc.client().publish(
            &topology_topic(session_id),
            Bytes::new(),
            QoS::AtLeastOnce,
            true,
        );
    }

    fn ctrl_frame(session: &SessionId, version: WireVersion, msg: &CtrlMsg) -> Bytes {
        Envelope::new(
            version,
            ControlMsg::Ctrl {
                session: session.clone(),
                msg: msg.clone(),
            },
        )
        .encode()
    }

    fn send_ctrl(
        fc: &FleetController,
        session: &SessionId,
        client: &ClientId,
        version: WireVersion,
        msg: &CtrlMsg,
    ) -> Result<()> {
        fc.call(
            &functions::client_ctrl(client.as_str()),
            Self::ctrl_frame(session, version, msg),
        )?;
        Ok(())
    }

    fn send_ctrl_acked(
        fc: &FleetController,
        session: &SessionId,
        client: &ClientId,
        version: WireVersion,
        msg: &CtrlMsg,
        timeout: Duration,
    ) -> Result<()> {
        fc.call_with_reply_timeout(
            &functions::client_ctrl(client.as_str()),
            Self::ctrl_frame(session, version, msg),
            timeout,
        )?;
        Ok(())
    }
}

/// Re-ranks, rebuilds, stamps, and installs the cluster plan for `round`
/// over the session's current membership. Returns the per-client change
/// set (diffed against the outgoing plan) and the new topology document.
/// Shared by the end-of-round advance and the mid-round re-delegation so
/// the two paths can never diverge.
fn rebuild_plan(
    session: &mut FlSession,
    optimizer: &mut dyn RoleOptimizer,
    round: u32,
) -> (Vec<(ClientId, PlanChange)>, Json) {
    let ranking = optimizer.rank(&session.clients, round);
    let mut new_plan = build_plan(&session.clients, &session.config.topology, &ranking, round);
    // Stamp before diffing so the data-plane version never registers as a
    // per-round role change.
    stamp_data_wire(&mut new_plan, session);
    let changes = match &session.plan {
        Some(old_plan) => diff_plans(old_plan, &new_plan),
        // Defensive: a running session always has a plan, but losing one
        // must not panic — treat every assignment as changed instead.
        None => new_plan
            .assignments
            .iter()
            .map(|a| (a.client.clone(), PlanChange::Set(a.spec)))
            .collect(),
    };
    let topology = new_plan.topology_json(session.config.session_id.as_str());
    session.plan = Some(new_plan);
    (changes, topology)
}

/// Looks up a client's negotiated version in a cloned wire map.
fn wire_of(wire: &HashMap<ClientId, WireVersion>, client: &ClientId) -> WireVersion {
    wire.get(client).copied().unwrap_or(WireVersion::V1Json)
}

/// Stamps every assignment with the session's data-plane negotiation
/// results: the blob-metadata wire version and the update codec, both the
/// *minimum* across all members — blobs flow client → client, so any
/// aggregator could be the receiver and must be able to decode.
fn stamp_data_wire(plan: &mut crate::clustering::ClusterPlan, session: &FlSession) {
    let floor = session
        .clients
        .iter()
        .map(|c| session.wire_version(&c.id))
        .min()
        .unwrap_or(WireVersion::V1Json);
    let codec = session.data_codec();
    for assignment in &mut plan.assignments {
        assignment.spec.data_wire = floor.as_u8();
        assignment.spec.data_codec = codec;
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop();
    }
}
