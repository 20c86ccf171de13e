//! The SDFLMQ coordinator (paper §III.D-E).
//!
//! Owns session management, the clustering engine, topic-based role
//! (re)arrangement, and the load balancer. The coordinator is *not* on the
//! data path: model parameters flow client → aggregator positions →
//! root → every client; the coordinator only exchanges small control
//! messages, which is the core scalability claim of semi-decentralized FL.
//!
//! Protocol summary:
//!
//! 1. `coord_new_session` — creates a session (first request wins).
//! 2. `coord_join_session` — registers a contributor; when the session
//!    fills (or its waiting window closes above `capacity_min`) the
//!    coordinator builds a [`crate::ClusterPlan`], pushes `set_role` to every
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
//!
//! **Layout.** Every decision above is made in `core.rs` by a `CoordCore`
//! that does no I/O and never reads a clock. This file is the glue around
//! it: the request handlers (on the MQTT dispatcher thread), the clock,
//! and one loop thread that runs whatever may wait for a client and is the
//! only sender of control messages. `docs/ARCHITECTURE.md` has the module
//! map.

mod core;
#[cfg(test)]
mod tests;

use self::core::{Announce, CoordCore, Outgoing, Step};
use crate::blob::publish_retained_json;
use crate::clock::{wall_clock, Clock};
use crate::clustering::Topology;
use crate::error::{CoreError, Result};
use crate::ids::{ClientId, SessionId};
use crate::optimizer::{MemoryAware, RoleOptimizer};
use crate::session::SessionState;
use crate::topics::{functions, topology_topic};
use crate::wirecodec::{ControlMsg, MsgKind};
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use sdflmq_mqtt::{Broker, Client, ClientOptions, Dialer, QoS};
use sdflmq_mqttfc::FleetController;
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

/// What crosses the work channel to the loop thread.
enum WorkItem {
    /// Orchestration a request made due.
    Step(Step),
    /// Something moved a deadline (a new session, a quorum just met, a
    /// virtual-clock step): look at the timers again.
    Wake,
    /// The coordinator stopped. Needed because every exposed handler
    /// holds a sender of this very channel, so it never disconnects on
    /// its own.
    Stop,
}

/// A running coordinator node.
pub struct Coordinator {
    fc: FleetController,
    core: Arc<Mutex<CoordCore>>,
    work_tx: Sender<WorkItem>,
    /// The loop thread; [`Coordinator::stop`] joins it.
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
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
        let fc = FleetController::new(client, COORDINATOR_ID)?;
        let clock = Arc::clone(&config.clock);
        let role_ack_timeout = config.role_ack_timeout;
        let core = Arc::new(Mutex::new(CoordCore::new(config)));
        let (work_tx, work_rx) = crossbeam::channel::unbounded();

        // A virtual-clock step moves every deadline at once: to the loop
        // it is one more wake item.
        let waker_tx = work_tx.clone();
        clock.register_waker(Arc::new(move || {
            let _ = waker_tx.send(WorkItem::Wake);
        }));

        // Handlers run on the MQTT dispatcher thread and only ever touch
        // the core; whatever may wait for a client goes to the loop
        // thread. A frame that does not decode is refused in the reply.
        for (function, kind) in [
            (functions::NEW_SESSION, MsgKind::NewSession),
            (functions::JOIN_SESSION, MsgKind::Join),
            (functions::ROUND_DONE, MsgKind::RoundDone),
            (functions::CONTRIB, MsgKind::Contrib),
        ] {
            let (core, clock, work) = (Arc::clone(&core), Arc::clone(&clock), work_tx.clone());
            fc.expose(
                function,
                Arc::new(move |msg| {
                    let request =
                        ControlMsg::decode(kind, &msg.payload).map_err(|e| e.to_string())?;
                    let item = on_request(&mut core.lock(), request, clock.now())
                        .map_err(|e| e.to_string())?;
                    if let Some(item) = item {
                        let _ = work.send(item);
                    }
                    Ok(Bytes::new())
                }),
            )?;
        }

        let orchestration = Loop {
            fc: fc.clone(),
            core: Arc::clone(&core),
            clock,
            role_ack_timeout,
        };
        let thread = std::thread::Builder::new()
            .name("coordinator-loop".into())
            .spawn(move || orchestration.run(&work_rx))
            .expect("spawn coordinator loop");

        Ok(Coordinator {
            fc,
            core,
            work_tx,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The coordinator's fleet controller (exposed for tests/telemetry).
    pub fn fleet(&self) -> &FleetController {
        &self.fc
    }

    /// Snapshot of a session's lifecycle state. Terminal sessions are
    /// garbage-collected after the configured linger, after which this
    /// returns `None`.
    pub fn session_state(&self, session: &SessionId) -> Option<SessionState> {
        self.core.lock().session(session).map(|s| s.state.clone())
    }

    /// Ids of a session's current (surviving) contributors.
    pub fn session_members(&self, session: &SessionId) -> Option<Vec<ClientId>> {
        self.core.lock().session(session).map(|s| s.member_ids())
    }

    /// Stops orchestration (sessions freeze; used on shutdown) and waits
    /// for the loop thread to exit. Idempotent.
    pub fn stop(&self) {
        let _ = self.work_tx.send(WorkItem::Stop);
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Feeds one decoded request to the core at `now`. Returns what to hand
/// the loop thread, if anything. An accepted request is answered with an
/// empty reply, a refused one with the error.
fn on_request(core: &mut CoordCore, request: ControlMsg, now: Instant) -> Result<Option<WorkItem>> {
    Ok(match request {
        ControlMsg::NewSession(req) => {
            core.on_new_session(req, now)?;
            // The waiting window is a new deadline.
            Some(WorkItem::Wake)
        }
        ControlMsg::Join(req) => core.on_join(req)?.map(WorkItem::Step),
        ControlMsg::RoundDone(report) => {
            let step = core.on_round_done(report, now)?;
            // A report that closes nothing may still have met the quorum
            // and so armed the grace deadline.
            Some(step.map_or(WorkItem::Wake, WorkItem::Step))
        }
        ControlMsg::Contrib(ping) => {
            core.on_contrib(ping);
            None
        }
        ControlMsg::Ctrl { .. } => {
            return Err(CoreError::Protocol("not a coordinator request".into()));
        }
    })
}

/// The one orchestration thread: runs the steps requests and timers make
/// due, and is the only place that sends on the coordinator's behalf.
/// Role handshakes block it — the acknowledgements arrive on the MQTT
/// dispatcher, which is why none of this may run there — so one slow
/// client delays every session's next step, never a request's reply.
struct Loop {
    fc: FleetController,
    core: Arc<Mutex<CoordCore>>,
    clock: Arc<dyn Clock>,
    /// How long a `set_role` push waits for its acknowledgement.
    role_ack_timeout: Duration,
}

impl Loop {
    fn run(&self, work: &Receiver<WorkItem>) {
        loop {
            let now = self.clock.now();
            let (due, deadline) = {
                let mut core = self.core.lock();
                (core.on_timer(now), core.next_deadline())
            };
            if !due.is_empty() {
                due.into_iter().for_each(|step| self.step(step));
                continue; // handshakes took time: look at the timers again
            }
            let item = match deadline {
                None => work.recv().ok(),
                // +1 ms so the strict `>` deadlines read true on wake-up.
                // The wait is measured on the session clock; a virtual
                // clock's step cuts it short with a `Wake`.
                Some(deadline) => {
                    let wait = deadline.saturating_duration_since(now) + Duration::from_millis(1);
                    match work.recv_timeout(wait) {
                        Ok(item) => Some(item),
                        Err(RecvTimeoutError::Timeout) => Some(WorkItem::Wake),
                        Err(RecvTimeoutError::Disconnected) => None,
                    }
                }
            };
            match item {
                Some(WorkItem::Step(step)) => self.step(step),
                Some(WorkItem::Wake) => {}
                Some(WorkItem::Stop) | None => return,
            }
        }
    }

    /// Runs `step` and whatever it asks to run next.
    fn step(&self, step: Step) {
        let mut next = Some(step);
        while let Some(step) = next {
            let Some(announce) = self.core.lock().run(step, self.clock.now()) else {
                return;
            };
            self.announce(&announce);
            next = announce.then;
        }
    }

    /// Puts one decision on the wire, in [`Announce::sends`] order. Sends
    /// are best-effort — an evictee is very possibly dead, a client that
    /// does not acknowledge its role is carried anyway (the straggler
    /// machinery evicts it if it really is gone), and one unreachable
    /// client must not starve the rest of the fleet of its `round_start`.
    /// Consecutive unacknowledged control messages (the evictions, the
    /// broadcast) go out as one batch, in flight together behind one
    /// acknowledgement wait; an acknowledged `set_role` or the retained
    /// document first flushes what is batched, so the order holds.
    fn announce(&self, announce: &Announce) {
        let mut batch: Vec<(String, Bytes)> = Vec::new();
        let flush = |batch: &mut Vec<(String, Bytes)>| {
            let calls = batch
                .iter()
                .map(|(function, frame)| (function.as_str(), frame.clone()));
            let _ = self.fc.call_all(calls);
            batch.clear();
        };
        for send in announce.sends() {
            match send {
                Outgoing::Ctrl { client, msg, acked } => {
                    let function = functions::client_ctrl(client.as_str());
                    let session = announce.session.clone();
                    let frame = ControlMsg::Ctrl { session, msg }.encode();
                    if acked {
                        flush(&mut batch);
                        let _ = self.fc.call_with_reply_timeout(
                            &function,
                            frame,
                            self.role_ack_timeout,
                        );
                    } else {
                        batch.push((function, frame));
                    }
                }
                Outgoing::Retain(doc) => {
                    flush(&mut batch);
                    let topic = topology_topic(&announce.session);
                    let client = self.fc.client();
                    let _ = match doc {
                        Some(doc) => publish_retained_json(client, &topic, doc),
                        None => client
                            .publish(&topic, Bytes::new(), QoS::AtLeastOnce, true)
                            .map_err(Into::into),
                    };
                }
            }
        }
        flush(&mut batch);
    }
}
