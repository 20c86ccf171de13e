//! The coordinator's decisions, free of I/O and of clocks.
//!
//! [`CoordCore`] owns the sessions, the load-balancer policy and the
//! policy durations. It never sends, sleeps or reads a clock: every entry
//! point takes `now`, requests and timers come back as [`Step`]s for the
//! glue's loop thread to [`run`](CoordCore::run), and every run step
//! comes back as one [`Announce`] for the glue to put on the wire. Quorum,
//! grace, strike, eviction and re-delegation rules are therefore checked
//! in `tests.rs` without a broker, a thread or a sleep.

use super::CoordinatorConfig;
use crate::clustering::{build_plan, diff_plans, ClientInfo, PlanChange, Topology};
use crate::error::{CoreError, Result};
use crate::ids::{ClientId, SessionId};
use crate::messages::{ContribMsg, CtrlMsg, JoinRequest, NewSessionRequest, RoundDone};
use crate::optimizer::RoleOptimizer;
use crate::session::{FlSession, SessionConfig, SessionState};
use sdflmq_mqttfc::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Longest session or waiting time a peer may ask for: far beyond any
/// real federation, and small enough that no deadline derived from it can
/// overflow an `Instant`.
const MAX_REQUESTED_TIME: Duration = Duration::from_secs(100 * 365 * 86_400);

/// Orchestration that may end in role handshakes, so it runs on the
/// glue's loop thread and never on the MQTT dispatcher. Every step is
/// re-validated against the session when it runs, so a late or duplicate
/// one is inert.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Step {
    /// Build the round-1 plan and hand out roles.
    Start(SessionId),
    /// Close `round` and open the next one. Stamped with the round it was
    /// decided for, so a duplicate closure signal (a late `round_done`
    /// racing the grace timer, or a closure racing an abort) cannot
    /// double-advance or resurrect a terminal session.
    Advance { session: SessionId, round: u32 },
    /// The round deadline blew: penalize stragglers, maybe evict and
    /// re-delegate mid-round.
    Overdue(SessionId),
    /// The waiting window closed under-subscribed, or the session's time
    /// budget ran out: abort.
    Expire(SessionId),
}

/// What an [`Announce`] does to the session's retained topology document.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TopologyDoc {
    /// Nothing changed.
    Keep,
    /// Publish the new plan.
    Publish(Json),
    /// Clear it (MQTT 3.1.1 §3.3.1.3), so late subscribers of a finished
    /// session do not read a stale plan.
    Clear,
}

/// Everything one decision puts on the wire; [`Announce::sends`] is the
/// order it goes out in.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Announce {
    pub session: SessionId,
    pub evicted: Vec<ClientId>,
    /// Only clients whose assignment changed (paper §III.E.5).
    pub roles: Vec<(ClientId, PlanChange)>,
    pub topology: TopologyDoc,
    pub broadcast: Option<CtrlMsg>,
    pub recipients: Vec<ClientId>,
    /// A step to run right after this announce went out.
    pub then: Option<Step>,
}

/// One wire action of an [`Announce`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Outgoing<'a> {
    /// A control message for one client. `acked` sends wait for the
    /// client's acknowledgement.
    Ctrl {
        client: &'a ClientId,
        msg: CtrlMsg,
        acked: bool,
    },
    /// The session's retained topology document: the new plan, or `None`
    /// to clear it.
    Retain(Option<&'a Json>),
}

impl Announce {
    fn of(session: &FlSession) -> Announce {
        Announce {
            session: session.config.session_id.clone(),
            evicted: Vec::new(),
            roles: Vec::new(),
            topology: TopologyDoc::Keep,
            broadcast: None,
            recipients: Vec::new(),
            then: None,
        }
    }

    /// Sends `msg` to every current member.
    fn tell_all(&mut self, session: &FlSession, msg: CtrlMsg) {
        self.recipients = session.member_ids();
        self.broadcast = Some(msg);
    }

    /// Aborts `session` and tells every member why.
    fn abort(&mut self, session: &mut FlSession, reason: &str, now: Instant) {
        session.abort(reason, now);
        self.topology = TopologyDoc::Clear;
        self.tell_all(session, CtrlMsg::Abort(reason.to_owned()));
    }

    /// Charges every unresponsive contributor a strike and evicts those
    /// whose streak ran out — unless that would leave fewer than
    /// `capacity_min`, which aborts the session instead (and evicts
    /// nobody). Returns whether the session lives on.
    fn evict_stragglers(&mut self, session: &mut FlSession, now: Instant) -> bool {
        let candidates = session.penalize_stragglers();
        if session.clients.len() - candidates.len() < session.config.capacity_min {
            self.abort(session, "too few live contributors", now);
            return false;
        }
        for client in &candidates {
            session.evict(client, now);
        }
        self.evicted = candidates;
        true
    }

    /// The wire actions in sending order: evictions first (the evictees
    /// stop sending), then acknowledged role changes (so position
    /// subscriptions exist before data flows), then the retained
    /// topology, and only then the broadcast that sets the fleet going.
    pub fn sends(&self) -> Vec<Outgoing<'_>> {
        let ctrl = |client, msg, acked| Outgoing::Ctrl { client, msg, acked };
        let evictions = self.evicted.iter().map(|client| {
            let reason = "missed too many consecutive rounds".into();
            ctrl(client, CtrlMsg::Evicted { reason }, false)
        });
        let roles = self
            .roles
            .iter()
            .map(|(client, PlanChange::Set(spec))| ctrl(client, CtrlMsg::SetRole(*spec), true));
        let topology = match &self.topology {
            TopologyDoc::Keep => None,
            TopologyDoc::Publish(doc) => Some(Outgoing::Retain(Some(doc))),
            TopologyDoc::Clear => Some(Outgoing::Retain(None)),
        };
        let broadcast = self.broadcast.iter().flat_map(|msg| {
            self.recipients
                .iter()
                .map(move |client| ctrl(client, msg.clone(), false))
        });
        evictions
            .chain(roles)
            .chain(topology)
            .chain(broadcast)
            .collect()
    }
}

/// Session management, clustering and load balancing (paper §III.D-E).
pub(crate) struct CoordCore {
    /// Ordered, so timer steps come out in the same order on every run.
    sessions: BTreeMap<SessionId, FlSession>,
    optimizer: Box<dyn RoleOptimizer>,
    topology: Topology,
    round_timeout: Duration,
    quorum: f64,
    grace: Duration,
    max_missed_rounds: u32,
    terminal_linger: Duration,
}

impl CoordCore {
    pub fn new(config: CoordinatorConfig) -> CoordCore {
        CoordCore {
            sessions: BTreeMap::new(),
            optimizer: config.optimizer,
            topology: config.topology,
            round_timeout: config.round_timeout,
            quorum: config.quorum,
            grace: config.grace,
            max_missed_rounds: config.max_missed_rounds,
            terminal_linger: config.terminal_linger,
        }
    }

    pub fn session(&self, id: &SessionId) -> Option<&FlSession> {
        self.sessions.get(id)
    }

    /// `coord_new_session`: the first request for an id wins.
    pub fn on_new_session(&mut self, req: NewSessionRequest, now: Instant) -> Result<()> {
        // "If two clients send initiation requests, the coordinator will
        // serve the first request, and dump the other one."
        if self.sessions.contains_key(&req.session_id) {
            return Err(CoreError::Refused("session id already exists".into()));
        }
        if req.capacity_min == 0 || req.capacity_min > req.capacity_max {
            return Err(CoreError::Refused("invalid capacity bounds".into()));
        }
        if req.fl_rounds == 0 {
            return Err(CoreError::Refused("fl_rounds must be positive".into()));
        }
        // Peer-supplied floats: NaN and negatives fall to the floor,
        // infinities and absurd budgets are refused.
        let time = |secs: f64, floor: f64| {
            Duration::try_from_secs_f64(secs.max(floor))
                .ok()
                .filter(|d| *d <= MAX_REQUESTED_TIME)
                .ok_or_else(|| CoreError::Refused("session or waiting time out of range".into()))
        };
        let config = SessionConfig {
            session_id: req.session_id.clone(),
            model_name: req.model_name,
            capacity_min: req.capacity_min,
            capacity_max: req.capacity_max,
            fl_rounds: req.fl_rounds,
            session_time: time(req.session_time_secs, 1.0)?,
            waiting_time: time(req.waiting_time_secs, 0.0)?,
            topology: self.topology.clone(),
            quorum: self.quorum,
            grace: self.grace,
            max_missed_rounds: self.max_missed_rounds,
            data_codec: req.codec,
        };
        self.sessions
            .insert(req.session_id, FlSession::new(config, now));
        Ok(())
    }

    /// `coord_join_session`: registers a contributor; the join that fills
    /// the session starts it.
    pub fn on_join(&mut self, req: JoinRequest) -> Result<Option<Step>> {
        let session = self.session_mut(&req.session_id)?;
        session.add_client(
            ClientInfo {
                id: req.client_id.clone(),
                stats: req.stats.into_stats(),
                preferred: req.preferred_role,
                num_samples: req.num_samples,
            },
            &req.model_name,
        )?;
        session.codec_support.insert(req.client_id, req.codec);
        Ok((session.clients.len() >= session.config.capacity_max)
            .then_some(Step::Start(req.session_id)))
    }

    /// `coord_round_done`: a step when the report closes the round.
    pub fn on_round_done(&mut self, report: RoundDone, now: Instant) -> Result<Option<Step>> {
        let session = self.session_mut(&report.session_id)?;
        session.update_stats(&report.client_id, report.stats.into_stats());
        let closed = session.record_done(&report.client_id, report.round, now)?;
        Ok(closed.then_some(Step::Advance {
            session: report.session_id,
            round: report.round,
        }))
    }

    /// `coord_contrib`: a liveness ping; never an error, never a step.
    pub fn on_contrib(&mut self, ping: ContribMsg) {
        if let Some(session) = self.sessions.get_mut(&ping.session_id) {
            session.record_contrib(&ping.client_id, ping.round);
        }
    }

    /// Garbage-collects terminal sessions past their linger and lists what
    /// time alone has made due: waiting windows, budgets, quorum grace,
    /// round deadlines.
    pub fn on_timer(&mut self, now: Instant) -> Vec<Step> {
        let (round_timeout, linger) = (self.round_timeout, self.terminal_linger);
        self.sessions.retain(|_, s| !s.collectable(linger, now));
        let due = |(id, s): (&SessionId, &FlSession)| {
            if s.should_start(now) {
                Some(Step::Start(id.clone()))
            } else if s.expired(now).is_some() {
                Some(Step::Expire(id.clone()))
            } else if s.quorum_ready(now) {
                let (session, round) = (id.clone(), s.current_round()?);
                Some(Step::Advance { session, round })
            } else if s.round_overdue(round_timeout, now) {
                Some(Step::Overdue(id.clone()))
            } else {
                None
            }
        };
        self.sessions.iter().filter_map(due).collect()
    }

    /// The earliest instant at which [`on_timer`](Self::on_timer) can have
    /// something new to say; `None` parks the loop until work arrives.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.sessions
            .values()
            .filter_map(|s| s.next_deadline(self.round_timeout, self.terminal_linger))
            .min()
    }

    /// Runs one step at `now`. `None` when the step is stale: the session
    /// is gone, terminal, or already past what the step was decided for.
    pub fn run(&mut self, step: Step, now: Instant) -> Option<Announce> {
        match step {
            Step::Start(id) => self.start(&id, now),
            Step::Advance { session, round } => self.advance(&session, round, now),
            Step::Overdue(id) => self.overdue(&id, now),
            Step::Expire(id) => {
                let session = self.sessions.get_mut(&id)?;
                let reason = session.expired(now)?;
                let mut ann = Announce::of(session);
                ann.abort(session, reason, now);
                Some(ann)
            }
        }
    }

    fn session_mut(&mut self, id: &SessionId) -> Result<&mut FlSession> {
        self.sessions
            .get_mut(id)
            .ok_or_else(|| CoreError::UnknownSession(id.as_str().into()))
    }

    /// Paper Fig. 5: every client hears its role (acknowledged, so position
    /// subscriptions exist before any trainer publishes), then the topology
    /// is published, then round 1 starts.
    fn start(&mut self, id: &SessionId, now: Instant) -> Option<Announce> {
        let session = self.sessions.get_mut(id)?;
        if session.state != SessionState::Waiting {
            return None; // lost a start race; already started
        }
        session.start(now);
        let mut ann = Announce::of(session);
        let (roles, topology) = rebuild_plan(session, self.optimizer.as_mut(), 1);
        ann.roles = roles;
        ann.topology = TopologyDoc::Publish(topology);
        ann.tell_all(session, CtrlMsg::RoundStart { round: 1 });
        Some(ann)
    }

    /// Closes `round`: penalize/evict stragglers, rearrange roles (diff
    /// only), then start the next round or complete the session.
    fn advance(&mut self, id: &SessionId, round: u32, now: Instant) -> Option<Announce> {
        let session = self.sessions.get_mut(id)?;
        if session.current_round() != Some(round) {
            return None;
        }
        let mut ann = Announce::of(session);
        // Contributors that neither completed nor contributed this round
        // accrue a strike; long streaks are evicted before the next plan
        // is built.
        if !ann.evict_stragglers(session, now) {
            return Some(ann);
        }
        // Black-box feedback (paper future-work item): the closed round's
        // time span goes to the optimizer.
        self.optimizer
            .observe_round(round, session.round_elapsed(now).as_secs_f64());
        let msg = match session.advance_round(now) {
            None => {
                ann.topology = TopologyDoc::Clear;
                CtrlMsg::SessionComplete
            }
            Some(next) => {
                // Role optimization (paper §III.E.6): re-rank with the
                // freshest stats, rebuild, diff.
                let (roles, topology) = rebuild_plan(session, self.optimizer.as_mut(), next);
                if !roles.is_empty() || !ann.evicted.is_empty() {
                    ann.topology = TopologyDoc::Publish(topology);
                }
                ann.roles = roles;
                CtrlMsg::RoundStart { round: next }
            }
        };
        ann.tell_all(session, msg);
        Some(ann)
    }

    /// The round deadline blew without closure (a data-plane stall: a dead
    /// trainer starving its aggregator, or a dead aggregator starving the
    /// root). Penalize stragglers; once a streak reaches the limit, evict
    /// them and re-delegate *mid-round*: rebuild the plan for the same
    /// round over the survivors, re-parent orphaned children via role
    /// diffs, and re-announce the round so survivors re-send their
    /// contributions (sender-deduplicated, so re-sends are safe).
    fn overdue(&mut self, id: &SessionId, now: Instant) -> Option<Announce> {
        let session = self.sessions.get_mut(id)?;
        let round = session.current_round()?;
        if !session.round_overdue(self.round_timeout, now) {
            return None; // an earlier step already restarted the round clock
        }
        let mut ann = Announce::of(session);
        if !ann.evict_stragglers(session, now) {
            return Some(ann);
        }
        // Each blown deadline opens a fresh strike window: liveness
        // evidence must be re-established (the re-announcement makes live
        // clients re-ping), so dead clients keep accruing strikes even
        // though the round never closes.
        session.begin_strike_window();
        if !ann.evicted.is_empty() {
            if session.all_done() {
                // Evicting the holdouts closed the round: the regular
                // advance rebuilds (and diffs against the outgoing plan)
                // for the *next* round, so a same-round re-delegation
                // would only trigger a redundant fleet-wide re-send.
                ann.then = Some(Step::Advance {
                    session: id.clone(),
                    round,
                });
                return Some(ann);
            }
            let (roles, topology) = rebuild_plan(session, self.optimizer.as_mut(), round);
            ann.roles = roles;
            ann.topology = TopologyDoc::Publish(topology);
        }
        // A fresh deadline, and the running round re-announced: live
        // clients re-send what the stall swallowed, to their (possibly
        // new) parent.
        session.reset_round_clock(now);
        ann.tell_all(session, CtrlMsg::RoundStart { round });
        Some(ann)
    }
}

/// Re-ranks, rebuilds, stamps, and installs the cluster plan for `round`
/// over the session's current membership. Returns the per-client change
/// set (diffed against the outgoing plan; every assignment when there is
/// none yet) and the new topology document. Shared by session start, the
/// end-of-round advance and the mid-round re-delegation so the three can
/// never diverge.
fn rebuild_plan(
    session: &mut FlSession,
    optimizer: &mut dyn RoleOptimizer,
    round: u32,
) -> (Vec<(ClientId, PlanChange)>, Json) {
    let ranking = optimizer.rank(&session.clients, round);
    let mut plan = build_plan(&session.clients, &session.config.topology, &ranking, round);
    // Stamp before diffing so the codec negotiation never registers as a
    // per-round role change: the update codec is the *minimum* across all
    // members — blobs flow client → client, so any aggregator could be
    // the receiver and must be able to decode.
    let codec = session.data_codec();
    for assignment in &mut plan.assignments {
        assignment.spec.data_codec = codec;
    }
    let changes = match &session.plan {
        Some(old) => diff_plans(old, &plan),
        None => plan
            .assignments
            .iter()
            .map(|a| (a.client.clone(), PlanChange::Set(a.spec)))
            .collect(),
    };
    let topology = plan.topology_json(session.config.session_id.as_str());
    session.plan = Some(plan);
    (changes, topology)
}
