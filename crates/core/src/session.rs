//! Coordinator-side FL session state machine (paper §III.E.1).
//!
//! Lifecycle: `Waiting` (accepting join requests) → `Running` (rounds 1..R)
//! → `Completed` | `Aborted`. A session starts when it fills to
//! `capacity_max`, or when the waiting window closes with at least
//! `capacity_min` contributors; it aborts when the window closes
//! under-subscribed or when the session's total time budget runs out.
//!
//! Rounds are **dropout-tolerant**: a round closes when every contributor
//! reports done, *or* when a [`SessionConfig::quorum`] fraction has
//! reported and [`SessionConfig::grace`] has elapsed since the quorum was
//! reached. Contributors that neither complete nor contribute accumulate a
//! missed-round streak ([`FlSession::penalize_stragglers`]); once the
//! streak reaches [`SessionConfig::max_missed_rounds`] they are evicted —
//! the session continues as long as `capacity_min` survivors remain,
//! instead of aborting on the first blown deadline.

use crate::clustering::{ClientInfo, ClusterPlan, Topology};
use crate::error::{CoreError, Result};
use crate::ids::{ClientId, ModelId, SessionId};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Immutable session parameters fixed at creation.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The session identifier.
    pub session_id: SessionId,
    /// Model the session optimizes.
    pub model_name: ModelId,
    /// Minimum contributors to start (and to keep running: eviction below
    /// this floor aborts the session).
    pub capacity_min: usize,
    /// Maximum contributors accepted.
    pub capacity_max: usize,
    /// Number of FL rounds.
    pub fl_rounds: u32,
    /// Total session time budget.
    pub session_time: Duration,
    /// How long to wait for contributors.
    pub waiting_time: Duration,
    /// Cluster topology to build each round.
    pub topology: Topology,
    /// Fraction of contributors whose round-done reports close a round
    /// (1.0 = everyone, the paper's all-or-abort behaviour).
    pub quorum: f64,
    /// Extra wait after the quorum is met before the round force-closes
    /// without the remaining reports.
    pub grace: Duration,
    /// Consecutive missed round closures before a contributor is evicted.
    pub max_missed_rounds: u32,
    /// The update codec the session creator requested for the data plane
    /// (`sdflmq_nn::codec` ids; 0 = dense f32). The stamped session codec
    /// is this capped at every member's advertised support.
    pub data_codec: u8,
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionState {
    /// Accepting contributors.
    Waiting,
    /// Round `round` in progress; `done` holds reporters.
    Running {
        /// Current 1-based round.
        round: u32,
        /// Clients that reported this round complete.
        done: HashSet<ClientId>,
        /// Clients that signalled a contribution (liveness) this round.
        contributed: HashSet<ClientId>,
        /// Clients already charged a missed round for this round (so a
        /// deadline blow and the eventual closure don't double-count).
        penalized: HashSet<ClientId>,
        /// When the round started (for the deadline check). Not part of
        /// equality semantics but kept here for atomic state swaps.
        round_started: Instant,
        /// When the done-count first reached the quorum, if it has.
        quorum_met_at: Option<Instant>,
    },
    /// All rounds finished.
    Completed,
    /// Terminated early; the string says why.
    Aborted(String),
}

/// One tracked session.
#[derive(Debug)]
pub struct FlSession {
    /// Fixed parameters.
    pub config: SessionConfig,
    /// Contributors in join order.
    pub clients: Vec<ClientInfo>,
    /// Lifecycle state.
    pub state: SessionState,
    /// The active cluster plan, once started.
    pub plan: Option<ClusterPlan>,
    /// Creation instant (for the session-time budget).
    pub created: Instant,
    /// Per-client advertised update-codec support (from the `codec` field
    /// of each join request; absent clients are dense-only).
    pub codec_support: HashMap<ClientId, u8>,
    /// Consecutive missed-closure streak per contributor (reset whenever
    /// the contributor reports done or contributes).
    pub missed: HashMap<ClientId, u32>,
    /// When the session reached a terminal state (for garbage collection).
    pub finished_at: Option<Instant>,
}

impl FlSession {
    /// Creates a session in `Waiting` at `now`. The session never reads a
    /// clock: every time-dependent method takes the caller's `now`.
    pub fn new(config: SessionConfig, now: Instant) -> FlSession {
        FlSession {
            config,
            clients: Vec::new(),
            state: SessionState::Waiting,
            plan: None,
            created: now,
            codec_support: HashMap::new(),
            missed: HashMap::new(),
            finished_at: None,
        }
    }

    /// Ids of the current (surviving) contributors, in join order.
    pub fn member_ids(&self) -> Vec<ClientId> {
        self.clients.iter().map(|c| c.id.clone()).collect()
    }

    /// The session's data-plane update codec: the creator's request
    /// capped at every surviving member's advertised support (a single
    /// dense-only member keeps the whole session on dense f32 — blobs
    /// flow client → client, so the floor must be decodable by all).
    pub fn data_codec(&self) -> u8 {
        self.clients
            .iter()
            .map(|c| self.codec_support.get(&c.id).copied().unwrap_or(0))
            .min()
            .unwrap_or(0)
            .min(self.config.data_codec)
    }

    /// Registers a contributor. Fails when the session is not waiting, is
    /// full, the model name mismatches, or the client already joined.
    pub fn add_client(&mut self, info: ClientInfo, model: &ModelId) -> Result<()> {
        if self.state != SessionState::Waiting {
            return Err(CoreError::Refused("session already started".into()));
        }
        if self.clients.len() >= self.config.capacity_max {
            return Err(CoreError::Refused("session full".into()));
        }
        if model != &self.config.model_name {
            return Err(CoreError::Refused(format!(
                "model mismatch: session trains {:?}",
                self.config.model_name.as_str()
            )));
        }
        if self.clients.iter().any(|c| c.id == info.id) {
            return Err(CoreError::Refused("already joined".into()));
        }
        self.clients.push(info);
        Ok(())
    }

    /// True when the session should start right now.
    pub fn should_start(&self, now: Instant) -> bool {
        self.state == SessionState::Waiting
            && (self.clients.len() >= self.config.capacity_max
                || (now.saturating_duration_since(self.created) >= self.config.waiting_time
                    && self.clients.len() >= self.config.capacity_min))
    }

    /// Why the session must abort on time alone, if it must: the waiting
    /// window closed under-subscribed, or a running session blew its
    /// total time budget.
    pub fn expired(&self, now: Instant) -> Option<&'static str> {
        let age = now.saturating_duration_since(self.created);
        match self.state {
            SessionState::Waiting
                if age >= self.config.waiting_time
                    && self.clients.len() < self.config.capacity_min =>
            {
                Some("not enough contributors")
            }
            SessionState::Running { .. } if age > self.config.session_time => {
                Some("session time budget exceeded")
            }
            _ => None,
        }
    }

    /// Moves to `Running` round 1.
    pub fn start(&mut self, now: Instant) {
        debug_assert_eq!(self.state, SessionState::Waiting);
        self.state = fresh_round(1, now);
    }

    /// Moves to `Aborted` and stamps the terminal instant.
    pub fn abort(&mut self, reason: &str, now: Instant) {
        self.state = SessionState::Aborted(reason.to_owned());
        self.finished_at = Some(now);
    }

    /// Number of done reports that constitutes a quorum for the current
    /// membership: `ceil(quorum × contributors)`, at least 1, at most all.
    pub fn quorum_count(&self) -> usize {
        quorum_count_for(self.clients.len(), self.config.quorum)
    }

    /// Records a client's round-completion report. Returns `true` when the
    /// report closes the round: all contributors done, or the quorum met
    /// with the grace period already elapsed.
    pub fn record_done(&mut self, client: &ClientId, round: u32, now: Instant) -> Result<bool> {
        if !self.clients.iter().any(|c| &c.id == client) {
            return Err(CoreError::Refused("not a contributor".into()));
        }
        let total = self.clients.len();
        let quorum_count = self.quorum_count();
        let grace = self.config.grace;
        match &mut self.state {
            SessionState::Running {
                round: current,
                done,
                quorum_met_at,
                ..
            } if *current == round => {
                done.insert(client.clone());
                self.missed.remove(client);
                if done.len() >= quorum_count && quorum_met_at.is_none() {
                    *quorum_met_at = Some(now);
                }
                Ok(done.len() == total
                    || (done.len() >= quorum_count
                        && quorum_met_at
                            .is_some_and(|t| now.saturating_duration_since(t) >= grace)))
            }
            SessionState::Running { round: current, .. } => Err(CoreError::Protocol(format!(
                "round_done for round {round}, session at {current}"
            ))),
            _ => Err(CoreError::Refused("session not running".into())),
        }
    }

    /// Records a liveness signal: the client published its contribution
    /// for `round`. Stale, early, or stranger reports are ignored — the
    /// signal only ever helps a contributor, never hurts it.
    pub fn record_contrib(&mut self, client: &ClientId, round: u32) {
        if !self.clients.iter().any(|c| &c.id == client) {
            return;
        }
        if let SessionState::Running {
            round: current,
            contributed,
            ..
        } = &mut self.state
        {
            if *current == round {
                contributed.insert(client.clone());
                self.missed.remove(client);
            }
        }
    }

    /// True when the quorum is met, the grace has elapsed, and stragglers
    /// are still outstanding — the timer should force-close the round.
    pub fn quorum_ready(&self, now: Instant) -> bool {
        let SessionState::Running {
            done,
            quorum_met_at,
            ..
        } = &self.state
        else {
            return false;
        };
        done.len() < self.clients.len()
            && done.len() >= self.quorum_count()
            && quorum_met_at.is_some_and(|t| now.saturating_duration_since(t) >= self.config.grace)
    }

    /// Charges every unresponsive contributor (neither done nor
    /// contributed this round) one missed round — at most once per round —
    /// and clears the streak of responsive ones. Returns the contributors
    /// whose streak has reached [`SessionConfig::max_missed_rounds`], i.e.
    /// the eviction candidates.
    pub fn penalize_stragglers(&mut self) -> Vec<ClientId> {
        let SessionState::Running {
            done,
            contributed,
            penalized,
            ..
        } = &mut self.state
        else {
            return Vec::new();
        };
        let mut candidates = Vec::new();
        for client in &self.clients {
            if done.contains(&client.id) || contributed.contains(&client.id) {
                self.missed.remove(&client.id);
                continue;
            }
            if penalized.insert(client.id.clone()) {
                *self.missed.entry(client.id.clone()).or_insert(0) += 1;
            }
            if self.missed.get(&client.id).copied().unwrap_or(0) >= self.config.max_missed_rounds {
                candidates.push(client.id.clone());
            }
        }
        candidates
    }

    /// Removes a contributor from the session (dropout eviction). The
    /// caller is responsible for re-planning and for notifying the client.
    pub fn evict(&mut self, client: &ClientId, now: Instant) {
        self.clients.retain(|c| &c.id != client);
        self.codec_support.remove(client);
        self.missed.remove(client);
        if let SessionState::Running {
            done,
            contributed,
            penalized,
            quorum_met_at,
            ..
        } = &mut self.state
        {
            done.remove(client);
            contributed.remove(client);
            penalized.remove(client);
            // Membership shrank, so the quorum may be newly met.
            if !done.is_empty()
                && quorum_met_at.is_none()
                && done.len() >= quorum_count_for(self.clients.len(), self.config.quorum)
            {
                *quorum_met_at = Some(now);
            }
        }
    }

    /// Opens a fresh straggler-strike window after a blown round deadline:
    /// clears the per-round `contributed` and `penalized` evidence (but
    /// not `done` — completion is authoritative) so the *next* blown
    /// deadline requires fresh liveness proof. Live clients re-establish
    /// it automatically — the deadline's `round_start` re-announcement
    /// makes them re-send and re-ping — while dead ones cannot, so their
    /// streak keeps growing toward eviction. Without this, a stalled
    /// round charges at most one strike ever and eviction is unreachable
    /// whenever `max_missed_rounds > 1`.
    pub fn begin_strike_window(&mut self) {
        if let SessionState::Running {
            contributed,
            penalized,
            ..
        } = &mut self.state
        {
            contributed.clear();
            penalized.clear();
        }
    }

    /// True when every remaining contributor has reported the current
    /// round done (e.g. after evictions removed the holdouts).
    pub fn all_done(&self) -> bool {
        match &self.state {
            SessionState::Running { done, .. } => done.len() >= self.clients.len(),
            _ => false,
        }
    }

    /// Restarts the round deadline clock (after a mid-round re-delegation
    /// gave the survivors fresh work).
    pub fn reset_round_clock(&mut self, now: Instant) {
        if let SessionState::Running { round_started, .. } = &mut self.state {
            *round_started = now;
        }
    }

    /// Advances to the next round (or `Completed` after the last).
    /// Returns the new round number, or `None` if the session completed.
    pub fn advance_round(&mut self, now: Instant) -> Option<u32> {
        let SessionState::Running { round, .. } = &self.state else {
            return None;
        };
        let next = *round + 1;
        if next > self.config.fl_rounds {
            self.state = SessionState::Completed;
            self.finished_at = Some(now);
            None
        } else {
            self.state = fresh_round(next, now);
            Some(next)
        }
    }

    /// How long the current round has been open at `now`, `ZERO` when
    /// not running.
    pub fn round_elapsed(&self, now: Instant) -> Duration {
        match &self.state {
            SessionState::Running { round_started, .. } => {
                now.saturating_duration_since(*round_started)
            }
            _ => Duration::ZERO,
        }
    }

    /// True when the current round exceeded `round_deadline` (a data-plane
    /// stall: time to penalize and possibly evict stragglers).
    pub fn round_overdue(&self, round_deadline: Duration, now: Instant) -> bool {
        matches!(self.state, SessionState::Running { .. })
            && self.round_elapsed(now) > round_deadline
    }

    /// True when the session reached `Completed` or `Aborted` at least
    /// `linger` ago — safe to garbage-collect.
    pub fn collectable(&self, linger: Duration, now: Instant) -> bool {
        matches!(
            self.state,
            SessionState::Completed | SessionState::Aborted(_)
        ) && self
            .finished_at
            .is_some_and(|t| now.saturating_duration_since(t) >= linger)
    }

    /// The next instant at which a time-driven transition can fire for
    /// this session, if any — the coordinator's loop parks until then (or
    /// until new work arrives).
    pub fn next_deadline(&self, round_timeout: Duration, linger: Duration) -> Option<Instant> {
        match &self.state {
            SessionState::Waiting => Some(self.created + self.config.waiting_time),
            SessionState::Running {
                round_started,
                quorum_met_at,
                done,
                ..
            } => {
                let mut next =
                    (*round_started + round_timeout).min(self.created + self.config.session_time);
                if done.len() < self.clients.len() {
                    if let Some(met) = quorum_met_at {
                        next = next.min(*met + self.config.grace);
                    }
                }
                Some(next)
            }
            SessionState::Completed | SessionState::Aborted(_) => {
                self.finished_at.map(|t| t + linger)
            }
        }
    }

    /// Current round number, if running.
    pub fn current_round(&self) -> Option<u32> {
        match &self.state {
            SessionState::Running { round, .. } => Some(*round),
            _ => None,
        }
    }

    /// Updates a contributor's stats (from a round_done report).
    pub fn update_stats(&mut self, client: &ClientId, stats: sdflmq_sim::SystemStats) {
        if let Some(c) = self.clients.iter_mut().find(|c| &c.id == client) {
            c.stats = stats;
        }
    }
}

fn fresh_round(round: u32, now: Instant) -> SessionState {
    SessionState::Running {
        round,
        done: HashSet::new(),
        contributed: HashSet::new(),
        penalized: HashSet::new(),
        round_started: now,
        quorum_met_at: None,
    }
}

/// The single definition of the quorum formula:
/// `ceil(quorum × total).clamp(1, total)`.
fn quorum_count_for(total: usize, quorum: f64) -> usize {
    let total = total.max(1);
    ((quorum.clamp(0.0, 1.0) * total as f64).ceil() as usize).clamp(1, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roles::PreferredRole;
    use sdflmq_sim::SystemStats;

    fn config(min: usize, max: usize, rounds: u32) -> SessionConfig {
        SessionConfig {
            session_id: SessionId::new("s1").unwrap(),
            model_name: ModelId::new("mlp").unwrap(),
            capacity_min: min,
            capacity_max: max,
            fl_rounds: rounds,
            session_time: Duration::from_secs(3600),
            waiting_time: Duration::from_millis(50),
            topology: Topology::Central,
            quorum: 1.0,
            grace: Duration::ZERO,
            max_missed_rounds: 2,
            data_codec: 0,
        }
    }

    fn info(id: &str) -> ClientInfo {
        ClientInfo {
            id: ClientId::new(id).unwrap(),
            stats: SystemStats {
                free_memory: 1 << 30,
                available_flops: 1e9,
                memory_utilization: 0.2,
            },
            preferred: PreferredRole::Any,
            num_samples: 10,
        }
    }

    fn mlp() -> ModelId {
        ModelId::new("mlp").unwrap()
    }

    fn cid(s: &str) -> ClientId {
        ClientId::new(s).unwrap()
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A session of `n` contributors created at the returned instant.
    /// Deadline tests pass later instants instead of sleeping.
    fn session_of(n: usize, cfg: SessionConfig) -> (FlSession, Instant) {
        let t0 = Instant::now();
        let mut s = FlSession::new(cfg, t0);
        for i in 0..n {
            s.add_client(info(&format!("c{i}")), &mlp()).unwrap();
        }
        (s, t0)
    }

    #[test]
    fn join_rules() {
        let (mut s, _) = session_of(0, config(2, 3, 2));
        s.add_client(info("a"), &mlp()).unwrap();
        assert!(s.add_client(info("a"), &mlp()).is_err(), "dup join");
        assert!(
            s.add_client(info("b"), &ModelId::new("cnn").unwrap())
                .is_err(),
            "model mismatch"
        );
        s.add_client(info("b"), &mlp()).unwrap();
        s.add_client(info("c"), &mlp()).unwrap();
        assert!(s.add_client(info("d"), &mlp()).is_err(), "full");
    }

    #[test]
    fn starts_when_full() {
        let (mut s, t0) = session_of(0, config(2, 2, 1));
        s.add_client(info("a"), &mlp()).unwrap();
        assert!(!s.should_start(t0));
        s.add_client(info("b"), &mlp()).unwrap();
        assert!(s.should_start(t0));
        s.start(t0);
        assert_eq!(s.current_round(), Some(1));
        assert!(
            s.add_client(info("c"), &mlp()).is_err(),
            "no joins after start"
        );
    }

    #[test]
    fn starts_after_waiting_window_with_min() {
        let (mut s, t0) = session_of(0, config(1, 5, 1));
        s.add_client(info("a"), &mlp()).unwrap();
        assert!(!s.should_start(t0 + ms(49)), "window still open");
        assert!(s.should_start(t0 + ms(50)));
    }

    #[test]
    fn aborts_when_undersubscribed() {
        let (s, t0) = session_of(0, config(3, 5, 1));
        assert_eq!(s.expired(t0 + ms(49)), None);
        assert_eq!(s.expired(t0 + ms(50)), Some("not enough contributors"));
    }

    #[test]
    fn round_accounting() {
        let (mut s, t0) = session_of(2, config(2, 2, 2));
        s.start(t0);
        assert!(!s.record_done(&cid("c0"), 1, t0).unwrap());
        assert!(s.record_done(&cid("x"), 1, t0).is_err(), "stranger");
        assert!(s.record_done(&cid("c1"), 2, t0).is_err(), "wrong round");
        assert!(s.record_done(&cid("c1"), 1, t0).unwrap());
        assert_eq!(s.advance_round(t0), Some(2));
        // Final round closes the session.
        s.record_done(&cid("c0"), 2, t0).unwrap();
        s.record_done(&cid("c1"), 2, t0).unwrap();
        assert_eq!(s.advance_round(t0), None);
        assert_eq!(s.state, SessionState::Completed);
        assert!(s.finished_at.is_some(), "terminal instant stamped");
    }

    #[test]
    fn duplicate_and_stale_round_done_reports() {
        let (mut s, t0) = session_of(3, config(3, 3, 2));
        s.start(t0);
        assert!(!s.record_done(&cid("c0"), 1, t0).unwrap());
        // A duplicate report neither closes the round nor double-counts.
        assert!(!s.record_done(&cid("c0"), 1, t0).unwrap());
        assert!(!s.record_done(&cid("c1"), 1, t0).unwrap());
        assert!(s.record_done(&cid("c2"), 1, t0).unwrap());
        // A duplicate of the closing report re-signals closure; the
        // coordinator's round-stamped advance makes the second a no-op.
        assert!(s.record_done(&cid("c2"), 1, t0).unwrap());
        s.advance_round(t0);
        // A stale report for the closed round is rejected, not counted.
        let err = s.record_done(&cid("c0"), 1, t0).unwrap_err();
        assert!(matches!(err, CoreError::Protocol(_)), "got {err:?}");
    }

    #[test]
    fn abort_then_advance_is_inert() {
        let (mut s, t0) = session_of(2, config(2, 2, 3));
        s.start(t0);
        s.abort("deadline", t0);
        assert!(s.finished_at.is_some());
        // A late advance on the aborted session must not resurrect it.
        assert_eq!(s.advance_round(t0), None);
        assert_eq!(s.state, SessionState::Aborted("deadline".into()));
        assert!(s.record_done(&cid("c0"), 1, t0).is_err());
        assert!(!s.quorum_ready(t0));
        assert!(s.penalize_stragglers().is_empty());
    }

    #[test]
    fn quorum_closure_with_grace() {
        let mut cfg = config(2, 4, 2);
        cfg.quorum = 0.5;
        cfg.grace = Duration::from_millis(30);
        let (mut s, t0) = session_of(4, cfg);
        s.start(t0);
        assert_eq!(s.quorum_count(), 2);
        assert!(!s.record_done(&cid("c0"), 1, t0).unwrap());
        // Quorum met, but grace has not elapsed: not closed yet.
        assert!(!s.record_done(&cid("c1"), 1, t0).unwrap());
        assert!(!s.quorum_ready(t0));
        // One millisecond short of the grace keeps the round open; the exact
        // boundary closes it (elapsed >= grace).
        assert!(!s.quorum_ready(t0 + ms(29)));
        // Grace elapsed: the timer sees a force-closable round, and a
        // further (late but valid) report also reads as closing.
        assert!(s.quorum_ready(t0 + ms(30)));
        assert!(s.record_done(&cid("c2"), 1, t0 + ms(30)).unwrap());
    }

    #[test]
    fn full_quorum_closes_without_grace_wait() {
        let mut cfg = config(2, 2, 1);
        cfg.quorum = 0.5;
        cfg.grace = Duration::from_secs(3600);
        let (mut s, t0) = session_of(2, cfg);
        s.start(t0);
        assert!(!s.record_done(&cid("c0"), 1, t0).unwrap());
        // Everyone reported: the round closes immediately, grace or not.
        assert!(s.record_done(&cid("c1"), 1, t0).unwrap());
    }

    #[test]
    fn straggler_penalties_accumulate_and_reset() {
        let (mut s, t0) = session_of(3, config(1, 3, 5));
        s.start(t0);
        s.record_done(&cid("c0"), 1, t0).unwrap();
        s.record_contrib(&cid("c1"), 1);
        // c2 is unresponsive: first strike.
        assert!(s.penalize_stragglers().is_empty(), "one strike, N=2");
        // Same round: penalties are idempotent.
        assert!(s.penalize_stragglers().is_empty());
        assert_eq!(s.missed.get(&cid("c2")), Some(&1));
        s.advance_round(t0);
        // Second unresponsive round: eviction candidate.
        s.record_done(&cid("c0"), 2, t0).unwrap();
        s.record_contrib(&cid("c1"), 2);
        assert_eq!(s.penalize_stragglers(), vec![cid("c2")]);
        // A late contribution clears the streak.
        s.record_contrib(&cid("c2"), 2);
        assert!(s.penalize_stragglers().is_empty());
        assert_eq!(s.missed.get(&cid("c2")), None);
    }

    #[test]
    fn strikes_accrue_across_deadline_windows_in_a_stalled_round() {
        // Default policy (quorum 1.0, max_missed_rounds 2): a dead client
        // stalls the round forever, so strikes must accrue across blown
        // deadlines of the SAME round — otherwise eviction is unreachable
        // and the session can only die on its time budget.
        let (mut s, t0) = session_of(3, config(2, 3, 5));
        s.start(t0);
        s.record_done(&cid("c0"), 1, t0).unwrap();
        s.record_contrib(&cid("c1"), 1);
        // Deadline window 1: first strike for c2.
        assert!(s.penalize_stragglers().is_empty(), "strike 1 of 2");
        s.begin_strike_window();
        // c1 is alive: the resync re-announcement makes it re-ping.
        s.record_contrib(&cid("c1"), 1);
        // Deadline window 2: second strike for c2 → eviction candidate.
        assert_eq!(s.penalize_stragglers(), vec![cid("c2")]);
        // c1 refreshed its liveness and is safe.
        assert_eq!(s.missed.get(&cid("c1")), None);
    }

    #[test]
    fn contributed_shield_expires_with_the_strike_window() {
        // A client that pings contrib and then dies must not be shielded
        // forever: the shield only covers the current deadline window.
        let (mut s, t0) = session_of(2, config(1, 2, 5));
        s.start(t0);
        s.record_done(&cid("c0"), 1, t0).unwrap();
        s.record_contrib(&cid("c1"), 1); // ...then c1 dies.
        assert!(s.penalize_stragglers().is_empty(), "shielded this window");
        s.begin_strike_window();
        assert!(s.penalize_stragglers().is_empty(), "strike 1 of 2");
        s.begin_strike_window();
        assert_eq!(s.penalize_stragglers(), vec![cid("c1")], "strike 2 of 2");
    }

    #[test]
    fn eviction_shrinks_membership_and_requorums() {
        let mut cfg = config(2, 4, 3);
        cfg.quorum = 1.0;
        let (mut s, t0) = session_of(4, cfg);
        s.start(t0);
        s.record_done(&cid("c0"), 1, t0).unwrap();
        s.record_done(&cid("c1"), 1, t0).unwrap();
        s.record_done(&cid("c2"), 1, t0).unwrap();
        assert!(!s.all_done());
        s.codec_support.insert(cid("c3"), 2);
        s.evict(&cid("c3"), t0);
        assert_eq!(s.clients.len(), 3);
        assert!(s.all_done(), "evicting the holdout closes the round");
        assert!(!s.codec_support.contains_key(&cid("c3")));
    }

    #[test]
    fn quorum_closure_at_exactly_capacity_min_survivors() {
        let mut cfg = config(3, 4, 2);
        cfg.quorum = 0.75;
        cfg.grace = Duration::ZERO;
        cfg.max_missed_rounds = 1;
        let (mut s, t0) = session_of(4, cfg);
        s.start(t0);
        s.record_done(&cid("c0"), 1, t0).unwrap();
        s.record_done(&cid("c1"), 1, t0).unwrap();
        // 3 of 4 = exactly the quorum; closure reads true with zero grace.
        assert!(s.record_done(&cid("c2"), 1, t0).unwrap());
        // The straggler is an eviction candidate; evicting it leaves
        // exactly capacity_min survivors, so the session must continue.
        assert_eq!(s.penalize_stragglers(), vec![cid("c3")]);
        s.evict(&cid("c3"), t0);
        assert_eq!(s.clients.len(), s.config.capacity_min);
        assert_eq!(s.advance_round(t0), Some(2));
        assert_eq!(s.quorum_count(), 3, "quorum tracks the shrunk fleet");
    }

    #[test]
    fn overdue_detection() {
        let mut cfg = config(1, 1, 1);
        cfg.session_time = Duration::from_millis(10);
        let (mut s, t0) = session_of(1, cfg);
        s.start(t0);
        assert_eq!(s.expired(t0), None, "nothing elapsed");
        assert!(!s.round_overdue(ms(1), t0), "nothing elapsed");
        // Both limits are strict: the boundary instant itself is in time.
        assert_eq!(s.expired(t0 + ms(10)), None);
        assert!(!s.round_overdue(ms(1), t0 + ms(1)));
        assert_eq!(s.expired(t0 + ms(15)), Some("session time budget exceeded"));
        assert!(s.round_overdue(ms(1), t0 + ms(15)), "round deadline");
    }

    #[test]
    fn reset_round_clock_defers_the_deadline() {
        let (mut s, t0) = session_of(1, config(1, 1, 1));
        s.start(t0);
        let later = t0 + ms(10);
        assert!(s.round_overdue(ms(5), later));
        s.reset_round_clock(later);
        assert!(!s.round_overdue(ms(5), later));
    }

    #[test]
    fn next_deadline_tracks_lifecycle() {
        let mut cfg = config(2, 2, 2);
        cfg.grace = Duration::from_millis(100);
        cfg.quorum = 0.5;
        let (mut s, t0) = session_of(2, cfg);
        let timeout = Duration::from_secs(5);
        let linger = Duration::from_secs(60);
        // Waiting: the waiting-window close is the next deadline.
        assert_eq!(
            s.next_deadline(timeout, linger),
            Some(t0 + Duration::from_millis(50))
        );
        s.start(t0);
        // Running, no quorum yet: the round deadline governs.
        assert_eq!(s.next_deadline(timeout, linger), Some(t0 + timeout));
        // Quorum met: the (sooner) grace expiry takes over.
        s.record_done(&cid("c0"), 1, t0).unwrap();
        assert_eq!(
            s.next_deadline(timeout, linger),
            Some(t0 + Duration::from_millis(100))
        );
        // Terminal: the GC linger is all that remains.
        s.abort("test", t0);
        assert_eq!(s.next_deadline(timeout, linger), Some(t0 + linger));
    }

    #[test]
    fn terminal_sessions_become_collectable() {
        let (mut s, t0) = session_of(1, config(1, 1, 1));
        s.start(t0);
        assert!(!s.collectable(Duration::ZERO, t0), "running is never GC'd");
        s.abort("test", t0);
        assert!(!s.collectable(ms(5), t0 + ms(4)), "linger holds");
        assert!(s.collectable(ms(5), t0 + ms(5)));
    }
}
