//! The node's protocol state, free of I/O and of clocks.
//!
//! [`NodeCore`] owns what the paper's client decides (§III.C): roles and
//! position subscriptions, the per-round stacks, the contribution kept
//! for re-sends, and each session's gate and outcome. It never publishes,
//! subscribes, sleeps or reads a clock: every input comes back as one
//! [`Effects`] list for the glue to carry out in order. Its only
//! computation is the fold, on the worker pool it is handed.

use super::WaitOutcome;
use crate::aggregation::{Accumulator, AggregationMethod};
use crate::error::{CoreError, Result};
use crate::ids::SessionId;
use crate::messages::{CtrlMsg, UpdateMeta};
use crate::roles::RoleSpec;
use crate::topics::{global_topic, position_topic, Position};
use bytes::Bytes;
use sdflmq_mqtt::TopicName;
use sdflmq_nn::codec::UpdateCodec;
use sdflmq_nn::parallel::WorkerPool;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// What a blob publish carries.
pub(crate) enum Body {
    /// The caller's local update, to be encoded now. Encoding folds the
    /// error-feedback residual in, so the glue hands the result back
    /// ([`NodeCore::cache_encoding`]) and re-sends reuse it. It shares
    /// the model controller's vector.
    Fresh(Arc<Vec<f32>>),
    /// The round's first encoding, republished as is.
    Cached(Bytes, UpdateMeta),
    /// A complete stack, to be finished and encoded as an aggregate.
    Aggregate(Box<dyn Accumulator>),
}

/// One blob for the data plane.
pub(crate) struct Publish {
    pub topic: TopicName,
    pub round: u32,
    pub weight: u64,
    pub codec: UpdateCodec,
    pub body: Body,
}

/// One thing the glue must do.
pub(crate) enum Effect {
    Publish(Publish),
    /// A `coord_contrib` liveness ping for the round.
    Contrib(u32),
    /// A `coord_round_done` report; the glue adds fresh system stats.
    RoundDone(u32),
    /// Blobs on the topic are children's contributions.
    Subscribe(TopicName),
    Unsubscribe(TopicName),
}

/// Everything one input asks of the glue, in the order it must happen.
pub(crate) struct Effects {
    pub session: SessionId,
    pub list: Vec<Effect>,
}

enum End {
    Completed,
    Aborted(String),
}

/// The most recent local contribution, kept so a mid-round re-delegation
/// can re-send it without involving the training loop.
struct LastSent {
    round: u32,
    params: Arc<Vec<f32>>,
    weight: u64,
    /// The round's first wire encoding; it shares the published payload's
    /// storage, which the buffer pool reclaims once this is replaced.
    encoded: Option<(Bytes, UpdateMeta)>,
}

/// A per-round streaming aggregation stack: each child's update is folded
/// in as it arrives (for FedAvg one running sum, O(model) whatever the
/// fan-in), and only the **first** contribution per sender counts — a
/// fold cannot be retracted, so the stack is rebuilt from scratch when
/// the plan changes, the only time a re-send could differ.
struct RoundStack {
    acc: Box<dyn Accumulator>,
    senders: BTreeSet<String>,
}

/// One joined session.
pub(crate) struct Session {
    id: SessionId,
    pub role: Option<RoleSpec>,
    subscribed: Option<Position>,
    stacks: HashMap<u32, RoundStack>,
    /// The round most recently announced via `round_start` (0 = none,
    /// and `send_local`'s gate is shut).
    current_round: u32,
    /// The latest round the caller has moved past, by contributing to it
    /// or by `wait_global_update` returning it.
    seen: u32,
    end: Option<End>,
    /// The latest global this node acknowledged with `round_done`.
    global_round: u32,
    pub num_samples: u64,
    last_sent: Option<LastSent>,
}

/// What one input needs besides its session.
struct Turn<'a> {
    me: &'a str,
    aggregation: &'a dyn AggregationMethod,
    /// The richest codec this client supports.
    codec: UpdateCodec,
    pool: &'a WorkerPool,
    undecodable: &'a mut u64,
    out: Vec<Effect>,
}

/// The client's decisions for every session it has joined.
pub(crate) struct NodeCore {
    id: String,
    aggregation: Box<dyn AggregationMethod>,
    update_codec: UpdateCodec,
    sessions: HashMap<SessionId, Session>,
    /// Updates this node could not use: payloads the glue failed to
    /// decode, and contributions whose shape did not fit their stack.
    pub undecodable: u64,
}

impl NodeCore {
    pub fn new(
        id: &str,
        aggregation: Box<dyn AggregationMethod>,
        update_codec: UpdateCodec,
    ) -> NodeCore {
        NodeCore {
            id: id.to_owned(),
            aggregation,
            update_codec,
            sessions: HashMap::new(),
            undecodable: 0,
        }
    }

    /// Registers a session before the join request goes out, so no
    /// control message can find it missing.
    pub fn join(&mut self, session: &SessionId, num_samples: u64) -> Result<()> {
        if self.sessions.contains_key(session) {
            return Err(CoreError::Refused("already joined locally".into()));
        }
        let state = Session {
            id: session.clone(),
            role: None,
            subscribed: None,
            stacks: HashMap::new(),
            current_round: 0,
            seen: 0,
            end: None,
            global_round: 0,
            num_samples,
            last_sent: None,
        };
        self.sessions.insert(session.clone(), state);
        Ok(())
    }

    /// Forgets a session and drops both its subscriptions: the teardown
    /// of an eviction and of a failed join. Idempotent.
    pub fn leave(&mut self, session: &SessionId) -> Effects {
        let mut list = Vec::new();
        if let Some(state) = self.sessions.remove(session) {
            let position = state.subscribed.map(|at| position_topic(session, at));
            let topics = position.into_iter().chain([global_topic(session)]);
            list.extend(topics.map(Effect::Unsubscribe));
        }
        Effects {
            session: session.clone(),
            list,
        }
    }

    pub fn session(&mut self, session: &SessionId) -> Result<&mut Session> {
        self.sessions
            .get_mut(session)
            .ok_or_else(|| CoreError::UnknownSession(session.as_str().into()))
    }

    /// Runs `input` against a known session and collects its effects.
    fn turn(
        &mut self,
        session: &SessionId,
        pool: &WorkerPool,
        input: impl FnOnce(&mut Session, &mut Turn) -> Result<()>,
    ) -> Result<Effects> {
        let state = self
            .sessions
            .get_mut(session)
            .ok_or_else(|| CoreError::UnknownSession(session.as_str().into()))?;
        let mut turn = Turn {
            me: &self.id,
            aggregation: &*self.aggregation,
            codec: self.update_codec,
            pool,
            undecodable: &mut self.undecodable,
            out: Vec::new(),
        };
        input(state, &mut turn)?;
        Ok(Effects {
            session: session.clone(),
            list: turn.out,
        })
    }

    /// `send_local`'s gate: the open round, an error once the session is
    /// over or gone, `None` while it is still forming.
    pub fn poll_gate(&self, session: &SessionId) -> Option<Result<u32>> {
        match self.sessions.get(session) {
            Some(state) if state.end.is_none() => {
                (state.current_round > 0).then_some(Ok(state.current_round))
            }
            _ => Some(Err(CoreError::Aborted("session closed".into()))),
        }
    }

    /// What `wait_global_update` returns now, if anything: a round the
    /// caller has not moved past comes first (even one announced before
    /// the end), then the end. A session that is gone was evicted.
    pub fn poll_outcome(&mut self, session: &SessionId) -> Option<Result<WaitOutcome>> {
        let Some(state) = self.sessions.get_mut(session) else {
            return Some(Ok(WaitOutcome::Evicted));
        };
        if state.current_round > state.seen {
            state.seen = state.current_round;
            return Some(Ok(WaitOutcome::NextRound(state.current_round)));
        }
        match &state.end {
            Some(End::Completed) => Some(Ok(WaitOutcome::Completed)),
            Some(End::Aborted(reason)) => Some(Err(CoreError::Aborted(reason.clone()))),
            None => None,
        }
    }

    /// The caller's local update for `round`, kept for re-sends only once
    /// the role checks pass.
    pub fn send_local(
        &mut self,
        session: &SessionId,
        round: u32,
        params: Arc<Vec<f32>>,
        weight: u64,
        pool: &WorkerPool,
    ) -> Result<Effects> {
        self.turn(session, pool, |state, turn| {
            let role = state
                .role
                .ok_or_else(|| CoreError::Protocol("no role assigned yet".into()))?;
            if !role.role.trains() {
                return Err(CoreError::Protocol(
                    "pure aggregators have no local update to send".into(),
                ));
            }
            // A repeat in the same round keeps the cached encoding (the
            // model is unchanged until the next global). The model
            // controller hands out the vector it holds, so an unchanged
            // model is the same allocation and skips the compare.
            let unchanged =
                |last: &LastSent| Arc::ptr_eq(&last.params, &params) || last.params == params;
            let encoded = state
                .last_sent
                .take()
                .filter(|last| last.round == round && unchanged(last))
                .and_then(|last| last.encoded);
            state.last_sent = Some(LastSent {
                round,
                params,
                weight,
                encoded,
            });
            state.seen = state.seen.max(round);
            state.contribute(turn, round);
            turn.out.push(Effect::Contrib(round));
            Ok(())
        })
    }

    /// Keeps the encoding of the round's fresh publish for re-sends.
    pub fn cache_encoding(
        &mut self,
        session: &SessionId,
        round: u32,
        payload: Bytes,
        update: UpdateMeta,
    ) {
        if let Some(last) = self
            .sessions
            .get_mut(session)
            .and_then(|state| state.last_sent.as_mut())
            .filter(|last| last.round == round)
        {
            last.encoded = Some((payload, update));
        }
    }

    pub fn on_ctrl(
        &mut self,
        session: &SessionId,
        msg: CtrlMsg,
        pool: &WorkerPool,
    ) -> Result<Effects> {
        if let CtrlMsg::Evicted { .. } = msg {
            return Ok(self.leave(session));
        }
        self.turn(session, pool, |state, turn| {
            match msg {
                CtrlMsg::SetRole(spec) => state.apply_role(turn, spec),
                CtrlMsg::ResetRole => {
                    state.role = None;
                    state.take_position(turn, None);
                }
                CtrlMsg::RoundStart { round } => state.round_start(turn, round),
                CtrlMsg::SessionComplete => state.finish(End::Completed),
                CtrlMsg::Abort(reason) => state.finish(End::Aborted(reason)),
                CtrlMsg::Evicted { .. } => unreachable!("handled above"),
            }
            Ok(())
        })
    }

    /// A child's decoded contribution, from the position topic.
    pub fn on_contribution(
        &mut self,
        session: &SessionId,
        round: u32,
        sender: &str,
        params: &[f32],
        weight: u64,
        pool: &WorkerPool,
    ) -> Result<Effects> {
        self.turn(session, pool, |state, turn| {
            state.fold(turn, round, sender, params, weight);
            Ok(())
        })
    }

    /// Global update synchronizer: a decoded broadcast newer than the
    /// last one earns a `round_done` report (paper §III.E.4).
    pub fn on_global(&mut self, session: &SessionId, round: u32) -> Option<Effects> {
        let state = self.sessions.get_mut(session)?;
        if round <= state.global_round {
            return None;
        }
        state.global_round = round;
        Some(Effects {
            session: session.clone(),
            list: vec![Effect::RoundDone(round)],
        })
    }
}

impl Session {
    /// Drops the model-sized state: the kept contribution and any stack.
    fn release(&mut self) {
        self.stacks.clear();
        self.last_sent = None;
    }

    /// Completion or abort; the first end wins. The role, the global
    /// subscription (a final global may still be in flight) and the
    /// outcome stay, the model-sized state goes.
    fn finish(&mut self, end: End) {
        self.end.get_or_insert(end);
        self.release();
    }

    /// Moves the position subscription, which *is* the aggregation role
    /// (paper Fig. 6: unsubscribe the old role topic, subscribe the new).
    fn take_position(&mut self, turn: &mut Turn, position: Option<Position>) {
        if self.subscribed != position {
            let topic = |at| position_topic(&self.id, at);
            turn.out
                .extend(self.subscribed.map(topic).map(Effect::Unsubscribe));
            turn.out.extend(position.map(topic).map(Effect::Subscribe));
            self.subscribed = position;
        }
    }

    fn round_start(&mut self, turn: &mut Turn, round: u32) {
        // Stale announcements, and any after the end, change nothing.
        if self.end.is_some() || round < self.current_round {
            return;
        }
        let resync = round == self.current_round;
        if !resync {
            self.current_round = round;
            // Stragglers and evictions leave partial stacks behind.
            self.stacks.retain(|&r, _| r >= round);
        } else if self.role.is_some_and(|r| r.role.aggregates()) {
            // Mid-round re-delegation: children may have moved or been
            // evicted, and a moved child re-sends to its new parent too.
            // Start clean — every live contributor re-sends now.
            self.stacks.remove(&round);
        }
        // A re-announcement of the running round is the re-delegation
        // signal: re-send our contribution (receivers dedupe).
        let trains = self.role.is_some_and(|r| r.role.trains());
        if resync && trains && self.contribute(turn, round) {
            turn.out.push(Effect::Contrib(round));
        }
    }

    /// Role arbiter: installs a role spec and its position. A spec that
    /// re-parents this client *within the running round* (re-delegation
    /// after an eviction) redirects the kept contribution, and a shrunken
    /// `expected_inputs` re-checks the stack.
    fn apply_role(&mut self, turn: &mut Turn, spec: RoleSpec) {
        let old_spec = self.role.replace(spec);
        // Entries from children re-parented away or evicted must not
        // count here; the round_start re-announcement that follows
        // rebuilds the stack from the current children's re-sends.
        if spec.round == self.current_round && spec.role.aggregates() {
            self.stacks.remove(&spec.round);
        }
        self.take_position(turn, spec.position);
        let moved = old_spec.is_some_and(|old| old.parent != spec.parent || old.role != spec.role);
        if moved && spec.role.trains() && spec.round == self.current_round {
            self.contribute(turn, spec.round);
        }
        // A dead child evicted: flush without waiting for it.
        self.flush(turn, spec.round);
    }

    /// Routes the kept contribution, if it is `round`'s, by the current
    /// role: aggregating clients fold it into their own stack (raw — it
    /// never touches the wire), trainers send it to their cluster head,
    /// in the round's cached encoding if there is one. Returns whether
    /// there was one.
    fn contribute(&mut self, turn: &mut Turn, round: u32) -> bool {
        let Some(last) = self.last_sent.take_if(|last| last.round == round) else {
            return false;
        };
        match self.role {
            Some(role) if role.role.aggregates() => {
                let me = turn.me;
                self.fold(turn, round, me, &last.params, last.weight);
            }
            Some(role) => {
                let body = match &last.encoded {
                    Some((payload, update)) => Body::Cached(payload.clone(), *update),
                    None => Body::Fresh(Arc::clone(&last.params)),
                };
                self.upward(turn, &role, round, last.weight, body);
            }
            None => {}
        }
        self.last_sent = Some(last);
        true
    }

    /// Aggregation pipeline: folds a contribution into the round's stack
    /// once per sender. Only the running round and its successor stack:
    /// earlier rounds are closed, later ones bogus, and an ended session
    /// stacks nothing.
    fn fold(&mut self, turn: &mut Turn, round: u32, sender: &str, params: &[f32], weight: u64) {
        let Some(role) = self.role.filter(|role| role.role.aggregates()) else {
            return;
        };
        if self.end.is_some()
            || round < self.current_round
            || round > self.current_round.saturating_add(1)
        {
            return;
        }
        let stack = self.stacks.entry(round).or_insert_with(|| RoundStack {
            acc: turn.aggregation.accumulator(),
            senders: BTreeSet::new(),
        });
        if stack.senders.contains(sender) {
            return; // duplicate delivery: first fold wins
        }
        if stack.acc.fold_par(params, weight, turn.pool).is_err() {
            // A mismatched shape (corrupt or poisoned child) does not
            // mark the sender, so a corrected re-send still counts.
            *turn.undecodable += 1;
            return;
        }
        stack.senders.insert(sender.to_owned());
        // A pure aggregator never calls send_local: each arrival is its
        // liveness evidence, or one dead child would get it evicted too.
        if !role.role.trains() {
            turn.out.push(Effect::Contrib(round));
        }
        self.flush(turn, round);
    }

    /// Sends the round's aggregate up once the stack holds the expected
    /// number of senders, with a liveness ping after it.
    fn flush(&mut self, turn: &mut Turn, round: u32) {
        let Some(role) = self
            .role
            .filter(|r| r.role.aggregates() && r.expected_inputs > 0)
        else {
            return;
        };
        let complete = self
            .stacks
            .get(&round)
            .is_some_and(|stack| stack.senders.len() as u32 >= role.expected_inputs);
        if complete {
            let stack = self.stacks.remove(&round).expect("stack exists");
            let weight = stack.acc.total_weight();
            self.upward(turn, &role, round, weight, Body::Aggregate(stack.acc));
            turn.out.push(Effect::Contrib(round));
        }
    }

    /// The one blob publish: to the role's parent position, or from the
    /// root on the global topic. The root's own global subscription hands
    /// it back, and [`NodeCore::on_global`] takes it like any node's: the
    /// root applies the decoded wire form the others apply and reports
    /// `round_done` once.
    fn upward(&self, turn: &mut Turn, role: &RoleSpec, round: u32, weight: u64, body: Body) {
        let topic = if role.is_root() {
            global_topic(&self.id)
        } else {
            position_topic(&self.id, role.parent)
        };
        // The session-floor codec the coordinator stamped, in this
        // client's own variant when the ids match (a locally tuned top-k
        // density survives negotiation).
        let codec = match UpdateCodec::from_id(role.data_codec) {
            Some(codec) if codec.id() == turn.codec.id() => turn.codec,
            Some(codec) => codec,
            None => UpdateCodec::Dense,
        };
        turn.out.push(Effect::Publish(Publish {
            topic,
            round,
            weight,
            codec,
            body,
        }));
    }
}

#[cfg(test)]
impl NodeCore {
    /// A session's running round, its stack count, and whether it still
    /// keeps a contribution for re-sends.
    pub fn retained(&self, session: &SessionId) -> Option<(u32, usize, bool)> {
        let state = self.sessions.get(session)?;
        Some((
            state.current_round,
            state.stacks.len(),
            state.last_sent.is_some(),
        ))
    }
}
