//! Thread-free tests of the node core.
//!
//! A [`Rig`] stands where the glue does: it feeds control messages,
//! decoded contributions, globals and `send_local` calls into a
//! [`NodeCore`], and records what each [`Effects`] list would put on the
//! wire, handing fresh encodings back, tracking the subscriptions and
//! handing a root's global back to its own subscription the way the
//! broker would. No broker, thread or sleep is involved. The
//! differential proptest at the bottom then holds a live [`SdflmqClient`]
//! to the same per-topic publish sequences.

use super::core::{Body, Effect, Effects, NodeCore};
use super::*;
use crate::coordinator::COORDINATOR_ID;
use crate::messages::CtrlMsg;
use crate::roles::Role;
use crate::topics::{position_topic, Position};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The node under test.
const ME: &str = "n";
const LEN: usize = 4;

fn sid() -> SessionId {
    SessionId::new("s").unwrap()
}

fn vector(value: f32) -> Vec<f32> {
    vec![value; LEN]
}

fn spec(
    role: Role,
    position: Option<Position>,
    parent: Position,
    expected_inputs: u32,
    round: u32,
) -> RoleSpec {
    RoleSpec {
        role,
        position,
        parent,
        expected_inputs,
        round,
        data_codec: 0,
    }
}

fn trainer(parent: Position, round: u32) -> RoleSpec {
    spec(Role::Trainer, None, parent, 0, round)
}

fn aggregator(position: Position, expected_inputs: u32, round: u32) -> RoleSpec {
    spec(
        Role::Aggregator,
        Some(position),
        Position::Root,
        expected_inputs,
        round,
    )
}

/// The dense wire form of `params`.
fn dense(params: &[f32]) -> (Bytes, UpdateMeta) {
    let mut out = Vec::new();
    let pool = WorkerPool::global();
    UpdateCodec::Dense.encode_into(params, None, &mut Vec::new(), &pool, &mut out);
    let update = UpdateMeta {
        codec: 0,
        elems: params.len() as u64,
        delta_base: 0,
    };
    (Bytes::from(out), update)
}

/// How a recorded blob's body reached the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sent {
    Fresh,
    Cached,
    Aggregate,
}

/// One recorded effect.
#[derive(Debug, Clone, PartialEq)]
enum Wire {
    Blob {
        topic: TopicName,
        round: u32,
        weight: u64,
        params: Vec<f32>,
        sent: Sent,
    },
    Contrib(u32),
    RoundDone(u32),
    Subscribe(TopicName),
    Unsubscribe(TopicName),
}

fn blob(topic: TopicName, round: u32, weight: u64, params: Vec<f32>, sent: Sent) -> Wire {
    Wire::Blob {
        topic,
        round,
        weight,
        params,
        sent,
    }
}

/// A `coord_*` function's log name, or a blob topic.
fn log_key(wire: &Wire) -> Option<String> {
    match wire {
        Wire::Blob { topic, .. } => Some(topic.as_str().to_owned()),
        Wire::Contrib(_) => Some(functions::CONTRIB.to_owned()),
        Wire::RoundDone(_) => Some(functions::ROUND_DONE.to_owned()),
        _ => None,
    }
}

struct Rig {
    core: NodeCore,
    workers: Arc<WorkerPool>,
    /// Everything recorded since the last [`Rig::take`], in wire order.
    wire: Vec<Wire>,
    /// Every publish and coordinator call ever recorded, per topic.
    log: Log,
    /// The topics the node is subscribed to, as the broker sees them.
    subscribed: BTreeSet<TopicName>,
}

impl Rig {
    /// A node joined to session `s`.
    fn new() -> Rig {
        let mut core = NodeCore::new(ME, Box::new(FedAvg), UpdateCodec::Dense);
        core.join(&sid(), 10).unwrap();
        Rig {
            core,
            workers: WorkerPool::global(),
            wire: Vec::new(),
            log: Log::new(),
            subscribed: BTreeSet::from([global_topic(&sid())]),
        }
    }

    /// Carries `effects` out the way `Inner::execute` does: a fresh
    /// encoding goes back to the core, an aggregate is finished. A global
    /// the node publishes comes back on its global subscription, as the
    /// broker delivers it, after the whole list.
    fn record(&mut self, effects: Effects) {
        let global = global_topic(&effects.session);
        let mut echoes = Vec::new();
        for effect in effects.list {
            let wire = match effect {
                Effect::Publish(publish) => {
                    if publish.topic == global {
                        echoes.push(publish.round);
                    }
                    let (params, sent) = match publish.body {
                        Body::Fresh(params) => {
                            let (payload, update) = dense(&params);
                            self.core.cache_encoding(
                                &effects.session,
                                publish.round,
                                payload,
                                update,
                            );
                            (params.to_vec(), Sent::Fresh)
                        }
                        Body::Cached(payload, update) => (
                            ModelController::decode_update_stateless(&update, &payload).unwrap(),
                            Sent::Cached,
                        ),
                        Body::Aggregate(acc) => (acc.finish().unwrap(), Sent::Aggregate),
                    };
                    blob(publish.topic, publish.round, publish.weight, params, sent)
                }
                Effect::Contrib(round) => Wire::Contrib(round),
                Effect::RoundDone(round) => Wire::RoundDone(round),
                Effect::Subscribe(topic) => {
                    self.subscribed.insert(topic.clone());
                    Wire::Subscribe(topic)
                }
                Effect::Unsubscribe(topic) => {
                    self.subscribed.remove(&topic);
                    Wire::Unsubscribe(topic)
                }
            };
            if let Some(key) = log_key(&wire) {
                self.log.entry(key).or_default().push(entry(&wire));
            }
            self.wire.push(wire);
        }
        for round in echoes {
            if self.subscribed.contains(&global) {
                self.global(round);
            }
        }
    }

    fn ctrl(&mut self, msg: CtrlMsg) -> Result<()> {
        let effects = self.core.on_ctrl(&sid(), msg, &self.workers)?;
        self.record(effects);
        Ok(())
    }

    fn role(&mut self, spec: RoleSpec) {
        self.ctrl(CtrlMsg::SetRole(spec)).unwrap();
    }

    fn start(&mut self, round: u32) {
        self.ctrl(CtrlMsg::RoundStart { round }).unwrap();
    }

    /// `send_local` with weight 10, once the gate has an answer.
    fn send(&mut self, params: Vec<f32>) -> Result<()> {
        let round = self.core.poll_gate(&sid()).expect("the gate is decided")?;
        let effects = self
            .core
            .send_local(&sid(), round, Arc::new(params), 10, &self.workers)?;
        self.record(effects);
        Ok(())
    }

    /// A child's contribution on the position topic the node holds.
    fn contribution(&mut self, round: u32, sender: &str, params: &[f32], weight: u64) {
        let effects =
            self.core
                .on_contribution(&sid(), round, sender, params, weight, &self.workers);
        if let Ok(effects) = effects {
            self.record(effects);
        }
    }

    fn global(&mut self, round: u32) {
        if let Some(effects) = self.core.on_global(&sid(), round) {
            self.record(effects);
        }
    }

    fn take(&mut self) -> Vec<Wire> {
        std::mem::take(&mut self.wire)
    }
}

#[test]
fn a_stale_round_contribution_is_refused() {
    let mut rig = Rig::new();
    rig.role(aggregator(Position::Root, 2, 1));
    rig.start(1);
    rig.start(2);
    rig.take();
    rig.contribution(1, "k0", &vector(9.0), 1); // a closed round
    rig.contribution(4, "k0", &vector(9.0), 1); // beyond the next round
    assert!(rig.take().is_empty());
    assert_eq!(rig.core.retained(&sid()), Some((2, 0, false)));
    rig.contribution(2, "k0", &vector(1.0), 1);
    rig.contribution(2, "k1", &vector(3.0), 1);
    let global = global_topic(&sid());
    assert_eq!(
        rig.take(),
        [
            // A pure aggregator pings on every arrival.
            Wire::Contrib(2),
            Wire::Contrib(2),
            blob(global, 2, 2, vector(2.0), Sent::Aggregate),
            Wire::Contrib(2),
            // The root's own global, back on its subscription.
            Wire::RoundDone(2),
        ]
    );
}

#[test]
fn a_duplicate_sender_is_folded_once() {
    let mut rig = Rig::new();
    rig.role(aggregator(Position::Root, 2, 1));
    rig.start(1);
    rig.take();
    rig.contribution(1, "k0", &vector(1.0), 1);
    rig.contribution(1, "k0", &vector(100.0), 1);
    rig.contribution(1, "k1", &vector(3.0), 1);
    let global = global_topic(&sid());
    assert_eq!(
        rig.take(),
        [
            Wire::Contrib(1),
            Wire::Contrib(1),
            blob(global, 1, 2, vector(2.0), Sent::Aggregate),
            Wire::Contrib(1),
            Wire::RoundDone(1),
        ]
    );
}

#[test]
fn a_shape_mismatched_fold_does_not_mark_the_sender() {
    let mut rig = Rig::new();
    rig.role(aggregator(Position::Root, 2, 1));
    rig.start(1);
    rig.take();
    rig.contribution(1, "k0", &vector(1.0), 1);
    rig.contribution(1, "k1", &[5.0; LEN - 1], 1);
    assert_eq!(rig.core.undecodable, 1);
    assert_eq!(rig.take(), [Wire::Contrib(1)]);
    // The corrected re-send still counts.
    rig.contribution(1, "k1", &vector(3.0), 1);
    let global = global_topic(&sid());
    assert_eq!(
        rig.take(),
        [
            Wire::Contrib(1),
            blob(global, 1, 2, vector(2.0), Sent::Aggregate),
            Wire::Contrib(1),
            Wire::RoundDone(1),
        ]
    );
}

#[test]
fn a_mid_round_set_role_redirects_the_last_sent_to_the_new_parent() {
    let mut rig = Rig::new();
    rig.role(trainer(Position::Agg(0), 1));
    rig.start(1);
    rig.send(vector(1.0)).unwrap();
    let to = |position| position_topic(&sid(), position);
    assert_eq!(
        rig.take(),
        [
            blob(to(Position::Agg(0)), 1, 10, vector(1.0), Sent::Fresh),
            Wire::Contrib(1),
        ]
    );
    // Re-parented within the round: the same bytes go to the new head.
    rig.role(trainer(Position::Agg(1), 1));
    assert_eq!(
        rig.take(),
        [blob(to(Position::Agg(1)), 1, 10, vector(1.0), Sent::Cached)]
    );
    // Next round's plan moves nothing that was sent for this one.
    rig.role(trainer(Position::Agg(0), 2));
    assert!(rig.take().is_empty());
    // A re-announcement re-sends to the current parent.
    rig.start(1);
    assert_eq!(
        rig.take(),
        [
            blob(to(Position::Agg(0)), 1, 10, vector(1.0), Sent::Cached),
            Wire::Contrib(1),
        ]
    );
}

#[test]
fn a_fresh_body_shares_the_vector_send_local_was_given() {
    let mut rig = Rig::new();
    rig.role(trainer(Position::Agg(0), 1));
    rig.start(1);
    let params = Arc::new(vector(1.0));
    let send = |rig: &mut Rig| {
        rig.core
            .send_local(&sid(), 1, Arc::clone(&params), 10, &rig.workers)
            .unwrap()
    };
    let effects = send(&mut rig);
    let fresh = effects.list.iter().find_map(|effect| match effect {
        Effect::Publish(publish) => match &publish.body {
            Body::Fresh(body) => Some(Arc::clone(body)),
            _ => None,
        },
        _ => None,
    });
    assert!(Arc::ptr_eq(&fresh.expect("a fresh publish"), &params));
    rig.record(effects);
    rig.take();
    // The same allocation again in the same round is a repeat: the
    // round's encoding goes out as it was.
    let effects = send(&mut rig);
    rig.record(effects);
    let to = position_topic(&sid(), Position::Agg(0));
    assert_eq!(
        rig.take(),
        [blob(to, 1, 10, vector(1.0), Sent::Cached), Wire::Contrib(1)]
    );
}

#[test]
fn a_shrunken_expected_inputs_flushes() {
    let mut rig = Rig::new();
    rig.role(aggregator(Position::Agg(0), 3, 1));
    rig.start(1);
    // Early children of round 2 stack while round 1 still runs.
    rig.contribution(2, "k0", &vector(1.0), 1);
    rig.contribution(2, "k1", &vector(3.0), 1);
    assert_eq!(
        rig.take(),
        [
            Wire::Subscribe(position_topic(&sid(), Position::Agg(0))),
            Wire::Contrib(2),
            Wire::Contrib(2)
        ]
    );
    // Round 2's plan owes this aggregator two inputs: it has them.
    rig.role(aggregator(Position::Agg(0), 2, 2));
    let root = position_topic(&sid(), Position::Root);
    assert_eq!(
        rig.take(),
        [
            blob(root, 2, 2, vector(2.0), Sent::Aggregate),
            Wire::Contrib(2)
        ]
    );
}

#[test]
fn evicted_tears_down_both_subscriptions() {
    let mut rig = Rig::new();
    rig.role(aggregator(Position::Agg(0), 2, 1));
    rig.start(1);
    rig.contribution(1, "k0", &vector(1.0), 1);
    rig.take();
    let evicted = || CtrlMsg::Evicted {
        reason: "straggler".into(),
    };
    rig.ctrl(evicted()).unwrap();
    assert_eq!(
        rig.take(),
        [
            Wire::Unsubscribe(position_topic(&sid(), Position::Agg(0))),
            Wire::Unsubscribe(global_topic(&sid())),
        ]
    );
    assert!(rig.core.session(&sid()).is_err());
    assert!(matches!(
        rig.core.poll_outcome(&sid()),
        Some(Ok(WaitOutcome::Evicted))
    ));
    assert!(matches!(
        rig.core.poll_gate(&sid()),
        Some(Err(CoreError::Aborted(_)))
    ));
    // Idempotent, and nothing else reaches a session that is gone.
    rig.ctrl(evicted()).unwrap();
    assert!(rig.take().is_empty());
    assert!(matches!(
        rig.ctrl(CtrlMsg::RoundStart { round: 2 }),
        Err(CoreError::UnknownSession(_))
    ));
}

#[test]
fn a_late_global_for_a_closed_round_is_inert() {
    let mut rig = Rig::new();
    rig.role(trainer(Position::Root, 1));
    rig.start(1);
    rig.send(vector(1.0)).unwrap();
    rig.global(1);
    rig.global(1); // a duplicate
    rig.start(2);
    rig.send(vector(2.0)).unwrap();
    rig.take();
    rig.global(1); // round 1 closed long ago
    assert!(rig.take().is_empty());
    assert_eq!(rig.core.retained(&sid()), Some((2, 0, true)));
    assert!(rig.core.poll_outcome(&sid()).is_none());
    rig.global(2);
    assert_eq!(rig.take(), [Wire::RoundDone(2)]);
    let done = rig.log[functions::ROUND_DONE].clone();
    assert_eq!(done, [(1, 0, vec![]), (2, 0, vec![])]);
}

#[test]
fn a_root_applies_its_own_global_once() {
    let mut rig = Rig::new();
    let root = spec(
        Role::TrainerAggregator,
        Some(Position::Root),
        Position::Root,
        2,
        1,
    );
    rig.role(root);
    rig.start(1);
    rig.send(vector(1.0)).unwrap(); // our own fold
    rig.take();
    rig.contribution(1, "k0", &vector(3.0), 10);
    let global = global_topic(&sid());
    assert_eq!(
        rig.take(),
        [
            blob(global, 1, 20, vector(2.0), Sent::Aggregate),
            Wire::Contrib(1),
            Wire::RoundDone(1),
        ]
    );
    // A redelivery of the same global reports nothing more.
    rig.global(1);
    assert!(rig.take().is_empty());
    assert_eq!(rig.log[functions::ROUND_DONE], [(1, 0, vec![])]);
}

#[test]
fn a_redelegated_root_publishing_a_round_twice_is_inert_the_second_time() {
    let mut rig = Rig::new();
    rig.role(aggregator(Position::Root, 2, 1));
    rig.start(1);
    rig.contribution(1, "k0", &vector(1.0), 1);
    rig.contribution(1, "k1", &vector(3.0), 1);
    rig.take();
    // k1 is evicted after the global went out: round 1 is re-delegated
    // with one input, and k0's re-send completes the stack again.
    rig.role(aggregator(Position::Root, 1, 1));
    rig.start(1);
    rig.contribution(1, "k0", &vector(1.0), 1);
    let global = global_topic(&sid());
    assert_eq!(
        rig.take(),
        [
            Wire::Contrib(1),
            blob(global.clone(), 1, 1, vector(1.0), Sent::Aggregate),
            Wire::Contrib(1),
        ]
    );
    assert_eq!(rig.log[global.as_str()].len(), 2);
    assert_eq!(rig.log[functions::ROUND_DONE], [(1, 0, vec![])]);
}

#[test]
fn a_failed_send_local_is_neither_kept_nor_resent() {
    let mut rig = Rig::new();
    rig.start(1);
    let err = rig.send(vector(1.0)).unwrap_err();
    assert!(matches!(err, CoreError::Protocol(_)), "{err:?}");
    // The caller was told the send failed, so round 1 is still news.
    assert!(matches!(
        rig.core.poll_outcome(&sid()),
        Some(Ok(WaitOutcome::NextRound(1)))
    ));
    // A role and a resync later, there is nothing to re-send.
    rig.role(trainer(Position::Root, 1));
    rig.start(1);
    assert!(rig.take().is_empty());
    // The same for a pure aggregator.
    rig.role(aggregator(Position::Agg(0), 2, 1));
    let err = rig.send(vector(1.0)).unwrap_err();
    assert!(matches!(err, CoreError::Protocol(_)), "{err:?}");
    rig.role(trainer(Position::Root, 1));
    rig.start(1);
    assert_eq!(
        rig.take(),
        [
            Wire::Subscribe(position_topic(&sid(), Position::Agg(0))),
            Wire::Unsubscribe(position_topic(&sid(), Position::Agg(0))),
        ]
    );
    assert_eq!(rig.core.retained(&sid()), Some((1, 0, false)));
}

#[test]
fn an_ended_session_releases_its_model_sized_state() {
    for (end, outcome) in [
        (CtrlMsg::SessionComplete, "completed"),
        (CtrlMsg::Abort("budget".into()), "session aborted: budget"),
    ] {
        let mut rig = Rig::new();
        let head = spec(
            Role::TrainerAggregator,
            Some(Position::Root),
            Position::Root,
            3,
            1,
        );
        rig.role(head);
        rig.start(1);
        rig.send(vector(1.0)).unwrap(); // our own fold
        rig.contribution(1, "k0", &vector(3.0), 1);
        rig.contribution(2, "k1", &vector(3.0), 1); // an early child of round 2
        assert_eq!(rig.core.retained(&sid()), Some((1, 2, true)));
        rig.take();
        rig.ctrl(end).unwrap();
        assert!(rig.take().is_empty());
        assert_eq!(rig.core.retained(&sid()), Some((1, 0, false)));
        // What stays: the role, the global subscription and the outcome.
        assert_eq!(rig.core.session(&sid()).unwrap().role, Some(head));
        assert!(rig.subscribed.contains(&global_topic(&sid())));
        let reported = |rig: &mut Rig| match rig.core.poll_outcome(&sid()) {
            Some(Ok(WaitOutcome::Completed)) => "completed".to_owned(),
            Some(Err(e)) => e.to_string(),
            other => format!("{other:?}"),
        };
        assert_eq!(reported(&mut rig), outcome);
        assert!(matches!(
            rig.core.poll_gate(&sid()),
            Some(Err(CoreError::Aborted(_)))
        ));
        // A final global still in flight is acknowledged.
        rig.global(1);
        assert_eq!(rig.take(), [Wire::RoundDone(1)]);
        // Late inputs hold nothing again, and the first end stands.
        rig.contribution(1, "k1", &vector(3.0), 1);
        rig.start(1);
        rig.start(2);
        rig.ctrl(CtrlMsg::Abort("late".into())).unwrap();
        assert!(rig.take().is_empty());
        assert_eq!(rig.core.retained(&sid()), Some((1, 0, false)));
        assert_eq!(reported(&mut rig), outcome);
    }
}

// ---- differential: the bare core against a live node ---------------------

/// Per topic (or `coord_*` function): `(round, weight, parameter bits)`
/// of each publish, in order.
type Log = BTreeMap<String, Vec<(u32, u64, Vec<u32>)>>;

fn entry(wire: &Wire) -> (u32, u64, Vec<u32>) {
    match wire {
        Wire::Blob {
            round,
            weight,
            params,
            ..
        } => (
            *round,
            *weight,
            params.iter().map(|p| p.to_bits()).collect(),
        ),
        Wire::Contrib(round) | Wire::RoundDone(round) => (*round, 0, Vec::new()),
        _ => unreachable!("not logged"),
    }
}

fn position(i: u8) -> Position {
    match i {
        0 => Position::Root,
        i => Position::Agg(u32::from(i) - 1),
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// A role for the running round or the next one.
    Role {
        kind: u8,
        at: u8,
        parent: u8,
        expected: u32,
        next: bool,
    },
    /// `round_start` this many rounds after the running one.
    Start(i8),
    Send(u8),
    Contribution {
        to: u8,
        sender: u8,
        ahead: i8,
        value: u8,
        short: bool,
    },
    Global(i8),
    Complete,
    Abort,
    Evict,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..3u8, 0..3u8, 0..3u8, 1..4u32, 0..3u8).prop_map(
            |(kind, at, parent, expected, next)| Op::Role {
                kind,
                at,
                parent,
                expected,
                next: next == 0,
            }
        ),
        4 => prop_oneof![1 => Just(-1i8), 2 => Just(0i8), 2 => Just(1i8)].prop_map(Op::Start),
        4 => (0..8u8).prop_map(Op::Send),
        8 => (
            0..3u8,
            0..3u8,
            prop_oneof![1 => Just(-1i8), 4 => Just(0i8), 1 => Just(1i8)],
            0..8u8,
            0..10u8
        )
            .prop_map(|(to, sender, ahead, value, short)| Op::Contribution {
                to,
                sender,
                ahead,
                value,
                short: short == 0,
            }),
        2 => prop_oneof![Just(-1i8), Just(0i8)].prop_map(Op::Global),
    ]
}

/// A role and a first round, a body, then maybe an end and what comes
/// after it.
fn script() -> impl Strategy<Value = Vec<Op>> {
    let head = (0..3u8, 0..3u8, 1..4u32).prop_map(|(kind, at, expected)| Op::Role {
        kind,
        at,
        parent: 0,
        expected,
        next: true,
    });
    let end = prop_oneof![
        Just(None),
        Just(Some(Op::Complete)),
        Just(Some(Op::Abort)),
        Just(Some(Op::Evict)),
    ];
    let body = prop::collection::vec(op(), 4..30);
    let after = prop::collection::vec(op(), 0..4);
    (head, body, end, after).prop_map(|(head, body, end, after)| {
        let mut script = vec![head, Op::Start(1)];
        script.extend(body.into_iter().chain(end).chain(after));
        script
    })
}

/// One script step with its rounds resolved against the core.
#[derive(Debug, Clone)]
enum Input {
    Ctrl(CtrlMsg),
    Send(Vec<f32>),
    Blob {
        topic: TopicName,
        blob: Blob,
        update: UpdateMeta,
    },
}

struct Expected {
    input: Input,
    /// `send_local`'s verdict (always true for other inputs).
    accepted: bool,
    /// How many entries each log topic holds after this step.
    lens: BTreeMap<String, usize>,
}

fn lens(log: &Log) -> BTreeMap<String, usize> {
    log.iter().map(|(k, v)| (k.clone(), v.len())).collect()
}

fn data_blob(topic: TopicName, round: u32, sender: &str, params: &[f32], weight: u64) -> Input {
    let (payload, update) = dense(params);
    let blob = Blob {
        session_id: sid(),
        round,
        sender: sender.to_owned(),
        weight,
        params: payload,
    };
    Input::Blob {
        topic,
        blob,
        update,
    }
}

/// Runs `script` on the bare core. Returns the resolved steps and the
/// per-topic log.
fn run_on_core(script: &[Op]) -> (Vec<Expected>, Log, u64) {
    let mut rig = Rig::new();
    let mut steps = Vec::new();
    for op in script {
        let round = rig.core.retained(&sid()).map_or(0, |r| r.0);
        let at = |delta: i8| (i64::from(round) + i64::from(delta)).max(1) as u32;
        let mut accepted = true;
        let input = match *op {
            Op::Role {
                kind,
                at: holds,
                parent,
                expected,
                next,
            } => {
                let round = round + u32::from(next);
                // A root publishes the global and names itself as its
                // parent; no other aggregator is its own parent.
                let held = position(holds);
                let parent = match holds {
                    0 => Position::Root,
                    i if i == parent => Position::Root,
                    _ => position(parent),
                };
                let spec = match kind {
                    0 => trainer(parent, round),
                    1 => spec(Role::Aggregator, Some(held), parent, expected, round),
                    _ => spec(Role::TrainerAggregator, Some(held), parent, expected, round),
                };
                Input::Ctrl(CtrlMsg::SetRole(spec))
            }
            Op::Start(delta) => Input::Ctrl(CtrlMsg::RoundStart { round: at(delta) }),
            Op::Send(value) => {
                if rig.core.session(&sid()).is_err() || rig.core.poll_gate(&sid()).is_none() {
                    continue; // the live call would block on the gate
                }
                let params = vector(f32::from(value));
                accepted = rig.send(params.clone()).is_ok();
                Input::Send(params)
            }
            Op::Contribution {
                to,
                sender,
                ahead,
                value,
                short,
            } => {
                let round = (i64::from(round) + i64::from(ahead)).max(0) as u32;
                let len = if short { LEN - 1 } else { LEN };
                let params = vec![f32::from(value); len];
                let sender = format!("k{sender}");
                let weight = 1 + u64::from(value % 3);
                let topic = position_topic(&sid(), position(to));
                if rig.subscribed.contains(&topic) {
                    rig.contribution(round, &sender, &params, weight);
                }
                data_blob(topic, round, &sender, &params, weight)
            }
            Op::Global(delta) => {
                let round = at(delta);
                if rig.subscribed.contains(&global_topic(&sid())) {
                    rig.global(round);
                }
                let params = vector(round as f32 * 10.0);
                data_blob(global_topic(&sid()), round, "root", &params, 0)
            }
            Op::Complete => Input::Ctrl(CtrlMsg::SessionComplete),
            Op::Abort => Input::Ctrl(CtrlMsg::Abort("stop".into())),
            Op::Evict => Input::Ctrl(CtrlMsg::Evicted {
                reason: "gone".into(),
            }),
        };
        if let Input::Ctrl(msg) = &input {
            let _ = rig.ctrl(msg.clone());
        }
        steps.push(Expected {
            input,
            accepted,
            lens: lens(&rig.log),
        });
    }
    (steps, rig.log, rig.core.undecodable)
}

/// Replays the resolved steps against a live node on a one-shard broker,
/// with a stand-in coordinator and a spy on every topic the node may
/// publish to. After each step a control call for an unknown session
/// round-trips through the node's dispatcher — everything sent before it
/// has been handled — and the replay waits until the spies have seen what
/// the core logged. Returns the node's per-topic log and its undecodable
/// count.
fn run_live(steps: &[Expected]) -> (Log, u64) {
    let broker = Broker::start_default();
    let connect = |id: &str| Client::connect(&broker, ClientOptions::new(id)).unwrap();
    let log: Arc<Mutex<Log>> = Arc::default();

    let coordinator = FleetController::new(connect(COORDINATOR_ID), COORDINATOR_ID).unwrap();
    coordinator
        .expose(functions::JOIN_SESSION, Arc::new(|_| Ok(Bytes::new())))
        .unwrap();
    for (function, kind) in [
        (functions::CONTRIB, MsgKind::Contrib),
        (functions::ROUND_DONE, MsgKind::RoundDone),
    ] {
        let log = Arc::clone(&log);
        coordinator
            .expose(
                function,
                Arc::new(move |msg| {
                    let round = match ControlMsg::decode(kind, &msg.payload).unwrap() {
                        ControlMsg::Contrib(ping) => ping.round,
                        ControlMsg::RoundDone(report) => report.round,
                        other => panic!("unexpected {other:?}"),
                    };
                    let entry = (round, 0, Vec::new());
                    log.lock()
                        .entry(function.to_owned())
                        .or_default()
                        .push(entry);
                    Ok(Bytes::new())
                }),
            )
            .unwrap();
    }

    let spy = BlobChannel::new(connect("spy"), "spy", BatchConfig::default());
    let topics = (0..3).map(|i| position_topic(&sid(), position(i)));
    for topic in topics.chain([global_topic(&sid())]) {
        let (log, key) = (Arc::clone(&log), topic.as_str().to_owned());
        let handler = move |blob: Blob, update: UpdateMeta| {
            if blob.sender == ME {
                let params =
                    ModelController::decode_update_stateless(&update, &blob.params).unwrap();
                let bits = params.iter().map(|p| p.to_bits()).collect();
                let entry = (blob.round, blob.weight, bits);
                log.lock().entry(key.clone()).or_default().push(entry);
            }
        };
        spy.subscribe(&filter(topic), Arc::new(handler)).unwrap();
    }

    let node = SdflmqClient::connect(
        &broker,
        ClientId::new(ME).unwrap(),
        SdflmqClientConfig::default(),
    )
    .unwrap();
    node.join_fl_session(&sid(), &ModelId::new("m").unwrap(), PreferredRole::Any, 10)
        .unwrap();
    let driver = FleetController::new(connect("driver"), "driver").unwrap();
    let publisher = BlobChannel::new(connect("pub"), "pub", BatchConfig::default());
    let ctrl = |session: SessionId, msg: CtrlMsg| {
        let frame = ControlMsg::Ctrl { session, msg }.encode();
        driver.call_with_reply(&functions::client_ctrl(ME), frame)
    };

    for (n, step) in steps.iter().enumerate() {
        let accepted = match &step.input {
            Input::Ctrl(msg) => {
                let _ = ctrl(sid(), msg.clone());
                true
            }
            Input::Send(params) => {
                let _ = node.set_model(&sid(), params);
                node.send_local(&sid()).is_ok()
            }
            Input::Blob {
                topic,
                blob,
                update,
            } => {
                publisher.publish_update(topic, blob, update).unwrap();
                true
            }
        };
        assert_eq!(accepted, step.accepted, "step {n}: {:?}", step.input);
        let barrier = ctrl(SessionId::new("barrier").unwrap(), CtrlMsg::ResetRole);
        assert!(barrier.is_err(), "the barrier session is unknown");
        let patience = Instant::now() + Duration::from_secs(30);
        while lens(&log.lock()) != step.lens {
            assert!(
                Instant::now() < patience,
                "step {n} ({:?}): live logged {:?}, core {:?}",
                step.input,
                lens(&log.lock()),
                step.lens
            );
            std::thread::yield_now();
        }
    }
    let stats = node.data_plane_stats();
    let live = log.lock().clone();
    (live, stats.undecodable_updates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn core_and_live_node_publish_the_same(script in script()) {
        let (steps, core, rejected) = run_on_core(&script);
        let (live, undecodable) = run_live(&steps);
        prop_assert_eq!(core, live);
        prop_assert_eq!(rejected, undecodable);
    }
}
