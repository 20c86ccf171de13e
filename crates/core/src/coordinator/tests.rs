//! Thread-free tests of the coordinator core.
//!
//! A [`Rig`] stands where the glue's loop thread does: it feeds requests
//! and timer expiries into a [`CoordCore`] with a `now` of its choosing,
//! runs the steps they make due, and records what each announce would put
//! on the wire. No broker, thread or sleep is involved, so rules that
//! depend on time or on the order of two messages are checked exactly.
//! The differential proptest at the bottom then holds a live
//! [`Coordinator`] on a [`TestClock`] to the same answers.

use super::core::{CoordCore, Outgoing, Step};
use super::*;
use crate::clock::TestClock;
use crate::ids::ModelId;
use crate::messages::{ContribMsg, CtrlMsg, JoinRequest, NewSessionRequest, RoundDone, StatsMsg};
use crate::roles::PreferredRole;
use proptest::prelude::*;
use std::collections::BTreeSet;

const CLIENTS: usize = 4;

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn sid() -> SessionId {
    SessionId::new("s").unwrap()
}

fn cid(i: usize) -> ClientId {
    ClientId::new(format!("c{i}")).unwrap()
}

/// The `i` of `cid(i)`.
fn index_of(client: &ClientId) -> usize {
    (0..CLIENTS)
        .find(|i| &cid(*i) == client)
        .expect("a known client")
}

fn new_session(
    min: usize,
    max: usize,
    rounds: u32,
    waiting: f64,
    budget: f64,
) -> NewSessionRequest {
    NewSessionRequest {
        session_id: sid(),
        client_id: cid(0),
        model_name: ModelId::new("mlp").unwrap(),
        session_time_secs: budget,
        capacity_min: min,
        capacity_max: max,
        waiting_time_secs: waiting,
        fl_rounds: rounds,
        preferred_role: PreferredRole::Any,
        codec: 0,
    }
}

/// Client `i`'s stats: the higher the index, the more free memory, so the
/// default optimizer ranks `c3` first for aggregation.
fn stats(i: usize) -> StatsMsg {
    StatsMsg {
        free_memory: (1 + i as u64) << 30,
        available_flops: 1e9,
        memory_utilization: 0.2,
    }
}

fn join(i: usize) -> JoinRequest {
    JoinRequest {
        session_id: sid(),
        client_id: cid(i),
        model_name: ModelId::new("mlp").unwrap(),
        preferred_role: PreferredRole::Any,
        num_samples: 10,
        stats: stats(i),
        codec: 0,
    }
}

/// A report whose stats rotate with the round, so the load balancer has
/// a reason to move the aggregation duty.
fn done(i: usize, round: u32) -> RoundDone {
    RoundDone {
        session_id: sid(),
        client_id: cid(i),
        round,
        stats: stats((i + round as usize) % CLIENTS),
    }
}

fn contrib(i: usize, round: u32) -> ContribMsg {
    ContribMsg {
        session_id: sid(),
        client_id: cid(i),
        round,
    }
}

/// One recorded wire action.
#[derive(Debug, Clone, PartialEq)]
enum Wire {
    Ctrl {
        to: ClientId,
        msg: CtrlMsg,
        acked: bool,
    },
    Retain {
        cleared: bool,
    },
}

/// What kind of message a [`Wire`] is, for order assertions.
fn kind(wire: &Wire) -> &'static str {
    match wire {
        Wire::Retain { cleared: false } => "topology",
        Wire::Retain { cleared: true } => "clear",
        Wire::Ctrl { msg, .. } => match msg {
            CtrlMsg::SetRole(_) => "set_role",
            CtrlMsg::ResetRole => "reset_role",
            CtrlMsg::RoundStart { .. } => "round_start",
            CtrlMsg::SessionComplete => "complete",
            CtrlMsg::Abort(_) => "abort",
            CtrlMsg::Evicted { .. } => "evicted",
        },
    }
}

struct Rig {
    core: CoordCore,
    now: Instant,
    /// Everything announced since the last [`Rig::take`], in wire order.
    wire: Vec<Wire>,
}

impl Rig {
    fn new(config: CoordinatorConfig) -> Rig {
        Rig {
            core: CoordCore::new(config),
            now: Instant::now(),
            wire: Vec::new(),
        }
    }

    /// A rig whose session `s` has `n` of `max` contributors joined.
    fn with_session(config: CoordinatorConfig, n: usize, min: usize, max: usize) -> Rig {
        let mut rig = Rig::new(config);
        rig.core
            .on_new_session(new_session(min, max, 3, 0.1, 3600.0), rig.now)
            .unwrap();
        (0..n).for_each(|i| rig.join(i).unwrap());
        rig
    }

    /// Runs `step` and its follow-ups the way `Loop::step` does.
    fn run(&mut self, step: Step) {
        let mut next = Some(step);
        while let Some(step) = next {
            let Some(announce) = self.core.run(step, self.now) else {
                return;
            };
            self.wire
                .extend(announce.sends().into_iter().map(|send| match send {
                    Outgoing::Ctrl { client, msg, acked } => Wire::Ctrl {
                        to: client.clone(),
                        msg,
                        acked,
                    },
                    Outgoing::Retain(doc) => Wire::Retain {
                        cleared: doc.is_none(),
                    },
                }));
            next = announce.then;
        }
    }

    fn join(&mut self, i: usize) -> Result<()> {
        let step = self.core.on_join(join(i))?;
        step.into_iter().for_each(|step| self.run(step));
        Ok(())
    }

    fn done(&mut self, i: usize, round: u32) -> Result<()> {
        let step = self.core.on_round_done(done(i, round), self.now)?;
        step.into_iter().for_each(|step| self.run(step));
        Ok(())
    }

    /// Moves time forward and runs what that made due, as the loop does
    /// after a wake-up.
    fn advance(&mut self, d: Duration) {
        self.now += d;
        loop {
            let due = self.core.on_timer(self.now);
            if due.is_empty() {
                return;
            }
            due.into_iter().for_each(|step| self.run(step));
        }
    }

    fn take(&mut self) -> Vec<Wire> {
        std::mem::take(&mut self.wire)
    }

    fn kinds(&mut self) -> Vec<&'static str> {
        self.take().iter().map(kind).collect()
    }

    fn state(&self) -> SessionState {
        self.core.session(&sid()).expect("session").state.clone()
    }

    fn round(&self) -> Option<u32> {
        self.core.session(&sid()).and_then(|s| s.current_round())
    }

    fn members(&self) -> Vec<ClientId> {
        self.core.session(&sid()).expect("session").member_ids()
    }
}

fn central() -> CoordinatorConfig {
    CoordinatorConfig {
        topology: Topology::Central,
        ..CoordinatorConfig::default()
    }
}

#[test]
fn the_filling_join_hands_out_roles_then_topology_then_round_one() {
    let mut rig = Rig::with_session(central(), 3, 2, 4);
    assert!(rig.take().is_empty(), "nothing is sent while waiting");
    rig.join(3).unwrap();
    assert_eq!(
        rig.kinds(),
        [
            "set_role",
            "set_role",
            "set_role",
            "set_role",
            "topology",
            "round_start",
            "round_start",
            "round_start",
            "round_start"
        ]
    );
    assert_eq!(rig.round(), Some(1));
    assert!(rig.join(3).is_err(), "no joins after start");
    // A second start signal (the timer racing the filling join) is inert.
    rig.run(Step::Start(sid()));
    assert!(rig.take().is_empty());
}

#[test]
fn role_pushes_are_the_only_acknowledged_sends() {
    let mut rig = Rig::with_session(central(), 2, 2, 2);
    let wire = rig.take();
    assert_eq!(wire.len(), 5, "two roles, the topology, two round_starts");
    for sent in wire {
        if let Wire::Ctrl { msg, acked, .. } = sent {
            assert_eq!(acked, matches!(msg, CtrlMsg::SetRole(_)));
        }
    }
}

#[test]
fn quorum_plus_grace_closes_exactly_at_the_boundary() {
    let mut rig = Rig::with_session(
        CoordinatorConfig {
            quorum: 0.5,
            grace: ms(30),
            ..central()
        },
        4,
        2,
        4,
    );
    let started = rig.now;
    rig.take();
    rig.done(0, 1).unwrap();
    assert_eq!(
        rig.core.next_deadline(),
        Some(started + CoordinatorConfig::default().round_timeout),
        "below the quorum only the round deadline is armed"
    );
    rig.advance(ms(5));
    rig.done(1, 1).unwrap();
    let met = rig.now;
    assert_eq!(rig.core.next_deadline(), Some(met + ms(30)));
    // One nanosecond short of the grace the round stays open ...
    rig.advance(ms(30) - Duration::from_nanos(1));
    assert_eq!(rig.round(), Some(1));
    assert!(rig.take().is_empty());
    // ... and the boundary itself closes it, without the two stragglers.
    rig.advance(Duration::from_nanos(1));
    assert_eq!(rig.round(), Some(2));
    assert_eq!(rig.kinds(), ["round_start"; 4], "one strike evicts nobody");
}

#[test]
fn a_late_report_after_the_grace_closes_the_round_itself() {
    let mut rig = Rig::with_session(
        CoordinatorConfig {
            quorum: 0.5,
            grace: ms(30),
            ..central()
        },
        4,
        2,
        4,
    );
    rig.done(0, 1).unwrap();
    rig.done(1, 1).unwrap();
    // Time passes without a timer wake-up (the loop is in a handshake).
    rig.now += ms(40);
    rig.done(2, 1).unwrap();
    assert_eq!(rig.round(), Some(2));
}

#[test]
fn duplicate_and_late_round_done_reports() {
    let mut rig = Rig::with_session(central(), 3, 3, 3);
    rig.take();
    rig.done(0, 1).unwrap();
    rig.done(0, 1).unwrap();
    rig.done(1, 1).unwrap();
    assert_eq!(rig.round(), Some(1), "a duplicate does not count twice");
    // The closing report and its duplicate both signal closure; the
    // second `Advance` is stamped with a round that is over.
    let first = rig.core.on_round_done(done(2, 1), rig.now).unwrap();
    let second = rig.core.on_round_done(done(2, 1), rig.now).unwrap();
    assert_eq!(first, second);
    rig.run(first.unwrap());
    assert_eq!(rig.kinds(), ["round_start"; 3]);
    rig.run(second.unwrap());
    assert!(rig.take().is_empty(), "no double advance");
    assert_eq!(rig.round(), Some(2));
    // A report for the closed round is refused, one from a stranger too.
    assert!(matches!(rig.done(0, 1), Err(CoreError::Protocol(_))));
    assert!(matches!(rig.done(3, 2), Err(CoreError::Refused(_))));
    // A contribution ping for a closed round or from a stranger is ignored.
    rig.core.on_contrib(contrib(0, 1));
    rig.core.on_contrib(contrib(3, 2));
    let SessionState::Running { contributed, .. } = rig.state() else {
        panic!("running");
    };
    assert!(contributed.is_empty());
}

#[test]
fn a_stale_advance_after_an_abort_is_inert() {
    let mut rig = Rig::new(central());
    rig.core
        .on_new_session(new_session(2, 2, 3, 0.1, 1.0), rig.now)
        .unwrap();
    rig.join(0).unwrap();
    rig.join(1).unwrap();
    rig.done(0, 1).unwrap();
    let closing = rig.core.on_round_done(done(1, 1), rig.now).unwrap();
    rig.take();
    // The budget runs out while the closing step is still queued. The
    // boundary instant itself is in time.
    rig.advance(Duration::from_secs(1));
    assert_eq!(rig.round(), Some(1));
    rig.advance(Duration::from_nanos(1));
    assert_eq!(rig.kinds(), ["clear", "abort", "abort"]);
    let aborted = SessionState::Aborted("session time budget exceeded".into());
    assert_eq!(rig.state(), aborted);
    rig.run(closing.unwrap());
    assert!(rig.take().is_empty(), "no session_complete after an abort");
    assert_eq!(rig.state(), aborted);
    assert!(rig.done(0, 1).is_err());
}

#[test]
fn overdue_strikes_then_evicts_and_redelegates_in_wire_order() {
    let mut rig = Rig::with_session(
        CoordinatorConfig {
            topology: Topology::Hierarchical {
                aggregator_ratio: 0.5,
            },
            round_timeout: Duration::from_secs(5),
            ..CoordinatorConfig::default()
        },
        4,
        2,
        4,
    );
    // Find a cluster head that is not the root: its death orphans a
    // trainer, so the re-delegation has a role to re-assign.
    let heads: Vec<ClientId> = rig
        .take()
        .into_iter()
        .filter_map(|wire| match wire {
            Wire::Ctrl {
                to,
                msg: CtrlMsg::SetRole(spec),
                ..
            } if spec.role.aggregates() && spec.position != Some(crate::Position::Root) => Some(to),
            _ => None,
        })
        .collect();
    let dead = heads.first().expect("a non-root aggregator").clone();
    let live: Vec<usize> = (0..CLIENTS).filter(|i| cid(*i) != dead).collect();

    // Deadline 1: the live clients have contributed, the dead head has
    // not. One strike of two: nobody leaves, the round is re-announced.
    live.iter()
        .for_each(|i| rig.core.on_contrib(contrib(*i, 1)));
    rig.advance(Duration::from_secs(5));
    assert!(rig.take().is_empty(), "the deadline itself is in time");
    rig.advance(Duration::from_nanos(1));
    assert_eq!(rig.kinds(), ["round_start"; 4]);
    assert_eq!(
        rig.core.next_deadline(),
        Some(rig.now + Duration::from_secs(5)),
        "the re-announcement restarts the round clock"
    );

    // Deadline 2: the live clients re-pinged, the head is still silent.
    live.iter()
        .for_each(|i| rig.core.on_contrib(contrib(*i, 1)));
    rig.advance(Duration::from_secs(5) + Duration::from_nanos(1));
    let wire = rig.take();
    let kinds: Vec<_> = wire.iter().map(kind).collect();
    let roles = kinds.iter().filter(|k| **k == "set_role").count();
    assert!(roles >= 1, "the orphaned trainer is re-parented: {kinds:?}");
    let mut expected = vec!["evicted"];
    expected.extend(std::iter::repeat_n("set_role", roles));
    expected.push("topology");
    expected.extend(["round_start"; 3]);
    assert_eq!(kinds, expected);
    assert!(matches!(&wire[0], Wire::Ctrl { to, .. } if *to == dead));
    assert!(wire[1..]
        .iter()
        .all(|w| !matches!(w, Wire::Ctrl { to, .. } if *to == dead)));
    assert_eq!(rig.round(), Some(1), "same round, re-delegated");
    assert_eq!(rig.members().len(), 3);
}

#[test]
fn evicting_the_last_holdout_closes_the_round_through_the_regular_advance() {
    let mut rig = Rig::with_session(
        CoordinatorConfig {
            max_missed_rounds: 1,
            round_timeout: Duration::from_secs(5),
            ..central()
        },
        3,
        2,
        3,
    );
    rig.take();
    rig.done(0, 1).unwrap();
    rig.done(1, 1).unwrap();
    rig.advance(Duration::from_secs(5) + Duration::from_nanos(1));
    // No same-round re-delegation: the eviction, then round 2's announce.
    let kinds = rig.kinds();
    assert_eq!(kinds[0], "evicted");
    assert_eq!(kinds[kinds.len() - 2..], ["round_start"; 2]);
    assert_eq!(rig.round(), Some(2));
    assert_eq!(rig.members(), [cid(0), cid(1)]);
}

#[test]
fn too_few_survivors_abort_instead_of_evicting() {
    let mut rig = Rig::with_session(
        CoordinatorConfig {
            max_missed_rounds: 1,
            round_timeout: Duration::from_secs(5),
            ..central()
        },
        3,
        3,
        3,
    );
    rig.take();
    rig.done(0, 1).unwrap();
    rig.done(1, 1).unwrap();
    rig.advance(Duration::from_secs(5) + Duration::from_nanos(1));
    assert_eq!(rig.kinds(), ["clear", "abort", "abort", "abort"]);
    assert_eq!(
        rig.members().len(),
        3,
        "nobody is evicted from a dead session"
    );
}

#[test]
fn next_deadline_tracks_window_grace_round_deadline_budget_and_linger() {
    let config = CoordinatorConfig {
        quorum: 0.5,
        grace: ms(40),
        round_timeout: ms(300),
        terminal_linger: Duration::from_secs(7),
        ..central()
    };
    let mut rig = Rig::new(config);
    assert_eq!(
        rig.core.next_deadline(),
        None,
        "an idle core parks the loop"
    );
    let t0 = rig.now;
    rig.core
        .on_new_session(new_session(1, 2, 1, 0.1, 1.0), t0)
        .unwrap();
    assert_eq!(
        rig.core.next_deadline(),
        Some(t0 + ms(100)),
        "waiting window"
    );
    rig.join(0).unwrap();
    rig.advance(ms(100));
    assert_eq!(rig.round(), Some(1), "the window closed above capacity_min");
    let started = rig.now;
    assert_eq!(rig.core.next_deadline(), Some(started + ms(300)), "round");
    // Two blown round deadlines later the budget is the nearer limit.
    rig.core.on_contrib(contrib(0, 1));
    rig.advance(ms(301));
    rig.core.on_contrib(contrib(0, 1));
    rig.advance(ms(301));
    assert_eq!(rig.round(), Some(1));
    assert_eq!(rig.core.next_deadline(), Some(t0 + Duration::from_secs(1)));
    rig.advance(t0 + Duration::from_secs(1) - rig.now + Duration::from_nanos(1));
    assert!(matches!(rig.state(), SessionState::Aborted(_)));
    assert_eq!(
        rig.core.next_deadline(),
        Some(rig.now + Duration::from_secs(7)),
        "linger"
    );
    rig.advance(Duration::from_secs(7));
    assert!(rig.core.session(&sid()).is_none(), "garbage-collected");
    assert_eq!(rig.core.next_deadline(), None);

    // Grace: armed by the report that meets the quorum, dropped again
    // once everyone has reported.
    let mut rig = Rig::with_session(
        CoordinatorConfig {
            quorum: 0.5,
            grace: ms(40),
            ..central()
        },
        2,
        2,
        2,
    );
    rig.core.on_round_done(done(0, 1), rig.now).unwrap();
    assert_eq!(rig.core.next_deadline(), Some(rig.now + ms(40)));
}

#[test]
fn an_undersubscribed_waiting_window_aborts() {
    let mut rig = Rig::with_session(central(), 1, 2, 4);
    rig.advance(ms(99));
    assert_eq!(rig.state(), SessionState::Waiting);
    rig.advance(ms(1));
    assert_eq!(rig.kinds(), ["clear", "abort"]);
    assert_eq!(
        rig.state(),
        SessionState::Aborted("not enough contributors".into())
    );
}

#[test]
fn hostile_session_times_are_refused_not_panicked_on() {
    let mut rig = Rig::new(central());
    for bad in [f64::INFINITY, 1e300, 2f64.powi(64), 1e11] {
        let err = rig
            .core
            .on_new_session(new_session(1, 2, 1, 0.0, bad), rig.now)
            .unwrap_err();
        assert!(matches!(err, CoreError::Refused(_)), "{bad}: {err:?}");
        let err = rig
            .core
            .on_new_session(new_session(1, 2, 1, bad, 60.0), rig.now)
            .unwrap_err();
        assert!(matches!(err, CoreError::Refused(_)), "{bad}: {err:?}");
    }
    assert!(rig.core.session(&sid()).is_none());
    // NaN and negatives fall to the floors, as they always did.
    rig.core
        .on_new_session(new_session(1, 2, 1, f64::NAN, -5.0), rig.now)
        .unwrap();
    let config = &rig.core.session(&sid()).unwrap().config;
    assert_eq!(config.waiting_time, Duration::ZERO);
    assert_eq!(config.session_time, Duration::from_secs(1));
}

// ---- differential: the bare core against a live coordinator -------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Join(usize),
    /// `behind` rounds before the one the session is in.
    Done(usize, u32),
    Contrib(usize),
    Advance(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (0..CLIENTS).prop_map(Op::Join),
        6 => ((0..CLIENTS), prop_oneof![5 => Just(0u32), 1 => Just(1u32)])
            .prop_map(|(i, behind)| Op::Done(i, behind)),
        2 => (0..CLIENTS).prop_map(Op::Contrib),
        2 => prop_oneof![Just(0u64), Just(20), Just(50), Just(120), Just(201)]
            .prop_map(Op::Advance),
    ]
}

/// A few joins (a repeated one is refused), then anything.
fn script() -> impl Strategy<Value = Vec<Op>> {
    let joins = prop::collection::vec((0..CLIENTS).prop_map(Op::Join), 2..5);
    (joins, prop::collection::vec(op(), 1..40)).prop_map(|(mut script, body)| {
        script.extend(body);
        script
    })
}

/// Short deadlines of every kind, so a 30-op script crosses them all.
fn differential_config(clock: Arc<dyn Clock>) -> CoordinatorConfig {
    CoordinatorConfig {
        topology: Topology::Hierarchical {
            aggregator_ratio: 0.5,
        },
        round_timeout: ms(200),
        quorum: 0.5,
        grace: ms(50),
        max_missed_rounds: 1,
        terminal_linger: ms(400),
        clock,
        ..CoordinatorConfig::default()
    }
}

/// What is visible of a session from outside, without its instants.
type View = Option<(String, Vec<ClientId>, BTreeSet<ClientId>)>;

fn view(state: Option<SessionState>, members: Option<Vec<ClientId>>) -> View {
    let state = state?;
    let (tag, done) = match state {
        SessionState::Running { round, done, .. } => (format!("round {round}"), done),
        other => (format!("{other:?}"), Default::default()),
    };
    Some((tag, members?, done.into_iter().collect()))
}

/// One step of a script with its rounds resolved, and what the core said
/// the world looks like after it.
struct Expected {
    request: Request,
    accepted: bool,
    view: View,
    /// Control messages each client has received so far.
    heard: Vec<usize>,
}

enum Request {
    Join(JoinRequest),
    Done(RoundDone),
    Contrib(ContribMsg),
    Advance(Duration),
}

/// Runs `script` on the bare core. Returns the resolved steps and every
/// client's control-message sequence.
fn run_on_core(script: &[Op]) -> (Vec<Expected>, Vec<Vec<CtrlMsg>>) {
    let mut rig = Rig::new(differential_config(wall_clock()));
    rig.core
        .on_new_session(new_session(2, 3, 3, 0.1, 2.0), rig.now)
        .unwrap();
    let mut heard: Vec<Vec<CtrlMsg>> = vec![Vec::new(); CLIENTS];
    let mut steps = Vec::new();
    for op in script {
        let round = rig.round().unwrap_or(1);
        let (request, accepted) = match *op {
            Op::Join(i) => (Request::Join(join(i)), rig.join(i).is_ok()),
            Op::Done(i, behind) => {
                let round = round.saturating_sub(behind).max(1);
                (Request::Done(done(i, round)), rig.done(i, round).is_ok())
            }
            Op::Contrib(i) => {
                rig.core.on_contrib(contrib(i, round));
                (Request::Contrib(contrib(i, round)), true)
            }
            Op::Advance(millis) => {
                rig.advance(ms(millis));
                (Request::Advance(ms(millis)), true)
            }
        };
        for wire in rig.take() {
            if let Wire::Ctrl { to, msg, .. } = wire {
                heard[index_of(&to)].push(msg);
            }
        }
        let session = rig.core.session(&sid());
        steps.push(Expected {
            request,
            accepted,
            view: view(
                session.map(|s| s.state.clone()),
                session.map(|s| s.member_ids()),
            ),
            heard: heard.iter().map(Vec::len).collect(),
        });
    }
    (steps, heard)
}

/// Replays the resolved steps against a live coordinator, waiting after
/// each one until the live side shows what the core showed. Returns every
/// client's control-message sequence.
fn run_live(steps: &[Expected]) -> Vec<Vec<CtrlMsg>> {
    let broker = Broker::start_default();
    let clock = TestClock::new();
    let coordinator = Coordinator::start(&broker, differential_config(clock.clone())).unwrap();
    let controller = |id: &str| {
        let client = Client::connect(&broker, ClientOptions::new(id)).unwrap();
        FleetController::new(client, id).unwrap()
    };
    let heard: Vec<Arc<Mutex<Vec<CtrlMsg>>>> = (0..CLIENTS).map(|_| Arc::default()).collect();
    let fleet: Vec<FleetController> = (0..CLIENTS)
        .map(|i| {
            let fc = controller(cid(i).as_str());
            let log = Arc::clone(&heard[i]);
            fc.expose(
                &functions::client_ctrl(cid(i).as_str()),
                Arc::new(move |msg| {
                    let decoded = ControlMsg::decode(MsgKind::Ctrl, &msg.payload).unwrap();
                    let ControlMsg::Ctrl { msg, .. } = decoded else {
                        unreachable!("decoded as Ctrl");
                    };
                    log.lock().push(msg);
                    Ok(Bytes::new())
                }),
            )
            .unwrap();
            fc
        })
        .collect();
    let request = |i: usize, function: &str, msg: ControlMsg| {
        fleet[i].call_with_reply(function, msg.encode()).is_ok()
    };
    assert!(request(
        0,
        functions::NEW_SESSION,
        ControlMsg::NewSession(new_session(2, 3, 3, 0.1, 2.0))
    ));
    for (n, step) in steps.iter().enumerate() {
        let accepted = match &step.request {
            Request::Join(req) => {
                let i = index_of(&req.client_id);
                request(i, functions::JOIN_SESSION, ControlMsg::Join(req.clone()))
            }
            Request::Done(report) => {
                let i = index_of(&report.client_id);
                request(
                    i,
                    functions::ROUND_DONE,
                    ControlMsg::RoundDone(report.clone()),
                )
            }
            Request::Contrib(ping) => {
                let i = index_of(&ping.client_id);
                request(i, functions::CONTRIB, ControlMsg::Contrib(ping.clone()))
            }
            Request::Advance(d) => {
                clock.advance(*d);
                true
            }
        };
        assert_eq!(accepted, step.accepted, "step {n}");
        let patience = Instant::now() + Duration::from_secs(30);
        loop {
            let lens: Vec<usize> = heard.iter().map(|log| log.lock().len()).collect();
            let live = view(
                coordinator.session_state(&sid()),
                coordinator.session_members(&sid()),
            );
            if lens == step.heard && live == step.view {
                break;
            }
            assert!(
                Instant::now() < patience,
                "step {n}: live heard {lens:?} and shows {live:?}, core heard {:?} and shows {:?}",
                step.heard,
                step.view
            );
            std::thread::yield_now();
        }
    }
    heard.iter().map(|log| log.lock().clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn core_and_live_coordinator_tell_each_client_the_same(
        script in script()
    ) {
        // Every script ends by running out the session's two-second
        // budget (and, from any terminal state, its linger), so whatever
        // the live side still had in flight must have come out by then.
        let mut script = script;
        script.extend([Op::Advance(2_001), Op::Advance(400)]);
        let (steps, core) = run_on_core(&script);
        let live = run_live(&steps);
        prop_assert_eq!(core, live);
    }
}
