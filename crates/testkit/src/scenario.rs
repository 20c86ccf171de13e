//! The chaos-scenario harness: a builder DSL that stands up the **real**
//! broker / coordinator / parameter-server / client stack on a virtual
//! clock, runs a scripted federation under a seeded fault plan, and
//! returns a reproducible [`ScenarioTrace`].
//!
//! Determinism model: wall-clock threads still race, but every *timed*
//! protocol transition (round deadlines, quorum grace, strike windows,
//! GC) fires only when the script steps the [`TestClock`], and the script
//! steps it only at observed synchronization points (`wait_for`) or
//! through the quiescence-aware [`ScenarioCtl::drive_to_completion`].
//! Scenario assertions and the trace hash therefore cover exactly the
//! protocol-level invariants that a correct implementation reproduces on
//! every run of the same seed — outcome sets, final state, evictions,
//! opted-in fault hit counts — while racy measurements (byte counts,
//! drive iterations) are recorded unhashed.

use crate::poll::wait_until;
use crate::trace::{ClientOutcome, ScenarioTrace};
use parking_lot::{Condvar, Mutex, RwLock};
use sdflmq_core::optimizer::{RoleOptimizer, StaticOrder};
use sdflmq_core::session::SessionState;
use sdflmq_core::{
    ClientId, Coordinator, CoordinatorConfig, CoreError, ModelId, ParamServer, PreferredRole,
    SdflmqClient, SdflmqClientConfig, SessionId, TestClock, Topology, UpdateCodec, WaitOutcome,
};
use sdflmq_mqtt::{
    Broker, BrokerConfig, Dialer, Durability, FaultHandle, FaultPlan, MqttError, Persistence,
};
use sdflmq_mqttfc::BatchConfig;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The broker slot shared between the script and every node's redial
/// closure. `None` while a [`ScenarioCtl::restart_broker`] has killed the
/// old process-equivalent and not yet started the new one.
type BrokerSlot = Arc<RwLock<Option<Broker>>>;

/// Distinguishes persistence directories across scenario runs in one
/// process (`assert_deterministic` executes every builder twice).
static DURABLE_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A dialer that connects through the shared broker slot, failing fast
/// (and letting the client back off and retry) while the slot is empty.
fn slot_dialer(slot: &BrokerSlot) -> Dialer {
    let slot = Arc::clone(slot);
    Arc::new(move || match slot.read().as_ref() {
        Some(broker) => broker.connect_transport(),
        None => Err(MqttError::Disconnected),
    })
}

/// How a scripted client behaves across rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Behavior {
    /// Trains every round until the session ends.
    Normal,
    /// Sends its contribution for the given round, then dies (drops its
    /// connection without waiting for the global).
    DieAfterSend(u32),
    /// Joins but never trains; only observes session events (used to
    /// test eviction delivery).
    Silent,
    /// Like `Normal`, but waits for [`ScenarioCtl::release_round`] before
    /// sending in each of the listed rounds — the script controls exactly
    /// when this client's contribution enters the network.
    Gated(Vec<u32>),
}

struct ClientSpec {
    id: String,
    behavior: Behavior,
    codec: UpdateCodec,
    value: f32,
}

/// Script-controlled gate: blocks a [`Behavior::Gated`] client's send
/// until the script releases that round.
struct RoundRelease {
    released: Mutex<HashSet<u32>>,
    cond: Condvar,
}

impl RoundRelease {
    fn new() -> Arc<RoundRelease> {
        Arc::new(RoundRelease {
            released: Mutex::new(HashSet::new()),
            cond: Condvar::new(),
        })
    }

    fn release(&self, round: u32) {
        self.released.lock().insert(round);
        self.cond.notify_all();
    }

    fn wait(&self, round: u32) {
        let mut guard = self.released.lock();
        while !guard.contains(&round) {
            self.cond.wait(&mut guard);
        }
    }
}

/// Builder for one chaos scenario. See the module docs for the
/// determinism model and `docs/TESTING.md` for the workflow.
pub struct ScenarioBuilder {
    name: String,
    seed: u64,
    rounds: u32,
    topology: Topology,
    quorum: f64,
    grace: Duration,
    round_timeout: Duration,
    max_missed_rounds: u32,
    session_time: Duration,
    role_ack_timeout: Duration,
    capacity_min: Option<usize>,
    model_len: usize,
    clients: Vec<ClientSpec>,
    fault_plan: Option<FaultPlan>,
    hashed_rules: Vec<String>,
    optimizer: fn() -> Box<dyn RoleOptimizer>,
    shards: usize,
    wait_timeout: Duration,
    durable: bool,
    durability: Option<Durability>,
    data_plane_threads: usize,
}

impl ScenarioBuilder {
    /// A scenario with sane defaults: central topology, quorum 1.0, no
    /// grace, generous virtual deadlines, [`StaticOrder`] placement (id
    /// order — deterministic), 2 rounds, 8-parameter model.
    pub fn new(name: impl Into<String>, seed: u64) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.into(),
            seed,
            rounds: 2,
            topology: Topology::Central,
            quorum: 1.0,
            grace: Duration::ZERO,
            round_timeout: Duration::from_secs(600),
            max_missed_rounds: 3,
            session_time: Duration::from_secs(36_000),
            role_ack_timeout: Duration::from_secs(5),
            capacity_min: None,
            model_len: 8,
            clients: Vec::new(),
            fault_plan: None,
            hashed_rules: Vec::new(),
            optimizer: || Box::new(StaticOrder),
            shards: 1,
            wait_timeout: Duration::from_secs(60),
            durable: false,
            durability: None,
            data_plane_threads: 0,
        }
    }

    /// Adds one client with an auto-assigned, zero-padded id (`c00`,
    /// `c01`, …) so id order equals join order. Its local model value is
    /// a small integer — FedAvg sums over integers are exact in `f64`, so
    /// the aggregated global is bit-stable regardless of arrival order.
    pub fn client(mut self, behavior: Behavior, codec: UpdateCodec) -> ScenarioBuilder {
        let i = self.clients.len();
        self.clients.push(ClientSpec {
            id: format!("c{i:02}"),
            behavior,
            codec,
            value: (i % 8) as f32 + 1.0,
        });
        self
    }

    /// Adds `n` [`Behavior::Normal`] clients.
    pub fn normal_clients(mut self, n: usize, codec: UpdateCodec) -> ScenarioBuilder {
        for _ in 0..n {
            self = self.client(Behavior::Normal, codec);
        }
        self
    }

    /// Overrides the most recently added client's local model value.
    /// Keep values small integers to preserve bit-exact aggregation.
    pub fn value(mut self, v: f32) -> ScenarioBuilder {
        self.clients.last_mut().expect("add a client first").value = v;
        self
    }

    /// Gives every client the same local value (used by large soaks so
    /// hierarchical two-level aggregation stays bit-exact too).
    pub fn uniform_value(mut self, v: f32) -> ScenarioBuilder {
        for c in &mut self.clients {
            c.value = v;
        }
        self
    }

    /// Number of FL rounds.
    pub fn rounds(mut self, rounds: u32) -> ScenarioBuilder {
        self.rounds = rounds;
        self
    }

    /// Cluster topology.
    pub fn topology(mut self, topology: Topology) -> ScenarioBuilder {
        self.topology = topology;
        self
    }

    /// Quorum fraction and grace (virtual) for round closure.
    pub fn quorum(mut self, quorum: f64, grace: Duration) -> ScenarioBuilder {
        self.quorum = quorum;
        self.grace = grace;
        self
    }

    /// Per-round deadline (virtual time) before straggler escalation.
    pub fn round_timeout(mut self, timeout: Duration) -> ScenarioBuilder {
        self.round_timeout = timeout;
        self
    }

    /// Consecutive missed strike windows before eviction.
    pub fn max_missed_rounds(mut self, n: u32) -> ScenarioBuilder {
        self.max_missed_rounds = n;
        self
    }

    /// Minimum contributors to keep the session alive (defaults to 1).
    pub fn capacity_min(mut self, n: usize) -> ScenarioBuilder {
        self.capacity_min = Some(n);
        self
    }

    /// Wall-clock budget for a `set_role` acknowledgement (relevant when
    /// a fault rule holds or reorders role pushes).
    pub fn role_ack_timeout(mut self, timeout: Duration) -> ScenarioBuilder {
        self.role_ack_timeout = timeout;
        self
    }

    /// Model parameter count per client.
    pub fn model_len(mut self, len: usize) -> ScenarioBuilder {
        self.model_len = len;
        self
    }

    /// Role-placement policy factory (defaults to [`StaticOrder`]). A
    /// factory, not a boxed instance, so the same builder closure can be
    /// run twice for the determinism gate.
    pub fn optimizer(mut self, factory: fn() -> Box<dyn RoleOptimizer>) -> ScenarioBuilder {
        self.optimizer = factory;
        self
    }

    /// Number of broker event-loop shards (default 1 — the fully
    /// deterministic mode). Multi-shard scenarios are for soak /
    /// observability coverage: outcome assertions hold, but trace hashes
    /// are not rerun-identical because cross-shard interleaving is real
    /// concurrency.
    pub fn shards(mut self, shards: usize) -> ScenarioBuilder {
        self.shards = shards;
        self
    }

    /// Data-plane worker threads per client (0 = the process-wide shared
    /// pool). Codecs and folds are bit-identical at every thread count,
    /// so pinned trace hashes must not move when this changes — that
    /// invariant is itself under test in the chaos suite.
    pub fn data_plane_threads(mut self, threads: usize) -> ScenarioBuilder {
        self.data_plane_threads = threads;
        self
    }

    /// Installs the broker fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> ScenarioBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// Marks a fault rule's hit count as part of the hashed trace. Only
    /// opt in rules whose count is forced by the scenario structure
    /// (finite windows the run provably exhausts) — unbounded rules
    /// (partitions) race with retries and belong in observability only.
    pub fn hash_rule(mut self, label: impl Into<String>) -> ScenarioBuilder {
        self.hashed_rules.push(label.into());
        self
    }

    /// Real-time budget for each scripted `wait_for` (default 60 s).
    pub fn wait_timeout(mut self, timeout: Duration) -> ScenarioBuilder {
        self.wait_timeout = timeout;
        self
    }

    /// Durable mode: the broker persists WAL + snapshots to a unique
    /// temporary directory (removed when the run ends), and every node —
    /// coordinator, parameter server, clients — connects with a
    /// persistent session plus a redial factory. This is the mode in
    /// which [`ScenarioCtl::restart_broker`] may kill and resurrect the
    /// broker mid-scenario.
    pub fn durable(mut self) -> ScenarioBuilder {
        self.durable = true;
        self
    }

    /// Overrides the fsync policy of durable mode (default
    /// [`Durability::OsCache`]). Implies [`ScenarioBuilder::durable`].
    /// Persistence timing never enters scenario traces, so any policy
    /// must reproduce the same golden hash.
    pub fn durability(mut self, durability: Durability) -> ScenarioBuilder {
        self.durable = true;
        self.durability = Some(durability);
        self
    }

    /// Stands the stack up, runs the federation with `script` driving
    /// virtual time and faults, joins every client, and assembles the
    /// trace. Panics (failing the test) if the fleet wedges.
    pub fn run<F: FnOnce(&mut ScenarioCtl)>(self, script: F) -> ScenarioTrace {
        assert!(!self.clients.is_empty(), "scenario needs clients");
        let clock = TestClock::new();
        // A unique persistence dir per *execution*, so the determinism
        // gate's two runs never see each other's WAL.
        let persist_dir: Option<PathBuf> = self.durable.then(|| {
            std::env::temp_dir().join(format!(
                "sdflmq-chaos-{}-{}-{}",
                self.name,
                std::process::id(),
                DURABLE_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });
        let broker_config = BrokerConfig {
            name: format!("{}-broker", self.name),
            fault_plan: self.fault_plan.clone(),
            shards: self.shards,
            persistence: match &persist_dir {
                Some(dir) => {
                    let mut p = Persistence::at(dir.clone());
                    if let Some(d) = self.durability {
                        p = p.durability(d);
                    }
                    p
                }
                None => Persistence::disabled(),
            },
            ..BrokerConfig::default()
        };
        let broker = Broker::start(broker_config.clone());
        let slot: BrokerSlot = Arc::new(RwLock::new(None));
        let dialer = || self.durable.then(|| slot_dialer(&slot));
        let coordinator = Coordinator::start(
            &broker,
            CoordinatorConfig {
                topology: self.topology.clone(),
                optimizer: (self.optimizer)(),
                round_timeout: self.round_timeout,
                quorum: self.quorum,
                grace: self.grace,
                max_missed_rounds: self.max_missed_rounds,
                role_ack_timeout: self.role_ack_timeout,
                // Long linger: the trace reads final membership after the
                // run; nothing should be GC'd under the test's feet.
                terminal_linger: Duration::from_secs(86_400),
                clock: clock.clone(),
                dialer: dialer(),
            },
        )
        .expect("start coordinator");
        let _ps = ParamServer::start_with_dialer(&broker, BatchConfig::default(), dialer())
            .expect("start param server");

        let session = SessionId::new(self.name.clone()).expect("scenario name is a valid id");
        let model = ModelId::new("chaos").unwrap();
        let fleet = self.clients.len();
        let all_ids: Vec<String> = self.clients.iter().map(|c| c.id.clone()).collect();

        let mut gates: HashMap<String, Arc<RoundRelease>> = HashMap::new();
        let mut connected = Vec::new();
        for (i, spec) in self.clients.iter().enumerate() {
            let client = SdflmqClient::connect(
                &broker,
                ClientId::new(spec.id.clone()).unwrap(),
                SdflmqClientConfig {
                    update_codec: spec.codec,
                    system_seed: self.seed ^ i as u64,
                    clock: clock.clone(),
                    dialer: dialer(),
                    data_plane_threads: self.data_plane_threads,
                    ..SdflmqClientConfig::default()
                },
            )
            .expect("connect client");
            if i == 0 {
                client
                    .create_fl_session(
                        &session,
                        &model,
                        self.session_time,
                        self.capacity_min.unwrap_or(1),
                        fleet,
                        // Waiting window is irrelevant: the session starts
                        // the moment the last client joins (capacity_max).
                        Duration::from_secs(3_600),
                        self.rounds,
                        PreferredRole::Any,
                        100,
                    )
                    .expect("create session");
            } else {
                client
                    .join_fl_session(&session, &model, PreferredRole::Any, 100)
                    .expect("join session");
            }
            if matches!(spec.behavior, Behavior::Gated(_)) {
                gates.insert(spec.id.clone(), RoundRelease::new());
            }
            connected.push(client);
        }
        // Every node is connected; publish the broker into the slot the
        // redial closures watch.
        *slot.write() = Some(broker);

        // One thread per client, each returning its outcome record.
        let mut threads = Vec::new();
        for (client, spec) in connected.into_iter().zip(&self.clients) {
            let session = session.clone();
            let behavior = spec.behavior.clone();
            let gate = gates.get(&spec.id).cloned();
            let value = spec.value;
            let model_len = self.model_len;
            let vtimeout = self.session_time * 4;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{}-{}", self.name, spec.id))
                    .spawn(move || {
                        run_behavior(client, session, behavior, gate, value, model_len, vtimeout)
                    })
                    .expect("spawn client thread"),
            );
        }

        let plan_handles: Vec<FaultHandle> = self
            .fault_plan
            .as_ref()
            .map(|plan| plan.rules().iter().map(|r| r.handle()).collect())
            .unwrap_or_default();

        let mut ctl = ScenarioCtl {
            clock: clock.clone(),
            coordinator: &coordinator,
            broker: Arc::clone(&slot),
            broker_config,
            // Coordinator + parameter server + every fleet client.
            expected_connections: fleet as u64 + 2,
            durable: self.durable,
            session: session.clone(),
            handles: plan_handles.clone(),
            gates,
            events: Vec::new(),
            drive_steps: 0,
            wait_timeout: self.wait_timeout,
        };
        script(&mut ctl);
        let events = std::mem::take(&mut ctl.events);
        let drive_steps = ctl.drive_steps;
        drop(ctl);

        // Every behavior thread must come to rest once the session is
        // terminal; a wedged thread is a harness or protocol bug.
        assert!(
            wait_until(Duration::from_secs(120), || threads
                .iter()
                .all(|t| t.is_finished())),
            "client threads did not finish after the script completed"
        );
        let mut outcomes: Vec<ClientOutcome> = threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect();
        outcomes.sort_by(|a, b| a.client.cmp(&b.client));

        let final_state = match coordinator.session_state(&session) {
            None => "gone".to_owned(),
            Some(SessionState::Waiting) => "waiting".to_owned(),
            Some(SessionState::Running { round, .. }) => format!("running:{round}"),
            Some(SessionState::Completed) => "completed".to_owned(),
            Some(SessionState::Aborted(reason)) => format!("aborted:{reason}"),
        };
        let mut survivors: Vec<String> = coordinator
            .session_members(&session)
            .map(|m| m.iter().map(|c| c.as_str().to_owned()).collect())
            .unwrap_or_default();
        survivors.sort();
        let survivor_set: HashSet<&String> = survivors.iter().collect();
        let evicted: Vec<String> = all_ids
            .iter()
            .filter(|id| !survivor_set.contains(id))
            .cloned()
            .collect();

        let rule_hits: Vec<(String, u64)> = self
            .hashed_rules
            .iter()
            .filter_map(|label| {
                plan_handles
                    .iter()
                    .find(|h| h.label() == label)
                    .map(|h| (label.clone(), h.hits()))
            })
            .collect();

        let stats = slot
            .read()
            .as_ref()
            .expect("broker present at scenario end")
            .stats();
        let mut observability = vec![
            ("publishes_in".to_owned(), stats.publishes_in),
            ("publishes_out".to_owned(), stats.publishes_out),
            ("payload_bytes_in".to_owned(), stats.payload_bytes_in),
            ("payload_bytes_out".to_owned(), stats.payload_bytes_out),
            ("faults_injected".to_owned(), stats.faults_injected),
            ("drive_steps".to_owned(), drive_steps),
            (
                "virtual_ms_elapsed".to_owned(),
                clock.elapsed().as_millis() as u64,
            ),
        ];
        for handle in &plan_handles {
            observability.push((format!("rule_hits.{}", handle.label()), handle.hits()));
        }

        let trace = ScenarioTrace {
            scenario: self.name,
            seed: self.seed,
            events,
            outcomes,
            final_state,
            evicted,
            survivors,
            rule_hits,
            observability,
        };
        let dir =
            std::env::var("SDFLMQ_CHAOS_TRACE_DIR").unwrap_or_else(|_| "target/chaos".to_owned());
        trace.write_artifact(std::path::Path::new(&dir));
        // Shut the broker down before deleting its persistence dir so no
        // shard thread appends to a removed WAL.
        drop(slot.write().take());
        if let Some(dir) = persist_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        trace
    }
}

/// The script's handle on a running scenario: step virtual time, toggle
/// faults, release held messages and gated clients, observe coordinator
/// state. Every mutation appends to the (hashed) event log.
pub struct ScenarioCtl<'a> {
    clock: Arc<TestClock>,
    coordinator: &'a Coordinator,
    broker: BrokerSlot,
    broker_config: BrokerConfig,
    expected_connections: u64,
    durable: bool,
    session: SessionId,
    handles: Vec<FaultHandle>,
    gates: HashMap<String, Arc<RoundRelease>>,
    events: Vec<String>,
    drive_steps: u64,
    wait_timeout: Duration,
}

impl ScenarioCtl<'_> {
    /// Steps virtual time forward (deadlines, grace windows, and strike
    /// accrual react; the coordinator is woken immediately).
    pub fn advance(&mut self, d: Duration) {
        self.events.push(format!("advance:{}ms", d.as_millis()));
        self.clock.advance(d);
    }

    /// Appends a free-form marker to the event log.
    pub fn note(&mut self, s: &str) {
        self.events.push(format!("note:{s}"));
    }

    /// Enables or disables the fault rule with `label` (partition
    /// open/heal).
    pub fn set_fault(&mut self, label: &str, active: bool) {
        self.events.push(format!("fault:{label}={active}"));
        self.handles
            .iter()
            .find(|h| h.label() == label)
            .unwrap_or_else(|| panic!("no fault rule labelled {label:?}"))
            .set_active(active);
    }

    /// Hit count of the fault rule with `label`.
    pub fn fault_hits(&self, label: &str) -> u64 {
        self.handles
            .iter()
            .find(|h| h.label() == label)
            .map(|h| h.hits())
            .unwrap_or(0)
    }

    /// Releases every delivery buffered by the `Hold` rule with `label`.
    pub fn release_held(&mut self, label: &str) {
        self.events.push(format!("release:{label}"));
        if let Some(broker) = self.broker.read().as_ref() {
            broker.release_held(label);
        }
    }

    /// Kills the broker process-equivalent and starts a fresh one over
    /// the same persistence directory, then waits (real time, bounded)
    /// for the whole fleet to redial. Only valid in
    /// [`ScenarioBuilder::durable`] mode — without persistence and
    /// redialing clients the fleet could never resume.
    ///
    /// What survives: WAL-persisted broker state (sessions, retained,
    /// QoS windows, offline queues) and the fault plan's rule state (hit
    /// counts, activation flags — they live in the plan the config
    /// clones). What dies with the process: in-flight deliveries and any
    /// messages a `Hold` rule had stashed, exactly like a real crash.
    pub fn restart_broker(&mut self) {
        assert!(
            self.durable,
            "restart_broker requires ScenarioBuilder::durable()"
        );
        self.events.push("restart-broker".to_owned());
        // Take the broker out of the slot first: redials that race the
        // restart see "unavailable" instead of dialing the dying broker.
        let old = self.broker.write().take();
        drop(old); // joins shard threads; all WAL appends are on disk
        let fresh = Broker::start(self.broker_config.clone());
        *self.broker.write() = Some(fresh);
        let expected = self.expected_connections;
        let reconnected = wait_until(self.wait_timeout, || {
            self.broker
                .read()
                .as_ref()
                .map(|b| b.stats().connections_current >= expected)
                .unwrap_or(false)
        });
        assert!(
            reconnected,
            "fleet did not reconnect after broker restart ({} expected)",
            expected
        );
    }

    /// Unblocks a [`Behavior::Gated`] client's send for `round`.
    pub fn release_round(&mut self, client: &str, round: u32) {
        self.events.push(format!("release_round:{client}:{round}"));
        self.gates
            .get(client)
            .unwrap_or_else(|| panic!("client {client:?} is not gated"))
            .release(round);
    }

    /// Blocks (real time, bounded) until `cond` holds; panics on timeout.
    /// `what` goes into the hashed event log, so name the condition, not
    /// the timing.
    pub fn wait_for(&mut self, what: &str, mut cond: impl FnMut(&ScenarioCtl) -> bool) {
        self.events.push(format!("wait:{what}"));
        let reached = wait_until(self.wait_timeout, || cond(self));
        assert!(
            reached,
            "scenario {:?}: condition not reached within {:?}: {what}",
            self.session.as_str(),
            self.wait_timeout
        );
    }

    /// Coordinator-side session state snapshot.
    pub fn state(&self) -> Option<SessionState> {
        self.coordinator.session_state(&self.session)
    }

    /// Current round, if running.
    pub fn round(&self) -> Option<u32> {
        match self.state() {
            Some(SessionState::Running { round, .. }) => Some(round),
            _ => None,
        }
    }

    /// Sorted ids of clients that reported the current round done.
    pub fn done(&self) -> Vec<String> {
        match self.state() {
            Some(SessionState::Running { done, .. }) => {
                let mut v: Vec<String> = done.iter().map(|c| c.as_str().to_owned()).collect();
                v.sort();
                v
            }
            _ => Vec::new(),
        }
    }

    /// Sorted ids of clients that pinged a contribution this round (in
    /// the current strike window).
    pub fn contributed(&self) -> Vec<String> {
        match self.state() {
            Some(SessionState::Running { contributed, .. }) => {
                let mut v: Vec<String> =
                    contributed.iter().map(|c| c.as_str().to_owned()).collect();
                v.sort();
                v
            }
            _ => Vec::new(),
        }
    }

    /// True once the session is `Completed`, `Aborted`, or GC'd.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self.state(),
            None | Some(SessionState::Completed) | Some(SessionState::Aborted(_))
        )
    }

    /// Repeatedly lets the fleet settle (broker quiescent in wall time),
    /// then steps virtual time by `step`, until the session reaches a
    /// terminal state. The event log records one entry regardless of how
    /// many steps were needed (step counts are wall-clock-sensitive and
    /// land in observability instead).
    pub fn drive_to_completion(&mut self, step: Duration) {
        self.events.push(format!("drive:{}ms", step.as_millis()));
        for _ in 0..400 {
            if self.settle() {
                return;
            }
            self.clock.advance(step);
            self.drive_steps += 1;
        }
        panic!(
            "scenario {:?} did not reach a terminal state while driving",
            self.session.as_str()
        );
    }

    /// Waits (bounded) until the broker has been quiet for two
    /// consecutive windows or the session went terminal. Returns whether
    /// the session is terminal.
    fn settle(&self) -> bool {
        let publishes_out = || {
            self.broker
                .read()
                .as_ref()
                .map(|b| b.stats().publishes_out)
                .unwrap_or(0)
        };
        let mut last = publishes_out();
        let mut quiet = 0;
        for _ in 0..100 {
            if self.is_terminal() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(40));
            let now = publishes_out();
            if now == last {
                quiet += 1;
                if quiet >= 2 {
                    break;
                }
            } else {
                quiet = 0;
            }
            last = now;
        }
        self.is_terminal()
    }
}

/// One client's scripted life. Returns its outcome record; dropping the
/// `SdflmqClient` on exit is the "device disconnects" signal for
/// death-scripted behaviors.
fn run_behavior(
    client: SdflmqClient,
    session: SessionId,
    behavior: Behavior,
    gate: Option<Arc<RoundRelease>>,
    value: f32,
    model_len: usize,
    vtimeout: Duration,
) -> ClientOutcome {
    let id = client.id().as_str().to_owned();
    let local = vec![value; model_len];
    let mut rounds = 0u32;
    let outcome = loop {
        if behavior == Behavior::Silent {
            match client.wait_global_update(&session, vtimeout) {
                Ok(WaitOutcome::NextRound(_)) => continue,
                Ok(WaitOutcome::Completed) => break "completed".to_owned(),
                Ok(WaitOutcome::Evicted) => break "evicted".to_owned(),
                Err(CoreError::UnknownSession(_)) => break "evicted".to_owned(),
                Err(CoreError::Aborted(reason)) => break format!("aborted:{reason}"),
                Err(CoreError::Timeout) => break "timeout".to_owned(),
                Err(e) => break format!("error:{e}"),
            }
        }
        let upcoming = rounds + 1;
        if let (Behavior::Gated(gated), Some(gate)) = (&behavior, &gate) {
            if gated.contains(&upcoming) {
                gate.wait(upcoming);
            }
        }
        if let Err(e) = client.set_model(&session, &local) {
            break format!("error:{e}");
        }
        match client.send_local(&session) {
            Ok(()) => {}
            Err(CoreError::UnknownSession(_)) => break "evicted".to_owned(),
            Err(CoreError::Aborted(reason)) => break format!("aborted:{reason}"),
            Err(e) => break format!("error:{e}"),
        }
        if matches!(behavior, Behavior::DieAfterSend(r) if r == upcoming) {
            break "died".to_owned();
        }
        match client.wait_global_update(&session, vtimeout) {
            Ok(WaitOutcome::NextRound(_)) => {
                rounds += 1;
            }
            Ok(WaitOutcome::Completed) => {
                rounds += 1;
                // Stamp the final global's first parameter bit-exactly:
                // integer-valued locals make FedAvg order-independent, so
                // this is a hashed correctness witness.
                let bits = client
                    .model_params(&session)
                    .ok()
                    .and_then(|p| p.first().copied())
                    .map(|v| format!(":g={:08x}", v.to_bits()))
                    .unwrap_or_default();
                break format!("completed{bits}");
            }
            Ok(WaitOutcome::Evicted) => break "evicted".to_owned(),
            Err(CoreError::UnknownSession(_)) => break "evicted".to_owned(),
            Err(CoreError::Aborted(reason)) => break format!("aborted:{reason}"),
            Err(CoreError::Timeout) => break "timeout".to_owned(),
            Err(e) => break format!("error:{e}"),
        }
    };
    let stats = client.data_plane_stats();
    ClientOutcome {
        client: id,
        rounds,
        outcome,
        dropped_transfers: stats.dropped_transfers,
        undecodable_updates: stats.undecodable_updates,
    }
}
