//! The embedded MQTT broker: a sharded, snapshot-routed core.
//!
//! Architecture: the broker runs **N parallel shard event loops**
//! ([`BrokerConfig::shards`]), each a readiness-driven reactor (see
//! [`crate::reactor`]): one nonblocking poll loop per shard multiplexes
//! every connection the shard owns — accept handoff, frame decode, CONNECT
//! gating, keep-alive deadlines, fault-delay timers, and vectored TCP
//! writes with per-connection write backpressure — so broker-side thread
//! count is O(shards), never O(connections). A new connection parks on a
//! provisional shard until its CONNECT arrives; the client id is hashed
//! and the connection migrates to its owner shard. A shard therefore owns
//! a disjoint partition of connections — their keep-alive deadlines,
//! offline queues, and QoS 1/2 inflight windows — and two shards never
//! share session state.
//!
//! Routing state (subscription trie, retained store, client route table)
//! lives outside the shards in a [`crate::index::SharedIndex`]:
//! subscribes, unsubscribes, connects and retained writes funnel through
//! its single writer, which publishes generation-swapped **read-only
//! snapshots**. Any shard routes a publish by loading the current snapshot
//! — no lock is held while matching — and delivers:
//!
//! * QoS 0 to a live subscriber: the frame is encoded **once** per
//!   outgoing (QoS, retain) variant and the same frame — a small head
//!   plus the publisher's payload `Bytes` as its body — is pushed
//!   straight into every subscriber's
//!   [`FrameSender`](crate::transport::FrameSender), regardless of which
//!   shard owns the subscriber;
//! * QoS 1/2, or any delivery to an offline session: the message hops to
//!   the owner shard's mailbox (the owner must allocate the packet id
//!   against the session, or queue the message). Same-shard deliveries
//!   skip the hop and stamp packet ids into a shared pre-encoded template.
//!
//! Fan-out order is **sorted by client id** at every shard count, so
//! delivery order — and which deliveries fall inside fault-rule
//! `skip`/`take` windows — is reproducible run to run. With `shards = 1`
//! the broker degenerates to the fully deterministic single-loop mode the
//! chaos harness relies on: one thread performs every route, fault
//! evaluation, and delivery in a fixed order.
//!
//! Keep-alive expiry and fault-delay timers are deadline-driven: each
//! shard parks in its poller until the earliest keep-alive deadline or
//! timer-heap entry (or forever when none is armed) instead of polling on
//! a tick, so an idle broker sleeps completely and a stalled loop can
//! never accumulate a backlog of tick events.
//!
//! TCP connections ([`Broker::listen`]) are fully nonblocking: reads
//! accumulate into a per-connection buffer until whole frames decode, and
//! writes queue into a per-connection outbound buffer flushed with
//! vectored writes when the socket is writable. A subscriber whose
//! outbound queue exceeds the high-water mark
//! ([`BrokerConfig::tcp_write_hwm`]) is evicted as a slow consumer — an
//! ungraceful close, so its last will fires.
//!
//! Bridge connections (client ids beginning with [`BRIDGE_PREFIX`]) receive
//! special treatment: messages they publish are never echoed back to them,
//! which is the loop-prevention rule that makes acyclic broker bridging safe
//! (see [`crate::bridge`]).
//!
//! # Module map
//!
//! * `proto` / `packets` / `route` — `ShardProto`, the protocol core:
//!   sessions, QoS windows, wills, keep-alive deadlines, fault timers, routing and the WAL hook. It does no I/O and
//!   never reads the clock — every entry point is handed `now` — and
//!   reaches the outside only through `FrameSender`s, shard mailboxes
//!   and the [`PersistStore`].
//! * `shard` — the reactor glue: poller, wake pipe, mailbox loop, the one
//!   CONNECT gate and the timer park. It owns every transport and is the
//!   only caller of `Instant::now()`.
//! * `conn` — `Transport`: the broker-side half of one
//!   connection, an in-process link or a nonblocking TCP socket.

mod conn;
mod packets;
mod proto;
#[cfg(test)]
mod proto_tests;
mod route;
mod shard;
#[cfg(test)]
mod tests;

use crate::codec::Frame;
use crate::error::{MqttError, Result};
use crate::fault::FaultPlan;
use crate::index::{ClientKey, SharedIndex};
use crate::packet::*;
use crate::persist::{PersistStore, Persistence};
use crate::reactor::{waker, WakeHandle, WriteScheduler};
use crate::session::Session;
use crate::stats::{BrokerCounters, BrokerStatsSnapshot};
use crate::topic::TopicName;
use crate::transport::{link, LinkEnd};
use bytes::Bytes;
use conn::{TcpConn, Transport};
use crossbeam::channel::{unbounded, Sender};
use shard::Shard;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Client-id prefix identifying bridge connections.
pub const BRIDGE_PREFIX: &str = "$bridge/";

/// Broker configuration.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Human-readable broker name (used in traces and bridge ids).
    pub name: String,
    /// Cap on per-session offline message queues.
    pub max_queued_per_session: usize,
    /// Number of parallel event-loop shards. Connections are partitioned
    /// by a stable hash of the client id. `1` (the default) is the fully
    /// deterministic single-loop mode used by the chaos harness.
    pub shards: usize,
    /// Optional fault-injection plan applied to every delivery (chaos
    /// testing; see [`crate::fault`]). `None` delivers everything.
    pub fault_plan: Option<FaultPlan>,
    /// WAL + snapshot persistence (see [`crate::persist`]). The default,
    /// [`Persistence::disabled`], keeps the broker purely in-memory.
    pub persistence: Persistence,
    /// Per-TCP-connection outbound buffer high-water mark in bytes. A
    /// subscriber whose unflushed outbound queue exceeds this is evicted
    /// as a slow consumer (ungraceful close: its last will fires).
    pub tcp_write_hwm: usize,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            name: "broker".to_owned(),
            max_queued_per_session: 1024,
            shards: 1,
            fault_plan: None,
            persistence: Persistence::disabled(),
            tcp_write_hwm: 16 * 1024 * 1024,
        }
    }
}

/// Unique id of one transport connection.
pub type ConnId = u64;

/// Stable FNV-1a shard assignment for a client id. Identical ids always
/// land on the same shard, so session takeover is shard-local.
pub(crate) fn shard_of(client_id: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (crate::fnv1a64(client_id.as_bytes()) % shards as u64) as usize
}

/// A routed message on its way to one subscriber. Crosses shard mailboxes
/// for QoS>0 / offline deliveries whose session lives on another shard.
#[derive(Debug, Clone)]
struct Delivery {
    key: ClientKey,
    topic: TopicName,
    payload: Bytes,
    qos: QoS,
    retain: bool,
}

enum Event {
    /// A fresh connection lands on its provisional home shard
    /// (`conn % shards`), which gates it until the CONNECT arrives.
    Attach {
        conn: ConnId,
        transport: Transport,
    },
    /// A link produced at least one frame (or hung up); the owning shard
    /// drains one frame per notify. TCP sockets report through the poller
    /// instead.
    Notify(ConnId),
    /// A gated connection saw its CONNECT on the home shard and moves to
    /// the owner shard (`rest` is any pipelined bytes that shared a frame
    /// with the CONNECT; a TCP transport also carries its read buffer and
    /// outbound queue).
    Migrate {
        conn: ConnId,
        transport: Transport,
        connect: Box<Connect>,
        rest: Frame,
    },
    ConnClosed(ConnId),
    /// Cross-shard delivery hops, coalesced per target shard (the fault
    /// plan was already evaluated by the routing shard). A routing shard
    /// drains its mailbox, buffers every hop, and sends one batch per
    /// target shard per burst instead of one event per delivery.
    Deliver(Vec<Delivery>),
    /// Release the deliveries a `Hold` fault rule buffered.
    ReleaseHeld(String),
    /// Force a compacted snapshot of this shard's persisted state; `ack`
    /// is signalled when it is on disk.
    Snapshot {
        ack: Sender<()>,
    },
    Shutdown,
}

/// Mailbox + reactor waker for one shard: sending an event also wakes the
/// shard out of its poller so the mailbox is drained promptly.
#[derive(Clone)]
struct ShardHandle {
    tx: Sender<Event>,
    wake: WakeHandle,
    /// The flush queue sockets owned by this shard schedule with.
    write_sched: Arc<WriteScheduler>,
}

impl ShardHandle {
    fn new(tx: Sender<Event>, wake: WakeHandle) -> ShardHandle {
        let write_sched = Arc::new(WriteScheduler::new(wake.clone()));
        ShardHandle {
            tx,
            wake,
            write_sched,
        }
    }
}

impl ShardHandle {
    fn send(&self, event: Event) -> bool {
        if self.tx.send(event).is_err() {
            return false;
        }
        self.wake.wake();
        true
    }
}

/// One TCP listener: its accept thread, bound address, and stop flag.
struct ListenerState {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    handle: JoinHandle<()>,
}

/// A running broker. Dropping the handle shuts the broker down.
pub struct Broker {
    handles: Vec<ShardHandle>,
    counters: Arc<BrokerCounters>,
    index: Arc<SharedIndex>,
    name: String,
    next_conn: Arc<AtomicU64>,
    loop_handles: Vec<JoinHandle<()>>,
    listeners: Mutex<Vec<ListenerState>>,
    persist: Option<Arc<PersistStore>>,
    /// Slow-consumer watermark every accepted socket is built with.
    tcp_write_hwm: u64,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("name", &self.name)
            .field("shards", &self.handles.len())
            .finish()
    }
}

impl Broker {
    /// Starts a broker with the default configuration (one shard).
    pub fn start_default() -> Broker {
        Broker::start(BrokerConfig::default())
    }

    /// Starts a broker with the given configuration, spawning one event
    /// loop thread per shard.
    ///
    /// With persistence configured, startup first replays snapshot + WAL:
    /// persistent sessions (subscriptions, offline queues, QoS windows)
    /// are rebuilt on their owner shards and re-registered offline in the
    /// routing index, retained messages are re-seeded, and wills left by
    /// connections that died with the previous process are fired by each
    /// shard before it processes its first event.
    pub fn start(config: BrokerConfig) -> Broker {
        let shards = config.shards.max(1);
        let counters = Arc::new(BrokerCounters::default());
        let index = Arc::new(SharedIndex::new());
        let name = config.name.clone();

        // Fault-rule hit counters are registered once per broker (the
        // counters live in the rules and are shared by every shard).
        if let Some(plan) = &config.fault_plan {
            for rule in plan.rules() {
                counters.register_fault_rule(rule.label().to_owned(), rule.hits_handle());
            }
        }

        // Recovery: replay snapshot + WAL, then seed the routing index and
        // distribute sessions/wills to their owner shards. A store that
        // fails to open degrades to in-memory operation.
        let mut shard_sessions: Vec<HashMap<String, Session>> =
            (0..shards).map(|_| HashMap::new()).collect();
        let mut shard_wills: Vec<Vec<(String, LastWill)>> =
            (0..shards).map(|_| Vec::new()).collect();
        let mut persist = None;
        if let Some(dir) = &config.persistence.dir {
            if let Ok((store, state)) = PersistStore::open(
                dir,
                shards,
                &config.persistence,
                config.max_queued_per_session,
                Arc::clone(&counters),
            ) {
                let store = Arc::new(store);
                // Seed retained state *before* installing the WAL hook so
                // the replayed messages are not logged again.
                for (topic, (qos, payload)) in &state.retained {
                    index.apply_retained(&Publish {
                        dup: false,
                        qos: *qos,
                        retain: true,
                        topic: topic.clone(),
                        packet_id: None,
                        payload: payload.clone(),
                    });
                    BrokerCounters::bump(&counters.retained_current);
                    BrokerCounters::bump(&counters.recovered_retained);
                }
                index.set_retained_log(Arc::clone(&store));
                // Re-register every recovered session offline (routable
                // before its client reconnects) and restore subscriptions.
                for (client, session) in state.sessions {
                    let shard = shard_of(&client, shards);
                    let key = index.register_offline(&client, shard);
                    for (filter, qos) in &session.subscriptions {
                        if index.subscribe(filter, key, *qos) {
                            BrokerCounters::bump(&counters.subscriptions_current);
                        }
                    }
                    BrokerCounters::bump(&counters.sessions_current);
                    BrokerCounters::add(&counters.queued_current, session.queued.len() as u64);
                    BrokerCounters::bump(&counters.recovered_sessions);
                    shard_sessions[shard].insert(client, session);
                }
                // Wills of sessions that died with the process fire during
                // shard startup (BTreeMap order: sorted by client id).
                for (client, will) in state.wills {
                    shard_wills[shard_of(&client, shards)].push((client, will));
                }
                persist = Some(store);
            }
        }

        // Per-shard mailboxes first: every shard holds every handle.
        let mut handles = Vec::with_capacity(shards);
        let mut mailboxes = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = unbounded();
            let (wake, wake_rx) = waker().expect("create shard waker");
            handles.push(ShardHandle::new(tx, wake));
            mailboxes.push((rx, wake_rx));
        }

        let mut loop_handles = Vec::with_capacity(shards);
        let recovered = shard_sessions.into_iter().zip(shard_wills);
        for (shard, ((rx, wake_rx), (sessions, wills))) in
            mailboxes.into_iter().zip(recovered).enumerate()
        {
            let mut shard_loop = Shard::new(
                shard,
                &config,
                &counters,
                &index,
                handles.clone(),
                wake_rx,
                persist.clone(),
            );
            loop_handles.push(
                std::thread::Builder::new()
                    .name(format!("{name}-shard-{shard}"))
                    .spawn(move || shard_loop.run(rx, sessions, wills))
                    .expect("spawn broker shard"),
            );
        }

        Broker {
            handles,
            counters,
            index,
            name,
            next_conn: Arc::new(AtomicU64::new(1)),
            loop_handles,
            listeners: Mutex::new(Vec::new()),
            persist,
            tcp_write_hwm: config.tcp_write_hwm as u64,
        }
    }

    /// The broker's configured name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of event-loop shards.
    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// Current generation of the routing-index snapshot (bumps on every
    /// subscription / connection / retained mutation).
    pub fn index_generation(&self) -> u64 {
        self.index.load().generation
    }

    /// Opens a new transport connection to this broker and returns the
    /// client-side link end. The caller then speaks MQTT over it (or hands
    /// it to [`crate::client::Client`]).
    pub fn connect_transport(&self) -> Result<LinkEnd> {
        let (client_end, broker_end) = link();
        self.attach(broker_end)?;
        Ok(client_end)
    }

    /// Hands the broker side of an in-process link to its provisional
    /// home shard — no thread is spawned; the link's incoming-frame hook
    /// nudges whichever shard currently owns the connection. Fails with
    /// [`MqttError::BrokerUnavailable`] when any shard loop has exited
    /// (shutdown in progress or a crashed shard).
    fn attach(&self, end: LinkEnd) -> Result<()> {
        if self.loop_handles.iter().any(JoinHandle::is_finished) {
            return Err(MqttError::BrokerUnavailable);
        }
        let conn_id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        BrokerCounters::bump(&self.counters.connections_total);
        BrokerCounters::bump(&self.counters.connections_current);
        let home = (conn_id % self.handles.len() as u64) as usize;
        let target = Arc::new(AtomicUsize::new(home));
        // Install the notify hook *before* splitting: every frame the
        // client sends from here on nudges the shard that owns the
        // connection (the home shard retargets on migration).
        let hook_target = Arc::clone(&target);
        let hook_handles = self.handles.clone();
        end.set_incoming_notify(Arc::new(move || {
            let shard = hook_target.load(Ordering::Acquire);
            hook_handles[shard].send(Event::Notify(conn_id));
        }));
        let (tx, rx) = end.split();
        let transport = Transport::Link { rx, tx, target };
        if !self.handles[home].send(Event::Attach {
            conn: conn_id,
            transport,
        }) {
            self.counters
                .connections_current
                .fetch_sub(1, Ordering::Relaxed);
            return Err(MqttError::BrokerUnavailable);
        }
        Ok(())
    }

    /// Binds a TCP listener and starts accepting real socket connections.
    /// Returns the bound address (useful with port `0`). The accept thread
    /// is the only per-listener thread; accepted sockets are handed to the
    /// shard reactors, so broker thread count stays O(shards) no matter
    /// how many clients connect.
    pub fn listen(&self, addr: impl ToSocketAddrs) -> Result<SocketAddr> {
        let listener = TcpListener::bind(addr).map_err(|_| MqttError::BrokerUnavailable)?;
        let local = listener
            .local_addr()
            .map_err(|_| MqttError::BrokerUnavailable)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let handles = self.handles.clone();
        let counters = Arc::clone(&self.counters);
        let next_conn = Arc::clone(&self.next_conn);
        let hwm = self.tcp_write_hwm;
        let handle = std::thread::Builder::new()
            .name(format!("{}-accept", self.name))
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let conn = next_conn.fetch_add(1, Ordering::Relaxed);
                    let home = (conn % handles.len() as u64) as usize;
                    let sched = Arc::clone(&handles[home].write_sched);
                    let Ok(tcp) = TcpConn::new(conn, stream, hwm, sched) else {
                        continue;
                    };
                    BrokerCounters::bump(&counters.connections_total);
                    BrokerCounters::bump(&counters.connections_current);
                    let transport = Transport::Tcp(tcp);
                    if !handles[home].send(Event::Attach { conn, transport }) {
                        counters.connections_current.fetch_sub(1, Ordering::Relaxed);
                        break;
                    }
                }
            })
            .expect("spawn acceptor");
        self.listeners
            .lock()
            .expect("listener registry lock")
            .push(ListenerState {
                stop,
                addr: local,
                handle,
            });
        Ok(local)
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> BrokerStatsSnapshot {
        self.counters.snapshot()
    }

    /// Releases every delivery buffered by the `Hold` fault rule with
    /// `label` (see [`crate::fault::FaultAction::Hold`]). A no-op when no
    /// such rule exists or nothing is held. Broadcast to every shard: each
    /// shard releases the deliveries it stashed.
    pub fn release_held(&self, label: &str) {
        for h in &self.handles {
            h.send(Event::ReleaseHeld(label.to_owned()));
        }
    }

    /// Per-fault-rule hit counts, labelled. Empty without a fault plan.
    pub fn fault_hits(&self) -> Vec<(String, u64)> {
        self.counters.fault_hits()
    }

    /// Forces a compacted snapshot of every shard's persisted session
    /// state and of the retained store, blocking until all are on disk.
    /// A no-op without persistence.
    pub fn snapshot_now(&self) {
        if self.persist.is_none() {
            return;
        }
        let (ack, done) = unbounded();
        let mut sent = 0;
        for h in &self.handles {
            if h.send(Event::Snapshot { ack: ack.clone() }) {
                sent += 1;
            }
        }
        drop(ack);
        for _ in 0..sent {
            if done.recv().is_err() {
                break;
            }
        }
        if let Some(store) = &self.persist {
            store.compact_retained(&self.index.load().retained);
            // Drain barrier: the write-behind queues must be fully
            // flushed before callers may read the directory.
            store.drain();
        }
    }

    /// Requests shutdown and waits for every shard thread to finish.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Stop acceptors first: set the flag, then poke each listener with
        // a throwaway connection so the blocking accept observes it.
        let listeners =
            std::mem::take(&mut *self.listeners.lock().expect("listener registry lock"));
        for l in &listeners {
            l.stop.store(true, Ordering::Release);
            let _ = TcpStream::connect(l.addr);
        }
        for l in listeners {
            let _ = l.handle.join();
        }
        for h in &self.handles {
            h.send(Event::Shutdown);
        }
        for h in self.loop_handles.drain(..) {
            let _ = h.join();
        }
        // Shards are gone: flush the write-behind queues and stop the
        // persistence thread so a dropped broker leaves every accepted
        // WAL record on disk (restart tests rely on this).
        if let Some(store) = &self.persist {
            store.shutdown();
        }
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.stop();
    }
}
