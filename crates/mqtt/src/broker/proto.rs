//! The protocol core of one shard: MQTT session and QoS state with no I/O.
//!
//! A [`ShardProto`] owns a disjoint partition of the broker's clients —
//! their connections' metadata, sessions, QoS 1/2 windows, wills and
//! keep-alive deadlines — plus the shard's fault timers. It never touches
//! a socket or a poller and never reads the clock: every entry point is
//! handed `now`, and the only ways out are a connection's
//! [`FrameSender`], the shard mailboxes and the [`PersistStore`]. That
//! makes it drivable in a test with [`crate::transport::link`] ends and no
//! thread, which is how the protocol rules are pinned (`proto_tests`).
//!
//! The reactor glue (`shard`) calls in, then releases the transports of
//! whatever connections the call closed ([`ShardProto::closed`]).
//! Packet handlers live in `packets`, routing and fan-out in `route`.

use super::route::TimerEntry;
use super::{BrokerConfig, ConnId, Delivery, ShardHandle, BRIDGE_PREFIX};
use crate::codec::{self, Frame};
use crate::error::ConnectReturnCode;
use crate::fault::FaultState;
use crate::index::{ClientKey, SharedIndex};
use crate::packet::*;
use crate::persist::{recovery, PersistStore, WalRecord};
use crate::session::{InflightOut, Session};
use crate::stats::BrokerCounters;
use crate::transport::FrameSender;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a connection may stay silent: the spec's one and a half times
/// its keep-alive interval.
fn keepalive_limit(keep_alive: u16) -> Duration {
    Duration::from_millis(u64::from(keep_alive) * 1500)
}

/// The PUBLISH a last will turns into when it fires.
fn will_publish(will: LastWill) -> Publish {
    Publish {
        dup: false,
        qos: will.qos,
        retain: will.retain,
        topic: will.topic,
        packet_id: None,
        payload: will.payload,
    }
}

pub(super) struct ConnState {
    pub(super) sender: FrameSender,
    pub(super) client_id: String,
    pub(super) key: ClientKey,
    pub(super) is_bridge: bool,
    keep_alive: u16,
    pub(super) last_activity: Instant,
    pub(super) will: Option<LastWill>,
    pub(super) graceful: bool,
    /// True while a will registration is WAL-logged for this connection;
    /// discharged (WillClear) when the will fires or is suppressed.
    will_registered: bool,
}

impl ConnState {
    fn deadline(&self) -> Option<Instant> {
        (self.keep_alive > 0).then(|| self.last_activity + keepalive_limit(self.keep_alive))
    }
}

/// One shard's protocol state: its partition of connections and sessions,
/// plus shared handles to the routing index, the counters, and every
/// shard's mailbox.
pub(super) struct ShardProto {
    pub(super) shard: usize,
    max_queued_per_session: usize,
    pub(super) counters: Arc<BrokerCounters>,
    pub(super) index: Arc<SharedIndex>,
    pub(super) handles: Vec<ShardHandle>,
    /// The clock reading the current entry point was handed.
    pub(super) now: Instant,
    pub(super) conns: HashMap<ConnId, ConnState>,
    /// Connections torn down since the glue last looked; it releases
    /// their transports after each call.
    pub(super) closed: Vec<ConnId>,
    /// Armed fault-delay timers, earliest first.
    pub(super) timers: BinaryHeap<Reverse<TimerEntry>>,
    pub(super) timer_seq: u64,
    /// client id → live connection (this shard's clients only).
    pub(super) by_client: HashMap<String, ConnId>,
    /// client id → session (connected and parked; this shard's only).
    pub(super) sessions: HashMap<String, Session>,
    /// Fault-injection engine; per-shard runtime over shared rule state.
    pub(super) faults: Option<FaultState>,
    /// Cached earliest keep-alive deadline. Never *later* than the true
    /// earliest deadline: activity only pushes deadlines back (an early
    /// wake is a cheap no-op that recomputes), registrations fold in via
    /// `min`, and closes can only remove deadlines. Avoids an O(conns)
    /// scan per event-loop iteration.
    keepalive_deadline: Option<Instant>,
    /// Durable store handle (`None` = in-memory broker).
    persist: Option<Arc<PersistStore>>,
    /// Cross-shard hops buffered during the current mailbox burst, one
    /// bucket per target shard; flushed as a single `Deliver` batch per
    /// shard when the mailbox drains.
    pub(super) pending_hops: Vec<Vec<Delivery>>,
}

impl ShardProto {
    pub(super) fn new(
        shard: usize,
        config: &BrokerConfig,
        counters: &Arc<BrokerCounters>,
        index: &Arc<SharedIndex>,
        handles: Vec<ShardHandle>,
        persist: Option<Arc<PersistStore>>,
        now: Instant,
    ) -> ShardProto {
        let shards = handles.len();
        ShardProto {
            shard,
            max_queued_per_session: config.max_queued_per_session,
            counters: Arc::clone(counters),
            index: Arc::clone(index),
            handles,
            now,
            conns: HashMap::new(),
            closed: Vec::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            by_client: HashMap::new(),
            sessions: HashMap::new(),
            faults: config
                .fault_plan
                .as_ref()
                .map(|plan| FaultState::new(plan, shard as u64)),
            keepalive_deadline: None,
            persist,
            pending_hops: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    /// Installs the sessions recovery rebuilt for this shard and fires the
    /// wills of connections that died with the previous process (sorted by
    /// client id; each passes the fault plan via `route`, so chaos rules
    /// apply to testament publishes too).
    pub(super) fn adopt_recovered(
        &mut self,
        sessions: HashMap<String, Session>,
        wills: Vec<(String, LastWill)>,
        now: Instant,
    ) {
        self.now = now;
        self.sessions = sessions;
        for (client, will) in wills {
            self.route(&will_publish(will), 0, false, Some(&client));
        }
        self.flush_hops();
    }

    /// True while `conn` is registered (CONNECT accepted, not yet closed).
    pub(super) fn has_conn(&self, conn: ConnId) -> bool {
        self.conns.contains_key(&conn)
    }

    /// Forgets every connection without protocol teardown (shutdown: the
    /// dropped senders are how clients observe the broker going away).
    pub(super) fn drop_connections(&mut self) {
        self.conns.clear();
    }

    /// Decodes and handles every packet in one frame. Stops early when a
    /// packet closes the connection; undecodable bytes close it too.
    pub(super) fn on_frame(&mut self, conn: ConnId, mut frame: Frame, now: Instant) {
        self.now = now;
        loop {
            let Ok(packet) = codec::decode_frame(&mut frame) else {
                self.close_conn(conn);
                return;
            };
            self.on_packet(conn, packet);
            if !self.conns.contains_key(&conn) || frame.is_empty() {
                return;
            }
        }
    }

    /// The transport hung up, or another shard asked for the connection
    /// to be severed: an ungraceful close unless DISCONNECT came first.
    pub(super) fn on_conn_closed(&mut self, conn: ConnId, now: Instant) {
        self.now = now;
        self.close_conn(conn);
    }

    /// The earliest instant the shard must wake for: a keep-alive expiry
    /// or a fault-delay timer. `None` parks it until the next event.
    pub(super) fn next_deadline(&self) -> Option<Instant> {
        let timer = self.timers.peek().map(|Reverse(t)| t.at);
        match (self.keepalive_deadline, timer) {
            (Some(k), Some(t)) => Some(k.min(t)),
            (k, t) => k.or(t),
        }
    }

    /// Enqueues one record for this shard's WAL stream (the persistence
    /// thread does the disk I/O), compacting the stream when it outgrows
    /// the snapshot threshold. No-op without persistence.
    pub(super) fn log_wal(&mut self, rec: WalRecord) {
        let Some(store) = self.persist.as_ref().map(Arc::clone) else {
            return;
        };
        if store.append_shard(self.shard, rec) {
            self.compact_now();
        }
    }

    /// Serializes this shard's persisted state — every persistent
    /// session plus the wills of live connections, in sorted client-id
    /// order — and hands it to the persistence thread, which writes the
    /// compacted snapshot off the shard hot path.
    pub(super) fn compact_now(&mut self) {
        let Some(store) = self.persist.as_ref().map(Arc::clone) else {
            return;
        };
        let mut records = Vec::new();
        let mut persistent: Vec<&Session> = self.sessions.values().filter(|s| !s.clean).collect();
        persistent.sort_unstable_by(|a, b| a.client_id.cmp(&b.client_id));
        for session in persistent {
            recovery::session_records(session, &mut records);
        }
        let mut wills: Vec<(&String, &LastWill)> = self
            .conns
            .values()
            .filter(|c| c.will_registered)
            .filter_map(|c| c.will.as_ref().map(|w| (&c.client_id, w)))
            .collect();
        wills.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (client, will) in wills {
            records.push(WalRecord::WillSet {
                client: client.clone(),
                will: will.clone(),
            });
        }
        store.compact_shard(self.shard, records);
    }

    /// True when `client` owns a persistent (WAL-logged) session.
    pub(super) fn is_persistent(&self, client: &str) -> bool {
        self.sessions.get(client).is_some_and(|s| !s.clean)
    }

    /// Closes every connection whose keep-alive ran out by `now`, then
    /// recomputes the cached earliest deadline with one full scan (runs
    /// only when a deadline fires — at most once per keep-alive period per
    /// connection — never on the per-event hot path). Returns true when
    /// the deadline had come.
    pub(super) fn expire_keepalives(&mut self, now: Instant) -> bool {
        if self.keepalive_deadline.is_none_or(|d| d > now) {
            return false;
        }
        self.now = now;
        let expired: Vec<ConnId> = self
            .conns
            .iter()
            .filter(|(_, c)| c.deadline().is_some_and(|d| d <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            BrokerCounters::bump(&self.counters.keepalive_timeouts);
            self.close_conn(id);
        }
        self.keepalive_deadline = self.conns.values().filter_map(ConnState::deadline).min();
        true
    }

    /// A connection's CONNECT was accepted by the gate: register it,
    /// taking over any live connection with the same client id, answer
    /// with CONNACK, and replay a resumed session.
    pub(super) fn on_connect(
        &mut self,
        conn_id: ConnId,
        sender: FrameSender,
        c: Connect,
        now: Instant,
    ) {
        self.now = now;
        // Session takeover: disconnect any live connection with this id
        // (always shard-local — same id, same shard).
        if let Some(&old) = self.by_client.get(&c.client_id) {
            if old != conn_id {
                self.close_conn(old);
            }
        }

        let is_bridge = c.client_id.starts_with(BRIDGE_PREFIX);
        let key =
            self.index
                .register_conn(&c.client_id, self.shard, conn_id, sender.clone(), is_bridge);

        let session_present = if c.clean_session {
            // Fresh session: purge stored state and subscriptions.
            if let Some(old) = self.sessions.remove(&c.client_id) {
                self.counters
                    .sessions_current
                    .fetch_sub(1, Ordering::Relaxed);
                // The only sessions a clean reconnect can still find are
                // persistent ones (clean sessions die with their
                // connection): drop the persisted state too.
                if !old.clean {
                    BrokerCounters::bump(&self.counters.sessions_cleaned);
                    self.log_wal(WalRecord::SessionDestroy {
                        client: c.client_id.clone(),
                    });
                }
            }
            let removed = self.index.unsubscribe_all(key);
            self.counters
                .subscriptions_current
                .fetch_sub(removed as u64, Ordering::Relaxed);
            false
        } else {
            self.sessions.contains_key(&c.client_id)
        };

        if !self.sessions.contains_key(&c.client_id) {
            self.sessions.insert(
                c.client_id.clone(),
                Session::new(
                    c.client_id.clone(),
                    c.clean_session,
                    self.max_queued_per_session,
                ),
            );
            BrokerCounters::bump(&self.counters.sessions_current);
            if !c.clean_session {
                self.log_wal(WalRecord::SessionCreate {
                    client: c.client_id.clone(),
                });
            }
        } else if let Some(s) = self.sessions.get_mut(&c.client_id) {
            s.clean = c.clean_session;
        }

        // Last-will registration is connection-scoped (logged even for
        // clean sessions, so a will survives a process crash).
        if let Some(will) = &c.will {
            self.log_wal(WalRecord::WillSet {
                client: c.client_id.clone(),
                will: will.clone(),
            });
        }

        let state = ConnState {
            sender,
            client_id: c.client_id.clone(),
            key,
            is_bridge,
            keep_alive: c.keep_alive,
            last_activity: now,
            will_registered: c.will.is_some(),
            will: c.will,
            graceful: false,
        };
        // Fold the newcomer into the cached earliest deadline (the only
        // mutation that can move the minimum *earlier*).
        if let Some(deadline) = state.deadline() {
            self.keepalive_deadline = Some(match self.keepalive_deadline {
                Some(current) => current.min(deadline),
                None => deadline,
            });
        }
        self.conns.insert(conn_id, state);
        self.by_client.insert(c.client_id.clone(), conn_id);

        self.send_to_conn(
            conn_id,
            &Packet::Connack(Connack {
                session_present,
                code: ConnectReturnCode::Accepted,
            }),
        );

        // Replay: queued offline messages, then unacknowledged inflight.
        if session_present {
            self.replay_session(conn_id, &c.client_id);
        }
    }

    fn replay_session(&mut self, conn_id: ConnId, client_id: &str) {
        let Some(session) = self.sessions.get_mut(client_id) else {
            return;
        };
        let queued = session.drain_queued();
        let inflight = session.take_inflight();
        self.counters
            .queued_current
            .fetch_sub(queued.len() as u64, Ordering::Relaxed);
        if !queued.is_empty() {
            self.log_wal(WalRecord::QueueDrained {
                client: client_id.to_owned(),
            });
        }
        for msg in queued {
            // Straight to deliver_raw: these messages already passed the
            // fault plan when they were routed (and queued); evaluating
            // them again would double-apply rules and skew hit windows.
            self.deliver_raw(client_id, msg.topic, msg.payload, msg.qos, false);
        }
        for (old_id, inflight_msg) in inflight {
            // Retransmit with a fresh id and DUP=1.
            let Some(session) = self.sessions.get_mut(client_id) else {
                return;
            };
            let id = session.alloc_packet_id();
            session.inflight_out.insert(
                id,
                InflightOut {
                    topic: inflight_msg.topic.clone(),
                    payload: inflight_msg.payload.clone(),
                    qos: inflight_msg.qos,
                    retain: inflight_msg.retain,
                    released: false,
                },
            );
            // The WAL mirrors the id swap: the old window entry goes
            // away, the retransmission enters under its fresh id.
            self.log_wal(WalRecord::InflightRemove {
                client: client_id.to_owned(),
                id: old_id,
            });
            self.log_wal(WalRecord::InflightInsert {
                client: client_id.to_owned(),
                id,
                topic: inflight_msg.topic.clone(),
                qos: inflight_msg.qos,
                retain: inflight_msg.retain,
                released: false,
                payload: inflight_msg.payload.clone(),
            });
            // Count before sending: once a receiver observes the frame,
            // the counter must already reflect it.
            BrokerCounters::bump(&self.counters.publishes_out);
            self.send_to_conn(
                conn_id,
                &Packet::Publish(Publish {
                    dup: true,
                    qos: inflight_msg.qos,
                    retain: inflight_msg.retain,
                    topic: inflight_msg.topic,
                    packet_id: Some(id),
                    payload: inflight_msg.payload,
                }),
            );
        }
    }

    /// Tears down a registered connection: discharges its will
    /// registration, parks or destroys its session, and — unless it said
    /// DISCONNECT first — publishes its last will.
    pub(super) fn close_conn(&mut self, conn_id: ConnId) {
        let Some(conn) = self.conns.remove(&conn_id) else {
            return;
        };
        self.counters
            .connections_current
            .fetch_sub(1, Ordering::Relaxed);
        self.closed.push(conn_id);

        let will = if conn.graceful {
            None
        } else {
            conn.will.clone()
        };
        // Discharge the persisted will registration: whether it fires now
        // (ungraceful close) or was suppressed (clean DISCONNECT), it must
        // not fire again after a broker restart.
        if conn.will_registered {
            self.log_wal(WalRecord::WillClear {
                client: conn.client_id.clone(),
            });
        }

        if self.by_client.get(&conn.client_id) == Some(&conn_id) {
            self.by_client.remove(&conn.client_id);
            let clean = self
                .sessions
                .get(&conn.client_id)
                .map(|s| s.clean)
                .unwrap_or(true);
            if clean {
                if self.sessions.remove(&conn.client_id).is_some() {
                    self.counters
                        .sessions_current
                        .fetch_sub(1, Ordering::Relaxed);
                }
                let removed = self.index.remove_client(conn.key);
                self.counters
                    .subscriptions_current
                    .fetch_sub(removed as u64, Ordering::Relaxed);
            } else {
                // Parked persistent session: keep routes so queued
                // deliveries still find the owner shard.
                self.index.deregister_conn(conn.key, conn_id);
            }
        }

        if let Some(will) = will {
            // conn_id is gone, so origin-echo suppression is a no-op here.
            self.route(&will_publish(will), conn_id, false, Some(&conn.client_id));
        }
    }

    pub(super) fn send_to_conn(&mut self, conn_id: ConnId, packet: &Packet) {
        let Some(conn) = self.conns.get(&conn_id) else {
            return;
        };
        if let Packet::Publish(p) = packet {
            BrokerCounters::add(&self.counters.payload_bytes_out, p.payload.len() as u64);
        }
        if conn.sender.send_packet(packet).is_err() {
            self.close_conn(conn_id);
        }
    }
}
