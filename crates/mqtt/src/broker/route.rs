//! Routing and fan-out of the protocol core: matching a publish against
//! the [`SharedIndex`](crate::index::SharedIndex) snapshot, the fault
//! gate, encode-once delivery to live subscribers, cross-shard hops, the
//! offline queue, and the fault-delay timers. Every delivery shares the
//! publish payload as its frame body: only frame heads are encoded.

use super::proto::ShardProto;
use super::{ConnId, Delivery, Event};
use crate::codec::{self, Frame, PublishTemplate};
use crate::fault::{FaultVerdict, PendingDelivery};
use crate::index::{ClientKey, RetainedDelta, RouteEntry};
use crate::packet::*;
use crate::persist::WalRecord;
use crate::session::{InflightOut, QueuedMessage};
use crate::stats::BrokerCounters;
use crate::topic::TopicName;
use bytes::Bytes;
use std::cmp::Reverse;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One armed fault-delay timer. Ordered by `(at, seq)` so simultaneous
/// deadlines fire in arming order (chaos determinism).
pub(super) struct TimerEntry {
    pub(super) at: Instant,
    seq: u64,
    delivery: PendingDelivery,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Per-publish encode-once frame cache: QoS 0 frames are shared whole
/// (no packet id), QoS 1/2 frames share a [`PublishTemplate`] and stamp
/// each subscriber's packet id into a copy of its head. Keyed by the
/// retain flag, which differs only for bridge subscribers.
struct FanoutFrames {
    topic: TopicName,
    payload: Bytes,
    qos0: [Option<Frame>; 2],
    /// `[qos1 | qos2][retain]`
    templates: [[Option<PublishTemplate>; 2]; 2],
}

impl FanoutFrames {
    fn new(topic: &TopicName, payload: &Bytes) -> FanoutFrames {
        FanoutFrames {
            topic: topic.clone(),
            payload: payload.clone(),
            qos0: [None, None],
            templates: [[None, None], [None, None]],
        }
    }

    /// True when `payload` is the original publish payload (the fault
    /// layer may substitute a rewritten one, which must not hit the cache).
    fn cacheable(&self, payload: &Bytes) -> bool {
        payload.len() == self.payload.len() && payload.as_ptr() == self.payload.as_ptr()
    }

    /// The shared QoS 0 frame for this publish, or `None` when the payload
    /// was rewritten (caller encodes a one-off frame).
    fn qos0_frame(&mut self, retain: bool, payload: &Bytes) -> Option<Frame> {
        if !self.cacheable(payload) {
            return None;
        }
        let slot = &mut self.qos0[usize::from(retain)];
        if slot.is_none() {
            *slot = codec::encode_frame(&Packet::Publish(Publish {
                dup: false,
                qos: QoS::AtMostOnce,
                retain,
                topic: self.topic.clone(),
                packet_id: None,
                payload: self.payload.clone(),
            }))
            .ok();
        }
        slot.clone()
    }

    /// The shared QoS>0 template for this publish, or `None` when the
    /// payload was rewritten.
    fn template(&mut self, qos: QoS, retain: bool, payload: &Bytes) -> Option<&PublishTemplate> {
        if qos == QoS::AtMostOnce || !self.cacheable(payload) {
            return None;
        }
        let slot = &mut self.templates[(qos as usize) - 1][usize::from(retain)];
        if slot.is_none() {
            *slot = PublishTemplate::new(&Publish {
                dup: false,
                qos,
                retain,
                topic: self.topic.clone(),
                packet_id: None,
                payload: self.payload.clone(),
            })
            .ok();
        }
        slot.as_ref()
    }
}

impl ShardProto {
    /// Routes a publish to every matching subscriber and updates the
    /// retained store. Matching runs against the current index snapshot —
    /// no lock is held — and targets are visited in sorted client-id
    /// order, so delivery order is deterministic at every shard count.
    /// `origin_client` is the publishing client's id (used by fault-rule
    /// matching), `None` for broker-internal replays.
    pub(super) fn route(
        &mut self,
        p: &Publish,
        origin: ConnId,
        origin_is_bridge: bool,
        origin_client: Option<&str>,
    ) {
        if p.retain {
            match self.index.apply_retained(p) {
                RetainedDelta::Added => {
                    BrokerCounters::bump(&self.counters.retained_current);
                }
                RetainedDelta::Removed => {
                    self.counters
                        .retained_current
                        .fetch_sub(1, Ordering::Relaxed);
                }
                RetainedDelta::Replaced | RetainedDelta::Unchanged => {}
            }
        }

        let snap = self.index.load();
        // Dedupe overlapping subscriptions per client, keeping max QoS.
        let mut matched: Vec<(ClientKey, QoS)> = snap
            .trie
            .matches(&p.topic)
            .into_iter()
            .map(|(k, q)| (*k, *q))
            .collect();
        matched.sort_unstable_by_key(|(k, _)| *k);
        matched.dedup_by(|next, keep| {
            if next.0 == keep.0 {
                keep.1 = keep.1.max(next.1);
                true
            } else {
                false
            }
        });
        // Resolve routes and order deterministically by client id.
        let mut targets: Vec<(&RouteEntry, ClientKey, QoS)> = matched
            .iter()
            .filter_map(|&(k, granted)| snap.routes.entry(k).map(|e| (e, k, granted)))
            .collect();
        targets.sort_unstable_by(|a, b| a.0.client.cmp(&b.0.client));

        let mut frames = FanoutFrames::new(&p.topic, &p.payload);
        for (entry, key, granted) in targets {
            // Loop prevention: never echo a bridge's own message back.
            if origin_is_bridge && entry.conn == Some(origin) {
                continue;
            }
            let qos = p.qos.min(granted);
            // Forwarded messages carry retain=0 for established subs, with
            // one exception: bridge connections keep the flag so retained
            // state propagates across brokers (mosquitto behaves the same).
            let retain_out = p.retain && entry.is_bridge;
            let Some((payload, duplicate, release)) = self.fault_gate(
                &entry.client,
                &p.topic,
                &p.payload,
                qos,
                retain_out,
                origin_client,
            ) else {
                continue;
            };
            let d = Delivery {
                key,
                topic: p.topic.clone(),
                payload,
                qos,
                retain: retain_out,
            };
            if duplicate {
                let copy = d.clone();
                self.dispatch(entry, d, Some(&mut frames));
                self.dispatch(entry, copy, Some(&mut frames));
            } else {
                self.dispatch(entry, d, Some(&mut frames));
            }
            for r in release {
                self.deliver_raw(&r.client, r.topic, r.payload, r.qos, r.retain);
            }
        }
    }

    /// Runs one prospective delivery through the fault plan. Returns the
    /// (possibly rewritten) payload, whether to deliver a duplicate, and
    /// any stashed deliveries to release afterwards — or `None` when the
    /// delivery was consumed (dropped, held, stashed, delayed, or turned
    /// into an ungraceful teardown of the recipient's connection).
    pub(super) fn fault_gate(
        &mut self,
        client: &str,
        topic: &TopicName,
        payload: &Bytes,
        qos: QoS,
        retain: bool,
        origin: Option<&str>,
    ) -> Option<(Bytes, bool, Vec<PendingDelivery>)> {
        let Some(faults) = self.faults.as_mut() else {
            return Some((payload.clone(), false, Vec::new()));
        };
        match faults.evaluate(client, topic, payload, qos, retain, origin) {
            FaultVerdict::Deliver {
                payload,
                duplicate,
                release,
            } => Some((payload, duplicate, release)),
            FaultVerdict::Consumed => None,
            FaultVerdict::Delayed { delivery, delay } => {
                // Arm a reactor timer instead of spawning a sleeper
                // thread: the shard's park deadline accounts for the heap
                // and replays the delivery when it elapses.
                self.timer_seq += 1;
                self.timers.push(Reverse(TimerEntry {
                    at: self.now + delay,
                    seq: self.timer_seq,
                    delivery,
                }));
                None
            }
            FaultVerdict::Kill => {
                // Sever the recipient's live connection through its owner
                // shard; the close is ungraceful, so on_conn_closed fires
                // the client's last-will testament.
                let snap = self.index.load();
                if let Some(entry) = snap
                    .routes
                    .key_of(client)
                    .and_then(|key| snap.routes.entry(key))
                {
                    if let Some(conn) = entry.conn {
                        self.handles[entry.shard].send(Event::ConnClosed(conn));
                    }
                }
                None
            }
        }
    }

    /// Delivers one fault-cleared message to one subscriber:
    ///
    /// * live + QoS 0 → encode-once shared frame pushed straight into the
    ///   subscriber's sender, from whichever shard is routing;
    /// * live + QoS 1/2 on this shard → packet id allocated against the
    ///   local session, head stamped from the shared template;
    /// * anything else (other shard's session, or offline) → one hop to
    ///   the owner shard's mailbox.
    fn dispatch(&mut self, entry: &RouteEntry, d: Delivery, frames: Option<&mut FanoutFrames>) {
        match (&entry.conn, &entry.sender) {
            (Some(conn), Some(sender)) if d.qos == QoS::AtMostOnce => {
                let frame = match frames.and_then(|f| f.qos0_frame(d.retain, &d.payload)) {
                    Some(shared) => Some(shared),
                    None => codec::encode_frame(&Packet::Publish(Publish {
                        dup: false,
                        qos: QoS::AtMostOnce,
                        retain: d.retain,
                        topic: d.topic.clone(),
                        packet_id: None,
                        payload: d.payload.clone(),
                    }))
                    .ok(),
                };
                let Some(frame) = frame else {
                    BrokerCounters::bump(&self.counters.dropped);
                    return;
                };
                // Count before sending: once a receiver observes the
                // frame, the counter must already reflect it.
                BrokerCounters::bump(&self.counters.publishes_out);
                BrokerCounters::add(&self.counters.payload_bytes_out, d.payload.len() as u64);
                if sender.send(frame).is_err() {
                    // The peer vanished mid-delivery; tell the owner shard
                    // so it can tear the connection down.
                    self.handles[entry.shard].send(Event::ConnClosed(*conn));
                }
            }
            _ if entry.shard == self.shard => {
                let client = Arc::clone(&entry.client);
                self.deliver_owned(&client, d, frames);
            }
            (None, _) if d.qos == QoS::AtMostOnce => {
                // Offline subscriber, QoS 0: never queued, so don't pay a
                // cross-shard hop just to have the owner drop it.
                BrokerCounters::bump(&self.counters.dropped);
            }
            _ => {
                // Buffer the hop; `flush_hops` sends one coalesced batch
                // per target shard when the current mailbox burst ends.
                BrokerCounters::bump(&self.counters.cross_shard_hops);
                self.pending_hops[entry.shard].push(d);
            }
        }
    }

    /// A batch of cross-shard hops arriving at their sessions' owner
    /// shard.
    pub(super) fn on_deliver(&mut self, batch: Vec<Delivery>, now: Instant) {
        self.now = now;
        for d in batch {
            let snap = self.index.load();
            let Some(entry) = snap.routes.entry(d.key) else {
                // Session vanished while the hop was in flight.
                BrokerCounters::bump(&self.counters.dropped);
                continue;
            };
            let client = Arc::clone(&entry.client);
            self.deliver_owned(&client, d, None);
        }
    }

    /// Delivers what the `Hold` fault rule `label` buffered on this shard.
    pub(super) fn release_held(&mut self, label: &str, now: Instant) {
        self.now = now;
        let released = match &mut self.faults {
            Some(state) => state.release(label),
            None => Vec::new(),
        };
        for d in released {
            self.deliver_raw(&d.client, d.topic, d.payload, d.qos, d.retain);
        }
    }

    /// Fires every fault-delay timer due by `now` (earliest first; ties in
    /// arming order). Returns true when any fired.
    pub(super) fn fire_due_timers(&mut self, now: Instant) -> bool {
        self.now = now;
        let mut fired = false;
        while self.timers.peek().is_some_and(|Reverse(t)| t.at <= now) {
            let Some(Reverse(t)) = self.timers.pop() else {
                break;
            };
            let d = t.delivery;
            self.deliver_raw(&d.client, d.topic, d.payload, d.qos, d.retain);
            fired = true;
        }
        fired
    }

    /// Sends the cross-shard hops buffered during the current mailbox
    /// burst: one `Deliver` batch per target shard, preserving per-shard
    /// delivery order. No-op with one shard (nothing ever buffers).
    pub(super) fn flush_hops(&mut self) {
        for shard in 0..self.pending_hops.len() {
            if self.pending_hops[shard].is_empty() {
                continue;
            }
            let batch = std::mem::take(&mut self.pending_hops[shard]);
            BrokerCounters::bump(&self.counters.cross_shard_batches);
            self.handles[shard].send(Event::Deliver(batch));
        }
    }

    /// Owner-shard delivery: consult the *local* connection table (the
    /// authoritative source for this shard's clients) and either send with
    /// a session packet id or queue for the offline session.
    fn deliver_owned(&mut self, client: &str, d: Delivery, frames: Option<&mut FanoutFrames>) {
        match self.by_client.get(client) {
            Some(&conn_id) if self.conns.contains_key(&conn_id) => {
                if d.qos == QoS::AtMostOnce {
                    // Only reachable when the snapshot lagged the local
                    // table (e.g. replay right after reconnect).
                    BrokerCounters::bump(&self.counters.publishes_out);
                    self.send_to_conn(
                        conn_id,
                        &Packet::Publish(Publish {
                            dup: false,
                            qos: d.qos,
                            retain: d.retain,
                            topic: d.topic,
                            packet_id: None,
                            payload: d.payload,
                        }),
                    );
                    return;
                }
                let Some(session) = self.sessions.get_mut(client) else {
                    BrokerCounters::bump(&self.counters.dropped);
                    return;
                };
                let id = session.alloc_packet_id();
                session.inflight_out.insert(
                    id,
                    InflightOut {
                        topic: d.topic.clone(),
                        payload: d.payload.clone(),
                        qos: d.qos,
                        retain: d.retain,
                        released: false,
                    },
                );
                let persistent = !session.clean;
                if persistent {
                    self.log_wal(WalRecord::InflightInsert {
                        client: client.to_owned(),
                        id,
                        topic: d.topic.clone(),
                        qos: d.qos,
                        retain: d.retain,
                        released: false,
                        payload: d.payload.clone(),
                    });
                }
                BrokerCounters::bump(&self.counters.publishes_out);
                let shared = frames
                    .and_then(|f| f.template(d.qos, d.retain, &d.payload))
                    .map(|t| t.with_packet_id(id));
                match shared {
                    Some(frame) => {
                        BrokerCounters::add(
                            &self.counters.payload_bytes_out,
                            d.payload.len() as u64,
                        );
                        let send_failed = self
                            .conns
                            .get(&conn_id)
                            .map(|c| c.sender.send(frame).is_err())
                            .unwrap_or(false);
                        if send_failed {
                            self.close_conn(conn_id);
                        }
                    }
                    None => self.send_to_conn(
                        conn_id,
                        &Packet::Publish(Publish {
                            dup: false,
                            qos: d.qos,
                            retain: d.retain,
                            topic: d.topic,
                            packet_id: Some(id),
                            payload: d.payload,
                        }),
                    ),
                }
            }
            _ => self.queue_offline(client, d),
        }
    }

    /// Queues a delivery for an offline persistent session, or drops it
    /// (QoS 0 / clean session / no session) per spec latitude.
    fn queue_offline(&mut self, client: &str, d: Delivery) {
        let Some(session) = self.sessions.get_mut(client) else {
            BrokerCounters::bump(&self.counters.dropped);
            return;
        };
        if d.qos == QoS::AtMostOnce || session.clean {
            BrokerCounters::bump(&self.counters.dropped);
        } else {
            let intact = session.queue_message(QueuedMessage {
                topic: d.topic.clone(),
                payload: d.payload.clone(),
                qos: d.qos,
            });
            // Recovery replays Enqueue through the same capped
            // `queue_message`, so an overflowing WAL converges on the
            // same post-cap queue.
            self.log_wal(WalRecord::Enqueue {
                client: client.to_owned(),
                topic: d.topic,
                qos: d.qos,
                payload: d.payload,
            });
            BrokerCounters::bump(&self.counters.queued_current);
            if !intact {
                BrokerCounters::bump(&self.counters.dropped);
                self.counters.queued_current.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Delivers one message to one client by name, bypassing the fault
    /// plan (used for replays the plan already cleared: queued messages,
    /// released holds, reordered or delayed deliveries).
    pub(super) fn deliver_raw(
        &mut self,
        client: &str,
        topic: TopicName,
        payload: Bytes,
        qos: QoS,
        retain: bool,
    ) {
        let snap = self.index.load();
        let Some(key) = snap.routes.key_of(client) else {
            BrokerCounters::bump(&self.counters.dropped);
            return;
        };
        let Some(entry) = snap.routes.entry(key) else {
            BrokerCounters::bump(&self.counters.dropped);
            return;
        };
        let d = Delivery {
            key,
            topic,
            payload,
            qos,
            retain,
        };
        self.dispatch(entry, d, None);
    }
}
