//! High-level MQTT client.
//!
//! The client owns two threads, named `<id>-reader` and `<id>-dispatch`:
//!
//! * a **reader** that decodes frames, answers protocol handshakes
//!   (PUBACK/PUBREC/PUBREL/PUBCOMP), resolves pending operation waiters, and
//!   forwards application messages to the dispatcher;
//! * a **dispatcher** that runs registered topic handlers — kept off the
//!   reader thread so a handler may itself publish (even QoS 1/2) without
//!   deadlocking the acknowledgement path.
//!
//! CONNECT always asks for keep-alive 0: the broker never expires a
//! client for silence, so the client sends no PINGREQ.
//!
//! Messages that match no registered handler land in a default inbox
//! readable via [`Client::recv_timeout`].
//!
//! When a [`Dialer`] is configured the reader thread additionally owns
//! **reconnection**: on transport loss it redials the broker, replays the
//! CONNECT handshake, and — if the broker reports no stored session —
//! re-issues every tracked subscription, so a broker restart is invisible
//! to application code beyond a window of failed or timed-out calls.

use crate::broker::Broker;
use crate::codec;
use crate::error::{ConnectReturnCode, MqttError, Result};
use crate::packet::*;
use crate::topic::{TopicFilter, TopicName};
use crate::transport::{FrameReceiver, FrameSender, LinkEnd};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handler invoked for each message matching a subscription filter.
pub type MessageHandler = Arc<dyn Fn(&Publish) + Send + Sync>;

/// Factory producing a fresh transport link to the broker.
///
/// Installed via [`ClientOptions::dialer`], it turns the client into an
/// auto-reconnecting one: the reader thread calls the dialer after a
/// transport loss until it yields a link whose CONNECT handshake is
/// accepted. Returning an error means "broker unavailable right now";
/// the client retries after a short backoff.
pub type Dialer = Arc<dyn Fn() -> Result<LinkEnd> + Send + Sync>;

/// Client configuration.
#[derive(Clone)]
pub struct ClientOptions {
    /// Unique client identifier.
    pub client_id: String,
    /// Discard session state on connect/disconnect.
    pub clean_session: bool,
    /// Optional last-will registration.
    pub will: Option<LastWill>,
    /// How long blocking operations wait for broker acknowledgements.
    pub response_timeout: Duration,
    /// Optional redial factory enabling automatic reconnection.
    pub dialer: Option<Dialer>,
}

impl ClientOptions {
    /// Sensible defaults for an id: clean session, 5 s acks.
    pub fn new(client_id: impl Into<String>) -> Self {
        ClientOptions {
            client_id: client_id.into(),
            clean_session: true,
            will: None,
            response_timeout: Duration::from_secs(5),
            dialer: None,
        }
    }
}

struct Pending {
    tx: Sender<Packet>,
}

struct Inner {
    /// Current transport send half; swapped wholesale on reconnect.
    sender: RwLock<FrameSender>,
    client_id: String,
    connected: AtomicBool,
    /// Set by [`Client::disconnect`]: suppresses redialing for good.
    closed: AtomicBool,
    response_timeout: Duration,
    /// CONNECT parameters replayed on every redial.
    clean_session: bool,
    will: Option<LastWill>,
    dialer: Option<Dialer>,
    /// Waiters for QoS publish acks, keyed by packet id.
    pending_pub: Mutex<HashMap<PacketId, Pending>>,
    /// Waiters for SUBACK/UNSUBACK, keyed by packet id.
    pending_sub: Mutex<HashMap<PacketId, Pending>>,
    /// Inbound QoS 2 messages held until PUBREL.
    inbound_qos2: Mutex<HashMap<PacketId, Publish>>,
    /// Registered (filter, handler) pairs, scanned per delivery.
    handlers: RwLock<Vec<(TopicFilter, MessageHandler)>>,
    /// Granted subscriptions, replayed when a redialed broker reports no
    /// stored session (`session_present == false`).
    subs: Mutex<HashMap<TopicFilter, QoS>>,
    /// Default inbox for messages with no matching handler.
    inbox_tx: Sender<Publish>,
    /// Packet id allocator.
    next_id: Mutex<PacketId>,
    /// Dispatch queue feeding the handler thread.
    dispatch_tx: Sender<Publish>,
}

impl Inner {
    /// A packet id no publish waiter holds, for a SUBSCRIBE, UNSUBSCRIBE
    /// or a replayed subscription.
    fn alloc_id(&self) -> Result<PacketId> {
        let mut next = self.next_id.lock();
        free_id(&mut next, &self.pending_pub.lock())
    }

    /// Registers one publish waiter per message, every one feeding `tx`,
    /// and returns their ids in order. Allocation and registration share
    /// one lock hold, so no two waiters can ever get the same id. When
    /// the ids run out, the waiters registered so far are taken back.
    fn register_publishes(&self, count: usize, tx: &Sender<Packet>) -> Result<Vec<PacketId>> {
        let mut next = self.next_id.lock();
        let mut pending = self.pending_pub.lock();
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            match free_id(&mut next, &pending) {
                Ok(id) => {
                    pending.insert(id, Pending { tx: tx.clone() });
                    ids.push(id);
                }
                Err(e) => {
                    for id in &ids {
                        pending.remove(id);
                    }
                    return Err(e);
                }
            }
        }
        Ok(ids)
    }

    fn send(&self, packet: &Packet) -> Result<()> {
        self.sender.read().send_packet(packet)
    }
}

/// Advances `next` past the first non-zero id no waiter in `pending`
/// holds and returns it; [`MqttError::PacketIdsExhausted`] when all
/// 65,535 are taken, rather than reusing one whose waiter is still live.
fn free_id(next: &mut PacketId, pending: &HashMap<PacketId, Pending>) -> Result<PacketId> {
    for _ in 0..=u16::MAX {
        let id = *next;
        *next = next.wrapping_add(1);
        if *next == 0 {
            *next = 1;
        }
        if id != 0 && !pending.contains_key(&id) {
            return Ok(id);
        }
    }
    Err(MqttError::PacketIdsExhausted)
}

/// A connected MQTT client. Clone-cheap (`Arc` inside).
#[derive(Clone)]
pub struct Client {
    inner: Arc<Inner>,
    inbox_rx: Receiver<Publish>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("client_id", &self.inner.client_id)
            .finish()
    }
}

impl Client {
    /// Connects to a broker and completes the CONNECT/CONNACK handshake.
    pub fn connect(broker: &Broker, options: ClientOptions) -> Result<Client> {
        let link = broker.connect_transport()?;
        Client::connect_link(link, options)
    }

    /// Connects over an already-established transport link (used by bridges
    /// and tests that interpose on the transport).
    pub fn connect_link(link: LinkEnd, options: ClientOptions) -> Result<Client> {
        if options.client_id.is_empty() {
            return Err(MqttError::InvalidClientId(options.client_id));
        }
        let (sender, receiver) = link.split();
        sender.send_packet(&Packet::Connect(Connect {
            client_id: options.client_id.clone(),
            clean_session: options.clean_session,
            keep_alive: 0,
            will: options.will.clone(),
        }))?;
        // Handshake runs synchronously before the reader thread exists.
        let connack = loop {
            let frame = receiver.recv_frame_timeout(options.response_timeout)?;
            let (packet, _) = codec::decode(&frame)?;
            match packet {
                Packet::Connack(c) => break c,
                _ => continue,
            }
        };
        if connack.code != ConnectReturnCode::Accepted {
            return Err(MqttError::ConnectionRefused(connack.code));
        }

        let (inbox_tx, inbox_rx) = unbounded();
        let (dispatch_tx, dispatch_rx) = unbounded::<Publish>();
        let inner = Arc::new(Inner {
            sender: RwLock::new(sender),
            client_id: options.client_id.clone(),
            connected: AtomicBool::new(true),
            closed: AtomicBool::new(false),
            response_timeout: options.response_timeout,
            clean_session: options.clean_session,
            will: options.will.clone(),
            dialer: options.dialer.clone(),
            pending_pub: Mutex::new(HashMap::new()),
            pending_sub: Mutex::new(HashMap::new()),
            inbound_qos2: Mutex::new(HashMap::new()),
            handlers: RwLock::new(Vec::new()),
            subs: Mutex::new(HashMap::new()),
            inbox_tx,
            next_id: Mutex::new(1),
            dispatch_tx,
        });

        // Dispatcher thread: runs handlers off the reader thread.
        let dispatch_inner = Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name(format!("{}-dispatch", options.client_id))
            .spawn(move || {
                while let Ok(publish) = dispatch_rx.recv() {
                    let Some(inner) = dispatch_inner.upgrade() else {
                        return;
                    };
                    // Snapshot matching handlers, then release the lock
                    // before invoking them: a handler may itself subscribe
                    // (taking the write lock) without deadlocking.
                    let matching: Vec<MessageHandler> = {
                        let handlers = inner.handlers.read();
                        handlers
                            .iter()
                            .filter(|(filter, _)| filter.matches(&publish.topic))
                            .map(|(_, handler)| Arc::clone(handler))
                            .collect()
                    };
                    if matching.is_empty() {
                        let _ = inner.inbox_tx.send(publish);
                    } else {
                        for handler in matching {
                            handler(&publish);
                        }
                    }
                }
            })
            .expect("spawn dispatcher");

        // Reader thread: protocol handling plus (with a dialer) reconnection.
        let reader_inner = Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name(format!("{}-reader", options.client_id))
            .spawn(move || {
                let mut receiver = receiver;
                loop {
                    let frame = match receiver.recv_frame() {
                        Ok(f) => f,
                        Err(_) => {
                            let Some(inner) = reader_inner.upgrade() else {
                                return;
                            };
                            inner.connected.store(false, Ordering::Release);
                            drop(inner);
                            match Self::redial(&reader_inner) {
                                Some(r) => {
                                    receiver = r;
                                    continue;
                                }
                                None => return,
                            }
                        }
                    };
                    let Some(inner) = reader_inner.upgrade() else {
                        return;
                    };
                    let mut rest: Bytes = frame;
                    while let Ok((packet, used)) = codec::decode(&rest) {
                        Self::handle_packet(&inner, packet);
                        if used >= rest.len() {
                            break;
                        }
                        rest = rest.slice(used..);
                    }
                }
            })
            .expect("spawn reader");

        Ok(Client { inner, inbox_rx })
    }

    /// Redial loop run by the reader thread after a transport loss.
    ///
    /// Returns the receive half of the fresh link, or `None` when the
    /// client should stop for good (no dialer configured, explicit
    /// [`Client::disconnect`], or every `Client` handle dropped).
    fn redial(weak: &std::sync::Weak<Inner>) -> Option<FrameReceiver> {
        loop {
            let inner = weak.upgrade()?;
            if inner.closed.load(Ordering::Acquire) {
                return None;
            }
            let dialer = inner.dialer.clone()?;
            let attempt = (|| -> Result<FrameReceiver> {
                let link = dialer()?;
                let (sender, receiver) = link.split();
                sender.send_packet(&Packet::Connect(Connect {
                    client_id: inner.client_id.clone(),
                    clean_session: inner.clean_session,
                    keep_alive: 0,
                    will: inner.will.clone(),
                }))?;
                let connack = loop {
                    let frame = receiver.recv_frame_timeout(inner.response_timeout)?;
                    let (packet, _) = codec::decode(&frame)?;
                    match packet {
                        Packet::Connack(c) => break c,
                        _ => continue,
                    }
                };
                if connack.code != ConnectReturnCode::Accepted {
                    return Err(MqttError::ConnectionRefused(connack.code));
                }
                *inner.sender.write() = sender;
                if !connack.session_present {
                    // The broker has no session for us (clean connect or
                    // state lost): replay every granted subscription.
                    // Fire-and-forget — the SUBACKs arrive once this
                    // receiver is handed back to the read loop, and
                    // unclaimed acks are ignored by `handle_packet`.
                    let mut subs: Vec<(TopicFilter, QoS)> = inner
                        .subs
                        .lock()
                        .iter()
                        .map(|(f, q)| (f.clone(), *q))
                        .collect();
                    subs.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
                    for (filter, qos) in subs {
                        let id = inner.alloc_id()?;
                        inner.send(&Packet::Subscribe(Subscribe {
                            packet_id: id,
                            filters: vec![(filter, qos)],
                        }))?;
                    }
                }
                inner.connected.store(true, Ordering::Release);
                Ok(receiver)
            })();
            drop(inner);
            match attempt {
                Ok(receiver) => return Some(receiver),
                // Broker still down (or mid-restart); back off briefly.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    fn handle_packet(inner: &Arc<Inner>, packet: Packet) {
        match packet {
            Packet::Publish(p) => match p.qos {
                QoS::AtMostOnce => {
                    let _ = inner.dispatch_tx.send(p);
                }
                QoS::AtLeastOnce => {
                    let id = p.packet_id.unwrap_or(0);
                    let _ = inner.dispatch_tx.send(p);
                    let _ = inner.send(&Packet::Puback(id));
                }
                QoS::ExactlyOnce => {
                    let id = p.packet_id.unwrap_or(0);
                    // Hold until PUBREL; replacing an existing entry
                    // implements duplicate suppression.
                    inner.inbound_qos2.lock().insert(id, p);
                    let _ = inner.send(&Packet::Pubrec(id));
                }
            },
            Packet::Pubrel(id) => {
                if let Some(p) = inner.inbound_qos2.lock().remove(&id) {
                    let _ = inner.dispatch_tx.send(p);
                }
                let _ = inner.send(&Packet::Pubcomp(id));
            }
            Packet::Puback(id) | Packet::Pubcomp(id) => {
                // `try_send`: the reader never blocks on a waiter. A batch's
                // channel holds every ack it can be owed, so only a far end
                // that acks more than it was sent loses anything here.
                let waiter = inner.pending_pub.lock().remove(&id);
                if let Some(w) = waiter {
                    let _ = w.tx.try_send(packet);
                }
            }
            Packet::Pubrec(id) => {
                // Forward the intermediate ack to the waiter but keep the
                // entry: PUBCOMP arrives later.
                let guard = inner.pending_pub.lock();
                if let Some(w) = guard.get(&id) {
                    let _ = w.tx.try_send(Packet::Pubrec(id));
                }
                drop(guard);
                let _ = inner.send(&Packet::Pubrel(id));
            }
            Packet::Suback(s) => {
                let waiter = inner.pending_sub.lock().remove(&s.packet_id);
                if let Some(w) = waiter {
                    let _ = w.tx.send(Packet::Suback(s));
                }
            }
            Packet::Unsuback(id) => {
                let waiter = inner.pending_sub.lock().remove(&id);
                if let Some(w) = waiter {
                    let _ = w.tx.send(Packet::Unsuback(id));
                }
            }
            Packet::Pingresp => {}
            // Broker-bound packets should never arrive here; ignore.
            _ => {}
        }
    }

    /// The client identifier.
    pub fn client_id(&self) -> &str {
        &self.inner.client_id
    }

    /// True while the transport is up.
    pub fn is_connected(&self) -> bool {
        self.inner.connected.load(Ordering::Acquire)
    }

    /// Publishes one message: the one-message case of
    /// [`Client::publish_all`]. Blocks until the QoS handshake completes
    /// (QoS 0 returns once the frame is sent).
    pub fn publish(
        &self,
        topic: &TopicName,
        payload: impl Into<Bytes>,
        qos: QoS,
        retain: bool,
    ) -> Result<()> {
        self.publish_all([(topic, payload)], qos, retain)
    }

    /// Publishes every message in order, all at `qos` and with the same
    /// `retain` flag, and puts them in flight together: a waiter is
    /// registered for each packet id, every frame is sent, and only then
    /// are the acknowledgements collected, against one deadline of the
    /// client's response timeout. Returns `Ok` once every message is
    /// acknowledged — PUBACK at QoS 1, PUBCOMP after PUBREC at QoS 2 — or,
    /// at QoS 0, once every frame is sent. An empty batch sends nothing.
    ///
    /// The frames leave on one link in the order given, so the broker
    /// routes them in that order. On any failure — a send error, a
    /// timeout, an unexpected ack, or [`MqttError::PacketIdsExhausted`] —
    /// every waiter the batch registered is taken back, and messages after
    /// a failed send are not sent. A batch holds at most one packet id per
    /// message, so its size is the caller's to bound.
    pub fn publish_all<'t, P: Into<Bytes>>(
        &self,
        messages: impl IntoIterator<Item = (&'t TopicName, P)>,
        qos: QoS,
        retain: bool,
    ) -> Result<()> {
        self.ensure_connected()?;
        let publish = |topic: &TopicName, payload: P, packet_id| {
            Packet::Publish(Publish {
                dup: false,
                qos,
                retain,
                topic: topic.clone(),
                packet_id,
                payload: payload.into(),
            })
        };
        if qos == QoS::AtMostOnce {
            return messages
                .into_iter()
                .try_for_each(|(topic, payload)| self.inner.send(&publish(topic, payload, None)));
        }
        let messages: Vec<_> = messages.into_iter().collect();
        if messages.is_empty() {
            return Ok(());
        }
        // Room for every ack the batch is owed (PUBREC and PUBCOMP at
        // QoS 2), so the reader's `try_send` never finds it full.
        let (tx, rx) = bounded(2 * messages.len());
        let ids = self.inner.register_publishes(messages.len(), &tx)?;
        drop(tx);
        let acked = messages
            .into_iter()
            .zip(&ids)
            .try_for_each(|((topic, payload), &id)| {
                self.inner.send(&publish(topic, payload, Some(id)))
            })
            .and_then(|()| self.collect_acks(&rx, &ids, qos));
        // The reader drops each waiter on its PUBACK/PUBCOMP; on every
        // failure the rest are taken back here, or their ids stay
        // reserved.
        if acked.is_err() {
            let mut pending = self.inner.pending_pub.lock();
            for id in &ids {
                pending.remove(id);
            }
        }
        acked
    }

    /// Waits until every id in `ids` has completed its `qos` handshake,
    /// all against one deadline.
    fn collect_acks(&self, rx: &Receiver<Packet>, ids: &[PacketId], qos: QoS) -> Result<()> {
        let deadline = Instant::now() + self.inner.response_timeout;
        // Per id: has its PUBREC arrived (QoS 2 only)?
        let mut owed: HashMap<PacketId, bool> = ids.iter().map(|&id| (id, false)).collect();
        while !owed.is_empty() {
            let wait = deadline.saturating_duration_since(Instant::now());
            let ack = rx.recv_timeout(wait).map_err(|_| MqttError::Timeout)?;
            match (qos, ack) {
                (QoS::AtLeastOnce, Packet::Puback(id)) if owed.remove(&id).is_some() => {}
                (QoS::ExactlyOnce, Packet::Pubrec(id)) if owed.get(&id) == Some(&false) => {
                    owed.insert(id, true);
                }
                (QoS::ExactlyOnce, Packet::Pubcomp(id)) if owed.get(&id) == Some(&true) => {
                    owed.remove(&id);
                }
                (_, other) => return Err(unexpected(other)),
            }
        }
        Ok(())
    }

    /// Publishes to a topic given as a string (validated here).
    pub fn publish_str(
        &self,
        topic: &str,
        payload: impl Into<Bytes>,
        qos: QoS,
        retain: bool,
    ) -> Result<()> {
        self.publish(&TopicName::new(topic)?, payload, qos, retain)
    }

    /// Subscribes to a filter; messages with no registered handler go to
    /// the default inbox. Returns the granted QoS.
    pub fn subscribe(&self, filter: &TopicFilter, qos: QoS) -> Result<QoS> {
        self.ensure_connected()?;
        let id = self.inner.alloc_id()?;
        let ack = self.await_sub_ack(
            id,
            &Packet::Subscribe(Subscribe {
                packet_id: id,
                filters: vec![(filter.clone(), qos)],
            }),
        )?;
        match ack {
            Packet::Suback(s) => match s.return_codes.first() {
                Some(SubackCode::Granted(granted)) => {
                    // Remember the *requested* QoS so a post-crash replay
                    // asks for the same grant.
                    self.inner.subs.lock().insert(filter.clone(), qos);
                    Ok(*granted)
                }
                _ => Err(MqttError::Malformed("subscription refused")),
            },
            other => Err(unexpected(other)),
        }
    }

    /// Subscribes and registers a handler invoked for every matching
    /// message (on the dispatcher thread).
    pub fn subscribe_with(
        &self,
        filter: &TopicFilter,
        qos: QoS,
        handler: MessageHandler,
    ) -> Result<QoS> {
        // Register the handler before the wire subscribe so retained
        // replays are not lost to the default inbox.
        let registered = (filter.clone(), Arc::clone(&handler));
        self.inner.handlers.write().push(registered);
        self.subscribe(filter, qos).inspect_err(|_| {
            let mut handlers = self.inner.handlers.write();
            handlers.retain(|(_, h)| !Arc::ptr_eq(h, &handler));
        })
    }

    /// Subscribes with a string filter.
    pub fn subscribe_str(&self, filter: &str, qos: QoS) -> Result<QoS> {
        self.subscribe(&TopicFilter::new(filter)?, qos)
    }

    /// Removes a subscription (and any handlers registered for the exact
    /// same filter).
    pub fn unsubscribe(&self, filter: &TopicFilter) -> Result<()> {
        self.ensure_connected()?;
        self.inner.handlers.write().retain(|(f, _)| f != filter);
        self.inner.subs.lock().remove(filter);
        let id = self.inner.alloc_id()?;
        self.await_sub_ack(
            id,
            &Packet::Unsubscribe(Unsubscribe {
                packet_id: id,
                filters: vec![filter.clone()],
            }),
        )?;
        Ok(())
    }

    /// Pops one message from the default inbox, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Publish> {
        self.inbox_rx
            .recv_timeout(timeout)
            .map_err(|_| MqttError::Timeout)
    }

    /// Attempts to pop one message from the default inbox without blocking.
    pub fn try_recv(&self) -> Option<Publish> {
        self.inbox_rx.try_recv().ok()
    }

    /// Sends a graceful DISCONNECT. The broker will drop the connection and
    /// suppress the last will. Auto-reconnecting clients stop redialing.
    pub fn disconnect(&self) -> Result<()> {
        self.inner.closed.store(true, Ordering::Release);
        self.inner.connected.store(false, Ordering::Release);
        self.inner.send(&Packet::Disconnect)
    }

    fn ensure_connected(&self) -> Result<()> {
        if self.is_connected() {
            Ok(())
        } else {
            Err(MqttError::NotConnected)
        }
    }

    /// Sends a SUBSCRIBE or UNSUBSCRIBE and waits for its acknowledgement.
    /// The waiter is taken back on every failure, so a broker that never
    /// answers costs nothing per attempt.
    fn await_sub_ack(&self, id: PacketId, request: &Packet) -> Result<Packet> {
        let (tx, rx) = bounded(2);
        self.inner.pending_sub.lock().insert(id, Pending { tx });
        let ack = self.inner.send(request).and_then(|()| {
            rx.recv_timeout(self.inner.response_timeout)
                .map_err(|_| MqttError::Timeout)
        });
        if ack.is_err() {
            self.inner.pending_sub.lock().remove(&id);
        }
        ack
    }
}

fn unexpected(p: Packet) -> MqttError {
    let _ = p;
    MqttError::Malformed("unexpected acknowledgement packet")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use std::sync::atomic::AtomicUsize;

    fn topic(s: &str) -> TopicName {
        TopicName::new(s).unwrap()
    }
    fn filter(s: &str) -> TopicFilter {
        TopicFilter::new(s).unwrap()
    }

    #[test]
    fn a_silent_broker_leaves_no_waiter_or_handler_behind() {
        // A bare link whose far end accepts the connection and then never
        // answers again.
        let (near, far) = crate::transport::link();
        far.send_packet(&Packet::Connack(crate::packet::Connack {
            session_present: false,
            code: ConnectReturnCode::Accepted,
        }))
        .unwrap();
        let options = ClientOptions {
            response_timeout: Duration::from_millis(20),
            ..ClientOptions::new("patient")
        };
        let client = Client::connect_link(near, options).unwrap();
        let calls = Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let handler_calls = Arc::clone(&calls);
            let handler: MessageHandler = Arc::new(move |_| {
                handler_calls.fetch_add(1, Ordering::SeqCst);
            });
            let subscribed = client.subscribe_with(&filter("a/#"), QoS::AtLeastOnce, handler);
            assert_eq!(subscribed, Err(MqttError::Timeout));
            assert_eq!(client.inner.handlers.read().len(), 0, "handler rolled back");
            assert_eq!(client.unsubscribe(&filter("a/#")), Err(MqttError::Timeout));
        }
        assert_eq!(
            client.inner.pending_sub.lock().len(),
            0,
            "waiters taken back"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        drop(far);

        // A far end that hangs up after CONNACK: it stops reading, so
        // every send fails, but keeps its send half, so the reader never
        // sees the link close and the client still counts as connected.
        let (near, far) = crate::transport::link();
        let (far_tx, far_rx) = far.split();
        far_tx
            .send_packet(&Packet::Connack(crate::packet::Connack {
                session_present: false,
                code: ConnectReturnCode::Accepted,
            }))
            .unwrap();
        let client = Client::connect_link(near, ClientOptions::new("orphaned")).unwrap();
        drop(far_rx);
        for qos in [QoS::AtLeastOnce, QoS::ExactlyOnce, QoS::AtLeastOnce] {
            let sent = client.publish(&topic("t"), b"x".as_slice(), qos, false);
            assert_eq!(sent, Err(MqttError::Disconnected));
        }
        assert!(client.is_connected());
        assert_eq!(
            client.inner.pending_pub.lock().len(),
            0,
            "publish waiters taken back"
        );
        drop(far_tx);

        // A far end that acknowledges every PUBLISH of a batch but the
        // third: the batch times out as a whole, and every waiter it
        // registered is taken back, the four acknowledged ones included.
        let (near, far) = crate::transport::link();
        let (far_tx, far_rx) = far.split();
        far_tx
            .send_packet(&Packet::Connack(crate::packet::Connack {
                session_present: false,
                code: ConnectReturnCode::Accepted,
            }))
            .unwrap();
        let answerer = std::thread::spawn(move || {
            let mut seen = 0;
            while let Ok(frame) = far_rx.recv_frame() {
                if let Ok((Packet::Publish(p), _)) = codec::decode(&frame) {
                    seen += 1;
                    if seen != 3 {
                        far_tx
                            .send_packet(&Packet::Puback(p.packet_id.unwrap()))
                            .ok();
                    }
                }
            }
            seen
        });
        let options = ClientOptions {
            response_timeout: Duration::from_millis(200),
            ..ClientOptions::new("short")
        };
        let client = Client::connect_link(near, options).unwrap();
        let t = topic("t");
        let sent = client.publish_all((0..5u8).map(|i| (&t, vec![i])), QoS::AtLeastOnce, false);
        assert_eq!(sent, Err(MqttError::Timeout));
        assert_eq!(
            client.inner.pending_pub.lock().len(),
            0,
            "batch waiters taken back"
        );
        drop(client);
        assert_eq!(answerer.join().unwrap(), 5, "every frame was sent");
    }

    /// A client on a bare link whose far end has accepted the connection
    /// and read its CONNECT; the far end's halves are returned for the
    /// test to drive.
    fn bare_client(id: &str) -> (Client, crate::transport::FrameSender, FrameReceiver) {
        let (near, far) = crate::transport::link();
        let (far_tx, far_rx) = far.split();
        far_tx
            .send_packet(&Packet::Connack(crate::packet::Connack {
                session_present: false,
                code: ConnectReturnCode::Accepted,
            }))
            .unwrap();
        let client = Client::connect_link(near, ClientOptions::new(id)).unwrap();
        let connect = codec::decode(&far_rx.recv_frame().unwrap()).unwrap().0;
        assert!(matches!(connect, Packet::Connect(_)));
        (client, far_tx, far_rx)
    }

    #[test]
    fn an_empty_batch_sends_nothing() {
        let (client, _far_tx, far_rx) = bare_client("empty");
        let none: [(&TopicName, Bytes); 0] = [];
        for qos in [QoS::AtMostOnce, QoS::AtLeastOnce, QoS::ExactlyOnce] {
            assert_eq!(client.publish_all(none.clone(), qos, false), Ok(()));
        }
        assert!(far_rx
            .recv_frame_timeout(Duration::from_millis(50))
            .is_err());
        assert_eq!(client.inner.pending_pub.lock().len(), 0);
    }

    #[test]
    fn a_qos2_batch_completes_only_after_every_pubcomp() {
        let (client, far_tx, far_rx) = bare_client("twice");
        let (release_tx, release_rx) = bounded::<()>(1);
        // PUBREC every PUBLISH and PUBCOMP every PUBREL, but hold the
        // last PUBCOMP until the test releases it.
        let answerer = std::thread::spawn(move || {
            let mut completed = 0;
            while let Ok(frame) = far_rx.recv_frame() {
                match codec::decode(&frame) {
                    Ok((Packet::Publish(p), _)) => {
                        far_tx
                            .send_packet(&Packet::Pubrec(p.packet_id.unwrap()))
                            .unwrap();
                    }
                    Ok((Packet::Pubrel(id), _)) => {
                        completed += 1;
                        if completed == 4 {
                            release_rx.recv().unwrap();
                        }
                        far_tx.send_packet(&Packet::Pubcomp(id)).unwrap();
                    }
                    _ => {}
                }
            }
        });
        let (done_tx, done_rx) = bounded(1);
        let publisher = client.clone();
        let sender = std::thread::spawn(move || {
            let t = topic("t");
            let sent =
                publisher.publish_all((0..4u8).map(|i| (&t, vec![i])), QoS::ExactlyOnce, false);
            done_tx.send(sent).unwrap();
        });
        assert!(
            done_rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "returned with a PUBCOMP outstanding"
        );
        release_tx.send(()).unwrap();
        assert_eq!(
            done_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            Ok(())
        );
        sender.join().unwrap();
        assert_eq!(client.inner.pending_pub.lock().len(), 0);
        drop(client);
        answerer.join().unwrap();
    }

    #[test]
    fn exhausted_packet_ids_fail_the_publish_and_keep_every_waiter() {
        let (client, _far_tx, far_rx) = bare_client("full");
        let (tx, rx) = unbounded();
        client
            .inner
            .pending_pub
            .lock()
            .extend((1..=u16::MAX).map(|id| (id, Pending { tx: tx.clone() })));
        let t = topic("t");
        let sent = client.publish(&t, b"x".as_slice(), QoS::AtLeastOnce, false);
        assert_eq!(sent, Err(MqttError::PacketIdsExhausted));
        // Three ids free up, but a batch needs five: it fails too, and
        // takes back the three waiters it did register.
        for id in [7, 300, 65_000] {
            client.inner.pending_pub.lock().remove(&id);
        }
        let sent = client.publish_all((0..5u8).map(|i| (&t, vec![i])), QoS::AtLeastOnce, false);
        assert_eq!(sent, Err(MqttError::PacketIdsExhausted));
        assert!(far_rx
            .recv_frame_timeout(Duration::from_millis(50))
            .is_err());
        // Every waiter left is one of the originals: each still feeds
        // the channel it was registered with.
        let pending = client.inner.pending_pub.lock();
        assert_eq!(pending.len(), usize::from(u16::MAX) - 3);
        for (&id, waiter) in pending.iter() {
            waiter.tx.try_send(Packet::Puback(id)).unwrap();
        }
        assert_eq!(rx.len(), pending.len());
    }

    #[test]
    fn an_unexpected_publish_ack_leaves_no_waiter_behind() {
        // A far end that answers every QoS 2 PUBLISH with two PUBRECs and
        // never a PUBCOMP: the second is the wrong ack.
        let (near, far) = crate::transport::link();
        let (far_tx, far_rx) = far.split();
        far_tx
            .send_packet(&Packet::Connack(crate::packet::Connack {
                session_present: false,
                code: ConnectReturnCode::Accepted,
            }))
            .unwrap();
        let answerer = std::thread::spawn(move || {
            while let Ok(frame) = far_rx.recv_frame() {
                if let Ok((Packet::Publish(p), _)) = codec::decode(&frame) {
                    let id = p.packet_id.unwrap();
                    for _ in 0..2 {
                        far_tx.send_packet(&Packet::Pubrec(id)).unwrap();
                    }
                }
            }
        });
        let client = Client::connect_link(near, ClientOptions::new("confused")).unwrap();
        for _ in 0..3 {
            let sent = client.publish(&topic("t"), b"x".as_slice(), QoS::ExactlyOnce, false);
            assert!(matches!(sent, Err(MqttError::Malformed(_))), "{sent:?}");
        }
        assert_eq!(client.inner.pending_pub.lock().len(), 0);
        drop(client);
        answerer.join().unwrap();
    }

    #[test]
    fn a_default_client_runs_a_reader_and_a_dispatcher_and_nothing_else() {
        // Names of this process's threads that start with the client's id.
        // The kernel keeps 15 bytes of a name, so a short id keeps both
        // whole.
        let named = || {
            let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
                .into_iter()
                .flatten()
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .map(|name| name.trim().to_owned())
                .filter(|name| name.starts_with("lone-"))
                .collect();
            names.sort();
            names
        };
        if std::fs::metadata("/proc/self/task").is_err() {
            return;
        }
        let broker = Broker::start_default();
        let client = Client::connect(&broker, ClientOptions::new("lone")).unwrap();
        // A thread names itself once it runs, so give the names a moment.
        for _ in 0..3000 {
            if named().len() >= 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(named(), ["lone-dispatch", "lone-reader"]);
        drop(client);
    }

    #[test]
    fn publish_subscribe_qos0() {
        let broker = Broker::start_default();
        let sub = Client::connect(&broker, ClientOptions::new("sub")).unwrap();
        sub.subscribe(&filter("a/#"), QoS::AtMostOnce).unwrap();
        let publ = Client::connect(&broker, ClientOptions::new("pub")).unwrap();
        publ.publish(&topic("a/b"), b"hi".as_slice(), QoS::AtMostOnce, false)
            .unwrap();
        let got = sub.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got.payload, Bytes::from_static(b"hi"));
    }

    #[test]
    fn publish_qos1_blocks_until_ack() {
        let broker = Broker::start_default();
        let c = Client::connect(&broker, ClientOptions::new("c")).unwrap();
        // No subscriber needed: the broker still acks.
        c.publish(&topic("t"), b"x".as_slice(), QoS::AtLeastOnce, false)
            .unwrap();
    }

    #[test]
    fn publish_qos2_full_handshake() {
        let broker = Broker::start_default();
        let sub = Client::connect(&broker, ClientOptions::new("sub")).unwrap();
        sub.subscribe(&filter("t"), QoS::ExactlyOnce).unwrap();
        let publ = Client::connect(&broker, ClientOptions::new("pub")).unwrap();
        publ.publish(&topic("t"), b"once".as_slice(), QoS::ExactlyOnce, false)
            .unwrap();
        let got = sub.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got.payload, Bytes::from_static(b"once"));
        assert_eq!(got.qos, QoS::ExactlyOnce);
        // Exactly one copy.
        assert!(sub.recv_timeout(Duration::from_millis(200)).is_err());
    }

    #[test]
    fn a_batch_crosses_shards_in_order_byte_for_byte() {
        use crate::broker::{shard_of, BrokerConfig};
        let broker = Broker::start(BrokerConfig {
            name: "batch".into(),
            shards: 2,
            ..BrokerConfig::default()
        });
        let sub_id = (0..)
            .map(|i| format!("sub{i}"))
            .find(|id| shard_of(id, 2) != shard_of("pub", 2))
            .unwrap();
        let sub = Client::connect(&broker, ClientOptions::new(sub_id)).unwrap();
        sub.subscribe(&filter("blob/#"), QoS::AtLeastOnce).unwrap();
        let publ = Client::connect(&broker, ClientOptions::new("pub")).unwrap();
        let payloads: Vec<Bytes> = (0..16u32)
            .map(|i| (0..i * 997 + 1).map(|b| (b * 31 + i) as u8).collect())
            .collect();
        let t = topic("blob/x");
        publ.publish_all(
            payloads.iter().map(|p| (&t, p.clone())),
            QoS::AtLeastOnce,
            false,
        )
        .unwrap();
        assert_eq!(publ.inner.pending_pub.lock().len(), 0);
        for sent in &payloads {
            let got = sub.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got.qos, QoS::AtLeastOnce);
            assert_eq!(&got.payload, sent);
        }
        assert!(broker.stats().cross_shard_hops >= 16);
    }

    #[test]
    fn handlers_receive_matching_messages() {
        let broker = Broker::start_default();
        let sub = Client::connect(&broker, ClientOptions::new("sub")).unwrap();
        let count = Arc::new(AtomicUsize::new(0));
        let count2 = Arc::clone(&count);
        sub.subscribe_with(
            &filter("evt/+"),
            QoS::AtMostOnce,
            Arc::new(move |p| {
                assert!(p.topic.as_str().starts_with("evt/"));
                count2.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
        let publ = Client::connect(&broker, ClientOptions::new("pub")).unwrap();
        for i in 0..5 {
            publ.publish(
                &topic(&format!("evt/{i}")),
                b"e".as_slice(),
                QoS::AtLeastOnce,
                false,
            )
            .unwrap();
        }
        // QoS1 publish blocks on ack, so deliveries are in flight; spin.
        for _ in 0..100 {
            if count.load(Ordering::SeqCst) == 5 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(count.load(Ordering::SeqCst), 5);
        // Nothing leaked to the default inbox.
        assert!(sub.try_recv().is_none());
    }

    #[test]
    fn handler_can_publish_reply_qos1() {
        // Regression guard for the dispatcher-thread design: a handler that
        // performs a blocking QoS1 publish must not deadlock the client.
        let broker = Broker::start_default();
        let responder = Client::connect(&broker, ClientOptions::new("responder")).unwrap();
        let responder_clone = responder.clone();
        responder
            .subscribe_with(
                &filter("req"),
                QoS::AtLeastOnce,
                Arc::new(move |_p| {
                    responder_clone
                        .publish(
                            &TopicName::new("resp").unwrap(),
                            b"pong".as_slice(),
                            QoS::AtLeastOnce,
                            false,
                        )
                        .unwrap();
                }),
            )
            .unwrap();

        let caller = Client::connect(&broker, ClientOptions::new("caller")).unwrap();
        caller.subscribe(&filter("resp"), QoS::AtLeastOnce).unwrap();
        caller
            .publish(&topic("req"), b"ping".as_slice(), QoS::AtLeastOnce, false)
            .unwrap();
        let got = caller.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.payload, Bytes::from_static(b"pong"));
    }

    #[test]
    fn unsubscribe_removes_handler_and_flow() {
        let broker = Broker::start_default();
        let sub = Client::connect(&broker, ClientOptions::new("sub")).unwrap();
        sub.subscribe(&filter("x"), QoS::AtMostOnce).unwrap();
        sub.unsubscribe(&filter("x")).unwrap();
        let publ = Client::connect(&broker, ClientOptions::new("pub")).unwrap();
        publ.publish(&topic("x"), b"gone".as_slice(), QoS::AtMostOnce, false)
            .unwrap();
        assert!(sub.recv_timeout(Duration::from_millis(200)).is_err());
    }

    #[test]
    fn empty_client_id_rejected_locally() {
        let broker = Broker::start_default();
        let err = Client::connect(&broker, ClientOptions::new("")).unwrap_err();
        assert!(matches!(err, MqttError::InvalidClientId(_)));
    }

    #[test]
    fn retained_replay_reaches_handler() {
        let broker = Broker::start_default();
        let publ = Client::connect(&broker, ClientOptions::new("pub")).unwrap();
        publ.publish(&topic("cfg/a"), b"v".as_slice(), QoS::AtLeastOnce, true)
            .unwrap();
        let sub = Client::connect(&broker, ClientOptions::new("sub")).unwrap();
        let (tx, rx) = bounded(1);
        sub.subscribe_with(
            &filter("cfg/#"),
            QoS::AtMostOnce,
            Arc::new(move |p| {
                let _ = tx.send(p.payload.clone());
            }),
        )
        .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            Bytes::from_static(b"v")
        );
    }

    #[test]
    fn concurrent_publishers_unique_ids() {
        let broker = Broker::start_default();
        let sub = Client::connect(&broker, ClientOptions::new("sub")).unwrap();
        sub.subscribe(&filter("load/#"), QoS::AtMostOnce).unwrap();
        let publ = Client::connect(&broker, ClientOptions::new("pub")).unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let p = publ.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    p.publish(
                        &TopicName::new(format!("load/{t}/{i}")).unwrap(),
                        b"d".as_slice(),
                        QoS::AtLeastOnce,
                        false,
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut received = 0;
        while sub.recv_timeout(Duration::from_millis(500)).is_ok() {
            received += 1;
            if received == 100 {
                break;
            }
        }
        assert_eq!(received, 100);
    }
}
