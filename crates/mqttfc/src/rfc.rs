//! MQTT Fleet Control — topic-bound remote function calls.
//!
//! The paper's MQTTFC layer "simply binds clients' remotely executable
//! functions to MQTT topics. Thus, any remote client can publish to the
//! function topic and pass the arguments within the message payload, and the
//! function will be called in the client system which has the corresponding
//! function and has subscribed to the topic of that function" (§III.B.1).
//!
//! Topic scheme:
//!
//! * `mqttfc/fn/<function>` — requests (chunked [`RfcMessage`] envelopes);
//! * `mqttfc/inbox/<node>` — responses back to the calling node.
//!
//! Every payload passes through the batching layer ([`crate::batching`]),
//! so arbitrarily large arguments (full model parameter sets) transparently
//! split into chunked publishes and reassemble on the far side.

use crate::batching::{split, BatchConfig, PushResult, Reassembler};
use crate::error::{Result, RfcError};
use crate::wire::{RfcKind, RfcMessage};
use bytes::Bytes;
use crossbeam::channel::{bounded, Sender};
use parking_lot::{Mutex, RwLock};
use sdflmq_mqtt::{fnv1a64, Client, Publish, QoS, TopicFilter, TopicName};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Handler for an exposed function: receives the request envelope, returns
/// `Ok(reply)` or `Err(description)`. The reply is sent only when the caller
/// requested one.
pub type RfcHandler = Arc<dyn Fn(&RfcMessage) -> std::result::Result<Bytes, String> + Send + Sync>;

/// QoS of every RFC publish and subscription.
const QOS: QoS = QoS::AtLeastOnce;

/// Deadline of [`FleetController::call_with_reply`].
const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Returns the request topic for a function name.
pub fn function_topic(function: &str) -> TopicName {
    TopicName::new(format!("mqttfc/fn/{function}")).expect("function names are topic-safe")
}

/// Returns a node's response inbox topic.
pub fn inbox_topic(node_id: &str) -> TopicName {
    TopicName::new(format!("mqttfc/inbox/{node_id}")).expect("node ids are topic-safe")
}

struct Shared {
    client: Client,
    node_id: String,
    next_call: AtomicU64,
    next_transfer: AtomicU64,
    transfer_base: u64,
    reassembler: Mutex<Reassembler>,
    pending: Mutex<HashMap<u64, Sender<RfcMessage>>>,
    handlers: RwLock<HashMap<String, RfcHandler>>,
    push_count: AtomicU64,
}

impl Shared {
    fn alloc_transfer_id(&self) -> u64 {
        // Unique across nodes with overwhelming probability: a per-node
        // FNV base xor a local counter.
        self.transfer_base ^ self.next_transfer.fetch_add(1, Ordering::Relaxed)
    }

    /// Feeds one MQTT frame into the reassembler; returns a completed
    /// envelope when a transfer finishes.
    fn ingest(&self, publish: &Publish) -> Option<RfcMessage> {
        // Periodic lazy eviction of stale partial transfers.
        if self.push_count.fetch_add(1, Ordering::Relaxed) % 256 == 255 {
            self.reassembler.lock().evict_stale();
        }
        let result = self
            .reassembler
            .lock()
            .push(publish.topic.as_str(), publish.payload.clone());
        match result {
            Ok(PushResult::Complete(body)) => RfcMessage::decode(body).ok(),
            _ => None,
        }
    }

    /// Publishes every envelope's chunks, in order, as one batch: all in
    /// flight at once behind one acknowledgement wait.
    fn send_envelopes(&self, envelopes: &[(TopicName, RfcMessage)]) -> Result<()> {
        let config = BatchConfig::default();
        let frames: Vec<(&TopicName, Bytes)> = envelopes
            .iter()
            .flat_map(|(topic, msg)| {
                let frames = split(&msg.encode(), self.alloc_transfer_id(), &config);
                frames.into_iter().map(move |frame| (topic, frame))
            })
            .collect();
        self.client.publish_all(frames, QOS, false)?;
        Ok(())
    }
}

/// A node's MQTTFC endpoint: exposes local functions and calls remote ones.
///
/// Clone-cheap; clones share all state.
#[derive(Clone)]
pub struct FleetController {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for FleetController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetController")
            .field("node_id", &self.shared.node_id)
            .finish()
    }
}

impl FleetController {
    /// Wraps an MQTT client, subscribing to this node's response inbox.
    pub fn new(client: Client, node_id: impl Into<String>) -> Result<Self> {
        let node_id = node_id.into();
        let shared = Arc::new(Shared {
            client: client.clone(),
            node_id: node_id.clone(),
            transfer_base: fnv1a64(node_id.as_bytes()),
            next_call: AtomicU64::new(1),
            next_transfer: AtomicU64::new(1),
            reassembler: Mutex::new(Reassembler::new(BatchConfig::default())),
            pending: Mutex::new(HashMap::new()),
            handlers: RwLock::new(HashMap::new()),
            push_count: AtomicU64::new(0),
        });

        // Inbox subscription: resolve pending calls.
        let inbox_shared = Arc::downgrade(&shared);
        let inbox = inbox_topic(&node_id);
        client.subscribe_with(
            &TopicFilter::new(inbox.as_str()).expect("inbox topic is a valid filter"),
            QOS,
            Arc::new(move |publish| {
                let Some(shared) = inbox_shared.upgrade() else {
                    return;
                };
                if let Some(msg) = shared.ingest(publish) {
                    let waiter = shared.pending.lock().remove(&msg.call_id);
                    if let Some(tx) = waiter {
                        let _ = tx.send(msg);
                    }
                }
            }),
        )?;

        Ok(FleetController { shared })
    }

    /// The node id this controller identifies as.
    pub fn node_id(&self) -> &str {
        &self.shared.node_id
    }

    /// The underlying MQTT client.
    pub fn client(&self) -> &Client {
        &self.shared.client
    }

    /// Exposes a function: subscribes to its topic and invokes `handler`
    /// for every complete request. Replies are sent automatically when the
    /// caller asked for one.
    pub fn expose(&self, function: &str, handler: RfcHandler) -> Result<()> {
        if function.is_empty() || function.contains(['/', '+', '#']) {
            return Err(RfcError::BadFunction(function.to_owned()));
        }
        {
            let mut handlers = self.shared.handlers.write();
            if handlers.contains_key(function) {
                return Err(RfcError::BadFunction(format!("{function} already exposed")));
            }
            handlers.insert(function.to_owned(), handler);
        }
        let topic = function_topic(function);
        let shared = Arc::downgrade(&self.shared);
        let fn_name = function.to_owned();
        let subscribed = self.shared.client.subscribe_with(
            &TopicFilter::new(topic.as_str()).expect("fn topic is a valid filter"),
            QOS,
            Arc::new(move |publish| {
                let Some(shared) = shared.upgrade() else {
                    return;
                };
                let Some(msg) = shared.ingest(publish) else {
                    return;
                };
                if msg.kind != RfcKind::Request || msg.function != fn_name {
                    return;
                }
                let handler = shared.handlers.read().get(&fn_name).cloned();
                let Some(handler) = handler else { return };
                let outcome = handler(&msg);
                if let Some(reply_to) = &msg.reply_to {
                    let Ok(topic) = TopicName::new(reply_to.clone()) else {
                        return;
                    };
                    let reply = match outcome {
                        Ok(payload) => RfcMessage {
                            call_id: msg.call_id,
                            function: msg.function.clone(),
                            sender: shared.node_id.clone(),
                            reply_to: None,
                            kind: RfcKind::Response,
                            payload,
                        },
                        Err(desc) => RfcMessage {
                            call_id: msg.call_id,
                            function: msg.function.clone(),
                            sender: shared.node_id.clone(),
                            reply_to: None,
                            kind: RfcKind::Error,
                            payload: Bytes::from(desc.into_bytes()),
                        },
                    };
                    let _ = shared.send_envelopes(&[(topic, reply)]);
                }
            }),
        );
        // Not exposed after all? Then a retry must not find the name taken.
        subscribed.inspect_err(|_| {
            self.shared.handlers.write().remove(function);
        })?;
        Ok(())
    }

    /// Removes an exposed function.
    pub fn unexpose(&self, function: &str) -> Result<()> {
        self.shared.handlers.write().remove(function);
        let topic = function_topic(function);
        self.shared
            .client
            .unsubscribe(&TopicFilter::new(topic.as_str()).expect("valid"))?;
        Ok(())
    }

    /// Fire-and-forget call: publishes the request and returns once its
    /// chunks are acknowledged (QoS 1). The one-call case of
    /// [`FleetController::call_all`].
    pub fn call(&self, function: &str, payload: impl Into<Bytes>) -> Result<()> {
        self.call_all([(function, payload)])
    }

    /// Fire-and-forget calls of several functions: every request's chunks
    /// go out in the order given, all in flight at once, and this returns
    /// once every one is acknowledged (QoS 1) — one wait for the batch,
    /// not one per call ([`Client::publish_all`]). On an error some
    /// requests may have been delivered and others not.
    pub fn call_all<'f, P: Into<Bytes>>(
        &self,
        calls: impl IntoIterator<Item = (&'f str, P)>,
    ) -> Result<()> {
        let envelopes: Vec<(TopicName, RfcMessage)> = calls
            .into_iter()
            .map(|(function, payload)| {
                let msg = RfcMessage {
                    call_id: self.shared.next_call.fetch_add(1, Ordering::Relaxed),
                    function: function.to_owned(),
                    sender: self.shared.node_id.clone(),
                    reply_to: None,
                    kind: RfcKind::Request,
                    payload: payload.into(),
                };
                (function_topic(function), msg)
            })
            .collect();
        self.shared.send_envelopes(&envelopes)
    }

    /// Calls a function and blocks for its reply (up to 30 s).
    pub fn call_with_reply(&self, function: &str, payload: impl Into<Bytes>) -> Result<Bytes> {
        self.call_with_reply_timeout(function, payload, CALL_TIMEOUT)
    }

    /// Calls a function and blocks for its reply with an explicit deadline.
    pub fn call_with_reply_timeout(
        &self,
        function: &str,
        payload: impl Into<Bytes>,
        timeout: Duration,
    ) -> Result<Bytes> {
        let call_id = self.shared.next_call.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        self.shared.pending.lock().insert(call_id, tx);
        let msg = RfcMessage {
            call_id,
            function: function.to_owned(),
            sender: self.shared.node_id.clone(),
            reply_to: Some(inbox_topic(&self.shared.node_id).into_string()),
            kind: RfcKind::Request,
            payload: payload.into(),
        };
        if let Err(e) = self
            .shared
            .send_envelopes(&[(function_topic(function), msg)])
        {
            self.shared.pending.lock().remove(&call_id);
            return Err(e);
        }
        match rx.recv_timeout(timeout) {
            Ok(reply) => match reply.kind {
                RfcKind::Response => Ok(reply.payload),
                RfcKind::Error => Err(RfcError::Remote(
                    String::from_utf8_lossy(&reply.payload).into_owned(),
                )),
                RfcKind::Request => Err(RfcError::Wire(crate::wire::WireError::Invalid(
                    "request arrived in inbox",
                ))),
            },
            Err(_) => {
                self.shared.pending.lock().remove(&call_id);
                Err(RfcError::Timeout)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdflmq_mqtt::packet::{Connack, Suback, SubackCode};
    use sdflmq_mqtt::{Broker, ClientOptions, ConnectReturnCode, Packet};

    fn controller(broker: &Broker, id: &str) -> FleetController {
        let client = Client::connect(broker, ClientOptions::new(id)).unwrap();
        FleetController::new(client, id).unwrap()
    }

    #[test]
    fn fire_and_forget_invokes_handler() {
        let broker = Broker::start_default();
        let callee = controller(&broker, "callee");
        let (tx, rx) = bounded(1);
        callee
            .expose(
                "notify",
                Arc::new(move |msg| {
                    let _ = tx.send(msg.payload.clone());
                    Ok(Bytes::new())
                }),
            )
            .unwrap();
        let caller = controller(&broker, "caller");
        caller.call("notify", b"hello".as_slice()).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(2)).unwrap(),
            Bytes::from_static(b"hello")
        );
    }

    #[test]
    fn call_all_delivers_every_request_in_order() {
        let broker = Broker::start_default();
        let callee = controller(&broker, "callee");
        let (tx, rx) = crossbeam::channel::unbounded();
        for function in ["a", "b"] {
            let tx = tx.clone();
            callee
                .expose(
                    function,
                    Arc::new(move |msg| {
                        let _ = tx.send((msg.function.clone(), msg.payload.clone()));
                        Ok(Bytes::new())
                    }),
                )
                .unwrap();
        }
        let caller = controller(&broker, "caller");
        // The middle request spans several chunks.
        let big: Bytes = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let calls = [
            ("a", Bytes::from_static(b"1")),
            ("b", big.clone()),
            ("a", Bytes::from_static(b"3")),
        ];
        caller.call_all(calls.clone()).unwrap();
        for (function, payload) in calls {
            let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got, (function.to_owned(), payload));
        }
        caller.call_all([] as [(&str, Bytes); 0]).unwrap();
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn call_with_reply_roundtrips() {
        let broker = Broker::start_default();
        let callee = controller(&broker, "svc");
        callee
            .expose(
                "double",
                Arc::new(|msg| {
                    let n: u64 = String::from_utf8_lossy(&msg.payload).parse().unwrap();
                    Ok(Bytes::from((n * 2).to_string().into_bytes()))
                }),
            )
            .unwrap();
        let caller = controller(&broker, "cli");
        let reply = caller.call_with_reply("double", b"21".as_slice()).unwrap();
        assert_eq!(&reply[..], b"42");
    }

    #[test]
    fn remote_errors_propagate() {
        let broker = Broker::start_default();
        let callee = controller(&broker, "svc");
        callee
            .expose("fail", Arc::new(|_| Err("nope".to_owned())))
            .unwrap();
        let caller = controller(&broker, "cli");
        match caller.call_with_reply("fail", b"".as_slice()) {
            Err(RfcError::Remote(msg)) => assert_eq!(msg, "nope"),
            other => panic!("expected remote error, got {other:?}"),
        }
    }

    #[test]
    fn call_to_missing_function_times_out() {
        let broker = Broker::start_default();
        let caller = controller(&broker, "cli");
        let err = caller
            .call_with_reply_timeout("ghost", b"".as_slice(), Duration::from_millis(200))
            .unwrap_err();
        assert_eq!(err, RfcError::Timeout);
    }

    #[test]
    fn large_payload_batches_across_chunks() {
        let broker = Broker::start_default();
        let callee = controller(&broker, "svc");
        callee
            .expose(
                "echo_len",
                Arc::new(|msg| Ok(Bytes::from(msg.payload.len().to_string().into_bytes()))),
            )
            .unwrap();
        let caller = controller(&broker, "cli");
        // ~1.2 MB of structured data → multiple 64 KiB chunks even after
        // compression.
        let payload: Vec<u8> = (0..1_200_000u32).map(|i| (i % 253) as u8).collect();
        let reply = caller.call_with_reply("echo_len", payload.clone()).unwrap();
        assert_eq!(String::from_utf8_lossy(&reply), payload.len().to_string());
    }

    #[test]
    fn concurrent_callers_resolve_independently() {
        let broker = Broker::start_default();
        let callee = controller(&broker, "svc");
        callee
            .expose("id", Arc::new(|msg| Ok(msg.payload.clone())))
            .unwrap();
        let caller = controller(&broker, "cli");
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let c = caller.clone();
            handles.push(std::thread::spawn(move || {
                let body = i.to_string();
                let reply = c.call_with_reply("id", body.clone().into_bytes()).unwrap();
                assert_eq!(String::from_utf8_lossy(&reply), body);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn a_failed_expose_can_be_retried() {
        // A bare link whose far end accepts the connection, grants the
        // inbox subscription, and then never answers again.
        let (near, far) = sdflmq_mqtt::transport::link();
        let answer = |packet| far.send_packet(&packet).unwrap();
        answer(Packet::Connack(Connack {
            session_present: false,
            code: ConnectReturnCode::Accepted,
        }));
        answer(Packet::Suback(Suback {
            packet_id: 1,
            return_codes: vec![SubackCode::Granted(QoS::AtLeastOnce)],
        }));
        let options = ClientOptions {
            response_timeout: Duration::from_millis(20),
            ..ClientOptions::new("n")
        };
        let client = Client::connect_link(near, options).unwrap();
        let ctl = FleetController::new(client, "n").unwrap();
        for _ in 0..2 {
            let err = ctl.expose("f", Arc::new(|_| Ok(Bytes::new()))).unwrap_err();
            assert_eq!(err, RfcError::Mqtt(sdflmq_mqtt::MqttError::Timeout));
        }
    }

    #[test]
    fn expose_validates_names() {
        let broker = Broker::start_default();
        let ctl = controller(&broker, "n");
        assert!(ctl.expose("", Arc::new(|_| Ok(Bytes::new()))).is_err());
        assert!(ctl.expose("a/b", Arc::new(|_| Ok(Bytes::new()))).is_err());
        assert!(ctl.expose("ok", Arc::new(|_| Ok(Bytes::new()))).is_ok());
        assert!(
            ctl.expose("ok", Arc::new(|_| Ok(Bytes::new()))).is_err(),
            "double expose rejected"
        );
    }

    #[test]
    fn two_exposed_functions_dispatch_separately() {
        let broker = Broker::start_default();
        let ctl = controller(&broker, "svc");
        ctl.expose("a", Arc::new(|_| Ok(Bytes::from_static(b"A"))))
            .unwrap();
        ctl.expose("b", Arc::new(|_| Ok(Bytes::from_static(b"B"))))
            .unwrap();
        let caller = controller(&broker, "cli");
        assert_eq!(
            &caller.call_with_reply("a", b"".as_slice()).unwrap()[..],
            b"A"
        );
        assert_eq!(
            &caller.call_with_reply("b", b"".as_slice()).unwrap()[..],
            b"B"
        );
    }
}
