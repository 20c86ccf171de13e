//! The parameter server (paper §III.B.2).
//!
//! "The Parameter Server would listen to a public topic that is designated
//! for sending and receiving Global models. Thus, it serves as a repository
//! for global models." The root aggregator publishes its round aggregate to
//! `sdflmq/session/<sid>/ps`; the server stores it and broadcasts it on
//! `sdflmq/session/<sid>/global`, where every contributor's global-update
//! synchronizer picks it up.

use crate::blob::BlobChannel;
use crate::error::{CoreError, Result};
use crate::ids::SessionId;
use crate::messages::{Blob, UpdateMeta};
use crate::topics::global_topic;
use parking_lot::Mutex;
use sdflmq_mqtt::{Broker, Client, ClientOptions, Dialer, TopicFilter};
use sdflmq_mqttfc::BatchConfig;
use std::collections::HashMap;
use std::sync::Arc;

/// The parameter server's well-known node id.
pub const PARAM_SERVER_ID: &str = "paramserver";

/// A stored global model.
#[derive(Debug, Clone)]
pub struct GlobalModel {
    /// Round the model was produced in.
    pub round: u32,
    /// Encoded parameter payload, exactly as the root aggregate carried
    /// it (the server is codec-agnostic: delta payloads can only be
    /// reconstructed by clients holding the base).
    pub params: bytes::Bytes,
    /// Total sample weight behind the aggregate.
    pub weight: u64,
    /// The payload's update-codec metadata.
    pub update: UpdateMeta,
}

/// A running parameter server node.
pub struct ParamServer {
    repo: Arc<Mutex<HashMap<SessionId, GlobalModel>>>,
    blobs: Arc<BlobChannel>,
}

impl std::fmt::Debug for ParamServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParamServer").finish_non_exhaustive()
    }
}

impl ParamServer {
    /// Starts a parameter server on `broker`. It can run on the same host
    /// as the coordinator or a separate one (paper §III.B.2) — here that
    /// simply means any broker the session's clients can reach.
    pub fn start(broker: &Broker, batch: BatchConfig) -> Result<ParamServer> {
        ParamServer::start_with_dialer(broker, batch, None)
    }

    /// Starts a parameter server whose MQTT client redials the broker
    /// after a restart. The in-memory global-model repository lives in
    /// this process, so stored globals survive a broker crash; the
    /// persistent session resumes the subscription server-side.
    pub fn start_with_dialer(
        broker: &Broker,
        batch: BatchConfig,
        dialer: Option<Dialer>,
    ) -> Result<ParamServer> {
        let mut mqtt_options = ClientOptions::new(PARAM_SERVER_ID);
        if let Some(dialer) = dialer {
            mqtt_options.clean_session = false;
            mqtt_options.dialer = Some(dialer);
        }
        let client = Client::connect(broker, mqtt_options)?;
        let blobs = Arc::new(BlobChannel::new(client, PARAM_SERVER_ID, batch));
        let repo: Arc<Mutex<HashMap<SessionId, GlobalModel>>> =
            Arc::new(Mutex::new(HashMap::new()));

        let repo_in = Arc::clone(&repo);
        // Weak: the handler is stored inside the very client `blobs`
        // wraps, so a strong handle would keep that client — and its
        // dispatcher thread — alive after the server is dropped.
        let rebroadcast = Arc::downgrade(&blobs);
        blobs.subscribe(
            &TopicFilter::new("sdflmq/session/+/ps").expect("valid filter"),
            Arc::new(move |blob: Blob, update: UpdateMeta| {
                let session = blob.session_id.clone();
                let model = GlobalModel {
                    round: blob.round,
                    params: blob.params.clone(),
                    weight: blob.weight,
                    update,
                };
                {
                    let mut repo = repo_in.lock();
                    let entry = repo.entry(session.clone());
                    use std::collections::hash_map::Entry;
                    match entry {
                        Entry::Occupied(mut slot) => {
                            // Ignore stale or duplicate rounds.
                            if blob.round <= slot.get().round {
                                return;
                            }
                            slot.insert(model);
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(model);
                        }
                    }
                }
                // Global update synchronizer: broadcast to all clients in
                // the payload codec the root aggregate carried (the
                // coordinator stamped it into the root's role, so echoing
                // it is the negotiation result, not a hardcoded
                // server-side choice).
                let global = Blob {
                    session_id: session.clone(),
                    round: blob.round,
                    sender: PARAM_SERVER_ID.to_owned(),
                    weight: blob.weight,
                    params: blob.params,
                };
                let Some(rebroadcast) = rebroadcast.upgrade() else {
                    return;
                };
                let _ = rebroadcast.publish_update(&global_topic(&session), &global, &update);
            }),
        )?;

        Ok(ParamServer { repo, blobs })
    }

    /// Reads the stored global model for a session, if any.
    pub fn global(&self, session: &SessionId) -> Option<GlobalModel> {
        self.repo.lock().get(session).cloned()
    }

    /// Re-broadcasts the stored global for a session on demand (catch-up
    /// for clients that missed the original push — e.g. after a broker
    /// bridge flap), in the same data-plane form it arrived in.
    pub fn rebroadcast(&self, session: &SessionId) -> Result<()> {
        let Some(model) = self.global(session) else {
            return Err(CoreError::UnknownSession(session.as_str().into()));
        };
        let global = Blob {
            session_id: session.clone(),
            round: model.round,
            sender: PARAM_SERVER_ID.to_owned(),
            weight: model.weight,
            params: model.params,
        };
        self.blobs
            .publish_update(&global_topic(session), &global, &model.update)
    }

    /// Data-plane transfers this server received but dropped as corrupt.
    pub fn dropped_transfers(&self) -> u64 {
        self.blobs.dropped_transfers()
    }

    /// Payload bytes the server's receive path has copied. The store-and-
    /// rebroadcast pipeline is otherwise zero-copy: a root aggregate that
    /// arrives as a single uncompressed chunk is stored and rebroadcast
    /// as a slice of the received frame. At the default 512 KiB chunk
    /// budget that is every dense aggregate of up to ~131k parameters,
    /// the paper's MLP included, so this stays 0; only a larger,
    /// multi-chunk aggregate is concatenated and counted.
    pub fn copied_bytes(&self) -> u64 {
        self.blobs.copied_bytes()
    }

    /// Number of sessions with stored globals.
    pub fn sessions_tracked(&self) -> usize {
        self.repo.lock().len()
    }
}
