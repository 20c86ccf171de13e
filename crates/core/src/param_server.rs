//! The parameter server (paper §III.B.2).
//!
//! "The Parameter Server would listen to a public topic that is designated
//! for sending and receiving Global models. Thus, it serves as a repository
//! for global models." The root aggregator publishes each round's global
//! on `sdflmq/session/<sid>/global` itself, where every contributor's
//! global-update synchronizer picks it up; the server is one more
//! subscriber of that topic and keeps the newest global per session. It
//! publishes nothing, so no round waits for it and a session runs with
//! or without one.
//!
//! The record is keyed by session id alone and only moves forward: a
//! session id created again after the coordinator collected the old
//! session resumes in its record only once the new session passes the old
//! one's last round. Telling the two apart needs a session-incarnation
//! marker on the wire, which the blob header does not carry.

use crate::blob::BlobChannel;
use crate::error::Result;
use crate::ids::SessionId;
use crate::messages::{Blob, UpdateMeta};
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
    /// Encoded parameter payload, exactly as the root published it (the
    /// server is codec-agnostic: delta payloads can only be reconstructed
    /// by clients holding the base).
    pub params: bytes::Bytes,
    /// Total sample weight behind the aggregate.
    pub weight: u64,
    /// The payload's update-codec metadata.
    pub update: UpdateMeta,
}

/// A running parameter server node.
pub struct ParamServer {
    repo: Arc<Mutex<HashMap<SessionId, GlobalModel>>>,
    blobs: BlobChannel,
}

impl std::fmt::Debug for ParamServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParamServer").finish_non_exhaustive()
    }
}

impl ParamServer {
    /// Starts a parameter server on `broker`. It can run on the same host
    /// as the coordinator or a separate one (paper §III.B.2) — here that
    /// simply means any broker the session's root can reach.
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
        let blobs = BlobChannel::new(client, PARAM_SERVER_ID, batch);
        let repo: Arc<Mutex<HashMap<SessionId, GlobalModel>>> = Arc::default();

        let repo_in = Arc::clone(&repo);
        blobs.subscribe(
            &TopicFilter::new("sdflmq/session/+/global").expect("valid filter"),
            Arc::new(move |blob: Blob, update: UpdateMeta| {
                let mut repo = repo_in.lock();
                // Stale or duplicate rounds (a re-delegated root that
                // publishes twice) leave the record as it is.
                let stored = repo.get(&blob.session_id).map(|model| model.round);
                if stored.is_none_or(|round| blob.round > round) {
                    let model = GlobalModel {
                        round: blob.round,
                        params: blob.params,
                        weight: blob.weight,
                        update,
                    };
                    repo.insert(blob.session_id, model);
                }
            }),
        )?;

        Ok(ParamServer { repo, blobs })
    }

    /// Reads the stored global model for a session, if any.
    pub fn global(&self, session: &SessionId) -> Option<GlobalModel> {
        self.repo.lock().get(session).cloned()
    }

    /// Data-plane transfers this server received but dropped as corrupt.
    pub fn dropped_transfers(&self) -> u64 {
        self.blobs.dropped_transfers()
    }

    /// Payload bytes the server's receive path has copied. A global that
    /// arrives as a single uncompressed chunk is stored as a slice of the
    /// received frame. At the default 512 KiB chunk budget that is every
    /// dense global of up to ~131k parameters, the paper's MLP included,
    /// so this stays 0; only a larger, multi-chunk global is concatenated
    /// and counted.
    pub fn copied_bytes(&self) -> u64 {
        self.blobs.copied_bytes()
    }

    /// Number of sessions with stored globals.
    pub fn sessions_tracked(&self) -> usize {
        self.repo.lock().len()
    }
}
