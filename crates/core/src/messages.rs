//! Coordination message payloads.
//!
//! Control-plane messages (session management, role assignments, stats)
//! travel as binary [`crate::wirecodec`] frames. The paper's format
//! encodes "session stats and cluster topologies into JSON format"; this
//! implementation keeps JSON only for the retained topology document.
//! This module holds only the plain message *types*; their wire schemas
//! (one declarative definition per message) live in [`crate::wirecodec`].
//!
//! Data-plane messages (model parameters) are [`Blob`]s: a binary
//! metadata header plus the encoded parameter payload, shipped through
//! MQTTFC batching.

use crate::error::{CoreError, Result};
use crate::ids::{ClientId, ModelId, SessionId};
use crate::roles::{PreferredRole, RoleSpec};
use crate::wirecodec::{decode_blob_meta, encode_blob_meta, WireVersion};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use sdflmq_sim::SystemStats;

/// Request to create a new FL session (paper Fig. 4a).
#[derive(Debug, Clone, PartialEq)]
pub struct NewSessionRequest {
    /// Proposed session id.
    pub session_id: SessionId,
    /// The creating client.
    pub client_id: ClientId,
    /// Model to be optimized.
    pub model_name: ModelId,
    /// Wall-clock session budget in seconds.
    pub session_time_secs: f64,
    /// Minimum contributors required to start.
    pub capacity_min: usize,
    /// Maximum contributors accepted.
    pub capacity_max: usize,
    /// How long the coordinator waits for contributors, in seconds.
    pub waiting_time_secs: f64,
    /// Number of federated rounds to run.
    pub fl_rounds: u32,
    /// The creator's preferred role.
    pub preferred_role: PreferredRole,
    /// Highest update-codec id the creator wants for the session's data
    /// plane ([`sdflmq_nn::codec`] ids; 0 = dense f32). The coordinator
    /// caps it at every member's support.
    pub codec: u8,
}

/// Request to join an existing session (paper Fig. 4b).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinRequest {
    /// Session to join.
    pub session_id: SessionId,
    /// The joining client.
    pub client_id: ClientId,
    /// Model the client expects to train.
    pub model_name: ModelId,
    /// Preferred role.
    pub preferred_role: PreferredRole,
    /// Number of local training samples (FedAvg weight).
    pub num_samples: u64,
    /// Current system stats for initial role placement.
    pub stats: StatsMsg,
    /// Highest update-codec id this client supports (0 = dense only; see
    /// [`sdflmq_nn::codec`]).
    pub codec: u8,
}

/// System stats in wire form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsMsg {
    /// Free memory in bytes.
    pub free_memory: u64,
    /// Available CPU throughput (FLOP/s).
    pub available_flops: f64,
    /// Memory utilization fraction.
    pub memory_utilization: f64,
}

impl StatsMsg {
    /// Converts from the simulator's stats struct.
    pub fn from_stats(s: SystemStats) -> StatsMsg {
        StatsMsg {
            free_memory: s.free_memory,
            available_flops: s.available_flops,
            memory_utilization: s.memory_utilization,
        }
    }

    /// Converts into the simulator's stats struct.
    pub fn into_stats(self) -> SystemStats {
        SystemStats {
            free_memory: self.free_memory,
            available_flops: self.available_flops,
            memory_utilization: self.memory_utilization,
        }
    }
}

/// Client → coordinator liveness ping: "my contribution for `round` is on
/// the wire". Sent alongside `send_local` (and by aggregators when they
/// forward an aggregate), it lets the coordinator distinguish a straggler
/// that produced nothing from a healthy client stuck behind a stalled
/// aggregation pipeline — only the former accrues missed-round penalties.
#[derive(Debug, Clone, PartialEq)]
pub struct ContribMsg {
    /// Session the contribution belongs to.
    pub session_id: SessionId,
    /// Contributing client.
    pub client_id: ClientId,
    /// Round the contribution targets (1-based).
    pub round: u32,
}

/// Client → coordinator round completion report (paper §III.E.4).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundDone {
    /// Session the report belongs to.
    pub session_id: SessionId,
    /// Reporting client.
    pub client_id: ClientId,
    /// Completed round (1-based).
    pub round: u32,
    /// Fresh stats for the load balancer.
    pub stats: StatsMsg,
}

/// Coordinator → client control commands, delivered to the per-client
/// control function inside a [`crate::wirecodec::ControlMsg::Ctrl`]
/// envelope that names the target session.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMsg {
    /// Take a role for the coming round (paper Fig. 5/6 `set_role`).
    SetRole(RoleSpec),
    /// Release the current aggregation position (`reset_role`).
    ResetRole,
    /// Begin training for `round`.
    RoundStart {
        /// 1-based round number.
        round: u32,
    },
    /// The session finished successfully.
    SessionComplete,
    /// The session was aborted; the string describes why.
    Abort(String),
    /// This client was removed from the session (dropout eviction); the
    /// rest of the fleet continues without it.
    Evicted {
        /// Why the coordinator evicted the client.
        reason: String,
    },
}

/// Data-plane codec metadata carried in a blob header: how the parameter
/// payload is encoded. The all-zero default is dense f32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateMeta {
    /// Update-codec id (`sdflmq_nn::codec`: 0 dense, 1 fp16, 2 int8,
    /// 3 top-k sparse delta).
    pub codec: u8,
    /// Decoded element count (0 = unspecified).
    pub elems: u64,
    /// For delta codecs: the global round of the base vector the payload
    /// is a delta against (0 = the all-zeros base, i.e. no global applied
    /// yet). Receivers whose applied global round differs cannot
    /// reconstruct the update.
    pub delta_base: u32,
}

/// A parameter blob: metadata header + encoded parameter payload (raw
/// little-endian `f32`s under the default dense codec).
#[derive(Debug, Clone, PartialEq)]
pub struct Blob {
    /// Session the parameters belong to.
    pub session_id: SessionId,
    /// Round the parameters were produced in.
    pub round: u32,
    /// Producing node: the client id of the trainer or aggregator that
    /// published it (the root's, for a global).
    pub sender: String,
    /// FedAvg weight: number of samples this vector represents.
    pub weight: u64,
    /// Encoded parameter bytes (`sdflmq_nn::params` format for dense, or
    /// one of the `sdflmq_nn::codec` encodings — see [`UpdateMeta`]).
    pub params: Bytes,
}

impl Blob {
    /// Encodes to bytes: u32 meta length + binary metadata + params,
    /// declaring the dense codec. Senders of non-dense payloads use
    /// [`Blob::encode_update`].
    pub fn encode(&self) -> Bytes {
        self.encode_update(&UpdateMeta::default())
    }

    /// Encodes with explicit update-codec metadata in the header.
    pub fn encode_update(&self, update: &UpdateMeta) -> Bytes {
        self.encode_update_into(WireVersion::LATEST, update, Vec::new())
    }

    /// Like [`Blob::encode_update`], but reusing `buf` as the backing
    /// storage (cleared first). Byte-identical to [`Blob::encode_update`].
    /// There is one metadata version, so `_version` is always
    /// [`WireVersion::LATEST`].
    pub fn encode_update_into(
        &self,
        _version: WireVersion,
        update: &UpdateMeta,
        mut buf: Vec<u8>,
    ) -> Bytes {
        let header = self.encode_header(update);
        buf.clear();
        buf.reserve(header.len() + self.params.len());
        let mut out = BytesMut::from(buf);
        out.put_slice(&header);
        out.put_slice(&self.params);
        out.freeze()
    }

    /// The encoded blob up to its parameters: u32 meta length + binary
    /// metadata. `header ++ params` is [`Blob::encode_update`], so a
    /// sender can frame the two parts without joining them.
    pub fn encode_header(&self, update: &UpdateMeta) -> Vec<u8> {
        let meta = encode_blob_meta(self, update);
        let mut header = Vec::with_capacity(4 + meta.len());
        header.put_u32(meta.len() as u32);
        header.put_slice(&meta);
        header
    }

    /// Decodes from bytes produced by [`Blob::encode`].
    pub fn decode(input: Bytes) -> Result<Blob> {
        Ok(Blob::decode_update(input)?.0)
    }

    /// Full decode: the blob, its update-codec metadata, and the metadata
    /// wire version (always [`WireVersion::LATEST`]: any other is
    /// refused).
    pub fn decode_update(mut input: Bytes) -> Result<(Blob, UpdateMeta, WireVersion)> {
        if input.remaining() < 4 {
            return Err(CoreError::Protocol("blob too short".into()));
        }
        let meta_len = input.get_u32() as usize;
        if input.remaining() < meta_len {
            return Err(CoreError::Protocol("blob meta truncated".into()));
        }
        let meta = decode_blob_meta(&input.split_to(meta_len))?;
        Ok((
            Blob {
                session_id: meta.session_id,
                round: meta.round,
                sender: meta.sender,
                weight: meta.weight,
                params: input,
            },
            UpdateMeta {
                codec: meta.codec,
                elems: meta.elems,
                delta_base: meta.delta_base,
            },
            WireVersion::LATEST,
        ))
    }
}

// Round-trip coverage for these message types lives with their wire
// schemas: unit tests in `crate::wirecodec` and property tests in
// `tests/proptests.rs`. Only the blob framing implemented *here* is
// tested here.
#[cfg(test)]
mod tests {
    use super::*;

    fn blob(params: Vec<u8>) -> Blob {
        Blob {
            session_id: SessionId::new("s9").unwrap(),
            round: 4,
            sender: "c3".into(),
            weight: 600,
            params: Bytes::from(params),
        }
    }

    #[test]
    fn blob_roundtrip() {
        let blob = blob(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(Blob::decode(blob.encode()).unwrap(), blob);
    }

    #[test]
    fn blob_update_meta_roundtrips_and_defaults() {
        let blob = blob(vec![1u8, 2, 3]);
        let update = UpdateMeta {
            codec: 3,
            elems: 109_386,
            delta_base: 3,
        };
        let frame = blob.encode_update(&update);
        let (decoded, got_update, got_version) = Blob::decode_update(frame).unwrap();
        assert_eq!(decoded, blob);
        assert_eq!(got_update, update);
        assert_eq!(got_version, WireVersion::LATEST);
        // A plain `encode` declares the dense default.
        let (_, update, _) = Blob::decode_update(blob.encode()).unwrap();
        assert_eq!(update, UpdateMeta::default());
    }

    #[test]
    fn encode_update_into_reuses_buffer_and_matches() {
        let blob = blob(vec![1u8, 2, 3, 4, 5]);
        let update = UpdateMeta {
            codec: 2,
            elems: 5,
            delta_base: 1,
        };
        let plain = blob.encode_update(&update);
        // A dirty recycled buffer must not leak into the frame.
        let recycled = vec![0xAAu8; 256];
        let pooled = blob.encode_update_into(WireVersion::LATEST, &update, recycled);
        assert_eq!(&pooled[..], &plain[..]);
    }

    #[test]
    fn header_then_params_is_the_encoded_blob() {
        let blob = blob(vec![8u8; 300]);
        let update = UpdateMeta {
            codec: 1,
            elems: 150,
            delta_base: 0,
        };
        let joined = [&blob.encode_header(&update)[..], &blob.params[..]].concat();
        assert_eq!(&joined[..], &blob.encode_update(&update)[..]);
    }

    #[test]
    fn blob_rejects_garbage() {
        assert!(Blob::decode(Bytes::from_static(b"xx")).is_err());
        assert!(Blob::decode(Bytes::from_static(&[0, 0, 0, 99, b'{'])).is_err());
        // A JSON metadata document, as version-1 senders wrote it.
        let json = br#"{"round":2,"sender":"c1","session_id":"s1","weight":5}"#;
        let mut frame = (json.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(json);
        assert!(matches!(
            Blob::decode(Bytes::from(frame)),
            Err(CoreError::Protocol(_))
        ));
    }
}
