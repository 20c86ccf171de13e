//! Client-side model repository (paper §III.B.2).
//!
//! Tracks one model per session the client participates in: the local
//! parameter vector, its FedAvg weight, and the last global round applied.
//! The training pipeline reads/writes through this controller, and the
//! global-update synchronizer replaces the parameters when a new global
//! model arrives.
//!
//! The controller is also the home of the data plane's per-model codec
//! state: the **last applied global** (the shared base vector delta
//! codecs encode against) and the **error-feedback residual** (what lossy
//! encodings of this client's own updates still owe the fleet — folded
//! into the next round's encoding so quantization error corrects instead
//! of compounding). Both live here rather than in the codec because they
//! are properties of *this model's stream*, not of the encoding.

use crate::error::{CoreError, Result};
use crate::ids::SessionId;
use crate::messages::UpdateMeta;
use sdflmq_nn::codec::UpdateCodec;
use sdflmq_nn::parallel::WorkerPool;
use std::collections::HashMap;
use std::sync::Arc;

/// State of one session's model on this client.
///
/// The parameter vectors are shared, not cloned: a send hands the node
/// core the same allocation `params` holds, and an applied global is one
/// allocation behind both `params` and `last_global`.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// Current flat parameters.
    pub params: Arc<Vec<f32>>,
    /// Number of local samples (FedAvg weight).
    pub num_samples: u64,
    /// Last global round applied (0 = none yet).
    pub global_round: u32,
    /// The last applied global model — the base vector delta codecs
    /// encode/decode against. Empty until the first global arrives
    /// (delta base round 0 = the all-zeros vector).
    pub last_global: Arc<Vec<f32>>,
    /// Error-feedback residual for this model's outgoing lossy updates.
    pub residual: Vec<f32>,
}

/// Per-session model store.
#[derive(Debug, Default)]
pub struct ModelController {
    models: HashMap<SessionId, ModelEntry>,
}

impl ModelController {
    /// Creates an empty controller.
    pub fn new() -> ModelController {
        ModelController::default()
    }

    /// Registers or replaces the local model for a session. Codec state
    /// (global marker, base, residual) survives local re-training.
    pub fn set_model(&mut self, session: &SessionId, params: Vec<f32>, num_samples: u64) {
        let params = Arc::new(params);
        match self.models.get_mut(session) {
            Some(entry) => {
                entry.params = params;
                entry.num_samples = num_samples;
            }
            None => {
                self.models.insert(
                    session.clone(),
                    ModelEntry {
                        params,
                        num_samples,
                        global_round: 0,
                        last_global: Arc::default(),
                        residual: Vec::new(),
                    },
                );
            }
        }
    }

    /// Reads the model entry for a session.
    pub fn get(&self, session: &SessionId) -> Result<&ModelEntry> {
        self.models
            .get(session)
            .ok_or_else(|| CoreError::NoModel(session.as_str().to_owned()))
    }

    /// Applies a global update: replaces parameters, advances the round
    /// marker, and records the new delta base — one allocation, the
    /// decoded vector itself, behind both. Stale updates (round ≤ last
    /// applied) are ignored and reported as `false`.
    ///
    /// A session with no registered model gets a tracking entry: a *pure
    /// aggregator* never calls `set_model`, but it must still follow the
    /// global stream — the applied round and base vector are what let it
    /// decode its children's delta contributions in later rounds.
    pub fn apply_global(
        &mut self,
        session: &SessionId,
        round: u32,
        params: Vec<f32>,
    ) -> Result<bool> {
        let entry = self
            .models
            .entry(session.clone())
            .or_insert_with(|| ModelEntry {
                params: Arc::default(),
                num_samples: 0,
                global_round: 0,
                last_global: Arc::default(),
                residual: Vec::new(),
            });
        if round <= entry.global_round {
            return Ok(false);
        }
        if entry.params.len() != params.len() && !entry.params.is_empty() {
            return Err(CoreError::Protocol(format!(
                "global update length {} != local {}",
                params.len(),
                entry.params.len()
            )));
        }
        let params = Arc::new(params);
        entry.last_global = Arc::clone(&params);
        entry.params = params;
        entry.global_round = round;
        Ok(true)
    }

    /// Encodes `params` as this session's outgoing update with `codec`,
    /// folding the stored error-feedback residual in (and updating it
    /// with what this encoding dropped). Returns the payload and the
    /// header metadata (codec id, element count, delta base round).
    pub fn encode_update(
        &mut self,
        session: &SessionId,
        codec: UpdateCodec,
        params: &[f32],
    ) -> Result<(Vec<u8>, UpdateMeta)> {
        let mut out = Vec::new();
        let meta =
            self.encode_update_into(session, codec, params, &WorkerPool::global(), &mut out)?;
        Ok((out, meta))
    }

    /// [`ModelController::encode_update`] into a caller-provided buffer
    /// (cleared first), running the codec's chunk kernels on `pool`.
    /// Output is bit-identical to the serial path at any thread count.
    pub fn encode_update_into(
        &mut self,
        session: &SessionId,
        codec: UpdateCodec,
        params: &[f32],
        pool: &WorkerPool,
        out: &mut Vec<u8>,
    ) -> Result<UpdateMeta> {
        let entry = self
            .models
            .get_mut(session)
            .ok_or_else(|| CoreError::NoModel(session.as_str().to_owned()))?;
        // Split borrows: the base is read from `last_global` while the
        // residual is written, both fields of the same entry.
        let ModelEntry {
            last_global,
            residual,
            global_round,
            ..
        } = entry;
        let (base, delta_base) = delta_base_of(codec, *global_round, last_global, params.len());
        codec.encode_into(params, base, residual, pool, out);
        Ok(UpdateMeta {
            codec: codec.id(),
            elems: params.len() as u64,
            delta_base,
        })
    }

    /// Encodes a relayed aggregate (no error feedback: an aggregator's
    /// truncation error has no next round to be retried in).
    pub fn encode_aggregate(
        &self,
        session: &SessionId,
        codec: UpdateCodec,
        params: &[f32],
    ) -> (Vec<u8>, UpdateMeta) {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let meta = self.encode_aggregate_into(
            session,
            codec,
            params,
            &WorkerPool::global(),
            &mut scratch,
            &mut out,
        );
        (out, meta)
    }

    /// [`ModelController::encode_aggregate`] into a caller-provided
    /// buffer. `scratch` is a reusable residual buffer the one-shot
    /// encode writes into and the caller then discards or pools (an
    /// aggregator's truncation error has no next round to be retried in).
    pub fn encode_aggregate_into(
        &self,
        session: &SessionId,
        codec: UpdateCodec,
        params: &[f32],
        pool: &WorkerPool,
        scratch: &mut Vec<f32>,
        out: &mut Vec<u8>,
    ) -> UpdateMeta {
        // Delta encoding needs a matching base; an aggregator without one
        // (no model registered, e.g. a pure relay) falls back to dense —
        // payloads are self-describing, so receivers follow the header.
        let (codec, base, delta_base) = match self.models.get(session) {
            Some(entry) if codec.is_delta() => {
                let (base, delta_base) =
                    delta_base_of(codec, entry.global_round, &entry.last_global, params.len());
                (codec, base, delta_base)
            }
            None if codec.is_delta() => (UpdateCodec::Dense, None, 0),
            _ => (codec, None, 0),
        };
        scratch.clear();
        codec.encode_into(params, base, scratch, pool, out);
        UpdateMeta {
            codec: codec.id(),
            elems: params.len() as u64,
            delta_base,
        }
    }

    /// True when decoding a payload with this metadata needs the stored
    /// base vector (and therefore the controller). Payloads for which
    /// this is false decode through
    /// [`ModelController::decode_update_stateless`] without any lock.
    pub fn decode_needs_base(update: &UpdateMeta) -> bool {
        UpdateCodec::from_id(update.codec).is_some_and(|c| c.is_delta()) && update.delta_base > 0
    }

    /// Decodes a payload that needs no base vector — full-vector codecs
    /// and zero-base deltas. A free function so the (model-sized) byte
    /// decode runs outside the controller mutex on the hot ingest path.
    pub fn decode_update_stateless(update: &UpdateMeta, payload: &[u8]) -> Result<Vec<f32>> {
        let mut out = Vec::new();
        Self::decode_update_stateless_into(update, payload, &WorkerPool::global(), &mut out)?;
        Ok(out)
    }

    /// [`ModelController::decode_update_stateless`] into a caller-
    /// provided buffer (cleared first), so the fan-in hot path can reuse
    /// one scratch vector per round instead of allocating per child.
    pub fn decode_update_stateless_into(
        update: &UpdateMeta,
        payload: &[u8],
        pool: &WorkerPool,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        let codec = UpdateCodec::from_id(update.codec)
            .ok_or_else(|| CoreError::Protocol(format!("unknown update codec {}", update.codec)))?;
        codec
            .decode_into(payload, None, pool, out)
            .map_err(|e| CoreError::Protocol(format!("undecodable update payload: {e}")))?;
        check_elems(update, out)?;
        Ok(())
    }

    /// Decodes an inbound update payload according to its header
    /// metadata. Delta payloads reconstruct against this session's last
    /// applied global; a `delta_base` that does not match the applied
    /// round is undecodable and reported as a protocol error.
    pub fn decode_update(
        &self,
        session: &SessionId,
        update: &UpdateMeta,
        payload: &[u8],
    ) -> Result<Vec<f32>> {
        let mut out = Vec::new();
        self.decode_update_into(session, update, payload, &WorkerPool::global(), &mut out)?;
        Ok(out)
    }

    /// [`ModelController::decode_update`] into a caller-provided buffer
    /// (cleared first), running chunk kernels on `pool`.
    pub fn decode_update_into(
        &self,
        session: &SessionId,
        update: &UpdateMeta,
        payload: &[u8],
        pool: &WorkerPool,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        if !Self::decode_needs_base(update) {
            return Self::decode_update_stateless_into(update, payload, pool, out);
        }
        let codec = UpdateCodec::from_id(update.codec)
            .ok_or_else(|| CoreError::Protocol(format!("unknown update codec {}", update.codec)))?;
        let base: Option<&[f32]> = {
            let entry = self.get(session)?;
            if entry.global_round != update.delta_base || entry.last_global.is_empty() {
                return Err(CoreError::Protocol(format!(
                    "delta base round {} does not match applied global {}",
                    update.delta_base, entry.global_round
                )));
            }
            Some(&entry.last_global)
        };
        codec
            .decode_into(payload, base, pool, out)
            .map_err(|e| CoreError::Protocol(format!("undecodable update payload: {e}")))?;
        check_elems(update, out)?;
        Ok(())
    }

    /// Removes a session's model (session complete).
    pub fn remove(&mut self, session: &SessionId) -> Option<ModelEntry> {
        self.models.remove(session)
    }

    /// Number of tracked sessions.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no models are tracked.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// Cross-checks the header's element count against the decoded payload:
/// a mismatch is corruption, caught here with a precise error rather than
/// later as a misattributed accumulator length error. 0 means a legacy
/// sender left the field unspecified.
fn check_elems(update: &UpdateMeta, decoded: &[f32]) -> Result<()> {
    if update.elems != 0 && decoded.len() as u64 != update.elems {
        return Err(CoreError::Protocol(format!(
            "payload decoded {} elements, header declared {}",
            decoded.len(),
            update.elems
        )));
    }
    Ok(())
}

/// The base vector and base-round marker a delta codec should use: the
/// last applied global when it matches the outgoing vector's length, the
/// all-zeros base (round 0) otherwise. Both encode paths share this so
/// the base-selection rule can never diverge between them.
fn delta_base_of(
    codec: UpdateCodec,
    global_round: u32,
    last_global: &[f32],
    len: usize,
) -> (Option<&[f32]>, u32) {
    if codec.is_delta() && global_round > 0 && last_global.len() == len {
        (Some(last_global), global_round)
    } else {
        (None, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(s: &str) -> SessionId {
        SessionId::new(s).unwrap()
    }

    #[test]
    fn set_get_roundtrip() {
        let mut mc = ModelController::new();
        mc.set_model(&sid("s1"), vec![1.0, 2.0], 100);
        let entry = mc.get(&sid("s1")).unwrap();
        assert_eq!(*entry.params, vec![1.0, 2.0]);
        assert_eq!(entry.num_samples, 100);
        assert_eq!(entry.global_round, 0);
        assert!(mc.get(&sid("missing")).is_err());
    }

    #[test]
    fn apply_global_advances_round() {
        let mut mc = ModelController::new();
        mc.set_model(&sid("s1"), vec![0.0, 0.0], 10);
        assert!(mc.apply_global(&sid("s1"), 1, vec![1.0, 1.0]).unwrap());
        assert_eq!(mc.get(&sid("s1")).unwrap().global_round, 1);
        // Stale/duplicate round is ignored.
        assert!(!mc.apply_global(&sid("s1"), 1, vec![9.0, 9.0]).unwrap());
        assert_eq!(*mc.get(&sid("s1")).unwrap().params, vec![1.0, 1.0]);
    }

    #[test]
    fn apply_global_checks_shape() {
        let mut mc = ModelController::new();
        mc.set_model(&sid("s1"), vec![0.0, 0.0], 10);
        assert!(mc.apply_global(&sid("s1"), 1, vec![1.0]).is_err());
    }

    #[test]
    fn set_model_preserves_round_marker() {
        let mut mc = ModelController::new();
        mc.set_model(&sid("s1"), vec![0.0], 10);
        mc.apply_global(&sid("s1"), 3, vec![1.0]).unwrap();
        // Local re-training replaces params but keeps the global marker.
        mc.set_model(&sid("s1"), vec![2.0], 10);
        assert_eq!(mc.get(&sid("s1")).unwrap().global_round, 3);
        assert_eq!(*mc.get(&sid("s1")).unwrap().last_global, vec![1.0]);
    }

    #[test]
    fn an_applied_global_is_one_allocation_and_set_model_replaces_only_params() {
        let mut mc = ModelController::new();
        let s = sid("s1");
        mc.set_model(&s, vec![0.0; 4], 10);
        let global = vec![1.0f32; 4];
        let decoded = global.as_ptr();
        assert!(mc.apply_global(&s, 1, global).unwrap());
        let entry = mc.get(&s).unwrap();
        assert!(Arc::ptr_eq(&entry.params, &entry.last_global));
        assert_eq!(entry.params.as_ptr(), decoded, "the decoded vector is kept");
        let base = Arc::clone(&entry.last_global);
        // Re-training replaces the local model; the base stays put.
        mc.set_model(&s, vec![2.0; 4], 10);
        let entry = mc.get(&s).unwrap();
        assert!(Arc::ptr_eq(&entry.last_global, &base));
        assert!(!Arc::ptr_eq(&entry.params, &base));
        assert_eq!(*entry.params, vec![2.0; 4]);
        assert_eq!(*base, vec![1.0; 4]);
    }

    #[test]
    fn remove_cleans_up() {
        let mut mc = ModelController::new();
        mc.set_model(&sid("s1"), vec![0.0], 1);
        assert_eq!(mc.len(), 1);
        assert!(mc.remove(&sid("s1")).is_some());
        assert!(mc.is_empty());
    }

    #[test]
    fn encode_decode_roundtrip_with_codec() {
        let mut mc = ModelController::new();
        let s = sid("s1");
        let params: Vec<f32> = (0..64).map(|i| i as f32 * 0.5 - 16.0).collect();
        mc.set_model(&s, params.clone(), 10);
        let (payload, meta) = mc.encode_update(&s, UpdateCodec::Dense, &params).unwrap();
        assert_eq!(meta.codec, 0);
        assert_eq!(meta.elems, 64);
        assert_eq!(mc.decode_update(&s, &meta, &payload).unwrap(), params);
    }

    #[test]
    fn delta_codec_uses_applied_global_as_base() {
        let mut mc = ModelController::new();
        let s = sid("s1");
        let global: Vec<f32> = vec![1.0; 32];
        mc.set_model(&s, vec![0.0; 32], 10);
        mc.apply_global(&s, 2, global.clone()).unwrap();
        let mut local = global.clone();
        local[5] += 4.0;
        let codec = UpdateCodec::TopK { per_mille: 100 };
        let (payload, meta) = mc.encode_update(&s, codec, &local).unwrap();
        assert_eq!(meta.delta_base, 2);
        let decoded = mc.decode_update(&s, &meta, &payload).unwrap();
        assert_eq!(decoded[5], local[5]);
        assert_eq!(decoded[0], 1.0, "unshipped coords keep the base");
        // A receiver on a different global round cannot reconstruct.
        let mut other = ModelController::new();
        other.set_model(&s, vec![0.0; 32], 10);
        assert!(other.decode_update(&s, &meta, &payload).is_err());
    }

    #[test]
    fn residual_carries_across_rounds() {
        let mut mc = ModelController::new();
        let s = sid("s1");
        mc.set_model(&s, vec![0.0; 8], 1);
        let x = vec![0.5f32; 8];
        // int8 over a constant vector is exact, so craft a non-constant:
        let x2: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let _ = mc.encode_update(&s, UpdateCodec::Int8, &x2).unwrap();
        let r1 = mc.get(&s).unwrap().residual.clone();
        assert_eq!(r1.len(), 8);
        let _ = mc.encode_update(&s, UpdateCodec::Int8, &x).unwrap();
        assert_eq!(mc.get(&s).unwrap().residual.len(), 8);
    }

    #[test]
    fn apply_global_without_model_creates_tracking_entry() {
        // A pure aggregator never calls set_model but must follow the
        // global stream to decode its children's delta contributions.
        let mut mc = ModelController::new();
        let s = sid("s1");
        let global: Vec<f32> = vec![2.0; 16];
        assert!(mc.apply_global(&s, 1, global.clone()).unwrap());
        let entry = mc.get(&s).unwrap();
        assert_eq!(entry.global_round, 1);
        assert_eq!(*entry.last_global, global);
        assert_eq!(entry.num_samples, 0);

        // A trainer's round-2 delta against global 1 now decodes here.
        let mut sender = ModelController::new();
        let mut local = global.clone();
        local[3] += 1.0;
        sender.set_model(&s, local.clone(), 10);
        sender.apply_global(&s, 1, global).unwrap();
        let codec = UpdateCodec::TopK { per_mille: 1000 };
        let (payload, meta) = sender.encode_update(&s, codec, &local).unwrap();
        assert_eq!(meta.delta_base, 1);
        assert_eq!(mc.decode_update(&s, &meta, &payload).unwrap(), local);
    }

    #[test]
    fn elems_header_mismatch_is_rejected() {
        let mut mc = ModelController::new();
        let s = sid("s1");
        let params: Vec<f32> = (0..8).map(|i| i as f32).collect();
        mc.set_model(&s, params.clone(), 1);
        let (payload, mut meta) = mc.encode_update(&s, UpdateCodec::Dense, &params).unwrap();
        assert!(mc.decode_update(&s, &meta, &payload).is_ok());
        meta.elems = 9;
        assert!(mc.decode_update(&s, &meta, &payload).is_err());
        // 0 means "unspecified" (legacy sender): no cross-check.
        meta.elems = 0;
        assert!(mc.decode_update(&s, &meta, &payload).is_ok());
    }

    #[test]
    fn unknown_codec_id_is_rejected() {
        let mut mc = ModelController::new();
        let s = sid("s1");
        mc.set_model(&s, vec![0.0; 4], 1);
        let meta = UpdateMeta {
            codec: 99,
            elems: 4,
            delta_base: 0,
        };
        assert!(mc.decode_update(&s, &meta, &[0u8; 16]).is_err());
    }
}
