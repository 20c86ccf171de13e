//! The control-plane wire format.
//!
//! Every SDFLMQ coordination message, and the metadata header in front of
//! every parameter blob, travels as one binary frame: the
//! [`BINARY_MAGIC`] byte, the format version byte
//! ([`WireVersion::LATEST`]), a [`MsgKind`] byte, then the message fields
//! in schema order as LEB128 varints, raw little-endian `f64`s and
//! length-prefixed UTF-8 strings. No field names, no string formatting or
//! parsing on the control path.
//!
//! One declarative field schema per message (a `wire_schema!` invocation
//! listing `field: kind` pairs) drives both the encoder and the decoder.
//! The decoder is strict: every field is required, integers must be in
//! range and minimally encoded, and trailing bytes are an error. A frame
//! therefore decodes only if re-encoding the value reproduces it byte for
//! byte, and every strict prefix of a valid frame is refused.
//!
//! There is one format. Every peer runs the same build, so a frame of an
//! older version (1 = the paper's JSON documents, 2 = the binary layout
//! whose session requests and role assignments still carried version
//! fields) is refused with [`CoreError::Protocol`], not carried. See
//! `docs/PROTOCOL.md` for the byte-level layout.

use crate::error::{CoreError, Result};
use crate::ids::SessionId;
use crate::messages::{
    Blob, ContribMsg, CtrlMsg, JoinRequest, NewSessionRequest, RoundDone, StatsMsg, UpdateMeta,
};
use crate::roles::{PreferredRole, Role, RoleSpec};
use crate::topics::Position;
use bytes::{BufMut, Bytes, BytesMut};
use sdflmq_mqttfc::wire::{get_varint, put_varint};

/// First byte of every frame.
pub const BINARY_MAGIC: u8 = 0xFC;

/// The control-plane format version, carried in every frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum WireVersion {
    /// Binary frames with no per-session version fields.
    V3 = 3,
}

impl WireVersion {
    /// The version this build writes, and the only one it reads.
    pub const LATEST: WireVersion = WireVersion::V3;
}

/// Kind tags for frame payloads. Values are wire-stable: they appear in
/// frame headers and must never be renumbered or reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgKind {
    /// Session creation request.
    NewSession = 1,
    /// Session join request.
    Join = 2,
    /// Round completion report.
    RoundDone = 3,
    /// Coordinator → client control command.
    Ctrl = 4,
    /// Parameter-blob metadata header.
    BlobMeta = 5,
    // 6 was the coordinator's session reply, which only carried the
    // negotiated version. Replies are empty now; 6 is never reused.
    /// Contribution liveness ping (straggler detection).
    Contrib = 7,
}

impl MsgKind {
    fn from_u8(v: u8) -> Option<MsgKind> {
        match v {
            1 => Some(MsgKind::NewSession),
            2 => Some(MsgKind::Join),
            3 => Some(MsgKind::RoundDone),
            4 => Some(MsgKind::Ctrl),
            5 => Some(MsgKind::BlobMeta),
            7 => Some(MsgKind::Contrib),
            _ => None,
        }
    }
}

/// A typed control-plane message, tagged with its [`MsgKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Session creation request.
    NewSession(NewSessionRequest),
    /// Session join request.
    Join(JoinRequest),
    /// Round completion report.
    RoundDone(RoundDone),
    /// A control command addressed to one session.
    Ctrl {
        /// Target session.
        session: SessionId,
        /// The command.
        msg: CtrlMsg,
    },
    /// Contribution liveness ping.
    Contrib(ContribMsg),
}

impl ControlMsg {
    /// This message's kind tag.
    pub fn kind(&self) -> MsgKind {
        match self {
            ControlMsg::NewSession(_) => MsgKind::NewSession,
            ControlMsg::Join(_) => MsgKind::Join,
            ControlMsg::RoundDone(_) => MsgKind::RoundDone,
            ControlMsg::Ctrl { .. } => MsgKind::Ctrl,
            ControlMsg::Contrib(_) => MsgKind::Contrib,
        }
    }

    /// Encodes the message as one self-contained frame.
    pub fn encode(&self) -> Bytes {
        let mut w = BinWriter::new(self.kind(), 64);
        match self {
            ControlMsg::NewSession(m) => m.write_fields(&mut w),
            ControlMsg::Join(m) => m.write_fields(&mut w),
            ControlMsg::RoundDone(m) => m.write_fields(&mut w),
            ControlMsg::Ctrl { session, msg } => {
                w.str(session.as_str());
                msg.write_fields(&mut w);
            }
            ControlMsg::Contrib(m) => m.write_fields(&mut w),
        }
        w.buf.freeze()
    }

    /// Decodes a frame, verifying it carries `expected` (a guard against
    /// frames of the wrong kind arriving on a function). Anything that is
    /// not a complete, canonical frame of this version is a
    /// [`CoreError::Protocol`] (or [`CoreError::Id`] for a malformed id).
    pub fn decode(expected: MsgKind, bytes: &[u8]) -> Result<ControlMsg> {
        let mut r = BinReader::open(bytes, expected)?;
        let msg = match expected {
            MsgKind::NewSession => ControlMsg::NewSession(NewSessionRequest::read_fields(&mut r)?),
            MsgKind::Join => ControlMsg::Join(JoinRequest::read_fields(&mut r)?),
            MsgKind::RoundDone => ControlMsg::RoundDone(RoundDone::read_fields(&mut r)?),
            MsgKind::Ctrl => ControlMsg::Ctrl {
                session: r.str("session")?.parse()?,
                msg: CtrlMsg::read_fields(&mut r)?,
            },
            MsgKind::Contrib => ControlMsg::Contrib(ContribMsg::read_fields(&mut r)?),
            MsgKind::BlobMeta => {
                return Err(CoreError::Protocol(
                    "blob metadata is not a control message".into(),
                ))
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

// ---------------------------------------------------------------------------
// Frame writer and reader
// ---------------------------------------------------------------------------

/// Builds one frame: the header, then fields in schema order.
pub(crate) struct BinWriter {
    buf: BytesMut,
}

impl BinWriter {
    /// Starts a frame of `kind` — the one definition of the header layout.
    fn new(kind: MsgKind, capacity: usize) -> BinWriter {
        let mut buf = BytesMut::with_capacity(capacity);
        buf.put_u8(BINARY_MAGIC);
        buf.put_u8(WireVersion::LATEST as u8);
        buf.put_u8(kind as u8);
        BinWriter { buf }
    }

    fn uint(&mut self, v: u64) {
        put_varint(&mut self.buf, v);
    }

    fn f64(&mut self, v: f64) {
        self.buf.put_slice(&v.to_le_bytes());
    }

    fn byte(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    fn str(&mut self, v: &str) {
        self.uint(v.len() as u64);
        self.buf.put_slice(v.as_bytes());
    }

    fn opt_str(&mut self, v: Option<&str>) {
        match v {
            Some(s) => {
                self.byte(1);
                self.str(s);
            }
            None => self.byte(0),
        }
    }
}

/// Zero-copy cursor over a frame's field section. Strings are the only
/// per-field allocations; the frame itself is never copied. Every read
/// names its field, for the error message.
pub(crate) struct BinReader<'a> {
    buf: &'a [u8],
}

impl<'a> BinReader<'a> {
    /// Validates the header — magic, version and kind — and positions the
    /// cursor on the fields. Any other first byte (a JSON document starts
    /// with `{` or `[`), any other version and any other kind are refused.
    fn open(bytes: &'a [u8], expected: MsgKind) -> Result<BinReader<'a>> {
        let [magic, version, kind, fields @ ..] = bytes else {
            return Err(CoreError::Protocol("frame too short".into()));
        };
        if *magic != BINARY_MAGIC {
            return Err(CoreError::Protocol(format!("bad frame magic {magic:#04x}")));
        }
        if *version != WireVersion::LATEST as u8 {
            return Err(CoreError::Protocol(format!(
                "unsupported wire version {version}"
            )));
        }
        let kind = MsgKind::from_u8(*kind)
            .ok_or_else(|| CoreError::Protocol(format!("unknown message kind {kind}")))?;
        if kind != expected {
            return Err(CoreError::Protocol(format!(
                "expected {expected:?} frame, got {kind:?}"
            )));
        }
        Ok(BinReader { buf: fields })
    }

    /// Ends the frame: nothing may follow the last field.
    fn finish(self) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CoreError::Protocol("trailing bytes in frame".into()))
        }
    }

    fn take(&mut self, n: usize, name: &'static str) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(CoreError::Protocol(format!(
                "truncated frame at field {name:?}"
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// A varint, range-checked into the field's type. Overlong encodings
    /// (a zero final group after the first byte) are refused, so each
    /// value has exactly one encoding.
    fn uint<T: TryFrom<u64>>(&mut self, name: &'static str) -> Result<T> {
        let before = self.buf;
        let v = get_varint(&mut self.buf)
            .ok_or_else(|| CoreError::Protocol(format!("bad varint at field {name:?}")))?;
        let used = before.len() - self.buf.len();
        if used > 1 && before[used - 1] == 0 {
            return Err(CoreError::Protocol(format!(
                "overlong varint at field {name:?}"
            )));
        }
        T::try_from(v).map_err(|_| CoreError::Protocol(format!("field {name:?} out of range")))
    }

    fn f64(&mut self, name: &'static str) -> Result<f64> {
        let raw = self.take(8, name)?;
        Ok(f64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    fn byte(&mut self, name: &'static str) -> Result<u8> {
        Ok(self.take(1, name)?[0])
    }

    fn str(&mut self, name: &'static str) -> Result<String> {
        let len = self.uint(name)?;
        std::str::from_utf8(self.take(len, name)?)
            .map(str::to_owned)
            .map_err(|_| CoreError::Protocol(format!("field {name:?} is not UTF-8")))
    }

    fn opt<T>(
        &mut self,
        name: &'static str,
        read: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<Option<T>> {
        match self.byte(name)? {
            0 => Ok(None),
            1 => Ok(Some(read(self)?)),
            other => Err(CoreError::Protocol(format!(
                "bad option tag {other} at field {name:?}"
            ))),
        }
    }

    /// A token string, parsed by `parse`; one the parser would not print
    /// back identically is refused.
    fn token<T, S: AsRef<str>>(
        &mut self,
        name: &'static str,
        parse: fn(&str) -> Option<T>,
        print: fn(&T) -> S,
    ) -> Result<T> {
        let token = self.str(name)?;
        parse(&token)
            .filter(|v| print(v).as_ref() == token)
            .ok_or_else(|| CoreError::Protocol(format!("bad {name} token {token:?}")))
    }
}

// ---------------------------------------------------------------------------
// Field schemas
// ---------------------------------------------------------------------------

/// A message whose fields are described declaratively (see
/// [`wire_schema!`]): one definition drives the encoder and the decoder.
pub(crate) trait WireSchema: Sized {
    fn write_fields(&self, w: &mut BinWriter);
    fn read_fields(r: &mut BinReader) -> Result<Self>;
}

/// Declares a message struct's wire schema as `field: kind` lines, in
/// wire order. Kinds: `uint` (any unsigned integer, as a varint), `f64`,
/// `str`, `id` (an id newtype, as a string), `token(T)` and
/// `opt_token(T)` (an enum in its token form) and `nested` (another
/// schema, inline).
macro_rules! wire_schema {
    ($ty:ident { $($field:ident : $kind:ident $(($arg:ty))?),+ $(,)? }) => {
        impl WireSchema for $ty {
            fn write_fields(&self, w: &mut BinWriter) {
                $(wire_schema!(@write w, self.$field, $kind $(($arg))?);)+
            }

            fn read_fields(r: &mut BinReader) -> Result<Self> {
                Ok($ty {
                    $($field: wire_schema!(@read r, stringify!($field), $kind $(($arg))?),)+
                })
            }
        }
    };

    (@write $w:ident, $v:expr, uint) => {
        $w.uint($v as u64)
    };
    (@write $w:ident, $v:expr, f64) => {
        $w.f64($v)
    };
    (@write $w:ident, $v:expr, str) => {
        $w.str(&$v)
    };
    (@write $w:ident, $v:expr, id) => {
        $w.str($v.as_str())
    };
    (@write $w:ident, $v:expr, token($arg:ty)) => {
        $w.str($v.as_token().as_ref())
    };
    (@write $w:ident, $v:expr, opt_token($arg:ty)) => {
        $w.opt_str($v.map(|p| p.as_token()).as_deref())
    };
    (@write $w:ident, $v:expr, nested) => {
        $v.write_fields($w)
    };

    (@read $r:ident, $name:expr, uint) => {
        $r.uint($name)?
    };
    (@read $r:ident, $name:expr, f64) => {
        $r.f64($name)?
    };
    (@read $r:ident, $name:expr, str) => {
        $r.str($name)?
    };
    (@read $r:ident, $name:expr, id) => {
        $r.str($name)?.parse()?
    };
    (@read $r:ident, $name:expr, token($arg:ty)) => {
        $r.token($name, <$arg>::from_token, <$arg>::as_token)?
    };
    (@read $r:ident, $name:expr, opt_token($arg:ty)) => {
        $r.opt($name, |r| r.token($name, <$arg>::from_token, <$arg>::as_token))?
    };
    (@read $r:ident, $name:expr, nested) => {
        WireSchema::read_fields($r)?
    };
}

wire_schema!(NewSessionRequest {
    session_id: id,
    client_id: id,
    model_name: id,
    session_time_secs: f64,
    capacity_min: uint,
    capacity_max: uint,
    waiting_time_secs: f64,
    fl_rounds: uint,
    preferred_role: token(PreferredRole),
    codec: uint,
});

wire_schema!(JoinRequest {
    session_id: id,
    client_id: id,
    model_name: id,
    preferred_role: token(PreferredRole),
    num_samples: uint,
    stats: nested,
    codec: uint,
});

wire_schema!(StatsMsg {
    free_memory: uint,
    available_flops: f64,
    memory_utilization: f64,
});

wire_schema!(RoundDone {
    session_id: id,
    client_id: id,
    round: uint,
    stats: nested,
});

wire_schema!(ContribMsg {
    session_id: id,
    client_id: id,
    round: uint,
});

wire_schema!(RoleSpec {
    role: token(Role),
    parent: token(Position),
    expected_inputs: uint,
    round: uint,
    position: opt_token(Position),
    data_codec: uint,
});

/// Parameter-blob metadata (the header in front of the encoded update
/// payload).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BlobMeta {
    pub session_id: SessionId,
    pub round: u32,
    pub sender: String,
    pub weight: u64,
    /// Update-codec id ([`sdflmq_nn::codec`]); 0 = dense f32.
    pub codec: u8,
    /// Decoded element count (0 = unspecified).
    pub elems: u64,
    /// For delta codecs: global round of the base vector (0 = zero base).
    pub delta_base: u32,
}

wire_schema!(BlobMeta {
    session_id: id,
    round: uint,
    sender: str,
    weight: uint,
    codec: uint,
    elems: uint,
    delta_base: uint,
});

impl WireSchema for CtrlMsg {
    fn write_fields(&self, w: &mut BinWriter) {
        match self {
            CtrlMsg::SetRole(spec) => {
                w.byte(1);
                spec.write_fields(w);
            }
            CtrlMsg::ResetRole => w.byte(2),
            CtrlMsg::RoundStart { round } => {
                w.byte(3);
                w.uint(u64::from(*round));
            }
            CtrlMsg::SessionComplete => w.byte(4),
            CtrlMsg::Abort(reason) => {
                w.byte(5);
                w.str(reason);
            }
            CtrlMsg::Evicted { reason } => {
                w.byte(6);
                w.str(reason);
            }
        }
    }

    fn read_fields(r: &mut BinReader) -> Result<Self> {
        Ok(match r.byte("cmd")? {
            1 => CtrlMsg::SetRole(RoleSpec::read_fields(r)?),
            2 => CtrlMsg::ResetRole,
            3 => CtrlMsg::RoundStart {
                round: r.uint("round")?,
            },
            4 => CtrlMsg::SessionComplete,
            5 => CtrlMsg::Abort(r.str("reason")?),
            6 => CtrlMsg::Evicted {
                reason: r.str("reason")?,
            },
            other => return Err(CoreError::Protocol(format!("unknown cmd tag {other}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// Blob metadata entry points (shared by `Blob::encode`/`Blob::decode`)
// ---------------------------------------------------------------------------

pub(crate) fn encode_blob_meta(blob: &Blob, update: &UpdateMeta) -> Bytes {
    let meta = BlobMeta {
        session_id: blob.session_id.clone(),
        round: blob.round,
        sender: blob.sender.clone(),
        weight: blob.weight,
        codec: update.codec,
        elems: update.elems,
        delta_base: update.delta_base,
    };
    let mut w = BinWriter::new(MsgKind::BlobMeta, 32);
    meta.write_fields(&mut w);
    w.buf.freeze()
}

pub(crate) fn decode_blob_meta(bytes: &[u8]) -> Result<BlobMeta> {
    let mut r = BinReader::open(bytes, MsgKind::BlobMeta)?;
    let meta = BlobMeta::read_fields(&mut r)?;
    r.finish()?;
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, ModelId};

    fn stats() -> StatsMsg {
        StatsMsg {
            free_memory: 1 << 30,
            available_flops: 4e9,
            memory_utilization: 0.375,
        }
    }

    fn join_request() -> JoinRequest {
        JoinRequest {
            session_id: SessionId::new("s1").unwrap(),
            client_id: ClientId::new("c2").unwrap(),
            model_name: ModelId::new("mlp").unwrap(),
            preferred_role: PreferredRole::Trainer,
            num_samples: 600,
            stats: stats(),
            codec: 2,
        }
    }

    fn round_done() -> RoundDone {
        RoundDone {
            session_id: SessionId::new("s1").unwrap(),
            client_id: ClientId::new("c9").unwrap(),
            round: 12,
            stats: stats(),
        }
    }

    fn blob() -> Blob {
        Blob {
            session_id: SessionId::new("s9").unwrap(),
            round: 4,
            sender: "c3".into(),
            weight: 600,
            params: Bytes::from(vec![1u8, 2, 3]),
        }
    }

    fn is_protocol(result: Result<ControlMsg>) -> bool {
        matches!(result, Err(CoreError::Protocol(_)))
    }

    /// One message of every kind, with its frame length: the sizes
    /// `docs/PROTOCOL.md` quotes.
    #[test]
    fn every_kind_roundtrips() {
        let ctrl = |msg| ControlMsg::Ctrl {
            session: SessionId::new("s3").unwrap(),
            msg,
        };
        let set_role = CtrlMsg::SetRole(RoleSpec {
            role: Role::TrainerAggregator,
            position: Some(Position::Agg(2)),
            parent: Position::Root,
            expected_inputs: 4,
            round: 2,
            data_codec: 3,
        });
        let evicted = CtrlMsg::Evicted {
            reason: "missed 2 consecutive rounds".into(),
        };
        let contrib = ControlMsg::Contrib(ContribMsg {
            session_id: SessionId::new("s4").unwrap(),
            client_id: ClientId::new("c7").unwrap(),
            round: 3,
        });
        let cases = [
            (ControlMsg::Join(join_request()), 45),
            (ControlMsg::RoundDone(round_done()), 31),
            (ctrl(set_role), 40),
            (ctrl(CtrlMsg::ResetRole), 7),
            (ctrl(CtrlMsg::RoundStart { round: 7 }), 8),
            (ctrl(CtrlMsg::SessionComplete), 7),
            (ctrl(CtrlMsg::Abort("timeout".into())), 15),
            (ctrl(evicted), 35),
            (contrib, 10),
        ];
        for (msg, len) in cases {
            let frame = msg.encode();
            assert_eq!(frame.len(), len, "{msg:?}");
            assert_eq!(ControlMsg::decode(msg.kind(), &frame).unwrap(), msg);
        }
    }

    // The next three names predate the single binary codec; each now
    // checks the one codec that is left.
    #[test]
    fn both_codecs_roundtrip_join() {
        let msg = ControlMsg::Join(join_request());
        let frame = msg.encode();
        assert_eq!(ControlMsg::decode(MsgKind::Join, &frame).unwrap(), msg);
    }

    #[test]
    fn ctrl_variants_roundtrip_both_codecs() {
        let session = SessionId::new("s3").unwrap();
        let msgs = [
            CtrlMsg::SetRole(RoleSpec {
                role: Role::TrainerAggregator,
                position: Some(Position::Agg(2)),
                parent: Position::Root,
                expected_inputs: 4,
                round: 2,
                data_codec: 3,
            }),
            CtrlMsg::ResetRole,
            CtrlMsg::RoundStart { round: 7 },
            CtrlMsg::SessionComplete,
            CtrlMsg::Abort("timeout".into()),
            CtrlMsg::Evicted {
                reason: "missed 2 consecutive rounds".into(),
            },
        ];
        for msg in msgs {
            let wrapped = ControlMsg::Ctrl {
                session: session.clone(),
                msg,
            };
            let frame = wrapped.encode();
            let decoded = ControlMsg::decode(MsgKind::Ctrl, &frame).unwrap();
            assert_eq!(decoded, wrapped);
        }
    }

    #[test]
    fn contrib_roundtrips_both_codecs() {
        let msg = ControlMsg::Contrib(ContribMsg {
            session_id: SessionId::new("s4").unwrap(),
            client_id: ClientId::new("c7").unwrap(),
            round: 3,
        });
        let frame = msg.encode();
        assert_eq!(ControlMsg::decode(MsgKind::Contrib, &frame).unwrap(), msg);
        // Kind guard: a contrib frame is not a round_done frame.
        assert!(is_protocol(ControlMsg::decode(MsgKind::RoundDone, &frame)));
    }

    #[test]
    fn binary_reencode_is_byte_identical() {
        let frame = ControlMsg::RoundDone(round_done()).encode();
        let decoded = ControlMsg::decode(MsgKind::RoundDone, &frame).unwrap();
        assert_eq!(decoded.encode(), frame);
    }

    #[test]
    fn binary_rejects_kind_mismatch_and_truncation() {
        let frame = ControlMsg::RoundDone(round_done()).encode();
        assert!(is_protocol(ControlMsg::decode(MsgKind::Join, &frame)));
        assert!(is_protocol(ControlMsg::decode(MsgKind::Contrib, &frame)));
        for cut in 0..frame.len() {
            assert!(
                ControlMsg::decode(MsgKind::RoundDone, &frame[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn truncated_binary_abort_is_rejected_not_empty() {
        let msg = ControlMsg::Ctrl {
            session: SessionId::new("s1").unwrap(),
            msg: CtrlMsg::Abort("deadline".into()),
        };
        let frame = msg.encode();
        for cut in 0..frame.len() {
            assert!(
                ControlMsg::decode(MsgKind::Ctrl, &frame[..cut]).is_err(),
                "cut at {cut} must not decode as Abort(\"\")"
            );
        }
    }

    #[test]
    fn older_versions_and_json_documents_are_refused() {
        let frame = ControlMsg::Join(join_request()).encode();
        assert_eq!(&frame[..3], &[BINARY_MAGIC, 3, MsgKind::Join as u8]);
        for version in [0, 1, 2, 4, 255] {
            let mut old = frame.to_vec();
            old[1] = version;
            assert!(is_protocol(ControlMsg::decode(MsgKind::Join, &old)));
        }
        let doc = br#"{"cmd":"abort","session":"s1"}"#;
        assert!(is_protocol(ControlMsg::decode(MsgKind::Ctrl, doc)));
        assert!(is_protocol(ControlMsg::decode(MsgKind::Ctrl, &[b'['; 64])));
        assert!(is_protocol(ControlMsg::decode(MsgKind::Ctrl, &[])));
        // Kind 6, the retired session reply, is not a kind any more.
        let mut reply = frame.to_vec();
        reply[2] = 6;
        assert!(is_protocol(ControlMsg::decode(MsgKind::Join, &reply)));
    }

    #[test]
    fn non_canonical_fields_are_refused() {
        let msg = ControlMsg::Ctrl {
            session: SessionId::new("s").unwrap(),
            msg: CtrlMsg::RoundStart { round: 5 },
        };
        let frame = msg.encode();
        // Header, session "s" (length 1 + 1 byte), cmd 3, round 5.
        assert_eq!(&frame[3..], &[1, b's', 3, 5]);
        // The same round as an overlong two-byte varint.
        let mut overlong = frame[..frame.len() - 1].to_vec();
        overlong.extend([0x85, 0x00]);
        assert!(is_protocol(ControlMsg::decode(MsgKind::Ctrl, &overlong)));
        // A round past u32.
        let mut wide = frame[..frame.len() - 1].to_vec();
        wide.extend([0x80, 0x80, 0x80, 0x80, 0x10]);
        assert!(is_protocol(ControlMsg::decode(MsgKind::Ctrl, &wide)));
        // A position token that parses but is not the printed form.
        let spec = RoleSpec {
            role: Role::Aggregator,
            position: Some(Position::Agg(7)),
            parent: Position::Root,
            expected_inputs: 1,
            round: 1,
            data_codec: 0,
        };
        let frame = ControlMsg::Ctrl {
            session: SessionId::new("s").unwrap(),
            msg: CtrlMsg::SetRole(spec),
        }
        .encode();
        let padded = [
            &frame[..frame.len() - 7],
            &[1, 5, b'a', b'g', b'g', b'0', b'7', 0],
        ]
        .concat();
        assert_eq!(
            &frame[frame.len() - 7..],
            &[1, 4, b'a', b'g', b'g', b'7', 0]
        );
        assert!(is_protocol(ControlMsg::decode(MsgKind::Ctrl, &padded)));
    }

    #[test]
    fn blob_meta_roundtrips() {
        let update = UpdateMeta {
            codec: 2,
            elems: 3,
            delta_base: 1,
        };
        let meta = encode_blob_meta(&blob(), &update);
        let decoded = decode_blob_meta(&meta).unwrap();
        assert_eq!(decoded.session_id, blob().session_id);
        assert_eq!(decoded.round, blob().round);
        assert_eq!(decoded.sender, blob().sender);
        assert_eq!(decoded.weight, blob().weight);
        assert_eq!(
            (decoded.codec, decoded.elems, decoded.delta_base),
            (update.codec, update.elems, update.delta_base)
        );
    }
}
