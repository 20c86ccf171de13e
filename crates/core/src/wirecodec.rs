//! Versioned control-plane wire codecs.
//!
//! Every SDFLMQ coordination message travels as a tagged envelope
//! `{version, kind, payload}` with two interchangeable encodings behind the
//! [`WireCodec`] trait:
//!
//! * **v1 — JSON** ([`JsonCodec`]): the paper's format, byte-compatible
//!   with the original hand-rolled `to_json`/`from_json` layer. A v1 frame
//!   is a bare JSON object; the kind is implicit in the MQTTFC function
//!   the frame is published to.
//! * **v2 — compact binary** ([`BinaryCodec`]): `0xFC` magic, version and
//!   kind bytes, then the message fields as LEB128 varints, raw
//!   little-endian `f64`s, and length-prefixed UTF-8 strings, in schema
//!   order. No field names, no string formatting or parsing on the hot
//!   control path.
//!
//! One *declarative field schema* per message — a `wire_schema!`
//! invocation listing `(field, kind, wire name)` triples — drives both
//! codecs plus range-validated parsing: numeric fields reject negative,
//! fractional, and out-of-range JSON numbers instead of silently
//! truncating through `as` casts.
//!
//! One inherent v1 limitation: JSON numbers are IEEE doubles, so u64
//! values above 2^53 lose precision on the v1 wire (as they did in the
//! legacy format). Every real field stays far below that (byte counts,
//! sample counts, rounds); the binary codec is exact over the full u64
//! range.
//!
//! Versions are negotiated per session: `NewSessionRequest`/`JoinRequest`
//! carry the sender's highest supported version in their `proto` field
//! (always sent as v1 JSON so any coordinator can read it), and the
//! coordinator answers with the highest mutually supported version, which
//! both sides then use for the session's control traffic. Decoding sniffs
//! the first byte (`0xFC` = binary, anything else = JSON), so a mixed
//! fleet of v1 and v2 peers interoperates without per-connection state.
//! See `docs/PROTOCOL.md` for the byte-level layout.

use crate::error::{CoreError, Result};
use crate::ids::{ClientId, ModelId, SessionId};
use crate::messages::{
    Blob, ContribMsg, CtrlMsg, JoinRequest, NewSessionRequest, RoundDone, StatsMsg,
};
use crate::roles::{PreferredRole, Role, RoleSpec};
use crate::topics::Position;
use bytes::{BufMut, Bytes, BytesMut};
use sdflmq_mqttfc::wire::{get_varint, put_varint};
use sdflmq_mqttfc::Json;
use std::collections::BTreeMap;

/// First byte of every binary (v2+) frame. Never valid as the first byte
/// of a JSON document, so frames are self-describing.
pub const BINARY_MAGIC: u8 = 0xFC;

/// A control-plane wire protocol version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum WireVersion {
    /// The paper's JSON documents (legacy, always supported).
    V1Json = 1,
    /// Compact binary: varints + raw floats + length-prefixed strings.
    V2Binary = 2,
}

impl WireVersion {
    /// The highest version this node implements.
    pub const LATEST: WireVersion = WireVersion::V2Binary;

    /// Numeric form carried in `proto` fields.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Parses a version byte.
    pub fn from_u8(v: u8) -> Option<WireVersion> {
        match v {
            1 => Some(WireVersion::V1Json),
            2 => Some(WireVersion::V2Binary),
            _ => None,
        }
    }

    /// The highest version supported by both this node and a peer that
    /// advertises `peer_max`: `min(peer_max, LATEST)`. Unknown
    /// intermediate versions (a gap in our support) and `0` (a peer that
    /// sent nothing) fall back to v1.
    pub fn negotiate(peer_max: u8) -> WireVersion {
        WireVersion::from_u8(peer_max.min(WireVersion::LATEST.as_u8()))
            .unwrap_or(WireVersion::V1Json)
    }

    /// The codec implementing this version.
    pub fn codec(self) -> &'static dyn WireCodec {
        match self {
            WireVersion::V1Json => &JsonCodec,
            WireVersion::V2Binary => &BinaryCodec,
        }
    }
}

/// Kind tags for envelope payloads. Values are wire-stable: they appear in
/// binary frame headers and must never be renumbered.
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
    /// Coordinator reply to session requests (status + negotiated proto).
    Reply = 6,
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
            6 => Some(MsgKind::Reply),
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
    /// Coordinator reply to a session request.
    Reply(SessionReply),
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
            ControlMsg::Reply(_) => MsgKind::Reply,
            ControlMsg::Contrib(_) => MsgKind::Contrib,
        }
    }
}

/// The version-tagged envelope every control message travels in.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Encoding the payload used (or should use).
    pub version: WireVersion,
    /// The payload.
    pub msg: ControlMsg,
}

impl Envelope {
    /// Wraps a message for encoding at `version`.
    pub fn new(version: WireVersion, msg: ControlMsg) -> Envelope {
        Envelope { version, msg }
    }

    /// Encodes with the envelope's version codec.
    pub fn encode(&self) -> Bytes {
        self.version.codec().encode(&self.msg)
    }

    /// Decodes a frame of either version, sniffing the first byte:
    /// [`BINARY_MAGIC`] selects the binary codec, anything else parses as
    /// JSON v1. `expected` guards against frames of the wrong kind
    /// arriving on a topic.
    pub fn decode(expected: MsgKind, bytes: &[u8]) -> Result<Envelope> {
        match bytes.first() {
            Some(&BINARY_MAGIC) => BinaryCodec.decode(expected, bytes),
            Some(_) => JsonCodec.decode(expected, bytes),
            None => Err(CoreError::Protocol("empty control frame".into())),
        }
    }
}

/// Coordinator reply to `new_session` / `join_session` requests. Always
/// encoded as v1 JSON so unupgraded clients can read the negotiation
/// result.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReply {
    /// "created", "joined", or "ok".
    pub status: String,
    /// The negotiated wire version for subsequent session traffic.
    pub proto: u8,
}

impl SessionReply {
    /// Builds a reply advertising the negotiated version.
    pub fn new(status: &str, version: WireVersion) -> SessionReply {
        SessionReply {
            status: status.to_owned(),
            proto: version.as_u8(),
        }
    }

    /// The negotiated version (v1 when the field is absent or unknown).
    pub fn version(&self) -> WireVersion {
        WireVersion::from_u8(self.proto).unwrap_or(WireVersion::V1Json)
    }
}

/// An encoder/decoder for one wire version.
pub trait WireCodec: Sync {
    /// The version this codec implements.
    fn version(&self) -> WireVersion;

    /// Encodes a message into a self-contained frame.
    fn encode(&self, msg: &ControlMsg) -> Bytes;

    /// Decodes a frame, verifying it carries `expected`.
    fn decode(&self, expected: MsgKind, bytes: &[u8]) -> Result<Envelope>;
}

// ---------------------------------------------------------------------------
// Field schema plumbing
// ---------------------------------------------------------------------------

/// Sink for a message's fields. JSON writes named object members; binary
/// writes values in schema order.
pub(crate) trait FieldWriter {
    fn w_str(&mut self, name: &'static str, v: &str);
    fn w_u64(&mut self, name: &'static str, v: u64);
    fn w_f64(&mut self, name: &'static str, v: f64);
    /// Enum discriminant: JSON writes `token`, binary writes `ord`.
    fn w_tag(&mut self, name: &'static str, token: &str, ord: u8);
    fn w_opt_str(&mut self, name: &'static str, v: Option<&str>);
    fn w_nested<T: WireSchema>(&mut self, name: &'static str, v: &T);
    /// Writes a numeric field that legacy JSON documents omit: JSON skips
    /// it when `v == default` (keeping pre-extension documents
    /// byte-identical), binary always writes it.
    fn w_u64_default(&mut self, name: &'static str, v: u64, default: u64);
}

/// Source of a message's fields. All numeric reads are range-validated:
/// negative, fractional, or oversized values produce
/// [`CoreError::Protocol`], never a silent `as` truncation.
pub(crate) trait FieldReader {
    fn r_str(&mut self, name: &'static str) -> Result<String>;
    fn r_u64(&mut self, name: &'static str) -> Result<u64>;
    fn r_f64(&mut self, name: &'static str) -> Result<f64>;
    /// Reads a discriminant, returning its ord from `table`.
    fn r_tag(&mut self, name: &'static str, table: &[(&str, u8)]) -> Result<u8>;
    fn r_opt_str(&mut self, name: &'static str) -> Result<Option<String>>;
    fn r_nested<T: WireSchema>(&mut self, name: &'static str) -> Result<T>;
    /// Reads a u64 defaulting when the field is absent (JSON legacy docs;
    /// binary always writes it).
    fn r_u64_or(&mut self, name: &'static str, default: u64) -> Result<u64>;

    fn r_u32(&mut self, name: &'static str) -> Result<u32> {
        u32::try_from(self.r_u64(name)?)
            .map_err(|_| CoreError::Protocol(format!("field {name:?} out of u32 range")))
    }

    fn r_usize(&mut self, name: &'static str) -> Result<usize> {
        usize::try_from(self.r_u64(name)?)
            .map_err(|_| CoreError::Protocol(format!("field {name:?} out of usize range")))
    }

    /// Reads a string, tolerating absence only where the format can
    /// express absence (legacy JSON docs); strict by default so binary
    /// truncation stays an error.
    fn r_str_lenient(&mut self, name: &'static str) -> Result<String> {
        self.r_str(name)
    }
}

/// A message whose fields are described declaratively (see
/// [`wire_schema!`]): one definition drives both codecs.
pub(crate) trait WireSchema: Sized {
    fn write_fields<W: FieldWriter>(&self, w: &mut W);
    fn read_fields<R: FieldReader>(r: &mut R) -> Result<Self>;
}

/// Declares a message struct's wire schema as `(field: kind => "name")`
/// lines. Kinds: `str`, `u32`, `u64`, `usize`, `f64`,
/// `id(IdType)`, `token(EnumWithTokens)`, `opt_token(EnumWithTokens)`,
/// `nested(Schema)`, `proto` (u8 defaulting to 1 when absent), and the
/// default-0 extension kinds `u8_def0`/`u32_def0`/`u64_def0` (absent in
/// legacy JSON docs — and omitted from JSON when 0, so pre-extension
/// documents stay byte-identical; binary always carries them).
macro_rules! wire_schema {
    ($ty:ident { $($field:ident : $kind:ident $(($arg:ty))? => $wire:literal),+ $(,)? }) => {
        impl WireSchema for $ty {
            fn write_fields<W: FieldWriter>(&self, w: &mut W) {
                $(wire_schema!(@write w, self, $field, $kind $(($arg))?, $wire);)+
            }

            fn read_fields<R: FieldReader>(r: &mut R) -> Result<Self> {
                Ok($ty {
                    $($field: wire_schema!(@read r, $kind $(($arg))?, $wire),)+
                })
            }
        }
    };

    (@write $w:ident, $self:ident, $field:ident, str, $wire:literal) => {
        $w.w_str($wire, &$self.$field)
    };
    (@write $w:ident, $self:ident, $field:ident, u32, $wire:literal) => {
        $w.w_u64($wire, $self.$field as u64)
    };
    (@write $w:ident, $self:ident, $field:ident, u64, $wire:literal) => {
        $w.w_u64($wire, $self.$field)
    };
    (@write $w:ident, $self:ident, $field:ident, usize, $wire:literal) => {
        $w.w_u64($wire, $self.$field as u64)
    };
    (@write $w:ident, $self:ident, $field:ident, f64, $wire:literal) => {
        $w.w_f64($wire, $self.$field)
    };
    (@write $w:ident, $self:ident, $field:ident, proto, $wire:literal) => {
        $w.w_u64($wire, $self.$field as u64)
    };
    (@write $w:ident, $self:ident, $field:ident, u8_def0, $wire:literal) => {
        $w.w_u64_default($wire, $self.$field as u64, 0)
    };
    (@write $w:ident, $self:ident, $field:ident, u32_def0, $wire:literal) => {
        $w.w_u64_default($wire, $self.$field as u64, 0)
    };
    (@write $w:ident, $self:ident, $field:ident, u64_def0, $wire:literal) => {
        $w.w_u64_default($wire, $self.$field, 0)
    };
    (@write $w:ident, $self:ident, $field:ident, id($arg:ty), $wire:literal) => {
        $w.w_str($wire, $self.$field.as_str())
    };
    (@write $w:ident, $self:ident, $field:ident, token($arg:ty), $wire:literal) => {
        $w.w_str($wire, $self.$field.as_token().as_ref())
    };
    (@write $w:ident, $self:ident, $field:ident, opt_token($arg:ty), $wire:literal) => {
        $w.w_opt_str($wire, $self.$field.map(|p| p.as_token()).as_deref())
    };
    (@write $w:ident, $self:ident, $field:ident, nested($arg:ty), $wire:literal) => {
        $w.w_nested($wire, &$self.$field)
    };

    (@read $r:ident, str, $wire:literal) => {
        $r.r_str($wire)?
    };
    (@read $r:ident, u32, $wire:literal) => {
        $r.r_u32($wire)?
    };
    (@read $r:ident, u64, $wire:literal) => {
        $r.r_u64($wire)?
    };
    (@read $r:ident, usize, $wire:literal) => {
        $r.r_usize($wire)?
    };
    (@read $r:ident, f64, $wire:literal) => {
        $r.r_f64($wire)?
    };
    (@read $r:ident, proto, $wire:literal) => {
        u8::try_from($r.r_u64_or($wire, 1)?)
            .map_err(|_| CoreError::Protocol(format!("field {:?} out of u8 range", $wire)))?
    };
    (@read $r:ident, u8_def0, $wire:literal) => {
        u8::try_from($r.r_u64_or($wire, 0)?)
            .map_err(|_| CoreError::Protocol(format!("field {:?} out of u8 range", $wire)))?
    };
    (@read $r:ident, u32_def0, $wire:literal) => {
        u32::try_from($r.r_u64_or($wire, 0)?)
            .map_err(|_| CoreError::Protocol(format!("field {:?} out of u32 range", $wire)))?
    };
    (@read $r:ident, u64_def0, $wire:literal) => {
        $r.r_u64_or($wire, 0)?
    };
    (@read $r:ident, id($arg:ty), $wire:literal) => {
        <$arg>::new($r.r_str($wire)?)?
    };
    (@read $r:ident, token($arg:ty), $wire:literal) => {
        <$arg>::from_token(&$r.r_str($wire)?)
            .ok_or_else(|| CoreError::Protocol(format!("bad {} token", $wire)))?
    };
    (@read $r:ident, opt_token($arg:ty), $wire:literal) => {
        match $r.r_opt_str($wire)? {
            Some(tok) => Some(<$arg>::from_token(&tok).ok_or_else(|| {
                CoreError::Protocol(format!("bad {} token", $wire))
            })?),
            None => None,
        }
    };
    (@read $r:ident, nested($arg:ty), $wire:literal) => {
        $r.r_nested::<$arg>($wire)?
    };
}

// ---------------------------------------------------------------------------
// Message schemas — the single definition each codec derives from
// ---------------------------------------------------------------------------

wire_schema!(NewSessionRequest {
    session_id: id(SessionId) => "session_id",
    client_id: id(ClientId) => "client_id",
    model_name: id(ModelId) => "model_name",
    session_time_secs: f64 => "session_time",
    capacity_min: usize => "capacity_min",
    capacity_max: usize => "capacity_max",
    waiting_time_secs: f64 => "waiting_time",
    fl_rounds: u32 => "fl_rounds",
    preferred_role: token(PreferredRole) => "preferred_role",
    proto: proto => "proto",
    codec: u8_def0 => "codec",
});

wire_schema!(JoinRequest {
    session_id: id(SessionId) => "session_id",
    client_id: id(ClientId) => "client_id",
    model_name: id(ModelId) => "model_name",
    preferred_role: token(PreferredRole) => "preferred_role",
    num_samples: u64 => "num_samples",
    stats: nested(StatsMsg) => "stats",
    proto: proto => "proto",
    codec: u8_def0 => "codec",
});

wire_schema!(StatsMsg {
    free_memory: u64 => "free_memory",
    available_flops: f64 => "available_flops",
    memory_utilization: f64 => "memory_utilization",
});

wire_schema!(RoundDone {
    session_id: id(SessionId) => "session_id",
    client_id: id(ClientId) => "client_id",
    round: u32 => "round",
    stats: nested(StatsMsg) => "stats",
});

wire_schema!(ContribMsg {
    session_id: id(SessionId) => "session_id",
    client_id: id(ClientId) => "client_id",
    round: u32 => "round",
});

wire_schema!(RoleSpec {
    role: token(Role) => "role",
    parent: token(Position) => "parent",
    expected_inputs: u32 => "expected_inputs",
    round: u32 => "round",
    position: opt_token(Position) => "position",
    data_wire: proto => "data_wire",
    data_codec: u8_def0 => "data_codec",
});

wire_schema!(SessionReply {
    status: str => "status",
    proto: proto => "proto",
});

/// Parameter-blob metadata (the header in front of the encoded update
/// payload). The codec fields are default-0 extensions: a legacy dense
/// blob omits them from JSON (keeping the v1 header byte-identical) and a
/// legacy reader ignores them.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BlobMeta {
    pub session_id: SessionId,
    pub round: u32,
    pub sender: String,
    pub weight: u64,
    /// Update-codec id ([`sdflmq_nn::codec`]); 0 = dense f32.
    pub codec: u8,
    /// Decoded element count (0 = unspecified, for legacy senders).
    pub elems: u64,
    /// For delta codecs: global round of the base vector (0 = zero base).
    pub delta_base: u32,
}

wire_schema!(BlobMeta {
    session_id: id(SessionId) => "session_id",
    round: u32 => "round",
    sender: str => "sender",
    weight: u64 => "weight",
    codec: u8_def0 => "codec",
    elems: u64_def0 => "elems",
    delta_base: u32_def0 => "delta_base",
});

const CTRL_CMDS: &[(&str, u8)] = &[
    ("set_role", 1),
    ("reset_role", 2),
    ("round_start", 3),
    ("session_complete", 4),
    ("abort", 5),
    ("evicted", 6),
];

impl WireSchema for CtrlMsg {
    fn write_fields<W: FieldWriter>(&self, w: &mut W) {
        match self {
            CtrlMsg::SetRole(spec) => {
                w.w_tag("cmd", "set_role", 1);
                w.w_nested("spec", spec);
            }
            CtrlMsg::ResetRole => w.w_tag("cmd", "reset_role", 2),
            CtrlMsg::RoundStart { round } => {
                w.w_tag("cmd", "round_start", 3);
                w.w_u64("round", *round as u64);
            }
            CtrlMsg::SessionComplete => w.w_tag("cmd", "session_complete", 4),
            CtrlMsg::Abort(reason) => {
                w.w_tag("cmd", "abort", 5);
                w.w_str("reason", reason);
            }
            CtrlMsg::Evicted { reason } => {
                w.w_tag("cmd", "evicted", 6);
                w.w_str("reason", reason);
            }
        }
    }

    fn read_fields<R: FieldReader>(r: &mut R) -> Result<Self> {
        match r.r_tag("cmd", CTRL_CMDS)? {
            1 => Ok(CtrlMsg::SetRole(r.r_nested::<RoleSpec>("spec")?)),
            2 => Ok(CtrlMsg::ResetRole),
            3 => Ok(CtrlMsg::RoundStart {
                round: r.r_u32("round")?,
            }),
            4 => Ok(CtrlMsg::SessionComplete),
            5 => Ok(CtrlMsg::Abort(r.r_str_lenient("reason")?)),
            6 => Ok(CtrlMsg::Evicted {
                reason: r.r_str_lenient("reason")?,
            }),
            _ => unreachable!("r_tag validates against the table"),
        }
    }
}

fn write_msg<W: FieldWriter>(msg: &ControlMsg, w: &mut W) {
    match msg {
        ControlMsg::NewSession(m) => m.write_fields(w),
        ControlMsg::Join(m) => m.write_fields(w),
        ControlMsg::RoundDone(m) => m.write_fields(w),
        ControlMsg::Ctrl { session, msg } => {
            w.w_str("session", session.as_str());
            msg.write_fields(w);
        }
        ControlMsg::Reply(m) => m.write_fields(w),
        ControlMsg::Contrib(m) => m.write_fields(w),
    }
}

fn read_msg<R: FieldReader>(kind: MsgKind, r: &mut R) -> Result<ControlMsg> {
    Ok(match kind {
        MsgKind::NewSession => ControlMsg::NewSession(NewSessionRequest::read_fields(r)?),
        MsgKind::Join => ControlMsg::Join(JoinRequest::read_fields(r)?),
        MsgKind::RoundDone => ControlMsg::RoundDone(RoundDone::read_fields(r)?),
        MsgKind::Ctrl => ControlMsg::Ctrl {
            session: SessionId::new(r.r_str("session")?)?,
            msg: CtrlMsg::read_fields(r)?,
        },
        MsgKind::Reply => ControlMsg::Reply(SessionReply::read_fields(r)?),
        MsgKind::Contrib => ControlMsg::Contrib(ContribMsg::read_fields(r)?),
        MsgKind::BlobMeta => {
            return Err(CoreError::Protocol(
                "blob metadata is not an envelope payload".into(),
            ))
        }
    })
}

// ---------------------------------------------------------------------------
// JSON codec (v1)
// ---------------------------------------------------------------------------

/// The legacy JSON encoding, kept wire-compatible with the paper's format.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonCodec;

struct JsonWriter {
    map: BTreeMap<String, Json>,
}

impl JsonWriter {
    fn new() -> JsonWriter {
        JsonWriter {
            map: BTreeMap::new(),
        }
    }
}

impl FieldWriter for JsonWriter {
    fn w_str(&mut self, name: &'static str, v: &str) {
        self.map.insert(name.to_owned(), Json::str(v));
    }

    fn w_u64(&mut self, name: &'static str, v: u64) {
        self.map.insert(name.to_owned(), Json::num(v as f64));
    }

    fn w_f64(&mut self, name: &'static str, v: f64) {
        self.map.insert(name.to_owned(), Json::num(v));
    }

    fn w_tag(&mut self, name: &'static str, token: &str, _ord: u8) {
        self.w_str(name, token);
    }

    fn w_opt_str(&mut self, name: &'static str, v: Option<&str>) {
        if let Some(v) = v {
            self.w_str(name, v);
        }
    }

    fn w_nested<T: WireSchema>(&mut self, name: &'static str, v: &T) {
        let mut sub = JsonWriter::new();
        v.write_fields(&mut sub);
        self.map.insert(name.to_owned(), Json::Object(sub.map));
    }

    fn w_u64_default(&mut self, name: &'static str, v: u64, default: u64) {
        if v != default {
            self.w_u64(name, v);
        }
    }
}

struct JsonReader<'a> {
    doc: &'a Json,
}

impl JsonReader<'_> {
    fn field(&self, name: &'static str) -> Result<&Json> {
        self.doc
            .get(name)
            .ok_or_else(|| CoreError::Protocol(format!("missing field {name:?}")))
    }
}

impl FieldReader for JsonReader<'_> {
    fn r_str(&mut self, name: &'static str) -> Result<String> {
        self.field(name)?
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| CoreError::Protocol(format!("field {name:?} is not a string")))
    }

    fn r_u64(&mut self, name: &'static str) -> Result<u64> {
        // `as_u64` rejects negative, fractional, and oversized numbers —
        // the legacy layer's `as usize`/`as u32` casts accepted them all.
        self.field(name)?.as_u64().ok_or_else(|| {
            CoreError::Protocol(format!("field {name:?} is not a non-negative integer"))
        })
    }

    fn r_u64_or(&mut self, name: &'static str, default: u64) -> Result<u64> {
        match self.doc.get(name) {
            None => Ok(default),
            Some(v) => v.as_u64().ok_or_else(|| {
                CoreError::Protocol(format!("field {name:?} is not a non-negative integer"))
            }),
        }
    }

    fn r_f64(&mut self, name: &'static str) -> Result<f64> {
        self.field(name)?
            .as_f64()
            .ok_or_else(|| CoreError::Protocol(format!("field {name:?} is not a number")))
    }

    fn r_tag(&mut self, name: &'static str, table: &[(&str, u8)]) -> Result<u8> {
        let token = self.r_str(name)?;
        table
            .iter()
            .find(|(t, _)| *t == token)
            .map(|(_, ord)| *ord)
            .ok_or_else(|| CoreError::Protocol(format!("unknown {name} {token:?}")))
    }

    fn r_opt_str(&mut self, name: &'static str) -> Result<Option<String>> {
        match self.doc.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_owned()))
                .ok_or_else(|| CoreError::Protocol(format!("field {name:?} is not a string"))),
        }
    }

    fn r_nested<T: WireSchema>(&mut self, name: &'static str) -> Result<T> {
        let mut sub = JsonReader {
            doc: self.field(name)?,
        };
        T::read_fields(&mut sub)
    }

    fn r_str_lenient(&mut self, name: &'static str) -> Result<String> {
        // JSON can express absence (legacy docs omit the key); a missing
        // string field decodes as empty rather than an error.
        match self.doc.get(name) {
            None => Ok(String::new()),
            Some(_) => self.r_str(name),
        }
    }
}

impl WireCodec for JsonCodec {
    fn version(&self) -> WireVersion {
        WireVersion::V1Json
    }

    fn encode(&self, msg: &ControlMsg) -> Bytes {
        let mut w = JsonWriter::new();
        write_msg(msg, &mut w);
        Bytes::from(Json::Object(w.map).to_string_compact().into_bytes())
    }

    fn decode(&self, expected: MsgKind, bytes: &[u8]) -> Result<Envelope> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| CoreError::Protocol("control frame is not UTF-8".into()))?;
        let doc = Json::parse(text)?;
        let mut r = JsonReader { doc: &doc };
        Ok(Envelope {
            version: WireVersion::V1Json,
            msg: read_msg(expected, &mut r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Binary codec (v2)
// ---------------------------------------------------------------------------

/// The compact binary encoding: magic + version + kind header, then fields
/// in schema order as varints, raw little-endian floats, and
/// length-prefixed strings.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCodec;

struct BinWriter {
    buf: BytesMut,
}

impl FieldWriter for BinWriter {
    fn w_str(&mut self, _name: &'static str, v: &str) {
        put_varint(&mut self.buf, v.len() as u64);
        self.buf.put_slice(v.as_bytes());
    }

    fn w_u64(&mut self, _name: &'static str, v: u64) {
        put_varint(&mut self.buf, v);
    }

    fn w_f64(&mut self, _name: &'static str, v: f64) {
        self.buf.put_slice(&v.to_le_bytes());
    }

    fn w_tag(&mut self, _name: &'static str, _token: &str, ord: u8) {
        self.buf.put_u8(ord);
    }

    fn w_opt_str(&mut self, name: &'static str, v: Option<&str>) {
        match v {
            Some(s) => {
                self.buf.put_u8(1);
                self.w_str(name, s);
            }
            None => self.buf.put_u8(0),
        }
    }

    fn w_nested<T: WireSchema>(&mut self, _name: &'static str, v: &T) {
        v.write_fields(self);
    }

    fn w_u64_default(&mut self, name: &'static str, v: u64, _default: u64) {
        // Binary fields have fixed schema positions: always written.
        self.w_u64(name, v);
    }
}

/// Zero-copy cursor over a binary frame's field section. Strings are the
/// only per-field allocations; the frame itself is never copied.
struct BinReader<'a> {
    buf: &'a [u8],
}

impl BinReader<'_> {
    fn take(&mut self, n: usize, name: &'static str) -> Result<&[u8]> {
        if self.buf.len() < n {
            return Err(CoreError::Protocol(format!(
                "truncated binary frame at field {name:?}"
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }
}

impl FieldReader for BinReader<'_> {
    fn r_str(&mut self, name: &'static str) -> Result<String> {
        let len = self.r_u64(name)?;
        let len = usize::try_from(len)
            .map_err(|_| CoreError::Protocol(format!("field {name:?} length overflow")))?;
        let raw = self.take(len, name)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| CoreError::Protocol(format!("field {name:?} is not UTF-8")))
    }

    fn r_u64(&mut self, name: &'static str) -> Result<u64> {
        get_varint(&mut self.buf)
            .ok_or_else(|| CoreError::Protocol(format!("bad varint at field {name:?}")))
    }

    fn r_u64_or(&mut self, name: &'static str, default: u64) -> Result<u64> {
        // Upgraded encoders always write the field, but frames from peers
        // built before a tail extension (e.g. the BlobMeta codec fields)
        // simply end early: an exhausted buffer means "field absent",
        // exactly like a missing key in legacy JSON. A *partially*
        // truncated varint is still an error.
        if self.buf.is_empty() {
            return Ok(default);
        }
        self.r_u64(name)
    }

    fn r_f64(&mut self, name: &'static str) -> Result<f64> {
        let raw = self.take(8, name)?;
        Ok(f64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    fn r_tag(&mut self, name: &'static str, table: &[(&str, u8)]) -> Result<u8> {
        let ord = self.take(1, name)?[0];
        if table.iter().any(|(_, o)| *o == ord) {
            Ok(ord)
        } else {
            Err(CoreError::Protocol(format!("unknown {name} tag {ord}")))
        }
    }

    fn r_opt_str(&mut self, name: &'static str) -> Result<Option<String>> {
        match self.take(1, name)?[0] {
            0 => Ok(None),
            1 => Ok(Some(self.r_str(name)?)),
            other => Err(CoreError::Protocol(format!(
                "bad option tag {other} at field {name:?}"
            ))),
        }
    }

    fn r_nested<T: WireSchema>(&mut self, _name: &'static str) -> Result<T> {
        T::read_fields(self)
    }
}

/// Writes the binary frame header (magic, version, kind) — the single
/// definition of the v2 header layout, shared by control frames and blob
/// metadata.
fn put_bin_header(buf: &mut BytesMut, kind: MsgKind) {
    buf.put_u8(BINARY_MAGIC);
    buf.put_u8(WireVersion::V2Binary.as_u8());
    buf.put_u8(kind as u8);
}

/// Validates a binary frame header, returning the frame version and the
/// field section after the header. Rejects short frames, bad magic,
/// non-binary versions, unknown kinds, and kind mismatches.
fn check_bin_header(bytes: &[u8], expected: MsgKind) -> Result<(WireVersion, &[u8])> {
    if bytes.len() < 3 {
        return Err(CoreError::Protocol("binary frame too short".into()));
    }
    if bytes[0] != BINARY_MAGIC {
        return Err(CoreError::Protocol("bad binary frame magic".into()));
    }
    let version = WireVersion::from_u8(bytes[1])
        .filter(|v| *v >= WireVersion::V2Binary)
        .ok_or_else(|| CoreError::Protocol(format!("unsupported wire version {}", bytes[1])))?;
    let kind = MsgKind::from_u8(bytes[2])
        .ok_or_else(|| CoreError::Protocol(format!("unknown message kind {}", bytes[2])))?;
    if kind != expected {
        return Err(CoreError::Protocol(format!(
            "expected {expected:?} frame, got {kind:?}"
        )));
    }
    Ok((version, &bytes[3..]))
}

impl WireCodec for BinaryCodec {
    fn version(&self) -> WireVersion {
        WireVersion::V2Binary
    }

    fn encode(&self, msg: &ControlMsg) -> Bytes {
        let mut w = BinWriter {
            buf: BytesMut::with_capacity(64),
        };
        put_bin_header(&mut w.buf, msg.kind());
        write_msg(msg, &mut w);
        w.buf.freeze()
    }

    fn decode(&self, expected: MsgKind, bytes: &[u8]) -> Result<Envelope> {
        let (version, fields) = check_bin_header(bytes, expected)?;
        let mut r = BinReader { buf: fields };
        let msg = read_msg(expected, &mut r)?;
        if !r.buf.is_empty() {
            return Err(CoreError::Protocol("trailing bytes in binary frame".into()));
        }
        Ok(Envelope { version, msg })
    }
}

// ---------------------------------------------------------------------------
// Blob metadata entry points (shared by `Blob::encode`/`Blob::decode`)
// ---------------------------------------------------------------------------

pub(crate) fn encode_blob_meta(
    blob: &Blob,
    update: &crate::messages::UpdateMeta,
    version: WireVersion,
) -> Bytes {
    let meta = BlobMeta {
        session_id: blob.session_id.clone(),
        round: blob.round,
        sender: blob.sender.clone(),
        weight: blob.weight,
        codec: update.codec,
        elems: update.elems,
        delta_base: update.delta_base,
    };
    match version {
        WireVersion::V1Json => {
            let mut w = JsonWriter::new();
            meta.write_fields(&mut w);
            Bytes::from(Json::Object(w.map).to_string_compact().into_bytes())
        }
        WireVersion::V2Binary => {
            let mut w = BinWriter {
                buf: BytesMut::with_capacity(32),
            };
            put_bin_header(&mut w.buf, MsgKind::BlobMeta);
            meta.write_fields(&mut w);
            w.buf.freeze()
        }
    }
}

pub(crate) fn decode_blob_meta(bytes: &[u8]) -> Result<(BlobMeta, WireVersion)> {
    match bytes.first() {
        Some(&BINARY_MAGIC) => {
            let (version, fields) = check_bin_header(bytes, MsgKind::BlobMeta)?;
            let mut r = BinReader { buf: fields };
            let meta = BlobMeta::read_fields(&mut r)?;
            if !r.buf.is_empty() {
                return Err(CoreError::Protocol("trailing bytes in blob meta".into()));
            }
            Ok((meta, version))
        }
        Some(_) => {
            let text = std::str::from_utf8(bytes)
                .map_err(|_| CoreError::Protocol("blob meta not UTF-8".into()))?;
            let doc = Json::parse(text)?;
            let mut r = JsonReader { doc: &doc };
            Ok((BlobMeta::read_fields(&mut r)?, WireVersion::V1Json))
        }
        None => Err(CoreError::Protocol("empty blob meta".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            proto: WireVersion::LATEST.as_u8(),
            codec: 2,
        }
    }

    #[test]
    fn negotiation_matrix() {
        assert_eq!(WireVersion::negotiate(0), WireVersion::V1Json);
        assert_eq!(WireVersion::negotiate(1), WireVersion::V1Json);
        assert_eq!(WireVersion::negotiate(2), WireVersion::V2Binary);
        // Future peers cap at our latest.
        assert_eq!(WireVersion::negotiate(7), WireVersion::V2Binary);
    }

    #[test]
    fn both_codecs_roundtrip_join() {
        let msg = ControlMsg::Join(join_request());
        for version in [WireVersion::V1Json, WireVersion::V2Binary] {
            let frame = Envelope::new(version, msg.clone()).encode();
            let decoded = Envelope::decode(MsgKind::Join, &frame).unwrap();
            assert_eq!(decoded.version, version);
            assert_eq!(decoded.msg, msg, "version {version:?}");
        }
    }

    #[test]
    fn binary_is_denser_than_json() {
        let msg = ControlMsg::Join(join_request());
        let json = Envelope::new(WireVersion::V1Json, msg.clone()).encode();
        let binary = Envelope::new(WireVersion::V2Binary, msg).encode();
        assert!(
            (binary.len() as f64) < 0.6 * json.len() as f64,
            "binary {} vs json {}",
            binary.len(),
            json.len()
        );
    }

    #[test]
    fn binary_reencode_is_byte_identical() {
        let msg = ControlMsg::RoundDone(RoundDone {
            session_id: SessionId::new("s1").unwrap(),
            client_id: ClientId::new("c9").unwrap(),
            round: 12,
            stats: stats(),
        });
        let frame = Envelope::new(WireVersion::V2Binary, msg).encode();
        let decoded = Envelope::decode(MsgKind::RoundDone, &frame).unwrap();
        assert_eq!(
            Envelope::new(WireVersion::V2Binary, decoded.msg).encode(),
            frame
        );
    }

    #[test]
    fn legacy_json_without_proto_defaults_to_v1() {
        let doc = r#"{"capacity_max":8,"capacity_min":5,"client_id":"c1",
            "fl_rounds":10,"model_name":"mlp","preferred_role":"any",
            "session_id":"s1","session_time":3600,"waiting_time":120}"#;
        let env = Envelope::decode(MsgKind::NewSession, doc.as_bytes()).unwrap();
        let ControlMsg::NewSession(req) = env.msg else {
            panic!("wrong kind");
        };
        assert_eq!(req.proto, 1);
        assert_eq!(WireVersion::negotiate(req.proto), WireVersion::V1Json);
    }

    #[test]
    fn json_rejects_negative_and_fractional_integers() {
        for doc in [
            r#"{"available_flops":1.0,"free_memory":-5,"memory_utilization":0.5,
                "client_id":"c1","model_name":"m","num_samples":1,
                "preferred_role":"any","session_id":"s1"}"#,
            r#"{"client_id":"c1","round":2.5,"session_id":"s1",
                "stats":{"available_flops":1.0,"free_memory":5,"memory_utilization":0.5}}"#,
        ] {
            let kind = if doc.contains("round") {
                MsgKind::RoundDone
            } else {
                MsgKind::Join
            };
            assert!(
                matches!(
                    Envelope::decode(kind, doc.as_bytes()),
                    Err(CoreError::Protocol(_))
                ),
                "should reject {doc}"
            );
        }
    }

    #[test]
    fn json_rejects_out_of_range_u32() {
        let doc = r#"{"client_id":"c1","round":4294967296,"session_id":"s1",
            "stats":{"available_flops":1.0,"free_memory":5,"memory_utilization":0.5}}"#;
        assert!(Envelope::decode(MsgKind::RoundDone, doc.as_bytes()).is_err());
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
                data_wire: 2,
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
        for version in [WireVersion::V1Json, WireVersion::V2Binary] {
            for msg in &msgs {
                let wrapped = ControlMsg::Ctrl {
                    session: session.clone(),
                    msg: msg.clone(),
                };
                let frame = Envelope::new(version, wrapped.clone()).encode();
                let decoded = Envelope::decode(MsgKind::Ctrl, &frame).unwrap();
                assert_eq!(decoded.msg, wrapped, "{msg:?} at {version:?}");
            }
        }
    }

    #[test]
    fn binary_rejects_kind_mismatch_and_truncation() {
        let msg = ControlMsg::RoundDone(RoundDone {
            session_id: SessionId::new("s1").unwrap(),
            client_id: ClientId::new("c1").unwrap(),
            round: 1,
            stats: stats(),
        });
        let frame = Envelope::new(WireVersion::V2Binary, msg).encode();
        assert!(
            Envelope::decode(MsgKind::Join, &frame).is_err(),
            "kind mismatch"
        );
        for cut in 0..frame.len() {
            assert!(
                Envelope::decode(MsgKind::RoundDone, &frame[..cut]).is_err(),
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
        let frame = Envelope::new(WireVersion::V2Binary, msg).encode();
        for cut in 0..frame.len() {
            assert!(
                Envelope::decode(MsgKind::Ctrl, &frame[..cut]).is_err(),
                "cut at {cut} must not decode as Abort(\"\")"
            );
        }
        // JSON leniency still applies: a legacy abort without a reason
        // decodes as an empty reason.
        let legacy = br#"{"cmd":"abort","session":"s1"}"#;
        let env = Envelope::decode(MsgKind::Ctrl, legacy).unwrap();
        assert!(matches!(
            env.msg,
            ControlMsg::Ctrl {
                msg: CtrlMsg::Abort(ref r),
                ..
            } if r.is_empty()
        ));
    }

    #[test]
    fn contrib_roundtrips_both_codecs() {
        let msg = ControlMsg::Contrib(ContribMsg {
            session_id: SessionId::new("s4").unwrap(),
            client_id: ClientId::new("c7").unwrap(),
            round: 3,
        });
        for version in [WireVersion::V1Json, WireVersion::V2Binary] {
            let frame = Envelope::new(version, msg.clone()).encode();
            let decoded = Envelope::decode(MsgKind::Contrib, &frame).unwrap();
            assert_eq!(decoded.version, version);
            assert_eq!(decoded.msg, msg, "version {version:?}");
        }
        // Kind guard: a contrib frame is not a round_done frame.
        let frame = Envelope::new(WireVersion::V2Binary, msg).encode();
        assert!(Envelope::decode(MsgKind::RoundDone, &frame).is_err());
    }

    #[test]
    fn legacy_json_evicted_without_reason_decodes_empty() {
        let legacy = br#"{"cmd":"evicted","session":"s1"}"#;
        let env = Envelope::decode(MsgKind::Ctrl, legacy).unwrap();
        assert!(matches!(
            env.msg,
            ControlMsg::Ctrl {
                msg: CtrlMsg::Evicted { ref reason },
                ..
            } if reason.is_empty()
        ));
    }

    #[test]
    fn session_reply_roundtrip() {
        let reply = SessionReply::new("joined", WireVersion::V2Binary);
        let frame = Envelope::new(WireVersion::V1Json, ControlMsg::Reply(reply.clone())).encode();
        let decoded = Envelope::decode(MsgKind::Reply, &frame).unwrap();
        assert_eq!(decoded.msg, ControlMsg::Reply(reply.clone()));
        assert_eq!(reply.version(), WireVersion::V2Binary);
    }

    #[test]
    fn legacy_binary_blob_meta_without_codec_fields_decodes() {
        // A peer built before the codec extension ends its binary BlobMeta
        // after `weight`. Byte-wise that is today's dense encoding minus
        // the three trailing zero varints — it must decode with the
        // default (dense) codec fields, not error.
        let blob = Blob {
            session_id: SessionId::new("s1").unwrap(),
            round: 2,
            sender: "c1".into(),
            weight: 5,
            params: Bytes::new(),
        };
        let meta = encode_blob_meta(
            &blob,
            &crate::messages::UpdateMeta::default(),
            WireVersion::V2Binary,
        );
        let legacy = &meta[..meta.len() - 3];
        let (decoded, version) = decode_blob_meta(legacy).unwrap();
        assert_eq!(version, WireVersion::V2Binary);
        assert_eq!(decoded.weight, 5);
        assert_eq!(
            (decoded.codec, decoded.elems, decoded.delta_base),
            (0, 0, 0)
        );
        // Same for control frames whose tail gained a field: a Join frame
        // cut before `codec` still decodes (codec = 0).
        let frame = Envelope::new(WireVersion::V2Binary, ControlMsg::Join(join_request())).encode();
        let cut = &frame[..frame.len() - 1];
        let env = Envelope::decode(MsgKind::Join, cut).unwrap();
        let ControlMsg::Join(req) = env.msg else {
            panic!("wrong kind");
        };
        assert_eq!(req.codec, 0);
        assert_eq!(req.proto, join_request().proto);
    }

    #[test]
    fn blob_meta_roundtrips_both_versions() {
        let blob = Blob {
            session_id: SessionId::new("s9").unwrap(),
            round: 4,
            sender: "c3".into(),
            weight: 600,
            params: Bytes::from(vec![1u8, 2, 3]),
        };
        let update = crate::messages::UpdateMeta {
            codec: 2,
            elems: 3,
            delta_base: 0,
        };
        for version in [WireVersion::V1Json, WireVersion::V2Binary] {
            let meta = encode_blob_meta(&blob, &update, version);
            let (decoded, got_version) = decode_blob_meta(&meta).unwrap();
            assert_eq!(got_version, version);
            assert_eq!(decoded.session_id, blob.session_id);
            assert_eq!(decoded.round, blob.round);
            assert_eq!(decoded.sender, blob.sender);
            assert_eq!(decoded.weight, blob.weight);
            assert_eq!(decoded.codec, update.codec);
            assert_eq!(decoded.elems, update.elems);
            assert_eq!(decoded.delta_base, update.delta_base);
        }
    }
}
