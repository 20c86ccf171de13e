//! Wire encoding for MQTTFC messages.
//!
//! Two layers are defined here:
//!
//! * [`RfcMessage`] — the remote-function-call envelope (call id, function
//!   name, sender, optional reply topic, kind, argument payload);
//! * [`Chunk`] — the batching frame wrapped around large payloads before
//!   they are split across multiple MQTT publishes (see
//!   [`crate::batching`]).
//!
//! Both use a compact length-prefixed binary layout. A CRC32 (IEEE
//! polynomial) protects each chunk so reassembly can reject
//! corrupted or mixed-up transfers; `docs/PROTOCOL.md` ("Chunk frames")
//! specifies the chunk layout and what each CRC covers.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Errors from wire decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the structure was complete.
    Truncated,
    /// A field contained an invalid value.
    Invalid(&'static str),
    /// Chunk checksum mismatch.
    BadChecksum {
        /// CRC carried in the chunk header.
        expected: u32,
        /// CRC computed over the received body.
        actual: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire data"),
            WireError::Invalid(what) => write!(f, "invalid wire data: {what}"),
            WireError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "chunk checksum mismatch: header {expected:#10x}, body {actual:#10x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// The IEEE CRC-32 that protects chunks and whole payloads: the
/// workspace's one implementation, shared with the broker's WAL frames.
pub use sdflmq_mqtt::crc32;
use sdflmq_mqtt::crc32_combine;

// ---------------------------------------------------------------------------
// Varints (LEB128) — shared by the RFC layer and the SDFLMQ control-plane
// binary codec
// ---------------------------------------------------------------------------

/// Appends `value` as an LEB128 varint (1–10 bytes).
pub fn put_varint(buf: &mut BytesMut, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads an LEB128 varint, advancing `input` (works over `Bytes` or a
/// `&mut &[u8]` cursor). Returns `None` on truncation or a varint longer
/// than 10 bytes (overflow).
pub fn get_varint<B: Buf>(input: &mut B) -> Option<u64> {
    let mut value = 0u64;
    for i in 0..10 {
        if !input.has_remaining() {
            return None;
        }
        let byte = input.get_u8();
        let bits = (byte & 0x7F) as u64;
        if i == 9 && bits > 1 {
            return None; // would overflow 64 bits
        }
        value |= bits << (7 * i);
        if byte & 0x80 == 0 {
            return Some(value);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// RFC messages
// ---------------------------------------------------------------------------

/// Kind of an RFC envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RfcKind {
    /// A call request (may or may not expect a reply).
    Request = 0,
    /// A successful reply.
    Response = 1,
    /// An error reply; payload carries a UTF-8 description.
    Error = 2,
}

impl RfcKind {
    fn from_u8(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(RfcKind::Request),
            1 => Ok(RfcKind::Response),
            2 => Ok(RfcKind::Error),
            _ => Err(WireError::Invalid("unknown RFC kind")),
        }
    }
}

/// The remote-function-call envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RfcMessage {
    /// Correlates responses with requests.
    pub call_id: u64,
    /// Function name (bound to an MQTT topic by the controller).
    pub function: String,
    /// Id of the calling node.
    pub sender: String,
    /// Topic the callee should publish a response to, if any.
    pub reply_to: Option<String>,
    /// Request / response / error.
    pub kind: RfcKind,
    /// Serialized arguments or return value.
    pub payload: Bytes,
}

impl RfcMessage {
    /// Encodes to a self-contained byte string.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(
            32 + self.function.len()
                + self.sender.len()
                + self.reply_to.as_deref().map(str::len).unwrap_or(0)
                + self.payload.len(),
        );
        buf.put_u8(self.kind as u8);
        buf.put_u64(self.call_id);
        put_str(&mut buf, &self.function);
        put_str(&mut buf, &self.sender);
        match &self.reply_to {
            Some(t) => {
                buf.put_u8(1);
                put_str(&mut buf, t);
            }
            None => buf.put_u8(0),
        }
        buf.put_u32(self.payload.len() as u32);
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Decodes from bytes produced by [`RfcMessage::encode`].
    pub fn decode(mut input: Bytes) -> Result<RfcMessage, WireError> {
        if input.remaining() < 9 {
            return Err(WireError::Truncated);
        }
        let kind = RfcKind::from_u8(input.get_u8())?;
        let call_id = input.get_u64();
        let function = get_str(&mut input)?;
        let sender = get_str(&mut input)?;
        if !input.has_remaining() {
            return Err(WireError::Truncated);
        }
        let reply_to = match input.get_u8() {
            0 => None,
            1 => Some(get_str(&mut input)?),
            _ => return Err(WireError::Invalid("bad reply_to tag")),
        };
        if input.remaining() < 4 {
            return Err(WireError::Truncated);
        }
        let len = input.get_u32() as usize;
        if input.remaining() < len {
            return Err(WireError::Truncated);
        }
        let payload = input.split_to(len);
        Ok(RfcMessage {
            call_id,
            function,
            sender,
            reply_to,
            kind,
            payload,
        })
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_str(input: &mut Bytes) -> Result<String, WireError> {
    if input.remaining() < 2 {
        return Err(WireError::Truncated);
    }
    let len = input.get_u16() as usize;
    if input.remaining() < len {
        return Err(WireError::Truncated);
    }
    let raw = input.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::Invalid("non-UTF-8 string"))
}

// ---------------------------------------------------------------------------
// Chunks (batching frames)
// ---------------------------------------------------------------------------

/// One fragment of a batched transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Transfer this chunk belongs to (unique per sender).
    pub transfer_id: u64,
    /// Chunk index, 0-based.
    pub seq: u32,
    /// Total number of chunks in the transfer.
    pub total: u32,
    /// CRC32 of the *whole reassembled* (possibly compressed) payload,
    /// identical across all chunks of a transfer.
    pub payload_crc: u32,
    /// This chunk's slice of the payload.
    pub data: Bytes,
}

impl Chunk {
    /// Encodes to a self-contained byte string with a per-chunk CRC.
    pub fn encode(&self) -> Bytes {
        encode_chunk(
            self.transfer_id,
            self.seq,
            self.total,
            self.payload_crc,
            &[&self.data],
            crc32(&self.data),
        )
    }

    /// Decodes and verifies a chunk.
    pub fn decode(input: Bytes) -> Result<Chunk, WireError> {
        Chunk::decode_with_crc(input).map(|(chunk, _)| chunk)
    }

    /// [`Chunk::decode`], also returning `crc32(data)`: the frame check
    /// computes it anyway, and reassembly folds it into the whole-payload
    /// check instead of reading the payload a second time.
    pub(crate) fn decode_with_crc(mut input: Bytes) -> Result<(Chunk, u32), WireError> {
        if input.remaining() < CHUNK_HEADER + 4 {
            return Err(WireError::Truncated);
        }
        let header_crc = crc32(&input[..CHUNK_HEADER]);
        let transfer_id = input.get_u64();
        let seq = input.get_u32();
        let total = input.get_u32();
        let payload_crc = input.get_u32();
        let len = input.get_u32() as usize;
        if input.remaining() < len + 4 {
            return Err(WireError::Truncated);
        }
        if input.remaining() > len + 4 {
            return Err(WireError::Invalid("bytes after the chunk trailer"));
        }
        let data = input.split_to(len);
        let stored_crc = input.get_u32();
        let data_crc = crc32(&data);
        let actual = crc32_combine(header_crc, data_crc, len as u64);
        if stored_crc != actual {
            return Err(WireError::BadChecksum {
                expected: stored_crc,
                actual,
            });
        }
        if total == 0 || seq >= total {
            return Err(WireError::Invalid("chunk seq out of range"));
        }
        let chunk = Chunk {
            transfer_id,
            seq,
            total,
            payload_crc,
            data,
        };
        Ok((chunk, data_crc))
    }
}

/// Bytes of a chunk frame ahead of its data: transfer id, seq, total,
/// payload CRC, data length. A 4-byte frame CRC follows the data.
const CHUNK_HEADER: usize = 24;

/// Writes one chunk frame whose data is the concatenation of `data` and
/// whose data CRC the caller already holds, so the frame CRC reads only
/// the 24-byte header. Byte-identical to [`Chunk::encode`] of the same
/// chunk.
pub(crate) fn encode_chunk(
    transfer_id: u64,
    seq: u32,
    total: u32,
    payload_crc: u32,
    data: &[&[u8]],
    data_crc: u32,
) -> Bytes {
    let len = data.iter().map(|d| d.len()).sum::<usize>();
    let mut buf = BytesMut::with_capacity(CHUNK_HEADER + len + 4);
    buf.put_u64(transfer_id);
    buf.put_u32(seq);
    buf.put_u32(total);
    buf.put_u32(payload_crc);
    buf.put_u32(len as u32);
    let crc = crc32_combine(crc32(&buf), data_crc, len as u64);
    for piece in data {
        buf.put_slice(piece);
    }
    buf.put_u32(crc);
    buf.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut bytes = buf.freeze();
            assert_eq!(get_varint(&mut bytes), Some(v), "value {v}");
            assert!(!bytes.has_remaining());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert_eq!(get_varint(&mut Bytes::new()), None);
        assert_eq!(get_varint(&mut Bytes::from_static(&[0x80])), None);
        // 11-byte varint: overflow.
        assert_eq!(get_varint(&mut Bytes::from_static(&[0xFF; 11])), None);
    }

    #[test]
    fn rfc_message_roundtrip() {
        let msg = RfcMessage {
            call_id: 42,
            function: "set_role".into(),
            sender: "client_7".into(),
            reply_to: Some("mqttfc/inbox/client_7".into()),
            kind: RfcKind::Request,
            payload: Bytes::from_static(b"{\"role\":\"aggregator\"}"),
        };
        let decoded = RfcMessage::decode(msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn rfc_message_no_reply_roundtrip() {
        let msg = RfcMessage {
            call_id: 0,
            function: "stats".into(),
            sender: "c".into(),
            reply_to: None,
            kind: RfcKind::Response,
            payload: Bytes::new(),
        };
        assert_eq!(RfcMessage::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn rfc_error_kind_roundtrip() {
        let msg = RfcMessage {
            call_id: 7,
            function: "join_session".into(),
            sender: "coordinator".into(),
            reply_to: None,
            kind: RfcKind::Error,
            payload: Bytes::from_static(b"session full"),
        };
        assert_eq!(RfcMessage::decode(msg.encode()).unwrap(), msg);
    }

    #[test]
    fn rfc_truncation_detected() {
        let msg = RfcMessage {
            call_id: 1,
            function: "f".into(),
            sender: "s".into(),
            reply_to: Some("r".into()),
            kind: RfcKind::Request,
            payload: Bytes::from_static(b"data"),
        };
        let encoded = msg.encode();
        for cut in 0..encoded.len() {
            assert!(
                RfcMessage::decode(encoded.slice(..cut)).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn chunk_roundtrip_and_corruption() {
        let chunk = Chunk {
            transfer_id: 99,
            seq: 2,
            total: 5,
            payload_crc: 0xDEAD_BEEF,
            data: Bytes::from(vec![7u8; 1000]),
        };
        let encoded = chunk.encode();
        assert_eq!(Chunk::decode(encoded.clone()).unwrap(), chunk);

        // Flip one payload byte: CRC must catch it.
        let mut bad = encoded.to_vec();
        bad[30] ^= 0x01;
        assert!(matches!(
            Chunk::decode(Bytes::from(bad)),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn chunk_frames_are_exactly_their_declared_length() {
        let chunk = Chunk {
            transfer_id: 3,
            seq: 0,
            total: 1,
            payload_crc: 0,
            data: Bytes::from_static(b"data"),
        };
        let encoded = chunk.encode();
        let (decoded, data_crc) = Chunk::decode_with_crc(encoded.clone()).unwrap();
        assert_eq!((decoded, data_crc), (chunk, crc32(b"data")));
        let mut padded = encoded.to_vec();
        padded.push(0);
        assert_eq!(
            Chunk::decode(Bytes::from(padded)),
            Err(WireError::Invalid("bytes after the chunk trailer"))
        );
        assert_eq!(
            Chunk::decode(encoded.slice(..encoded.len() - 1)),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn chunk_rejects_bad_seq() {
        let chunk = Chunk {
            transfer_id: 1,
            seq: 5,
            total: 5,
            payload_crc: 0,
            data: Bytes::new(),
        };
        assert!(matches!(
            Chunk::decode(chunk.encode()),
            Err(WireError::Invalid(_))
        ));
    }
}
