//! Write-ahead-log frames and records.
//!
//! Every durable broker event is one [`WalRecord`] serialized in the same
//! binary idiom as the wire codec (u16-length-prefixed UTF-8 strings,
//! u32-length-prefixed byte blobs, big-endian integers) and wrapped in a
//! length-prefixed, checksummed frame:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! payload = [u64 seq][u8 kind][body...]
//! ```
//!
//! Readers stop at the first invalid frame (truncated length, bad
//! checksum, unknown kind, or malformed body) — a torn tail from a crash
//! mid-append loses only the record being written, never the prefix.

use crate::crc32;
use crate::packet::{LastWill, PacketId, QoS};
use crate::topic::{TopicFilter, TopicName};
use bytes::{BufMut, Bytes, BytesMut};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

// Record kind bytes. Kind 0 is the snapshot watermark header.
const K_WATERMARK: u8 = 0;
const K_SESSION_CREATE: u8 = 1;
const K_SESSION_DESTROY: u8 = 2;
const K_SUBSCRIBE: u8 = 3;
const K_UNSUBSCRIBE: u8 = 4;
const K_ENQUEUE: u8 = 5;
const K_QUEUE_DRAINED: u8 = 6;
const K_INFLIGHT_INSERT: u8 = 7;
const K_INFLIGHT_RELEASE: u8 = 8;
const K_INFLIGHT_REMOVE: u8 = 9;
const K_INBOUND_QOS2_INSERT: u8 = 10;
const K_INBOUND_QOS2_REMOVE: u8 = 11;
const K_WILL_SET: u8 = 12;
const K_WILL_CLEAR: u8 = 13;
const K_RETAINED_SET: u8 = 14;

/// One durable broker event.
///
/// Session-scoped records live in the owning shard's stream; retained
/// records live in the broker-global retained stream (appended under the
/// index writer lock, so their order matches the index exactly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Snapshot header: live-WAL records with `seq <= watermark` are
    /// already folded into the snapshot that starts with this record.
    Watermark {
        /// Highest sequence number the snapshot covers.
        seq: u64,
    },
    /// A persistent (`clean_session = false`) session was created.
    SessionCreate {
        /// Owning client id.
        client: String,
    },
    /// A session was destroyed (clean reconnect or clean disconnect).
    SessionDestroy {
        /// Owning client id.
        client: String,
    },
    /// A subscription was added or its granted QoS replaced.
    Subscribe {
        /// Owning client id.
        client: String,
        /// Subscribed filter.
        filter: TopicFilter,
        /// Granted QoS.
        qos: QoS,
    },
    /// A subscription was removed.
    Unsubscribe {
        /// Owning client id.
        client: String,
        /// Removed filter.
        filter: TopicFilter,
    },
    /// A message was queued for an offline session.
    Enqueue {
        /// Owning client id.
        client: String,
        /// Message topic.
        topic: TopicName,
        /// Delivery QoS.
        qos: QoS,
        /// Message payload.
        payload: Bytes,
    },
    /// The offline queue was drained for replay on reconnect.
    QueueDrained {
        /// Owning client id.
        client: String,
    },
    /// An outbound QoS>0 message entered the inflight window.
    InflightInsert {
        /// Owning client id.
        client: String,
        /// Packet id the delivery was stamped with.
        id: PacketId,
        /// Message topic.
        topic: TopicName,
        /// Delivery QoS.
        qos: QoS,
        /// Retain flag on the (re)transmission.
        retain: bool,
        /// QoS 2 state: PUBREC received, PUBREL sent.
        released: bool,
        /// Message payload.
        payload: Bytes,
    },
    /// PUBREC received for an inflight QoS 2 message.
    InflightRelease {
        /// Owning client id.
        client: String,
        /// Packet id.
        id: PacketId,
    },
    /// An inflight message was acknowledged (PUBACK / PUBCOMP).
    InflightRemove {
        /// Owning client id.
        client: String,
        /// Packet id.
        id: PacketId,
    },
    /// An inbound QoS 2 packet id entered the dedupe set.
    InboundQos2Insert {
        /// Owning client id.
        client: String,
        /// Packet id.
        id: PacketId,
    },
    /// PUBREL received: the inbound QoS 2 id left the dedupe set.
    InboundQos2Remove {
        /// Owning client id.
        client: String,
        /// Packet id.
        id: PacketId,
    },
    /// A connection registered a last-will message.
    WillSet {
        /// Owning client id.
        client: String,
        /// Registered will.
        will: LastWill,
    },
    /// The will was discharged (graceful disconnect, or it fired).
    WillClear {
        /// Owning client id.
        client: String,
    },
    /// A retained message was stored (empty payload clears the topic).
    RetainedSet {
        /// Retained topic.
        topic: TopicName,
        /// QoS the message was published with.
        qos: QoS,
        /// Retained payload (empty = clear).
        payload: Bytes,
    },
}

impl WalRecord {
    /// The client id a session-scoped record belongs to, if any.
    pub fn client(&self) -> Option<&str> {
        match self {
            WalRecord::SessionCreate { client }
            | WalRecord::SessionDestroy { client }
            | WalRecord::Subscribe { client, .. }
            | WalRecord::Unsubscribe { client, .. }
            | WalRecord::Enqueue { client, .. }
            | WalRecord::QueueDrained { client }
            | WalRecord::InflightInsert { client, .. }
            | WalRecord::InflightRelease { client, .. }
            | WalRecord::InflightRemove { client, .. }
            | WalRecord::InboundQos2Insert { client, .. }
            | WalRecord::InboundQos2Remove { client, .. }
            | WalRecord::WillSet { client, .. }
            | WalRecord::WillClear { client } => Some(client),
            WalRecord::Watermark { .. } | WalRecord::RetainedSet { .. } => None,
        }
    }
}

fn put_str(s: &str, buf: &mut BytesMut) {
    debug_assert!(s.len() <= u16::MAX as usize);
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn put_bytes(b: &[u8], buf: &mut BytesMut) {
    buf.put_u32(b.len() as u32);
    buf.put_slice(b);
}

/// Encodes the record payload (`[seq][kind][body]`) without framing.
fn encode_payload(seq: u64, rec: &WalRecord, buf: &mut BytesMut) {
    buf.put_u64(seq);
    match rec {
        WalRecord::Watermark { seq } => {
            buf.put_u8(K_WATERMARK);
            buf.put_u64(*seq);
        }
        WalRecord::SessionCreate { client } => {
            buf.put_u8(K_SESSION_CREATE);
            put_str(client, buf);
        }
        WalRecord::SessionDestroy { client } => {
            buf.put_u8(K_SESSION_DESTROY);
            put_str(client, buf);
        }
        WalRecord::Subscribe {
            client,
            filter,
            qos,
        } => {
            buf.put_u8(K_SUBSCRIBE);
            put_str(client, buf);
            put_str(filter.as_str(), buf);
            buf.put_u8(*qos as u8);
        }
        WalRecord::Unsubscribe { client, filter } => {
            buf.put_u8(K_UNSUBSCRIBE);
            put_str(client, buf);
            put_str(filter.as_str(), buf);
        }
        WalRecord::Enqueue {
            client,
            topic,
            qos,
            payload,
        } => {
            buf.put_u8(K_ENQUEUE);
            put_str(client, buf);
            put_str(topic.as_str(), buf);
            buf.put_u8(*qos as u8);
            put_bytes(payload, buf);
        }
        WalRecord::QueueDrained { client } => {
            buf.put_u8(K_QUEUE_DRAINED);
            put_str(client, buf);
        }
        WalRecord::InflightInsert {
            client,
            id,
            topic,
            qos,
            retain,
            released,
            payload,
        } => {
            buf.put_u8(K_INFLIGHT_INSERT);
            put_str(client, buf);
            buf.put_u16(*id);
            put_str(topic.as_str(), buf);
            buf.put_u8(*qos as u8);
            buf.put_u8(u8::from(*retain) | (u8::from(*released) << 1));
            put_bytes(payload, buf);
        }
        WalRecord::InflightRelease { client, id } => {
            buf.put_u8(K_INFLIGHT_RELEASE);
            put_str(client, buf);
            buf.put_u16(*id);
        }
        WalRecord::InflightRemove { client, id } => {
            buf.put_u8(K_INFLIGHT_REMOVE);
            put_str(client, buf);
            buf.put_u16(*id);
        }
        WalRecord::InboundQos2Insert { client, id } => {
            buf.put_u8(K_INBOUND_QOS2_INSERT);
            put_str(client, buf);
            buf.put_u16(*id);
        }
        WalRecord::InboundQos2Remove { client, id } => {
            buf.put_u8(K_INBOUND_QOS2_REMOVE);
            put_str(client, buf);
            buf.put_u16(*id);
        }
        WalRecord::WillSet { client, will } => {
            buf.put_u8(K_WILL_SET);
            put_str(client, buf);
            put_str(will.topic.as_str(), buf);
            buf.put_u8(will.qos as u8);
            buf.put_u8(u8::from(will.retain));
            put_bytes(&will.payload, buf);
        }
        WalRecord::WillClear { client } => {
            buf.put_u8(K_WILL_CLEAR);
            put_str(client, buf);
        }
        WalRecord::RetainedSet {
            topic,
            qos,
            payload,
        } => {
            buf.put_u8(K_RETAINED_SET);
            put_str(topic.as_str(), buf);
            buf.put_u8(*qos as u8);
            put_bytes(payload, buf);
        }
    }
}

/// Encodes one framed record (`[len][crc][payload]`) into `buf`.
///
/// Single-pass: the payload is encoded directly into `buf` after an
/// 8-byte header placeholder, then the length and CRC are patched in
/// place. No intermediate scratch buffer, so encoding is copy-free and
/// (given a warm `buf`) allocation-free — the per-record writer and
/// the persistence thread's batch encoder share this routine, which is
/// why the two produce byte-identical streams by construction.
pub fn encode_frame(seq: u64, rec: &WalRecord, buf: &mut BytesMut) {
    let start = buf.len();
    buf.put_u32(0); // length placeholder, patched below
    buf.put_u32(0); // crc placeholder, patched below
    encode_payload(seq, rec, buf);
    let body = &buf[start + 8..];
    let len = (body.len() as u32).to_be_bytes();
    let crc = crc32(body).to_be_bytes();
    buf[start..start + 4].copy_from_slice(&len);
    buf[start + 4..start + 8].copy_from_slice(&crc);
}

/// Byte cursor for record bodies; every read is bounds-checked so a
/// malformed body terminates decoding instead of panicking.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|b| u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).ok()
    }

    fn bytes(&mut self) -> Option<Bytes> {
        let len = self.u32()? as usize;
        self.take(len).map(|b| Bytes::from(b.to_vec()))
    }

    fn qos(&mut self) -> Option<QoS> {
        QoS::from_u8(self.u8()?)
    }

    fn topic(&mut self) -> Option<TopicName> {
        TopicName::new(self.str()?).ok()
    }

    fn filter(&mut self) -> Option<TopicFilter> {
        TopicFilter::new(self.str()?).ok()
    }
}

/// Decodes one record payload; `None` on any malformation.
fn decode_payload(payload: &[u8]) -> Option<(u64, WalRecord)> {
    let mut c = Cursor {
        data: payload,
        pos: 0,
    };
    let seq = c.u64()?;
    let kind = c.u8()?;
    let rec = match kind {
        K_WATERMARK => WalRecord::Watermark { seq: c.u64()? },
        K_SESSION_CREATE => WalRecord::SessionCreate { client: c.str()? },
        K_SESSION_DESTROY => WalRecord::SessionDestroy { client: c.str()? },
        K_SUBSCRIBE => WalRecord::Subscribe {
            client: c.str()?,
            filter: c.filter()?,
            qos: c.qos()?,
        },
        K_UNSUBSCRIBE => WalRecord::Unsubscribe {
            client: c.str()?,
            filter: c.filter()?,
        },
        K_ENQUEUE => WalRecord::Enqueue {
            client: c.str()?,
            topic: c.topic()?,
            qos: c.qos()?,
            payload: c.bytes()?,
        },
        K_QUEUE_DRAINED => WalRecord::QueueDrained { client: c.str()? },
        K_INFLIGHT_INSERT => {
            let client = c.str()?;
            let id = c.u16()?;
            let topic = c.topic()?;
            let qos = c.qos()?;
            let flags = c.u8()?;
            WalRecord::InflightInsert {
                client,
                id,
                topic,
                qos,
                retain: flags & 1 != 0,
                released: flags & 2 != 0,
                payload: c.bytes()?,
            }
        }
        K_INFLIGHT_RELEASE => WalRecord::InflightRelease {
            client: c.str()?,
            id: c.u16()?,
        },
        K_INFLIGHT_REMOVE => WalRecord::InflightRemove {
            client: c.str()?,
            id: c.u16()?,
        },
        K_INBOUND_QOS2_INSERT => WalRecord::InboundQos2Insert {
            client: c.str()?,
            id: c.u16()?,
        },
        K_INBOUND_QOS2_REMOVE => WalRecord::InboundQos2Remove {
            client: c.str()?,
            id: c.u16()?,
        },
        K_WILL_SET => {
            let client = c.str()?;
            let topic = c.topic()?;
            let qos = c.qos()?;
            let retain = c.u8()? != 0;
            let payload = c.bytes()?;
            WalRecord::WillSet {
                client,
                will: LastWill {
                    topic,
                    payload,
                    qos,
                    retain,
                },
            }
        }
        K_WILL_CLEAR => WalRecord::WillClear { client: c.str()? },
        K_RETAINED_SET => WalRecord::RetainedSet {
            topic: c.topic()?,
            qos: c.qos()?,
            payload: c.bytes()?,
        },
        _ => return None,
    };
    Some((seq, rec))
}

/// Decodes every valid framed record from `data`, stopping at the first
/// truncated or corrupted frame (the crash-recovery contract: a torn tail
/// never invalidates the prefix).
pub fn decode_frames(data: &[u8]) -> Vec<(u64, WalRecord)> {
    let mut out = Vec::new();
    let mut rest = data;
    while rest.len() >= 8 {
        let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_be_bytes([rest[4], rest[5], rest[6], rest[7]]);
        let Some(frame_end) = len.checked_add(8) else {
            break;
        };
        if frame_end > rest.len() {
            break; // truncated tail
        }
        let payload = &rest[8..frame_end];
        if crc32(payload) != crc {
            break; // corrupted frame
        }
        let Some(rec) = decode_payload(payload) else {
            break; // unknown kind / malformed body
        };
        out.push(rec);
        rest = &rest[frame_end..];
    }
    out
}

/// Reads and decodes every valid record from a WAL file. A missing file
/// is an empty log.
pub fn read_wal(path: &Path) -> Vec<(u64, WalRecord)> {
    match std::fs::read(path) {
        Ok(data) => decode_frames(&data),
        Err(_) => Vec::new(),
    }
}

/// Debug-build guard for the write-behind contract: WAL file I/O must
/// never run on a broker shard event-loop thread (named `*-shard-N`) —
/// the persistence thread owns the file handles.
#[inline]
fn assert_off_shard_thread() {
    debug_assert!(
        std::thread::current()
            .name()
            .is_none_or(|n| !n.contains("-shard-")),
        "WAL I/O must not run on a shard event-loop thread"
    );
}

/// Append-only framed-record writer over one WAL file. Owns a reusable
/// staging buffer so steady-state appends are allocation-free.
#[derive(Debug)]
pub struct WalWriter {
    file: std::fs::File,
    buf: BytesMut,
}

impl WalWriter {
    /// Creates (truncating) the WAL file at `path`.
    pub fn create(path: &Path) -> std::io::Result<WalWriter> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(WalWriter {
            file,
            buf: BytesMut::with_capacity(256),
        })
    }

    /// Appends one framed record and flushes it to the OS.
    pub fn append(&mut self, seq: u64, rec: &WalRecord) -> std::io::Result<()> {
        assert_off_shard_thread();
        self.buf.clear();
        encode_frame(seq, rec, &mut self.buf);
        self.file.write_all(&self.buf)?;
        self.file.flush()
    }

    /// Appends a batch of records group-committed as one `write`:
    /// sequence numbers `start_seq + 1 ..` are assigned in iteration
    /// order, exactly as consecutive [`WalWriter::append`] calls would,
    /// so the resulting byte stream is identical to the per-record
    /// path's. Returns the last sequence number assigned.
    pub fn append_batch<'a>(
        &mut self,
        start_seq: u64,
        recs: impl IntoIterator<Item = &'a WalRecord>,
    ) -> std::io::Result<u64> {
        assert_off_shard_thread();
        self.buf.clear();
        let mut seq = start_seq;
        for rec in recs {
            seq += 1;
            encode_frame(seq, rec, &mut self.buf);
        }
        self.file.write_all(&self.buf)?;
        self.file.flush()?;
        Ok(seq)
    }

    /// Fsyncs appended data to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> std::io::Result<()> {
        assert_off_shard_thread();
        self.file.sync_data()
    }

    /// Discards every record (post-compaction truncation).
    pub fn reset(&mut self) -> std::io::Result<()> {
        assert_off_shard_thread();
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::SessionCreate {
                client: "alice".into(),
            },
            WalRecord::Subscribe {
                client: "alice".into(),
                filter: TopicFilter::new("a/+/b").unwrap(),
                qos: QoS::AtLeastOnce,
            },
            WalRecord::Enqueue {
                client: "alice".into(),
                topic: TopicName::new("a/x/b").unwrap(),
                qos: QoS::ExactlyOnce,
                payload: Bytes::from_static(b"payload"),
            },
            WalRecord::InflightInsert {
                client: "alice".into(),
                id: 7,
                topic: TopicName::new("t").unwrap(),
                qos: QoS::ExactlyOnce,
                retain: true,
                released: true,
                payload: Bytes::from_static(b"x"),
            },
            WalRecord::WillSet {
                client: "bob".into(),
                will: LastWill {
                    topic: TopicName::new("wills/bob").unwrap(),
                    payload: Bytes::from_static(b"gone"),
                    qos: QoS::AtLeastOnce,
                    retain: false,
                },
            },
            WalRecord::RetainedSet {
                topic: TopicName::new("cfg/x").unwrap(),
                qos: QoS::AtMostOnce,
                payload: Bytes::new(),
            },
            WalRecord::Watermark { seq: 42 },
        ]
    }

    #[test]
    fn records_roundtrip() {
        let mut buf = BytesMut::new();
        for (i, rec) in sample_records().iter().enumerate() {
            encode_frame(i as u64, rec, &mut buf);
        }
        let decoded = decode_frames(&buf);
        assert_eq!(decoded.len(), sample_records().len());
        for ((seq, rec), (i, expect)) in decoded.iter().zip(sample_records().iter().enumerate()) {
            assert_eq!(*seq, i as u64);
            assert_eq!(rec, expect);
        }
    }

    #[test]
    fn truncated_tail_keeps_prefix() {
        let mut buf = BytesMut::new();
        for (i, rec) in sample_records().iter().enumerate() {
            encode_frame(i as u64, rec, &mut buf);
        }
        let full = decode_frames(&buf).len();
        let cut = decode_frames(&buf[..buf.len() - 3]);
        assert_eq!(cut.len(), full - 1, "only the torn last frame is lost");
    }

    #[test]
    fn corrupt_frame_stops_decoding() {
        let mut buf = BytesMut::new();
        for (i, rec) in sample_records().iter().enumerate() {
            encode_frame(i as u64, rec, &mut buf);
        }
        let mut data = buf.to_vec();
        // Flip a byte inside the second frame's payload.
        let first_len = u32::from_be_bytes([data[0], data[1], data[2], data[3]]) as usize + 8;
        data[first_len + 10] ^= 0xFF;
        let decoded = decode_frames(&data);
        assert_eq!(decoded.len(), 1, "decoding stops at the corrupt frame");
        assert_eq!(decoded[0].1, sample_records()[0]);
    }

    #[test]
    fn writer_appends_and_resets() {
        let dir = std::env::temp_dir().join(format!("sdflmq-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wal");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(1, &WalRecord::SessionCreate { client: "c".into() })
            .unwrap();
        w.append(2, &WalRecord::WillClear { client: "c".into() })
            .unwrap();
        assert_eq!(read_wal(&path).len(), 2);
        w.reset().unwrap();
        assert!(read_wal(&path).is_empty());
        w.append(3, &WalRecord::QueueDrained { client: "c".into() })
            .unwrap();
        let recs = read_wal(&path);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_append_matches_per_record_bytes() {
        let dir = std::env::temp_dir().join(format!("sdflmq-wal-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let one = dir.join("per-record.wal");
        let many = dir.join("batched.wal");
        let records = sample_records();

        let mut w = WalWriter::create(&one).unwrap();
        let mut seq = 0;
        for rec in &records {
            seq += 1;
            w.append(seq, rec).unwrap();
        }

        let mut w = WalWriter::create(&many).unwrap();
        // Split the same sequence into uneven batches.
        let last = w.append_batch(0, &records[..3]).unwrap();
        let last = w.append_batch(last, &records[3..]).unwrap();
        assert_eq!(last, records.len() as u64);

        assert_eq!(
            std::fs::read(&one).unwrap(),
            std::fs::read(&many).unwrap(),
            "group-committed stream must be byte-identical to the per-record writer"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
