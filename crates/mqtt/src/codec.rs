//! MQTT 3.1.1 wire codec: fixed header with variable-length remaining-length
//! field, UTF-8 strings with u16 length prefixes, and per-packet variable
//! headers and payloads.
//!
//! The codec is allocation-conscious: encoding reserves the exact frame size
//! up front, and decoding slices payload bytes out of the input `Bytes`
//! without copying. Links, sockets and the broker's fan-out move packets
//! as two-part [`Frame`]s, so a PUBLISH payload is shared from the
//! publisher's `Bytes` to every subscriber's decoder and never copied.

use crate::error::{ConnectReturnCode, MqttError, Result};
use crate::packet::*;
use crate::topic::{TopicFilter, TopicName};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Maximum value of the remaining-length field (4 varint bytes).
pub const MAX_REMAINING_LENGTH: usize = 268_435_455;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encodes a packet into a freshly allocated frame.
pub fn encode(packet: &Packet) -> Result<Bytes> {
    let mut buf = BytesMut::with_capacity(estimate_size(packet));
    encode_into(packet, &mut buf)?;
    Ok(buf.freeze())
}

/// Encodes a packet into `buf`, appending one complete frame.
pub fn encode_into(packet: &Packet, buf: &mut BytesMut) -> Result<()> {
    match packet {
        Packet::Connect(c) => encode_connect(c, buf),
        Packet::Connack(c) => {
            buf.put_u8(0x20);
            buf.put_u8(2);
            buf.put_u8(c.session_present as u8);
            buf.put_u8(c.code as u8);
            Ok(())
        }
        Packet::Publish(p) => encode_publish(p, buf),
        Packet::Puback(id) => encode_ack(0x40, *id, buf),
        Packet::Pubrec(id) => encode_ack(0x50, *id, buf),
        Packet::Pubrel(id) => encode_ack(0x62, *id, buf),
        Packet::Pubcomp(id) => encode_ack(0x70, *id, buf),
        Packet::Subscribe(s) => encode_subscribe(s, buf),
        Packet::Suback(s) => encode_suback(s, buf),
        Packet::Unsubscribe(u) => encode_unsubscribe(u, buf),
        Packet::Unsuback(id) => encode_ack(0xB0, *id, buf),
        Packet::Pingreq => {
            buf.put_slice(&[0xC0, 0]);
            Ok(())
        }
        Packet::Pingresp => {
            buf.put_slice(&[0xD0, 0]);
            Ok(())
        }
        Packet::Disconnect => {
            buf.put_slice(&[0xE0, 0]);
            Ok(())
        }
    }
}

fn estimate_size(packet: &Packet) -> usize {
    match packet {
        Packet::Publish(p) => 7 + p.topic.as_str().len() + p.payload.len(),
        Packet::Connect(c) => {
            16 + c.client_id.len()
                + c.will
                    .as_ref()
                    .map(|w| 4 + w.topic.as_str().len() + w.payload.len())
                    .unwrap_or(0)
        }
        Packet::Subscribe(s) => {
            7 + s
                .filters
                .iter()
                .map(|(f, _)| 3 + f.as_str().len())
                .sum::<usize>()
        }
        Packet::Unsubscribe(u) => {
            7 + u
                .filters
                .iter()
                .map(|f| 2 + f.as_str().len())
                .sum::<usize>()
        }
        Packet::Suback(s) => 7 + s.return_codes.len(),
        _ => 4,
    }
}

fn encode_remaining_length(mut len: usize, buf: &mut BytesMut) -> Result<()> {
    if len > MAX_REMAINING_LENGTH {
        return Err(MqttError::RemainingLengthOverflow);
    }
    loop {
        let mut byte = (len % 128) as u8;
        len /= 128;
        if len > 0 {
            byte |= 0x80;
        }
        buf.put_u8(byte);
        if len == 0 {
            return Ok(());
        }
    }
}

fn put_string(s: &str, buf: &mut BytesMut) {
    debug_assert!(s.len() <= u16::MAX as usize);
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn encode_ack(first_byte: u8, id: PacketId, buf: &mut BytesMut) -> Result<()> {
    buf.put_u8(first_byte);
    buf.put_u8(2);
    buf.put_u16(id);
    Ok(())
}

fn encode_connect(c: &Connect, buf: &mut BytesMut) -> Result<()> {
    let mut flags = 0u8;
    if c.clean_session {
        flags |= 0x02;
    }
    let mut remaining = 10 + 2 + c.client_id.len();
    if let Some(w) = &c.will {
        flags |= 0x04 | ((w.qos as u8) << 3) | ((w.retain as u8) << 5);
        remaining += 2 + w.topic.as_str().len() + 2 + w.payload.len();
    }
    buf.put_u8(0x10);
    encode_remaining_length(remaining, buf)?;
    put_string("MQTT", buf);
    buf.put_u8(4); // protocol level 4 = MQTT 3.1.1
    buf.put_u8(flags);
    buf.put_u16(c.keep_alive);
    put_string(&c.client_id, buf);
    if let Some(w) = &c.will {
        put_string(w.topic.as_str(), buf);
        buf.put_u16(w.payload.len() as u16);
        buf.put_slice(&w.payload);
    }
    Ok(())
}

fn encode_publish(p: &Publish, buf: &mut BytesMut) -> Result<()> {
    encode_publish_head(p, buf)?;
    buf.put_slice(&p.payload);
    Ok(())
}

/// Writes a PUBLISH's fixed and variable header: everything before the
/// payload.
fn encode_publish_head(p: &Publish, buf: &mut BytesMut) -> Result<()> {
    let mut first = 0x30u8;
    if p.dup {
        first |= 0x08;
    }
    first |= (p.qos as u8) << 1;
    if p.retain {
        first |= 0x01;
    }
    let mut remaining = 2 + p.topic.as_str().len() + p.payload.len();
    if p.qos != QoS::AtMostOnce {
        remaining += 2;
    }
    buf.put_u8(first);
    encode_remaining_length(remaining, buf)?;
    put_string(p.topic.as_str(), buf);
    if p.qos != QoS::AtMostOnce {
        let id = p
            .packet_id
            .ok_or(MqttError::Malformed("QoS>0 publish without packet id"))?;
        buf.put_u16(id);
    }
    Ok(())
}

fn encode_subscribe(s: &Subscribe, buf: &mut BytesMut) -> Result<()> {
    if s.filters.is_empty() {
        return Err(MqttError::Malformed("SUBSCRIBE with no filters"));
    }
    let remaining = 2 + s
        .filters
        .iter()
        .map(|(f, _)| 3 + f.as_str().len())
        .sum::<usize>();
    buf.put_u8(0x82);
    encode_remaining_length(remaining, buf)?;
    buf.put_u16(s.packet_id);
    for (filter, qos) in &s.filters {
        put_string(filter.as_str(), buf);
        buf.put_u8(*qos as u8);
    }
    Ok(())
}

fn encode_suback(s: &Suback, buf: &mut BytesMut) -> Result<()> {
    buf.put_u8(0x90);
    encode_remaining_length(2 + s.return_codes.len(), buf)?;
    buf.put_u16(s.packet_id);
    for code in &s.return_codes {
        buf.put_u8(code.to_u8());
    }
    Ok(())
}

fn encode_unsubscribe(u: &Unsubscribe, buf: &mut BytesMut) -> Result<()> {
    if u.filters.is_empty() {
        return Err(MqttError::Malformed("UNSUBSCRIBE with no filters"));
    }
    let remaining = 2 + u
        .filters
        .iter()
        .map(|f| 2 + f.as_str().len())
        .sum::<usize>();
    buf.put_u8(0xA2);
    encode_remaining_length(remaining, buf)?;
    buf.put_u16(u.packet_id);
    for filter in &u.filters {
        put_string(filter.as_str(), buf);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Two-part frames
// ---------------------------------------------------------------------------

/// One encoded packet on its way over a link or a socket: `head ++ body`
/// are its bytes on the wire.
///
/// A PUBLISH travels as two parts: the head is its fixed header, topic and
/// packet id, and the body is the publish payload's own `Bytes`, shared
/// rather than copied. Every other packet is head-only (an empty body),
/// and a head-only frame may hold several packets back to back, as a
/// socket read or a pipelining peer delivers them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frame {
    /// Everything before the payload (the whole frame when head-only).
    pub head: Bytes,
    /// A PUBLISH payload, or empty.
    pub body: Bytes,
}

impl Frame {
    /// Bytes on the wire.
    pub fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// True when no bytes are left.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.body.is_empty()
    }

    /// The frame's bytes from offset `from` on, as (at most) two slices:
    /// what a vectored write has left to send.
    pub fn parts_from(&self, from: usize) -> [&[u8]; 2] {
        let in_head = from.min(self.head.len());
        [&self.head[in_head..], &self.body[from - in_head..]]
    }

    /// The frame as one contiguous `Bytes`: free for a one-part frame, a
    /// copy of both parts otherwise.
    pub fn join(self) -> Bytes {
        if self.body.is_empty() {
            return self.head;
        }
        let mut buf = BytesMut::with_capacity(self.len());
        buf.put_slice(&self.head);
        buf.put_slice(&self.body);
        buf.freeze()
    }
}

impl From<Bytes> for Frame {
    /// A head-only frame: already-encoded packets, back to back.
    fn from(head: Bytes) -> Frame {
        Frame {
            head,
            body: Bytes::new(),
        }
    }
}

/// Encodes a packet as a [`Frame`]: a PUBLISH's head is freshly encoded
/// and its payload is shared as the body; any other packet is head-only.
/// `frame.head ++ frame.body` equals [`encode`] of the same packet.
pub fn encode_frame(packet: &Packet) -> Result<Frame> {
    let Packet::Publish(p) = packet else {
        return encode(packet).map(Frame::from);
    };
    let mut head = BytesMut::with_capacity(7 + p.topic.as_str().len());
    encode_publish_head(p, &mut head)?;
    Ok(Frame {
        head: head.freeze(),
        body: p.payload.clone(),
    })
}

/// Decodes the first packet of `frame` and leaves what follows it there,
/// so callers loop until the frame is empty.
///
/// A head-only frame decodes like [`decode`]. A two-part frame must be
/// exactly one PUBLISH: its head one PUBLISH header (fixed header, topic,
/// packet id, and nothing after them) whose remaining length counts the
/// rest of the head plus the whole body. The payload is the body itself,
/// not a copy.
pub fn decode_frame(frame: &mut Frame) -> Result<Packet> {
    if frame.body.is_empty() {
        let (packet, used) = decode(&frame.head)?;
        frame.head.advance(used);
        return Ok(packet);
    }
    let Frame { head, body } = std::mem::take(frame);
    let mut cur = head;
    if cur.remaining() < 2 {
        return Err(MqttError::UnexpectedEof);
    }
    let first = cur.get_u8();
    if first >> 4 != 3 {
        return Err(MqttError::Malformed("a two-part frame must be a PUBLISH"));
    }
    let remaining = decode_remaining_length(&mut cur)?;
    if remaining != cur.remaining() + body.len() {
        return Err(MqttError::Malformed("two-part frame length mismatch"));
    }
    let mut publish = decode_publish(first & 0x0F, &mut cur)?;
    if !publish.payload.is_empty() {
        return Err(MqttError::Malformed(
            "two-part frame head runs past its header",
        ));
    }
    publish.payload = body;
    Ok(Packet::Publish(publish))
}

/// A pre-encoded QoS>0 PUBLISH with a patchable packet-id slot.
///
/// The broker's fanout path encodes a publish head **once per outgoing
/// QoS** and then stamps each subscriber's session-allocated packet id
/// into a copy of that head, sharing the payload as the body: a copy of a
/// few dozen bytes per delivery instead of a full re-encode. (QoS 0 frames
/// carry no packet id, so they are shared as-is without a template.)
#[derive(Debug, Clone)]
pub struct PublishTemplate {
    /// The publish with packet id 0: its head ends with the id slot.
    frame: Frame,
}

impl PublishTemplate {
    /// Encodes `p` (which must be QoS 1 or 2) into a reusable template.
    /// The packet id stored in `p` is irrelevant; it is overwritten by
    /// [`PublishTemplate::with_packet_id`].
    pub fn new(p: &Publish) -> Result<PublishTemplate> {
        if p.qos == QoS::AtMostOnce {
            return Err(MqttError::Malformed("QoS 0 publishes need no template"));
        }
        let mut stamped = p.clone();
        stamped.packet_id = Some(0);
        let frame = encode_frame(&Packet::Publish(stamped))?;
        Ok(PublishTemplate { frame })
    }

    /// Returns a frame with `id` stamped into the packet-id slot. Only the
    /// head is copied; the body shares the payload.
    pub fn with_packet_id(&self, id: PacketId) -> Frame {
        let mut head = self.frame.head.to_vec();
        let slot = head.len() - 2;
        head[slot..].copy_from_slice(&id.to_be_bytes());
        Frame {
            head: Bytes::from(head),
            body: self.frame.body.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decodes exactly one packet from `frame`, which must contain one complete
/// frame (as produced by [`encode`]). Returns the packet and the number of
/// bytes consumed, so callers can decode back-to-back frames from one buffer.
pub fn decode(frame: &Bytes) -> Result<(Packet, usize)> {
    let mut cur = frame.clone();
    if cur.remaining() < 2 {
        return Err(MqttError::UnexpectedEof);
    }
    let first = cur.get_u8();
    let remaining = decode_remaining_length(&mut cur)?;
    if cur.remaining() < remaining {
        return Err(MqttError::UnexpectedEof);
    }
    let header_len = frame.len() - cur.remaining();
    let mut body = cur.slice(..remaining);
    let consumed = header_len + remaining;

    let packet_type = first >> 4;
    let flags = first & 0x0F;
    let packet = match packet_type {
        1 => decode_connect(&mut body)?,
        2 => decode_connack(&mut body)?,
        3 => Packet::Publish(decode_publish(flags, &mut body)?),
        4 => Packet::Puback(get_u16(&mut body)?),
        5 => Packet::Pubrec(get_u16(&mut body)?),
        6 => {
            if flags != 0x02 {
                return Err(MqttError::Malformed("PUBREL flags must be 0010"));
            }
            Packet::Pubrel(get_u16(&mut body)?)
        }
        7 => Packet::Pubcomp(get_u16(&mut body)?),
        8 => {
            if flags != 0x02 {
                return Err(MqttError::Malformed("SUBSCRIBE flags must be 0010"));
            }
            decode_subscribe(&mut body)?
        }
        9 => decode_suback(&mut body)?,
        10 => {
            if flags != 0x02 {
                return Err(MqttError::Malformed("UNSUBSCRIBE flags must be 0010"));
            }
            decode_unsubscribe(&mut body)?
        }
        11 => Packet::Unsuback(get_u16(&mut body)?),
        12 => Packet::Pingreq,
        13 => Packet::Pingresp,
        14 => Packet::Disconnect,
        other => return Err(MqttError::UnknownPacketType(other)),
    };
    Ok((packet, consumed))
}

/// Computes the total on-wire length (fixed header + body) of the first
/// packet in `buf` without decoding it. Returns `Ok(None)` when more bytes
/// are needed to tell — the frame-boundary primitive for nonblocking
/// stream transports, which accumulate raw bytes and split complete
/// frames off the front (see [`crate::reactor`]).
pub fn frame_length(buf: &[u8]) -> Result<Option<usize>> {
    if buf.len() < 2 {
        return Ok(None);
    }
    let mut value = 0usize;
    let mut shift = 0u32;
    for i in 1..=4 {
        let Some(&byte) = buf.get(i) else {
            return Ok(None);
        };
        value |= ((byte & 0x7F) as usize) << shift;
        if byte & 0x80 == 0 {
            if value > MAX_REMAINING_LENGTH {
                return Err(MqttError::RemainingLengthOverflow);
            }
            return Ok(Some(1 + i + value));
        }
        shift += 7;
    }
    Err(MqttError::RemainingLengthOverflow)
}

fn decode_remaining_length(buf: &mut Bytes) -> Result<usize> {
    let mut value = 0usize;
    let mut shift = 0u32;
    for _ in 0..4 {
        if !buf.has_remaining() {
            return Err(MqttError::UnexpectedEof);
        }
        let byte = buf.get_u8();
        value |= ((byte & 0x7F) as usize) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
    Err(MqttError::RemainingLengthOverflow)
}

fn get_u16(buf: &mut Bytes) -> Result<u16> {
    if buf.remaining() < 2 {
        return Err(MqttError::UnexpectedEof);
    }
    Ok(buf.get_u16())
}

fn get_string(buf: &mut Bytes) -> Result<String> {
    let len = get_u16(buf)? as usize;
    if buf.remaining() < len {
        return Err(MqttError::UnexpectedEof);
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| MqttError::Malformed("invalid UTF-8 string"))
}

fn decode_connect(buf: &mut Bytes) -> Result<Packet> {
    let proto = get_string(buf)?;
    if proto != "MQTT" {
        return Err(MqttError::Malformed("unknown protocol name"));
    }
    if !buf.has_remaining() {
        return Err(MqttError::UnexpectedEof);
    }
    let level = buf.get_u8();
    if level != 4 {
        return Err(MqttError::Malformed("unsupported protocol level"));
    }
    if !buf.has_remaining() {
        return Err(MqttError::UnexpectedEof);
    }
    let flags = buf.get_u8();
    if flags & 0x01 != 0 {
        return Err(MqttError::Malformed("CONNECT reserved flag set"));
    }
    let keep_alive = get_u16(buf)?;
    let client_id = get_string(buf)?;
    let will = if flags & 0x04 != 0 {
        let topic = TopicName::new(get_string(buf)?)?;
        let len = get_u16(buf)? as usize;
        if buf.remaining() < len {
            return Err(MqttError::UnexpectedEof);
        }
        let payload = buf.split_to(len);
        let qos =
            QoS::from_u8((flags >> 3) & 0x03).ok_or(MqttError::Malformed("invalid will QoS"))?;
        Some(LastWill {
            topic,
            payload,
            qos,
            retain: flags & 0x20 != 0,
        })
    } else {
        if flags & 0x38 != 0 {
            return Err(MqttError::Malformed("will flags set without will"));
        }
        None
    };
    Ok(Packet::Connect(Connect {
        client_id,
        clean_session: flags & 0x02 != 0,
        keep_alive,
        will,
    }))
}

fn decode_connack(buf: &mut Bytes) -> Result<Packet> {
    if buf.remaining() < 2 {
        return Err(MqttError::UnexpectedEof);
    }
    let ack_flags = buf.get_u8();
    let code = buf.get_u8();
    Ok(Packet::Connack(Connack {
        session_present: ack_flags & 0x01 != 0,
        code: ConnectReturnCode::from_u8(code),
    }))
}

fn decode_publish(flags: u8, buf: &mut Bytes) -> Result<Publish> {
    let dup = flags & 0x08 != 0;
    let retain = flags & 0x01 != 0;
    let qos = QoS::from_u8((flags >> 1) & 0x03).ok_or(MqttError::Malformed("QoS 3 is reserved"))?;
    let topic = TopicName::new(get_string(buf)?)?;
    let packet_id = if qos != QoS::AtMostOnce {
        Some(get_u16(buf)?)
    } else {
        None
    };
    // Zero-copy: the payload is the rest of the body slice.
    let payload = buf.split_to(buf.remaining());
    Ok(Publish {
        dup,
        qos,
        retain,
        topic,
        packet_id,
        payload,
    })
}

fn decode_subscribe(buf: &mut Bytes) -> Result<Packet> {
    let packet_id = get_u16(buf)?;
    let mut filters = Vec::new();
    while buf.has_remaining() {
        let filter = TopicFilter::new(get_string(buf)?)?;
        if !buf.has_remaining() {
            return Err(MqttError::UnexpectedEof);
        }
        let qos =
            QoS::from_u8(buf.get_u8()).ok_or(MqttError::Malformed("invalid requested QoS"))?;
        filters.push((filter, qos));
    }
    if filters.is_empty() {
        return Err(MqttError::Malformed("SUBSCRIBE with no filters"));
    }
    Ok(Packet::Subscribe(Subscribe { packet_id, filters }))
}

fn decode_suback(buf: &mut Bytes) -> Result<Packet> {
    let packet_id = get_u16(buf)?;
    let mut return_codes = Vec::with_capacity(buf.remaining());
    while buf.has_remaining() {
        let b = buf.get_u8();
        return_codes
            .push(SubackCode::from_u8(b).ok_or(MqttError::Malformed("invalid SUBACK code"))?);
    }
    Ok(Packet::Suback(Suback {
        packet_id,
        return_codes,
    }))
}

fn decode_unsubscribe(buf: &mut Bytes) -> Result<Packet> {
    let packet_id = get_u16(buf)?;
    let mut filters = Vec::new();
    while buf.has_remaining() {
        filters.push(TopicFilter::new(get_string(buf)?)?);
    }
    if filters.is_empty() {
        return Err(MqttError::Malformed("UNSUBSCRIBE with no filters"));
    }
    Ok(Packet::Unsubscribe(Unsubscribe { packet_id, filters }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: Packet) {
        let encoded = encode(&p).unwrap();
        let (decoded, consumed) = decode(&encoded).unwrap();
        assert_eq!(
            consumed,
            encoded.len(),
            "{} consumed all bytes",
            p.type_name()
        );
        assert_eq!(decoded, p);
    }

    #[test]
    fn roundtrip_simple_packets() {
        roundtrip(Packet::Pingreq);
        roundtrip(Packet::Pingresp);
        roundtrip(Packet::Disconnect);
        roundtrip(Packet::Puback(7));
        roundtrip(Packet::Pubrec(65535));
        roundtrip(Packet::Pubrel(1));
        roundtrip(Packet::Pubcomp(0));
        roundtrip(Packet::Unsuback(42));
    }

    #[test]
    fn roundtrip_connect() {
        roundtrip(Packet::Connect(Connect {
            client_id: "trainer-01".into(),
            clean_session: true,
            keep_alive: 60,
            will: None,
        }));
        roundtrip(Packet::Connect(Connect {
            client_id: "agg".into(),
            clean_session: false,
            keep_alive: 0,
            will: Some(LastWill {
                topic: TopicName::new("sdflmq/client/agg/offline").unwrap(),
                payload: Bytes::from_static(b"gone"),
                qos: QoS::AtLeastOnce,
                retain: true,
            }),
        }));
    }

    #[test]
    fn publish_template_stamps_packet_ids() {
        for qos in [QoS::AtLeastOnce, QoS::ExactlyOnce] {
            for (topic, payload) in [
                ("t", b"x".to_vec()),
                ("a/very/deep/topic/path", vec![7u8; 200]),
                ("big", vec![1u8; 20_000]), // 2-byte remaining-length varint
            ] {
                let p = Publish {
                    dup: false,
                    qos,
                    retain: qos == QoS::ExactlyOnce,
                    topic: TopicName::new(topic).unwrap(),
                    packet_id: None,
                    payload: Bytes::from(payload.clone()),
                };
                let template = PublishTemplate::new(&p).unwrap();
                for id in [1u16, 9, 0xBEEF, u16::MAX] {
                    let mut frame = template.with_packet_id(id);
                    let mut expect = p.clone();
                    expect.packet_id = Some(id);
                    let expect = Packet::Publish(expect);
                    assert_eq!(frame.clone().join(), encode(&expect).unwrap());
                    assert_eq!(frame.body.as_ptr(), p.payload.as_ptr());
                    assert_eq!(decode_frame(&mut frame).unwrap(), expect);
                    assert!(frame.is_empty());
                }
            }
        }
    }

    fn publish(qos: QoS, payload: Vec<u8>) -> Publish {
        Publish {
            dup: qos == QoS::ExactlyOnce,
            qos,
            retain: qos == QoS::AtLeastOnce,
            topic: TopicName::new("sdflmq/frame").unwrap(),
            packet_id: (qos != QoS::AtMostOnce).then_some(77),
            payload: Bytes::from(payload),
        }
    }

    #[test]
    fn two_part_frames_are_the_encoded_bytes_and_share_the_payload() {
        for qos in [QoS::AtMostOnce, QoS::AtLeastOnce, QoS::ExactlyOnce] {
            for size in [0usize, 1, 127, 128, 16_384, 70_000] {
                let p = publish(qos, vec![0xC3; size]);
                let packet = Packet::Publish(p.clone());
                let mut frame = encode_frame(&packet).unwrap();
                assert!(frame.head.len() < 300, "the head is a header");
                assert_eq!(frame.len(), encode(&packet).unwrap().len());
                let [a, b] = frame.parts_from(0);
                assert_eq!([a, b].concat(), &encode(&packet).unwrap()[..]);
                assert_eq!(frame.clone().join(), encode(&packet).unwrap());
                let decoded = decode_frame(&mut frame).unwrap();
                assert!(frame.is_empty());
                let Packet::Publish(got) = &decoded else {
                    panic!("expected a publish, got {decoded:?}");
                };
                if size > 0 {
                    assert_eq!(got.payload.as_ptr(), p.payload.as_ptr(), "zero-copy");
                }
                assert_eq!(decoded, packet);
            }
        }
        // Every other packet is head-only.
        let frame = encode_frame(&Packet::Puback(3)).unwrap();
        assert!(frame.body.is_empty());
        assert_eq!(frame.head, encode(&Packet::Puback(3)).unwrap());
    }

    #[test]
    fn parts_from_covers_every_offset() {
        let frame = encode_frame(&Packet::Publish(publish(QoS::AtLeastOnce, vec![5; 40]))).unwrap();
        let whole = frame.clone().join();
        for off in 0..=frame.len() {
            assert_eq!(frame.parts_from(off).concat(), &whole[off..]);
        }
    }

    #[test]
    fn head_only_frames_decode_back_to_back() {
        let mut joined = BytesMut::new();
        joined.put_slice(&encode(&Packet::Pingreq).unwrap());
        joined.put_slice(
            &encode(&Packet::Publish(publish(QoS::AtMostOnce, b"ab".to_vec()))).unwrap(),
        );
        joined.put_slice(&encode(&Packet::Puback(5)).unwrap());
        let mut frame = Frame::from(joined.freeze());
        assert_eq!(decode_frame(&mut frame).unwrap(), Packet::Pingreq);
        assert!(matches!(
            decode_frame(&mut frame).unwrap(),
            Packet::Publish(_)
        ));
        assert_eq!(decode_frame(&mut frame).unwrap(), Packet::Puback(5));
        assert!(frame.is_empty());
    }

    #[test]
    fn decode_frame_refuses_malformed_two_part_frames() {
        let body = Bytes::from_static(b"payload");
        let p = publish(QoS::AtLeastOnce, body.to_vec());
        let good = encode_frame(&Packet::Publish(p.clone())).unwrap();
        let refused = |head: Bytes, body: Bytes| {
            let mut frame = Frame { head, body };
            decode_frame(&mut frame).is_err()
        };
        assert!(!refused(good.head.clone(), good.body.clone()));

        // A head that is not a PUBLISH, even with a remaining length that
        // would cover the body.
        let mut puback = encode(&Packet::Puback(1)).unwrap().to_vec();
        puback[1] = 2 + body.len() as u8;
        assert!(refused(Bytes::from(puback), body.clone()));
        assert!(refused(encode(&Packet::Pingreq).unwrap(), body.clone()));

        // Remaining length one short of and one past head + body.
        for delta in [-1i32, 1] {
            let mut head = good.head.to_vec();
            head[1] = (i32::from(head[1]) + delta) as u8;
            assert!(refused(Bytes::from(head), body.clone()), "delta {delta}");
        }
        // A body that is not the one the header counted.
        assert!(refused(good.head.clone(), Bytes::from_static(b"payloa")));

        // A head that runs into the body: the topic length claims bytes
        // that lie past the head (the remaining length still matches).
        let mut head = good.head.to_vec();
        head[3] += 4; // topic length low byte
        assert!(refused(Bytes::from(head), body.clone()));

        // A head that carries payload bytes of its own.
        let mut head = good.head.to_vec();
        head.push(b'p');
        assert!(refused(Bytes::from(head), body.slice(1..)));
        // ...which is fine once it is the whole packet, head-only.
        let mut whole = Frame::from(encode(&Packet::Publish(p.clone())).unwrap());
        assert_eq!(decode_frame(&mut whole).unwrap(), Packet::Publish(p));
    }

    #[test]
    fn publish_template_rejects_qos0() {
        let p = Publish::simple(TopicName::new("t").unwrap(), b"x".to_vec());
        assert!(PublishTemplate::new(&p).is_err());
    }

    #[test]
    fn roundtrip_connack() {
        roundtrip(Packet::Connack(Connack {
            session_present: true,
            code: ConnectReturnCode::Accepted,
        }));
        roundtrip(Packet::Connack(Connack {
            session_present: false,
            code: ConnectReturnCode::IdentifierRejected,
        }));
    }

    #[test]
    fn roundtrip_publish_all_qos() {
        for (qos, id) in [
            (QoS::AtMostOnce, None),
            (QoS::AtLeastOnce, Some(3)),
            (QoS::ExactlyOnce, Some(999)),
        ] {
            roundtrip(Packet::Publish(Publish {
                dup: qos != QoS::AtMostOnce,
                qos,
                retain: true,
                topic: TopicName::new("sdflmq/session/s1/agg/root").unwrap(),
                packet_id: id,
                payload: Bytes::from(vec![0xAB; 300]),
            }));
        }
    }

    #[test]
    fn roundtrip_subscribe_suback_unsubscribe() {
        roundtrip(Packet::Subscribe(Subscribe {
            packet_id: 11,
            filters: vec![
                (TopicFilter::new("a/+/c").unwrap(), QoS::AtLeastOnce),
                (TopicFilter::new("#").unwrap(), QoS::AtMostOnce),
            ],
        }));
        roundtrip(Packet::Suback(Suback {
            packet_id: 11,
            return_codes: vec![SubackCode::Granted(QoS::AtLeastOnce), SubackCode::Failure],
        }));
        roundtrip(Packet::Unsubscribe(Unsubscribe {
            packet_id: 12,
            filters: vec![TopicFilter::new("a/+/c").unwrap()],
        }));
    }

    #[test]
    fn large_payload_uses_multi_byte_remaining_length() {
        let payload = vec![0x5A; 200_000];
        let p = Packet::Publish(Publish::simple(
            TopicName::new("big").unwrap(),
            payload.clone(),
        ));
        let encoded = encode(&p).unwrap();
        // 3-byte varint for remaining length: frame = 1 + 3 + 2+3 + payload.
        assert_eq!(encoded.len(), 1 + 3 + 5 + payload.len());
        let (decoded, _) = decode(&encoded).unwrap();
        match decoded {
            Packet::Publish(p) => assert_eq!(p.payload.len(), 200_000),
            other => panic!("expected publish, got {other:?}"),
        }
    }

    #[test]
    fn qos1_publish_without_id_is_rejected() {
        let p = Packet::Publish(Publish {
            dup: false,
            qos: QoS::AtLeastOnce,
            retain: false,
            topic: TopicName::new("x").unwrap(),
            packet_id: None,
            payload: Bytes::new(),
        });
        assert!(encode(&p).is_err());
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let p = Packet::Publish(Publish::simple(
            TopicName::new("a/b").unwrap(),
            b"hello".to_vec(),
        ));
        let encoded = encode(&p).unwrap();
        for cut in 0..encoded.len() {
            let truncated = encoded.slice(..cut);
            assert!(
                decode(&truncated).is_err(),
                "cut at {cut} should not decode"
            );
        }
    }

    #[test]
    fn reserved_qos3_is_rejected() {
        // Hand-craft a PUBLISH with QoS bits = 3.
        let mut frame = BytesMut::new();
        frame.put_u8(0x36); // publish, qos=3
        frame.put_u8(5);
        frame.put_u16(1);
        frame.put_u8(b'x');
        frame.put_u16(0);
        assert!(decode(&frame.freeze()).is_err());
    }

    #[test]
    fn back_to_back_frames_decode_with_offsets() {
        let a = encode(&Packet::Pingreq).unwrap();
        let b = encode(&Packet::Puback(5)).unwrap();
        let mut joined = BytesMut::new();
        joined.put_slice(&a);
        joined.put_slice(&b);
        let joined = joined.freeze();
        let (p1, n1) = decode(&joined).unwrap();
        assert_eq!(p1, Packet::Pingreq);
        let rest = joined.slice(n1..);
        let (p2, n2) = decode(&rest).unwrap();
        assert_eq!(p2, Packet::Puback(5));
        assert_eq!(n1 + n2, joined.len());
    }

    #[test]
    fn remaining_length_boundaries() {
        // Boundary payload sizes around varint length changes.
        for size in [0usize, 1, 120, 127, 128, 16_383, 16_384] {
            let p = Packet::Publish(Publish::simple(
                TopicName::new("t").unwrap(),
                vec![1u8; size],
            ));
            roundtrip(p);
        }
    }

    #[test]
    fn frame_length_matches_encoded_size() {
        for size in [0usize, 1, 127, 128, 16_383, 16_384] {
            let p = Packet::Publish(Publish::simple(
                TopicName::new("t").unwrap(),
                vec![7u8; size],
            ));
            let frame = encode(&p).unwrap();
            assert_eq!(frame_length(&frame).unwrap(), Some(frame.len()));
            // Every strict prefix is indeterminate, never an error.
            for cut in 0..frame.len().min(64) {
                assert!(matches!(
                    frame_length(&frame[..cut]),
                    Ok(None) | Ok(Some(_))
                ));
            }
            // A prefix that already covers the header knows the length.
            assert_eq!(frame_length(&frame[..5]).unwrap(), Some(frame.len()));
        }
    }

    #[test]
    fn frame_length_rejects_overlong_varint() {
        // Five continuation bytes: the varint never terminates.
        let bad = [0x30u8, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert!(frame_length(&bad).is_err());
    }
}
