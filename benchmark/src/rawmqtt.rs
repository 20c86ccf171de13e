//! Raw MQTT 3.1.1 over a [`LinkEnd`]: the handshakes the benchmark's own
//! driver threads speak, so no `mqtt::Client` threads stand between the
//! generator and the broker.

use bytes::Bytes;
use sdflmq::mqtt::packet::{Connect, Subscribe};
use sdflmq::mqtt::transport::LinkEnd;
use sdflmq::mqtt::{codec, Packet, Publish, QoS, TopicFilter, TopicName};
use std::time::Duration;

/// How long a handshake or a single expected packet may take.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The broker's shard assignment (FNV-1a of the client id): used to mint
/// ids that land on a chosen shard, so placement never depends on a seed.
pub fn shard_of(client_id: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in client_id.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// The first `prefix-<n>` id that the broker places on `shard`.
pub fn pinned_id(prefix: &str, shard: usize, shards: usize) -> String {
    (0u64..)
        .map(|salt| format!("{prefix}-{salt}"))
        .find(|id| shard_of(id, shards) == shard)
        .expect("some salt lands on every shard")
}

/// CONNECT and wait for a zero CONNACK.
pub fn connect(link: &LinkEnd, client_id: &str, clean_session: bool) -> Result<(), String> {
    link.send_packet(&Packet::Connect(Connect {
        client_id: client_id.to_owned(),
        clean_session,
        keep_alive: 0,
        will: None,
    }))
    .map_err(|e| format!("send CONNECT: {e}"))?;
    match link.recv_packet_timeout(IO_TIMEOUT) {
        Ok(Packet::Connack(ack)) if ack.code as u8 == 0 => Ok(()),
        other => Err(format!("expected CONNACK(0), got {other:?}")),
    }
}

/// SUBSCRIBE to one filter and wait for the SUBACK.
pub fn subscribe(link: &LinkEnd, filter: &str, qos: QoS) -> Result<(), String> {
    link.send_packet(&Packet::Subscribe(Subscribe {
        packet_id: 1,
        filters: vec![(
            TopicFilter::new(filter).map_err(|e| format!("filter {filter}: {e}"))?,
            qos,
        )],
    }))
    .map_err(|e| format!("send SUBSCRIBE: {e}"))?;
    match link.recv_packet_timeout(IO_TIMEOUT) {
        Ok(Packet::Suback(_)) => Ok(()),
        other => Err(format!("expected SUBACK, got {other:?}")),
    }
}

/// One encoded QoS 1 PUBLISH frame.
pub fn publish_frame(topic: &TopicName, packet_id: u16, payload: Bytes) -> Bytes {
    codec::encode(&Packet::Publish(Publish {
        dup: false,
        qos: QoS::AtLeastOnce,
        retain: false,
        topic: topic.clone(),
        packet_id: Some(packet_id),
        payload,
    }))
    .expect("a PUBLISH within the size limit encodes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_ids_land_on_their_shard() {
        for shard in 0..2 {
            let id = pinned_id("bench-pub", shard, 2);
            assert_eq!(shard_of(&id, 2), shard);
        }
        assert_eq!(shard_of("anything", 1), 0);
    }
}
