//! The workspace's one FNV-1a (64-bit): broker shard placement here,
//! transfer-id bases in `sdflmq-mqttfc` and `sdflmq-core`, scenario trace
//! hashes in the testkit. Pinned by known vectors because shard placement
//! and transfer ids must never move.

/// FNV-1a, 64-bit, over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// `benchmark/src/rawmqtt.rs` cannot depend on a private function, so
    /// it keeps this loop to mint ids for a chosen shard. The broker must
    /// keep agreeing with it, on the ids the benchmark really uses.
    #[test]
    fn agrees_with_the_benchmarks_own_copy() {
        fn benchmark_copy(client_id: &str) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in client_id.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
            h
        }
        let devices = (0..256).map(|i| format!("dev{i:03}"));
        let pinned = (0..64).flat_map(|salt| {
            ["bench-pub", "bench-sub", "probe-pub", "probe-sub"].map(|p| format!("{p}-{salt}"))
        });
        for id in devices.chain(pinned) {
            assert_eq!(fnv1a64(id.as_bytes()), benchmark_copy(&id), "{id}");
            for shards in [2, 4] {
                let placed = crate::broker::shard_of(&id, shards);
                assert_eq!(placed as u64, benchmark_copy(&id) % shards as u64, "{id}");
            }
        }
    }
}
