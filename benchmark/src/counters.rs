//! The `Broker::stats()` counters the benchmark reads at round boundaries.

use crate::report::Outcome;
use sdflmq::mqtt::BrokerStatsSnapshot;

/// The `Broker::stats()` fields the benchmark reports.
#[derive(Clone, Copy, Default)]
pub struct BrokerCounts {
    pub publishes_in: u64,
    pub publishes_out: u64,
    pub payload_bytes_out: u64,
    pub cross_shard_hops: u64,
    pub wal_records: u64,
    pub wal_batches: u64,
    pub wal_queue_hwm: u64,
    pub wal_stalls: u64,
    pub wal_sheds: u64,
    pub fsyncs: u64,
    pub dropped: u64,
    pub slow_consumer_evictions: u64,
}

impl BrokerCounts {
    pub fn of(s: &BrokerStatsSnapshot) -> Self {
        BrokerCounts {
            publishes_in: s.publishes_in,
            publishes_out: s.publishes_out,
            payload_bytes_out: s.payload_bytes_out,
            cross_shard_hops: s.cross_shard_hops,
            wal_records: s.wal_records,
            wal_batches: s.wal_batches,
            wal_queue_hwm: s.wal_queue_hwm,
            wal_stalls: s.wal_stalls,
            wal_sheds: s.wal_sheds,
            fsyncs: s.fsyncs,
            dropped: s.dropped,
            slow_consumer_evictions: s.slow_consumer_evictions,
        }
    }

    /// `self - earlier`, field by field. `wal_queue_hwm` is a high-water
    /// mark, not a sum: the later reading stands.
    pub fn since(&self, earlier: &Self) -> Self {
        BrokerCounts {
            publishes_in: self.publishes_in - earlier.publishes_in,
            publishes_out: self.publishes_out - earlier.publishes_out,
            payload_bytes_out: self.payload_bytes_out - earlier.payload_bytes_out,
            cross_shard_hops: self.cross_shard_hops - earlier.cross_shard_hops,
            wal_records: self.wal_records - earlier.wal_records,
            wal_batches: self.wal_batches - earlier.wal_batches,
            wal_queue_hwm: self.wal_queue_hwm,
            wal_stalls: self.wal_stalls - earlier.wal_stalls,
            wal_sheds: self.wal_sheds - earlier.wal_sheds,
            fsyncs: self.fsyncs - earlier.fsyncs,
            dropped: self.dropped - earlier.dropped,
            slow_consumer_evictions: self.slow_consumer_evictions - earlier.slow_consumer_evictions,
        }
    }

    /// Adds a delta into a running total.
    pub fn add(&mut self, delta: &Self) {
        self.publishes_in += delta.publishes_in;
        self.publishes_out += delta.publishes_out;
        self.payload_bytes_out += delta.payload_bytes_out;
        self.cross_shard_hops += delta.cross_shard_hops;
        self.wal_records += delta.wal_records;
        self.wal_batches += delta.wal_batches;
        self.wal_queue_hwm = self.wal_queue_hwm.max(delta.wal_queue_hwm);
        self.wal_stalls += delta.wal_stalls;
        self.wal_sheds += delta.wal_sheds;
        self.fsyncs += delta.fsyncs;
        self.dropped += delta.dropped;
        self.slow_consumer_evictions += delta.slow_consumer_evictions;
    }

    /// The `mqtt.*` counter metrics: traffic per round, faults as totals.
    pub fn report(&self, rounds: f64, out: &mut Outcome) {
        let per_round = |v: u64| v as f64 / rounds.max(1.0);
        out.set("mqtt.publishes_in", per_round(self.publishes_in));
        out.set("mqtt.publishes_out", per_round(self.publishes_out));
        out.set("mqtt.payload_bytes_out", per_round(self.payload_bytes_out));
        out.set("mqtt.cross_shard_hops", per_round(self.cross_shard_hops));
        out.set("mqtt.wal_records", per_round(self.wal_records));
        out.set("mqtt.wal_batches", per_round(self.wal_batches));
        out.set("mqtt.wal_queue_hwm", self.wal_queue_hwm as f64);
        out.set("mqtt.wal_stalls", self.wal_stalls as f64);
        out.set("mqtt.wal_sheds", self.wal_sheds as f64);
        out.set("mqtt.fsyncs", self.fsyncs as f64);
        out.set("mqtt.dropped", self.dropped as f64);
        out.set(
            "mqtt.slow_consumer_evictions",
            self.slow_consumer_evictions as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_accumulate_and_the_high_water_mark_is_a_maximum() {
        let at = |publishes_in, payload_bytes_out, wal_queue_hwm| BrokerCounts {
            publishes_in,
            payload_bytes_out,
            wal_queue_hwm,
            ..BrokerCounts::default()
        };
        let mut total = BrokerCounts::default();
        // Two traced rounds with an untraced one (100 → 130) between them.
        total.add(&at(100, 5_000, 7).since(&at(90, 4_000, 3)));
        total.add(&at(145, 9_500, 5).since(&at(130, 8_000, 7)));
        assert_eq!(total.publishes_in, 10 + 15);
        assert_eq!(total.payload_bytes_out, 1_000 + 1_500);
        assert_eq!(total.wal_queue_hwm, 7);

        let mut out = Outcome::default();
        total.report(2.0, &mut out);
        assert_eq!(out.metrics["mqtt.publishes_in"], 12.5);
        assert_eq!(out.metrics["mqtt.payload_bytes_out"], 1_250.0);
        assert_eq!(out.metrics["mqtt.wal_queue_hwm"], 7.0);
        assert_eq!(out.metrics["mqtt.wal_records"], 0.0);
    }
}
