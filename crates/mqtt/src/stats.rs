//! Broker runtime statistics.
//!
//! Counters are plain atomics updated by the broker event loop and read by
//! any thread via [`BrokerCounters::snapshot`]. All updates use `Relaxed`
//! ordering — these are monitoring counters, not synchronization points, so
//! no happens-before edges are required (cf. "Rust Atomics and Locks" ch. 2,
//! Example: Statistics).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Declares every broker counter once: the doc comment and name in the
/// list below become an `AtomicU64` field of [`BrokerCounters`], the
/// `u64` field of the same name in [`BrokerStatsSnapshot`], and its line
/// in [`BrokerCounters::snapshot`].
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Shared atomic counters for one broker instance.
        #[derive(Debug, Default)]
        pub struct BrokerCounters {
            $($(#[$doc])* pub $name: AtomicU64,)*
            /// Per-fault-rule hit counters, registered by the broker when a
            /// fault plan is installed (label → shared hit counter). The
            /// counters themselves live in the rules; this registry
            /// surfaces them through the stats API.
            fault_rules: Mutex<Vec<(String, Arc<AtomicU64>)>>,
        }

        /// A point-in-time copy of [`BrokerCounters`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct BrokerStatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
            /// Deliveries the fault-injection layer acted on (sum over all
            /// rules; 0 without a fault plan).
            pub faults_injected: u64,
        }

        impl BrokerCounters {
            /// Takes a point-in-time copy of every counter.
            pub fn snapshot(&self) -> BrokerStatsSnapshot {
                BrokerStatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                    faults_injected: self
                        .fault_rules
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .iter()
                        .map(|(_, hits)| hits.load(Ordering::Relaxed))
                        .sum(),
                }
            }
        }
    };
}

counters! {
    /// PUBLISH packets received from clients.
    publishes_in,
    /// PUBLISH packets sent to clients (fan-out counted per delivery).
    publishes_out,
    /// Application payload bytes received in PUBLISH packets.
    payload_bytes_in,
    /// Application payload bytes sent in PUBLISH packets.
    payload_bytes_out,
    /// Currently open connections.
    connections_current,
    /// Connections accepted since the broker started.
    connections_total,
    /// Sessions currently stored (connected or parked).
    sessions_current,
    /// Subscriptions currently stored in the trie.
    subscriptions_current,
    /// Retained messages currently stored.
    retained_current,
    /// Messages queued for offline persistent sessions.
    queued_current,
    /// Messages dropped (queue overflow, no matching subscriber for a
    /// will, or delivery to a vanished connection).
    dropped,
    /// Connections closed due to keep-alive expiry.
    keepalive_timeouts,
    /// TCP connections evicted for exceeding the outbound write
    /// high-water mark (slow consumers).
    slow_consumer_evictions,
    /// Messages forwarded in from a bridge connection.
    bridge_in,
    /// Deliveries that hopped between broker shards (a QoS>0 or offline
    /// delivery whose session lives on a different shard than the one
    /// that routed the publish). Always 0 with `shards = 1`.
    cross_shard_hops,
    /// Batched cross-shard `Deliver` events sent (each batch carries one
    /// or more hops coalesced per target shard). Always 0 with one shard.
    cross_shard_batches,
    /// Persistent sessions destroyed by a clean-session reconnect or a
    /// clean disconnect.
    sessions_cleaned,
    /// Records appended to the write-ahead log (0 with persistence off).
    wal_records,
    /// Group-committed WAL batches written by the persistence thread
    /// (each batch is one `write` covering `>= 1` records).
    wal_batches,
    /// High-water mark of any per-stream WAL queue (records enqueued but
    /// not yet written by the persistence thread).
    wal_queue_hwm,
    /// Times a shard blocked on a full WAL queue (`WalOverflow::Block`).
    wal_stalls,
    /// Records dropped on a full WAL queue (`WalOverflow::Shed`).
    wal_sheds,
    /// WAL records lost to write errors (the stream degrades to
    /// in-memory operation after the first failure).
    wal_append_errors,
    /// Fsync calls issued by the persistence thread (0 under
    /// `Durability::OsCache`).
    fsyncs,
    /// Cumulative milliseconds the persistence thread spent writing
    /// compacted snapshots (never shard event-loop time).
    snapshot_ms,
    /// Compacted snapshots written (0 with persistence off).
    wal_snapshots,
    /// Sessions reconstructed from snapshot + WAL replay at startup.
    recovered_sessions,
    /// Retained messages reconstructed from snapshot + WAL at startup.
    recovered_retained,
}

impl BrokerCounters {
    /// Increments a counter by one.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a high-water-mark counter to at least `n`.
    #[inline]
    pub fn raise(counter: &AtomicU64, n: u64) {
        counter.fetch_max(n, Ordering::Relaxed);
    }

    /// Registers a fault rule's hit counter under `label`.
    pub fn register_fault_rule(&self, label: String, hits: Arc<AtomicU64>) {
        self.fault_rules
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((label, hits));
    }

    /// Point-in-time per-rule fault hit counts, in rule order.
    pub fn fault_hits(&self) -> Vec<(String, u64)> {
        self.fault_rules
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(label, hits)| (label.clone(), hits.load(Ordering::Relaxed)))
            .collect()
    }
}

impl BrokerStatsSnapshot {
    /// Average fan-out per inbound publish, or 0 if none were received.
    pub fn fanout_ratio(&self) -> f64 {
        if self.publishes_in == 0 {
            0.0
        } else {
            self.publishes_out as f64 / self.publishes_in as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_updates() {
        let c = BrokerCounters::default();
        BrokerCounters::bump(&c.publishes_in);
        BrokerCounters::add(&c.payload_bytes_in, 512);
        BrokerCounters::bump(&c.publishes_out);
        BrokerCounters::bump(&c.publishes_out);
        let snap = c.snapshot();
        assert_eq!(snap.publishes_in, 1);
        assert_eq!(snap.publishes_out, 2);
        assert_eq!(snap.payload_bytes_in, 512);
        assert!((snap.fanout_ratio() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn fanout_ratio_handles_zero() {
        assert_eq!(BrokerStatsSnapshot::default().fanout_ratio(), 0.0);
    }
}
