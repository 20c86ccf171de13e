//! On-disk persistence store: per-shard WAL streams + compacted
//! snapshots, written **behind** the broker by a dedicated persistence
//! thread.
//!
//! Layout inside the persistence directory:
//!
//! ```text
//! wal-shard-{i}.log       per-shard live session stream
//! snapshot-shard-{i}.wal  compacted per-shard session snapshot
//! retained.wal            broker-global retained stream (enqueued under
//!                         the SharedIndex writer lock, so record order
//!                         matches the index exactly)
//! snapshot-retained.wal   compacted retained snapshot
//! ```
//!
//! Session records are disjoint across shard streams because the shard is
//! a pure function of the client id, so per-shard appends need no
//! cross-shard ordering. On open, the store replays every stream into a
//! [`RecoveredState`], then *boot-compacts*: it rewrites fresh snapshots
//! for the (possibly different) new shard count and truncates the live
//! WALs, so a restart chain never replays more than one epoch of history.
//!
//! # Write-behind pipeline
//!
//! Shard event-loop threads never issue WAL write or flush syscalls.
//! [`PersistStore::append_shard`] is a cheap enqueue onto a bounded
//! per-stream queue; one dedicated persistence thread (`sdflmq-wal`,
//! the sole owner of the file handles) drains the queues and
//! **group-commits**: consecutive queued records are batch-encoded into
//! one reused scratch buffer and written with a single `write` per
//! batch. Queue order is preserved and sequence numbers are assigned at
//! write time in that order, so the on-disk byte stream is identical to
//! a per-record writer's — recovery replay cannot tell the difference.
//! Snapshot compaction runs on the same thread: shards only serialize
//! their in-memory state into the queue ([`PersistStore::compact_shard`]).
//!
//! A full queue applies the configured [`WalOverflow`] policy: `Block`
//! stalls the appender until the persistence thread frees a slot
//! (counted in `wal_stalls`), `Shed` drops the record (counted in
//! `wal_sheds`) and forces a compaction on the next append so the
//! on-disk image re-converges. [`PersistStore::drain`] is the barrier
//! `snapshot_now()` and broker shutdown use: it blocks until every
//! record enqueued before the call is written (and fsynced, under the
//! `GroupCommit` / `Always` [`Durability`] policies).
//!
//! Persistence never kills the broker: a write error degrades the
//! affected stream to in-memory operation — observable through the
//! `wal_append_errors` counter and a one-shot `eprintln`, not through a
//! broker failure — which is why the public append methods return
//! compaction hints rather than `io::Result`.

use super::recovery::{retained_records, session_records, RecoveredState};
use super::snapshot::{read_snapshot, write_snapshot, write_snapshot_durable};
use super::wal::{read_wal, WalRecord, WalWriter};
use super::{Durability, Persistence, WalOverflow};
use crate::broker::shard_of;
use crate::packet::QoS;
use crate::retained::RetainedStore;
use crate::stats::BrokerCounters;
use crate::topic::TopicName;
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One unit of work queued for the persistence thread.
#[derive(Debug)]
enum WalOp {
    /// Append one record to the stream's live WAL.
    Append(WalRecord),
    /// Replace the stream's snapshot with the serialized state and
    /// truncate its live WAL. Exempt from the queue capacity limit so a
    /// backlogged queue can always accept the compaction that shrinks it.
    Compact(Vec<WalRecord>),
}

/// Bookkeeping for one bounded stream queue.
#[derive(Debug, Default)]
struct QueueState {
    ops: VecDeque<WalOp>,
    /// Ops ever accepted into the queue.
    enqueued: u64,
    /// Ops fully processed (written or consciously dropped) by the
    /// persistence thread.
    completed: u64,
    /// Ops durable per the configured fsync policy (equals `completed`
    /// under `OsCache`, lags until the next sync otherwise).
    synced: u64,
    /// Appends since the last compaction was enqueued.
    since_snapshot: u64,
}

/// One bounded per-stream queue. The condvar serves both waiter kinds:
/// appenders blocked on capacity and [`PersistStore::drain`] callers
/// waiting for `completed` / `synced` to reach their barrier.
#[derive(Debug, Default)]
struct StreamQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

/// Wake-up channel for the persistence thread.
#[derive(Debug, Default)]
struct WorkSignal {
    epoch: u64,
    shutdown: bool,
    sync_now: bool,
    /// A queue crossed its half-full mark (or an appender is blocked):
    /// skip the coalescing nap and drain immediately.
    urgent: bool,
}

/// How long the persistence thread lets a burst accumulate before
/// draining. Wakes are context switches; at high append rates a
/// per-record wake costs more than the write itself, so the worker naps
/// briefly and group-commits the accumulated run. Urgent kicks (queue
/// half full, blocked appender, drain, shutdown) cut the nap short.
const COALESCE: Duration = Duration::from_micros(500);

#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    snapshot_every: u64,
    queue_capacity: usize,
    overflow: WalOverflow,
    durability: Durability,
    counters: Arc<BrokerCounters>,
    /// One queue per shard stream plus the retained stream (last index).
    queues: Vec<StreamQueue>,
    work: Mutex<WorkSignal>,
    work_cv: Condvar,
    /// Set once shutdown begins: appends become no-ops and blocked
    /// appenders are released instead of waiting on a dead worker.
    stopped: AtomicBool,
    /// One-shot guard for the degraded-durability eprintln.
    error_logged: AtomicBool,
}

impl Inner {
    /// Wakes the persistence thread. `urgent` skips its coalescing nap.
    fn kick(&self, urgent: bool) {
        let mut w = self.work.lock();
        w.epoch = w.epoch.wrapping_add(1);
        if urgent {
            w.urgent = true;
        }
        drop(w);
        self.work_cv.notify_one();
    }

    /// Enqueues one append onto stream `idx`, applying the overflow
    /// policy. Returns true when the caller should compact the stream.
    fn enqueue_append(&self, idx: usize, rec: WalRecord) -> bool {
        if self.stopped.load(Ordering::Acquire) {
            return false;
        }
        let q = &self.queues[idx];
        let mut st = q.state.lock();
        if st.ops.len() >= self.queue_capacity {
            match self.overflow {
                WalOverflow::Block => {
                    BrokerCounters::bump(&self.counters.wal_stalls);
                    self.kick(true);
                    while st.ops.len() >= self.queue_capacity
                        && !self.stopped.load(Ordering::Acquire)
                    {
                        q.cv.wait(&mut st);
                    }
                    if self.stopped.load(Ordering::Acquire) {
                        return false;
                    }
                }
                WalOverflow::Shed => {
                    BrokerCounters::bump(&self.counters.wal_sheds);
                    self.kick(true);
                    // The record is lost; a compaction re-serializes the
                    // shard's full in-memory state, restoring consistency.
                    return true;
                }
            }
        }
        st.ops.push_back(WalOp::Append(rec));
        st.enqueued += 1;
        st.since_snapshot += 1;
        let depth = st.ops.len();
        let compact = st.since_snapshot >= self.snapshot_every;
        drop(st);
        BrokerCounters::raise(&self.counters.wal_queue_hwm, depth as u64);
        // Wake the worker only on the empty -> non-empty transition (a
        // later append finds an earlier kick still pending) or when the
        // queue is filling faster than the worker drains it. Everything
        // else coasts on the worker's coalescing nap.
        let urgent = depth > self.queue_capacity / 2;
        if depth == 1 || urgent {
            self.kick(urgent);
        }
        compact
    }

    /// Enqueues a compaction (always accepted — see [`WalOp::Compact`]).
    fn enqueue_compact(&self, idx: usize, records: Vec<WalRecord>) {
        if self.stopped.load(Ordering::Acquire) {
            return;
        }
        let q = &self.queues[idx];
        let mut st = q.state.lock();
        st.ops.push_back(WalOp::Compact(records));
        st.enqueued += 1;
        st.since_snapshot = 0;
        drop(st);
        self.kick(false);
    }

    /// One-shot stderr report that durability degraded.
    fn report_degraded(&self, what: &str, err: &std::io::Error) {
        if !self.error_logged.swap(true, Ordering::Relaxed) {
            eprintln!(
                "sdflmq-mqtt: WAL {what} failed ({err}); broker degrades \
                 to in-memory operation (see wal_append_errors)"
            );
        }
    }
}

/// Durable store shared by every broker shard and the index writer.
#[derive(Debug)]
pub struct PersistStore {
    inner: Arc<Inner>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

fn shard_wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("wal-shard-{shard}.log"))
}

fn shard_snapshot_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("snapshot-shard-{shard}.wal"))
}

fn retained_wal_path(dir: &Path) -> PathBuf {
    dir.join("retained.wal")
}

fn retained_snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot-retained.wal")
}

/// Shard stream indexes present on disk (from either a live WAL or a
/// snapshot file), sorted.
fn discover_shards(dir: &Path) -> BTreeSet<usize> {
    let mut found = BTreeSet::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let idx = name
            .strip_prefix("wal-shard-")
            .and_then(|s| s.strip_suffix(".log"))
            .or_else(|| {
                name.strip_prefix("snapshot-shard-")
                    .and_then(|s| s.strip_suffix(".wal"))
            });
        if let Some(idx) = idx.and_then(|s| s.parse::<usize>().ok()) {
            found.insert(idx);
        }
    }
    found
}

/// Replays every stream in `dir` into a [`RecoveredState`]. Used by the
/// store on open and directly by the recovery benchmark.
pub fn recover_dir(dir: &Path, max_queued: usize) -> RecoveredState {
    let mut state = RecoveredState::default();
    let (watermark, snap) = read_snapshot(&retained_snapshot_path(dir));
    let live = read_wal(&retained_wal_path(dir));
    state.apply_stream(watermark, snap, live, max_queued);
    for shard in discover_shards(dir) {
        let (watermark, snap) = read_snapshot(&shard_snapshot_path(dir, shard));
        let live = read_wal(&shard_wal_path(dir, shard));
        state.apply_stream(watermark, snap, live, max_queued);
    }
    state
}

impl PersistStore {
    /// Opens the store: replays snapshot + WAL into a [`RecoveredState`],
    /// boot-compacts onto the new shard layout (sessions are re-assigned
    /// by `shard_of(client, shards)`, so a restart may change the shard
    /// count), truncates the live WALs, removes stale streams from a
    /// larger previous layout, and spawns the persistence thread.
    ///
    /// Boot I/O runs on the calling thread (broker startup), never on a
    /// shard event loop. Recovered wills are *not* re-persisted: the
    /// broker fires them during startup, after which they are discharged.
    pub fn open(
        dir: &Path,
        shards: usize,
        cfg: &Persistence,
        max_queued: usize,
        counters: Arc<BrokerCounters>,
    ) -> std::io::Result<(PersistStore, RecoveredState)> {
        std::fs::create_dir_all(dir)?;
        let state = recover_dir(dir, max_queued);

        // Boot compaction: fresh epoch, sequence numbers restart at 0.
        let mut writers: Vec<Option<WalWriter>> = Vec::with_capacity(shards + 1);
        let mut snap_paths: Vec<PathBuf> = Vec::with_capacity(shards + 1);
        for shard in 0..shards {
            let mut records = Vec::new();
            for session in state.sessions.values() {
                if shard_of(&session.client_id, shards) == shard {
                    session_records(session, &mut records);
                }
            }
            write_snapshot(&shard_snapshot_path(dir, shard), 0, &records)?;
            writers.push(Some(WalWriter::create(&shard_wal_path(dir, shard))?));
            snap_paths.push(shard_snapshot_path(dir, shard));
        }
        for stale in discover_shards(dir).range(shards..) {
            let _ = std::fs::remove_file(shard_wal_path(dir, *stale));
            let _ = std::fs::remove_file(shard_snapshot_path(dir, *stale));
        }

        let records = retained_records(
            state
                .retained
                .iter()
                .map(|(topic, (qos, payload))| (topic, *qos, payload)),
        );
        write_snapshot(&retained_snapshot_path(dir), 0, &records)?;
        writers.push(Some(WalWriter::create(&retained_wal_path(dir))?));
        snap_paths.push(retained_snapshot_path(dir));

        let inner = Arc::new(Inner {
            dir: dir.to_path_buf(),
            snapshot_every: cfg.snapshot_every.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            overflow: cfg.overflow,
            durability: cfg.durability,
            counters,
            queues: (0..shards + 1).map(|_| StreamQueue::default()).collect(),
            work: Mutex::new(WorkSignal::default()),
            work_cv: Condvar::new(),
            stopped: AtomicBool::new(false),
            error_logged: AtomicBool::new(false),
        });
        let worker = Worker {
            inner: Arc::clone(&inner),
            seqs: vec![0; shards + 1],
            dirty: vec![false; shards + 1],
            writers,
            snap_paths,
            batch: VecDeque::new(),
            last_sync: Instant::now(),
        };
        let handle = std::thread::Builder::new()
            .name("sdflmq-wal".to_owned())
            .spawn(move || worker.run())
            .expect("spawn persistence thread");

        Ok((
            PersistStore {
                inner,
                worker: Mutex::new(Some(handle)),
            },
            state,
        ))
    }

    /// Enqueues one record for a shard's session stream. Returns true
    /// when the stream has outgrown `snapshot_every` (or shed a record)
    /// and the owning shard should call [`PersistStore::compact_shard`]
    /// with its current state. Never touches the disk.
    pub fn append_shard(&self, shard: usize, rec: WalRecord) -> bool {
        self.inner.enqueue_append(shard, rec)
    }

    /// Enqueues a snapshot replacement for a shard stream: `records` is
    /// the shard's serialized current state; the persistence thread
    /// writes the snapshot and truncates the live WAL.
    pub fn compact_shard(&self, shard: usize, records: Vec<WalRecord>) {
        self.inner.enqueue_compact(shard, records);
    }

    /// Enqueues one retained event. Called under the `SharedIndex`
    /// writer lock so the stream order matches index order exactly; the
    /// passed `store` is the post-apply retained state, serialized (in
    /// memory only — no disk I/O under the lock) for self-compaction
    /// when the stream outgrows `snapshot_every`.
    pub fn append_retained(
        &self,
        topic: &TopicName,
        qos: QoS,
        payload: &Bytes,
        store: &RetainedStore,
    ) {
        let idx = self.inner.queues.len() - 1;
        let compact = self.inner.enqueue_append(
            idx,
            WalRecord::RetainedSet {
                topic: topic.clone(),
                qos,
                payload: payload.clone(),
            },
        );
        if compact {
            let records = retained_records(store.iter().map(|(t, r)| (t, r.qos, &r.payload)));
            self.inner.enqueue_compact(idx, records);
        }
    }

    /// Enqueues a compacted retained snapshot (explicit `snapshot_now`).
    pub fn compact_retained(&self, store: &RetainedStore) {
        let idx = self.inner.queues.len() - 1;
        let records = retained_records(store.iter().map(|(t, r)| (t, r.qos, &r.payload)));
        self.inner.enqueue_compact(idx, records);
    }

    /// Drain barrier: blocks until every op enqueued before this call is
    /// written — and, under the `GroupCommit` / `Always` policies,
    /// fsynced. Used by `snapshot_now()` and broker shutdown so readers
    /// of the directory observe a fully flushed stream.
    pub fn drain(&self) {
        let inner = &self.inner;
        let targets: Vec<u64> = inner
            .queues
            .iter()
            .map(|q| q.state.lock().enqueued)
            .collect();
        inner.kick(true); // cut the coalescing nap short
        for (q, target) in inner.queues.iter().zip(&targets) {
            let mut st = q.state.lock();
            while st.completed < *target && !inner.stopped.load(Ordering::Acquire) {
                q.cv.wait(&mut st);
            }
        }
        if matches!(inner.durability, Durability::OsCache) {
            return;
        }
        {
            let mut w = inner.work.lock();
            w.sync_now = true;
            w.epoch = w.epoch.wrapping_add(1);
        }
        inner.work_cv.notify_one();
        for (q, target) in inner.queues.iter().zip(&targets) {
            let mut st = q.state.lock();
            while st.synced < *target && !inner.stopped.load(Ordering::Acquire) {
                q.cv.wait(&mut st);
            }
        }
    }

    /// Flushes every queued op and stops the persistence thread.
    /// Idempotent; called by broker shutdown and by [`Drop`]. After
    /// shutdown, further appends are silently dropped (the broker is
    /// going away with them).
    pub fn shutdown(&self) {
        let handle = self.worker.lock().take();
        {
            let mut w = self.inner.work.lock();
            w.shutdown = true;
            w.epoch = w.epoch.wrapping_add(1);
        }
        self.inner.work_cv.notify_one();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Number of shard streams the store was opened with.
    pub fn shards(&self) -> usize {
        self.inner.queues.len() - 1
    }

    /// The persistence directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }
}

impl Drop for PersistStore {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The persistence thread: sole owner of the WAL file handles. Assigns
/// sequence numbers at write time in queue order, so the group-committed
/// byte stream matches the per-record reference writer exactly.
struct Worker {
    inner: Arc<Inner>,
    writers: Vec<Option<WalWriter>>,
    snap_paths: Vec<PathBuf>,
    seqs: Vec<u64>,
    /// Streams with appended-but-unsynced bytes (fsync bookkeeping).
    dirty: Vec<bool>,
    /// Reused drain scratch: swapped wholesale with a queue's backlog
    /// (an O(1) pointer exchange, not a per-op move) each pass.
    batch: VecDeque<WalOp>,
    last_sync: Instant,
}

impl Worker {
    fn run(mut self) {
        let mut seen = 0u64;
        loop {
            let (shutdown, sync_now, urgent) = {
                let mut w = self.inner.work.lock();
                loop {
                    if w.shutdown || w.sync_now || w.epoch != seen {
                        break;
                    }
                    match self.group_deadline() {
                        Some(deadline) => {
                            if self.inner.work_cv.wait_until(&mut w, deadline).timed_out() {
                                break;
                            }
                        }
                        None => self.inner.work_cv.wait(&mut w),
                    }
                }
                seen = w.epoch;
                (
                    w.shutdown,
                    std::mem::take(&mut w.sync_now),
                    std::mem::take(&mut w.urgent),
                )
            };

            // Coalescing nap: a wake costs a context switch, so let a
            // burst accumulate and group-commit the whole run instead of
            // waking per record. Urgent signals cut the nap short.
            if !shutdown && !sync_now && !urgent {
                let deadline = Instant::now() + COALESCE;
                let mut w = self.inner.work.lock();
                while !w.shutdown && !w.sync_now && !w.urgent {
                    if self.inner.work_cv.wait_until(&mut w, deadline).timed_out() {
                        break;
                    }
                }
            }

            for idx in 0..self.inner.queues.len() {
                self.process_queue(idx);
            }

            match self.inner.durability {
                Durability::OsCache => {}
                Durability::Always => {
                    if sync_now || self.dirty.iter().any(|d| *d) {
                        self.sync_dirty();
                    }
                }
                Durability::GroupCommit { interval } => {
                    let due = self.dirty.iter().any(|d| *d) && self.last_sync.elapsed() >= interval;
                    if sync_now || due {
                        self.sync_dirty();
                    }
                }
            }

            if shutdown && self.all_queues_empty() {
                if !matches!(self.inner.durability, Durability::OsCache) {
                    self.sync_dirty();
                }
                // Release anyone still blocked in drain() or on capacity.
                self.inner.stopped.store(true, Ordering::Release);
                for q in &self.inner.queues {
                    q.cv.notify_all();
                }
                return;
            }
        }
    }

    /// Next coalesced-fsync deadline, when one is pending.
    fn group_deadline(&self) -> Option<Instant> {
        match self.inner.durability {
            Durability::GroupCommit { interval } if self.dirty.iter().any(|d| *d) => {
                Some(self.last_sync + interval)
            }
            _ => None,
        }
    }

    fn all_queues_empty(&self) -> bool {
        self.inner
            .queues
            .iter()
            .all(|q| q.state.lock().ops.is_empty())
    }

    /// Drains and executes one queue's backlog: consecutive appends are
    /// group-committed as a single write, compactions rewrite the
    /// snapshot and truncate the live WAL.
    fn process_queue(&mut self, idx: usize) {
        let q = &self.inner.queues[idx];
        {
            let mut st = q.state.lock();
            if st.ops.is_empty() {
                return;
            }
            // O(1) handoff: trade the empty scratch deque for the whole
            // backlog instead of moving ops one by one under the lock.
            std::mem::swap(&mut st.ops, &mut self.batch);
        }
        // Capacity freed: release blocked appenders before the disk I/O.
        q.cv.notify_all();

        let mut batch = std::mem::take(&mut self.batch);
        let ops = batch.make_contiguous();
        let mut i = 0;
        while i < ops.len() {
            match &ops[i] {
                WalOp::Append(_) => {
                    let mut j = i;
                    while j < ops.len() && matches!(ops[j], WalOp::Append(_)) {
                        j += 1;
                    }
                    self.write_appends(idx, &ops[i..j]);
                    i = j;
                }
                WalOp::Compact(records) => {
                    self.write_compact(idx, records);
                    i += 1;
                }
            }
        }
        let done = batch.len() as u64;
        batch.clear();
        self.batch = batch;

        let q = &self.inner.queues[idx];
        let mut st = q.state.lock();
        st.completed += done;
        // With no fsync policy (or no writer left to sync), "written" is
        // as durable as this stream gets.
        if matches!(self.inner.durability, Durability::OsCache) || self.writers[idx].is_none() {
            st.synced = st.completed;
        }
        drop(st);
        q.cv.notify_all();
    }

    /// Group-commits a run of appends: one batch encode into the reused
    /// scratch, one `write` syscall.
    fn write_appends(&mut self, idx: usize, ops: &[WalOp]) {
        let counters = &self.inner.counters;
        let Some(w) = self.writers[idx].as_mut() else {
            return; // degraded stream: records are consciously dropped
        };
        let recs = ops.iter().map(|op| match op {
            WalOp::Append(rec) => rec,
            WalOp::Compact(_) => unreachable!("append run contains only appends"),
        });
        match w.append_batch(self.seqs[idx], recs) {
            Ok(last_seq) => {
                self.seqs[idx] = last_seq;
                self.dirty[idx] = true;
                BrokerCounters::add(&counters.wal_records, ops.len() as u64);
                BrokerCounters::bump(&counters.wal_batches);
            }
            Err(err) => {
                self.writers[idx] = None;
                BrokerCounters::add(&counters.wal_append_errors, ops.len() as u64);
                self.inner.report_degraded("append", &err);
            }
        }
    }

    /// Writes a compacted snapshot for stream `idx` and truncates its
    /// live WAL. The watermark is the stream's current sequence number —
    /// every preceding append has already been written in queue order.
    fn write_compact(&mut self, idx: usize, records: &[WalRecord]) {
        let inner = &self.inner;
        let t = Instant::now();
        let sync = !matches!(inner.durability, Durability::OsCache);
        match write_snapshot_durable(&self.snap_paths[idx], self.seqs[idx], records, sync) {
            Ok(()) => {
                if let Some(w) = self.writers[idx].as_mut() {
                    let _ = w.reset();
                }
                BrokerCounters::bump(&inner.counters.wal_snapshots);
            }
            Err(err) => {
                BrokerCounters::bump(&inner.counters.wal_append_errors);
                inner.report_degraded("snapshot", &err);
            }
        }
        BrokerCounters::add(&inner.counters.snapshot_ms, t.elapsed().as_millis() as u64);
    }

    /// Fsyncs every dirty stream and publishes the durable frontier
    /// (`synced = completed`) on all queues.
    fn sync_dirty(&mut self) {
        for idx in 0..self.writers.len() {
            if self.dirty[idx] {
                if let Some(w) = self.writers[idx].as_mut() {
                    match w.sync() {
                        Ok(()) => BrokerCounters::bump(&self.inner.counters.fsyncs),
                        Err(err) => {
                            self.writers[idx] = None;
                            BrokerCounters::bump(&self.inner.counters.wal_append_errors);
                            self.inner.report_degraded("fsync", &err);
                        }
                    }
                }
                self.dirty[idx] = false;
            }
            // Snapshots sync at write time and degraded streams have
            // nothing left to sync, so the frontier advances regardless.
            let q = &self.inner.queues[idx];
            let mut st = q.state.lock();
            st.synced = st.completed;
            drop(st);
            q.cv.notify_all();
        }
        self.last_sync = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::QueuedMessage;
    use crate::topic::TopicFilter;
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdflmq-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg(dir: &Path) -> Persistence {
        Persistence::at(dir)
    }

    #[test]
    fn open_append_reopen_recovers() {
        let dir = temp_dir("roundtrip");
        let counters = Arc::new(BrokerCounters::default());
        {
            let (store, state) =
                PersistStore::open(&dir, 2, &cfg(&dir), 64, Arc::clone(&counters)).unwrap();
            assert!(state.sessions.is_empty());
            let shard = shard_of("alice", 2);
            store.append_shard(
                shard,
                WalRecord::SessionCreate {
                    client: "alice".into(),
                },
            );
            store.append_shard(
                shard,
                WalRecord::Subscribe {
                    client: "alice".into(),
                    filter: TopicFilter::new("a/#").unwrap(),
                    qos: QoS::AtLeastOnce,
                },
            );
            let retained = RetainedStore::new();
            store.append_retained(
                &TopicName::new("cfg/x").unwrap(),
                QoS::AtMostOnce,
                &Bytes::from_static(b"v"),
                &retained,
            );
            // Dropping the store shuts the persistence thread down,
            // flushing every queued record.
        }
        // Reopen with a different shard count: the session must follow its
        // new shard assignment.
        let (_store, state) = PersistStore::open(&dir, 4, &cfg(&dir), 64, counters).unwrap();
        let s = state.sessions.get("alice").expect("session recovered");
        assert_eq!(s.subscriptions.len(), 1);
        assert_eq!(state.retained.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_truncates_live_wal() {
        let dir = temp_dir("compact");
        let counters = Arc::new(BrokerCounters::default());
        let config = cfg(&dir).snapshot_every(4);
        let (store, _) = PersistStore::open(&dir, 1, &config, 64, Arc::clone(&counters)).unwrap();
        let mut session = crate::session::Session::new("bob".into(), false, 64);
        session.queue_message(QueuedMessage {
            topic: TopicName::new("t").unwrap(),
            payload: Bytes::from_static(b"m"),
            qos: QoS::AtLeastOnce,
        });
        let mut needs_compact = false;
        for _ in 0..4 {
            needs_compact = store.append_shard(
                0,
                WalRecord::Enqueue {
                    client: "bob".into(),
                    topic: TopicName::new("t").unwrap(),
                    qos: QoS::AtLeastOnce,
                    payload: Bytes::from_static(b"m"),
                },
            );
        }
        assert!(needs_compact, "snapshot_every=4 reached");
        let mut records = Vec::new();
        session_records(&session, &mut records);
        store.compact_shard(0, records);
        store.drain();
        assert!(
            read_wal(&shard_wal_path(&dir, 0)).is_empty(),
            "live WAL truncated after compaction"
        );
        let (watermark, snap) = read_snapshot(&shard_snapshot_path(&dir, 0));
        assert_eq!(watermark, 4);
        assert!(!snap.is_empty());
        assert_eq!(counters.snapshot().wal_snapshots, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shrinking_shard_count_drops_stale_streams() {
        let dir = temp_dir("shrink");
        let counters = Arc::new(BrokerCounters::default());
        {
            let (store, _) =
                PersistStore::open(&dir, 4, &cfg(&dir), 64, Arc::clone(&counters)).unwrap();
            // Park a session on whichever shard "zed" hashes to.
            store.append_shard(
                shard_of("zed", 4),
                WalRecord::SessionCreate {
                    client: "zed".into(),
                },
            );
        }
        let (store, state) = PersistStore::open(&dir, 1, &cfg(&dir), 64, counters).unwrap();
        assert_eq!(store.shards(), 1);
        assert!(state.sessions.contains_key("zed"));
        assert!(discover_shards(&dir).iter().all(|i| *i < 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_barrier_flushes_group_committed_stream() {
        let dir = temp_dir("drain");
        let counters = Arc::new(BrokerCounters::default());
        let config = cfg(&dir).durability(Durability::GroupCommit {
            interval: Duration::from_millis(100),
        });
        let (store, _) = PersistStore::open(&dir, 1, &config, 64, Arc::clone(&counters)).unwrap();
        for i in 0..32 {
            store.append_shard(
                0,
                WalRecord::SessionCreate {
                    client: format!("c{i}"),
                },
            );
        }
        store.drain();
        let recs = read_wal(&shard_wal_path(&dir, 0));
        assert_eq!(recs.len(), 32, "drain observes every enqueued record");
        // Sequence numbers match the per-record reference writer: 1..=32.
        assert_eq!(recs.first().unwrap().0, 1);
        assert_eq!(recs.last().unwrap().0, 32);
        let snap = counters.snapshot();
        assert_eq!(snap.wal_records, 32);
        assert!(
            snap.wal_batches >= 1 && snap.wal_batches <= 32,
            "records arrive in >= 1 group-committed batches"
        );
        assert!(snap.fsyncs >= 1, "drain forces the coalesced fsync");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn always_fsyncs_every_written_batch() {
        let dir = temp_dir("always");
        let counters = Arc::new(BrokerCounters::default());
        let config = cfg(&dir).durability(Durability::Always);
        let (store, _) = PersistStore::open(&dir, 1, &config, 64, Arc::clone(&counters)).unwrap();
        for i in 0..32 {
            store.append_shard(
                0,
                WalRecord::SessionCreate {
                    client: format!("c{i}"),
                },
            );
            // A drain every eight records forces several batches.
            if i % 8 == 7 {
                store.drain();
            }
        }
        let snap = counters.snapshot();
        assert_eq!(snap.wal_records, 32);
        assert!(snap.wal_batches >= 4, "{} batches", snap.wal_batches);
        assert_eq!(snap.fsyncs, snap.wal_batches, "one fsync per batch");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shed_overflow_counts_and_requests_compaction() {
        let dir = temp_dir("shed");
        let counters = Arc::new(BrokerCounters::default());
        let config = cfg(&dir).queue_capacity(1).overflow(WalOverflow::Shed);
        let (store, _) = PersistStore::open(&dir, 1, &config, 64, Arc::clone(&counters)).unwrap();
        // Saturate the one-slot queue from this thread; at least one of
        // a rapid burst must find it full and shed (the worker needs a
        // syscall per batch, the enqueues need none).
        let mut shed_seen = false;
        for i in 0..4096 {
            let compact = store.append_shard(
                0,
                WalRecord::SessionCreate {
                    client: format!("c{i}"),
                },
            );
            if counters.snapshot().wal_sheds > 0 {
                assert!(compact, "a shed append must request compaction");
                shed_seen = true;
                break;
            }
        }
        store.drain();
        if shed_seen {
            assert!(counters.snapshot().wal_sheds >= 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
