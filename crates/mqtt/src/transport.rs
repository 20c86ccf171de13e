//! Transport links: in-process frame pipes and TCP-backed senders.
//!
//! A [`LinkEnd`] pair is a bidirectional, ordered, reliable frame pipe
//! built from two crossbeam channels — the in-process stand-in for a TCP
//! connection. Every frame that crosses a link is a complete MQTT packet
//! encoded by [`crate::codec`], so the wire format is exercised end-to-end
//! even though no sockets are involved. Frames travel as
//! [`Frame`]s: a PUBLISH payload rides as the frame's body, shared with
//! the publisher rather than copied into a contiguous buffer.
//!
//! Since the reactor refactor the broker no longer spawns a reader thread
//! per connection, so a link carries an optional **incoming-notify hook**
//! per direction: when the broker attaches an end, it installs a hook on
//! the client→broker direction that enqueues a `Notify` mailbox event
//! (and wakes the owner shard) after every send — and when the client's
//! last send handle drops, so closure is observed too. The frames
//! themselves stay in the channel, which keeps the one-frame-per-notify
//! pop order deterministic.
//!
//! [`FrameSender`] abstracts over the two broker-side send paths: an
//! in-process channel half, or a `TcpOutbound` write queue flushed by
//! the owner shard's reactor with vectored writes (see
//! [`crate::reactor`]), head and body as separate slices. Routing code
//! treats both identically.

use crate::codec::{self, Frame};
use crate::error::{MqttError, Result};
use crate::packet::Packet;
use crate::reactor::WriteScheduler;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Traffic counters shared by both ends of a link.
///
/// Counters use `Relaxed` ordering: they are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Frames sent from the A side to the B side.
    pub a_to_b_frames: AtomicU64,
    /// Bytes sent from the A side to the B side.
    pub a_to_b_bytes: AtomicU64,
    /// Frames sent from the B side to the A side.
    pub b_to_a_frames: AtomicU64,
    /// Bytes sent from the B side to the A side.
    pub b_to_a_bytes: AtomicU64,
}

impl LinkStats {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.a_to_b_bytes.load(Ordering::Relaxed) + self.b_to_a_bytes.load(Ordering::Relaxed)
    }

    /// Total frames in both directions.
    pub fn total_frames(&self) -> u64 {
        self.a_to_b_frames.load(Ordering::Relaxed) + self.b_to_a_frames.load(Ordering::Relaxed)
    }

    fn record(&self, a_side: bool, len: usize) {
        if a_side {
            self.a_to_b_frames.fetch_add(1, Ordering::Relaxed);
            self.a_to_b_bytes.fetch_add(len as u64, Ordering::Relaxed);
        } else {
            self.b_to_a_frames.fetch_add(1, Ordering::Relaxed);
            self.b_to_a_bytes.fetch_add(len as u64, Ordering::Relaxed);
        }
    }
}

/// Callback fired after a frame is sent toward (or the last send handle
/// for a direction is dropped on) the subscribing end.
pub(crate) type NotifyFn = Arc<dyn Fn() + Send + Sync>;

/// One direction's notify hook slot, shared by both ends of the link.
#[derive(Default)]
pub(crate) struct NotifySlot(RwLock<Option<NotifyFn>>);

impl NotifySlot {
    fn fire(&self) {
        if let Ok(guard) = self.0.read() {
            if let Some(f) = guard.as_ref() {
                f();
            }
        }
    }

    fn install(&self, f: NotifyFn) {
        if let Ok(mut guard) = self.0.write() {
            *guard = Some(f);
        }
    }
}

/// A send-side handle to a notify slot that also fires the slot when
/// dropped, so the receiving end observes the sender going away.
pub(crate) struct DropNotify(Arc<NotifySlot>);

impl Clone for DropNotify {
    fn clone(&self) -> DropNotify {
        DropNotify(Arc::clone(&self.0))
    }
}

impl Drop for DropNotify {
    fn drop(&mut self) {
        self.0.fire();
    }
}

/// One end of a bidirectional frame pipe.
///
/// Cloning a `LinkEnd` yields another handle to the *same* end (crossbeam
/// channels are MPMC), which lets a client keep the send half while a
/// reader thread owns the receive loop.
#[derive(Clone)]
pub struct LinkEnd {
    tx: Sender<Frame>,
    rx: Receiver<Frame>,
    stats: Arc<LinkStats>,
    /// True for the A side (used to attribute stats direction).
    a_side: bool,
    /// Fired after every send on this end and when this end's last send
    /// handle drops; the broker installs its mailbox hook on the peer's
    /// view of this slot.
    tx_notify: DropNotify,
    /// The slot the peer fires toward this end (hook installation point).
    rx_notify: Arc<NotifySlot>,
}

impl std::fmt::Debug for LinkEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkEnd")
            .field("a_side", &self.a_side)
            .finish_non_exhaustive()
    }
}

/// Creates a connected pair of link ends with unbounded buffering.
pub fn link() -> (LinkEnd, LinkEnd) {
    let (a_tx, b_rx) = unbounded();
    let (b_tx, a_rx) = unbounded();
    let stats = Arc::new(LinkStats::default());
    let a_to_b = Arc::new(NotifySlot::default());
    let b_to_a = Arc::new(NotifySlot::default());
    (
        LinkEnd {
            tx: a_tx,
            rx: a_rx,
            stats: Arc::clone(&stats),
            a_side: true,
            tx_notify: DropNotify(Arc::clone(&a_to_b)),
            rx_notify: Arc::clone(&b_to_a),
        },
        LinkEnd {
            tx: b_tx,
            rx: b_rx,
            stats,
            a_side: false,
            tx_notify: DropNotify(b_to_a),
            rx_notify: a_to_b,
        },
    )
}

impl LinkEnd {
    /// Sends one frame.
    pub fn send(&self, frame: Frame) -> Result<()> {
        self.record_sent(frame.len());
        self.tx.send(frame).map_err(|_| MqttError::Disconnected)?;
        self.tx_notify.0.fire();
        Ok(())
    }

    /// Sends raw bytes as a head-only frame: one or more encoded packets.
    pub fn send_frame(&self, frame: Bytes) -> Result<()> {
        self.send(Frame::from(frame))
    }

    /// Encodes and sends one packet.
    pub fn send_packet(&self, packet: &Packet) -> Result<()> {
        self.send(codec::encode_frame(packet)?)
    }

    /// Receives one frame, blocking until available or the peer is gone.
    pub fn recv(&self) -> Result<Frame> {
        self.rx.recv().map_err(|_| MqttError::Disconnected)
    }

    /// Receives one frame with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Frame> {
        recv_timeout(&self.rx, timeout)
    }

    /// Receives one frame's bytes, blocking; a two-part frame is joined
    /// into one buffer (a copy of its body).
    pub fn recv_frame(&self) -> Result<Bytes> {
        self.recv().map(Frame::join)
    }

    /// Receives one frame's bytes with a timeout, joined like
    /// [`LinkEnd::recv_frame`].
    pub fn recv_frame_timeout(&self, timeout: Duration) -> Result<Bytes> {
        self.recv_timeout(timeout).map(Frame::join)
    }

    /// Receives and decodes one packet, blocking.
    pub fn recv_packet(&self) -> Result<Packet> {
        codec::decode_frame(&mut self.recv()?)
    }

    /// Receives and decodes one packet with a timeout.
    pub fn recv_packet_timeout(&self, timeout: Duration) -> Result<Packet> {
        codec::decode_frame(&mut self.recv_timeout(timeout)?)
    }

    /// Shared traffic counters for this link.
    pub fn stats(&self) -> &Arc<LinkStats> {
        &self.stats
    }

    /// Installs the hook fired whenever the *peer* sends toward this end
    /// (and when the peer's last send handle drops). The broker's reactor
    /// uses this to turn link activity into shard mailbox events.
    pub(crate) fn set_incoming_notify(&self, f: NotifyFn) {
        self.rx_notify.install(f);
    }

    fn record_sent(&self, len: usize) {
        self.stats.record(self.a_side, len);
    }

    /// Splits the end into independent send and receive halves.
    ///
    /// This matters for closure detection: when every [`FrameSender`] for a
    /// direction is dropped, the peer's receive calls return
    /// [`MqttError::Disconnected`]. Keeping a whole `LinkEnd` clone alive in
    /// a reader thread would pin the send half and mask closures.
    pub fn split(self) -> (FrameSender, FrameReceiver) {
        let LinkEnd {
            tx,
            rx,
            stats,
            a_side,
            tx_notify,
            rx_notify: _,
        } = self;
        (
            FrameSender {
                inner: SenderInner::Link {
                    tx,
                    stats,
                    a_side,
                    notify: tx_notify,
                },
            },
            FrameReceiver { rx },
        )
    }
}

enum SenderInner {
    /// In-process channel half.
    Link {
        tx: Sender<Frame>,
        stats: Arc<LinkStats>,
        a_side: bool,
        notify: DropNotify,
    },
    /// TCP write queue flushed by the owner shard's reactor.
    Tcp(Arc<TcpOutbound>),
}

impl Clone for SenderInner {
    fn clone(&self) -> SenderInner {
        match self {
            SenderInner::Link {
                tx,
                stats,
                a_side,
                notify,
            } => SenderInner::Link {
                tx: tx.clone(),
                stats: Arc::clone(stats),
                a_side: *a_side,
                notify: notify.clone(),
            },
            SenderInner::Tcp(out) => SenderInner::Tcp(Arc::clone(out)),
        }
    }
}

/// Send-only half of a broker↔client connection: an in-process channel
/// half or a TCP write queue. Cheap to clone; routing code holds one per
/// live subscriber.
#[derive(Clone)]
pub struct FrameSender {
    inner: SenderInner,
}

impl std::fmt::Debug for FrameSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            SenderInner::Link { a_side, .. } => f
                .debug_struct("FrameSender")
                .field("a_side", a_side)
                .finish_non_exhaustive(),
            SenderInner::Tcp(out) => f
                .debug_struct("FrameSender")
                .field("tcp_conn", &out.conn)
                .finish_non_exhaustive(),
        }
    }
}

impl FrameSender {
    /// Wraps a TCP connection's write queue.
    pub(crate) fn from_tcp(out: Arc<TcpOutbound>) -> FrameSender {
        FrameSender {
            inner: SenderInner::Tcp(out),
        }
    }

    /// Sends one frame.
    pub fn send(&self, frame: Frame) -> Result<()> {
        match &self.inner {
            SenderInner::Link {
                tx,
                stats,
                a_side,
                notify,
                ..
            } => {
                stats.record(*a_side, frame.len());
                tx.send(frame).map_err(|_| MqttError::Disconnected)?;
                notify.0.fire();
                Ok(())
            }
            SenderInner::Tcp(out) => out.push(frame),
        }
    }

    /// Sends raw bytes as a head-only frame: one or more encoded packets.
    pub fn send_frame(&self, frame: Bytes) -> Result<()> {
        self.send(Frame::from(frame))
    }

    /// Encodes and sends one packet.
    pub fn send_packet(&self, packet: &Packet) -> Result<()> {
        self.send(codec::encode_frame(packet)?)
    }

    /// Shared traffic counters for this connection.
    pub fn stats(&self) -> &Arc<LinkStats> {
        match &self.inner {
            SenderInner::Link { stats, .. } => stats,
            SenderInner::Tcp(out) => &out.stats,
        }
    }
}

/// Receive-only half of a link end.
pub struct FrameReceiver {
    rx: Receiver<Frame>,
}

/// Outcome of a non-blocking frame pop.
pub(crate) enum TryRecv {
    /// One frame was popped.
    Frame(Frame),
    /// Nothing queued right now.
    Empty,
    /// Every peer send handle is gone and the queue is drained.
    Closed,
}

impl FrameReceiver {
    /// Receives one frame, blocking until available or the peer's send
    /// half is fully dropped.
    pub fn recv(&self) -> Result<Frame> {
        self.rx.recv().map_err(|_| MqttError::Disconnected)
    }

    /// Receives one frame with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Frame> {
        recv_timeout(&self.rx, timeout)
    }

    /// Frames queued right now.
    pub(crate) fn queued(&self) -> usize {
        self.rx.len()
    }

    /// Pops one frame without blocking (the reactor's per-notify pop).
    pub(crate) fn try_recv_frame(&self) -> TryRecv {
        use crossbeam::channel::TryRecvError;
        match self.rx.try_recv() {
            Ok(frame) => TryRecv::Frame(frame),
            Err(TryRecvError::Empty) => TryRecv::Empty,
            Err(TryRecvError::Disconnected) => TryRecv::Closed,
        }
    }
}

fn recv_timeout(rx: &Receiver<Frame>, timeout: Duration) -> Result<Frame> {
    rx.recv_timeout(timeout).map_err(|e| match e {
        RecvTimeoutError::Timeout => MqttError::Timeout,
        RecvTimeoutError::Disconnected => MqttError::Disconnected,
    })
}

// ---------------------------------------------------------------------
// TCP write queue
// ---------------------------------------------------------------------

/// Shared outbound state of one TCP connection.
///
/// Any shard may push encoded frames (routing fan-out crosses shards);
/// only the owner shard pops, writing with `writev` when its reactor says
/// the socket is writable. Pushes never block — the queue is unbounded —
/// but a queue that outgrows `hwm` bytes marks the connection **evicted**
/// (slow consumer): subsequent pushes fail, and the owner shard tears the
/// connection down ungracefully, which fires the client's last will.
pub(crate) struct TcpOutbound {
    /// Connection id (doubles as the reactor token).
    conn: u64,
    q: Mutex<VecDeque<Frame>>,
    /// Bytes pushed but not yet written to the socket.
    queued_bytes: AtomicU64,
    /// Slow-consumer eviction watermark (bytes).
    hwm: u64,
    evicted: AtomicBool,
    eviction_counted: AtomicBool,
    closed: AtomicBool,
    /// Deduplicates flush scheduling: set by the first push after a
    /// flush, cleared by the owner shard at the start of each flush pass.
    flush_armed: AtomicBool,
    /// The owner shard's flush queue; retargeted once if the connection
    /// migrates from its home shard to its owner at CONNECT time.
    sched: Mutex<Arc<WriteScheduler>>,
    stats: Arc<LinkStats>,
}

impl TcpOutbound {
    pub(crate) fn new(conn: u64, hwm: u64, sched: Arc<WriteScheduler>) -> Arc<TcpOutbound> {
        Arc::new(TcpOutbound {
            conn,
            q: Mutex::new(VecDeque::new()),
            queued_bytes: AtomicU64::new(0),
            hwm,
            evicted: AtomicBool::new(false),
            eviction_counted: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            flush_armed: AtomicBool::new(false),
            sched: Mutex::new(sched),
            stats: Arc::new(LinkStats::default()),
        })
    }

    /// Queues one frame and schedules a flush with the owner shard.
    fn push(&self, frame: Frame) -> Result<()> {
        if self.closed.load(Ordering::Acquire) || self.evicted.load(Ordering::Acquire) {
            return Err(MqttError::Disconnected);
        }
        let len = frame.len() as u64;
        self.stats.record(false, frame.len());
        let total = {
            let mut q = self.q.lock().expect("tcp outbound lock");
            q.push_back(frame);
            self.queued_bytes.fetch_add(len, Ordering::Relaxed) + len
        };
        if total > self.hwm {
            self.evicted.store(true, Ordering::Release);
        }
        if !self.flush_armed.swap(true, Ordering::AcqRel) {
            let sched = Arc::clone(&self.sched.lock().expect("tcp sched lock"));
            sched.schedule(self.conn);
        }
        Ok(())
    }

    /// Moves all queued frames into the owner shard's write buffer.
    pub(crate) fn drain_into(&self, out: &mut VecDeque<Frame>) {
        let mut q = self.q.lock().expect("tcp outbound lock");
        out.extend(q.drain(..));
    }

    /// Accounts `n` bytes as written to the socket.
    pub(crate) fn note_written(&self, n: u64) {
        self.queued_bytes.fetch_sub(n, Ordering::Relaxed);
    }

    /// Clears the flush-scheduling flag; called by the owner shard right
    /// before draining so a concurrent push re-schedules.
    pub(crate) fn begin_flush(&self) {
        self.flush_armed.store(false, Ordering::Release);
    }

    /// Redirects future flush scheduling at the owner shard (CONNECT-time
    /// migration from the connection's home shard).
    pub(crate) fn retarget(&self, sched: Arc<WriteScheduler>) {
        *self.sched.lock().expect("tcp sched lock") = sched;
    }

    /// True once the write queue crossed the eviction watermark.
    pub(crate) fn is_evicted(&self) -> bool {
        self.evicted.load(Ordering::Acquire)
    }

    /// Returns true exactly once for an evicted connection (counter gate).
    pub(crate) fn take_eviction_count(&self) -> bool {
        self.is_evicted() && !self.eviction_counted.swap(true, Ordering::AcqRel)
    }

    /// Marks the connection closed: future pushes fail fast.
    pub(crate) fn mark_closed(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

// ---------------------------------------------------------------------
// Client-side TCP link pump
// ---------------------------------------------------------------------

/// Dials a broker's TCP listener and adapts the socket into a [`LinkEnd`],
/// so the threaded [`crate::client::Client`] (and any [`LinkEnd`]-based
/// code) can speak to a remote broker unchanged. Two pump threads carry
/// frames between the socket and the link; they exit when either side
/// closes. This is the *client*-side convenience — the broker side stays
/// thread-free per connection (see [`crate::reactor`]).
pub fn tcp_link(addr: impl ToSocketAddrs) -> Result<LinkEnd> {
    let stream = TcpStream::connect(addr).map_err(|_| MqttError::Disconnected)?;
    let _ = stream.set_nodelay(true);
    let (app_end, pump_end) = link();
    let (pump_tx, pump_rx) = pump_end.split();
    let reader = stream.try_clone().map_err(|_| MqttError::Disconnected)?;

    std::thread::Builder::new()
        .name("tcp-link-rx".to_owned())
        .spawn(move || {
            let mut rbuf = FrameReader::default();
            let mut reader = reader;
            'read: loop {
                match rbuf.read_from(&mut reader) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
                loop {
                    match rbuf.next_frame() {
                        Ok(Some(frame)) => {
                            if pump_tx.send_frame(frame).is_err() {
                                break 'read;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => break 'read,
                    }
                }
            }
            let _ = reader.shutdown(std::net::Shutdown::Both);
            // pump_tx drops here: the app end observes Disconnected.
        })
        .map_err(|_| MqttError::Disconnected)?;

    std::thread::Builder::new()
        .name("tcp-link-tx".to_owned())
        .spawn(move || {
            let mut stream = stream;
            while let Ok(frame) = pump_rx.recv() {
                if write_frame(&mut stream, &frame).is_err() {
                    break;
                }
            }
            let _ = stream.shutdown(std::net::Shutdown::Both);
        })
        .map_err(|_| MqttError::Disconnected)?;

    Ok(app_end)
}

/// Writes one frame, head and body together, with vectored writes (one,
/// unless the socket takes less than the whole frame).
fn write_frame(out: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let mut written = 0;
    while written < frame.len() {
        let [head, body] = frame.parts_from(written);
        match out.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Stream read buffer
// ---------------------------------------------------------------------

/// Spare room guaranteed before each read.
const READ_ROOM: usize = 16 * 1024;

/// Accumulates a byte stream and pops the complete MQTT frames in it.
///
/// Reads land straight in the buffer. Frames are popped at a cursor, and
/// the unread tail moves to the front once per read rather than once per
/// frame, so popping is linear in the bytes buffered. Each popped frame is
/// its own copy: a payload that is retained, queued or still being sent
/// never pins the rest of a read.
#[derive(Default)]
pub(crate) struct FrameReader {
    /// Zero-filled once as it grows; `start..end` is unread data.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// One read from `src` into the buffer. `Ok(0)` is end of stream.
    pub(crate) fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < READ_ROOM {
            let grown = (self.end + READ_ROOM).max(2 * self.buf.len());
            self.buf.resize(grown, 0);
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Pops the next complete frame, or `None` when more bytes are needed.
    /// An error means no frame can start with the buffered bytes.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Bytes>> {
        let unread = &self.buf[self.start..self.end];
        match codec::frame_length(unread)? {
            Some(len) if unread.len() >= len => {
                let frame = Bytes::copy_from_slice(&unread[..len]);
                self.start += len;
                Ok(Some(frame))
            }
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, Publish};
    use crate::topic::TopicName;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn frames_flow_both_directions() {
        let (a, b) = link();
        a.send_frame(Bytes::from_static(b"hello")).unwrap();
        assert_eq!(b.recv_frame().unwrap(), Bytes::from_static(b"hello"));
        b.send_frame(Bytes::from_static(b"world")).unwrap();
        assert_eq!(a.recv_frame().unwrap(), Bytes::from_static(b"world"));
    }

    #[test]
    fn packets_roundtrip_over_link() {
        let (a, b) = link();
        let p = Packet::Publish(Publish::simple(
            TopicName::new("x/y").unwrap(),
            b"payload".to_vec(),
        ));
        a.send_packet(&p).unwrap();
        assert_eq!(b.recv_packet().unwrap(), p);
    }

    #[test]
    fn recv_timeout_fires() {
        let (a, _b) = link();
        let err = a.recv_frame_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, MqttError::Timeout);
    }

    #[test]
    fn dropped_peer_disconnects() {
        let (a, b) = link();
        drop(b);
        assert_eq!(
            a.send_frame(Bytes::from_static(b"x")).unwrap_err(),
            MqttError::Disconnected
        );
        assert_eq!(a.recv_frame().unwrap_err(), MqttError::Disconnected);
    }

    #[test]
    fn stats_attribute_directions() {
        let (a, b) = link();
        a.send_frame(Bytes::from_static(b"12345")).unwrap();
        a.send_frame(Bytes::from_static(b"1")).unwrap();
        b.send_frame(Bytes::from_static(b"22")).unwrap();
        let stats = a.stats();
        assert_eq!(stats.a_to_b_frames.load(Ordering::Relaxed), 2);
        assert_eq!(stats.a_to_b_bytes.load(Ordering::Relaxed), 6);
        assert_eq!(stats.b_to_a_frames.load(Ordering::Relaxed), 1);
        assert_eq!(stats.b_to_a_bytes.load(Ordering::Relaxed), 2);
        assert_eq!(stats.total_bytes(), 8);
        assert_eq!(stats.total_frames(), 3);
    }

    #[test]
    fn threaded_pingpong() {
        let (a, b) = link();
        let t = std::thread::spawn(move || {
            for _ in 0..100 {
                let f = b.recv_frame().unwrap();
                b.send_frame(f).unwrap();
            }
        });
        for i in 0..100u32 {
            let msg = Bytes::from(i.to_be_bytes().to_vec());
            a.send_frame(msg.clone()).unwrap();
            assert_eq!(a.recv_frame().unwrap(), msg);
        }
        t.join().unwrap();
    }

    #[test]
    fn incoming_notify_fires_per_send_and_on_drop() {
        let (client, broker) = link();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        broker.set_incoming_notify(Arc::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        client.send_frame(Bytes::from_static(b"a")).unwrap();
        client.send_frame(Bytes::from_static(b"b")).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
        drop(client);
        // The drop of the client's send handle fires the hook once more,
        // so the broker probes the (now disconnected) channel.
        assert!(hits.load(Ordering::SeqCst) >= 3);
        let (_tx, rx) = broker.split();
        assert!(matches!(rx.try_recv_frame(), TryRecv::Frame(_)));
        assert!(matches!(rx.try_recv_frame(), TryRecv::Frame(_)));
        assert!(matches!(rx.try_recv_frame(), TryRecv::Closed));
    }

    #[test]
    fn split_sender_still_fires_notify() {
        let (client, broker) = link();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        broker.set_incoming_notify(Arc::new(move || {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        let (tx, _rx) = client.split();
        tx.send_frame(Bytes::from_static(b"x")).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        drop(tx);
        assert!(hits.load(Ordering::SeqCst) >= 2);
    }

    /// A stream that hands out one scripted segment per read.
    struct Segments(VecDeque<Vec<u8>>);

    impl Read for Segments {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(mut seg) = self.0.pop_front() else {
                return Ok(0);
            };
            let n = seg.len().min(buf.len());
            buf[..n].copy_from_slice(&seg[..n]);
            if n < seg.len() {
                self.0.push_front(seg.split_off(n));
            }
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_pops_back_to_back_and_split_frames() {
        let frames: Vec<Bytes> = (0..500u32)
            .map(|i| {
                let size = [0usize, 3, 200, 5_000][i as usize % 4];
                codec::encode(&Packet::Publish(Publish::simple(
                    TopicName::new(format!("t/{i}")).unwrap(),
                    vec![i as u8; size],
                )))
                .unwrap()
            })
            .collect();
        let big = codec::encode(&Packet::Publish(Publish::simple(
            TopicName::new("big").unwrap(),
            vec![0x5A; 100_000],
        )))
        .unwrap();
        // One segment: 500 frames back to back, then the first 10 bytes of
        // a frame the next segments finish (in pieces smaller than it).
        let mut first: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        first.extend_from_slice(&big[..10]);
        let mut segments = VecDeque::from([first]);
        segments.extend(big[10..].chunks(30_000).map(<[u8]>::to_vec));
        let mut src = Segments(segments);

        let mut reader = FrameReader::default();
        let mut got = Vec::new();
        while reader.read_from(&mut src).unwrap() > 0 {
            while let Some(frame) = reader.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got.len(), frames.len() + 1);
        assert_eq!(&got[..frames.len()], &frames[..]);
        assert_eq!(got[frames.len()], big);
        assert_eq!(reader.start, reader.end, "nothing left over");
    }

    #[test]
    fn frame_reader_refuses_a_stream_no_frame_starts() {
        let mut src = Segments(VecDeque::from([vec![0x30, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]]));
        let mut reader = FrameReader::default();
        reader.read_from(&mut src).unwrap();
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn write_frame_finishes_partial_vectored_writes() {
        /// Takes at most 7 bytes per call, from the first non-empty slice.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(7);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let packet = Packet::Publish(Publish::simple(
            TopicName::new("a/b").unwrap(),
            vec![9u8; 100],
        ));
        let mut out = Trickle(Vec::new());
        write_frame(&mut out, &codec::encode_frame(&packet).unwrap()).unwrap();
        assert_eq!(out.0, codec::encode(&packet).unwrap().to_vec());
    }

    #[test]
    fn tcp_outbound_evicts_past_watermark() {
        let (wake, _recv) = crate::reactor::waker().unwrap();
        let sched = Arc::new(WriteScheduler::new(wake));
        let out = TcpOutbound::new(1, 10, Arc::clone(&sched));
        let tx = FrameSender::from_tcp(Arc::clone(&out));
        tx.send_frame(Bytes::from_static(b"123456")).unwrap();
        assert!(!out.is_evicted());
        // Crossing the 10-byte watermark marks the slow consumer.
        tx.send_frame(Bytes::from_static(b"789abc")).unwrap();
        assert!(out.is_evicted());
        assert_eq!(
            tx.send_frame(Bytes::from_static(b"x")).unwrap_err(),
            MqttError::Disconnected
        );
        assert!(out.take_eviction_count());
        assert!(!out.take_eviction_count(), "counted exactly once");
        // Both frames were scheduled as one flush pass.
        assert_eq!(sched.take(), vec![1]);
    }
}
