//! The broker-side half of one connection.
//!
//! A [`Transport`] is everything the reactor glue needs to move bytes for
//! one client: where inbound frames come from, and the [`FrameSender`]
//! outbound frames go to. The two variants differ only in mechanics — an
//! in-process link is nudged by its peer (`Event::Notify`), a TCP socket
//! by the poller — and share one attach, one CONNECT gate, one migration
//! and one teardown in `shard`.

use super::ConnId;
use crate::codec::Frame;
use crate::reactor::{Poller, WriteScheduler};
use crate::transport::{FrameReader, FrameReceiver, FrameSender, TcpOutbound, TryRecv};
use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pub(super) enum Transport {
    /// In-process link. `target` is the shard index the link's
    /// incoming-frame hook reads; the home shard retargets it when the
    /// connection migrates.
    Link {
        rx: FrameReceiver,
        tx: FrameSender,
        target: Arc<AtomicUsize>,
    },
    Tcp(TcpConn),
}

impl Transport {
    /// A send handle for this connection (what the protocol core and the
    /// routing index hold).
    pub(super) fn sender(&self) -> FrameSender {
        match self {
            Transport::Link { tx, .. } => tx.clone(),
            Transport::Tcp(tcp) => FrameSender::from_tcp(Arc::clone(&tcp.out)),
        }
    }

    /// Starts reporting a socket's readability under token `conn` (a link
    /// reports through its notify hook, which is already installed).
    pub(super) fn register(&self, poller: &mut Poller, conn: ConnId) -> io::Result<()> {
        match self {
            Transport::Link { .. } => Ok(()),
            Transport::Tcp(tcp) => poller.add(tcp.stream.as_raw_fd(), conn, true, false),
        }
    }

    /// Stops watching a socket (migration hand-off or teardown).
    pub(super) fn deregister(&self, poller: &mut Poller) {
        if let Transport::Tcp(tcp) = self {
            let _ = poller.remove(tcp.stream.as_raw_fd());
        }
    }

    /// Points the connection's wake-ups at shard `owner`: a link's notify
    /// hook, a socket's flush scheduling.
    pub(super) fn retarget(&self, owner: usize, sched: &Arc<WriteScheduler>) {
        match self {
            Transport::Link { target, .. } => target.store(owner, Ordering::Release),
            Transport::Tcp(tcp) => tcp.out.retarget(Arc::clone(sched)),
        }
    }

    /// The next complete inbound frame. `Closed` is a link whose peer
    /// hung up, or a socket whose buffered bytes no frame can start with.
    pub(super) fn next_frame(&mut self) -> TryRecv {
        match self {
            Transport::Link { rx, .. } => rx.try_recv_frame(),
            Transport::Tcp(tcp) => tcp.next_frame(),
        }
    }

    /// How many `next_frame` calls catch up on what is already waiting:
    /// a link's queued frames plus one for a hangup behind them, or a
    /// socket's whole read buffer.
    pub(super) fn backlog(&self) -> usize {
        match self {
            Transport::Link { rx, .. } => rx.queued() + 1,
            Transport::Tcp(_) => usize::MAX,
        }
    }

    /// Fails further pushes to a socket's outbound queue. Returns true
    /// when this closes a slow consumer whose eviction is not yet counted.
    pub(super) fn shut(&self) -> bool {
        match self {
            Transport::Link { .. } => false,
            Transport::Tcp(tcp) => {
                tcp.out.mark_closed();
                tcp.out.take_eviction_count()
            }
        }
    }
}

/// Frames gathered into one `writev`.
const FRAMES_PER_WRITE: usize = 32;

/// Reactor-side state of one TCP connection: the nonblocking socket, its
/// partial-frame read buffer, and the in-progress write queue.
pub(super) struct TcpConn {
    stream: TcpStream,
    /// Accumulated unparsed bytes (partial frames survive here between
    /// readiness events, and across a migration).
    rbuf: FrameReader,
    /// Outbound queue shared with every routing shard's [`FrameSender`].
    out: Arc<TcpOutbound>,
    /// Frames drained from `out` and currently being written.
    writing: VecDeque<Frame>,
    /// Bytes of `writing.front()` (head, then body) already written.
    wr_off: usize,
    /// True while the poller watches this socket for writability.
    want_write: bool,
}

impl TcpConn {
    /// Wraps a freshly accepted socket: nonblocking, no Nagle delay, and
    /// an outbound queue that schedules its flushes with `sched` (the home
    /// shard's; retargeted if the connection migrates).
    pub(super) fn new(
        conn: ConnId,
        stream: TcpStream,
        hwm: u64,
        sched: Arc<WriteScheduler>,
    ) -> io::Result<TcpConn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(TcpConn {
            stream,
            rbuf: FrameReader::default(),
            out: TcpOutbound::new(conn, hwm, sched),
            writing: VecDeque::new(),
            wr_off: 0,
            want_write: false,
        })
    }

    /// Pulls every available byte into the read buffer. Returns true on
    /// EOF or a read error (the caller closes the connection after
    /// processing what arrived).
    pub(super) fn fill(&mut self) -> bool {
        let mut total = 0usize;
        loop {
            match self.rbuf.read_from(&mut self.stream) {
                Ok(0) => return true,
                Ok(n) => {
                    total += n;
                    // Yield to other connections after 1 MiB; the
                    // level-triggered poller re-reports readiness.
                    if total >= 1 << 20 {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
    }

    /// Pops the next complete frame off the read buffer. TCP frames are
    /// single packets (framed by [`crate::codec::frame_length`]).
    fn next_frame(&mut self) -> TryRecv {
        match self.rbuf.next_frame() {
            Ok(Some(frame)) => TryRecv::Frame(Frame::from(frame)),
            Ok(None) => TryRecv::Empty,
            Err(_) => TryRecv::Closed,
        }
    }

    /// Drains the outbound queue to the socket with vectored writes, up
    /// to [`FRAMES_PER_WRITE`] frames (head and body as separate slices)
    /// per call. On `WouldBlock` the poller starts watching writability.
    /// Returns false when the connection must close: the queue crossed
    /// the slow-consumer watermark, or the socket is gone.
    pub(super) fn flush(&mut self, poller: &mut Poller, conn: ConnId) -> bool {
        self.out.begin_flush();
        self.out.drain_into(&mut self.writing);
        if self.out.is_evicted() {
            return false;
        }
        let fd = self.stream.as_raw_fd();
        while !self.writing.is_empty() {
            let res = {
                let frames = FRAMES_PER_WRITE.min(self.writing.len());
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(2 * frames);
                for (i, frame) in self.writing.iter().take(frames).enumerate() {
                    let from = if i == 0 { self.wr_off } else { 0 };
                    for part in frame.parts_from(from) {
                        if !part.is_empty() {
                            slices.push(IoSlice::new(part));
                        }
                    }
                }
                self.stream.write_vectored(&slices)
            };
            match res {
                Ok(0) => return false,
                Ok(n) => {
                    self.out.note_written(n as u64);
                    let mut left = n;
                    while left > 0 {
                        let front_len = self.writing[0].len() - self.wr_off;
                        if left >= front_len {
                            self.writing.pop_front();
                            self.wr_off = 0;
                            left -= front_len;
                        } else {
                            self.wr_off += left;
                            left = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !self.want_write {
                        self.want_write = true;
                        let _ = poller.modify(fd, conn, true, true);
                    }
                    return true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.want_write {
            self.want_write = false;
            let _ = poller.modify(fd, conn, true, false);
        }
        true
    }
}
