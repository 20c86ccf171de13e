//! Reactor glue for one shard: the event loop around a [`ShardProto`].
//!
//! Everything that touches the outside world lives here — the poller, the
//! wake pipe, the mailbox, every [`Transport`], and the clock. The loop
//! turns readiness and mailbox events into calls on the protocol core,
//! handing each the current `Instant`, and parks until the core's next
//! deadline. A connection takes one path through it whatever its
//! transport: `Attach` on its home shard, the CONNECT gate, at most one
//! `Migrate` to its owner shard, then frames into the core until one
//! teardown.

use super::conn::Transport;
use super::proto::ShardProto;
use super::{shard_of, BrokerConfig, ConnId, Event, ShardHandle};
use crate::codec::{self, Frame};
use crate::error::ConnectReturnCode;
use crate::index::SharedIndex;
use crate::packet::{Connack, Connect, LastWill, Packet};
use crate::persist::PersistStore;
use crate::reactor::{PollEvent, Poller, WakeReceiver, WriteScheduler, WAKE_TOKEN};
use crate::session::Session;
use crate::stats::BrokerCounters;
use crate::transport::{FrameSender, TryRecv};
use crossbeam::channel::{Receiver, TryRecvError};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub(super) struct Shard {
    proto: ShardProto,
    poller: Poller,
    wake_rx: WakeReceiver,
    /// Every connection this shard transports. One that the protocol core
    /// does not know yet is still CONNECT-gated (and parked on its home
    /// shard).
    transports: HashMap<ConnId, Transport>,
}

impl Shard {
    pub(super) fn new(
        shard: usize,
        config: &BrokerConfig,
        counters: &Arc<BrokerCounters>,
        index: &Arc<SharedIndex>,
        handles: Vec<ShardHandle>,
        wake_rx: WakeReceiver,
        persist: Option<Arc<PersistStore>>,
    ) -> Shard {
        let mut poller = Poller::new().expect("create shard poller");
        poller
            .add(wake_rx.fd(), WAKE_TOKEN, true, false)
            .expect("register shard waker");
        let proto = ShardProto::new(
            shard,
            config,
            counters,
            index,
            handles,
            persist,
            Instant::now(),
        );
        Shard {
            proto,
            poller,
            wake_rx,
            transports: HashMap::new(),
        }
    }

    /// The flush queue this shard's sockets schedule with.
    fn write_sched(&self) -> &WriteScheduler {
        &self.proto.handles[self.proto.shard].write_sched
    }

    /// Runs the shard until shutdown. `sessions` and `wills` are what
    /// recovery rebuilt for this shard's clients.
    pub(super) fn run(
        &mut self,
        rx: Receiver<Event>,
        sessions: HashMap<String, Session>,
        wills: Vec<(String, LastWill)>,
    ) {
        self.proto.adopt_recovered(sessions, wills, Instant::now());
        self.reap();
        let mut events: Vec<PollEvent> = Vec::new();
        'outer: loop {
            // Drain whatever is queued — and check the keep-alive deadline
            // periodically so a mailbox that never empties still expires
            // connections.
            let mut drained = 0u32;
            loop {
                match rx.try_recv() {
                    Ok(event) => {
                        let now = Instant::now();
                        if !self.handle(event, now) {
                            break 'outer;
                        }
                        drained = drained.wrapping_add(1);
                        if drained.is_multiple_of(128) && self.proto.expire_keepalives(now) {
                            self.reap();
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => break 'outer,
                }
            }
            // Mailbox drained: send the hops this burst produced, one
            // coalesced batch per target shard (events handled on the next
            // pass flush then).
            self.proto.flush_hops();
            let now = Instant::now();
            // Flush every TCP connection a routing shard scheduled.
            for conn in self.write_sched().take() {
                self.flush(conn, now);
            }
            // Fire due deadlines before parking.
            if self.proto.expire_keepalives(now) || self.proto.fire_due_timers(now) {
                self.reap();
                continue;
            }
            // Park in the poller. Arm the waker first, then re-check the
            // mailbox and write queue: an event or scheduled flush that
            // raced the arming would otherwise sleep until the deadline.
            self.wake_rx.arm();
            if !rx.is_empty() || !self.write_sched().is_empty() {
                continue;
            }
            events.clear();
            let timeout = self
                .proto
                .next_deadline()
                .map(|d| d.saturating_duration_since(now));
            if self.poller.wait(&mut events, timeout).is_err() {
                continue;
            }
            let now = Instant::now();
            for ev in events.iter().copied() {
                if ev.token == WAKE_TOKEN {
                    self.wake_rx.drain();
                    continue;
                }
                if ev.readable {
                    self.on_readable(ev.token, now);
                }
                if ev.writable {
                    self.flush(ev.token, now);
                }
            }
        }
        // Close every connection so clients observe disconnection.
        self.proto.drop_connections();
        self.transports.clear();
    }

    /// Handles one mailbox event; returns false on shutdown.
    fn handle(&mut self, event: Event, now: Instant) -> bool {
        match event {
            Event::Attach { conn, transport } => {
                self.adopt(conn, transport);
            }
            // One link frame (or hangup) is ready. Exactly one is taken
            // per notify — the link fires one notify per send and one on
            // drop, so notifies ≥ frames + 1 and the last one sees the
            // hangup. A notify for a connection that is on its way to
            // another shard finds nothing here; the owner catches up on
            // arrival.
            Event::Notify(conn) => self.drain(conn, 1, now),
            Event::Migrate {
                conn,
                transport,
                connect,
                rest,
            } => {
                let sender = transport.sender();
                let backlog = transport.backlog();
                if self.adopt(conn, transport) {
                    self.register(conn, sender, *connect, rest, now);
                    // Catch up on the hand-over: frames whose nudge found
                    // the connection on neither shard, bytes pipelined
                    // into a socket's read buffer, and pushes that
                    // scheduled a flush before the socket was here.
                    self.drain(conn, backlog, now);
                    self.flush(conn, now);
                }
            }
            Event::ConnClosed(conn) => self.close(conn, now),
            Event::Deliver(batch) => {
                self.proto.on_deliver(batch, now);
                self.reap();
            }
            Event::ReleaseHeld(label) => {
                self.proto.release_held(&label, now);
                self.reap();
            }
            Event::Snapshot { ack } => {
                self.proto.compact_now();
                let _ = ack.send(());
            }
            Event::Shutdown => return false,
        }
        true
    }

    /// Takes ownership of a transport (fresh, or migrating in). A socket
    /// the poller refuses is dropped and uncounted.
    fn adopt(&mut self, conn: ConnId, transport: Transport) -> bool {
        if transport.register(&mut self.poller, conn).is_err() {
            self.proto
                .counters
                .connections_current
                .fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        self.transports.insert(conn, transport);
        true
    }

    /// Socket readable: pull every available byte into the read buffer,
    /// then handle whole frames. EOF or a read error closes the
    /// connection after processing what arrived.
    fn on_readable(&mut self, conn: ConnId, now: Instant) {
        let Some(Transport::Tcp(tcp)) = self.transports.get_mut(&conn) else {
            return;
        };
        let eof = tcp.fill();
        self.drain(conn, usize::MAX, now);
        if eof {
            self.close(conn, now);
        }
    }

    /// Handles up to `limit` frames already waiting on `conn`. Stops when
    /// the connection closes or migrates away.
    fn drain(&mut self, conn: ConnId, limit: usize, now: Instant) {
        for _ in 0..limit {
            let Some(transport) = self.transports.get_mut(&conn) else {
                return;
            };
            match transport.next_frame() {
                TryRecv::Frame(frame) => self.on_frame(conn, frame, now),
                TryRecv::Empty => return,
                TryRecv::Closed => {
                    self.close(conn, now);
                    return;
                }
            }
        }
    }

    /// One inbound frame: protocol traffic once the core knows the
    /// connection, the CONNECT gate before that.
    fn on_frame(&mut self, conn: ConnId, frame: Frame, now: Instant) {
        if self.proto.has_conn(conn) {
            self.proto.on_frame(conn, frame, now);
            self.reap();
        } else {
            self.gate_connect(conn, frame, now);
        }
    }

    /// The CONNECT gate: the first frame of a parked connection either
    /// registers it here, migrates it to its owner shard, or gets the
    /// protocol violator dropped.
    fn gate_connect(&mut self, conn: ConnId, mut frame: Frame, now: Instant) {
        // Any other packet before CONNECT is a protocol violation.
        let Ok(Packet::Connect(connect)) = codec::decode_frame(&mut frame) else {
            self.drop_gated(conn);
            return;
        };
        let rest = frame;
        let Some(sender) = self.transports.get(&conn).map(Transport::sender) else {
            return;
        };
        if connect.client_id.is_empty() {
            let _ = sender.send_packet(&Packet::Connack(Connack {
                session_present: false,
                code: ConnectReturnCode::IdentifierRejected,
            }));
            // Best-effort: push the rejection onto the wire before
            // tearing the transport down.
            self.flush(conn, now);
            self.drop_gated(conn);
            return;
        }
        let owner = shard_of(&connect.client_id, self.proto.handles.len());
        if owner == self.proto.shard {
            // If registration itself closes the connection, the drain
            // loop above notices: the transport is gone.
            self.register(conn, sender, connect, rest, now);
            return;
        }
        let Some(transport) = self.transports.remove(&conn) else {
            return;
        };
        transport.deregister(&mut self.poller);
        // Retarget before the hand-over, so nothing is aimed at this shard
        // once the connection has left it. A nudge or scheduled flush that
        // beats the Migrate event to the owner is dropped there; the owner
        // catches up when the connection arrives.
        transport.retarget(owner, &self.proto.handles[owner].write_sched);
        self.proto.handles[owner].send(Event::Migrate {
            conn,
            transport,
            connect: Box::new(connect),
            rest,
        });
    }

    /// Hands an accepted CONNECT to the protocol core on the owner shard,
    /// then whatever packets shared its frame.
    fn register(
        &mut self,
        conn: ConnId,
        sender: FrameSender,
        connect: Connect,
        rest: Frame,
        now: Instant,
    ) {
        self.proto.on_connect(conn, sender, connect, now);
        if !rest.is_empty() {
            self.proto.on_frame(conn, rest, now);
        }
        self.reap();
    }

    /// Closes a connection this shard transports, whether it completed
    /// CONNECT (full session teardown, will included) or is still gated.
    fn close(&mut self, conn: ConnId, now: Instant) {
        if self.proto.has_conn(conn) {
            self.proto.on_conn_closed(conn, now);
            self.reap();
        } else {
            self.drop_gated(conn);
        }
    }

    /// Discards a connection that never completed CONNECT: the protocol
    /// core never counted it, so the decrement happens here.
    fn drop_gated(&mut self, conn: ConnId) {
        if self.release(conn) {
            self.proto
                .counters
                .connections_current
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Releases the transports of connections the protocol core closed
    /// during the call that just returned.
    fn reap(&mut self) {
        while let Some(conn) = self.proto.closed.pop() {
            self.release(conn);
        }
    }

    /// Tears one transport down: a socket leaves the poller and fails
    /// further pushes. Returns true when it was present.
    fn release(&mut self, conn: ConnId) -> bool {
        let Some(transport) = self.transports.remove(&conn) else {
            return false;
        };
        transport.deregister(&mut self.poller);
        if transport.shut() {
            BrokerCounters::bump(&self.proto.counters.slow_consumer_evictions);
        }
        true
    }

    /// Writes a socket's outbound queue. A high-water-mark breach evicts
    /// the slow consumer (ungraceful, so its will fires); a dead socket
    /// closes the connection. No-op for links.
    fn flush(&mut self, conn: ConnId, now: Instant) {
        let Some(Transport::Tcp(tcp)) = self.transports.get_mut(&conn) else {
            return;
        };
        if !tcp.flush(&mut self.poller, conn) {
            self.close(conn, now);
        }
    }
}
