//! The boundary transport: the cross-process data plane.
//!
//! A [`BoundaryTransport`] carries everything that crosses one shard-to-shard
//! adjacency between two processes: cycle-stamped flits (forward), credit
//! returns (backward), packet payloads with their tail flits, and the
//! sender's negedge progress, which is what the conservative synchronization
//! protocol waits on. Threads in one process need none of it — their shards
//! share the boundary rings and publish progress in atomics
//! (`hornet_shard::ShardRuntime`'s pump).
//!
//! There is one implementation, [`FrameTransport`]: one length-prefixed frame
//! per cycle per direction over a non-blocking [`BytePipe`], written and read
//! by the shard's own driver thread — one `write` per flush, and a `read`
//! wherever the driver asks what the peer has sent (its progress wait and
//! `ingest`). The frame format, its decoder and the four hazards of driving a
//! pipe without a helper thread (see [`FrameTransport`]) are the same
//! whatever the pipe is; only the medium differs: a Unix or TCP socket
//! ([`Stream`], which makes it a [`SocketTransport`]) or, between co-located
//! processes, two byte rings in a mapped segment ([`crate::shm::ShmPipe`]).
//! The socket endpoints both sides of every connection use — the
//! coordinator's control listener, a worker's control dial, the workers'
//! data-plane listeners and dials — are `Listener` and `connect`, beside
//! [`Stream`].
//!
//! Its contract — the thread host's pump keeps the same one — is what makes
//! CycleAccurate bit-identity hold across processes: *all flits and credits
//! a shard emitted up to and including its negedge of cycle `c` are visible
//! to the peer's `ingest` before the peer observes `peer_progress() ≥ c`.*

use crate::protocol::TransportKind;
use crate::wire::{
    decode_credit, decode_flit, decode_payload, encode_credit, encode_flit, encode_payload,
    peek_frame, Dec, Enc, CREDIT_WIRE_BYTES, FLIT_WIRE_BYTES, MAX_FRAME_BYTES,
};
use hornet_net::boundary::{BoundaryLink, CreditMsg};
use hornet_net::flit::{Flit, Payload};
use hornet_net::ids::{Cycle, PacketId};
use hornet_shard::driver::{PayloadChannel, TransportPump};
use hornet_shard::wiring::NeighborWiring;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One directed shard adjacency's channel: flits forward, credits backward,
/// progress alongside. See the module docs for the visibility contract.
pub trait BoundaryTransport: Send {
    /// Called after the local negedge of `cycle`: make every staged outbound
    /// flit, credit and payload visible to the peer, then publish `cycle` as
    /// this side's progress. `flush` (the last cycle of a sync window, a
    /// jump, the end of the run) forces buffered wire traffic out;
    /// transports may otherwise coalesce the cycles before it into one
    /// write.
    fn pump(&mut self, cycle: Cycle, flush: bool) -> io::Result<()>;

    /// Called after the progress wait, before mailbox consumption: move
    /// everything the peer has made visible into the local staging rings and
    /// deposit any arrived payloads.
    fn ingest(&mut self);

    /// The peer's last published negedge progress as this side knows it
    /// (`u64::MAX` once the peer has finished its run and closed the channel).
    fn peer_progress(&self) -> Cycle;

    /// Non-blocking: has the peer's progress reached `floor`? Transports
    /// whose progress arrives in band take in what the peer has sent first,
    /// but only while the progress they know of still lags.
    fn reached(&mut self, floor: Cycle) -> bool {
        self.peer_progress() >= floor
    }
}

/// Adapts one shard's per-adjacency [`BoundaryTransport`]s to the unified
/// driver's [`TransportPump`] (the driver talks to *all* neighbors at once).
pub struct TransportSet<'a>(pub &'a mut [Box<dyn BoundaryTransport>]);

impl TransportPump for TransportSet<'_> {
    fn peers_reached(&mut self, floor: Cycle) -> bool {
        self.0.iter_mut().all(|t| t.reached(floor))
    }

    fn ingest(&mut self) {
        for t in self.0.iter_mut() {
            t.ingest();
        }
    }

    fn pump(&mut self, cycle: Cycle, flush: bool) -> io::Result<()> {
        for t in self.0.iter_mut() {
            t.pump(cycle, flush)?;
        }
        Ok(())
    }

    fn publish_jump(&mut self, target: Cycle) -> io::Result<()> {
        self.pump(target, true)
    }

    fn stall_report(&self) -> String {
        format!(
            "mirrors={:?}",
            self.0.iter().map(|t| t.peer_progress()).collect::<Vec<_>>()
        )
    }
}

/// A bidirectional byte stream: Unix domain or TCP.
pub enum Stream {
    /// Unix domain stream socket.
    #[cfg(unix)]
    Unix(UnixStream),
    /// TCP stream (loopback or cross-machine).
    Tcp(TcpStream),
}

/// Evaluates `$call` on whichever socket `$value` (a `Stream` or a
/// `Listener`) holds.
macro_rules! on_socket {
    ($kind:ident, $value:expr, $s:ident => $call:expr) => {
        match $value {
            #[cfg(unix)]
            $kind::Unix($s) => $call,
            $kind::Tcp($s) => $call,
        }
    };
}

impl Stream {
    /// Clones the underlying socket handle.
    pub fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Switches the socket between blocking and non-blocking I/O.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        on_socket!(Stream, self, s => s.set_nonblocking(nonblocking))
    }

    /// Shuts the socket down (both halves, affecting every cloned handle) —
    /// the only reliable way to signal EOF when reader threads hold clones.
    pub fn shutdown(&self) {
        let _ = on_socket!(Stream, self, s => s.shutdown(Shutdown::Both));
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        on_socket!(Stream, self, s => s.read(buf))
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        on_socket!(Stream, self, s => s.write(buf))
    }
    fn flush(&mut self) -> io::Result<()> {
        on_socket!(Stream, self, s => s.flush())
    }
}

/// The listening end of a socket endpoint: Unix domain or TCP. Non-blocking,
/// so an accept can give up at a deadline.
pub(crate) enum Listener {
    /// Unix domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
    /// TCP listener.
    Tcp(TcpListener),
}

/// The longest pause between two looks of a pending accept.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// The longest pause before a dial retries a listener that is not up yet.
const CONNECT_RETRY: Duration = Duration::from_millis(200);

/// The first pause of a pending accept or dial. A peer in the handshake
/// usually arrives within a few hundred microseconds, so a fixed nap of the
/// cap would be most of the wait.
const BACKOFF_START: Duration = Duration::from_micros(20);

/// The pause after the `attempt`-th (from 0) unsuccessful accept or dial:
/// [`BACKOFF_START`], doubling with every attempt, never above `cap`.
fn backoff(attempt: u32, cap: Duration) -> Duration {
    let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
    BACKOFF_START.saturating_mul(factor).min(cap)
}

fn not_a_socket(kind: TransportKind) -> io::Error {
    io::Error::new(
        ErrorKind::Unsupported,
        format!("{kind:?} is not a socket medium on this platform"),
    )
}

impl Listener {
    /// Binds `addr`: a socket path for [`TransportKind::UnixSocket`], a
    /// `host:port` for [`TransportKind::Tcp`].
    pub(crate) fn bind(kind: TransportKind, addr: &str) -> io::Result<Listener> {
        let listener = match kind {
            #[cfg(unix)]
            TransportKind::UnixSocket => Listener::Unix(UnixListener::bind(addr)?),
            TransportKind::Tcp => Listener::Tcp(TcpListener::bind(addr)?),
            _ => return Err(not_a_socket(kind)),
        };
        on_socket!(Listener, &listener, l => l.set_nonblocking(true))?;
        Ok(listener)
    }

    /// The address a peer dials to reach this listener.
    pub(crate) fn addr(&self) -> io::Result<String> {
        Ok(match self {
            #[cfg(unix)]
            Listener::Unix(l) => l
                .local_addr()?
                .as_pathname()
                .map_or_else(String::new, |p| p.to_string_lossy().into_owned()),
            Listener::Tcp(l) => l.local_addr()?.to_string(),
        })
    }

    /// Accepts one connection, polling until `deadline`. The stream comes
    /// back in blocking mode.
    pub(crate) fn accept_until(&self, deadline: Instant) -> io::Result<Stream> {
        let mut attempt = 0;
        loop {
            let accepted = match self {
                #[cfg(unix)]
                Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            };
            match accepted {
                Ok(s) => {
                    s.set_nonblocking(false)?;
                    return Ok(s);
                }
                Err(e) if e.kind() != ErrorKind::WouldBlock => return Err(e),
                Err(_) if Instant::now() > deadline => {
                    return Err(io::Error::new(
                        ErrorKind::TimedOut,
                        "no connection arrived before the deadline",
                    ))
                }
                Err(_) => {
                    std::thread::sleep(backoff(attempt, ACCEPT_POLL));
                    attempt = attempt.saturating_add(1);
                }
            }
        }
    }
}

/// Dials the listener at `addr` (see [`Listener::bind`]), retrying until
/// `deadline` while it is not up yet — host-list workers may legitimately be
/// started before the coordinator, in any order.
pub(crate) fn connect(kind: TransportKind, addr: &str, deadline: Instant) -> io::Result<Stream> {
    let mut attempt = 0;
    loop {
        let dialed = match kind {
            #[cfg(unix)]
            TransportKind::UnixSocket => UnixStream::connect(addr).map(Stream::Unix),
            TransportKind::Tcp => TcpStream::connect(addr).map(Stream::Tcp),
            _ => return Err(not_a_socket(kind)),
        };
        match dialed {
            Err(e)
                if Instant::now() < deadline
                    && matches!(
                        e.kind(),
                        ErrorKind::ConnectionRefused
                            | ErrorKind::NotFound
                            | ErrorKind::AddrNotAvailable
                    ) =>
            {
                std::thread::sleep(backoff(attempt, CONNECT_RETRY));
                attempt = attempt.saturating_add(1);
            }
            dialed => return dialed,
        }
    }
}

/// A bidirectional byte pipe that never blocks: the medium under a
/// [`FrameTransport`]. `read` and `write` move what they can right now —
/// `WouldBlock` when that is nothing — and `read` returns `Ok(0)` once the
/// peer has closed its direction and everything sent before that was read.
pub trait BytePipe: Read + Write + Send {
    /// What an error message calls this kind of link.
    const LINK: &'static str;

    /// Puts the pipe into the non-blocking mode the transport drives it in
    /// (a pipe that has no other mode keeps the default).
    fn make_nonblocking(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Ends this side's direction: the peer reads end of stream after the
    /// bytes written so far. The other direction stays open.
    fn close_write(&mut self);

    /// Reads and discards (through `scratch`) until the peer's end of stream,
    /// an error, or `grace` without a byte. May block; used only on close.
    fn drain(&mut self, scratch: &mut [u8], grace: Duration);
}

impl BytePipe for Stream {
    const LINK: &'static str = "socket";

    fn make_nonblocking(&mut self) -> io::Result<()> {
        if let Stream::Tcp(s) = self {
            // Cycle frames are latency-critical: no Nagle batching.
            let _ = s.set_nodelay(true);
        }
        self.set_nonblocking(true)
    }

    fn close_write(&mut self) {
        let _ = on_socket!(Stream, self, s => s.shutdown(Shutdown::Write));
    }

    fn drain(&mut self, scratch: &mut [u8], grace: Duration) {
        let _ = self.set_nonblocking(false);
        let _ = on_socket!(Stream, self, s => s.set_read_timeout(Some(grace)));
        loop {
            match self.read(scratch) {
                Ok(0) => break,
                Err(e) if e.kind() != ErrorKind::Interrupted => break,
                _ => {}
            }
        }
    }
}

/// How long a finished transport waits on a silent pipe for the peer's end of
/// stream before it closes anyway (hazard (b) below).
const CLOSE_GRACE: Duration = Duration::from_secs(2);

/// The frame transport: one frame per simulated cycle per direction,
/// carrying `(progress, payloads, flits, credits)`, over a non-blocking
/// [`BytePipe`] that only the shard's driver thread touches. `pump` encodes
/// into a reused send buffer and hands it to one `write`; the progress wait
/// ([`reached`](BoundaryTransport::reached)) and `ingest` read what has
/// arrived into a reused receive buffer and decode whole frames out of it in
/// place — payloads, flits and credits before the frame's progress is taken,
/// which is the module's visibility contract by construction.
///
/// Nobody reads in the background, which leaves four hazards to this type,
/// the same over a socket and over a shared-memory ring:
///
/// * **(a) mutual back-pressure** — two drivers each waiting for room in a
///   full pipe (socket buffers, or a ring smaller than the frame) would never
///   read again, so a write that would block takes in the peer's frames and
///   retries. (A cycle of three or more blocked writers would need each a
///   pipe's worth of frames ahead of the next, all the way round; the
///   progress wait rules that out.)
/// * **(b) orderly finish** — closing under a peer that still has cycles to
///   pump fails its write (`EPIPE` on a socket) or leaves its ring without a
///   reader. `Drop` flushes, closes the write half only (the peer reads that
///   as `u64::MAX`) and keeps reading until the peer's own end of stream or
///   `CLOSE_GRACE` of silence. Every shard attaches its neighbors in
///   ascending order, so these waits cannot form a cycle.
/// * **(c) no spinning** — the end-to-end credit window guarantees the staging
///   rings have room for every decoded flit and credit, and their consumer is
///   the caller itself: a rejected push is a protocol violation, not a wait.
/// * **(d) partial frames** — a frame split across reads stays buffered and
///   publishes nothing until its last byte is in.
///
/// Only an end of stream on a frame boundary reads as "peer finished". A
/// frame that does not decode, an end of stream inside a frame and a pipe
/// error release every wait (progress reads `u64::MAX`) and fail the next
/// `pump`, naming the peer and the kind of link.
///
/// Frames are encoded every cycle but written only on `flush`: the driver
/// flushes on the last cycle of every sync window — the progress a
/// neighbor's next gate waits for — on every fast-forward jump and at the
/// end of the run, so a `w`-cycle window costs one write per direction and
/// nothing a gate needs is ever held back.
pub struct FrameTransport<P: BytePipe> {
    pipe: P,
    /// The peer's shard id, for error messages.
    peer: usize,
    /// Outbound halves (drained into frames).
    out_links: Vec<Arc<BoundaryLink>>,
    /// Inbound halves (their staged credits are drained into frames).
    in_links: Vec<Arc<BoundaryLink>>,
    /// Where payloads are claimed from (tail flits leaving) and deposited
    /// into (tail flits arriving).
    payloads: Arc<dyn PayloadChannel>,
    peer_progress: Cycle,
    /// Why the channel failed, until the next `pump` reports it.
    failed: Option<io::Error>,
    /// `rx[..rx_len]` is received and not yet decoded: between reads, at most
    /// one partial frame.
    rx: Vec<u8>,
    rx_len: usize,
    /// Encoded frames not yet written.
    tx: Enc,
    /// Reusable frame scratch.
    flits: Vec<(u32, Flit)>,
    credits: Vec<(u32, CreditMsg)>,
    payloads_out: Vec<(PacketId, Payload)>,
}

/// The frame transport over a Unix or TCP socket.
pub type SocketTransport = FrameTransport<Stream>;

impl<P: BytePipe> FrameTransport<P> {
    /// Wraps `pipe`, made non-blocking, as the transport for the adjacency
    /// described by `wiring`. Arriving packet payloads are deposited into
    /// `payloads` before their tail flits become visible.
    pub fn new(
        mut pipe: P,
        wiring: &NeighborWiring,
        start: Cycle,
        payloads: Arc<dyn PayloadChannel>,
    ) -> io::Result<Self> {
        pipe.make_nonblocking()?;
        // The largest frame the peer can send without payloads (those grow
        // the buffer on demand): every ring full, credit rings hold one more.
        let slots =
            |links: &[Arc<BoundaryLink>]| -> usize { links.iter().map(|l| l.capacity() + 1).sum() };
        let frame_bound = 24
            + slots(&wiring.in_links) * (4 + FLIT_WIRE_BYTES)
            + slots(&wiring.out_links) * (4 + CREDIT_WIRE_BYTES);
        Ok(Self {
            pipe,
            peer: wiring.peer,
            out_links: wiring.out_links.clone(),
            in_links: wiring.in_links.clone(),
            payloads,
            peer_progress: start,
            failed: None,
            rx: vec![0; frame_bound],
            rx_len: 0,
            tx: Enc::new(),
            flits: Vec::new(),
            credits: Vec::new(),
            payloads_out: Vec::new(),
        })
    }

    fn named(&self, e: io::Error) -> io::Error {
        let what = format!("boundary {} to shard {}: {e}", P::LINK, self.peer);
        io::Error::new(e.kind(), what)
    }

    /// Records why the channel is unusable and releases every wait on it.
    fn fail(&mut self, e: io::Error) {
        self.failed = Some(self.named(e));
        self.peer_progress = u64::MAX;
    }

    /// Reads what has arrived and decodes every whole frame of it. Never
    /// blocks; a no-op once the peer has finished or the channel has failed.
    fn poll(&mut self) {
        while self.peer_progress != u64::MAX {
            if self.rx_len == self.rx.len() {
                // A frame larger than the buffer: it carries payloads.
                let grown = (2 * self.rx.len()).min(4 + MAX_FRAME_BYTES);
                self.rx.resize(grown, 0);
            }
            match self.pipe.read(&mut self.rx[self.rx_len..]) {
                Ok(0) if self.rx_len == 0 => self.peer_progress = u64::MAX,
                Ok(0) => self.fail(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.rx_len += n;
                    let drained = self.rx_len < self.rx.len();
                    if let Err(e) = self.decode_received() {
                        self.fail(e);
                    }
                    if drained {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => self.fail(e),
            }
        }
    }

    /// Decodes every complete frame in the receive buffer into the staging
    /// rings and moves what is left, a partial frame, to the front.
    fn decode_received(&mut self) -> io::Result<()> {
        let mut at = 0;
        while let Some(frame) = peek_frame(&self.rx[at..self.rx_len])? {
            self.peer_progress =
                decode_cycle_frame(frame, &self.in_links, &self.out_links, &*self.payloads)?;
            at += 4 + frame.len();
        }
        self.rx.copy_within(at..self.rx_len, 0);
        self.rx_len -= at;
        Ok(())
    }

    /// Writes the send buffer out, reading instead of waiting whenever the
    /// pipe would block (hazard (a)). The buffer is empty afterwards even
    /// on error: a failed channel must not resend from `Drop`.
    fn write_out(&mut self) -> io::Result<()> {
        let mut sent = 0;
        let result = loop {
            if sent == self.tx.bytes().len() {
                break Ok(());
            }
            match self.pipe.write(&self.tx.bytes()[sent..]) {
                Ok(0) => break Err(ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.poll();
                    if let Some(e) = self.failed.take() {
                        break Err(e);
                    }
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(self.named(e)),
            }
        };
        self.tx.clear();
        result
    }
}

/// Decodes one cycle frame into the staging rings — payloads deposited
/// first, then flits, then credits — and returns the progress it carries.
fn decode_cycle_frame(
    frame: &[u8],
    in_links: &[Arc<BoundaryLink>],
    out_links: &[Arc<BoundaryLink>],
    payloads: &dyn PayloadChannel,
) -> io::Result<Cycle> {
    fn invalid(what: &str) -> io::Error {
        io::Error::new(ErrorKind::InvalidData, what)
    }
    fn link(links: &[Arc<BoundaryLink>], ch: u32) -> io::Result<&Arc<BoundaryLink>> {
        links.get(ch as usize).ok_or_else(|| invalid("bad channel"))
    }
    let mut d = Dec::new(frame);
    let cycle = d.u64()?;
    for _ in 0..d.u32()? {
        let (id, payload) = decode_payload(&mut d)?;
        payloads.deposit(id, payload);
    }
    for _ in 0..d.u32()? {
        if !link(in_links, d.u32()?)?.inject_flit(decode_flit(&mut d)?) {
            return Err(invalid("flit outside the credit window"));
        }
    }
    for _ in 0..d.u32()? {
        if !link(out_links, d.u32()?)?.inject_credit(decode_credit(&mut d)?) {
            return Err(invalid("credit outside the credit window"));
        }
    }
    if d.remaining() != 0 {
        return Err(invalid("trailing bytes in cycle frame"));
    }
    Ok(cycle)
}

impl<P: BytePipe> BoundaryTransport for FrameTransport<P> {
    fn pump(&mut self, cycle: Cycle, flush: bool) -> io::Result<()> {
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        self.flits.clear();
        self.credits.clear();
        self.payloads_out.clear();
        let payloads = &*self.payloads;
        for (ch, link) in self.out_links.iter().enumerate() {
            let flits = &mut self.flits;
            let out = &mut self.payloads_out;
            link.drain_staged_flits(|f| {
                // A payload follows its tail flit hop by hop; a packet
                // without one has nothing parked.
                if f.kind.is_tail() {
                    if let Some(payload) = payloads.claim(f.packet) {
                        out.push((f.packet, payload));
                    }
                }
                flits.push((ch as u32, f));
            });
        }
        for (ch, link) in self.in_links.iter().enumerate() {
            while let Some(c) = link.take_staged_credit() {
                self.credits.push((ch as u32, c));
            }
        }
        let e = &mut self.tx;
        let frame = e.begin_frame();
        e.u64(cycle);
        e.u32(self.payloads_out.len() as u32);
        for (id, payload) in &self.payloads_out {
            encode_payload(e, *id, payload);
        }
        e.u32(self.flits.len() as u32);
        for (ch, f) in &self.flits {
            e.u32(*ch);
            encode_flit(e, f);
        }
        e.u32(self.credits.len() as u32);
        for (ch, c) in &self.credits {
            e.u32(*ch);
            encode_credit(e, c);
        }
        e.end_frame(frame);
        if flush {
            self.write_out()?;
        }
        Ok(())
    }

    fn ingest(&mut self) {
        self.poll();
    }

    fn peer_progress(&self) -> Cycle {
        self.peer_progress
    }

    fn reached(&mut self, floor: Cycle) -> bool {
        if self.peer_progress < floor {
            self.poll();
        }
        self.peer_progress >= floor
    }
}

impl<P: BytePipe> Drop for FrameTransport<P> {
    /// Hazard (b). Errors are moot here: the run's outcome is already decided.
    fn drop(&mut self) {
        let _ = self.write_out();
        self.pipe.close_write();
        if self.peer_progress != u64::MAX {
            self.pipe.drain(&mut self.rx, CLOSE_GRACE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(unix)]
    use crate::shm::ShmPipe;
    use hornet_net::bridge::Bridge;
    use hornet_net::flit::{FlitKind, FlitStats, Packet};
    use hornet_net::ids::{FlowId, NodeId};
    use hornet_net::payload::PayloadStore;
    use hornet_net::stats::NetworkStats;
    use hornet_net::vcbuf::VcBuffer;
    use hornet_shard::driver::NoPayloads;
    #[cfg(unix)]
    use proptest::test_runner::TestCaseError;

    fn flit(seq: u32, visible_at: Cycle) -> Flit {
        Flit {
            packet: PacketId::new(1),
            flow: FlowId::new(1),
            original_flow: FlowId::new(1),
            kind: FlitKind::Body,
            seq,
            packet_len: 8,
            dst: NodeId::new(1),
            src: NodeId::new(0),
            visible_at,
            stats: FlitStats::default(),
        }
    }

    #[test]
    fn backoff_starts_small_doubles_and_stops_at_its_cap() {
        for cap in [ACCEPT_POLL, CONNECT_RETRY] {
            let first = backoff(0, cap);
            assert!(first <= Duration::from_micros(50), "{first:?}");
            let mut prev = first;
            let mut attempt = 1;
            while prev < cap {
                let next = backoff(attempt, cap);
                assert_eq!(
                    next,
                    (prev * 2).min(cap),
                    "attempt {attempt} under cap {cap:?}"
                );
                prev = next;
                attempt += 1;
            }
            assert!(attempt < 20, "reaches the cap {cap:?} in a few doublings");
            for attempt in [attempt, attempt + 1, 31, 32, 1_000, u32::MAX] {
                assert_eq!(backoff(attempt, cap), cap, "attempt {attempt}");
            }
        }
    }

    fn adjacency(vcs: usize, cap: usize) -> (NeighborWiring, NeighborWiring) {
        // a→b channels and b→a channels, as two local wiring views.
        let ab: Vec<Arc<BoundaryLink>> = (0..vcs).map(|_| BoundaryLink::new(cap)).collect();
        let ba: Vec<Arc<BoundaryLink>> = (0..vcs).map(|_| BoundaryLink::new(cap)).collect();
        (
            NeighborWiring {
                peer: 1,
                out_links: ab.clone(),
                in_links: ba.clone(),
            },
            NeighborWiring {
                peer: 0,
                out_links: ba,
                in_links: ab,
            },
        )
    }

    /// A pipe kind the tests can make connected pairs of. An end that is
    /// not wrapped in a transport is a *raw peer*: it writes and reads
    /// bytes as they are (a raw socket end blocks; frames here fit a ring).
    #[cfg(unix)]
    trait TestPipe: BytePipe + Sized + 'static {
        fn available() -> bool {
            true
        }
        fn pair() -> (Self, Self);
    }

    #[cfg(unix)]
    impl TestPipe for Stream {
        fn pair() -> (Self, Self) {
            let (a, b) = UnixStream::pair().unwrap();
            (Stream::Unix(a), Stream::Unix(b))
        }
    }

    #[cfg(unix)]
    impl TestPipe for ShmPipe {
        fn available() -> bool {
            hornet_shard::sys::shared_mappings_available()
        }
        fn pair() -> (Self, Self) {
            ShmPipe::pair()
        }
    }

    /// Runs a case over a socket pair and a shared-memory pipe.
    #[cfg(unix)]
    macro_rules! over_each_pipe {
        ($case:ident) => {
            $case::<Stream>();
            if ShmPipe::available() {
                $case::<ShmPipe>();
            }
        };
    }

    #[cfg(unix)]
    fn transport<P: TestPipe>(pipe: P, wiring: &NeighborWiring) -> FrameTransport<P> {
        FrameTransport::new(pipe, wiring, 0, Arc::new(NoPayloads)).unwrap()
    }

    /// Polls the way the driver's wait loop does, with a bounded budget.
    #[cfg(unix)]
    fn await_progress<P: TestPipe>(t: &mut FrameTransport<P>, floor: Cycle) {
        for _ in 0..20_000 {
            if t.reached(floor) {
                return;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        panic!("progress {floor} never arrived (at {})", t.peer_progress());
    }

    /// Two connected transports finish the way two workers do, each on its
    /// own thread; one thread dropping both would sit out `CLOSE_GRACE`.
    #[cfg(unix)]
    fn close<P: TestPipe>(a: FrameTransport<P>, b: FrameTransport<P>) {
        std::thread::scope(|s| {
            s.spawn(|| drop(a));
            drop(b);
        });
    }

    #[cfg(unix)]
    fn carries_flits_credits_and_progress<P: TestPipe>() {
        let (pa, pb) = P::pair();
        // Side A's local halves and side B's local halves are *distinct*
        // objects; the wire connects them.
        let (wa, _) = adjacency(2, 4);
        let (_, wb) = adjacency(2, 4);
        let (mut ta, mut tb) = (transport(pa, &wa), transport(pb, &wb));

        // A sends two flits on channel 1 (credit-checked push) and pumps.
        assert!(wa.out_links[1].push(flit(0, 5)));
        assert!(wa.out_links[1].push(flit(1, 5)));
        ta.pump(4, true).unwrap();

        // Nothing is visible to B until B itself asks; then progress 4 and
        // the flits in its inbound half of channel 1 arrive together.
        assert_eq!(tb.peer_progress(), 0);
        await_progress(&mut tb, 4);
        assert_eq!(wb.in_links[1].in_flight(), 2);

        // B returns a credit, which rides B's next frame; A's per-cycle
        // ingest (not a wait) is what takes it in.
        assert!(wb.in_links[1].inject_credit(CreditMsg { cycle: 5, count: 2 }));
        tb.pump(5, true).unwrap();
        for _ in 0..20_000 {
            ta.ingest();
            if ta.peer_progress() == 5 {
                break;
            }
        }
        assert_eq!(ta.peer_progress(), 5, "credit frame never arrived");
        // The two pushed flits held 2 units of the window; the credit frees
        // them once applied.
        wa.out_links[1].apply_credits(Cycle::MAX);
        assert_eq!(wa.out_links[1].occupancy(), 0);
        close(ta, tb);
    }

    #[cfg(unix)]
    #[test]
    fn one_endpoint_layer_serves_unix_and_tcp() {
        let dir = std::env::temp_dir().join(format!("hornet-endpoints-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("e.sock").to_string_lossy().into_owned();
        for (kind, bind) in [
            (TransportKind::UnixSocket, path.as_str()),
            (TransportKind::Tcp, "127.0.0.1:0"),
        ] {
            let listener = Listener::bind(kind, bind).unwrap();
            let soon = Instant::now() + Duration::from_millis(20);
            let idle = listener.accept_until(soon).err().expect("nobody dialed");
            assert_eq!(idle.kind(), ErrorKind::TimedOut, "{kind:?}");
            let mut dialed = connect(kind, &listener.addr().unwrap(), Instant::now()).unwrap();
            let later = Instant::now() + Duration::from_secs(5);
            let mut accepted = listener.accept_until(later).unwrap();
            dialed.write_all(b"hi").unwrap();
            let mut buf = [0; 2];
            accepted.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"hi", "{kind:?}");
        }
        let shm = connect(TransportKind::Shm, &path, Instant::now()).err();
        assert_eq!(shm.map(|e| e.kind()), Some(ErrorKind::Unsupported));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn frame_transport_carries_flits_credits_and_progress() {
        over_each_pipe!(carries_flits_credits_and_progress);
    }

    /// Sends `packets` from node 0's bridge, each only after it has waited
    /// in the backlog, and returns every flit the bridge pushes, in order.
    #[cfg(unix)]
    fn injected_flits(packets: &[Packet], store: Arc<PayloadStore>) -> Vec<Flit> {
        let vc = Arc::new(VcBuffer::new(2));
        let mut bridge = Bridge::new(NodeId::new(0), vec![Arc::clone(&vc)], 1, store);
        for p in packets {
            bridge.send(p.clone()).unwrap();
        }
        let mut stats = NetworkStats::new();
        let mut flits = Vec::new();
        for now in 10..40 {
            bridge.inject(now, &mut stats);
            vc.absorb_tail();
            flits.extend(std::iter::from_fn(|| vc.pop_if(Cycle::MAX, |_| true)));
        }
        assert!(bridge.injection_idle());
        flits
    }

    /// Node 1's bridge reassembles `flits` and hands back what it delivers.
    #[cfg(unix)]
    fn delivered(mut flits: Vec<Flit>, store: Arc<PayloadStore>) -> Vec<Packet> {
        let vc = vec![Arc::new(VcBuffer::new(2))];
        let mut bridge = Bridge::new(NodeId::new(1), vc, 1, store);
        bridge.accept(&mut flits, 50, &mut NetworkStats::new());
        std::iter::from_fn(|| bridge.try_recv().map(|d| d.packet)).collect()
    }

    #[cfg(unix)]
    fn forwards_payloads_with_tail_flits<P: TestPipe>() {
        let (pa, pb) = P::pair();
        let (wa, _) = adjacency(1, 8);
        let (_, wb) = adjacency(1, 8);
        let store_a = Arc::new(PayloadStore::new());
        let store_b = Arc::new(PayloadStore::new());
        let mut ta = FrameTransport::new(pa, &wa, 0, store_a.clone()).unwrap();
        let mut tb = FrameTransport::new(pb, &wb, 0, store_b.clone()).unwrap();

        // Node 0 sends one packet without a payload and one with; both wait
        // in its backlog before they go in. The bridge parks the payload.
        let sent = |id: u64| {
            Packet::new(
                PacketId::new(id),
                FlowId::new(1),
                NodeId::new(0),
                NodeId::new(1),
                2,
            )
        };
        let packets = [
            sent(1),
            sent(2).with_payload(Payload::from_words(&[0xfeed, 0xbead])),
        ];
        let flits = injected_flits(&packets, store_a.clone());
        assert_eq!(store_a.len(), 1, "only the payload is parked");
        for f in &flits {
            assert!(wa.out_links[0].push(*f));
        }
        ta.pump(40, true).unwrap();

        // The tail's crossing claimed the payload; B deposits it before it
        // takes progress 40, and node 1 delivers exactly what node 0 sent.
        assert!(store_a.is_empty(), "tail crossing must claim the payload");
        await_progress(&mut tb, 40);
        assert_eq!(store_b.len(), 1);
        let arrived = wb.in_links[0].staged_flit_snapshot();
        assert_eq!(arrived, flits);
        assert_eq!(delivered(arrived, store_b.clone()), packets);
        assert!(store_b.is_empty());

        // The same packets delivered in-process, through one shared store.
        let shared = Arc::new(PayloadStore::new());
        let local = injected_flits(&packets, shared.clone());
        assert_eq!(delivered(local, shared), packets);
        close(ta, tb);
    }

    #[cfg(unix)]
    #[test]
    fn frame_transport_forwards_payloads_with_tail_flits() {
        over_each_pipe!(forwards_payloads_with_tail_flits);
    }

    #[cfg(unix)]
    fn batching_coalesces_writes_but_flush_forces_visibility<P: TestPipe>() {
        let (pa, pb) = P::pair();
        let (wa, _) = adjacency(1, 4);
        let (_, wb) = adjacency(1, 4);
        let (mut ta, mut tb) = (transport(pa, &wa), transport(pb, &wb));

        // Cycles pumped without `flush` are encoded but never written.
        for c in 1..=4u64 {
            if c % 2 == 1 {
                assert!(wa.out_links[0].push(flit(c as u32, c)));
            }
            ta.pump(c, false).unwrap();
        }
        tb.ingest();
        assert_eq!(tb.peer_progress(), 0, "nothing is written before a flush");
        assert_eq!(wb.in_links[0].in_flight(), 0);
        // The flush writes every buffered cycle at once.
        ta.pump(5, true).unwrap();
        await_progress(&mut tb, 5);
        assert_eq!(wb.in_links[0].in_flight(), 2, "every buffered flit lands");
        close(ta, tb);
    }

    #[cfg(unix)]
    #[test]
    fn batching_coalesces_flushes_but_flush_forces_visibility() {
        over_each_pipe!(batching_coalesces_writes_but_flush_forces_visibility);
    }

    #[cfg(unix)]
    fn peer_close_reads_as_infinite_progress<P: TestPipe>() {
        let (pa, mut raw) = P::pair();
        let (wa, _) = adjacency(1, 2);
        let mut ta = transport(pa, &wa);
        assert!(!ta.reached(1));
        raw.close_write();
        await_progress(&mut ta, u64::MAX);
        assert!(
            ta.failed.is_none(),
            "an end of stream between frames is a clean finish"
        );
    }

    #[cfg(unix)]
    #[test]
    fn peer_close_between_frames_reads_as_infinite_progress() {
        over_each_pipe!(peer_close_reads_as_infinite_progress);
    }

    /// What a `(2 VCs, capacity 4)` side A puts on the wire for `cycle`:
    /// `n_flits` flits on channel 1 and one credit on channel 0.
    #[cfg(unix)]
    fn wire_bytes<P: TestPipe>(cycle: Cycle, n_flits: u32) -> Vec<u8> {
        let (pa, mut raw) = P::pair();
        let (wa, _) = adjacency(2, 4);
        let mut ta = transport(pa, &wa);
        for seq in 0..n_flits {
            assert!(wa.out_links[1].push(flit(seq, cycle + 1)));
        }
        assert!(wa.in_links[0].inject_credit(CreditMsg { cycle, count: 2 }));
        ta.pump(cycle, true).unwrap();
        let mut bytes = vec![0; 4096];
        let n = raw.read(&mut bytes).unwrap();
        bytes.truncate(n);
        raw.close_write();
        bytes
    }

    /// Side B of [`wire_bytes`]' adjacency, facing a raw peer.
    #[cfg(unix)]
    fn raw_peer<P: TestPipe>() -> (P, NeighborWiring, FrameTransport<P>) {
        let (raw, pb) = P::pair();
        let (_, wb) = adjacency(2, 4);
        let tb = transport(pb, &wb);
        (raw, wb, tb)
    }

    /// Hazard (d): a frame split across reads publishes nothing until its
    /// last byte is in, wherever the split falls.
    #[cfg(unix)]
    fn split_at_any_offset_lands_whole_and_once<P: TestPipe>() {
        let bytes = wire_bytes::<P>(7, 3);
        for split in 1..bytes.len() {
            let (mut raw, wb, mut tb) = raw_peer::<P>();
            raw.write_all(&bytes[..split]).unwrap();
            assert!(
                !tb.reached(7),
                "split {split}: progress before the last byte"
            );
            assert_eq!(wb.in_links[1].in_flight(), 0, "split {split}: early flits");
            raw.write_all(&bytes[split..]).unwrap();
            await_progress(&mut tb, 7);
            tb.ingest();
            assert_eq!(tb.peer_progress(), 7);
            assert_eq!(wb.in_links[1].in_flight(), 3, "split {split}: flits");
            assert_eq!(
                wb.out_links[0].staged_credit_snapshot(),
                [CreditMsg { cycle: 7, count: 2 }],
                "split {split}: credits"
            );
            raw.close_write();
        }
    }

    #[cfg(unix)]
    #[test]
    fn a_frame_split_at_any_offset_lands_whole_and_once() {
        over_each_pipe!(split_at_any_offset_lands_whole_and_once);
    }

    /// Hazard (a): both sides write more than the pipe holds (socket
    /// buffers; a ring a sixteenth of the frame) and nobody reads in
    /// between. A write that waits for room deadlocks here.
    #[cfg(unix)]
    fn mutual_back_pressure<P: TestPipe>() {
        let (pa, pb) = P::pair();
        let (wa, wb) = adjacency(1, 4);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let start = Arc::new(std::sync::Barrier::new(2));
        for (id, pipe, wiring) in [(1u64, pa, wa), (2, pb, wb)] {
            let (done, start) = (done_tx.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                let store = Arc::new(PayloadStore::new());
                let mut t = FrameTransport::new(pipe, &wiring, 0, store.clone()).unwrap();
                // A 4 MiB payload rides the tail flit: far beyond
                // SO_SNDBUF and the ring.
                let packet = Packet::new(
                    PacketId::new(id),
                    FlowId::new(1),
                    NodeId::new(0),
                    NodeId::new(1),
                    1,
                )
                .with_payload(Payload::from(vec![id; 512 << 10]));
                store.deposit(packet.id, packet.payload);
                let mut tail = flit(0, 2);
                (tail.packet, tail.kind) = (PacketId::new(id), FlitKind::HeadTail);
                assert!(wiring.out_links[0].push(tail));
                start.wait();
                t.pump(1, true).unwrap();
                await_progress(&mut t, 1);
                let got = store.claim(PacketId::new(3 - id)).expect("peer's payload");
                assert_eq!(got.words(), vec![3 - id; 512 << 10]);
                drop(t);
                done.send(()).unwrap();
            });
        }
        for _ in 0..2 {
            done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("both pumps must complete: deadlocked on a full pipe");
        }
    }

    #[cfg(unix)]
    #[test]
    fn mutual_back_pressure_does_not_deadlock() {
        over_each_pipe!(mutual_back_pressure);
    }

    /// Hazard (b): A finishes and is dropped while B still has its last
    /// cycle to pump. Closing A's socket outright gives B `EPIPE`.
    #[cfg(unix)]
    fn finishing_first<P: TestPipe>() {
        let (pa, pb) = P::pair();
        let (wa, wb) = adjacency(1, 4);
        let (mut ta, mut tb) = (transport(pa, &wa), transport(pb, &wb));
        ta.pump(9, true).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| drop(ta));
            // B sees A's last cycle, then A's finish, and still pumps its own.
            await_progress(&mut tb, u64::MAX);
            assert!(tb.failed.is_none());
            tb.pump(9, true)
                .expect("the finished peer must still accept our last frame");
            drop(tb);
        });
    }

    #[cfg(unix)]
    #[test]
    fn finishing_first_does_not_break_the_peers_last_pump() {
        over_each_pipe!(finishing_first);
    }

    /// Feeds `bytes` then end of stream to a transport and returns it once
    /// it has seen the end. The raw peer stays open, so a `pump` fails
    /// only if the transport itself recorded a failure.
    #[cfg(unix)]
    fn fed<P: TestPipe>(bytes: &[u8]) -> (P, FrameTransport<P>) {
        let (mut raw, _, mut tb) = raw_peer::<P>();
        raw.write_all(bytes).unwrap();
        raw.close_write();
        await_progress(&mut tb, u64::MAX);
        (raw, tb)
    }

    /// Only a clean end of stream on a frame boundary reads as "peer
    /// finished": every other way a stream can end or go wrong fails the
    /// next `pump`, naming the peer and the link. Hazard (c) is the last
    /// row: a flit the ring cannot take is an error, not a wait.
    #[cfg(unix)]
    fn corrupt_frames_and_mid_frame_eof<P: TestPipe>() {
        let good = wire_bytes::<P>(7, 3);
        let (_raw, mut tb) = fed::<P>(&good);
        tb.pump(8, true).expect("clean finish");

        let mut bad_channel = good.clone();
        bad_channel[20] = 9; // first flit's channel index
        let mut short_body = good[..good.len() - 5].to_vec();
        short_body[..4].copy_from_slice(&(good.len() as u32 - 9).to_le_bytes());
        let mut trailing = good.clone();
        trailing[..4].copy_from_slice(&(good.len() as u32 + 1).to_le_bytes());
        trailing.extend_from_slice(&good[..5]);
        for (what, bytes, kind) in [
            ("bad channel", bad_channel, ErrorKind::InvalidData),
            ("truncated body", short_body, ErrorKind::UnexpectedEof),
            ("trailing bytes", trailing, ErrorKind::InvalidData),
            ("oversized prefix", vec![0xff; 8], ErrorKind::InvalidData),
            (
                "mid-frame EOF",
                good[..good.len() - 1].to_vec(),
                ErrorKind::UnexpectedEof,
            ),
            (
                "ring overflow",
                [&good[..], &good[..]].concat(),
                ErrorKind::InvalidData,
            ),
        ] {
            let (_raw, mut tb) = fed::<P>(&bytes);
            let err = tb.pump(8, true).expect_err(what);
            assert_eq!(err.kind(), kind, "{what}: {err}");
            let named = format!("boundary {} to shard 0", P::LINK);
            assert!(err.to_string().contains(&named), "{what}: {err}");
            tb.pump(9, true).expect("the failure is reported once");
        }
    }

    #[cfg(unix)]
    #[test]
    fn corrupt_frames_and_mid_frame_eof_fail_the_run() {
        over_each_pipe!(corrupt_frames_and_mid_frame_eof);
    }

    #[cfg(unix)]
    fn damaged_frame<P: TestPipe>(
        n_flits: u32,
        damage: usize,
        at: usize,
    ) -> Result<(), TestCaseError> {
        let mut bytes = wire_bytes::<P>(7, n_flits);
        let len = bytes.len();
        let must_fail = match damage {
            0 => {
                bytes.truncate(at % len);
                !bytes.is_empty()
            }
            1 => {
                bytes[at / 8 % len] ^= 1 << (at % 8);
                false
            }
            _ => {
                let inflated = len as u32 - 4 + 1 + (at % (1 << 27)) as u32;
                bytes[..4].copy_from_slice(&inflated.to_le_bytes());
                true
            }
        };
        let (_raw, tb) = fed::<P>(&bytes);
        proptest::prop_assert!(tb.failed.is_some() || !must_fail);
        let unused = fed::<P>(&[]).1.rx.len();
        proptest::prop_assert!(tb.rx.len() <= unused.max(2 * bytes.len()));
        Ok(())
    }

    #[cfg(unix)]
    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// Hostile bytes: a truncated, a bit-flipped and a length-inflated
        /// frame never panic, never spin, never buffer more than twice what
        /// arrived — and the first and last always fail the run.
        #[test]
        fn damaged_frames_are_rejected_without_panic_or_unbounded_buffering(
            n_flits in 0u32..5,
            damage in 0usize..3,
            at in proptest::any::<usize>(),
        ) {
            damaged_frame::<Stream>(n_flits, damage, at)?;
            if ShmPipe::available() {
                damaged_frame::<ShmPipe>(n_flits, damage, at)?;
            }
        }
    }
}
