//! Real socket transport: length-prefixed framing over TCP or Unix
//! domain sockets, per-connection supervision, and
//! reconnect-with-session-resume.
//!
//! The service loop stays virtual-clock-driven and byte-identical to its
//! [`crate::net::SimNet`] behaviour; everything wall-clock lives here:
//!
//! - [`FrameStream`] — a `u32`-length-prefixed stream carrying the
//!   existing versioned [`crate::wire`] frames. Parsing is incremental:
//!   torn length prefixes, mid-frame severs and interleaved partial
//!   writes accumulate until a whole frame (or a typed error) emerges —
//!   a partial frame is never surfaced.
//! - [`TcpTransport`] — the verifier-side listener. Every accepted
//!   connection is greeted with a fresh [`Frame::LinkNonce`] and must
//!   open with either [`Frame::Enroll`] (first contact, handed to the
//!   service for a full calibrate+SAKE enrollment) or an authenticated
//!   [`Frame::Hello`] (session resume: a CMAC keyed by the link key
//!   derived from the SAKE session key — proof of key possession without
//!   rerunning SAKE). Each live peer gets a reader and a writer thread
//!   with heartbeat and idle budgets, and a *bounded* outbox with an
//!   explicit shed policy: when the peer is down or the queue is full,
//!   frames are dropped and counted, never buffered without bound.
//! - [`DeviceLink`] — the device-side client: enrolls once, answers
//!   challenges, and on any disconnect reconnects with exponential
//!   backoff plus deterministic per-device jitter and resumes its
//!   session. Responses are cached per round so a re-sent challenge is
//!   answered idempotently (the device never reruns a checksum it
//!   already ran — which also keeps its timing sequence identical to an
//!   unsevered run).
//!
//! Link loss is surfaced as [`LinkEvent`]s, *not* as attestation
//! verdicts: the service marks the device `Degraded` and retries, so a
//! severed cable never looks like a cheating GPU (DESIGN.md §12).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use sage::multi::FleetMember;
use sage_crypto::canon;
use sage_crypto::cmac::{cmac_aes128, cmac_verify};
use sage_crypto::DhGroup;
use sage_telemetry::{Counter, Histogram, Registry};

use crate::net::{Envelope, LinkEvent, NodeId, SplitMix64, Transport};
use crate::policy::seeded_jitter;
use crate::service::VERIFIER_NODE;
use crate::wire::{self, CodecError, Frame, MAX_PAYLOAD};

/// Largest frame the stream layer will accept: one wire header plus the
/// codec's payload bound. Length prefixes above this are rejected before
/// any allocation happens.
pub const MAX_FRAME_BYTES: u32 = 8 + MAX_PAYLOAD;

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Stream errors
// ---------------------------------------------------------------------------

/// Failures at the stream-framing layer. Every path fails closed with a
/// typed error — garbage on the socket becomes a counted disconnect,
/// never a panic or a partially-parsed frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// The underlying socket errored.
    Io(io::ErrorKind),
    /// The bytes framed correctly but the payload failed to decode.
    Codec(CodecError),
    /// A length prefix exceeded [`MAX_FRAME_BYTES`].
    Oversize(u32),
    /// The peer closed the connection (EOF).
    Closed,
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::Io(kind) => write!(f, "socket error: {kind:?}"),
            StreamError::Codec(e) => write!(f, "frame decode failed: {e}"),
            StreamError::Oversize(n) => write!(f, "length prefix {n} exceeds maximum"),
            StreamError::Closed => write!(f, "connection closed by peer"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> StreamError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            StreamError::Closed
        } else {
            StreamError::Io(e.kind())
        }
    }
}

impl From<CodecError> for StreamError {
    fn from(e: CodecError) -> StreamError {
        StreamError::Codec(e)
    }
}

// ---------------------------------------------------------------------------
// Conn: one socket, TCP or UDS
// ---------------------------------------------------------------------------

/// One bidirectional byte stream — TCP or Unix domain socket — behind a
/// single type so the framing and supervision layers are
/// address-family-agnostic.
#[derive(Debug)]
pub enum Conn {
    /// A TCP connection (`TCP_NODELAY` is set on connect/accept).
    Tcp(TcpStream),
    /// A Unix-domain-socket connection.
    Unix(UnixStream),
}

impl Conn {
    /// Clones the handle (shared underlying socket), so one side can
    /// read while another writes.
    pub fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    /// Sets the read timeout (None = blocking).
    pub fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }

    /// Sets the write timeout (None = blocking).
    pub fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(d),
            Conn::Unix(s) => s.set_write_timeout(d),
        }
    }

    /// Severs both directions. Errors (already closed) are ignored.
    pub fn shutdown(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A listening or dialing address: TCP socket address or UDS path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Bind {
    /// A TCP address (use port 0 to bind an ephemeral port; the bound
    /// address is reported by [`TcpTransport::local_bind`]).
    Tcp(SocketAddr),
    /// A Unix-domain-socket path (unlinked before bind).
    Uds(PathBuf),
}

impl core::fmt::Display for Bind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Bind::Tcp(a) => write!(f, "tcp://{a}"),
            Bind::Uds(p) => write!(f, "uds://{}", p.display()),
        }
    }
}

/// Dials a [`Bind`]. TCP connections get `TCP_NODELAY` (the control
/// plane sends many small frames; Nagle would serialize round trips).
pub fn connect(bind: &Bind) -> io::Result<Conn> {
    match bind {
        Bind::Tcp(addr) => {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(Conn::Tcp(s))
        }
        Bind::Uds(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
    }
}

enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Listener {
    fn bind(b: &Bind) -> io::Result<Listener> {
        match b {
            Bind::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr)?)),
            Bind::Uds(path) => {
                let _ = std::fs::remove_file(path);
                Ok(Listener::Uds(UnixListener::bind(path)?))
            }
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            Listener::Uds(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Unix(s))
            }
        }
    }

    fn local_bind(&self, requested: &Bind) -> Bind {
        match (self, requested) {
            (Listener::Tcp(l), _) => match l.local_addr() {
                Ok(a) => Bind::Tcp(a),
                Err(_) => requested.clone(),
            },
            (Listener::Uds(_), b) => b.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// FrameStream: length-prefixed framing with incremental parsing
// ---------------------------------------------------------------------------

/// A framed view over one [`Conn`]: each frame is a `u32` little-endian
/// length prefix followed by that many bytes of [`crate::wire`] encoding.
///
/// Reading is incremental — bytes accumulate across reads, so a frame
/// torn at any byte boundary (including mid-prefix) is reassembled, and
/// a read timeout simply returns `Ok(None)` with the partial bytes
/// retained for the next call.
pub struct FrameStream {
    conn: Conn,
    buf: Vec<u8>,
    pos: usize,
}

impl FrameStream {
    /// Wraps a connection.
    pub fn new(conn: Conn) -> FrameStream {
        FrameStream {
            conn,
            buf: Vec::with_capacity(4096),
            pos: 0,
        }
    }

    /// The underlying connection.
    pub fn conn(&self) -> &Conn {
        &self.conn
    }

    /// A second handle on the connection (for a writer thread).
    pub fn try_clone_conn(&self) -> io::Result<Conn> {
        self.conn.try_clone()
    }

    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Attempts to parse one frame from the buffered bytes without
    /// touching the socket.
    fn parse_buffered(&mut self) -> Result<Option<Frame>, StreamError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let p = self.pos;
        let len = u32::from_le_bytes([
            self.buf[p],
            self.buf[p + 1],
            self.buf[p + 2],
            self.buf[p + 3],
        ]);
        if len > MAX_FRAME_BYTES {
            return Err(StreamError::Oversize(len));
        }
        let need = 4 + len as usize;
        if avail < need {
            return Ok(None);
        }
        let frame = wire::decode(&self.buf[p + 4..p + need])?;
        self.pos += need;
        self.compact();
        Ok(Some(frame))
    }

    /// Reads until one whole frame is available or the socket's read
    /// timeout elapses. `Ok(None)` means "no complete frame yet" (any
    /// partial bytes are retained); `Err` means the stream is unusable
    /// and must be torn down.
    pub fn read_frame(&mut self) -> Result<Option<Frame>, StreamError> {
        loop {
            if let Some(frame) = self.parse_buffered()? {
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; 4096];
            match self.conn.read(&mut chunk) {
                Ok(0) => return Err(StreamError::Closed),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Reads with a hard deadline, polling the socket until a frame
    /// arrives or `deadline` passes (`Ok(None)`).
    pub fn read_frame_deadline(&mut self, deadline: Instant) -> Result<Option<Frame>, StreamError> {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let _ = self
                .conn
                .set_read_timeout(Some((deadline - now).min(Duration::from_millis(200))));
            match self.read_frame() {
                Ok(None) => continue,
                other => return other,
            }
        }
    }

    /// Writes one frame (length prefix + encoding) and flushes.
    pub fn write_frame(&mut self, frame: &Frame) -> Result<(), StreamError> {
        write_frame_to(&mut self.conn, frame)
    }
}

/// Writes one length-prefixed frame to a raw connection.
pub fn write_frame_to(conn: &mut Conn, frame: &Frame) -> Result<(), StreamError> {
    write_bytes_to(conn, &wire::encode(frame))
}

fn write_bytes_to(conn: &mut Conn, bytes: &[u8]) -> Result<(), StreamError> {
    let mut msg = Vec::with_capacity(4 + bytes.len());
    msg.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    msg.extend_from_slice(bytes);
    conn.write_all(&msg)?;
    conn.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Resume handshake MACs
// ---------------------------------------------------------------------------

/// Derives the per-session link key from the SAKE session key. Both
/// sides compute it independently after key establishment; it
/// authenticates resume handshakes without exposing the session key.
pub fn link_key(session_key: &[u8; 16]) -> [u8; 16] {
    sage::sake::mac_key(b"sage-link", session_key)
}

pub(crate) fn hello_transcript(
    label: &[u8],
    device: &str,
    nonce: &[u8; 16],
    resume_from: u64,
) -> Vec<u8> {
    let mut t = Vec::with_capacity(label.len() + 2 + device.len() + 24);
    t.extend_from_slice(label);
    crate::wire::put_name(&mut t, device);
    canon::put_fixed(&mut t, nonce);
    canon::put_u64(&mut t, resume_from);
    t
}

/// MAC over a [`Frame::Hello`] transcript (device → verifier). Binding
/// the server's fresh nonce defeats replay of a recorded handshake.
pub fn hello_mac(key: &[u8; 16], device: &str, nonce: &[u8; 16], resume_from: u64) -> [u8; 16] {
    cmac_aes128(
        key,
        &hello_transcript(b"sage-hello", device, nonce, resume_from),
    )
}

/// MAC over a [`Frame::HelloAck`] transcript (verifier → device) — the
/// mutual-authentication leg, under a distinct label so an ack can never
/// be replayed as a hello.
pub fn hello_ack_mac(key: &[u8; 16], device: &str, nonce: &[u8; 16], resume_from: u64) -> [u8; 16] {
    cmac_aes128(
        key,
        &hello_transcript(b"sage-hello-ack", device, nonce, resume_from),
    )
}

// ---------------------------------------------------------------------------
// Verifier-side transport
// ---------------------------------------------------------------------------

/// Tunables for connection supervision. Defaults suit tests; production
/// deployments stretch the budgets.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Seed for server link nonces (deterministic for reproducibility;
    /// a production deployment would mix in a hardware entropy source).
    pub seed: u64,
    /// Bounded per-peer outbox depth; beyond it the oldest frame is
    /// shed (the service re-sends outstanding challenges on resume, so
    /// shedding is safe — and memory stays bounded under any outage).
    pub outbox_cap: usize,
    /// Writer-side idle interval after which a heartbeat is sent.
    pub heartbeat_interval: Duration,
    /// Reader-side silence budget; each elapsed budget counts a
    /// heartbeat miss.
    pub idle_budget: Duration,
    /// Consecutive heartbeat misses before the connection is severed.
    pub max_heartbeat_misses: u32,
    /// Budget for the enroll/hello handshake on a fresh connection.
    pub handshake_timeout: Duration,
    /// Read-timeout granularity of supervision loops (how quickly they
    /// notice shutdown).
    pub read_poll: Duration,
}

impl Default for LinkConfig {
    fn default() -> LinkConfig {
        LinkConfig {
            seed: 0x5A6E_11E7,
            outbox_cap: 64,
            heartbeat_interval: Duration::from_millis(200),
            idle_budget: Duration::from_millis(600),
            max_heartbeat_misses: 3,
            handshake_timeout: Duration::from_secs(5),
            read_poll: Duration::from_millis(50),
        }
    }
}

/// Counters for the transport's failure surface (snapshot).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Connections accepted (including rejected handshakes).
    pub accepted: u64,
    /// Enrollment requests queued for the service.
    pub enrolls: u64,
    /// Successful session resumes (reconnects).
    pub reconnects: u64,
    /// Frames dropped by the outbox shed policy (peer down or queue
    /// full).
    pub frames_shed: u64,
    /// Reader-side idle budgets elapsed without traffic.
    pub heartbeat_misses: u64,
    /// Connections torn down (read error, EOF, codec error, or
    /// heartbeat budget exhausted).
    pub disconnects: u64,
    /// Disconnects caused specifically by undecodable bytes.
    pub codec_disconnects: u64,
    /// Hello handshakes rejected (unknown peer, bad MAC, stale nonce).
    pub handshake_rejects: u64,
    /// Frames surfaced to the service loop.
    pub frames_rx: u64,
    /// Frames accepted into an outbox.
    pub frames_tx: u64,
}

#[derive(Default)]
struct AtomicStats {
    accepted: AtomicU64,
    enrolls: AtomicU64,
    reconnects: AtomicU64,
    frames_shed: AtomicU64,
    heartbeat_misses: AtomicU64,
    disconnects: AtomicU64,
    codec_disconnects: AtomicU64,
    handshake_rejects: AtomicU64,
    frames_rx: AtomicU64,
    frames_tx: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> TransportStats {
        TransportStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            enrolls: self.enrolls.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            frames_shed: self.frames_shed.load(Ordering::Relaxed),
            heartbeat_misses: self.heartbeat_misses.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            codec_disconnects: self.codec_disconnects.load(Ordering::Relaxed),
            handshake_rejects: self.handshake_rejects.load(Ordering::Relaxed),
            frames_rx: self.frames_rx.load(Ordering::Relaxed),
            frames_tx: self.frames_tx.load(Ordering::Relaxed),
        }
    }
}

#[derive(Clone)]
struct Telemetry {
    reconnects: Counter,
    frames_shed: Counter,
    heartbeat_misses: Counter,
    /// Outbox depth after each enqueue, across every peer.
    outbox_depth: Histogram,
}

#[derive(Default)]
struct Inbound {
    queue: VecDeque<Envelope>,
    link_events: Vec<LinkEvent>,
    enrolls: VecDeque<(String, FrameStream)>,
}

impl Inbound {
    fn pending(&self) -> bool {
        !self.queue.is_empty() || !self.link_events.is_empty() || !self.enrolls.is_empty()
    }
}

struct OutboxState {
    queue: VecDeque<Vec<u8>>,
    /// Connection generation; bumping it retires any supervision
    /// thread still running against the previous socket.
    epoch: u64,
    up: bool,
    /// Wall instants of recently sent challenges, keyed by round, for
    /// round-trip latency sampling (bounded).
    challenge_sent: VecDeque<(u64, Instant)>,
    next_hb_seq: u64,
}

struct PeerShared {
    name: String,
    node: NodeId,
    link_key: [u8; 16],
    outbox: Mutex<OutboxState>,
    cond: Condvar,
}

impl PeerShared {
    /// Marks the link down if `epoch` is still current; returns whether
    /// this call performed the transition (so Down is reported once per
    /// connection, whichever supervision thread loses it first).
    fn mark_down(&self, epoch: u64) -> bool {
        let mut ob = lock_unpoisoned(&self.outbox);
        if ob.epoch == epoch && ob.up {
            ob.up = false;
            self.cond.notify_all();
            true
        } else {
            false
        }
    }
}

struct Shared {
    cfg: LinkConfig,
    inbound: Mutex<Inbound>,
    activity: Condvar,
    stats: AtomicStats,
    peers: Mutex<HashMap<String, Arc<PeerShared>>>,
    rtt_ns: Mutex<Vec<u64>>,
    telemetry: Mutex<Option<Telemetry>>,
    shutdown: AtomicBool,
}

impl Shared {
    fn push_inbound(&self, env: Envelope) {
        self.stats.frames_rx.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(&self.inbound).queue.push_back(env);
        self.activity.notify_all();
    }

    fn push_link_event(&self, ev: LinkEvent) {
        lock_unpoisoned(&self.inbound).link_events.push(ev);
        self.activity.notify_all();
    }

    fn note_heartbeat_miss(&self) {
        self.stats.heartbeat_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = lock_unpoisoned(&self.telemetry).as_ref() {
            t.heartbeat_misses.inc();
        }
    }

    fn note_shed(&self) {
        self.stats.frames_shed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = lock_unpoisoned(&self.telemetry).as_ref() {
            t.frames_shed.inc();
        }
    }

    fn note_rtt(&self, d: Duration) {
        let mut samples = lock_unpoisoned(&self.rtt_ns);
        if samples.len() < 1 << 20 {
            samples.push(d.as_nanos() as u64);
        }
    }
}

/// The verifier-side socket transport. Implements [`Transport`] so the
/// unmodified [`crate::service::AttestationService`] loop runs behind
/// it; a [`crate::clock::ClockDriver`] bridges the virtual clock to
/// wall time.
pub struct TcpTransport {
    shared: Arc<Shared>,
    node_index: HashMap<NodeId, Arc<PeerShared>>,
    local_bind: Bind,
}

impl TcpTransport {
    /// Binds a listener and starts the acceptor thread.
    pub fn bind(bind: Bind, cfg: LinkConfig) -> io::Result<TcpTransport> {
        let listener = Listener::bind(&bind)?;
        let local_bind = listener.local_bind(&bind);
        let shared = Arc::new(Shared {
            cfg,
            inbound: Mutex::new(Inbound::default()),
            activity: Condvar::new(),
            stats: AtomicStats::default(),
            peers: Mutex::new(HashMap::new()),
            rtt_ns: Mutex::new(Vec::new()),
            telemetry: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("sage-accept".into())
            .spawn(move || acceptor_loop(listener, accept_shared))
            .expect("spawn acceptor");
        Ok(TcpTransport {
            shared,
            node_index: HashMap::new(),
            local_bind,
        })
    }

    /// The address actually bound (resolves an ephemeral TCP port).
    pub fn local_bind(&self) -> Bind {
        self.local_bind.clone()
    }

    /// Registers transport metrics on `registry`:
    /// `transport_reconnects_total`, `transport_frames_shed_total`,
    /// `transport_heartbeat_misses_total`, plus one
    /// `transport_outbox_depth` histogram over every peer's outbox.
    pub fn attach_telemetry(&self, registry: &Registry) {
        let tele = Telemetry {
            reconnects: registry.counter("transport_reconnects_total", &[]),
            frames_shed: registry.counter("transport_frames_shed_total", &[]),
            heartbeat_misses: registry.counter("transport_heartbeat_misses_total", &[]),
            outbox_depth: registry.histogram("transport_outbox_depth", &[]),
        };
        *lock_unpoisoned(&self.shared.telemetry) = Some(tele);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TransportStats {
        self.shared.stats.snapshot()
    }

    /// Challenge→response round-trip samples (wall nanoseconds),
    /// drained.
    pub fn take_rtt_samples(&self) -> Vec<u64> {
        std::mem::take(&mut lock_unpoisoned(&self.shared.rtt_ns))
    }

    /// How many enrollment requests are waiting for the service.
    pub fn pending_enrolls(&self) -> usize {
        lock_unpoisoned(&self.shared.inbound).enrolls.len()
    }

    /// Takes one queued enrollment (device name + its live stream). The
    /// caller runs the enrollment protocol over the stream and, on
    /// success, hands the stream back via [`TcpTransport::adopt_peer`].
    pub fn take_pending_enroll(&mut self) -> Option<(String, FrameStream)> {
        lock_unpoisoned(&self.shared.inbound).enrolls.pop_front()
    }

    /// Blocks up to `timeout` for new inbound work (frames, link events
    /// or enrollments). Returns whether anything is pending.
    pub fn wait_activity(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inbound = lock_unpoisoned(&self.shared.inbound);
        loop {
            if inbound.pending() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .shared
                .activity
                .wait_timeout(inbound, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inbound = guard;
        }
    }

    /// Adopts an enrolled device as a live peer: derives supervision
    /// state, spawns its reader/writer threads and indexes it under
    /// `node`. Future reconnects resume via [`Frame::Hello`] against
    /// `link_key`.
    pub fn adopt_peer(
        &mut self,
        name: String,
        node: NodeId,
        link_key: [u8; 16],
        stream: FrameStream,
    ) {
        let peer = Arc::new(PeerShared {
            name: name.clone(),
            node,
            link_key,
            outbox: Mutex::new(OutboxState {
                queue: VecDeque::new(),
                epoch: 0,
                up: false,
                challenge_sent: VecDeque::new(),
                next_hb_seq: 1,
            }),
            cond: Condvar::new(),
        });
        lock_unpoisoned(&self.shared.peers).insert(name, Arc::clone(&peer));
        self.node_index.insert(node, Arc::clone(&peer));
        attach_connection(&self.shared, &peer, stream);
    }

    /// Severs every live peer connection (used by shutdown and tests).
    pub fn sever_all(&self) {
        for peer in lock_unpoisoned(&self.shared.peers).values() {
            let epoch = lock_unpoisoned(&peer.outbox).epoch;
            peer.mark_down(epoch);
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.sever_all();
    }
}

/// Spawns reader + writer supervision for a (re)connected peer under a
/// fresh epoch. The previous epoch's threads notice and retire.
fn attach_connection(shared: &Arc<Shared>, peer: &Arc<PeerShared>, stream: FrameStream) {
    let writer_conn = match stream.try_clone_conn() {
        Ok(c) => c,
        Err(_) => {
            // Can't split the socket: treat as an immediate link loss.
            shared.stats.disconnects.fetch_add(1, Ordering::Relaxed);
            shared.push_link_event(LinkEvent::Down(peer.node));
            return;
        }
    };
    let epoch = {
        let mut ob = lock_unpoisoned(&peer.outbox);
        ob.epoch += 1;
        ob.up = true;
        ob.challenge_sent.clear();
        peer.cond.notify_all();
        ob.epoch
    };
    {
        let shared = Arc::clone(shared);
        let peer = Arc::clone(peer);
        thread::Builder::new()
            .name(format!("sage-rd-{}", peer.name))
            .spawn(move || reader_loop(shared, peer, stream, epoch))
            .expect("spawn reader");
    }
    {
        let shared = Arc::clone(shared);
        let peer = Arc::clone(peer);
        thread::Builder::new()
            .name(format!("sage-wr-{}", peer.name))
            .spawn(move || writer_loop(shared, peer, writer_conn, epoch))
            .expect("spawn writer");
    }
}

fn report_down(shared: &Shared, peer: &PeerShared, epoch: u64, codec: bool) {
    if peer.mark_down(epoch) {
        shared.stats.disconnects.fetch_add(1, Ordering::Relaxed);
        if codec {
            shared
                .stats
                .codec_disconnects
                .fetch_add(1, Ordering::Relaxed);
        }
        shared.push_link_event(LinkEvent::Down(peer.node));
    }
}

fn epoch_current(peer: &PeerShared, epoch: u64) -> bool {
    let ob = lock_unpoisoned(&peer.outbox);
    ob.epoch == epoch && ob.up
}

fn reader_loop(shared: Arc<Shared>, peer: Arc<PeerShared>, mut stream: FrameStream, epoch: u64) {
    let _ = stream.conn().set_read_timeout(Some(shared.cfg.read_poll));
    let mut last_rx = Instant::now();
    let mut misses = 0u32;
    loop {
        if shared.shutdown.load(Ordering::Relaxed) || !epoch_current(&peer, epoch) {
            stream.conn().shutdown();
            return;
        }
        match stream.read_frame() {
            Ok(Some(frame)) => {
                last_rx = Instant::now();
                misses = 0;
                match frame {
                    Frame::Heartbeat { seq, echo: false } => {
                        // Liveness probe from the peer: answer in-line,
                        // never surfaced to the service loop.
                        enqueue_raw(
                            &shared,
                            &peer,
                            wire::encode(&Frame::Heartbeat { seq, echo: true }),
                        );
                    }
                    Frame::Heartbeat { echo: true, .. } => {}
                    Frame::Response { round, .. } => {
                        let sent_at = {
                            let mut ob = lock_unpoisoned(&peer.outbox);
                            let hit = ob.challenge_sent.iter().position(|&(r, _)| r == round);
                            hit.and_then(|i| ob.challenge_sent.remove(i))
                                .map(|(_, t)| t)
                        };
                        if let Some(t) = sent_at {
                            shared.note_rtt(t.elapsed());
                        }
                        shared.push_inbound(Envelope {
                            src: peer.node,
                            dst: VERIFIER_NODE,
                            bytes: wire::encode(&frame),
                        });
                    }
                    other => shared.push_inbound(Envelope {
                        src: peer.node,
                        dst: VERIFIER_NODE,
                        bytes: wire::encode(&other),
                    }),
                }
            }
            Ok(None) => {
                if last_rx.elapsed() >= shared.cfg.idle_budget {
                    last_rx = Instant::now();
                    misses += 1;
                    shared.note_heartbeat_miss();
                    if misses >= shared.cfg.max_heartbeat_misses {
                        stream.conn().shutdown();
                        report_down(&shared, &peer, epoch, false);
                        return;
                    }
                }
            }
            Err(e) => {
                stream.conn().shutdown();
                report_down(
                    &shared,
                    &peer,
                    epoch,
                    matches!(e, StreamError::Codec(_) | StreamError::Oversize(_)),
                );
                return;
            }
        }
    }
}

fn writer_loop(shared: Arc<Shared>, peer: Arc<PeerShared>, mut conn: Conn, epoch: u64) {
    let _ = conn.set_write_timeout(Some(Duration::from_secs(5)));
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            conn.shutdown();
            return;
        }
        // Wait for a frame, our retirement, or a heartbeat-worth of idle.
        let next: Option<Vec<u8>> = {
            let mut ob = lock_unpoisoned(&peer.outbox);
            loop {
                if ob.epoch != epoch {
                    return; // superseded by a resumed connection
                }
                if !ob.up {
                    conn.shutdown();
                    return;
                }
                if let Some(bytes) = ob.queue.pop_front() {
                    break Some(bytes);
                }
                let (guard, timeout) = peer
                    .cond
                    .wait_timeout(ob, shared.cfg.heartbeat_interval)
                    .unwrap_or_else(|e| e.into_inner());
                ob = guard;
                if timeout.timed_out() {
                    if ob.epoch != epoch || !ob.up {
                        continue; // re-check exit conditions above
                    }
                    let seq = ob.next_hb_seq;
                    ob.next_hb_seq += 1;
                    break Some(wire::encode(&Frame::Heartbeat { seq, echo: false }));
                }
            }
        };
        if let Some(bytes) = next {
            if write_bytes_to(&mut conn, &bytes).is_err() {
                conn.shutdown();
                report_down(&shared, &peer, epoch, false);
                return;
            }
        }
    }
}

/// Enqueues transport-internal bytes (heartbeat replies) directly on a
/// peer's outbox, bypassing the service-facing shed accounting only when
/// the peer is down.
fn enqueue_raw(shared: &Shared, peer: &PeerShared, bytes: Vec<u8>) {
    let mut ob = lock_unpoisoned(&peer.outbox);
    if !ob.up {
        return;
    }
    if ob.queue.len() >= shared.cfg.outbox_cap {
        ob.queue.pop_front();
        shared.note_shed();
    }
    ob.queue.push_back(bytes);
    peer.cond.notify_all();
}

fn acceptor_loop(listener: Listener, shared: Arc<Shared>) {
    let nonce_rng = Mutex::new(SplitMix64::new(shared.cfg.seed ^ 0x11_4E_57_0C));
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(_) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        let nonce = {
            let mut rng = lock_unpoisoned(&nonce_rng);
            let mut n = [0u8; 16];
            n[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
            n[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
            n
        };
        let hs_shared = Arc::clone(&shared);
        let _ = thread::Builder::new()
            .name("sage-handshake".into())
            .spawn(move || handshake(hs_shared, conn, nonce));
    }
}

/// Runs the opening exchange on a fresh connection: send the server
/// nonce, then classify the first frame as enrollment or resume.
fn handshake(shared: Arc<Shared>, conn: Conn, nonce: [u8; 16]) {
    let mut stream = FrameStream::new(conn);
    if stream.write_frame(&Frame::LinkNonce { nonce }).is_err() {
        return;
    }
    let deadline = Instant::now() + shared.cfg.handshake_timeout;
    let first = match stream.read_frame_deadline(deadline) {
        Ok(Some(f)) => f,
        _ => {
            shared
                .stats
                .handshake_rejects
                .fetch_add(1, Ordering::Relaxed);
            stream.conn().shutdown();
            return;
        }
    };
    match first {
        Frame::Enroll { device } if !device.is_empty() => {
            shared.stats.enrolls.fetch_add(1, Ordering::Relaxed);
            let mut inbound = lock_unpoisoned(&shared.inbound);
            inbound.enrolls.push_back((device, stream));
            shared.activity.notify_all();
        }
        Frame::Hello {
            device,
            nonce: echoed,
            resume_from,
            mac,
        } => {
            let peer = lock_unpoisoned(&shared.peers).get(&device).cloned();
            let Some(peer) = peer else {
                shared
                    .stats
                    .handshake_rejects
                    .fetch_add(1, Ordering::Relaxed);
                stream.conn().shutdown();
                return;
            };
            let transcript = hello_transcript(b"sage-hello", &device, &nonce, resume_from);
            if echoed != nonce || !cmac_verify(&peer.link_key, &transcript, &mac) {
                shared
                    .stats
                    .handshake_rejects
                    .fetch_add(1, Ordering::Relaxed);
                stream.conn().shutdown();
                return;
            }
            let ack = Frame::HelloAck {
                nonce,
                mac: hello_ack_mac(&peer.link_key, &device, &nonce, resume_from),
            };
            if stream.write_frame(&ack).is_err() {
                stream.conn().shutdown();
                return;
            }
            shared.stats.reconnects.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = lock_unpoisoned(&shared.telemetry).as_ref() {
                t.reconnects.inc();
            }
            attach_connection(&shared, &peer, stream);
            shared.push_link_event(LinkEvent::Resumed(peer.node));
        }
        _ => {
            shared
                .stats
                .handshake_rejects
                .fetch_add(1, Ordering::Relaxed);
            stream.conn().shutdown();
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, _now: u64, env: Envelope) {
        let Some(peer) = self.node_index.get(&env.dst) else {
            self.shared.note_shed();
            return;
        };
        let mut ob = lock_unpoisoned(&peer.outbox);
        if !ob.up {
            self.shared.note_shed();
            return;
        }
        if ob.queue.len() >= self.shared.cfg.outbox_cap {
            // Shed oldest: the newest frame is the one the protocol
            // still cares about (a fresher challenge supersedes a stale
            // one).
            ob.queue.pop_front();
            self.shared.note_shed();
        }
        // Sample challenge send times for round-trip latency: kind byte
        // at offset 3, round at payload offset 8.
        if env.bytes.len() >= 16 && env.bytes[3] == 0x20 {
            let round = u64::from_le_bytes(env.bytes[8..16].try_into().unwrap());
            if ob.challenge_sent.len() >= 16 {
                ob.challenge_sent.pop_front();
            }
            ob.challenge_sent.push_back((round, Instant::now()));
        }
        ob.queue.push_back(env.bytes);
        let depth = ob.queue.len();
        peer.cond.notify_all();
        drop(ob);
        self.shared.stats.frames_tx.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = lock_unpoisoned(&self.shared.telemetry).as_ref() {
            t.outbox_depth.record(depth as u64);
        }
    }

    fn poll(&mut self, _now: u64, node: NodeId) -> Option<Envelope> {
        let mut inbound = lock_unpoisoned(&self.shared.inbound);
        let i = inbound.queue.iter().position(|e| e.dst == node)?;
        inbound.queue.remove(i)
    }

    fn next_event_at(&self) -> Option<u64> {
        let inbound = lock_unpoisoned(&self.shared.inbound);
        if !inbound.queue.is_empty() || !inbound.link_events.is_empty() {
            Some(0) // pending work is immediate (clamped to `now` upstream)
        } else {
            None
        }
    }

    fn drain_due(&mut self, _now: u64) -> Vec<Envelope> {
        lock_unpoisoned(&self.shared.inbound)
            .queue
            .drain(..)
            .collect()
    }

    fn take_link_events(&mut self) -> Vec<LinkEvent> {
        std::mem::take(&mut lock_unpoisoned(&self.shared.inbound).link_events)
    }
}

// ---------------------------------------------------------------------------
// Device-side client
// ---------------------------------------------------------------------------

/// Configuration for a [`DeviceLink`] client.
#[derive(Clone, Debug)]
pub struct DeviceLinkConfig {
    /// Verifier (or chaos proxy) address to dial.
    pub connect: Bind,
    /// Base reconnect backoff (doubles per consecutive failure).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Max deterministic jitter (milliseconds) added per attempt, keyed
    /// by device name — two peers recovering from the same outage land
    /// on different schedules instead of a synchronized retry storm.
    pub backoff_jitter_ms: u64,
    /// Read-poll granularity of the steady-state loop.
    pub read_poll: Duration,
    /// Give up after this many consecutive failed connection attempts
    /// (`None` = retry forever).
    pub max_attempts: Option<u32>,
    /// Adversarial knob for tests: after answering this many
    /// post-enrollment rounds honestly, corrupt every later checksum —
    /// the device turns cheater mid-life and must be quarantined, never
    /// re-accepted.
    pub compromise_after: Option<u64>,
}

impl Default for DeviceLinkConfig {
    fn default() -> DeviceLinkConfig {
        DeviceLinkConfig {
            connect: Bind::Uds(PathBuf::from("/tmp/sage.sock")),
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            backoff_jitter_ms: 40,
            read_poll: Duration::from_millis(50),
            max_attempts: Some(400),
            compromise_after: None,
        }
    }
}

/// What a [`DeviceLink`] did over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceLinkReport {
    /// Whether enrollment (calibration + SAKE) completed.
    pub enrolled: bool,
    /// Successful `Hello`/`HelloAck` session resumes.
    pub resumes: u64,
    /// Distinct post-enrollment rounds answered (cached re-sends not
    /// counted).
    pub rounds_answered: u64,
    /// Challenges answered from the idempotence cache (re-sent rounds).
    pub cached_replays: u64,
    /// Times the connection was lost after being established.
    pub disconnects: u64,
    /// Full enrollments performed (must stay 1 under chaos — resume,
    /// never re-enroll).
    pub enrollments: u64,
}

/// The device-side endpoint over a real socket: enrolls, answers
/// attestation rounds, heartbeats, and survives link loss by resuming
/// its SAKE session. Runs on its own thread; [`DeviceLink::stop`] joins
/// it and returns the [`DeviceLinkReport`].
pub struct DeviceLink {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<DeviceLinkReport>>,
    name: String,
}

impl DeviceLink {
    /// Spawns the client thread for `member` (its session *is* the
    /// device — checksums run in-thread).
    pub fn spawn(member: FleetMember, group: DhGroup, cfg: DeviceLinkConfig) -> DeviceLink {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let name = member.name.clone();
        let thread_name = format!("sage-dev-{name}");
        let handle = thread::Builder::new()
            .name(thread_name)
            .spawn(move || device_loop(member, group, cfg, flag))
            .expect("spawn device link");
        DeviceLink {
            stop,
            handle: Some(handle),
            name,
        }
    }

    /// The device's fleet name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Signals the client to stop and joins it.
    pub fn stop(mut self) -> DeviceLinkReport {
        self.stop.store(true, Ordering::SeqCst);
        match self.handle.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => DeviceLinkReport::default(),
        }
    }
}

impl Drop for DeviceLink {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Deterministic per-device reconnect delay: exponential in the attempt
/// count, capped, plus seeded jitter keyed by (name, attempt).
pub fn reconnect_backoff(cfg: &DeviceLinkConfig, name: &str, attempt: u32) -> Duration {
    let exp = cfg
        .backoff_base
        .saturating_mul(1u32 << attempt.min(10))
        .min(cfg.backoff_cap);
    exp + Duration::from_millis(seeded_jitter(cfg.backoff_jitter_ms, name, attempt as u64))
}

enum LinkOutcome {
    /// The connection dropped; reconnect after backoff.
    Reconnect,
    /// Stop was requested or attempts exhausted.
    Finished,
}

fn device_loop(
    mut member: FleetMember,
    group: DhGroup,
    cfg: DeviceLinkConfig,
    stop: Arc<AtomicBool>,
) -> DeviceLinkReport {
    let mut report = DeviceLinkReport::default();
    let mut link_key: Option<[u8; 16]> = None;
    // Idempotence cache: last answered round → encoded Response. A
    // challenge re-sent after a resume is answered from here, so the
    // checksum (and the device's deterministic timing sequence) runs
    // exactly once per round regardless of how often the link flaps.
    let mut cached: Option<(u64, Frame)> = None;
    let mut rounds_seen: u64 = 0;
    let mut attempt: u32 = 0;
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some(max) = cfg.max_attempts {
            if attempt >= max {
                break;
            }
        }
        if attempt > 0 || report.disconnects > 0 {
            sleep_interruptible(reconnect_backoff(&cfg, &member.name, attempt), &stop);
            if stop.load(Ordering::Relaxed) {
                break;
            }
        }
        let conn = match connect(&cfg.connect) {
            Ok(c) => c,
            Err(_) => {
                attempt += 1;
                continue;
            }
        };
        let mut stream = FrameStream::new(conn);
        let deadline = Instant::now() + Duration::from_secs(10);
        let nonce = match stream.read_frame_deadline(deadline) {
            Ok(Some(Frame::LinkNonce { nonce })) => nonce,
            _ => {
                attempt += 1;
                continue;
            }
        };
        let established = match link_key {
            None => device_enroll(&mut member, &group, &mut stream, &mut report, &mut link_key),
            Some(key) => device_resume(
                &member.name,
                key,
                nonce,
                rounds_seen,
                &mut stream,
                &mut report,
            ),
        };
        if !established {
            attempt += 1;
            continue;
        }
        match device_steady(
            &mut member,
            &cfg,
            &mut stream,
            &stop,
            &mut cached,
            &mut rounds_seen,
            &mut report,
        ) {
            LinkOutcome::Reconnect => {
                report.disconnects += 1;
                attempt = 1; // first retry waits one base backoff
            }
            LinkOutcome::Finished => break,
        }
    }
    report
}

fn sleep_interruptible(d: Duration, stop: &AtomicBool) {
    let deadline = Instant::now() + d;
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        thread::sleep(Duration::from_millis(5).min(deadline - Instant::now()));
    }
}

/// Runs first-contact enrollment: `Enroll`, then answer calibration
/// challenges and the SAKE flow until a session key exists.
fn device_enroll(
    member: &mut FleetMember,
    group: &DhGroup,
    stream: &mut FrameStream,
    report: &mut DeviceLinkReport,
    link_key_out: &mut Option<[u8; 16]>,
) -> bool {
    if stream
        .write_frame(&Frame::Enroll {
            device: member.name.clone(),
        })
        .is_err()
    {
        return false;
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let frame = match stream.read_frame_deadline(deadline) {
            Ok(Some(f)) => f,
            _ => return false,
        };
        let reply = match frame {
            Frame::Challenge { round, challenges } => {
                match member.session.run_checksum(&challenges) {
                    Ok((checksum, measured)) => Frame::Response {
                        round,
                        checksum,
                        measured_cycles: measured,
                    },
                    Err(_) => return false,
                }
            }
            Frame::Sake(sage::sake::SakeMessage::Challenge { v2 }) => {
                match member
                    .agent
                    .handle_challenge(&mut member.session, group.clone(), v2)
                {
                    Ok((sage::sake::SakeMessage::Commit { w2, mac }, measured)) => {
                        Frame::SakeCommitTimed {
                            w2,
                            mac,
                            measured_cycles: measured,
                        }
                    }
                    _ => return false,
                }
            }
            Frame::Sake(sage::sake::SakeMessage::RevealV1 { v1 }) => {
                match member.agent.handle_reveal_v1(v1) {
                    Ok(msg) => Frame::Sake(msg),
                    Err(_) => return false,
                }
            }
            Frame::Sake(sage::sake::SakeMessage::RevealV0 { v0 }) => {
                match member.agent.handle_reveal_v0(v0) {
                    Ok(msg) => Frame::Sake(msg),
                    Err(_) => return false,
                }
            }
            Frame::Heartbeat { seq, echo: false } => Frame::Heartbeat { seq, echo: true },
            _ => continue,
        };
        let was_reveal0 = matches!(
            reply,
            Frame::Sake(sage::sake::SakeMessage::DeviceReveal0 { .. })
        );
        if stream.write_frame(&reply).is_err() {
            return false;
        }
        if was_reveal0 {
            // SAKE complete on our side: the session key exists.
            let Some(sk) = member.agent.session_key() else {
                return false;
            };
            *link_key_out = Some(link_key(&sk));
            report.enrolled = true;
            report.enrollments += 1;
            return true;
        }
    }
}

/// Runs the `Hello`/`HelloAck` resume handshake against an existing
/// link key; verifies the ack MAC (mutual authentication).
fn device_resume(
    name: &str,
    key: [u8; 16],
    nonce: [u8; 16],
    resume_from: u64,
    stream: &mut FrameStream,
    report: &mut DeviceLinkReport,
) -> bool {
    let hello = Frame::Hello {
        device: name.to_string(),
        nonce,
        resume_from,
        mac: hello_mac(&key, name, &nonce, resume_from),
    };
    if stream.write_frame(&hello).is_err() {
        return false;
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    match stream.read_frame_deadline(deadline) {
        Ok(Some(Frame::HelloAck { nonce: n, mac })) => {
            let ok = n == nonce && mac == hello_ack_mac(&key, name, &nonce, resume_from);
            if ok {
                report.resumes += 1;
            }
            ok
        }
        _ => false,
    }
}

/// Steady-state loop: answer challenges (idempotently), echo
/// heartbeats, until the link drops or stop is requested.
fn device_steady(
    member: &mut FleetMember,
    cfg: &DeviceLinkConfig,
    stream: &mut FrameStream,
    stop: &AtomicBool,
    cached: &mut Option<(u64, Frame)>,
    rounds_seen: &mut u64,
    report: &mut DeviceLinkReport,
) -> LinkOutcome {
    let _ = stream.conn().set_read_timeout(Some(cfg.read_poll));
    loop {
        if stop.load(Ordering::Relaxed) {
            return LinkOutcome::Finished;
        }
        match stream.read_frame() {
            Ok(Some(Frame::Challenge { round, challenges })) => {
                let reply = match cached {
                    Some((r, frame)) if *r == round => {
                        report.cached_replays += 1;
                        frame.clone()
                    }
                    _ => {
                        let Ok((mut checksum, measured)) = member.session.run_checksum(&challenges)
                        else {
                            return LinkOutcome::Finished;
                        };
                        *rounds_seen += 1;
                        report.rounds_answered += 1;
                        if cfg.compromise_after.is_some_and(|n| *rounds_seen > n) {
                            // The cheating turn: corrupt the checksum.
                            checksum[0] ^= 0xDEAD_BEEF;
                        }
                        let frame = Frame::Response {
                            round,
                            checksum,
                            measured_cycles: measured,
                        };
                        *cached = Some((round, frame.clone()));
                        frame
                    }
                };
                if stream.write_frame(&reply).is_err() {
                    return LinkOutcome::Reconnect;
                }
            }
            Ok(Some(Frame::Heartbeat { seq, echo: false })) => {
                if stream
                    .write_frame(&Frame::Heartbeat { seq, echo: true })
                    .is_err()
                {
                    return LinkOutcome::Reconnect;
                }
            }
            Ok(Some(_)) => {}
            Ok(None) => {}
            Err(_) => return LinkOutcome::Reconnect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (FrameStream, FrameStream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        (
            FrameStream::new(Conn::Unix(a)),
            FrameStream::new(Conn::Unix(b)),
        )
    }

    #[test]
    fn frames_roundtrip_over_socketpair() {
        let (mut tx, mut rx) = pair();
        let frame = Frame::Challenge {
            round: 9,
            challenges: vec![[7; 16]; 3],
        };
        tx.write_frame(&frame).unwrap();
        rx.conn()
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(rx.read_frame().unwrap(), Some(frame));
    }

    #[test]
    fn torn_writes_reassemble() {
        let (tx, mut rx) = pair();
        let frame = Frame::Response {
            round: 4,
            checksum: [1, 2, 3, 4, 5, 6, 7, 8],
            measured_cycles: 77,
        };
        let bytes = wire::encode(&frame);
        let mut msg = (bytes.len() as u32).to_le_bytes().to_vec();
        msg.extend_from_slice(&bytes);
        let mut conn = tx.try_clone_conn().unwrap();
        // Dribble the frame one byte at a time — including a torn
        // length prefix — from another thread.
        let writer = thread::spawn(move || {
            for b in msg {
                conn.write_all(&[b]).unwrap();
                conn.flush().unwrap();
            }
        });
        rx.conn()
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let got = loop {
            match rx.read_frame().unwrap() {
                Some(f) => break f,
                None => continue,
            }
        };
        writer.join().unwrap();
        assert_eq!(got, frame);
    }

    #[test]
    fn oversize_prefix_rejected_before_allocation() {
        let (tx, mut rx) = pair();
        let mut conn = tx.try_clone_conn().unwrap();
        conn.write_all(&(MAX_FRAME_BYTES + 1).to_le_bytes())
            .unwrap();
        rx.conn()
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        assert!(matches!(rx.read_frame(), Err(StreamError::Oversize(_))));
    }

    #[test]
    fn eof_is_closed_and_garbage_is_codec_error() {
        let (tx, mut rx) = pair();
        drop(tx);
        rx.conn()
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(rx.read_frame(), Err(StreamError::Closed));

        let (tx, mut rx) = pair();
        let mut conn = tx.try_clone_conn().unwrap();
        // A plausible length prefix followed by garbage bytes.
        conn.write_all(&8u32.to_le_bytes()).unwrap();
        conn.write_all(&[0xAA; 8]).unwrap();
        rx.conn()
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        assert!(matches!(rx.read_frame(), Err(StreamError::Codec(_))));
    }

    #[test]
    fn hello_macs_are_distinct_and_verify() {
        let key = [9u8; 16];
        let nonce = [3u8; 16];
        let h = hello_mac(&key, "gpu-1", &nonce, 5);
        let a = hello_ack_mac(&key, "gpu-1", &nonce, 5);
        assert_ne!(h, a, "hello and ack must use distinct labels");
        assert_ne!(
            h,
            hello_mac(&key, "gpu-2", &nonce, 5),
            "mac must bind the device name"
        );
        assert_ne!(
            h,
            hello_mac(&key, "gpu-1", &nonce, 6),
            "mac must bind the resume sequence"
        );
    }

    #[test]
    fn reconnect_backoff_grows_and_desynchronizes() {
        let cfg = DeviceLinkConfig::default();
        let a1 = reconnect_backoff(&cfg, "gpu-a", 1);
        let a4 = reconnect_backoff(&cfg, "gpu-a", 4);
        assert!(a4 > a1, "backoff must grow with attempts");
        let cap = reconnect_backoff(&cfg, "gpu-a", 30);
        assert!(cap <= cfg.backoff_cap + Duration::from_millis(cfg.backoff_jitter_ms));
        // Two devices recovering from the same outage must not share a
        // retry schedule.
        let schedule = |name: &str| {
            (0..6)
                .map(|i| reconnect_backoff(&cfg, name, i))
                .collect::<Vec<_>>()
        };
        assert_ne!(schedule("gpu-a"), schedule("gpu-b"));
    }
}
