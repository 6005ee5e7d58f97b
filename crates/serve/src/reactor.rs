//! The connection frontend: one thread, `poll(2)`, 10k+ sockets.
//!
//! A million-user deployment holds most connections *idle*, and an idle
//! connection must not cost a thread. So the server has exactly one door,
//! a single **readiness reactor** thread that owns the listener and every
//! client socket:
//!
//! * every client socket is nonblocking and registered with `poll(2)`
//!   (declared directly against libc, the same std-only shim pattern as
//!   `signal.rs` — std already links libc on Unix);
//! * a per-connection state machine reassembles length-prefixed frames
//!   from partial reads, hands each complete frame to
//!   `handle_request` inline (decode, admission, shed and `stats`
//!   answers all run on this thread) and drains buffered responses on
//!   writability;
//! * workers never touch sockets: they enqueue the encoded response on
//!   the connection's output buffer (`ReactorConn`) and tickle the
//!   reactor through a self-pipe waker, so the poll loop wakes and
//!   flushes.
//!
//! N idle connections cost one `pollfd` each, not N parked threads
//! (measured in PR 8, record cited in DESIGN.md §14: 9.5k idle sockets at
//! 5 threads / 31 MB, against 2k sockets at 2 005 threads / 45 MB for the
//! thread-per-connection frontend this replaced). Being the only door also makes this thread a
//! single point of failure, so nothing here may panic on wire-derived
//! bytes: frames are bounded before they are buffered, and every decode
//! failure is an `error` answer, never an `unwrap`.
//!
//! ```text
//!            ┌────────────────── reactor thread ──────────────────┐
//! accept ───▶│ poll([waker, listener, conns…]) ─▶ read ─▶ frames │──▶ admission
//!            │        ▲                            ─▶ flush out   │      queue
//!            └────────┼───────────────────────────────────────────┘
//!                     └── self-pipe wake ◀── workers enqueue response
//! ```

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nvwa_telemetry::JsonValue;

use crate::admission::handle_request;
use crate::lock;
use crate::metrics::{Event, ServeMetrics};
use crate::protocol::{write_frame, AlignResponse, Status, MAX_FRAME_BYTES};
use crate::server::Shared;

// ---------------------------------------------------------------------------
// poll(2) shim — std exposes no readiness API; declare the symbol directly.
// On 64-bit Linux `nfds_t` is `unsigned long` (= usize) and the struct
// layout below matches `struct pollfd` exactly.

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: usize, timeout: i32) -> i32;
}

/// `poll(2)` riding out `EINTR`.
fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

// ---------------------------------------------------------------------------
// rlimit shim — the 10k-idle-connection scenarios need more file
// descriptors than the usual 1024 soft limit.

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: i32 = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: i32 = 8;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Raises the process's open-file limit towards `want` descriptors and
/// returns the soft limit actually in effect afterwards. Best-effort:
/// unprivileged processes are clamped to their hard limit.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.cur >= want {
        return lim.cur;
    }
    // Try for the full ask (root may raise the hard limit too), then fall
    // back to the existing hard limit.
    let tries = [
        RLimit {
            cur: want,
            max: want.max(lim.max),
        },
        RLimit {
            cur: want.min(lim.max),
            max: lim.max,
        },
    ];
    for t in &tries {
        if unsafe { setrlimit(RLIMIT_NOFILE, t) } == 0 {
            return t.cur;
        }
    }
    lim.cur
}

// ---------------------------------------------------------------------------
// Waker: a nonblocking socketpair; writers poke one byte, the poll loop
// observes POLLIN and drains.

struct Waker {
    tx: UnixStream,
}

impl Waker {
    fn wake(&self) {
        // A full pipe means a wake is already pending — dropping the byte
        // is exactly the coalescing we want.
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// Output side of one reactor connection: workers (and the dispatch path)
/// enqueue encoded frames here; the reactor thread flushes them when the
/// socket is writable.
pub(crate) struct ReactorConn {
    /// Accept-order connection id (span-chain and flight-event operand).
    id: u64,
    out: Mutex<OutBuf>,
    /// Requests dispatched minus responses enqueued — the connection is
    /// retired only when this reaches zero (every request is answered
    /// exactly once, even if the client half-closed early).
    in_flight: AtomicU64,
    waker: Arc<Waker>,
}

struct OutBuf {
    buf: Vec<u8>,
    /// Set when the socket died; further sends fail fast.
    dead: bool,
}

impl ReactorConn {
    /// Enqueues one response frame and wakes the reactor to flush it.
    pub(crate) fn send(&self, doc: &JsonValue) -> std::io::Result<()> {
        let mut out = lock(&self.out);
        // One response per dispatched request, success or not.
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        if out.dead {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "connection closed",
            ));
        }
        write_frame(&mut out.buf, doc)?;
        drop(out);
        self.waker.wake();
        Ok(())
    }

    pub(crate) fn conn_id(&self) -> u64 {
        self.id
    }
}

/// Per-connection reactor state: the socket, its frame-reassembly buffer
/// and lifecycle flags. The output buffer lives in the shared
/// [`ReactorConn`] so worker threads can reach it.
struct Conn {
    stream: TcpStream,
    sink: Arc<ReactorConn>,
    inbuf: Vec<u8>,
    /// Clean EOF (or fatal parse error) on the read side; the connection
    /// stays registered until buffered + in-flight responses are out.
    read_closed: bool,
    /// Fatal socket error; retire as soon as observed.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, id: u64, waker: Arc<Waker>) -> Conn {
        Conn {
            stream,
            sink: Arc::new(ReactorConn {
                id,
                out: Mutex::new(OutBuf {
                    buf: Vec::new(),
                    dead: false,
                }),
                in_flight: AtomicU64::new(0),
                waker,
            }),
            inbuf: Vec::new(),
            read_closed: false,
            dead: false,
        }
    }

    fn pending_out(&self) -> bool {
        let out = lock(&self.sink.out);
        !out.buf.is_empty()
    }

    fn in_flight(&self) -> u64 {
        self.sink.in_flight.load(Ordering::Acquire)
    }

    /// Writes as much buffered output as the socket accepts right now.
    fn flush(&mut self, metrics: &ServeMetrics) {
        let mut out = lock(&self.sink.out);
        while !out.buf.is_empty() {
            match self.stream.write(&out.buf) {
                Ok(0) => break,
                Ok(n) => {
                    out.buf.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Unflushed responses are lost with the socket.
                    if !out.buf.is_empty() {
                        metrics.record(Event::WriteError);
                    }
                    out.buf.clear();
                    out.dead = true;
                    self.dead = true;
                    break;
                }
            }
        }
    }

    /// Whether the connection has nothing left to do and can be retired.
    fn retired(&self) -> bool {
        self.dead || (self.read_closed && self.in_flight() == 0 && !self.pending_out())
    }
}

/// How long the poll loop sleeps when nothing is ready (also the shutdown
/// observation latency).
const POLL_TIMEOUT_MS: i32 = 20;

/// Hard ceiling on the post-shutdown flush (a stuck client must not wedge
/// [`crate::server::Server::shutdown`]).
const FINAL_FLUSH_BUDGET: Duration = Duration::from_secs(5);

/// The reactor thread body: owns the listener and every client socket.
/// Exits when `shared.closed` is set, after a bounded final flush.
pub(crate) fn reactor_loop(listener: TcpListener, shared: Arc<Shared>) {
    let (wake_rx, wake_tx) = match UnixStream::pair() {
        Ok((rx, tx)) => (rx, tx),
        Err(_) => return,
    };
    let _ = wake_rx.set_nonblocking(true);
    let _ = wake_tx.set_nonblocking(true);
    let waker = Arc::new(Waker { tx: wake_tx });
    let mut conns: Vec<Conn> = Vec::new();
    let mut pollfds: Vec<PollFd> = Vec::new();
    let mut revents: Vec<i16> = Vec::new();
    let mut scratch = [0u8; 16 * 1024];

    loop {
        if shared.closed.load(Ordering::Relaxed) {
            close(&mut conns, &shared, &mut scratch);
            return;
        }
        let draining = shared.draining.load(Ordering::Relaxed);

        pollfds.clear();
        pollfds.push(PollFd {
            fd: wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        let listener_slot = (!draining).then(|| {
            pollfds.push(PollFd {
                fd: listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            pollfds.len() - 1
        });
        let conn_base = pollfds.len();
        for conn in &conns {
            let mut events = 0;
            if !conn.read_closed {
                events |= POLLIN;
            }
            if conn.pending_out() {
                events |= POLLOUT;
            }
            pollfds.push(PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        if poll_fds(&mut pollfds, POLL_TIMEOUT_MS).is_err() {
            // EINVAL and friends — back off rather than spin.
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }

        // Snapshot revents before mutating `conns` (indices must stay
        // aligned while we service).
        if pollfds[0].revents & POLLIN != 0 {
            while matches!((&wake_rx).read(&mut scratch), Ok(n) if n > 0) {}
        }
        if let Some(slot) = listener_slot {
            if pollfds[slot].revents & POLLIN != 0 {
                accept_ready(&listener, &shared, &waker, &mut conns);
            }
        }
        revents.clear();
        revents.extend(pollfds[conn_base..].iter().map(|p| p.revents));

        for (conn, &ev) in conns.iter_mut().zip(&revents) {
            if ev & (POLLERR | POLLNVAL) != 0 {
                conn.dead = true;
                let mut out = lock(&conn.sink.out);
                if !out.buf.is_empty() {
                    shared.metrics.record(Event::WriteError);
                }
                out.dead = true;
                continue;
            }
            if ev & (POLLIN | POLLHUP) != 0 && !conn.read_closed {
                service_read(conn, &shared, &mut scratch);
            }
            // Flush opportunistically: after servicing reads (responses may
            // already be queued — shed/stats answer inline) and on POLLOUT.
            if conn.pending_out() {
                conn.flush(&shared.metrics);
            }
        }
        // Newly accepted connections may carry data before their first
        // poll round; they are picked up next iteration (≤ 20 ms).
        conns.retain(|c| !c.retired());
    }
}

/// Accepts until the listener would block.
fn accept_ready(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    waker: &Arc<Waker>,
    conns: &mut Vec<Conn>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
                shared.metrics.record(Event::Connection);
                conns.push(Conn::new(stream, id, Arc::clone(waker)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Reads whatever the socket has, then dispatches every complete frame.
fn service_read(conn: &mut Conn, shared: &Arc<Shared>, scratch: &mut [u8]) {
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => conn.inbuf.extend_from_slice(&scratch[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    // Frame reassembly: 4-byte big-endian length + body, repeated.
    loop {
        if conn.inbuf.len() < 4 {
            break;
        }
        let len = u32::from_be_bytes([conn.inbuf[0], conn.inbuf[1], conn.inbuf[2], conn.inbuf[3]])
            as usize;
        if len > MAX_FRAME_BYTES {
            protocol_failure(
                conn,
                shared,
                &format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
            );
            return;
        }
        if conn.inbuf.len() < 4 + len {
            break;
        }
        let body: Vec<u8> = conn.inbuf.drain(..4 + len).skip(4).collect();
        let doc = match String::from_utf8(body)
            .map_err(|e| e.to_string())
            .and_then(|text| JsonValue::parse(&text))
        {
            Ok(doc) => doc,
            Err(e) => {
                protocol_failure(conn, shared, &e);
                return;
            }
        };
        // One request in flight; its response (through the sink) settles it.
        conn.sink.in_flight.fetch_add(1, Ordering::AcqRel);
        handle_request(shared, &conn.sink, &doc);
    }
    if conn.read_closed && !conn.inbuf.is_empty() {
        // EOF mid-frame: the request was never accepted, so nothing is
        // answered, but the truncated frame is a protocol error.
        shared.metrics.record(Event::ProtocolError);
        conn.inbuf.clear();
    }
}

/// Frame-level failure: answer `error` and close once it is flushed —
/// framing may be lost, so nothing after it on this connection is read.
fn protocol_failure(conn: &mut Conn, shared: &Arc<Shared>, msg: &str) {
    shared.metrics.record(Event::ProtocolError);
    let resp = AlignResponse::failure(0, Status::Error, msg);
    conn.sink.in_flight.fetch_add(1, Ordering::AcqRel);
    let _ = conn.sink.send(&resp.encode());
    conn.inbuf.clear();
    conn.read_closed = true;
}

/// Once the workers have joined: a last non-blocking read of every open
/// connection, so that each frame the kernel took after the reactor last
/// read gets its answer — `shed` for an align request, as admission
/// answers everything while draining — and a trailing partial frame counts
/// as a protocol error; then the final flush.
fn close(conns: &mut [Conn], shared: &Arc<Shared>, scratch: &mut [u8]) {
    for conn in conns.iter_mut().filter(|c| !c.read_closed && !c.dead) {
        service_read(conn, shared, scratch);
        if !conn.inbuf.is_empty() {
            shared.metrics.record(Event::ProtocolError);
        }
    }
    final_flush(conns, shared);
}

/// Post-shutdown flush: all workers have joined, so every response is
/// already buffered — push the bytes out with a hard deadline.
fn final_flush(conns: &mut [Conn], shared: &Arc<Shared>) {
    let deadline = Instant::now() + FINAL_FLUSH_BUDGET;
    for conn in conns.iter_mut() {
        let _ = conn.stream.set_nonblocking(false);
        let _ = conn
            .stream
            .set_write_timeout(Some(Duration::from_millis(200)));
        while conn.pending_out() && !conn.dead && Instant::now() < deadline {
            conn.flush(&shared.metrics);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::Shutdown;
    use std::sync::atomic::AtomicBool;

    use super::*;
    use crate::protocol::{read_frame, Mode, Request};
    use crate::server::ServerConfig;

    /// A drained server's shared state: no engine, and `draining` and
    /// `closed` set, as [`crate::server::Server::shutdown`] leaves them
    /// once the workers have joined.
    fn closed_server() -> Arc<Shared> {
        Arc::new(Shared {
            engines: Vec::new(),
            tenants: Vec::new(),
            metrics: Arc::new(ServeMetrics::new(1, 1, &[], false, None)),
            config: ServerConfig::default(),
            batch_seq: AtomicU64::new(0),
            trace_seq: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            draining: AtomicBool::new(true),
            closed: AtomicBool::new(true),
            shutdown_requested: AtomicBool::new(false),
        })
    }

    #[test]
    fn close_answers_every_frame_sent_after_the_last_read() {
        let shared = closed_server();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (_wake_rx, wake_tx) = UnixStream::pair().unwrap();
        let waker = Arc::new(Waker { tx: wake_tx });
        let mut clients = Vec::new();
        let mut conns = Vec::new();
        for id in 0..3 {
            clients.push(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
            let (stream, _) = listener.accept().unwrap();
            stream.set_nonblocking(true).unwrap();
            conns.push(Conn::new(stream, id, Arc::clone(&waker)));
        }
        // Written after `closed` was set, so never read by the poll loop:
        // four align frames per connection; the second connection then
        // half-closes with its frames unread, the third leaves a partial
        // frame behind its complete ones.
        let mut sent = Vec::new();
        for (c, client) in clients.iter_mut().enumerate() {
            let mut bytes = Vec::new();
            for k in 0..4 {
                let request = Request::Align {
                    id: (10 * c + k) as u64,
                    codes: vec![0, 1, 2, 3],
                    deadline_ms: None,
                    tenant: None,
                    region: None,
                    mode: Mode::Short,
                };
                write_frame(&mut bytes, &request.encode()).unwrap();
            }
            if c == 2 {
                bytes.extend_from_slice(&100u32.to_be_bytes());
                bytes.extend_from_slice(b"{\"id\"");
            }
            client.write_all(&bytes).unwrap();
            sent.push(bytes.len());
        }
        clients[1].shutdown(Shutdown::Write).unwrap();
        // Every byte (and the half-close) is in the server sockets' buffers.
        for (conn, want) in conns.iter().zip(sent) {
            let mut peek = vec![0u8; 1024];
            let deadline = Instant::now() + Duration::from_secs(10);
            while conn.stream.peek(&mut peek).unwrap_or(0) < want {
                assert!(Instant::now() < deadline, "bytes never arrived");
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        let mut scratch = [0u8; 1024];
        close(&mut conns, &shared, &mut scratch);
        drop(conns);

        for (c, client) in clients.iter_mut().enumerate() {
            let mut ids = Vec::new();
            while let Some(doc) = read_frame(client).unwrap() {
                let resp = AlignResponse::decode(&doc).unwrap();
                assert_eq!(resp.status, Status::Shed, "{resp:?}");
                assert_eq!(resp.error.as_deref(), Some("server draining"));
                ids.push(resp.id);
            }
            let sent: Vec<u64> = (0..4).map(|k| (10 * c + k) as u64).collect();
            assert_eq!(ids, sent, "connection {c}: one answer per frame");
        }
        assert_eq!(shared.metrics.counter("serve.requests_shed"), 12);
        assert_eq!(shared.metrics.counter("serve.protocol_errors"), 1);
    }

    #[test]
    fn nofile_limit_is_reported_and_monotonic() {
        let before = raise_nofile_limit(0);
        assert!(before > 0, "getrlimit must report a live limit");
        let after = raise_nofile_limit(before);
        assert!(after >= before);
    }

    #[test]
    fn waker_coalesces_and_drains() {
        let (rx, tx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        tx.set_nonblocking(true).unwrap();
        let waker = Waker { tx };
        for _ in 0..10_000 {
            waker.wake(); // must never block, even with no reader
        }
        let mut buf = [0u8; 4096];
        let mut drained = 0usize;
        while let Ok(n) = (&rx).read(&mut buf) {
            if n == 0 {
                break;
            }
            drained += n;
        }
        assert!(drained > 0);
    }
}
