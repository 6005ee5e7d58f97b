//! The benchmark's own load generator.
//!
//! Request frames are encoded during set-up. The hot path writes those bytes
//! and, for each reply, reads the raw frame, finds its `id` and takes a
//! timestamp; replies are decoded and compared with the expected answers
//! only after the trial's clock has stopped (`Trial::replies`).
//!
//! * Closed loop: each connection keeps a fixed window of requests in
//!   flight and sends the next one when a reply arrives.
//! * Open loop: one sender thread follows a seeded Poisson timetable
//!   whatever the server does, one receiver thread takes the replies, and a
//!   request's latency runs from the time it was *due*, so a stalled sender
//!   or server charges the wait to every request it delayed.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a connection waits for a reply before the trial gives the
/// outstanding requests up as lost.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// splitmix64: the harness's own generator, so inputs depend on `--seed`
/// alone and not on any crate of the program under test.
#[derive(Debug, Clone)]
pub struct Prng(u64);

impl Prng {
    pub fn new(seed: u64) -> Prng {
        Prng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Due times, in nanoseconds from the trial's start, of `rate * seconds`
/// Poisson arrivals over `seconds`: exponential gaps, rescaled so that the
/// arrivals exactly fill the interval. Conditioning on the count keeps the
/// process Poisson and makes the offered rate the same for every seed.
pub fn poisson_timetable(rate: f64, seconds: f64, prng: &mut Prng) -> Vec<u64> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut t = 0.0f64;
    let mut times: Vec<f64> = (0..n)
        .map(|_| {
            t += -prng.unit().ln();
            t
        })
        .collect();
    // One more gap closes the interval, so the last arrival is not at its end.
    t += -prng.unit().ln();
    for x in &mut times {
        *x *= seconds / t;
    }
    times.into_iter().map(|x| (x * 1e9) as u64).collect()
}

/// Latency of a reply received at `received_ns` for a request due at
/// `due_ns` (both from the trial's start). The send time plays no part.
pub fn due_time_latency_ns(due_ns: u64, received_ns: u64) -> u64 {
    received_ns.saturating_sub(due_ns)
}

/// Finds the `"id"` member of a compact response body without parsing it.
pub fn extract_id(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"id\"";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let rest = &body[at..];
    let digits_at = rest.iter().position(|b| b.is_ascii_digit())?;
    if !rest[..digits_at].iter().all(|&b| b == b':' || b == b' ') {
        return None;
    }
    let mut id = 0u64;
    for &b in rest[digits_at..].iter().take_while(|b| b.is_ascii_digit()) {
        id = id.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    Some(id)
}

/// Reads length-prefixed frames from a stream through one reusable buffer,
/// so one `read` may deliver several replies.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    fn new(stream: TcpStream) -> FrameReader {
        FrameReader {
            stream,
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
        }
    }

    /// The next frame's body. Blocks until it is complete.
    fn next_frame(&mut self) -> io::Result<&[u8]> {
        loop {
            let have = self.end - self.start;
            if have >= 4 {
                let len = u32::from_be_bytes(
                    self.buf[self.start..self.start + 4]
                        .try_into()
                        .expect("4 bytes"),
                ) as usize;
                if len > 1 << 20 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "reply frame over 1 MiB",
                    ));
                }
                if have >= 4 + len {
                    let body = self.start + 4..self.start + 4 + len;
                    self.start = body.end;
                    return Ok(&self.buf[body]);
                }
                if self.buf.len() < 4 + len {
                    self.buf.resize(4 + len, 0);
                }
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            let n = self.stream.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.end += n;
        }
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(stream)
}

/// Sends one control frame (`stats`) on a fresh connection and returns the
/// reply body.
pub fn round_trip(addr: SocketAddr, frame: &[u8]) -> io::Result<Vec<u8>> {
    let mut stream = connect(addr)?;
    stream.write_all(frame)?;
    let mut reader = FrameReader::new(stream);
    reader.next_frame().map(<[u8]>::to_vec)
}

/// What one trial observed. Request `i` of the trial is `frames[i]`, whose
/// encoded id is `i`.
pub struct Trial {
    /// Wall time from the first send to the last reply.
    pub wall_s: f64,
    /// Per request: reply time minus send time (closed loop) or minus due
    /// time (open loop), in ns; `None` when no reply came.
    pub latency_ns: Vec<Option<u64>>,
    /// Per request: how late the sender wrote it against the timetable (open
    /// loop only; empty for a closed loop).
    pub lag_ns: Vec<u64>,
    /// Raw reply bodies in arrival order, for decoding after the clock stops.
    pub replies: Vec<Vec<u8>>,
    /// Replies whose id was unreadable, out of range or seen before.
    pub stray_replies: u64,
}

impl Trial {
    fn new(requests: usize) -> Trial {
        Trial {
            wall_s: 0.0,
            latency_ns: vec![None; requests],
            lag_ns: Vec::new(),
            replies: Vec::with_capacity(requests),
            stray_replies: 0,
        }
    }

    /// Books one reply body received at `now_ns`; `since_ns(id)` is the
    /// instant that request's latency runs from.
    fn book(&mut self, body: &[u8], now_ns: u64, since_ns: impl Fn(usize) -> u64) {
        match extract_id(body).map(|id| id as usize) {
            Some(id) if id < self.latency_ns.len() && self.latency_ns[id].is_none() => {
                self.latency_ns[id] = Some(due_time_latency_ns(since_ns(id), now_ns));
            }
            _ => self.stray_replies += 1,
        }
        self.replies.push(body.to_vec());
    }

    fn merge(&mut self, other: Trial) {
        for (mine, theirs) in self.latency_ns.iter_mut().zip(other.latency_ns) {
            if theirs.is_some() {
                *mine = theirs;
            }
        }
        self.replies.extend(other.replies);
        self.stray_replies += other.stray_replies;
        self.wall_s = self.wall_s.max(other.wall_s);
    }
}

/// Closed-loop trial: `connections` connections, each keeping `window`
/// requests in flight; request `i` goes to connection `i % connections`.
pub fn closed_loop(
    addr: SocketAddr,
    frames: &[Vec<u8>],
    connections: usize,
    window: usize,
) -> io::Result<Trial> {
    let streams: Vec<TcpStream> = (0..connections)
        .map(|_| connect(addr))
        .collect::<io::Result<_>>()?;
    let epoch = Instant::now();
    let parts: Vec<io::Result<Trial>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || {
                    let mine: Vec<usize> = (c..frames.len()).step_by(connections).collect();
                    closed_connection(stream, frames, &mine, window, epoch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    let mut trial = Trial::new(frames.len());
    for part in parts {
        trial.merge(part?);
    }
    Ok(trial)
}

fn closed_connection(
    mut stream: TcpStream,
    frames: &[Vec<u8>],
    mine: &[usize],
    window: usize,
    epoch: Instant,
) -> io::Result<Trial> {
    let mut reader = FrameReader::new(stream.try_clone()?);
    let mut trial = Trial::new(frames.len());
    let mut sent_ns = vec![0u64; frames.len()];
    let mut out = Vec::with_capacity(window * 256);
    let (mut next, mut done) = (0usize, 0usize);
    while done < mine.len() {
        // Top the window up with one write, then take one reply.
        out.clear();
        let now = epoch.elapsed().as_nanos() as u64;
        while next < mine.len() && next - done < window {
            out.extend_from_slice(&frames[mine[next]]);
            sent_ns[mine[next]] = now;
            next += 1;
        }
        if !out.is_empty() {
            stream.write_all(&out)?;
        }
        match reader.next_frame() {
            Ok(body) => {
                let now = epoch.elapsed().as_nanos() as u64;
                trial.book(body, now, |id| sent_ns[id]);
            }
            // Lost replies are counted by the caller, not fatal here.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(e) => return Err(e),
        }
        done += 1;
    }
    trial.wall_s = epoch.elapsed().as_secs_f64();
    Ok(trial)
}

/// Open-loop trial on one connection: request `i` is written when
/// `due_ns[i]` arrives, whatever has or has not been answered.
pub fn open_loop(addr: SocketAddr, frames: &[Vec<u8>], due_ns: &[u64]) -> io::Result<Trial> {
    assert_eq!(frames.len(), due_ns.len(), "one due time per request");
    let mut stream = connect(addr)?;
    let mut reader = FrameReader::new(stream.try_clone()?);
    let epoch = Instant::now();
    let (lag, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<Vec<u64>> {
            let mut lag = Vec::with_capacity(frames.len());
            for (frame, &due) in frames.iter().zip(due_ns) {
                wait_until(epoch, due);
                stream.write_all(frame)?;
                lag.push((epoch.elapsed().as_nanos() as u64).saturating_sub(due));
            }
            Ok(lag)
        });
        let receiver = scope.spawn(move || -> io::Result<Trial> {
            let mut trial = Trial::new(frames.len());
            for _ in 0..frames.len() {
                match reader.next_frame() {
                    Ok(body) => {
                        let now = epoch.elapsed().as_nanos() as u64;
                        trial.book(body, now, |id| due_ns[id]);
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        break
                    }
                    Err(e) => return Err(e),
                }
            }
            trial.wall_s = epoch.elapsed().as_secs_f64();
            Ok(trial)
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let mut trial = received?;
    trial.lag_ns = lag?;
    Ok(trial)
}

/// Sleeps until shortly before `due_ns` after `epoch`, then spins: a sleep
/// alone overshoots by the timer slack (~60 µs), spinning alone would take a
/// core from the server.
fn wait_until(epoch: Instant, due_ns: u64) {
    const SPIN_NS: u64 = 150_000;
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return;
        }
        if due_ns - now > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(due_ns - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timetable_is_seeded_ordered_and_has_the_rate() {
        let a = poisson_timetable(2_000.0, 5.0, &mut Prng::new(7));
        let b = poisson_timetable(2_000.0, 5.0, &mut Prng::new(7));
        let c = poisson_timetable(2_000.0, 5.0, &mut Prng::new(8));
        assert_eq!(a, b, "same seed, same timetable");
        assert_ne!(a, c, "another seed, another timetable");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(*a.last().unwrap() < 5_000_000_000);
        assert_eq!(a.len(), 10_000, "the offered rate is exact");
        // Exponential gaps: the mean equals the standard deviation.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.05,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn latency_runs_from_the_due_time_not_the_send_time() {
        // Due at 1 ms, sent late at 4 ms, answered at 6 ms: 5 ms, not 2 ms.
        assert_eq!(due_time_latency_ns(1_000_000, 6_000_000), 5_000_000);
        assert_eq!(due_time_latency_ns(6_000_000, 1_000_000), 0);
        let mut trial = Trial::new(2);
        let due = [1_000_000u64, 2_000_000];
        trial.book(br#"{"id":1,"status":"ok"}"#, 9_000_000, |id| due[id]);
        assert_eq!(trial.latency_ns, vec![None, Some(7_000_000)]);
        // A duplicate and an out-of-range id are strays, not latencies.
        trial.book(br#"{"id":1,"status":"ok"}"#, 9_500_000, |id| due[id]);
        trial.book(br#"{"id":5,"status":"ok"}"#, 9_600_000, |id| due[id]);
        assert_eq!(trial.stray_replies, 2);
        assert_eq!(trial.replies.len(), 3);
    }

    #[test]
    fn id_is_found_without_parsing() {
        assert_eq!(
            extract_id(br#"{"id":42,"status":"ok","mapped":true}"#),
            Some(42)
        );
        assert_eq!(extract_id(br#"{"status":"ok", "id": 7}"#), Some(7));
        assert_eq!(extract_id(br#"{"status":"ok"}"#), None);
        assert_eq!(extract_id(br#"{"id":"x7"}"#), None);
    }

    #[test]
    fn frame_reader_splits_coalesced_and_partial_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut bytes = Vec::new();
            for body in [&b"first"[..], b"second", b"3"] {
                bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
                bytes.extend_from_slice(body);
            }
            // Two and a half frames, then the rest.
            s.write_all(&bytes[..17]).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            s.write_all(&bytes[17..]).unwrap();
        });
        let mut reader = FrameReader::new(TcpStream::connect(addr).unwrap());
        assert_eq!(reader.next_frame().unwrap(), b"first");
        assert_eq!(reader.next_frame().unwrap(), b"second");
        assert_eq!(reader.next_frame().unwrap(), b"3");
        writer.join().unwrap();
        assert_eq!(
            reader.next_frame().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }
}
