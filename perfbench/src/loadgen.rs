//! Open-loop load over pipelined connections.
//!
//! Every request has a due time on a schedule fixed before the phase
//! starts. One thread per connection writes each frame when it falls due,
//! whether or not earlier replies have arrived, and reads replies as they
//! come; the server answers each connection in order. Latency is counted
//! from the due time, so a stall in the server also delays the requests
//! queued behind it, and the generator's own lateness (send time minus due
//! time) is recorded to tell a slow server from a generator that fell
//! behind.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Offset of the due time from the start of the phase.
    pub due: Duration,
    /// Connection (0 or 1) that carries it.
    pub conn: usize,
    /// Request frame, without the trailing newline.
    pub frame: Arc<str>,
}

/// What happened to one request; times are seconds from the phase start.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub due_s: f64,
    pub sent_s: f64,
    /// Reply time; `None` when no reply arrived before the drain limit.
    pub done_s: Option<f64>,
    pub reply: Option<String>,
}

impl Outcome {
    /// Milliseconds from the due time to the reply, `∞` without a reply.
    pub fn latency_ms(&self) -> f64 {
        self.done_s
            .map_or(f64::INFINITY, |d| (d - self.due_s) * 1e3)
    }

    /// Milliseconds the generator sent the request after it fell due.
    pub fn late_ms(&self) -> f64 {
        (self.sent_s - self.due_s) * 1e3
    }
}

/// A client connection with its unread bytes.
pub struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            pending: Vec::new(),
        })
    }
}

/// Run `plan` over `conns` and return one outcome per planned request.
/// Requests still unanswered `drain` after the last due time are left
/// without a reply; the connection that carried them is then out of step
/// and is replaced with a fresh one.
pub fn drive(
    addr: SocketAddr,
    conns: &mut [Conn],
    plan: &[Planned],
    drain: Duration,
) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = plan
        .iter()
        .map(|p| Outcome {
            due_s: p.due.as_secs_f64(),
            ..Outcome::default()
        })
        .collect();
    let start = Instant::now();
    let last_due = plan.iter().map(|p| p.due).max().unwrap_or_default();
    let stop = last_due + drain;
    let mut poisoned = vec![false; conns.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mut mine: Vec<usize> = (0..plan.len()).filter(|&i| plan[i].conn == c).collect();
                mine.sort_by_key(|&i| plan[i].due);
                s.spawn(move || run_conn(conn, plan, mine, start, stop))
            })
            .collect();
        for (c, h) in handles.into_iter().enumerate() {
            let (results, complete) = h.join().expect("connection thread does not panic");
            poisoned[c] = !complete;
            for (i, o) in results {
                out[i].sent_s = o.sent_s;
                out[i].done_s = o.done_s;
                out[i].reply = o.reply;
            }
        }
    });
    for (c, bad) in poisoned.into_iter().enumerate() {
        if bad {
            match Conn::open(addr) {
                Ok(fresh) => conns[c] = fresh,
                Err(e) => eprintln!("could not reopen connection {c}: {e}"),
            }
        }
    }
    out
}

/// Drive one connection's share of the plan. Returns the outcomes and
/// whether every request got its reply.
fn run_conn(
    conn: &mut Conn,
    plan: &[Planned],
    mine: Vec<usize>,
    start: Instant,
    stop: Duration,
) -> (Vec<(usize, Outcome)>, bool) {
    let mut results: Vec<(usize, Outcome)> = Vec::with_capacity(mine.len());
    let mut inflight: VecDeque<(usize, f64)> = VecDeque::new();
    let mut outbuf: Vec<u8> = Vec::new();
    let mut written = 0usize;
    let mut next = 0usize;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let now = start.elapsed();
        while next < mine.len() && plan[mine[next]].due <= now {
            let i = mine[next];
            outbuf.extend_from_slice(plan[i].frame.as_bytes());
            outbuf.push(b'\n');
            inflight.push_back((i, now.as_secs_f64()));
            next += 1;
        }
        if written < outbuf.len() {
            match conn.stream.write(&outbuf[written..]) {
                Ok(n) => written += n,
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
            if written == outbuf.len() {
                outbuf.clear();
                written = 0;
            }
        }
        let mut closed = false;
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => conn.pending.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        let done_s = start.elapsed().as_secs_f64();
        while let Some(pos) = conn.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = conn.pending.drain(..=pos).collect();
            let Some((i, sent_s)) = inflight.pop_front() else {
                // A reply nobody waits for: the stream is out of step.
                return (results, false);
            };
            results.push((
                i,
                Outcome {
                    due_s: plan[i].due.as_secs_f64(),
                    sent_s,
                    done_s: Some(done_s),
                    reply: Some(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned()),
                },
            ));
        }
        if next == mine.len() && inflight.is_empty() {
            return (results, true);
        }
        let now = start.elapsed();
        if closed || now >= stop {
            break;
        }
        let until = if next < mine.len() {
            plan[mine[next]].due
        } else {
            stop
        };
        let wait = until.saturating_sub(now).min(Duration::from_millis(50));
        wait_ready(&conn.stream, written < outbuf.len(), wait);
    }
    // Unanswered requests keep their send time and get no reply.
    for (i, sent_s) in inflight {
        results.push((
            i,
            Outcome {
                due_s: plan[i].due.as_secs_f64(),
                sent_s,
                done_s: None,
                reply: None,
            },
        ));
    }
    (results, false)
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

/// Block until the socket is readable (or writable, when `want_write`) or
/// `timeout` passes. `ppoll` takes a nanosecond timeout, so due times are
/// kept to the scheduler's precision rather than a millisecond tick.
#[cfg(target_os = "linux")]
fn wait_ready(stream: &TcpStream, want_write: bool, timeout: std::time::Duration) {
    use std::os::fd::AsRawFd;
    let mut pfd = sys::PollFd {
        fd: stream.as_raw_fd(),
        events: sys::POLLIN | if want_write { sys::POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as _,
        tv_nsec: timeout.subsec_nanos() as _,
    };
    // SAFETY: `pfd` and `ts` are live locals for the whole call, `nfds` is 1
    // to match the single descriptor, and a null `sigmask` leaves the
    // thread's signal mask unchanged. The descriptor stays open because
    // `stream` is borrowed across the call.
    unsafe {
        sys::ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

#[cfg(not(target_os = "linux"))]
fn wait_ready(_stream: &TcpStream, _want_write: bool, timeout: std::time::Duration) {
    std::thread::sleep(timeout.min(std::time::Duration::from_micros(200)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    #[test]
    fn latency_is_counted_from_the_due_time() {
        let o = Outcome {
            due_s: 1.0,
            sent_s: 1.25,
            done_s: Some(1.5),
            reply: None,
        };
        assert!((o.latency_ms() - 500.0).abs() < 1e-9);
        assert!((o.late_ms() - 250.0).abs() < 1e-9);
        assert!(Outcome::default().latency_ms().is_infinite());
    }

    #[test]
    fn a_stalled_server_delays_every_request_queued_behind_it() {
        // An echo server that stalls 200 ms on the first frame, then echoes.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            let mut first = true;
            for line in BufReader::new(stream).lines() {
                let line = line.unwrap();
                if first {
                    std::thread::sleep(Duration::from_millis(200));
                    first = false;
                }
                w.write_all(format!("{line}\n").as_bytes()).unwrap();
            }
        });
        let mut conns = vec![Conn::open(addr).unwrap()];
        let plan: Vec<Planned> = (0..3)
            .map(|i| Planned {
                due: Duration::from_millis(20 * i),
                conn: 0,
                frame: Arc::from(format!("r{i}")),
            })
            .collect();
        let out = drive(addr, &mut conns, &plan, Duration::from_secs(5));
        drop(conns);
        server.join().unwrap();
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.reply.as_deref(), Some(format!("r{i}").as_str()));
            // Sent on schedule, not after the previous reply...
            assert!(
                o.late_ms() < 100.0,
                "request {i} sent {} ms late",
                o.late_ms()
            );
        }
        // ...so the stall shows in the later requests' latency from due time.
        assert!(out[2].latency_ms() >= 140.0, "{}", out[2].latency_ms());
        assert!(out[2].done_s.unwrap() - out[2].sent_s >= 0.15);
    }
}
