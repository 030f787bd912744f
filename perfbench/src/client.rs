//! Open-loop load client for the prediction service.
//!
//! Unlike a closed-loop replay, the send schedule is fixed before the run
//! starts (Poisson arrivals drawn from the seed) and never waits for the
//! server: every request is timed from its *scheduled* send time, so a
//! stalled server or a late generator shows up as latency instead of
//! silently thinning the offered load. One thread drives every connection
//! over nonblocking sockets, sleeping in `ppoll` until the next send is
//! due or a response lands; how late that thread sends is reported
//! separately. Refused (shed), expired and failed requests — and requests
//! still unanswered when the drain grace ends — count as missing any
//! latency limit.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xgs_covariance::Location;
use xgs_runtime::{parse_json, JsonValue};

use crate::trace;

/// One scheduled request.
#[derive(Clone, Debug, PartialEq)]
pub struct Scheduled {
    /// Send time, seconds after the stream starts.
    pub at: f64,
    pub points: Vec<Location>,
    pub uncertainty: bool,
}

/// Shape of an open-loop stream.
#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Stream length in seconds.
    pub seconds: f64,
    /// Points per mean-only request.
    pub points: usize,
    /// Share of requests that ask for the prediction variance.
    pub uncertainty_share: f64,
    /// Points per request that asks for the variance (each costs one
    /// triangular solve).
    pub uncertainty_points: usize,
}

/// The deterministic send schedule for `spec` under `seed`: exponential
/// inter-arrival gaps, uniform points on the unit square.
pub fn schedule(spec: &StreamSpec, seed: u64) -> Vec<Scheduled> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        let u: f64 = rng.random_range(0.0..1.0);
        t += -(1.0 - u).ln() / spec.rate;
        if t >= spec.seconds {
            return out;
        }
        let uncertainty = rng.random_range(0.0..1.0) < spec.uncertainty_share;
        let k = if uncertainty {
            spec.uncertainty_points
        } else {
            spec.points
        };
        let points = (0..k)
            .map(|_| Location::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        out.push(Scheduled {
            at: t,
            points,
            uncertainty,
        });
    }
}

/// The request line for scheduled request `id`.
pub fn request_line(id: usize, r: &Scheduled) -> String {
    let pts: Vec<String> = r
        .points
        .iter()
        .map(|p| format!("[{},{}]", p.x, p.y))
        .collect();
    format!(
        "{{\"op\":\"predict\",\"id\":{id},\"model\":\"default\",\"points\":[{}],\"uncertainty\":{}}}\n",
        pts.join(","),
        r.uncertainty
    )
}

/// FNV-1a over the IEEE bits of one response's means then variances.
pub fn response_hash(mean: &[f64], uncertainty: Option<&[f64]>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &x in mean.iter().chain(uncertainty.unwrap_or(&[])) {
        h = (h ^ x.to_bits()).wrapping_mul(0x100000001b3);
    }
    h
}

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    Shed,
    Expired,
    Failed,
}

/// Per-request outcome.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    pub status: Status,
    /// Receive time minus *scheduled* send time, seconds (`INFINITY` for
    /// anything but `Ok`).
    pub latency: f64,
    /// Actual minus scheduled send time, seconds.
    pub lateness: f64,
}

/// Result of one stream.
pub struct StreamResult {
    pub outcomes: Vec<Outcome>,
    /// XOR of per-request [`response_hash`]es over the `Ok` responses.
    pub checksum: u64,
}

impl StreamResult {
    pub fn count(&self, s: Status) -> usize {
        self.outcomes.iter().filter(|o| o.status == s).count()
    }

    /// Latencies in milliseconds, misses as `INFINITY`.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.latency * 1e3).collect()
    }

    pub fn lateness_ms(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.lateness * 1e3).collect()
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
}

impl Conn {
    fn flush(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read what is available; returns complete lines.
    fn read_lines(&mut self, lines: &mut Vec<String>) -> std::io::Result<bool> {
        let mut buf = [0u8; 64 * 1024];
        let mut progressed = false;
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    progressed = true;
                    self.inbuf.extend_from_slice(&buf[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        while let Some(pos) = self.inbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.inbuf.drain(..=pos).collect();
            lines.push(String::from_utf8_lossy(&line).into_owned());
        }
        Ok(progressed)
    }
}

fn f64_array(v: &JsonValue, field: &str) -> Option<Vec<f64>> {
    v.get(field)?
        .as_array()?
        .iter()
        .map(JsonValue::as_f64)
        .collect()
}

/// Classify one response line; returns `(id, status, hash)`.
fn classify(line: &str) -> Option<(usize, Status, u64)> {
    let v = parse_json(line).ok()?;
    let id = v.get("id")?.as_usize()?;
    if v.get("ok").and_then(JsonValue::as_bool) == Some(true) {
        let mean = f64_array(&v, "mean");
        let unc = match v.get("uncertainty") {
            Some(_) => f64_array(&v, "uncertainty").map(Some),
            None => Some(None),
        };
        return match (mean, unc) {
            (Some(m), Some(u)) => Some((id, Status::Ok, response_hash(&m, u.as_deref()))),
            _ => Some((id, Status::Failed, 0)),
        };
    }
    let status = if v.get("retry_after_ms").is_some() {
        Status::Shed
    } else if v
        .get("error")
        .and_then(JsonValue::as_str)
        .is_some_and(|e| e.contains("deadline"))
    {
        Status::Expired
    } else {
        Status::Failed
    };
    Some((id, status, 0))
}

/// Longest single wait while nothing is due (the drain deadline is
/// re-checked at least this often).
const DRAIN_POLL: Duration = Duration::from_millis(10);

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const POLLIN: i16 = 1;
const PR_SET_TIMERSLACK: i32 = 29;

/// Block until a connection is readable or `timeout` passes. `ppoll`
/// takes a nanosecond timeout and wakes on the first readable socket, so
/// a response is timestamped when it lands, not at the next sweep.
fn wait_readable(conns: &[Conn], timeout: Duration) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // pollfd records and `ts` a valid timespec; a null sigmask keeps the
    // thread's signal mask.
    let r = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if r < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Shrink this thread's timer slack to 1 ns so timed waits end on time
/// (the default slack lets the kernel defer wake-ups by ~50 µs).
fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes the calling thread's timer slack; the return value is
    // checked and a failure only costs precision.
    let r = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    if r != 0 {
        eprintln!("perfbench: could not tighten timer slack");
    }
}

/// Drive `reqs` open-loop over `conns` connections. Requests go out
/// round-robin; after the last send, outstanding requests get `grace` to
/// complete before they are written off as failed.
pub fn run_stream(
    addr: SocketAddr,
    reqs: &[Scheduled],
    conns: usize,
    grace: Duration,
) -> std::io::Result<StreamResult> {
    let mut conns: Vec<Conn> = (0..conns.max(1))
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(Conn {
                stream: s,
                out: Vec::new(),
                inbuf: Vec::new(),
            })
        })
        .collect::<std::io::Result<_>>()?;
    let lines: Vec<String> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| request_line(i, r))
        .collect();

    let mut outcomes = vec![
        Outcome {
            status: Status::Failed,
            latency: f64::INFINITY,
            lateness: 0.0,
        };
        reqs.len()
    ];
    let mut pending: HashMap<usize, trace::Guard> = HashMap::new();
    let mut answered = 0usize;
    let mut checksum = 0u64;
    let mut next = 0usize;
    let mut drain_deadline: Option<Instant> = None;
    let mut got = Vec::new();
    tight_timer_slack();
    let t0 = Instant::now();
    let parent = trace::current();

    while answered < reqs.len() {
        let now = t0.elapsed().as_secs_f64();
        // 1. Everything that is due goes out now.
        while next < reqs.len() && reqs[next].at <= now {
            let k = next % conns.len();
            let c = &mut conns[k];
            c.out.extend_from_slice(lines[next].as_bytes());
            outcomes[next].lateness = t0.elapsed().as_secs_f64() - reqs[next].at;
            pending.insert(next, trace::span_under("client.request", parent));
            next += 1;
        }
        for c in conns.iter_mut() {
            c.flush()?;
        }
        // 2. Whatever has arrived is attributed to its request.
        let mut progressed = false;
        for c in conns.iter_mut() {
            progressed |= c.read_lines(&mut got)?;
        }
        let t_recv = t0.elapsed().as_secs_f64();
        for line in got.drain(..) {
            let Some((id, status, hash)) = classify(&line) else {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("unattributable response: {line}"),
                ));
            };
            if pending.remove(&id).is_none() {
                continue;
            }
            answered += 1;
            outcomes[id].status = status;
            if status == Status::Ok {
                outcomes[id].latency = t_recv - reqs[id].at;
                checksum ^= hash;
            }
        }
        // 3. Drain phase: bounded patience for the stragglers.
        if next == reqs.len() {
            let d = *drain_deadline.get_or_insert_with(|| Instant::now() + grace);
            if Instant::now() >= d {
                break;
            }
        }
        if !progressed {
            // Sleep until a response arrives or the next send is due.
            let wait = reqs
                .get(next)
                .map_or(DRAIN_POLL, |r| {
                    Duration::from_secs_f64((r.at - t0.elapsed().as_secs_f64()).max(0.0))
                })
                .min(DRAIN_POLL);
            wait_readable(&conns, wait)?;
        }
    }
    // Unanswered requests stay `Failed` with infinite latency.
    drop(pending);
    Ok(StreamResult { outcomes, checksum })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> StreamSpec {
        StreamSpec {
            rate: 500.0,
            seconds: 2.0,
            points: 4,
            uncertainty_share: 0.1,
            uncertainty_points: 1,
        }
    }

    #[test]
    fn schedule_is_deterministic_in_the_seed() {
        let a = schedule(&spec(), 7);
        let b = schedule(&spec(), 7);
        assert_eq!(a, b);
        let c = schedule(&spec(), 8);
        assert_ne!(a, c);
        let la: Vec<String> = a
            .iter()
            .enumerate()
            .map(|(i, r)| request_line(i, r))
            .collect();
        let lb: Vec<String> = b
            .iter()
            .enumerate()
            .map(|(i, r)| request_line(i, r))
            .collect();
        assert_eq!(la, lb, "identical wire bytes for identical seeds");
    }

    #[test]
    fn schedule_offers_the_requested_rate_and_mix() {
        let s = StreamSpec {
            rate: 2000.0,
            seconds: 5.0,
            points: 4,
            uncertainty_share: 0.05,
            uncertainty_points: 1,
        };
        let r = schedule(&s, 3);
        let n = r.len() as f64;
        assert!((n / 10_000.0 - 1.0).abs() < 0.05, "{n} requests");
        assert!(r.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(r
            .iter()
            .all(|q| q.points.len() == if q.uncertainty { 1 } else { 4 } && q.at < 5.0));
        let unc = r.iter().filter(|q| q.uncertainty).count() as f64 / n;
        assert!((unc - 0.05).abs() < 0.01, "uncertainty share {unc}");
    }

    #[test]
    fn classify_reads_every_response_kind() {
        let ok = "{\"id\":3,\"ok\":true,\"mean\":[0.5,-1],\"batch\":{\"points\":2,\"requests\":1}}";
        assert_eq!(
            classify(ok),
            Some((3, Status::Ok, response_hash(&[0.5, -1.0], None)))
        );
        let unc = "{\"id\":4,\"ok\":true,\"mean\":[0.5],\"uncertainty\":[0.25]}";
        assert_eq!(
            classify(unc),
            Some((4, Status::Ok, response_hash(&[0.5], Some(&[0.25]))))
        );
        let shed = "{\"id\":5,\"ok\":false,\"error\":\"server overloaded\",\"retry_after_ms\":3}";
        assert_eq!(classify(shed), Some((5, Status::Shed, 0)));
        let exp = "{\"id\":6,\"ok\":false,\"error\":\"deadline exceeded\"}";
        assert_eq!(classify(exp), Some((6, Status::Expired, 0)));
        assert_eq!(
            classify("{\"id\":7,\"ok\":false,\"error\":\"x\"}"),
            Some((7, Status::Failed, 0))
        );
        assert_eq!(classify("not json"), None);
    }

    #[test]
    fn latency_counts_from_the_scheduled_time() {
        // A server that answers each request only after a 30 ms stall:
        // requests scheduled during the stall must carry the queued wait.
        use std::io::BufRead;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut w = s.try_clone().unwrap();
            let mut first = true;
            for line in std::io::BufReader::new(s).lines() {
                let line = line.unwrap();
                if first {
                    std::thread::sleep(Duration::from_millis(30));
                    first = false;
                }
                let id = parse_json(&line)
                    .unwrap()
                    .get("id")
                    .unwrap()
                    .as_usize()
                    .unwrap();
                writeln!(w, "{{\"id\":{id},\"ok\":true,\"mean\":[1]}}").unwrap();
            }
        });
        let reqs: Vec<Scheduled> = (0..5)
            .map(|i| Scheduled {
                at: 0.002 * i as f64,
                points: vec![Location::new(0.5, 0.5)],
                uncertainty: false,
            })
            .collect();
        let r = run_stream(addr, &reqs, 1, Duration::from_secs(2)).unwrap();
        assert_eq!(r.count(Status::Ok), 5);
        // Every request waited behind the stall (>= 30 ms from t=0), so
        // latency from its scheduled time is at least 30 ms - at.
        for (q, o) in reqs.iter().zip(&r.outcomes) {
            assert!(o.latency >= 0.030 - q.at - 1e-9, "{o:?}");
        }
        server.join().unwrap();
    }
}
