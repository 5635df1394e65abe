//! The open-loop load generator: due-time scheduling, the HTTP and sync
//! clients, and the capacity ladder.
//!
//! Each connection carries at most one request at a time (the daemon's
//! `read_request` drops bytes past `Content-Length`, so pipelining is not
//! an option). A request is timed from its *due* time, not from when it was
//! sent, so a stall is charged to every request queued behind it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rvaas_client::{decode_inband, read_frame, InbandMessage, SyncResponse, SyncSession};
use rvaas_types::ClientId;

/// How long a reply may take before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Refuses a generator plan that would use more threads or connections
/// than the host has cores.
///
/// # Errors
///
/// Returns a message naming the excess.
pub fn check_plan(threads: usize, connections: usize, cores: usize) -> Result<(), String> {
    if threads > cores || connections > cores {
        return Err(format!(
            "generator plan of {threads} threads and {connections} connections exceeds {cores} cores"
        ));
    }
    Ok(())
}

/// The timing of one open-loop operation.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the operation was due.
    pub due: Instant,
    /// When the generator started it.
    pub sent: Instant,
    /// When its last response byte arrived.
    pub done: Instant,
}

impl Timing {
    /// Due time to completion: the open-loop latency.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }
}

/// Sleeps until `due`, finishing with a short spin so wake-up overshoot
/// stays in the microseconds.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Runs `count` operations due at `start + i * interval`, one at a time, and
/// times each from its due time. `op(i)` performs operation `i` and returns
/// when its last response byte arrived (work the operation does after that
/// is not charged to it); `stop()` is polled before each operation and ends
/// the run early.
pub fn run_open_loop(
    start: Instant,
    interval: Duration,
    count: usize,
    mut op: impl FnMut(usize) -> Instant,
    stop: impl Fn() -> bool,
) -> Vec<Timing> {
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        if stop() {
            break;
        }
        let due = start + interval.mul_f64(i as f64);
        wait_until(due);
        let sent = Instant::now();
        let done = op(i);
        out.push(Timing { due, sent, done });
    }
    out
}

/// The generator's own lateness per operation: how long after it was due
/// *and* its connection was free it was sent. Queueing behind a slow reply
/// is the server's, not the generator's.
#[must_use]
pub fn generator_lag_us(timings: &[Timing]) -> Vec<f64> {
    let mut free = None::<Instant>;
    timings
        .iter()
        .map(|t| {
            let ready = free.map_or(t.due, |f: Instant| f.max(t.due));
            free = Some(t.done);
            t.sent.saturating_duration_since(ready).as_secs_f64() * 1e6
        })
        .collect()
}

/// A parsed verdict: the fields the benchmark checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The epoch the verdict was answered against.
    pub epoch_serial: u64,
    /// The daemon's reported service time.
    pub latency_us: u64,
    /// The `result` object, verbatim.
    pub result: String,
}

/// One keep-alive HTTP connection to the daemon.
#[derive(Debug)]
pub struct HttpConn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpConn {
    /// Connects to `addr`. The generator sets `TCP_NODELAY` on its own
    /// socket so its single-write requests leave at once; nothing else is
    /// changed from the socket defaults.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(HttpConn {
            addr,
            stream: client_socket(addr)?,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one request and reads its whole response. On a transport
    /// error the connection is re-opened for the next call and the error
    /// returned.
    ///
    /// # Errors
    ///
    /// Returns I/O errors and malformed responses.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, String)> {
        let result = self.try_exchange(request);
        if result.is_err() {
            if let Ok(stream) = client_socket(self.addr) {
                self.stream = stream;
            }
        }
        result
    }

    fn try_exchange(&mut self, request: &[u8]) -> io::Result<(u16, String)> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 8192];
        let (head_end, length) = loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..at]).to_string();
                let length = head
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse::<usize>().ok())?
                    })
                    .ok_or_else(|| bad("response without Content-Length"))?;
                break (at + 4, length);
            }
        };
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let status = std::str::from_utf8(&self.buf[..head_end])
            .ok()
            .and_then(|h| h.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let body = String::from_utf8(self.buf[head_end..head_end + length].to_vec())
            .map_err(|_| bad("non-UTF-8 body"))?;
        Ok((status, body))
    }
}

fn client_socket(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(stream)
}

fn bad(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_string())
}

/// Pulls the checked fields out of a verdict body.
#[must_use]
pub fn parse_verdict(body: &str) -> Option<Verdict> {
    let number = |key: &str| -> Option<u64> {
        let at = body.find(key)? + key.len();
        let digits: String = body[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    };
    let result_at = body.find("\"result\":")? + "\"result\":".len();
    let result = body[result_at..].strip_suffix('}')?.to_string();
    Some(Verdict {
        epoch_serial: number("\"epoch_serial\":")?,
        latency_us: number("\"latency_us\":")?,
        result,
    })
}

/// The one sync connection, carrying every session of the workload.
#[derive(Debug)]
pub struct SyncConn {
    stream: TcpStream,
}

impl SyncConn {
    /// Connects to the daemon's sync listener (`TCP_NODELAY` on the
    /// generator's side only, as for HTTP).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(SyncConn {
            stream: client_socket(addr)?,
        })
    }

    /// One request/response exchange for `client`'s session: the request
    /// leaves as a single write, the response is decoded but not applied.
    ///
    /// # Errors
    ///
    /// Returns transport and codec failures.
    pub fn exchange(
        &mut self,
        session: &SyncSession,
        client: ClientId,
    ) -> io::Result<SyncResponse> {
        let payload = session.request(client).encode();
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(
            &u32::try_from(payload.len())
                .map_err(|_| bad("oversized request"))?
                .to_be_bytes(),
        );
        frame.extend_from_slice(&payload);
        self.stream.write_all(&frame)?;
        let reply = read_frame(&mut self.stream)
            .map_err(io::Error::from)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "sync peer closed"))?;
        match decode_inband(&reply) {
            Ok(InbandMessage::SyncResponse(response)) => Ok(response),
            Ok(other) => Err(bad(&format!("expected a SyncResponse, got {other:?}"))),
            Err(e) => Err(bad(&e.to_string())),
        }
    }
}

/// How one step of the capacity ladder went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The step's `query_p99_us` met the latency limit.
    pub p99_within_limit: bool,
    /// The backlog did not grow across the step.
    pub steady: bool,
    /// No request failed.
    pub no_failures: bool,
}

impl StepOutcome {
    /// Whether the step meets every condition.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.p99_within_limit && self.steady && self.no_failures
    }
}

/// Climbs `rates` in order and returns the highest rate whose step passed,
/// or 0 when the first step fails. The climb stops at the first failing
/// step: a step above a failing one is never run.
pub fn capacity_ladder(rates: &[f64], mut run_step: impl FnMut(f64) -> StepOutcome) -> f64 {
    let mut best = 0.0;
    for &rate in rates {
        if !run_step(rate).passed() {
            break;
        }
        best = rate;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_beyond_cores_is_refused() {
        assert!(check_plan(2, 2, 2).is_ok());
        assert!(check_plan(3, 2, 2).is_err());
        assert!(check_plan(2, 3, 2).is_err());
        assert!(check_plan(1, 1, 1).is_ok());
    }

    #[test]
    fn due_time_charges_a_stall_to_requests_queued_behind_it() {
        // Request 0 stalls 100 ms; requests are due every 10 ms, so the
        // next nine are queued behind the stall and must carry its rest.
        let stall = Duration::from_millis(100);
        let interval = Duration::from_millis(10);
        let start = Instant::now() + Duration::from_millis(5);
        let timings = run_open_loop(
            start,
            interval,
            20,
            |i| {
                if i == 0 {
                    std::thread::sleep(stall);
                }
                Instant::now()
            },
            || false,
        );
        assert_eq!(timings.len(), 20);
        for (i, t) in timings.iter().enumerate().take(10).skip(1) {
            let owed = stall - interval * i as u32;
            assert!(
                t.latency() >= owed,
                "request {i} latency {:?} hides the stall ({owed:?} owed)",
                t.latency()
            );
        }
        // Queueing behind the server is not generator lag.
        let lag = generator_lag_us(&timings);
        assert!(lag.iter().all(|l| *l < 5_000.0), "lag {lag:?}");
        // Once the queue drained, requests go out on time again.
        assert!(timings[15].latency() < Duration::from_millis(5));
    }

    #[test]
    fn ladder_stops_at_first_failing_step() {
        let rates = [100.0, 200.0, 400.0, 800.0, 1600.0];
        let mut ran = Vec::new();
        let pass = StepOutcome {
            p99_within_limit: true,
            steady: true,
            no_failures: true,
        };
        let best = capacity_ladder(&rates, |rate| {
            ran.push(rate);
            if rate == 400.0 {
                StepOutcome {
                    steady: false,
                    ..pass
                }
            } else {
                pass
            }
        });
        assert_eq!(best, 200.0);
        assert_eq!(
            ran,
            vec![100.0, 200.0, 400.0],
            "a step above the failure ran"
        );

        let mut ran = 0;
        let none = capacity_ladder(&rates, |_| {
            ran += 1;
            StepOutcome {
                p99_within_limit: false,
                ..pass
            }
        });
        assert_eq!(none, 0.0);
        assert_eq!(ran, 1);
        assert_eq!(capacity_ladder(&rates, |_| pass), 1600.0);
    }

    #[test]
    fn verdict_fields_are_parsed() {
        let body = "{\"client\":3,\"query\":\"isolation\",\"epoch_serial\":17,\"latency_us\":402,\
                    \"trace\":9,\"result\":{\"isolated\":true,\"foreign_endpoints\":[]}}";
        let v = parse_verdict(body).unwrap();
        assert_eq!(v.epoch_serial, 17);
        assert_eq!(v.latency_us, 402);
        assert_eq!(v.result, "{\"isolated\":true,\"foreign_endpoints\":[]}");
        assert!(parse_verdict("{\"error\":\"x\"}").is_none());
    }
}
