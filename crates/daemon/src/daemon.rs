//! The long-running daemon: one [`VerificationService`] shared by two
//! listeners.
//!
//! * The **sync listener** speaks the `rvaas-client` delta-sync protocol
//!   over length-prefixed TCP frames: each frame is an in-band
//!   [`rvaas_client::SyncRequest`], answered from the live epoch store. A
//!   peer speaking an unsupported protocol major version gets a
//!   [`SyncReject`] frame back (the negotiation half of the version
//!   handshake) and the connection is closed.
//! * The **HTTP listener** serves the query/trace/status API and the
//!   Prometheus exposition (see [`crate::http`]) over persistent
//!   keep-alive connections.
//!
//! Each listener hands accepted sockets to a **bounded pool** of
//! connection workers over a channel — a misbehaving client burns at most
//! one worker, never an unbounded pile of threads. The accept loops block
//! in `accept`, so a new connection is handed over at once. Every accepted
//! socket sets `TCP_NODELAY`, and every response or frame leaves in one
//! write: a message split over two writes, or one larger than a segment,
//! never waits on Nagle's algorithm for the client's (possibly delayed) ACK.
//!
//! Shutdown is cooperative: a shared flag flips, [`Daemon::shutdown`]
//! connects to each listener to wake its blocked `accept` (again until the
//! loop has exited, should a wake fail), the accept loops see the flag and
//! exit (dropping the channel sender), the workers
//! drain and exit on the closed channel, and [`Daemon::shutdown`] joins
//! everything before returning.

use std::io::BufReader;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rvaas::{LocationMap, NetworkSnapshot, VerifierConfig};
use rvaas_client::{read_frame, write_frame, SyncReject};
use rvaas_controlplane::benign_rules;
use rvaas_service::{ServiceError, SyncServer, VerificationService};
use rvaas_telemetry::{Counter, Gauge};
use rvaas_types::SimTime;

use crate::config::DaemonConfig;
use crate::http;

/// Pause after a failed `accept`, so a persistent failure (say, the
/// process is out of file descriptors) does not spin the accept loop.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);
/// Bound on the connection [`Daemon::shutdown`] makes to wake an accept.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// Pause between wakes while an accept loop has not yet exited.
const WAKE_RETRY: Duration = Duration::from_millis(1);
/// Read timeout on sync connections: bounds both a stuck peer and the
/// drain latency at shutdown.
const SYNC_READ_TIMEOUT: Duration = Duration::from_millis(100);
/// Read timeout on HTTP connections: bounds a stalled request and caps how
/// long an idle keep-alive connection can pin a pool worker.
const HTTP_READ_TIMEOUT: Duration = Duration::from_millis(1000);
/// Connection workers per listener: the bound on concurrently served
/// connections (excess accepted sockets queue on the channel).
const CONNECTION_WORKERS: usize = 4;

/// A running `rvaas` daemon.
#[derive(Debug)]
pub struct Daemon {
    service: Arc<VerificationService>,
    sync_server: Arc<SyncServer>,
    shutdown: Arc<AtomicBool>,
    http_addr: Option<SocketAddr>,
    sync_addr: Option<SocketAddr>,
    listeners: Vec<(SocketAddr, JoinHandle<()>)>,
    workers: Vec<JoinHandle<()>>,
    started: Instant,
}

impl Daemon {
    /// Builds the topology, starts the verification service, publishes the
    /// initial routing epoch and binds the configured listeners.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Config`] for a bad topology spec or an
    /// unbindable listen address, and propagates publish failures.
    pub fn start(config: &DaemonConfig) -> Result<Self, ServiceError> {
        let topology = config.build_topology()?;
        let service = Arc::new(VerificationService::new(
            topology.clone(),
            config.service.clone().into_config(VerifierConfig {
                use_history: false,
                locations: LocationMap::disclosed(&topology),
            }),
        ));
        let registry = service.registry();
        registry
            .gauge_with(
                "rvaas_build_info",
                "Build metadata; always 1, version in the label.",
                &[("version", env!("CARGO_PKG_VERSION"))],
            )
            .set(1);
        // Epoch 1: the configured rules file when one is given, the benign
        // shortest-path routing state otherwise (the daemon's stand-in for a
        // controller feed; `publish` on the service keeps advancing it).
        let rules = match &config.rules_file {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| ServiceError::Config(format!("cannot read {path}: {e}")))?;
                crate::rules::parse_rules(&text)
                    .map_err(|e| ServiceError::Config(format!("{path}: {e}")))?
            }
            None => benign_rules(&topology),
        };
        let mut snapshot = NetworkSnapshot::new(SimTime::from_millis(1));
        for (switch, entry) in rules {
            snapshot.record_installed(switch, entry, SimTime::from_millis(1));
        }
        service.try_publish(&snapshot, SimTime::from_millis(1))?;

        // Distinct per process start, so reconnecting clients detect a
        // restart and fall back to a reset (session 0 means "none").
        let session_id = (std::process::id() % u32::from(u16::MAX - 1) + 1) as u16;
        let sync_server = Arc::new(SyncServer::new(service.store(), session_id, &registry));

        let shutdown = Arc::new(AtomicBool::new(false));
        let mut daemon = Daemon {
            service,
            sync_server,
            shutdown,
            http_addr: None,
            sync_addr: None,
            listeners: Vec::new(),
            workers: Vec::new(),
            started: Instant::now(),
        };
        if let Some(addr) = &config.service.sync_listen {
            let listener = bind(addr)?;
            let addr = local_addr(&listener)?;
            daemon.sync_addr = Some(addr);
            daemon.spawn_listener(
                listener,
                addr,
                "rvaas_sync_sessions_total",
                "Sync TCP sessions accepted.",
                serve_sync_connection,
            );
        }
        if let Some(addr) = &config.service.http_listen {
            let listener = bind(addr)?;
            let addr = local_addr(&listener)?;
            daemon.http_addr = Some(addr);
            daemon.spawn_listener(
                listener,
                addr,
                "rvaas_http_connections_total",
                "HTTP connections accepted.",
                serve_http_connection,
            );
        }
        Ok(daemon)
    }

    /// The shared verification service (publish epochs, query directly).
    #[must_use]
    pub fn service(&self) -> &Arc<VerificationService> {
        &self.service
    }

    /// The sync server answering the TCP endpoint.
    #[must_use]
    pub fn sync_server(&self) -> &Arc<SyncServer> {
        &self.sync_server
    }

    /// Bound address of the HTTP listener, if one was configured.
    #[must_use]
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Bound address of the sync listener, if one was configured.
    #[must_use]
    pub fn sync_addr(&self) -> Option<SocketAddr> {
        self.sync_addr
    }

    /// Flips the shutdown flag and joins every listener and connection
    /// worker: on return no daemon thread is running.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Listeners first: each exit drops a channel sender, which releases
        // that listener's workers once the queue drains. Each accept loop
        // is blocked in `accept`: a local connection wakes it to see the
        // flag. A wildcard bind is reached over loopback.
        for (addr, handle) in self.listeners.drain(..) {
            let wake = wake_addr(addr);
            join_waking(handle, || {
                let _ = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT);
            });
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Spawns one accept loop plus its bounded pool of connection workers.
    fn spawn_listener(
        &mut self,
        listener: TcpListener,
        addr: SocketAddr,
        counter_name: &'static str,
        counter_help: &'static str,
        serve: fn(&ConnectionContext, TcpStream),
    ) {
        let registry = self.service.registry();
        let context = ConnectionContext {
            service: Arc::clone(&self.service),
            sync_server: Arc::clone(&self.sync_server),
            shutdown: Arc::clone(&self.shutdown),
            accepted: registry.counter(counter_name, counter_help),
            http_requests: registry.counter(
                "rvaas_http_requests_total",
                "HTTP requests parsed by the daemon.",
            ),
            sync_frames: registry.counter(
                "rvaas_sync_frames_total",
                "Sync request frames answered by the daemon.",
            ),
            active: registry.gauge(
                "rvaas_http_connections_active",
                "HTTP connections currently being served.",
            ),
            started: self.started,
        };
        let (sender, receiver) = mpsc::channel::<TcpStream>();
        let receiver = Arc::new(Mutex::new(receiver));
        for _ in 0..CONNECTION_WORKERS {
            let context = context.clone();
            let receiver = Arc::clone(&receiver);
            self.workers.push(thread::spawn(move || loop {
                // Take the next socket, then drop the lock before serving
                // so the other workers keep draining the queue.
                let stream = receiver
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .recv();
                match stream {
                    Ok(stream) => serve(&context, stream),
                    Err(_) => return, // accept loop gone: shutdown
                }
            }));
        }
        let accept_loop = thread::spawn(move || loop {
            let accepted = listener.accept();
            if context.shutdown.load(Ordering::SeqCst) {
                return; // the connection that woke us is dropped unserved
            }
            match accepted {
                Ok((stream, _peer)) => {
                    context.accepted.inc();
                    if sender.send(stream).is_err() {
                        return; // no workers left
                    }
                }
                // Accept errors (e.g. a reset mid-handshake) are transient
                // and must not kill the listener.
                Err(_) => thread::sleep(ACCEPT_ERROR_BACKOFF),
            }
        });
        self.listeners.push((addr, accept_loop));
    }
}

/// Calls `wake` until the thread behind `handle` has exited, then joins it:
/// a wake that fails (say, the process is out of file descriptors) is
/// simply tried again.
fn join_waking(handle: JoinHandle<()>, mut wake: impl FnMut()) {
    while !handle.is_finished() {
        wake();
        thread::sleep(WAKE_RETRY);
    }
    let _ = handle.join();
}

/// Everything a connection worker needs, cloned per worker.
#[derive(Clone)]
struct ConnectionContext {
    service: Arc<VerificationService>,
    sync_server: Arc<SyncServer>,
    shutdown: Arc<AtomicBool>,
    accepted: Arc<Counter>,
    http_requests: Arc<Counter>,
    sync_frames: Arc<Counter>,
    active: Arc<Gauge>,
    started: Instant,
}

fn bind(addr: &str) -> Result<TcpListener, ServiceError> {
    TcpListener::bind(addr).map_err(|e| ServiceError::Config(format!("cannot bind {addr}: {e}")))
}

/// The address a local connection reaches a listener bound to `addr` on:
/// the address itself, or loopback of the same family for a wildcard bind.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

fn local_addr(listener: &TcpListener) -> Result<SocketAddr, ServiceError> {
    listener
        .local_addr()
        .map_err(|e| ServiceError::Config(format!("listener has no local address: {e}")))
}

/// One sync session: frames in, frames out, until EOF, error or shutdown.
fn serve_sync_connection(context: &ConnectionContext, stream: TcpStream) {
    let mut stream = stream;
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(SYNC_READ_TIMEOUT)).is_err()
    {
        return;
    }
    loop {
        if context.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let frame = match read_frame(&mut stream) {
            Ok(None) => return, // peer closed cleanly
            Ok(Some(frame)) => frame,
            Err(e) if e.is_retryable() => continue,
            Err(_) => return, // torn, oversized or dead: drop the connection
        };
        match context.sync_server.handle_frame(&context.service, &frame) {
            Ok(response) => {
                context.sync_frames.inc();
                if write_frame(&mut stream, &response).is_err() {
                    return;
                }
            }
            Err(ServiceError::VersionMismatch { supported, got }) => {
                // Negotiation: tell the peer what we speak, then hang up.
                let reject = SyncReject { supported, got }.encode();
                let _ = write_frame(&mut stream, &reject);
                return;
            }
            Err(_) => return, // undecodable frame: drop the connection
        }
    }
}

/// One HTTP connection: requests served in a keep-alive loop until the
/// client asks to close, goes idle, sends garbage or the daemon shuts down.
fn serve_http_connection(context: &ConnectionContext, stream: TcpStream) {
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(HTTP_READ_TIMEOUT)).is_err()
    {
        return;
    }
    // One reader for the connection's life: bytes of a pipelined request
    // that arrived with the previous one stay buffered here. Each response
    // leaves in a single write.
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    context.active.inc();
    loop {
        match http::read_request(&mut reader) {
            Ok(None) => break, // idle or clean close between requests
            Ok(Some(request)) => {
                // Counted at parse time, before dispatch: a scrape of
                // /metrics observes itself.
                context.http_requests.inc();
                let response = http::route(
                    &context.service,
                    &context.sync_server,
                    &request,
                    context.started.elapsed().as_secs(),
                );
                let keep_alive = !request.close && !context.shutdown.load(Ordering::SeqCst);
                if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
                    break;
                }
            }
            Err(why) => {
                let _ = http::HttpResponse::error(why.status, &why.message)
                    .write_to(&mut writer, false);
                break;
            }
        }
    }
    context.active.dec();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_wakes_are_retried_until_the_thread_exits() {
        // The thread stands in for an accept loop; the first three wakes
        // fail to reach it, as a connect does when descriptors run out.
        let (wake_tx, wake_rx) = mpsc::channel::<()>();
        let handle = thread::spawn(move || {
            let _ = wake_rx.recv();
        });
        let mut wakes = 0;
        join_waking(handle, || {
            wakes += 1;
            if wakes == 4 {
                let _ = wake_tx.send(());
            }
        });
        assert!(wakes >= 4, "joined after {wakes} wakes");
    }
}
