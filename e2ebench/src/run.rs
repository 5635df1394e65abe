//! One run of one workload: set the daemon up (several times, for the
//! set-up median), drive the timed phase, read the layers' counters, run
//! the oracle and compute every metric.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rvaas::{IncrementalModel, InterestIndex, LocationMap, LogicalVerifier, VerifierConfig};
use rvaas_client::{SyncClientStats, SyncPayload, SyncSession};
use rvaas_daemon::{http, json, Daemon, DaemonConfig, HttpResponse};
use rvaas_service::{QueryResponse, ReverifyStats, ServiceStats};
use rvaas_types::{ClientId, SimTime};

use crate::loadgen::{
    capacity_ladder, generator_lag_us, parse_verdict, run_open_loop, HttpConn, StepOutcome,
    SyncConn, Timing,
};
use crate::oracle::{self, Fingerprint, Record, Replay};
use crate::stats::{grouped_percentile, mean, percentile};
use crate::trace::Spans;
use crate::workload::{Inputs, WorkloadSpec, SESSIONS};

/// Daemon start + warm-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Generator threads and connections in every phase: one HTTP reader and
/// one publisher driving the sync connection; the capacity ladder uses two
/// HTTP connections once the sync connection is closed.
pub const THREADS: usize = 2;
/// See [`THREADS`].
pub const CONNECTIONS: usize = 2;
/// The latency limit of the capacity ladder: the daemon's default
/// `slow_query_threshold_us`.
const LATENCY_LIMIT: Duration = Duration::from_millis(10);
/// Offered rates the capacity ladder climbs.
const LADDER_QPS: [f64; 8] = [100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0];
/// Requests per ladder step: enough for ten beyond the p99.
const LADDER_STEP_REQUESTS: usize = 1000;
/// Untimed back-to-back requests sent on the reader's connection before
/// the timed phase.
const PRIMING_REQUESTS: usize = 4;
/// How long past its planned end the timed phase may run before the
/// operations not yet sent are given up as failed.
const DEADLINE_GRACE: Duration = Duration::from_secs(60);
/// Generator lag (p99, µs) above which a run is reported invalid: the
/// ladder's latency limit. On a small host the generator shares cores with
/// the in-process daemon, so a wake-up can wait for a scheduler slice.
pub const LAG_LIMIT_US: f64 = 10_000.0;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Every metric computed (end-to-end and per-layer).
    pub metrics: Vec<Metric>,
    /// Operations attempted in the timed phase: reads plus convergences.
    pub attempted: u64,
    /// Failed or wrong operations.
    pub failed: u64,
    /// Human-readable lines: oracle findings, validity, trace report.
    pub notes: Vec<String>,
    /// Spans of the traced run.
    pub spans: Option<Spans>,
}

impl Report {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// The `q`-th percentile of `samples`, 0 when there are none (a layer
    /// the workload did not reach).
    fn dist(&mut self, name: &'static str, unit: &'static str, samples: &[f64], q: f64) {
        self.put(
            name,
            unit,
            percentile(samples, q).unwrap_or(0.0),
            samples.len(),
        );
    }

    /// The `q`-th percentile of `samples` plus `failed` operations that
    /// count as beyond every limit.
    fn tail(
        &mut self,
        name: &'static str,
        unit: &'static str,
        samples: &[f64],
        failed: u64,
        q: f64,
    ) {
        let mut charged = samples.to_vec();
        charged.extend(std::iter::repeat_n(f64::INFINITY, failed as usize));
        let value = percentile(&charged, q).unwrap_or(f64::INFINITY);
        self.put(name, unit, value, charged.len());
    }

    /// The value of metric `name`, if computed.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The daemon after one set-up, with its sync connection and sessions.
struct Ready {
    daemon: Daemon,
    sync: SyncConn,
    sessions: Vec<SyncSession>,
}

fn daemon_config(spec: &WorkloadSpec, cores: usize) -> Result<DaemonConfig, String> {
    let mut config = DaemonConfig::default();
    for (key, value) in [
        ("topology", spec.topology.to_string()),
        ("workers", cores.to_string()),
        ("sync_listen", "127.0.0.1:0".to_string()),
        ("http_listen", "127.0.0.1:0".to_string()),
    ] {
        config.set(key, &value).map_err(|e| e.to_string())?;
    }
    Ok(config)
}

/// Starts the daemon and warms it: every read key answered once (in
/// process, so the cold HSA evaluation is paid without the transport),
/// every standing query subscribed, every session converged on serial 1.
fn set_up(config: &DaemonConfig, inputs: &Inputs, shadows: bool) -> Result<Ready, String> {
    let daemon = Daemon::start(config).map_err(|e| format!("daemon start: {e}"))?;
    let warm = daemon
        .service()
        .try_query_all(&inputs.keys)
        .map_err(|e| format!("warm-up: {e}"))?;
    if warm.len() != inputs.keys.len() {
        return Err("warm-up lost queries".to_string());
    }
    let mut subscribers: Vec<ClientId> = inputs.sessions.clone();
    if shadows {
        subscribers.extend(&inputs.shadows);
    }
    for (i, client) in subscribers.iter().enumerate() {
        for query in &inputs.standing[i % SESSIONS] {
            daemon.sync_server().subscribe(*client, query.clone());
        }
    }
    let addr = daemon.sync_addr().ok_or("no sync listener")?;
    let mut sync = SyncConn::connect(addr).map_err(|e| format!("sync connect: {e}"))?;
    let mut sessions = vec![SyncSession::new(); inputs.sessions.len()];
    for (session, client) in sessions.iter_mut().zip(&inputs.sessions) {
        let response = sync
            .exchange(session, *client)
            .map_err(|e| format!("sync reset: {e}"))?;
        session
            .apply(&response)
            .map_err(|e| format!("sync reset: {e}"))?;
        if session.serial() != 1 {
            return Err(format!("session converged on serial {}", session.serial()));
        }
    }
    Ok(Ready {
        daemon,
        sync,
        sessions,
    })
}

/// What the reader thread measured.
#[derive(Debug, Default)]
struct ReadLog {
    timings: Vec<Timing>,
    latency_us: Vec<f64>,
    wire_us: Vec<f64>,
    service_us: Vec<f64>,
    failed: u64,
    inconsistent: u64,
    verdicts: BTreeMap<(u64, usize), String>,
}

/// What the publisher thread measured.
#[derive(Debug, Default)]
struct PublishLog {
    timings: Vec<Timing>,
    converge_ms: Vec<f64>,
    publish_us: Vec<f64>,
    changes: Vec<f64>,
    rtt_us: Vec<f64>,
    apply_us: Vec<f64>,
    exchanges: u64,
    failed: u64,
    selected_ratio: Vec<f64>,
}

/// The traced run's replicas of the daemon's layers.
struct Replicas {
    verifier: LogicalVerifier,
    replay: Replay,
    model: IncrementalModel,
    index: InterestIndex,
    responses: Vec<QueryResponse>,
    shadow_sessions: Vec<SyncSession>,
}

/// Layer counters read just before and just after the timed phase.
struct Counters {
    stats: ServiceStats,
    reverify: ReverifyStats,
    client: Vec<SyncClientStats>,
    http_requests: u64,
    sync_frames: u64,
    cpu_s: f64,
}

impl Counters {
    fn read(daemon: &Daemon, sessions: &[SyncSession]) -> Self {
        let registry = daemon.service().registry();
        Counters {
            stats: daemon.service().stats(),
            reverify: daemon.sync_server().reverify_stats(),
            client: sessions.iter().map(SyncSession::stats).collect(),
            http_requests: registry.counter_total("rvaas_http_requests_total"),
            sync_frames: registry.counter_total("rvaas_sync_frames_total"),
            cpu_s: cpu_seconds(),
        }
    }
}

/// What the timed phase produced.
struct Timed {
    reads: ReadLog,
    pubs: PublishLog,
    record: Record,
    wall_s: f64,
}

/// The timed phase's connections, sessions and span logs, one set per stream.
struct Streams<'a> {
    reader: &'a mut HttpConn,
    sync: &'a mut SyncConn,
    sessions: &'a mut [SyncSession],
    reader_spans: &'a mut Spans,
    publisher_spans: &'a mut Spans,
    replicas: Option<&'a mut Replicas>,
}

/// Runs `spec` once.
///
/// # Errors
///
/// Returns a message when the daemon cannot be set up or the plan exceeds
/// the host's cores.
pub fn run(
    spec: &WorkloadSpec,
    inputs: &Inputs,
    seed: u64,
    traced: bool,
    cores: usize,
) -> Result<Report, String> {
    crate::loadgen::check_plan(THREADS, CONNECTIONS, cores)?;
    let config = daemon_config(spec, cores)?;
    let mut report = Report::default();

    // Set-up, several times; the last daemon serves the timed phase.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        if let Some(Ready { daemon, sync, .. }) = ready.take() {
            drop(sync);
            daemon.shutdown();
        }
        let t0 = Instant::now();
        ready = Some(set_up(&config, inputs, traced)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Ready {
        daemon,
        mut sync,
        mut sessions,
    } = ready.ok_or("no set-up ran")?;
    report.dist("setup_s", "s", &setup_s, 50.0);

    let origin = Instant::now();
    let mut reader_spans = Spans::new(origin, traced);
    let mut publisher_spans = Spans::new(origin, traced);
    let mut replicas = traced
        .then(|| build_replicas(&daemon, inputs, &mut publisher_spans))
        .transpose()?;
    let http_addr = daemon.http_addr().ok_or("no HTTP listener")?;
    let mut reader = HttpConn::connect(http_addr).map_err(|e| format!("HTTP connect: {e}"))?;
    // A busy keep-alive client: a few requests back to back before the
    // timed phase, whose first request is then due shortly after the last
    // reply — as on a connection already carrying the workload's traffic.
    for &key in inputs.reads.iter().take(PRIMING_REQUESTS) {
        reader
            .exchange(&inputs.requests[key])
            .map_err(|e| format!("priming request: {e}"))?;
    }

    let before = Counters::read(&daemon, &sessions);
    let Timed {
        mut reads,
        pubs,
        mut record,
        wall_s,
    } = timed_phase(
        spec,
        inputs,
        &daemon,
        Streams {
            reader: &mut reader,
            sync: &mut sync,
            sessions: &mut sessions,
            reader_spans: &mut reader_spans,
            publisher_spans: &mut publisher_spans,
            replicas: replicas.as_mut(),
        },
    );
    let rss_mb = vm_hwm_kb() as f64 / 1024.0;
    let after = Counters::read(&daemon, &sessions);
    drop(reader);
    drop(sync);

    // The capacity ladder runs in the traced run, after the nominal phase,
    // on two HTTP connections (the sync connection is closed first).
    let capacity = if traced {
        capacity_ladder(&LADDER_QPS, |rate| ladder_step(http_addr, inputs, rate))
    } else {
        0.0
    };
    daemon.shutdown();

    // The oracle, after timing.
    record.verdicts = std::mem::take(&mut reads.verdicts);
    let findings = oracle::check(
        &inputs.topology,
        &inputs.keys,
        &record,
        spec.oracle_epochs,
        seed,
    );
    report.notes.push(format!(
        "oracle: {} verdicts checked over {} rebuilt epochs ({} wrong, {} served inconsistently), \
         {} convergences checked ({} diverged), {} reverified results checked ({} wrong)",
        findings.verdicts_checked,
        findings.epochs_rebuilt,
        findings.verdicts_wrong,
        reads.inconsistent,
        findings.convergences_checked,
        findings.convergences_diverged,
        findings.reverified_checked,
        findings.reverified_wrong
    ));

    // Operations the deadline cut off count as failed.
    let unsent_reads = (inputs.reads.len() - reads.timings.len()) as u64;
    let unsent_publishes = (inputs.publishes.len() - pubs.timings.len()) as u64;
    let read_failed = reads.failed + unsent_reads;
    let publish_failed = pubs.failed + unsent_publishes;

    // End-to-end: a failed operation counts as beyond every limit.
    report.tail("query_p50_us", "us", &reads.latency_us, read_failed, 50.0);
    report.tail("query_p99_us", "us", &reads.latency_us, read_failed, 99.0);
    report.tail(
        "converge_p50_ms",
        "ms",
        &pubs.converge_ms,
        publish_failed,
        50.0,
    );
    report.tail(
        "converge_p90_ms",
        "ms",
        &pubs.converge_ms,
        publish_failed,
        90.0,
    );
    report.put("rss_peak_mb", "MB", rss_mb, 1);

    put_layers(
        &mut report,
        &reads,
        &pubs,
        (&before, &after),
        (&reader_spans, &publisher_spans),
    );
    let mut lag = generator_lag_us(&reads.timings);
    lag.extend(generator_lag_us(&pubs.timings));
    let lag_p99 = percentile(&lag, 99.0).unwrap_or(0.0);
    report.put("loadgen.lag_p99_us", "us", lag_p99, lag.len());
    report.put(
        "process.cpu_util",
        "ratio",
        (after.cpu_s - before.cpu_s) / (wall_s * cores as f64).max(1e-9),
        1,
    );
    if lag_p99 > LAG_LIMIT_US {
        report.notes.push(format!(
            "INVALID RUN: generator lag p99 {lag_p99:.0} us exceeds {LAG_LIMIT_US:.0} us; \
             the figures measure the generator"
        ));
    }

    // The daemon's own counters against the operations attempted.
    let mut sanity_failures = 0;
    let sent = reads.timings.len() as u64;
    let http_requests = after.http_requests - before.http_requests;
    if read_failed == 0 && http_requests != sent {
        report.notes.push(format!(
            "daemon counted {http_requests} HTTP requests for {sent} sent"
        ));
        sanity_failures += 1;
    }
    let sync_frames = after.sync_frames - before.sync_frames;
    if publish_failed == 0 && sync_frames != pubs.exchanges {
        report.notes.push(format!(
            "daemon counted {sync_frames} sync frames for {} exchanges",
            pubs.exchanges
        ));
        sanity_failures += 1;
    }
    if unsent_reads + unsent_publishes > 0 {
        report.notes.push(format!(
            "{unsent_reads} reads and {unsent_publishes} publishes were not sent before the \
             run's deadline"
        ));
    }

    report.attempted = (inputs.reads.len() + inputs.publishes.len()) as u64;
    report.failed = read_failed
        + reads.inconsistent
        + publish_failed
        + findings.failures() as u64
        + sanity_failures;
    report.put("query_capacity_qps", "qps", capacity, 1);
    report.put(
        "ops_failed_ratio",
        "ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted as usize,
    );
    if traced {
        reader_spans.merge(&publisher_spans);
        report.spans = Some(reader_spans);
    }
    Ok(report)
}

/// Drives the reader and the publisher from their own threads, open loop,
/// until every planned operation was sent or the deadline passed.
fn timed_phase(spec: &WorkloadSpec, inputs: &Inputs, daemon: &Daemon, d: Streams<'_>) -> Timed {
    let start = Instant::now() + Duration::from_millis(5);
    let read_interval = Duration::from_secs_f64(1.0 / spec.read_qps);
    let publish_interval = Duration::from_secs_f64(1.0 / spec.publish_per_s);
    // Half a read period in, so no publish is due together with a read.
    let publish_start = start + read_interval / 2;
    let planned = read_interval.mul_f64(inputs.reads.len() as f64);
    let deadline = start + planned + DEADLINE_GRACE;
    let past_deadline = || Instant::now() > deadline;
    let mut reads = ReadLog::default();
    let mut pubs = PublishLog::default();
    let mut record = Record::default();
    let Streams {
        reader,
        sync,
        sessions,
        reader_spans,
        publisher_spans,
        mut replicas,
    } = d;
    let responses = replicas.as_ref().map(|r| r.responses.clone());
    std::thread::scope(|scope| {
        let reads = &mut reads;
        scope.spawn(move || {
            reads.timings = run_open_loop(
                start,
                read_interval,
                inputs.reads.len(),
                |i| {
                    let due = start + read_interval.mul_f64(i as f64);
                    read_once(
                        inputs,
                        i,
                        due,
                        reader,
                        reads,
                        reader_spans,
                        responses.as_deref(),
                    )
                },
                past_deadline,
            );
        });
        let (pubs, record) = (&mut pubs, &mut record);
        scope.spawn(move || {
            pubs.timings = run_open_loop(
                publish_start,
                publish_interval,
                inputs.publishes.len(),
                |j| {
                    let due = publish_start + publish_interval.mul_f64(j as f64);
                    converge_once(
                        daemon,
                        inputs,
                        j,
                        due,
                        sync,
                        sessions,
                        pubs,
                        record,
                        publisher_spans,
                        replicas.as_deref_mut(),
                    )
                },
                past_deadline,
            );
        });
    });
    Timed {
        reads,
        pubs,
        record,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// One timed read: the request for key `inputs.reads[i]`, its verdict
/// parsed and recorded. Returns when the last reply byte arrived.
fn read_once(
    inputs: &Inputs,
    i: usize,
    due: Instant,
    conn: &mut HttpConn,
    log: &mut ReadLog,
    spans: &mut Spans,
    responses: Option<&[QueryResponse]>,
) -> Instant {
    let sent = Instant::now();
    let key = inputs.reads[i];
    let exchanged = conn.exchange(&inputs.requests[key]);
    let done = Instant::now();
    let verdict = exchanged
        .ok()
        .filter(|(status, _)| *status == 200)
        .and_then(|(_, body)| parse_verdict(&body));
    let Some(v) = verdict else {
        log.failed += 1;
        return done;
    };
    let rtt_us = (done - sent).as_secs_f64() * 1e6;
    log.latency_us.push((done - due).as_secs_f64() * 1e6);
    log.service_us.push(v.latency_us as f64);
    log.wire_us.push(rtt_us - v.latency_us as f64);
    let first = log
        .verdicts
        .entry((v.epoch_serial, key))
        .or_insert_with(|| v.result.clone());
    if *first != v.result {
        log.inconsistent += 1;
    }
    if let Some(responses) = responses {
        let timing = Timing { due, sent, done };
        replay_http(
            spans,
            i as u64,
            timing,
            v.latency_us,
            &inputs.requests[key],
            &responses[key],
        );
    }
    done
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer metric that comes from the logs, the counters and the
/// replayed spans.
fn put_layers(
    report: &mut Report,
    reads: &ReadLog,
    pubs: &PublishLog,
    (before, after): (&Counters, &Counters),
    (reader_spans, publisher_spans): (&Spans, &Spans),
) {
    report.dist("daemon.wire_us.p50", "us", &reads.wire_us, 50.0);
    report.dist("daemon.wire_us.p99", "us", &reads.wire_us, 99.0);
    report.dist("daemon.sync_rtt_us.p50", "us", &pubs.rtt_us, 50.0);
    for (name, span) in [
        ("daemon.http.read_request_us", "daemon.http.read_request"),
        ("daemon.json.parse_us", "daemon.json.parse"),
        ("daemon.json.render_us", "daemon.json.render"),
        ("daemon.http.write_us", "daemon.http.write"),
    ] {
        report.dist(name, "us", &reader_spans.durations_us(span), 50.0);
    }
    let http = after.http_requests - before.http_requests;
    report.put("daemon.http.requests", "count", http as f64, 1);
    let frames = after.sync_frames - before.sync_frames;
    report.put("daemon.sync.frames", "count", frames as f64, 1);
    // The daemon reports service time in whole µs.
    for (name, q) in [
        ("service.query_us.p50", 50.0),
        ("service.query_us.p99", 99.0),
    ] {
        let value = grouped_percentile(&reads.service_us, q).unwrap_or(0.0);
        report.put(name, "us", value, reads.service_us.len());
    }

    let d = |f: fn(&ServiceStats) -> u64| f(&after.stats) - f(&before.stats);
    let batches = d(|s| s.batches);
    let batch_mean = ratio(d(|s| s.batched_queries), batches);
    report.put(
        "service.pool.batch_mean",
        "queries",
        batch_mean,
        batches as usize,
    );
    let hits = d(|s| s.cache_hits);
    let lookups = hits + d(|s| s.cache_misses);
    report.put(
        "service.cache.hit_ratio",
        "ratio",
        ratio(hits, lookups),
        lookups as usize,
    );
    for (name, f) in [
        (
            "service.cache.carried",
            (|s| s.cache_carried) as fn(&ServiceStats) -> u64,
        ),
        ("service.cache.invalidated", |s| s.cache_invalidated),
        ("service.pool.incremental_applies", |s| {
            s.incremental_applies
        }),
        ("service.pool.model_rebuilds", |s| s.model_rebuilds),
    ] {
        report.put(name, "count", d(f) as f64, 1);
    }
    report.dist("service.epoch.publish_us.p50", "us", &pubs.publish_us, 50.0);
    report.dist("service.epoch.publish_us.p99", "us", &pubs.publish_us, 99.0);
    report.put(
        "service.epoch.changes",
        "count",
        mean(&pubs.changes),
        pubs.changes.len(),
    );
    let handle = publisher_spans.durations_us("service.sync.handle");
    report.dist("service.sync.handle_us", "us", &handle, 50.0);
    let reverified = after.reverify.reverified - before.reverify.reverified;
    let considered = reverified + after.reverify.skipped - before.reverify.skipped;
    let useful = ratio(reverified, considered);
    report.put(
        "service.sync.reverified_ratio",
        "ratio",
        useful,
        considered as usize,
    );

    report.dist("client.sync.apply_us", "us", &pubs.apply_us, 50.0);
    let (mut bytes, mut resets) = (0, 0);
    for (b, a) in before.client.iter().zip(&after.client) {
        bytes += a.bytes_received - b.bytes_received;
        resets += a.resets_applied - b.resets_applied;
    }
    report.put(
        "client.sync.bytes",
        "bytes",
        bytes as f64,
        after.client.len(),
    );
    report.put(
        "client.sync.resets",
        "count",
        resets as f64,
        after.client.len(),
    );

    let apply = publisher_spans.durations_us("core.incremental.apply");
    report.dist("core.incremental.apply_us", "us", &apply, 50.0);
    let affected = publisher_spans.durations_us("core.interest.affected");
    report.dist("core.interest.affected_us", "us", &affected, 50.0);
    let selected = mean(&pubs.selected_ratio);
    report.put(
        "core.interest.selected_ratio",
        "ratio",
        selected,
        pubs.selected_ratio.len(),
    );
    let answer = publisher_spans.durations_us("core.verify.answer");
    report.dist("core.verify.answer_us.p50", "us", &answer, 50.0);
    report.dist("core.verify.answer_us.p99", "us", &answer, 99.0);
}

/// One publish and the convergence of every session on it.
#[allow(clippy::too_many_arguments)]
fn converge_once(
    daemon: &Daemon,
    inputs: &Inputs,
    j: usize,
    due: Instant,
    sync: &mut SyncConn,
    sessions: &mut [SyncSession],
    log: &mut PublishLog,
    record: &mut Record,
    spans: &mut Spans,
    replicas: Option<&mut Replicas>,
) -> Instant {
    let service = daemon.service();
    let changes = &inputs.publishes[j];
    let op = j as u64;
    let publish_start = Instant::now();
    let published = service.try_publish_changes(changes, SimTime::from_millis(2 + op));
    let publish_end = Instant::now();
    let Ok(serial) = published else {
        log.failed += 1;
        return publish_end;
    };
    log.publish_us
        .push((publish_end - publish_start).as_secs_f64() * 1e6);
    if let Some(p) = service.store().provenance(serial) {
        log.changes.push((p.added + p.removed) as f64);
    }
    record.publishes.push((serial, changes.clone()));
    let mut exchanges = Vec::with_capacity(sessions.len());
    let mut ok = true;
    for (session, client) in sessions.iter_mut().zip(&inputs.sessions) {
        // One exchange normally converges; a failed apply resets the
        // session and the next exchange re-synchronises it.
        for _ in 0..3 {
            let t = Instant::now();
            log.exchanges += 1;
            let response = match sync.exchange(session, *client) {
                Ok(r) => r,
                Err(_) => {
                    ok = false;
                    break;
                }
            };
            let received = Instant::now();
            log.rtt_us.push((received - t).as_secs_f64() * 1e6);
            let applied = session.apply(&response);
            let end = Instant::now();
            log.apply_us.push((end - received).as_secs_f64() * 1e6);
            exchanges.push((t, received, end));
            match applied {
                Ok(()) => {
                    if let SyncPayload::Delta { reverified, .. } = &response.payload {
                        for r in reverified {
                            record.reverified.push((
                                response.serial,
                                *client,
                                r.spec.clone(),
                                r.result.clone(),
                            ));
                        }
                    }
                }
                Err(_) => {
                    ok = false;
                    session.desynchronise();
                }
            }
            if session.is_synchronised() && session.serial() >= serial {
                break;
            }
        }
        ok &= session.serial() == serial;
    }
    let done = Instant::now();
    if !ok {
        log.failed += 1;
        return done;
    }
    log.converge_ms.push((done - due).as_secs_f64() * 1e3);
    for session in sessions.iter() {
        record
            .convergences
            .push((serial, Fingerprint::of(session.digests())));
    }
    if spans.enabled() {
        let root = spans.record("convergence", due, done, None, op);
        spans.record("loadgen.lag", due, publish_start, root, op);
        let publish = spans.record("epoch.publish", publish_start, publish_end, root, op);
        let mut exchange_spans = Vec::with_capacity(exchanges.len());
        for (t, received, end) in exchanges {
            let ex = spans.record("sync.exchange", t, end, root, op);
            spans.record("client.sync.apply", received, end, ex, op);
            exchange_spans.push(ex);
        }
        if let Some(replicas) = replicas {
            replay_publish(
                daemon,
                inputs,
                replicas,
                changes,
                spans,
                publish,
                &exchange_spans,
                op,
                log,
            );
        }
    }
    done
}

/// Builds the traced run's replicas and times the cold answer of every
/// read key over the replica model.
fn build_replicas(daemon: &Daemon, inputs: &Inputs, spans: &mut Spans) -> Result<Replicas, String> {
    let topology = &inputs.topology;
    let replay = Replay::new(topology);
    let model = IncrementalModel::from_snapshot(topology.clone(), &replay.snapshot);
    let verifier = LogicalVerifier::new(
        topology.clone(),
        VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(topology),
        },
    );
    let mut index = InterestIndex::new(topology.clone());
    for (client, query) in &inputs.keys {
        index.register(*client, query);
    }
    for (i, client) in inputs.sessions.iter().chain(&inputs.shadows).enumerate() {
        for query in &inputs.standing[i % SESSIONS] {
            index.register(*client, query);
        }
    }
    for (client, query) in &inputs.keys {
        let mut evaluator = verifier.evaluator_with(&replay.snapshot, model.network_function());
        spans.time("core.verify.answer", None, 0, || {
            std::hint::black_box(evaluator.answer(*client, query))
        });
    }
    // Verdicts to re-render: the daemon's own answers (cache hits now).
    let responses = daemon
        .service()
        .try_query_all(&inputs.keys)
        .map_err(|e| format!("replica responses: {e}"))?;
    let mut shadow_sessions = vec![SyncSession::new(); inputs.shadows.len()];
    for (session, client) in shadow_sessions.iter_mut().zip(&inputs.shadows) {
        let response = daemon
            .sync_server()
            .try_handle(daemon.service(), &session.request(*client))
            .map_err(|e| format!("shadow reset: {e}"))?;
        session
            .apply(&response)
            .map_err(|e| format!("shadow reset: {e}"))?;
    }
    Ok(Replicas {
        verifier,
        replay,
        model,
        index,
        responses,
        shadow_sessions,
    })
}

/// Replays one publish through the replica layers as children of its
/// `epoch.publish` span, the answers of the read keys it affects as root
/// spans (the daemon pays them on later reads), and `SyncServer::handle`
/// for each shadow client as a child of the matching session's exchange.
#[allow(clippy::too_many_arguments)]
fn replay_publish(
    daemon: &Daemon,
    inputs: &Inputs,
    r: &mut Replicas,
    changes: &[rvaas::RuleChange],
    spans: &mut Spans,
    publish: Option<usize>,
    exchanges: &[Option<usize>],
    op: u64,
    log: &mut PublishLog,
) {
    r.replay.apply(changes, SimTime::from_millis(2 + op));
    let region = spans.time("core.incremental.apply", publish, op, || {
        r.model.apply(changes)
    });
    let affected = spans.time("core.interest.affected", publish, op, || {
        r.index.affected(&region)
    });
    log.selected_ratio.push(if affected.is_everything() {
        1.0
    } else {
        affected.len() as f64 / r.index.len().max(1) as f64
    });
    for (client, query) in &inputs.keys {
        if affected.is_affected(*client, query) {
            let (verifier, snapshot, model) = (&r.verifier, &r.replay.snapshot, &r.model);
            spans.time("core.verify.answer", None, op, || {
                let mut evaluator = verifier.evaluator_with(snapshot, model.network_function());
                std::hint::black_box(evaluator.answer(*client, query))
            });
        }
    }
    for (k, (session, client)) in r
        .shadow_sessions
        .iter_mut()
        .zip(&inputs.shadows)
        .enumerate()
    {
        let request = session.request(*client);
        let parent = exchanges.get(k).copied().flatten();
        let handled = spans.time("service.sync.handle", parent, op, || {
            daemon.sync_server().try_handle(daemon.service(), &request)
        });
        if let Ok(response) = handled {
            if session.apply(&response).is_err() {
                session.desynchronise();
            }
        }
    }
}

/// Replays one round trip's request and response bytes through the
/// daemon's HTTP and JSON layers, as children of its round-trip span.
fn replay_http(
    spans: &mut Spans,
    op: u64,
    t: Timing,
    service_us: u64,
    request: &[u8],
    response: &QueryResponse,
) {
    let Timing { due, sent, done } = t;
    let root = spans.record("http.round_trip", due, done, None, op);
    spans.record("loadgen.lag", due, sent, root, op);
    // The daemon reports the service time, not its position: the span is
    // placed at the send time.
    spans.record(
        "service.query",
        sent,
        sent + Duration::from_micros(service_us),
        root,
        op,
    );
    let parsed = spans.time("daemon.http.read_request", root, op, || {
        std::hint::black_box(http::read_request(&mut Cursor::new(request)))
    });
    let body = parsed.ok().flatten().map(|r| r.body).unwrap_or_default();
    spans.time("daemon.json.parse", root, op, || {
        std::hint::black_box(json::parse_query_request(&body)).is_ok()
    });
    let rendered = spans.time("daemon.json.render", root, op, || {
        json::render_response(response)
    });
    spans.time("daemon.http.write", root, op, || {
        let mut out = Vec::with_capacity(rendered.len() + 128);
        let _ = HttpResponse::json(200, rendered).write_to(&mut out, true);
        std::hint::black_box(out)
    });
}

/// One capacity-ladder step: `LADDER_STEP_REQUESTS` reads offered at
/// `rate` over two connections, stopped early once more than 1% of them
/// are certain to miss the limit.
fn ladder_step(addr: SocketAddr, inputs: &Inputs, rate: f64) -> StepOutcome {
    let per_conn = LADDER_STEP_REQUESTS / CONNECTIONS;
    let interval = Duration::from_secs_f64(CONNECTIONS as f64 / rate);
    let over = AtomicUsize::new(0);
    let budget = LADDER_STEP_REQUESTS / 100;
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + interval.mul_f64(per_conn as f64) + DEADLINE_GRACE / 12;
    let results: Vec<(Vec<Timing>, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let over = &over;
                scope.spawn(move || {
                    let Ok(mut conn) = HttpConn::connect(addr) else {
                        return (Vec::new(), false);
                    };
                    let offset = Duration::from_secs_f64(c as f64 / rate);
                    let conn_start = start + offset;
                    let mut failed = false;
                    let timings = run_open_loop(
                        conn_start,
                        interval,
                        per_conn,
                        |i| {
                            let due = conn_start + interval.mul_f64(i as f64);
                            let key = inputs.reads[(i * CONNECTIONS + c) % inputs.reads.len()];
                            let ok = matches!(conn.exchange(&inputs.requests[key]), Ok((200, _)));
                            let done = Instant::now();
                            if !ok || done - due > LATENCY_LIMIT {
                                over.fetch_add(1, Ordering::Relaxed);
                            }
                            failed |= !ok;
                            done
                        },
                        || over.load(Ordering::Relaxed) > budget || Instant::now() > deadline,
                    );
                    (timings, !failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut latencies = Vec::new();
    let mut no_failures = true;
    let mut steady = true;
    for (timings, ok) in &results {
        no_failures &= ok;
        latencies.extend(timings.iter().map(|t| t.latency().as_secs_f64() * 1e6));
        // A growing backlog shows as the last request going out late.
        steady &= timings.len() == per_conn
            && timings
                .last()
                .is_some_and(|t| t.sent.saturating_duration_since(t.due) <= LATENCY_LIMIT);
    }
    let p99 = percentile(&latencies, 99.0).unwrap_or(f64::INFINITY);
    StepOutcome {
        p99_within_limit: latencies.len() == LADDER_STEP_REQUESTS
            && p99 <= LATENCY_LIMIT.as_secs_f64() * 1e6,
        steady,
        no_failures,
    }
}

/// Peak resident set size of this process (`VmHWM`), in kB.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// User plus system CPU time of this process, in seconds (Linux
/// `/proc/self/stat`, clock ticks of 1/100 s).
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// The end-to-end metric names, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "query_p50_us",
    "query_p99_us",
    "converge_p50_ms",
    "converge_p90_ms",
    "rss_peak_mb",
];
