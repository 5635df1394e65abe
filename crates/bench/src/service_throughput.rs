//! Experiment S1 — service-plane throughput.
//!
//! Measures the `rvaas-service` verification plane on one workload:
//!
//! * **inline baseline** — the seed architecture: every query answered
//!   sequentially by `LogicalVerifier::answer`, rebuilding the HSA model per
//!   query;
//! * **worker scaling** — the pool at 1/2/4 workers with the result cache
//!   disabled (queries/sec, p50/p99 latency). Thread scaling only shows on
//!   multi-core hosts, so the report records the core count alongside;
//! * **cache behaviour** — hit rate as epoch churn increases;
//! * **delta sync** — bytes on the wire for a delta vs. a full resend under
//!   ~10% rule churn.
//!
//! Writes the machine-readable trajectory to `BENCH_service.json` so future
//! PRs have a number to beat.

use std::time::Instant;

use rvaas::{LocationMap, LogicalVerifier, VerifierConfig};
use rvaas_client::{SyncPayload, SyncResponse, SyncSession};
use rvaas_service::{ServiceSettings, SyncServer, VerificationService};
use rvaas_topology::{generators, Topology};
use rvaas_types::{ClientId, SimTime};
use rvaas_workloads::{
    benign_snapshot, churn_round, clients_of, round_robin_workload, run_service_load,
    ServiceLoadConfig, ServiceLoadReport,
};

/// One pooled configuration's measurements.
#[derive(Debug, Clone)]
pub struct PoolPoint {
    /// Worker threads.
    pub workers: usize,
    /// The load report.
    pub report: ServiceLoadReport,
}

/// Everything experiment S1 measured.
#[derive(Debug, Clone)]
pub struct ServiceThroughputReport {
    /// Topology label.
    pub topology: String,
    /// Distinct clients in the workload.
    pub clients: usize,
    /// Queries issued per pooled configuration.
    pub queries: usize,
    /// Sequential seed-architecture baseline, queries/sec.
    pub inline_qps: f64,
    /// Pooled measurements (cache disabled), by worker count.
    pub pool: Vec<PoolPoint>,
    /// `(churn rules per round, cache hit rate)` with the cache enabled.
    pub cache_by_churn: Vec<(usize, f64)>,
    /// Installed rules when the sync measurement ran.
    pub sync_rules: usize,
    /// Digest changes (adds + removes) in the measured delta.
    pub sync_changed: usize,
    /// Encoded size of the delta response.
    pub sync_delta_bytes: usize,
    /// Encoded size of the equivalent full resend.
    pub sync_full_bytes: usize,
    /// Queries/sec with the flight recorder on (the shipped default).
    pub recorder_on_qps: f64,
    /// Queries/sec with the flight recorder disabled.
    pub recorder_off_qps: f64,
    /// Cores visible to this process (thread scaling context).
    pub host_cores: usize,
    /// Whether the reduced smoke-mode workload was measured (CI); smoke
    /// numbers must not be mistaken for the committed full-size trajectory.
    pub smoke: bool,
}

fn verifier_config(topology: &Topology) -> VerifierConfig {
    VerifierConfig {
        use_history: false,
        locations: LocationMap::disclosed(topology),
    }
}

fn measure_inline(topology: &Topology, queries: usize) -> f64 {
    let snapshot = benign_snapshot(topology);
    let verifier = LogicalVerifier::new(topology.clone(), verifier_config(topology));
    // The same round-robin workload `run_service_load` answers, so the
    // inline baseline and the pooled runs are directly comparable.
    let workload = round_robin_workload(topology, queries);
    let started = Instant::now();
    for (client, spec) in &workload {
        // The seed's query path: one full answer per query, no shared state.
        let _ = verifier.answer(&snapshot, *client, spec);
    }
    workload.len() as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

/// Measures flight-recorder overhead: the same pooled load with tracing
/// on (the shipped default) vs off. The arms are interleaved so host
/// drift (thermal, cache warmth) lands on both equally; the recorder is
/// left enabled afterwards — default-on is the configuration we ship, so
/// the overhead must stay measured and gated, not assumed.
fn measure_recorder_overhead(
    topology: &Topology,
    rounds: usize,
    queries_per_round: usize,
) -> (f64, f64) {
    let recorder = rvaas_telemetry::trace::recorder();
    let config = ServiceLoadConfig {
        workers: 4,
        cache_enabled: false,
        rounds,
        queries_per_round,
        churn_rules_per_round: 0,
    };
    let mut on_qps = 0.0;
    let mut off_qps = 0.0;
    for _ in 0..2 {
        recorder.set_enabled(true);
        on_qps += run_service_load(topology, &config).queries_per_sec;
        recorder.set_enabled(false);
        off_qps += run_service_load(topology, &config).queries_per_sec;
    }
    recorder.set_enabled(true);
    (on_qps / 2.0, off_qps / 2.0)
}

fn measure_sync(topology: &Topology) -> (usize, usize, usize, usize) {
    let service = VerificationService::new(
        topology.clone(),
        ServiceSettings {
            workers: 1,
            ..ServiceSettings::default()
        }
        .into_config(verifier_config(topology)),
    );
    let mut snapshot = benign_snapshot(topology);
    // Seed churn round 0 before the client's baseline so the measured round
    // both installs round-1 rules and removes round-0 ones — without this
    // the removals would no-op and the "churn" would be additions only.
    let baseline_count = (benign_snapshot(topology).rule_count() / 20).max(1);
    churn_round(&mut snapshot, 0, baseline_count, SimTime::from_millis(1));
    service
        .try_publish(&snapshot, SimTime::from_millis(1))
        .expect("epoch publish");
    let server = SyncServer::new(service.store(), 7, &service.registry());
    let mut session = SyncSession::new();
    session
        .apply(
            &server
                .try_handle(&service, &session.request(ClientId(1)))
                .expect("sync answers"),
        )
        .expect("initial reset applies");
    let rules = session.digests().len();

    // ~10% churn: round 1 adds `baseline_count` digests and removes the
    // round-0 ones, i.e. 2 * count changed entries.
    churn_round(&mut snapshot, 1, baseline_count, SimTime::from_millis(2));
    service
        .try_publish(&snapshot, SimTime::from_millis(2))
        .expect("epoch publish");

    let delta = server
        .try_handle(&service, &session.request(ClientId(1)))
        .expect("sync answers");
    let SyncPayload::Delta { added, removed, .. } = &delta.payload else {
        panic!("expected a delta under churn, got {delta:?}");
    };
    let changed = added.len() + removed.len();
    let full = SyncResponse {
        session: delta.session,
        serial: delta.serial,
        payload: SyncPayload::Reset {
            full: service.store().current().digests.iter().copied().collect(),
        },
        trace: 0,
    };
    let (delta_bytes, full_bytes) = (delta.encoded_len(), full.encoded_len());
    session.apply(&delta).expect("delta applies");
    assert_eq!(
        session.digests(),
        &service.store().current().digests,
        "mirror must converge after the delta"
    );
    (rules, changed, delta_bytes, full_bytes)
}

/// Runs the full measurement over `topology`.
#[must_use]
pub fn measure(
    topology: &Topology,
    label: &str,
    rounds: usize,
    queries_per_round: usize,
) -> ServiceThroughputReport {
    let clients = clients_of(topology).len();
    let inline_qps = measure_inline(topology, queries_per_round);

    let pool: Vec<PoolPoint> = [1usize, 2, 4]
        .into_iter()
        .map(|workers| PoolPoint {
            workers,
            report: run_service_load(
                topology,
                &ServiceLoadConfig {
                    workers,
                    cache_enabled: false,
                    rounds,
                    queries_per_round,
                    churn_rules_per_round: 0,
                },
            ),
        })
        .collect();

    let rule_count = benign_snapshot(topology).rule_count();
    let cache_by_churn: Vec<(usize, f64)> =
        [0usize, (rule_count / 20).max(1), (rule_count / 6).max(2)]
            .into_iter()
            .map(|churn| {
                let report = run_service_load(
                    topology,
                    &ServiceLoadConfig {
                        workers: 4,
                        cache_enabled: true,
                        rounds: rounds.max(3),
                        queries_per_round,
                        churn_rules_per_round: churn,
                    },
                );
                (churn, report.cache_hit_rate)
            })
            .collect();

    let (sync_rules, sync_changed, sync_delta_bytes, sync_full_bytes) = measure_sync(topology);
    let (recorder_on_qps, recorder_off_qps) =
        measure_recorder_overhead(topology, rounds, queries_per_round);

    ServiceThroughputReport {
        topology: label.to_string(),
        clients,
        queries: rounds * queries_per_round,
        inline_qps,
        pool,
        cache_by_churn,
        sync_rules,
        sync_changed,
        sync_delta_bytes,
        sync_full_bytes,
        recorder_on_qps,
        recorder_off_qps,
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        smoke: crate::incremental_churn::smoke_mode(),
    }
}

impl ServiceThroughputReport {
    /// Recorder-on throughput as a fraction of recorder-off: 1.0 means the
    /// flight recorder is free; CI gates this from falling below 0.9.
    #[must_use]
    pub fn recorder_ratio(&self) -> f64 {
        self.recorder_on_qps / self.recorder_off_qps.max(1e-9)
    }

    /// Queries/sec of the pooled configuration with `workers` threads.
    #[must_use]
    pub fn pool_qps(&self, workers: usize) -> f64 {
        self.pool
            .iter()
            .find(|p| p.workers == workers)
            .map_or(0.0, |p| p.report.queries_per_sec)
    }

    /// The human-readable table.
    #[must_use]
    pub fn rows(&self) -> Vec<String> {
        let mut rows = vec![
            "# S1 — service-plane throughput (epoch store + worker pool + delta sync)".to_string(),
            format!(
                "workload: {} | clients={} | queries={} | host_cores={}",
                self.topology, self.clients, self.queries, self.host_cores
            ),
            "config | qps | p50_us | p95_us | p99_us | speedup_vs_inline".to_string(),
            format!("inline(seed) | {:.0} | - | - | - | 1.00", self.inline_qps),
        ];
        for point in &self.pool {
            rows.push(format!(
                "pool({}w) | {:.0} | {} | {} | {} | {:.2}",
                point.workers,
                point.report.queries_per_sec,
                point.report.p50_latency.as_micros(),
                point.report.p95_latency.as_micros(),
                point.report.p99_latency.as_micros(),
                point.report.queries_per_sec / self.inline_qps.max(1e-9),
            ));
        }
        rows.push(format!(
            "speedup pool(4w)/pool(1w) = {:.2} (thread scaling; host has {} core(s))",
            self.pool_qps(4) / self.pool_qps(1).max(1e-9),
            self.host_cores
        ));
        rows.push(format!(
            "flight recorder: on={:.0} qps | off={:.0} qps | ratio={:.3} (default-on overhead)",
            self.recorder_on_qps,
            self.recorder_off_qps,
            self.recorder_ratio()
        ));
        rows.push("churn_rules_per_round | cache_hit_rate".to_string());
        for (churn, hit_rate) in &self.cache_by_churn {
            rows.push(format!("{churn} | {hit_rate:.2}"));
        }
        rows.push(format!(
            "delta sync @ ~10% churn: {} rules, {} changed, delta={} B vs full={} B ({:.1}% of full)",
            self.sync_rules,
            self.sync_changed,
            self.sync_delta_bytes,
            self.sync_full_bytes,
            100.0 * self.sync_delta_bytes as f64 / self.sync_full_bytes as f64,
        ));
        rows
    }

    /// The machine-readable trajectory.
    #[must_use]
    pub fn to_json(&self) -> String {
        let pool: Vec<String> = self
            .pool
            .iter()
            .map(|p| {
                format!(
                    "{{\"workers\":{},\"qps\":{:.1},\"latency_p50_us\":{},\"latency_p95_us\":{},\"latency_p99_us\":{},\"batches\":{}}}",
                    p.workers,
                    p.report.queries_per_sec,
                    p.report.p50_latency.as_micros(),
                    p.report.p95_latency.as_micros(),
                    p.report.p99_latency.as_micros(),
                    p.report.batches,
                )
            })
            .collect();
        let cache: Vec<String> = self
            .cache_by_churn
            .iter()
            .map(|(churn, rate)| {
                format!("{{\"churn_rules_per_round\":{churn},\"hit_rate\":{rate:.4}}}")
            })
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"experiment\": \"service_throughput\",\n",
                "  \"topology\": \"{}\",\n",
                "  \"clients\": {},\n",
                "  \"queries\": {},\n",
                "  \"smoke\": {},\n",
                "  \"host_cores\": {},\n",
                "  \"inline_baseline_qps\": {:.1},\n",
                "  \"pool\": [{}],\n",
                "  \"speedup_4w_vs_1w\": {:.3},\n",
                "  \"speedup_4w_vs_inline\": {:.3},\n",
                "  \"cache\": [{}],\n",
                "  \"recorder\": {{\"on_qps\": {:.1}, \"off_qps\": {:.1}, \"ratio\": {:.4}}},\n",
                "  \"delta_sync\": {{\"rules\": {}, \"changed\": {}, \"delta_bytes\": {}, \"full_bytes\": {}, \"delta_over_full\": {:.4}}}\n",
                "}}\n",
            ),
            self.topology,
            self.clients,
            self.queries,
            self.smoke,
            self.host_cores,
            self.inline_qps,
            pool.join(","),
            self.pool_qps(4) / self.pool_qps(1).max(1e-9),
            self.pool_qps(4) / self.inline_qps.max(1e-9),
            cache.join(","),
            self.recorder_on_qps,
            self.recorder_off_qps,
            self.recorder_ratio(),
            self.sync_rules,
            self.sync_changed,
            self.sync_delta_bytes,
            self.sync_full_bytes,
            self.sync_delta_bytes as f64 / self.sync_full_bytes as f64,
        )
    }
}

/// Runs experiment S1 on the standard workload and writes
/// `BENCH_service.json` next to the working directory.
pub fn exp_s1_service_throughput() -> Vec<String> {
    let topology = generators::fat_tree(4, 8);
    // Smoke mode (CI) shrinks the workload; the JSON carries a `smoke` flag
    // so reduced runs cannot masquerade as the committed trajectory.
    let (rounds, queries) = if crate::incremental_churn::smoke_mode() {
        (2, 48)
    } else {
        (4, 192)
    };
    let report = measure(&topology, "fat_tree(4) x 8 clients", rounds, queries);
    let json = report.to_json();
    let path = "BENCH_service.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("(wrote {path})"),
        Err(err) => eprintln!("(could not write {path}: {err})"),
    }
    report.rows()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_measurement_produces_consistent_report() {
        let topology = generators::line(6, 3);
        let report = measure(&topology, "line(6) x 3 clients", 1, 18);
        assert_eq!(report.clients, 3);
        assert!(report.inline_qps > 0.0);
        assert_eq!(report.pool.len(), 3);
        for point in &report.pool {
            assert_eq!(point.report.responses, 18);
            assert!(point.report.queries_per_sec > 0.0);
        }
        // The delta must beat the full resend at ~10% churn — the core
        // bandwidth claim of the sync protocol.
        assert!(report.sync_delta_bytes < report.sync_full_bytes);
        assert!(report.recorder_on_qps > 0.0);
        assert!(report.recorder_off_qps > 0.0);
        assert!(
            rvaas_telemetry::trace::recorder().is_enabled(),
            "the measurement must leave the recorder in its default-on state"
        );
        let json = report.to_json();
        assert!(json.contains("\"experiment\": \"service_throughput\""));
        assert!(json.contains("\"delta_sync\""));
        assert!(json.contains("\"recorder\""));
        let rows = report.rows();
        assert!(rows.iter().any(|r| r.starts_with("inline(seed)")));
    }
}
