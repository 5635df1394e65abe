//! The query scheduler and sharded worker pool.
//!
//! Incoming queries are sharded across `N` OS-thread workers by client, so
//! one client's standing queries always land on the same worker (maximising
//! evaluator and cache locality). Each worker drains its queue into a batch
//! and answers the whole batch through **one** [`rvaas::QueryEvaluator`]:
//! per-host traversals are shared between every query in it.
//!
//! Each worker owns a long-lived [`rvaas::IncrementalModel`]: instead of
//! rebuilding the HSA network function from the snapshot for every batch,
//! the worker applies the rule-level deltas between the epoch it last
//! answered at and the epoch the batch runs against — `O(delta)` per epoch
//! advance — and falls back to a full rebuild only when the delta history
//! has been evicted (or the incremental engine is disabled /
//! history-mode verification is on).
//!
//! Workers always answer against the epoch that was current when their
//! batch started; the monitor can keep publishing new epochs concurrently
//! without blocking them (see [`crate::epoch::EpochStore`]).

use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rvaas::{IncrementalModel, LogicalVerifier, NetworkSnapshot, RuleChange};
use rvaas_client::{QueryResult, QuerySpec};
use rvaas_telemetry::{Counter, Gauge, Histogram, Registry, TraceContext, TraceId, TraceStage};
use rvaas_topology::Topology;
use rvaas_types::{ClientId, SimTime};

use crate::cache::ResultCache;
use crate::config::ServiceConfig;
use crate::epoch::{EpochStore, Published, SnapshotEpoch};
use crate::error::ServiceError;

/// Upper bound on how many queued queries one worker folds into a batch.
const MAX_BATCH: usize = 64;

/// A completed query, as delivered back to the submitter.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The querying client.
    pub client: ClientId,
    /// The query.
    pub spec: QuerySpec,
    /// The verification result.
    pub result: QueryResult,
    /// The epoch serial the result was computed against.
    pub epoch_serial: u64,
    /// Wall-clock time from submission to completion.
    pub latency: Duration,
    /// Flight-recorder trace id of this query's event chain (minted at
    /// ingress, echoed back so the submitter can fetch the chain).
    pub trace: TraceId,
}

struct QueryJob {
    client: ClientId,
    spec: QuerySpec,
    submitted: Instant,
    trace: TraceContext,
    reply: mpsc::Sender<QueryResponse>,
}

enum WorkerMsg {
    Query(QueryJob),
    Shutdown,
}

/// A pending query's completion handle.
#[derive(Debug)]
struct QueryTicket {
    rx: mpsc::Receiver<QueryResponse>,
}

impl QueryTicket {
    /// Blocks until the worker delivers the response; a service that shut
    /// down before answering reports [`ServiceError::QueryDropped`].
    fn wait(self) -> Result<QueryResponse, ServiceError> {
        self.rx.recv().map_err(|_| ServiceError::QueryDropped)
    }
}

/// Handles into the shared metric [`Registry`], fetched once at service
/// construction so the hot path (worker loops, submit) records through pure
/// atomics and never touches the registry's mutex.
struct ServiceMetrics {
    queries: Arc<Counter>,
    batches: Arc<Counter>,
    batched_queries: Arc<Counter>,
    epochs_published: Arc<Counter>,
    incremental_applies: Arc<Counter>,
    model_rebuilds: Arc<Counter>,
    delta_rules_applied: Arc<Counter>,
    shadow_bulk_rebuilds: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    workers: Arc<Gauge>,
    epoch_serial: Arc<Gauge>,
    query_latency: Arc<Histogram>,
    epoch_delta_rules: Arc<Histogram>,
    stage_model_sync: Arc<Histogram>,
    stage_eval: Arc<Histogram>,
    stage_publish: Arc<Histogram>,
    stage_cache_advance: Arc<Histogram>,
}

impl ServiceMetrics {
    fn new(registry: &Registry) -> Self {
        ServiceMetrics {
            queries: registry.counter(
                "rvaas_queries_total",
                "Queries answered (cached or computed).",
            ),
            batches: registry.counter("rvaas_batches_total", "Batches executed by workers."),
            batched_queries: registry.counter(
                "rvaas_batched_queries_total",
                "Queries answered as part of a batch of two or more.",
            ),
            epochs_published: registry.counter(
                "rvaas_epoch_publishes_total",
                "Epochs published through the service.",
            ),
            incremental_applies: registry.counter(
                "rvaas_incremental_applies_total",
                "Worker-model epoch advances served by applying a delta in place.",
            ),
            model_rebuilds: registry.counter(
                "rvaas_model_rebuilds_total",
                "Worker-model epoch advances that fell back to a full rebuild.",
            ),
            delta_rules_applied: registry.counter(
                "rvaas_delta_rules_applied_total",
                "Rule-level changes applied across all incremental advances.",
            ),
            shadow_bulk_rebuilds: registry.counter(
                "rvaas_shadow_bulk_rebuilds_total",
                "Publishes whose shadow model took the bulk-rebuild path (unbounded changed region).",
            ),
            queue_depth: registry.gauge(
                "rvaas_queue_depth",
                "Queries submitted but not yet answered.",
            ),
            workers: registry.gauge("rvaas_workers", "Worker threads in the pool."),
            epoch_serial: registry.gauge("rvaas_epoch_serial", "Serial of the current epoch."),
            query_latency: registry.histogram(
                "rvaas_query_latency_us",
                "Wall-clock query latency from submission to completion, in microseconds.",
            ),
            epoch_delta_rules: registry.histogram(
                "rvaas_epoch_delta_rules",
                "Rule-level size (added + removed) of each published epoch delta.",
            ),
            stage_model_sync: registry.stage_histogram("pool.model_sync"),
            stage_eval: registry.stage_histogram("pool.eval"),
            stage_publish: registry.stage_histogram("epoch.publish"),
            stage_cache_advance: registry.stage_histogram("cache.advance"),
        }
    }
}

/// A point-in-time copy of the service counters — a thin snapshot view over
/// the shared metric registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceStats {
    /// Queries answered (cached or computed).
    pub queries: u64,
    /// Batches executed by workers.
    pub batches: u64,
    /// Queries answered as part of a batch of two or more.
    pub batched_queries: u64,
    /// Epochs published through the service.
    pub epochs_published: u64,
    /// Worker-model epoch advances served by applying a delta in place.
    pub incremental_applies: u64,
    /// Worker-model epoch advances that fell back to a full rebuild.
    pub model_rebuilds: u64,
    /// Rule-level changes applied across all incremental advances.
    pub delta_rules_applied: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache entries carried across epoch advances (unaffected by
    /// the delta).
    pub cache_carried: u64,
    /// Result-cache entries invalidated by epoch advances.
    pub cache_invalidated: u64,
    /// Cache hit rate in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Number of worker threads.
    pub workers: usize,
    /// Median query latency in microseconds (0 until a query completes).
    pub latency_p50_us: u64,
    /// 95th-percentile query latency in microseconds.
    pub latency_p95_us: u64,
    /// 99th-percentile query latency in microseconds.
    pub latency_p99_us: u64,
}

/// The standalone verification service: epoch store + worker pool + cache.
pub struct VerificationService {
    topology: Topology,
    incremental: bool,
    store: Arc<EpochStore>,
    cache: Arc<ResultCache>,
    registry: Arc<Registry>,
    metrics: Arc<ServiceMetrics>,
    senders: Vec<mpsc::Sender<WorkerMsg>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for VerificationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerificationService")
            .field("workers", &self.workers.len())
            .field("incremental", &self.incremental)
            .field("current_serial", &self.store.current().serial)
            .finish()
    }
}

impl VerificationService {
    /// Starts the service over the trusted `topology`, with a fresh metric
    /// registry of its own ([`VerificationService::registry`]).
    #[must_use]
    pub fn new(topology: Topology, config: ServiceConfig) -> Self {
        let registry = Registry::shared();
        // Shape the process-global flight recorder before the first event;
        // the slow-query threshold additionally applies live.
        rvaas_telemetry::trace::configure(
            config.settings.trace_ring_capacity,
            config.settings.slow_query_threshold_us,
        );
        let store = Arc::new(EpochStore::new(
            config.settings.max_delta_history.max(1),
            topology.clone(),
            &registry,
        ));
        let cache = Arc::new(ResultCache::new(config.settings.cache, &registry));
        let metrics = Arc::new(ServiceMetrics::new(&registry));
        // History-mode verification folds recently *removed* rules into the
        // model; the incremental mirror tracks only installed state, so that
        // mode keeps the rebuild path.
        let incremental = config.settings.incremental && !config.verifier.use_history;
        let worker_count = config.settings.workers.max(1);
        metrics.workers.set(worker_count as i64);
        let mut senders = Vec::with_capacity(worker_count);
        let mut workers = Vec::with_capacity(worker_count);
        for index in 0..worker_count {
            let (tx, rx) = mpsc::channel::<WorkerMsg>();
            let mut model = IncrementalModel::new(topology.clone());
            model.attach_telemetry(&registry);
            let context = WorkerContext {
                verifier: LogicalVerifier::new(topology.clone(), config.verifier.clone()),
                model,
                model_serial: 0,
                incremental,
                store: Arc::clone(&store),
                cache: Arc::clone(&cache),
                metrics: Arc::clone(&metrics),
            };
            let handle = std::thread::Builder::new()
                .name(format!("rvaas-verify-{index}"))
                .spawn(move || worker_loop(&rx, context))
                .expect("spawning verification worker");
            senders.push(tx);
            workers.push(handle);
        }
        VerificationService {
            topology,
            incremental,
            store,
            cache,
            registry,
            metrics,
            senders,
            workers,
        }
    }

    /// The epoch store (shared with the sync server).
    #[must_use]
    pub fn store(&self) -> Arc<EpochStore> {
        Arc::clone(&self.store)
    }

    /// The metric registry every layer of this service records into; render
    /// it with [`Registry::render_text`] to serve `/metrics`.
    #[must_use]
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The trusted topology the service verifies against.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Whether the incremental verification engine is active.
    #[must_use]
    pub fn incremental_enabled(&self) -> bool {
        self.incremental
    }

    /// The current epoch serial.
    #[must_use]
    pub fn current_serial(&self) -> u64 {
        self.store.current().serial
    }

    /// Live result-cache entries (the `/v1/status` health snapshot reports
    /// this).
    #[must_use]
    pub fn cache_entries(&self) -> usize {
        self.cache.len()
    }

    /// Number of worker threads in the pool.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.senders.len()
    }

    /// Publishes `snapshot` as the next epoch; in-flight queries keep
    /// answering against the epoch they started with. Cached results the
    /// delta cannot affect stay valid (when the incremental engine is on);
    /// the rest are invalidated.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::PublishRejected`] when the epoch store cannot
    /// accept another epoch.
    pub fn try_publish(
        &self,
        snapshot: &NetworkSnapshot,
        at: SimTime,
    ) -> Result<u64, ServiceError> {
        self.metrics.epochs_published.inc();
        let published = {
            let _span = self.metrics.stage_publish.span(TraceId::NONE);
            self.store.try_publish(snapshot.clone(), at)?
        };
        self.finish_publish(&published);
        Ok(published.serial)
    }

    /// Publishes a rule-level delta as the next epoch — the monitor's
    /// [`drain_changes`] output goes straight here, skipping the full-snapshot
    /// re-digest of [`VerificationService::try_publish`].
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::PublishRejected`] when the epoch store cannot
    /// accept another epoch.
    ///
    /// [`drain_changes`]: rvaas::ConfigMonitor::drain_changes
    pub fn try_publish_changes(
        &self,
        changes: &[RuleChange],
        at: SimTime,
    ) -> Result<u64, ServiceError> {
        self.metrics.epochs_published.inc();
        let published = {
            let _span = self.metrics.stage_publish.span(TraceId::NONE);
            self.store.try_publish_changes(changes, at)?
        };
        self.finish_publish(&published);
        Ok(published.serial)
    }

    /// Post-publish bookkeeping shared by both publish paths: metrics plus
    /// the cache advance driven by the interest-space index's selection.
    fn finish_publish(&self, published: &Published) {
        self.metrics
            .epoch_serial
            .set(i64::try_from(published.serial).unwrap_or(i64::MAX));
        self.metrics
            .epoch_delta_rules
            .record(published.delta_rules as u64);
        if published.bulk_rebuild {
            self.metrics.shadow_bulk_rebuilds.inc();
        }
        let _span = self.metrics.stage_cache_advance.span(published.trace);
        let before = self.cache.stats();
        if self.incremental {
            // Workers register every query in the interest index before
            // caching it, so the index's selection covers every cached
            // entry — an O(affected) test instead of the linear
            // query_affected scan per entry.
            let affected = &published.affected;
            self.cache.advance(published.serial, |client, spec| {
                affected.is_affected(client, spec)
            });
        } else {
            self.cache.advance(published.serial, |_, _| true);
        }
        let after = self.cache.stats();
        TraceContext::from_id(published.trace.0).event(
            TraceStage::CacheCarry,
            after.carried.saturating_sub(before.carried),
            after.invalidated.saturating_sub(before.invalidated),
        );
    }

    /// Enqueues a query on its client's worker shard under `trace`. Fails
    /// with [`ServiceError::PoolUnavailable`] if the shard's worker has hung
    /// up (the service is shutting down or the thread died).
    fn try_submit(
        &self,
        client: ClientId,
        spec: QuerySpec,
        trace: TraceContext,
    ) -> Result<QueryTicket, ServiceError> {
        let (tx, rx) = mpsc::channel();
        self.metrics.queue_depth.inc();
        let shard = client.0 as usize % self.senders.len();
        trace.event(TraceStage::Dispatch, u64::from(client.0), shard as u64);
        if self.senders[shard]
            .send(WorkerMsg::Query(QueryJob {
                client,
                spec,
                submitted: Instant::now(),
                trace,
                reply: tx,
            }))
            .is_err()
        {
            self.metrics.queue_depth.dec();
            return Err(ServiceError::PoolUnavailable {
                context: "query submit",
            });
        }
        Ok(QueryTicket { rx })
    }

    /// Submits one query under `trace` and waits for the response. Ingress
    /// layers mint the trace first, so their ingress event leads the chain;
    /// other callers pass [`TraceContext::mint`].
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::PoolUnavailable`] or
    /// [`ServiceError::QueryDropped`] when the pool cannot answer (the
    /// service is shutting down or a worker died).
    pub fn try_query(
        &self,
        client: ClientId,
        spec: QuerySpec,
        trace: TraceContext,
    ) -> Result<QueryResponse, ServiceError> {
        self.try_submit(client, spec, trace)?.wait()
    }

    /// Submits a whole workload, each query on a fresh trace, and waits for
    /// every response (in submission order). Everything is submitted before
    /// waiting, so one worker answers the whole set as a batch; the call
    /// fails as a unit if the pool goes away.
    ///
    /// # Errors
    ///
    /// Returns the first [`ServiceError`] hit while submitting or waiting.
    pub fn try_query_all(
        &self,
        queries: &[(ClientId, QuerySpec)],
    ) -> Result<Vec<QueryResponse>, ServiceError> {
        let tickets: Vec<QueryTicket> = queries
            .iter()
            .map(|(client, spec)| self.try_submit(*client, spec.clone(), TraceContext::mint()))
            .collect::<Result<_, _>>()?;
        tickets.into_iter().map(QueryTicket::wait).collect()
    }

    /// A point-in-time copy of the activity counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let cache = self.cache.stats();
        let latency = self.metrics.query_latency.snapshot();
        ServiceStats {
            queries: self.metrics.queries.get(),
            batches: self.metrics.batches.get(),
            batched_queries: self.metrics.batched_queries.get(),
            epochs_published: self.metrics.epochs_published.get(),
            incremental_applies: self.metrics.incremental_applies.get(),
            model_rebuilds: self.metrics.model_rebuilds.get(),
            delta_rules_applied: self.metrics.delta_rules_applied.get(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_carried: cache.carried,
            cache_invalidated: cache.invalidated,
            cache_hit_rate: cache.hit_rate(),
            workers: self.workers.len(),
            latency_p50_us: latency.p50(),
            latency_p95_us: latency.p95(),
            latency_p99_us: latency.p99(),
        }
    }
}

impl Drop for VerificationService {
    fn drop(&mut self) {
        for sender in &self.senders {
            // A worker that already exited has hung up; that is fine.
            let _ = sender.send(WorkerMsg::Shutdown);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Everything one worker thread owns.
struct WorkerContext {
    verifier: LogicalVerifier,
    /// The worker's long-lived HSA model, advanced by epoch deltas.
    model: IncrementalModel,
    /// Epoch serial the model currently mirrors.
    model_serial: u64,
    incremental: bool,
    store: Arc<EpochStore>,
    cache: Arc<ResultCache>,
    metrics: Arc<ServiceMetrics>,
}

impl WorkerContext {
    /// Brings the worker's model to `epoch`, preferring the delta path and
    /// falling back to a rebuild when the history no longer covers the gap —
    /// or when the delta rivals the epoch itself in size (per-rule
    /// incremental insertion computes an exposed region per rule, which only
    /// pays off for genuinely small deltas; the first sync from serial 0 is
    /// the canonical rebuild case).
    fn sync_model(&mut self, epoch: &SnapshotEpoch) {
        if self.model_serial == epoch.serial {
            return;
        }
        let delta = if self.model_serial == 0 {
            None
        } else {
            self.store.delta_between(self.model_serial, epoch.serial)
        };
        match delta {
            Some(delta)
                if delta.added_rules.len() + delta.removed_rules.len()
                    <= epoch.snapshot.rule_count() / 4 =>
            {
                let changes = delta.rule_changes();
                self.metrics.delta_rules_applied.add(changes.len() as u64);
                self.model.apply(&changes);
                self.metrics.incremental_applies.inc();
                if self.model.is_desynced() {
                    // A removal did not resolve against the mirror: the
                    // model can no longer be trusted — self-heal from the
                    // frozen epoch instead of answering from a wrong model
                    // forever.
                    self.model.rebuild_from(&epoch.snapshot);
                    self.metrics.model_rebuilds.inc();
                }
            }
            _ => {
                self.model.rebuild_from(&epoch.snapshot);
                self.metrics.model_rebuilds.inc();
            }
        }
        self.model_serial = epoch.serial;
    }
}

fn worker_loop(rx: &mpsc::Receiver<WorkerMsg>, mut ctx: WorkerContext) {
    loop {
        // Block for the first job, then opportunistically drain the queue so
        // everything waiting shares one evaluator.
        let first = match rx.recv() {
            Ok(WorkerMsg::Query(job)) => job,
            Ok(WorkerMsg::Shutdown) | Err(_) => return,
        };
        let mut batch = vec![first];
        let mut shutdown = false;
        while batch.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(WorkerMsg::Query(job)) => batch.push(job),
                Ok(WorkerMsg::Shutdown) => {
                    shutdown = true;
                    break;
                }
                Err(_) => break,
            }
        }

        let epoch = ctx.store.current();
        // The model sync benefits every job in the batch; its events are
        // attributed to the job that triggered it (the first).
        let batch_trace = batch[0].trace;
        let mut evaluator = if ctx.incremental {
            {
                let sync_hist = Arc::clone(&ctx.metrics.stage_model_sync);
                let _span = sync_hist.span(batch_trace.id);
                let _ambient = batch_trace.enter();
                let from_serial = ctx.model_serial;
                ctx.sync_model(&epoch);
                if from_serial != epoch.serial {
                    batch_trace.event(TraceStage::ModelSync, from_serial, epoch.serial);
                }
            }
            ctx.verifier
                .evaluator_with(&epoch.snapshot, ctx.model.network_function())
        } else {
            ctx.verifier.evaluator(&epoch.snapshot)
        };
        ctx.metrics.batches.inc();
        if batch.len() > 1 {
            ctx.metrics.batched_queries.add(batch.len() as u64);
        }
        let _eval_span = ctx.metrics.stage_eval.span(batch_trace.id);
        for job in batch {
            let _ambient = job.trace.enter();
            let result = match ctx.cache.get(epoch.serial, job.client, &job.spec) {
                Some(result) => {
                    job.trace
                        .event(TraceStage::CacheHit, epoch.serial, u64::from(job.client.0));
                    result
                }
                None => {
                    job.trace
                        .event(TraceStage::CacheMiss, epoch.serial, u64::from(job.client.0));
                    job.trace
                        .event(TraceStage::Eval, u64::from(job.client.0), epoch.serial);
                    if ctx.incremental {
                        // Register BEFORE caching: a publish that lands in
                        // between then already widens this query, so the
                        // cache-advance selection covers the entry.
                        ctx.store.register_interest(job.client, &job.spec);
                        let (result, footprint) =
                            evaluator.answer_with_footprint(job.client, &job.spec);
                        ctx.store
                            .refine_interest(job.client, &job.spec, epoch.serial, &footprint);
                        ctx.cache
                            .put(epoch.serial, job.client, job.spec.clone(), result.clone());
                        result
                    } else {
                        let result = evaluator.answer(job.client, &job.spec);
                        ctx.cache
                            .put(epoch.serial, job.client, job.spec.clone(), result.clone());
                        result
                    }
                }
            };
            let latency = job.submitted.elapsed();
            let latency_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
            job.trace
                .event(TraceStage::Verdict, epoch.serial, latency_us);
            ctx.metrics
                .query_latency
                .record_traced(latency_us, job.trace.id);
            rvaas_telemetry::trace::recorder().capture_if_slow(job.trace.id, latency_us);
            ctx.metrics.queries.inc();
            ctx.metrics.queue_depth.dec();
            // The submitter may have given up waiting; that is not an error.
            let _ = job.reply.send(QueryResponse {
                client: job.client,
                spec: job.spec,
                result,
                epoch_serial: epoch.serial,
                latency,
                trace: job.trace.id,
            });
        }
        if shutdown {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceSettings;
    use rvaas::{LocationMap, VerifierConfig};
    use rvaas_controlplane::benign_rules;
    use rvaas_topology::generators;

    fn service_over(
        topology: &Topology,
        workers: usize,
        cache: bool,
    ) -> (VerificationService, NetworkSnapshot) {
        let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in benign_rules(topology) {
            snapshot.record_installed(switch, entry, SimTime::from_millis(1));
        }
        let config = ServiceSettings {
            workers,
            cache,
            ..ServiceSettings::default()
        }
        .into_config(VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(topology),
        });
        let service = VerificationService::new(topology.clone(), config);
        service
            .try_publish(&snapshot, SimTime::from_millis(1))
            .unwrap();
        (service, snapshot)
    }

    /// One query on a fresh trace, as a non-ingress caller submits it.
    fn ask(service: &VerificationService, client: ClientId, spec: QuerySpec) -> QueryResponse {
        service
            .try_query(client, spec, TraceContext::mint())
            .expect("pool answers")
    }

    fn all_specs(topology: &Topology) -> Vec<QuerySpec> {
        let some_ip = topology.hosts().next().expect("hosts").ip;
        vec![
            QuerySpec::ReachableDestinations,
            QuerySpec::ReachingSources,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
            QuerySpec::PathLength { to_ip: some_ip },
            QuerySpec::Neutrality,
        ]
    }

    #[test]
    fn batched_answers_equal_sequential_verifier_answers() {
        let topology = generators::leaf_spine(2, 4, 2, 1);
        let (service, snapshot) = service_over(&topology, 4, false);
        let verifier = LogicalVerifier::new(
            topology.clone(),
            VerifierConfig {
                use_history: false,
                locations: LocationMap::disclosed(&topology),
            },
        );
        let clients: Vec<ClientId> = (1..=4).map(ClientId).collect();
        let workload: Vec<(ClientId, QuerySpec)> = clients
            .iter()
            .flat_map(|c| all_specs(&topology).into_iter().map(move |s| (*c, s)))
            .collect();
        let responses = service.try_query_all(&workload).unwrap();
        assert_eq!(responses.len(), workload.len());
        for response in &responses {
            let expected = verifier.answer(&snapshot, response.client, &response.spec);
            assert_eq!(
                response.result, expected,
                "service answer diverged for {:?}/{:?}",
                response.client, response.spec
            );
        }
        let stats = service.stats();
        assert_eq!(stats.queries, workload.len() as u64);
        assert!(stats.batches >= 1);
    }

    #[test]
    fn incremental_workers_agree_with_full_rebuild_workers_under_churn() {
        let topology = generators::line(6, 3);
        let (incremental_service, mut snapshot) = service_over(&topology, 1, false);
        assert!(incremental_service.incremental_enabled());
        let full_config = ServiceSettings {
            workers: 1,
            cache: false,
            incremental: false,
            ..ServiceSettings::default()
        }
        .into_config(VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(&topology),
        });
        let full_service = VerificationService::new(topology.clone(), full_config);
        assert!(!full_service.incremental_enabled());
        full_service
            .try_publish(&snapshot, SimTime::from_millis(1))
            .unwrap();

        let workload: Vec<(ClientId, QuerySpec)> = (1..=3)
            .flat_map(|c| {
                all_specs(&topology)
                    .into_iter()
                    .map(move |s| (ClientId(c), s))
            })
            .collect();
        for round in 0..6u64 {
            snapshot.record_installed(
                rvaas_types::SwitchId(2),
                rvaas_openflow::FlowEntry::new(
                    400,
                    rvaas_openflow::FlowMatch::to_ip(0x3000 + round as u32),
                    vec![rvaas_openflow::Action::Drop],
                ),
                SimTime::from_millis(10 + round),
            );
            incremental_service
                .try_publish(&snapshot, SimTime::from_millis(10 + round))
                .unwrap();
            full_service
                .try_publish(&snapshot, SimTime::from_millis(10 + round))
                .unwrap();
            let inc = incremental_service.try_query_all(&workload).unwrap();
            let full = full_service.try_query_all(&workload).unwrap();
            for (a, b) in inc.iter().zip(full.iter()) {
                assert_eq!(
                    a.result, b.result,
                    "round {round}: incremental diverged for {:?}/{:?}",
                    a.client, a.spec
                );
            }
        }
        let stats = incremental_service.stats();
        assert!(
            stats.incremental_applies >= 1,
            "expected delta-driven model advances, got {stats:?}"
        );
        // The first sync from serial 0 is a bulk rebuild; the later rounds
        // each apply their one-rule delta in place.
        assert!(stats.delta_rules_applied >= 4, "got {stats:?}");
    }

    #[test]
    fn cache_hits_repeat_queries_and_invalidates_on_epoch_advance() {
        let topology = generators::line(4, 2);
        let (service, mut snapshot) = service_over(&topology, 1, true);
        let first = ask(&service, ClientId(1), QuerySpec::Isolation);
        let again = ask(&service, ClientId(1), QuerySpec::Isolation);
        assert_eq!(first.result, again.result);
        assert_eq!(first.epoch_serial, again.epoch_serial);
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1, "second identical query must hit");

        // Publishing a new epoch whose delta overlaps the client's emission
        // space invalidates the entry even though the payload is identical.
        snapshot.record_installed(
            rvaas_types::SwitchId(1),
            rvaas_openflow::FlowEntry::new(
                1,
                rvaas_openflow::FlowMatch::to_ip(0xdead),
                vec![rvaas_openflow::Action::Drop],
            ),
            SimTime::from_millis(5),
        );
        let serial = service
            .try_publish(&snapshot, SimTime::from_millis(5))
            .unwrap();
        let after = ask(&service, ClientId(1), QuerySpec::Isolation);
        assert_eq!(after.epoch_serial, serial);
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1, "post-publish query must recompute");
        assert_eq!(stats.epochs_published, 2);
        assert!(stats.cache_invalidated >= 1);
    }

    #[test]
    fn unaffected_queries_survive_epoch_advance_in_cache() {
        let topology = generators::line(4, 2);
        let (service, mut snapshot) = service_over(&topology, 1, true);
        let h3_ip = topology.hosts().find(|h| h.id.0 == 3).expect("host 3").ip;
        let spec = QuerySpec::PathLength { to_ip: h3_ip };
        let before = ask(&service, ClientId(1), spec.clone());

        // Churn pinned to a tenant pair that cannot intersect the path-length
        // query's (src ∈ client 1, dst = h3) interest: src and dst pinned to
        // addresses outside every relevant space, on a non-access switch...
        // the line generator attaches hosts everywhere, so use a switch and
        // addresses that only miss the header-space interest.
        snapshot.record_installed(
            rvaas_types::SwitchId(2),
            rvaas_openflow::FlowEntry::new(
                400,
                rvaas_openflow::FlowMatch::from_ip(0x7777_7777)
                    .field(rvaas_types::Field::IpDst, 0x8888_8888),
                vec![rvaas_openflow::Action::Drop],
            ),
            SimTime::from_millis(5),
        );
        let serial = service
            .try_publish(&snapshot, SimTime::from_millis(5))
            .unwrap();
        let after = ask(&service, ClientId(1), spec);
        assert_eq!(after.epoch_serial, serial);
        assert_eq!(after.result, before.result);
        let stats = service.stats();
        assert_eq!(
            stats.cache_hits, 1,
            "the carried-forward entry must answer at the new serial: {stats:?}"
        );
        assert!(stats.cache_carried >= 1);
    }

    #[test]
    fn queries_answer_against_publish_time_epochs_under_churn() {
        let topology = generators::line(4, 2);
        let (service, mut snapshot) = service_over(&topology, 2, true);
        // Interleave publishes and queries; every response must carry a
        // serial that was current at some point and a well-formed result.
        for round in 0..20u64 {
            snapshot.record_installed(
                rvaas_types::SwitchId(1),
                rvaas_openflow::FlowEntry::new(
                    2,
                    rvaas_openflow::FlowMatch::to_ip(0x1000 + round as u32),
                    vec![rvaas_openflow::Action::Drop],
                ),
                SimTime::from_millis(round),
            );
            let serial = service
                .try_publish(&snapshot, SimTime::from_millis(round))
                .unwrap();
            let response = ask(
                &service,
                ClientId(1 + (round % 2) as u32),
                QuerySpec::Isolation,
            );
            assert!(response.epoch_serial <= serial);
            assert!(response.epoch_serial >= 1);
        }
        assert_eq!(service.stats().queries, 20);
    }

    /// Kills the worker pool in place, the way a shutdown race would: every
    /// worker drains its queue and exits, leaving the senders hung up.
    fn kill_workers(service: &mut VerificationService) {
        for sender in &service.senders {
            let _ = sender.send(WorkerMsg::Shutdown);
        }
        for worker in service.workers.drain(..) {
            let _ = worker.join();
        }
    }

    #[test]
    fn try_submit_and_try_query_report_pool_unavailable_after_shutdown() {
        let topology = generators::line(3, 1);
        let (mut service, _snapshot) = service_over(&topology, 2, false);
        kill_workers(&mut service);
        let err = service
            .try_submit(ClientId(1), QuerySpec::Isolation, TraceContext::mint())
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::PoolUnavailable {
                context: "query submit"
            }
        ));
        assert!(matches!(
            service.try_query(ClientId(1), QuerySpec::Isolation, TraceContext::mint()),
            Err(ServiceError::PoolUnavailable { .. })
        ));
        assert!(matches!(
            service.try_query_all(&[(ClientId(1), QuerySpec::Isolation)]),
            Err(ServiceError::PoolUnavailable { .. })
        ));
    }

    #[test]
    fn query_responses_carry_a_reconstructable_trace_chain() {
        let topology = generators::line(3, 1);
        let (service, _snapshot) = service_over(&topology, 1, true);
        let response = ask(&service, ClientId(1), QuerySpec::Isolation);
        assert!(!response.trace.is_none(), "default-on tracing mints an id");
        let chain = rvaas_telemetry::trace::recorder().chain(response.trace);
        let stages: Vec<TraceStage> = chain.iter().map(|e| e.stage).collect();
        for expected in [
            TraceStage::Dispatch,
            TraceStage::CacheMiss,
            TraceStage::Eval,
            TraceStage::Verdict,
        ] {
            assert!(
                stages.contains(&expected),
                "missing {expected:?}: {stages:?}"
            );
        }
        let dispatch = stages.iter().position(|s| *s == TraceStage::Dispatch);
        let verdict = stages.iter().position(|s| *s == TraceStage::Verdict);
        assert!(dispatch < verdict, "chain out of causal order: {stages:?}");
        assert!(
            chain.windows(2).all(|w| w[0].at_us <= w[1].at_us),
            "timestamps must be monotone within a chain"
        );

        // The repeat is served from cache, on a fresh trace of its own.
        let again = ask(&service, ClientId(1), QuerySpec::Isolation);
        assert_ne!(again.trace, response.trace);
        let chain = rvaas_telemetry::trace::recorder().chain(again.trace);
        assert!(chain.iter().any(|e| e.stage == TraceStage::CacheHit));
        assert!(chain.iter().all(|e| e.trace == again.trace));
    }

    #[test]
    fn ticket_abandoned_by_its_worker_reports_query_dropped() {
        // A worker that exits mid-batch drops the reply sender without
        // answering; the ticket must surface that as QueryDropped, not hang.
        let (tx, rx) = mpsc::channel();
        drop(tx);
        let ticket = QueryTicket { rx };
        assert!(matches!(ticket.wait(), Err(ServiceError::QueryDropped)));
    }
}
