//! The adapter plugging the service plane into the RVaaS controller.
//!
//! [`ServiceBackend`] implements [`rvaas::AnalysisBackend`]: the controller
//! publishes every snapshot change as a new epoch and delegates each query
//! to the worker pool, so logical analysis runs on the service plane's
//! threads (with batching and caching) instead of inline in the simulation
//! event handler.

use rvaas::{AnalysisBackend, NetworkSnapshot};
use rvaas_client::{QueryResult, QuerySpec};
use rvaas_telemetry::TraceContext;
use rvaas_types::{ClientId, SimTime};

use crate::config::ServiceConfig;
use crate::error::ServiceError;
use crate::pool::VerificationService;
use crate::sync::SyncServer;

/// An [`AnalysisBackend`] backed by a [`VerificationService`].
#[derive(Debug)]
pub struct ServiceBackend {
    service: VerificationService,
    /// Minimum simulated time between controller-driven epoch publishes.
    /// Publishing an epoch costs a full snapshot clone + digest pass, so
    /// doing it on *every* monitor event would make churn quadratic again;
    /// suppressed publishes set [`Self::dirty`] and are caught up lazily at
    /// query time, which keeps answers exact.
    min_publish_interval: SimTime,
    last_published_at: Option<SimTime>,
    dirty: bool,
}

impl ServiceBackend {
    /// Starts a service plane over `topology` and wraps it as a backend.
    #[must_use]
    pub fn new(topology: rvaas_topology::Topology, config: ServiceConfig) -> Self {
        Self::from_service(VerificationService::new(topology, config))
    }

    /// Wraps an already running service.
    #[must_use]
    pub fn from_service(service: VerificationService) -> Self {
        ServiceBackend {
            service,
            min_publish_interval: SimTime::from_millis(1),
            last_published_at: None,
            dirty: false,
        }
    }

    /// Overrides the epoch publish debounce interval (builder style).
    /// `SimTime::ZERO` publishes on every monitor event.
    #[must_use]
    pub fn with_publish_interval(mut self, interval: SimTime) -> Self {
        self.min_publish_interval = interval;
        self
    }

    /// The underlying service (stats, sync store, direct queries).
    #[must_use]
    pub fn service(&self) -> &VerificationService {
        &self.service
    }

    /// A sync server sharing this backend's epoch store and metric registry.
    #[must_use]
    pub fn sync_server(&self, session_id: u16) -> SyncServer {
        SyncServer::new(self.service.store(), session_id, &self.service.registry())
    }

    fn publish_now(&mut self, snapshot: &NetworkSnapshot, at: SimTime) -> Result<(), ServiceError> {
        self.service.try_publish(snapshot, at)?;
        self.last_published_at = Some(at);
        self.dirty = false;
        Ok(())
    }
}

impl AnalysisBackend for ServiceBackend {
    fn publish(&mut self, snapshot: &NetworkSnapshot, at: SimTime) {
        let due = match self.last_published_at {
            None => true,
            Some(last) => at >= last + self.min_publish_interval,
        };
        // A rejected publish stays dirty: the next answer retries it and
        // reports the failure.
        if !due || self.publish_now(snapshot, at).is_err() {
            self.dirty = true;
        }
    }

    fn answer(
        &mut self,
        snapshot: &NetworkSnapshot,
        client: ClientId,
        spec: &QuerySpec,
    ) -> QueryResult {
        // Catch up before answering: a query may arrive before the first
        // monitor event, or after publishes the debounce suppressed.
        let epoch = self.service.store().current();
        let caught_up = if epoch.serial == 0
            || self.dirty
            || epoch.snapshot.last_update() < snapshot.last_update()
        {
            self.publish_now(snapshot, snapshot.last_update())
        } else {
            Ok(())
        };
        // `AnalysisBackend::answer` has no error channel: a service that
        // cannot publish or answer is a broken deployment, not a verdict.
        caught_up
            .and_then(|()| {
                self.service
                    .try_query(client, spec.clone(), TraceContext::mint())
            })
            .expect("service backend cannot answer")
            .result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceSettings;
    use rvaas::{InlineBackend, LocationMap, LogicalVerifier, VerifierConfig};
    use rvaas_controlplane::benign_rules;
    use rvaas_topology::generators;

    #[test]
    fn service_backend_agrees_with_inline_backend() {
        let topology = generators::line(6, 2);
        let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in benign_rules(&topology) {
            snapshot.record_installed(switch, entry, SimTime::from_millis(1));
        }
        let verifier_config = VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(&topology),
        };
        let mut inline = InlineBackend::new(LogicalVerifier::new(
            topology.clone(),
            verifier_config.clone(),
        ));
        let mut service = ServiceBackend::new(
            topology.clone(),
            ServiceSettings {
                workers: 3,
                ..ServiceSettings::default()
            }
            .into_config(verifier_config),
        );
        for client in [ClientId(1), ClientId(2)] {
            for spec in [
                QuerySpec::ReachableDestinations,
                QuerySpec::ReachingSources,
                QuerySpec::Isolation,
                QuerySpec::GeoLocation,
                QuerySpec::Neutrality,
            ] {
                assert_eq!(
                    service.answer(&snapshot, client, &spec),
                    inline.answer(&snapshot, client, &spec),
                    "backends diverged on {client:?}/{spec:?}"
                );
            }
        }
        // The lazy catch-up publish happened exactly once.
        assert_eq!(service.service().stats().epochs_published, 1);
    }

    #[test]
    fn publish_debounce_bounds_epochs_but_queries_stay_exact() {
        let topology = generators::line(4, 2);
        let verifier_config = VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(&topology),
        };
        let mut backend = ServiceBackend::new(
            topology.clone(),
            ServiceSettings {
                workers: 1,
                ..ServiceSettings::default()
            }
            .into_config(verifier_config.clone()),
        )
        .with_publish_interval(SimTime::from_millis(10));
        // A burst of monitor events within one debounce window publishes
        // once, not once per event.
        let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
        for (i, (switch, entry)) in benign_rules(&topology).into_iter().enumerate() {
            let at = SimTime::from_micros(i as u64);
            snapshot.record_installed(switch, entry, at);
            backend.publish(&snapshot, at);
        }
        assert_eq!(backend.service().stats().epochs_published, 1);

        // The suppressed publishes are caught up before answering, so the
        // result matches an inline verifier over the full snapshot.
        let verifier = LogicalVerifier::new(topology, verifier_config);
        assert_eq!(
            backend.answer(&snapshot, ClientId(1), &QuerySpec::Isolation),
            verifier.answer(&snapshot, ClientId(1), &QuerySpec::Isolation),
        );
        assert_eq!(backend.service().stats().epochs_published, 2);
    }
}
