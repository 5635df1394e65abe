//! Declarative service-plane configuration.
//!
//! The original `ServiceConfig` grew one `with_*` builder method per knob;
//! every new knob meant another method and another undiscoverable default.
//! The `rvaas` daemon made that untenable: a config *file* needs a flat,
//! declarative surface where every knob has a name, a parseable value and a
//! single source of truth for its default.
//!
//! The redesign splits the config in two:
//!
//! * [`ServiceSettings`] — the plain-data knobs (worker count, cache,
//!   incremental engine, delta history, listener addresses). Serde-derivable,
//!   [`Default`]-constructible, and settable by string key/value pairs
//!   ([`ServiceSettings::set`]) so the daemon's config-file parser and its
//!   CLI flag overrides share one validation path.
//! * [`ServiceConfig`] — settings plus the [`VerifierConfig`], which cannot
//!   come from a file (it embeds the topology-derived location map).
//!
//! In code, build the settings with struct-update syntax
//! (`ServiceSettings { workers: 2, ..Default::default() }`) and finish with
//! [`ServiceSettings::into_config`].

use serde::{Deserialize, Serialize};

use rvaas::VerifierConfig;

use crate::error::ServiceError;

/// The declarative, file-constructible knobs of the verification service.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceSettings {
    /// Number of worker threads (minimum 1).
    pub workers: usize,
    /// Whether the `(serial, client, spec)` result cache is consulted.
    pub cache: bool,
    /// Whether workers maintain their HSA model incrementally from epoch
    /// deltas (and the cache invalidates per affected query) instead of
    /// rebuilding from scratch on every epoch advance. History-mode
    /// verification always uses the full-rebuild path regardless. Disabling
    /// reproduces the full-rebuild architecture the benchmarks use as their
    /// baseline.
    pub incremental: bool,
    /// How many per-epoch deltas the store retains for delta sync.
    pub max_delta_history: usize,
    /// `host:port` the daemon's RTR-style TCP sync endpoint binds, if any.
    pub sync_listen: Option<String>,
    /// `host:port` the daemon's HTTP endpoint (`/v1/query`, `/v1/epoch`,
    /// `/metrics`) binds, if any.
    pub http_listen: Option<String>,
    /// Total flight-recorder ring slots (see `rvaas_telemetry::trace`).
    /// Applied to the process-global recorder at service construction, so
    /// it only takes effect if set before the first recorded event.
    pub trace_ring_capacity: usize,
    /// End-to-end query latency (µs) beyond which a trace is promoted out
    /// of the ring into the retained slow-query set. Adjustable live.
    pub slow_query_threshold_us: u64,
}

impl Default for ServiceSettings {
    /// Sensible defaults: 4 workers, caching on, incremental updates on,
    /// 64 retained deltas, no listeners (in-process use), a 4096-slot
    /// flight-recorder ring and a 10 ms slow-query threshold.
    fn default() -> Self {
        ServiceSettings {
            workers: 4,
            cache: true,
            incremental: true,
            max_delta_history: 64,
            sync_listen: None,
            http_listen: None,
            trace_ring_capacity: rvaas_telemetry::trace::DEFAULT_RING_CAPACITY,
            slow_query_threshold_us: rvaas_telemetry::trace::DEFAULT_SLOW_THRESHOLD_US,
        }
    }
}

/// Every key [`ServiceSettings::set`] understands, in documentation order.
pub const SETTING_KEYS: [&str; 8] = [
    "workers",
    "cache",
    "incremental",
    "max_delta_history",
    "sync_listen",
    "http_listen",
    "trace_ring_capacity",
    "slow_query_threshold_us",
];

fn parse_bool(key: &str, value: &str) -> Result<bool, ServiceError> {
    match value {
        "true" | "on" | "yes" | "1" => Ok(true),
        "false" | "off" | "no" | "0" => Ok(false),
        _ => Err(ServiceError::Config(format!(
            "{key} expects a boolean, got {value:?}"
        ))),
    }
}

fn parse_count(key: &str, value: &str) -> Result<usize, ServiceError> {
    value.parse::<usize>().map_err(|_| {
        ServiceError::Config(format!(
            "{key} expects a non-negative integer, got {value:?}"
        ))
    })
}

impl ServiceSettings {
    /// Applies one `key = value` pair from a config file or CLI flag. This is
    /// the single validation path for both: the daemon parses syntax, this
    /// method owns semantics.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Config`] for unknown keys or unparseable
    /// values.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ServiceError> {
        match key {
            "workers" => self.workers = parse_count(key, value)?.max(1),
            "cache" => self.cache = parse_bool(key, value)?,
            "incremental" => self.incremental = parse_bool(key, value)?,
            "max_delta_history" => self.max_delta_history = parse_count(key, value)?.max(1),
            "sync_listen" => self.sync_listen = Some(value.to_string()),
            "http_listen" => self.http_listen = Some(value.to_string()),
            "trace_ring_capacity" => self.trace_ring_capacity = parse_count(key, value)?.max(1),
            "slow_query_threshold_us" => {
                self.slow_query_threshold_us = parse_count(key, value)? as u64;
            }
            _ => {
                return Err(ServiceError::Config(format!(
                    "unknown setting {key:?} (known: {})",
                    SETTING_KEYS.join(", ")
                )))
            }
        }
        Ok(())
    }

    /// Combines these settings with the verifier configuration the service
    /// actually needs to run.
    #[must_use]
    pub fn into_config(self, verifier: VerifierConfig) -> ServiceConfig {
        ServiceConfig {
            settings: self,
            verifier,
        }
    }
}

/// Configuration of the verification service: declarative settings plus the
/// verifier configuration (which embeds the topology-derived location map
/// and therefore cannot come from a config file).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The declarative knobs.
    pub settings: ServiceSettings,
    /// Verifier configuration shared by every worker.
    pub verifier: VerifierConfig,
}

impl ServiceConfig {
    /// Default settings around `verifier` (see [`ServiceSettings::default`]).
    #[must_use]
    pub fn new(verifier: VerifierConfig) -> Self {
        ServiceSettings::default().into_config(verifier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_documented_values() {
        let s = ServiceSettings::default();
        assert_eq!(s.workers, 4);
        assert!(s.cache);
        assert!(s.incremental);
        assert_eq!(s.max_delta_history, 64);
        assert!(s.sync_listen.is_none());
        assert!(s.http_listen.is_none());
        assert_eq!(
            s.trace_ring_capacity,
            rvaas_telemetry::trace::DEFAULT_RING_CAPACITY
        );
        assert_eq!(
            s.slow_query_threshold_us,
            rvaas_telemetry::trace::DEFAULT_SLOW_THRESHOLD_US
        );
    }

    #[test]
    fn every_documented_key_is_settable() {
        let mut s = ServiceSettings::default();
        for (key, value) in [
            ("workers", "8"),
            ("cache", "off"),
            ("incremental", "false"),
            ("max_delta_history", "16"),
            ("sync_listen", "127.0.0.1:3323"),
            ("http_listen", "127.0.0.1:8323"),
            ("trace_ring_capacity", "1024"),
            ("slow_query_threshold_us", "2500"),
        ] {
            assert!(SETTING_KEYS.contains(&key));
            s.set(key, value).unwrap();
        }
        assert_eq!(s.workers, 8);
        assert!(!s.cache);
        assert!(!s.incremental);
        assert_eq!(s.max_delta_history, 16);
        assert_eq!(s.sync_listen.as_deref(), Some("127.0.0.1:3323"));
        assert_eq!(s.http_listen.as_deref(), Some("127.0.0.1:8323"));
        assert_eq!(s.trace_ring_capacity, 1024);
        assert_eq!(s.slow_query_threshold_us, 2500);
    }

    #[test]
    fn minimums_are_clamped_and_bad_values_are_typed_errors() {
        let mut s = ServiceSettings::default();
        s.set("workers", "0").unwrap();
        assert_eq!(s.workers, 1, "worker count clamps to 1");
        s.set("max_delta_history", "0").unwrap();
        assert_eq!(s.max_delta_history, 1);
        assert!(matches!(
            s.set("workers", "many"),
            Err(ServiceError::Config(_))
        ));
        assert!(matches!(
            s.set("cache", "perhaps"),
            Err(ServiceError::Config(_))
        ));
        let err = s.set("worker_threads", "4").unwrap_err();
        assert!(
            err.to_string().contains("workers"),
            "unknown-key error must list the known keys: {err}"
        );
    }
}
