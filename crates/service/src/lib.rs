//! # rvaas-service — the standalone verification service plane
//!
//! The seed answered every client query inline from the simulated
//! controller's event handler, one at a time, rebuilding the HSA model from
//! scratch per query. This crate turns verification into a *service*:
//!
//! * [`epoch`] — the monitor's [`rvaas::NetworkSnapshot`] is frozen into
//!   immutable, serially numbered [`epoch::SnapshotEpoch`]s and swapped
//!   atomically; readers never block the publisher, and monitor churn keeps
//!   publishing while queries run against the previous epoch. Every delta is
//!   retained at digest, rule and *changed-header-region* granularity.
//! * [`pool`] — a [`pool::VerificationService`] shards queries across OS
//!   worker threads by client and batches co-queued queries through one
//!   [`rvaas::QueryEvaluator`]. Each worker owns a long-lived
//!   [`rvaas::IncrementalModel`] advanced by epoch deltas in place
//!   (`O(delta)` per epoch instead of an `O(network)` rebuild), and the
//!   `(client, query)` result cache carries entries a delta provably cannot
//!   affect across epoch advances.
//! * [`sync`] — an RTR-style session/serial delta protocol: clients mirror
//!   the published digest set and receive only what changed since their
//!   serial, plus re-verified standing queries — only those whose interest
//!   space intersects the delta's affected header region — falling back to
//!   a full reset when the delta history has been evicted.
//! * [`backend`] — [`backend::ServiceBackend`] plugs the service plane into
//!   the existing `RvaasController` via [`rvaas::AnalysisBackend`].
//! * [`config`] — the declarative [`config::ServiceSettings`] surface the
//!   `rvaas` daemon builds from a config file and CLI overrides, replacing
//!   the old per-knob builder sprawl.
//! * [`error`] — the unified [`error::ServiceError`] every fallible
//!   service-plane operation reports, replacing the old mix of panics,
//!   `String`s and raw codec errors.
//!
//! ```
//! use rvaas::{LocationMap, NetworkSnapshot, VerifierConfig};
//! use rvaas_client::QuerySpec;
//! use rvaas_service::{ServiceConfig, VerificationService};
//! use rvaas_telemetry::TraceContext;
//! use rvaas_topology::generators;
//! use rvaas_types::{ClientId, SimTime};
//!
//! let topology = generators::line(4, 2);
//! let config = ServiceConfig::new(VerifierConfig {
//!     use_history: false,
//!     locations: LocationMap::disclosed(&topology),
//! });
//! let service = VerificationService::new(topology, config);
//! service.try_publish(&NetworkSnapshot::default(), SimTime::ZERO)?;
//! let response = service.try_query(ClientId(1), QuerySpec::Isolation, TraceContext::mint())?;
//! assert_eq!(response.epoch_serial, 1);
//! # Ok::<(), rvaas_service::ServiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod config;
pub mod epoch;
pub mod error;
pub mod pool;
pub mod sync;

pub use backend::ServiceBackend;
pub use cache::{CacheStats, ResultCache};
pub use config::{ServiceConfig, ServiceSettings, SETTING_KEYS};
pub use epoch::{
    digest_entry, digest_snapshot, EpochDelta, EpochProvenance, EpochStore, Published,
    SnapshotEpoch,
};
pub use error::ServiceError;
pub use pool::{QueryResponse, ServiceStats, VerificationService};
pub use sync::{ReverifyStats, SyncServer};
