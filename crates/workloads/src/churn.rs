//! Tenant-pinned churn: the workload that exercises the incremental
//! verification engine.
//!
//! The generic [`churn_round`](crate::service_load::churn_round) installs
//! destination-only drop rules, which intersect *every* client's emission
//! space — realistic for blanket filtering, but the worst case for
//! affected-query computation. This module models the other common kind of
//! provider churn: **per-tenant reconfiguration**, where each changed rule is
//! pinned to one tenant's `(source, destination)` address pair (an
//! intra-tenant route update) and placed on transit switches. Under this
//! churn only the reconfigured tenants' standing queries can change, so the
//! incremental engine re-verifies a small affected subset while the
//! full-recomputation baseline re-verifies everyone.
//!
//! [`run_incremental_churn`] drives a [`VerificationService`] plus
//! [`SyncServer`] through rounds of tenant churn with every client holding
//! the full standing-query mix, measuring the **epoch-advance cost**:
//! snapshot publish (model update) plus standing-query reverification
//! through the sync protocol. Running it once with the incremental engine
//! and once with the full-rebuild baseline gives the speedup the `s2`
//! experiment reports.

use std::time::{Duration, Instant};

use rvaas::{LocationMap, NetworkSnapshot, VerifierConfig};
use rvaas_client::SyncSession;
use rvaas_openflow::{Action, FlowEntry, FlowMatch};
use rvaas_service::{ServiceSettings, SyncServer, VerificationService};
use rvaas_topology::Topology;
use rvaas_types::{ClientId, Field, SimTime, SwitchId};

use crate::service_load::{benign_snapshot, clients_of, query_mix};

/// Priority of the tenant churn rules: above the benign admission rules so
/// the changed header region is actually exposed.
const PRIO_TENANT: u16 = 400;

/// Switches to place tenant churn on: transit switches without attached
/// hosts when the topology has them (leaf-spine spines, fat-tree aggregation
/// and core), any switch otherwise.
fn churn_switches(topology: &Topology) -> Vec<SwitchId> {
    let hostless: Vec<SwitchId> = topology
        .switches()
        .map(|s| s.id)
        .filter(|id| !topology.hosts().any(|h| h.attachment.switch == *id))
        .collect();
    if hostless.is_empty() {
        topology.switches().map(|s| s.id).collect()
    } else {
        hostless
    }
}

/// Applies one round of tenant-pinned churn to `snapshot`: a rotating window
/// of `churn_clients` clients each get `rules_per_client` fresh rules pinned
/// to their own `(src, dst)` host addresses (and the previous round's rules
/// removed). Returns the number of rule changes applied.
pub fn tenant_churn_round(
    topology: &Topology,
    snapshot: &mut NetworkSnapshot,
    round: u64,
    churn_clients: usize,
    rules_per_client: usize,
    at: SimTime,
) -> usize {
    // Remove exactly what the previous round's window installed, then
    // install this round's window. The vlan bit alternates per round so a
    // client churned at rounds of the same parity still sees its rules
    // leave and return through the digest deltas.
    let mut changes = 0;
    if round > 0 {
        changes += churn_window(
            topology,
            snapshot,
            round - 1,
            churn_clients,
            rules_per_client,
            at,
            false,
        );
    }
    changes += churn_window(
        topology,
        snapshot,
        round,
        churn_clients,
        rules_per_client,
        at,
        true,
    );
    changes
}

/// Installs (or removes) the tenant rules of `round`'s churn window.
fn churn_window(
    topology: &Topology,
    snapshot: &mut NetworkSnapshot,
    round: u64,
    churn_clients: usize,
    rules_per_client: usize,
    at: SimTime,
    install: bool,
) -> usize {
    let clients = clients_of(topology);
    if clients.is_empty() {
        return 0;
    }
    let switches = churn_switches(topology);
    let start = (round as usize).saturating_mul(churn_clients) % clients.len();
    let mut changes = 0;
    for slot in 0..churn_clients.min(clients.len()) {
        let client = clients[(start + slot) % clients.len()];
        let hosts = topology.hosts_of_client(client);
        if hosts.is_empty() {
            continue;
        }
        for i in 0..rules_per_client {
            let src = hosts[i % hosts.len()];
            let dst = hosts[(i + 1) % hosts.len()];
            let switch = switches[(slot + i) % switches.len()];
            let action = if dst.attachment.switch == switch {
                Action::Output(dst.attachment.port)
            } else {
                topology
                    .port_towards(switch, dst.attachment.switch)
                    .map_or(Action::Drop, Action::Output)
            };
            let flow_match = FlowMatch::from_ip(src.ip)
                .field(Field::IpDst, u64::from(dst.ip))
                .field(Field::Vlan, round % 2)
                .field(Field::L4Dst, i as u64);
            let entry = FlowEntry::new(PRIO_TENANT, flow_match, vec![action]);
            let installed = snapshot
                .table_of(switch)
                .iter()
                .any(|e| e.priority == entry.priority && e.flow_match == entry.flow_match);
            if install && !installed {
                snapshot.record_installed(switch, entry, at);
                changes += 1;
            } else if !install && installed {
                snapshot.record_removed(switch, &entry, at);
                changes += 1;
            }
        }
    }
    changes
}

/// Shape of one incremental-churn run.
#[derive(Debug, Clone)]
pub struct IncrementalChurnConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Whether the incremental engine is on (`false` = full-rebuild
    /// baseline: rebuild per batch, re-verify every standing query,
    /// generation-wide cache invalidation).
    pub incremental: bool,
    /// Churn/publish/sync rounds measured.
    pub rounds: usize,
    /// Clients reconfigured per round (the churn rate, in clients).
    pub churn_clients_per_round: usize,
    /// Rules installed (and the previous round's removed) per churned client
    /// per round.
    pub rules_per_client: usize,
}

/// What one incremental-churn run measured.
#[derive(Debug, Clone)]
pub struct IncrementalChurnReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Standing queries registered (clients × query mix).
    pub standing_queries: usize,
    /// Rule changes applied across all rounds.
    pub rule_changes: usize,
    /// Total wall-clock epoch-advance cost: churn + publish (model update +
    /// cache invalidation) + standing-query reverification via sync.
    pub epoch_advance_total: Duration,
    /// Mean epoch-advance cost per round.
    pub epoch_advance_avg: Duration,
    /// Standing queries re-verified inside deltas.
    pub reverified: u64,
    /// Standing queries skipped as provably unaffected.
    pub skipped: u64,
    /// Worker-model delta applications.
    pub incremental_applies: u64,
    /// Worker-model full rebuilds.
    pub model_rebuilds: u64,
    /// Result-cache hit rate over the run.
    pub cache_hit_rate: f64,
    /// Epoch serial after the final round.
    pub final_serial: u64,
    /// Median per-query latency in microseconds (from the service's
    /// `rvaas_query_latency_us` histogram; includes reverification queries).
    pub latency_p50_us: u64,
    /// 95th-percentile per-query latency in microseconds.
    pub latency_p95_us: u64,
    /// 99th-percentile per-query latency in microseconds.
    pub latency_p99_us: u64,
}

/// Runs `config.rounds` rounds of tenant churn against a fresh service with
/// every client subscribed to the full query mix, and measures the
/// epoch-advance cost.
#[must_use]
pub fn run_incremental_churn(
    topology: &Topology,
    config: &IncrementalChurnConfig,
) -> IncrementalChurnReport {
    let service = VerificationService::new(
        topology.clone(),
        ServiceSettings {
            workers: config.workers,
            incremental: config.incremental,
            ..ServiceSettings::default()
        }
        .into_config(VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(topology),
        }),
    );
    let mut snapshot = benign_snapshot(topology);
    service
        .try_publish(&snapshot, SimTime::from_millis(1))
        .expect("epoch publish");
    let server = SyncServer::new(service.store(), 9, &service.registry());

    let clients = clients_of(topology);
    let mix = query_mix(topology);
    for client in &clients {
        for spec in &mix {
            server.subscribe(*client, spec.clone());
        }
    }
    let mut sessions: Vec<(ClientId, SyncSession)> = clients
        .iter()
        .map(|client| {
            let mut session = SyncSession::new();
            session
                .apply(
                    &server
                        .try_handle(&service, &session.request(*client))
                        .expect("sync answers"),
                )
                .expect("initial reset applies");
            (*client, session)
        })
        .collect();

    let mut rule_changes = 0usize;
    let mut epoch_advance_total = Duration::ZERO;
    // Round 1 is an untimed warmup: it pays the one-off cold costs (worker
    // models' first full build, evaluator warm paths) that belong to service
    // start-up, not to steady-state epoch advancing.
    for round in 1..=(config.rounds + 1) as u64 {
        let at = SimTime::from_millis(10 + round);
        let started = Instant::now();
        rule_changes += tenant_churn_round(
            topology,
            &mut snapshot,
            round,
            config.churn_clients_per_round,
            config.rules_per_client,
            at,
        );
        service.try_publish(&snapshot, at).expect("epoch publish");
        for (client, session) in &mut sessions {
            let response = server
                .try_handle(&service, &session.request(*client))
                .expect("sync answers");
            session.apply(&response).expect("sync applies");
        }
        if round > 1 {
            epoch_advance_total += started.elapsed();
        }
    }

    let stats = service.stats();
    let reverify = server.reverify_stats();
    IncrementalChurnReport {
        rounds: config.rounds,
        standing_queries: clients.len() * mix.len(),
        rule_changes,
        epoch_advance_total,
        epoch_advance_avg: epoch_advance_total / config.rounds.max(1) as u32,
        reverified: reverify.reverified,
        skipped: reverify.skipped,
        incremental_applies: stats.incremental_applies,
        model_rebuilds: stats.model_rebuilds,
        cache_hit_rate: stats.cache_hit_rate,
        final_serial: service.current_serial(),
        latency_p50_us: stats.latency_p50_us,
        latency_p95_us: stats.latency_p95_us,
        latency_p99_us: stats.latency_p99_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_topology::generators;

    #[test]
    fn tenant_churn_installs_and_rotates_rules() {
        let topology = generators::leaf_spine(2, 4, 2, 1);
        let mut snapshot = benign_snapshot(&topology);
        let base = snapshot.rule_count();
        let added = tenant_churn_round(&topology, &mut snapshot, 0, 2, 3, SimTime::from_millis(2));
        assert_eq!(added, 6, "round 0 only installs");
        assert_eq!(snapshot.rule_count(), base + 6);
        // Round 1 installs 6 fresh rules and removes round 0's 6.
        let changed =
            tenant_churn_round(&topology, &mut snapshot, 1, 2, 3, SimTime::from_millis(3));
        assert_eq!(changed, 12);
        assert_eq!(snapshot.rule_count(), base + 6);
        // Churn lands on hostless (spine) switches only.
        let spines = churn_switches(&topology);
        assert!(!spines.is_empty());
        for spine in &spines {
            assert!(!topology.hosts().any(|h| h.attachment.switch == *spine));
        }
    }

    #[test]
    fn incremental_run_skips_unaffected_standing_queries() {
        // 4 clients (one per hosts-per-leaf slot), so churning one client
        // per round leaves three quarters of the standing queries untouched.
        let topology = generators::leaf_spine(2, 4, 4, 1);
        let config = IncrementalChurnConfig {
            workers: 1,
            incremental: true,
            rounds: 3,
            churn_clients_per_round: 1,
            rules_per_client: 2,
        };
        let report = run_incremental_churn(&topology, &config);
        assert_eq!(report.rounds, 3);
        assert!(report.rule_changes > 0);
        assert!(
            report.skipped > report.reverified,
            "tenant-pinned churn must leave most standing queries unaffected: {report:?}"
        );
        assert_eq!(
            report.final_serial, 5,
            "initial publish + warmup + one per measured round"
        );
        assert!(report.model_rebuilds <= 1, "delta path must carry the run");

        // The full-rebuild baseline re-verifies everything.
        let full = run_incremental_churn(
            &topology,
            &IncrementalChurnConfig {
                incremental: false,
                ..config
            },
        );
        assert_eq!(full.skipped, 0);
        assert!(full.reverified >= report.reverified);
    }
}
