//! Service-plane attack soundness gates.
//!
//! Every attack in the service-plane catalogue
//! ([`Attack::service_plane_expectation`]) is compiled to legitimate
//! OpenFlow/sync traffic and driven through the verification service twice:
//! once with the incremental engine (delta sync, result cache, shadow
//! model) and once as a from-scratch full-rebuild oracle. The gates assert
//! the predicates the attacks probe: replays cannot divert a sync client
//! for longer than one round trip, phantom removals degrade to conservative
//! re-verification instead of silent divergence, caches never serve a
//! stale epoch's verdict, and churn floods trip the bulk-rebuild heuristic
//! — and under *every* attack, incremental verdicts equal the oracle's.

use proptest::prelude::*;

use rvaas::{
    query_affected, IncrementalModel, LocationMap, NetworkSnapshot, RuleChange, VerifierConfig,
};
use rvaas_client::{QuerySpec, SyncError, SyncPayload, SyncResponse, SyncSession};
use rvaas_controlplane::attack::PRIO_ATTACK;
use rvaas_controlplane::{benign_rules, Attack, ServicePlaneExpectation};
use rvaas_hsa::reachability_equivalent;
use rvaas_openflow::{FlowEntry, FlowModCommand, Message};
use rvaas_service::{EpochStore, ServiceSettings, SyncServer, VerificationService};
use rvaas_telemetry::{Registry, TraceContext};
use rvaas_topology::{generators, Topology};
use rvaas_types::{ClientId, HostId, SimTime, SwitchId};

/// Applies compiled attack messages to the provider's snapshot, the way the
/// simulated switches would.
fn apply_messages(snapshot: &mut NetworkSnapshot, messages: &[(SwitchId, Message)], at: SimTime) {
    for (switch, message) in messages {
        let Message::FlowMod { command } = message else {
            continue;
        };
        match command {
            FlowModCommand::Add(entry) => {
                snapshot.record_installed(*switch, entry.clone(), at);
            }
            FlowModCommand::Delete { flow_match } => {
                let victims: Vec<FlowEntry> = snapshot
                    .table_of(*switch)
                    .iter()
                    .filter(|e| e.flow_match == *flow_match)
                    .cloned()
                    .collect();
                for entry in victims {
                    snapshot.record_removed(*switch, &entry, at);
                }
            }
            FlowModCommand::DeleteByCookie { cookie } => {
                let victims: Vec<FlowEntry> = snapshot
                    .table_of(*switch)
                    .iter()
                    .filter(|e| e.cookie == *cookie)
                    .cloned()
                    .collect();
                for entry in victims {
                    snapshot.record_removed(*switch, &entry, at);
                }
            }
            FlowModCommand::ModifyStrict { .. } => {}
        }
    }
}

fn benign_snapshot(topology: &Topology, at: SimTime) -> NetworkSnapshot {
    let mut snapshot = NetworkSnapshot::new(at);
    for (switch, entry) in benign_rules(topology) {
        snapshot.record_installed(switch, entry, at);
    }
    snapshot
}

fn service(topology: &Topology, incremental: bool) -> VerificationService {
    let config = ServiceSettings {
        workers: 2,
        cache: incremental,
        incremental,
        ..ServiceSettings::default()
    }
    .into_config(VerifierConfig {
        use_history: false,
        locations: LocationMap::disclosed(topology),
    });
    VerificationService::new(topology.clone(), config)
}

fn service_plane_attacks(topology: &Topology) -> Vec<Attack> {
    let flood_switch = topology.switches().next().expect("a switch").id;
    vec![
        Attack::StaleEpochReplay {
            victim_host: HostId(2),
        },
        Attack::MirrorDesync {
            victim_host: HostId(2),
            phantom_rules: 6,
        },
        Attack::CachePoison {
            victim_host: HostId(2),
        },
        Attack::ChurnFlood {
            switch: flood_switch,
            rules: 120,
        },
    ]
}

fn all_queries(topology: &Topology) -> Vec<(ClientId, QuerySpec)> {
    let mut queries = Vec::new();
    for client in [ClientId(1), ClientId(2)] {
        if topology.hosts_of_client(client).is_empty() {
            continue;
        }
        for spec in [
            QuerySpec::ReachableDestinations,
            QuerySpec::ReachingSources,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
            QuerySpec::Neutrality,
        ] {
            queries.push((client, spec));
        }
    }
    queries
}

fn assert_verdicts_match(
    incremental: &VerificationService,
    oracle: &VerificationService,
    queries: &[(ClientId, QuerySpec)],
    context: &str,
) {
    for (client, spec) in queries {
        let fast = incremental
            .try_query(*client, spec.clone(), TraceContext::mint())
            .unwrap();
        let slow = oracle
            .try_query(*client, spec.clone(), TraceContext::mint())
            .unwrap();
        assert_eq!(
            fast.result, slow.result,
            "{context}: incremental and full-rebuild verdicts diverge \
             for {client:?} {spec:?}"
        );
    }
}

/// The central soundness gate: under every service-plane attack — install,
/// attacked steady state, removal — the incremental service's verdicts are
/// byte-for-byte the full-rebuild oracle's.
#[test]
fn verdicts_match_the_full_rebuild_oracle_under_every_service_plane_attack() {
    let topology = generators::line(4, 2);
    let queries = all_queries(&topology);
    for attack in service_plane_attacks(&topology) {
        assert!(
            attack.service_plane_expectation().is_some(),
            "catalogue invariant: these are service-plane attacks"
        );
        let incremental = service(&topology, true);
        let oracle = service(&topology, false);
        let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
        incremental
            .try_publish(&snapshot, SimTime::from_millis(1))
            .unwrap();
        oracle
            .try_publish(&snapshot, SimTime::from_millis(1))
            .unwrap();
        assert_verdicts_match(
            &incremental,
            &oracle,
            &queries,
            &format!("{} pre-attack", attack.label()),
        );

        apply_messages(
            &mut snapshot,
            &attack.compile(&topology),
            SimTime::from_millis(10),
        );
        incremental
            .try_publish(&snapshot, SimTime::from_millis(10))
            .unwrap();
        oracle
            .try_publish(&snapshot, SimTime::from_millis(10))
            .unwrap();
        assert_verdicts_match(
            &incremental,
            &oracle,
            &queries,
            &format!("{} installed", attack.label()),
        );

        apply_messages(
            &mut snapshot,
            &attack.compile_removal(&topology),
            SimTime::from_millis(20),
        );
        incremental
            .try_publish(&snapshot, SimTime::from_millis(20))
            .unwrap();
        oracle
            .try_publish(&snapshot, SimTime::from_millis(20))
            .unwrap();
        assert_verdicts_match(
            &incremental,
            &oracle,
            &queries,
            &format!("{} removed", attack.label()),
        );
    }
}

/// Stale-epoch replay: replayed pre-attack sync responses cannot divert a
/// client for longer than one round trip. Deltas from a wrong session are
/// rejected outright; a replayed (authoritative-looking) reset is undone by
/// the next ordinary sync exchange.
#[test]
fn stale_epoch_replay_cannot_roll_back_a_sync_client() {
    let topology = generators::line(3, 1);
    let attack = Attack::StaleEpochReplay {
        victim_host: HostId(2),
    };
    assert_eq!(
        attack.service_plane_expectation(),
        Some(ServicePlaneExpectation::ReplayRejected)
    );

    let verification = service(&topology, true);
    let sync_server = SyncServer::new(verification.store(), 7, &verification.registry());
    let client = ClientId(1);

    let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
    verification
        .try_publish(&snapshot, SimTime::from_millis(1))
        .unwrap();

    // The victim client synchronises with the clean epoch; the adversary
    // records the very response it received.
    let mut session = SyncSession::new();
    let recorded_clean = sync_server
        .try_handle(&verification, &session.request(client))
        .unwrap();
    session.apply(&recorded_clean).expect("initial reset");
    assert!(session.is_synchronised());

    // The attack lands and the service publishes the poisoned epoch; the
    // client picks it up through a normal delta.
    apply_messages(
        &mut snapshot,
        &attack.compile(&topology),
        SimTime::from_millis(10),
    );
    verification
        .try_publish(&snapshot, SimTime::from_millis(10))
        .unwrap();
    let delta = sync_server
        .try_handle(&verification, &session.request(client))
        .unwrap();
    session.apply(&delta).expect("delta to the attacked epoch");
    let truth_serial = session.serial();

    // Replay 1: a delta stamped with a foreign session id must be rejected.
    let foreign = SyncResponse {
        session: 999,
        serial: truth_serial + 1,
        payload: SyncPayload::Delta {
            added: Vec::new(),
            removed: Vec::new(),
            reverified: Vec::new(),
        },
        trace: 0,
    };
    assert!(matches!(
        session.apply(&foreign),
        Err(SyncError::SessionMismatch { .. })
    ));
    assert_eq!(session.serial(), truth_serial, "rejected replay is a no-op");

    // Replay 2: the recorded clean-epoch reset *does* apply (resets are
    // server-authoritative), rolling the mirror back...
    session
        .apply(&recorded_clean)
        .expect("replayed reset applies");
    assert!(session.serial() < truth_serial, "the rollback happened");

    // ...but a single ordinary round trip reconverges the mirror onto the
    // server's real state, with the usual desync-reset fallback.
    let catchup = sync_server
        .try_handle(&verification, &session.request(client))
        .unwrap();
    if session.apply(&catchup).is_err() {
        session.desynchronise();
        let reset = sync_server
            .try_handle(&verification, &session.request(client))
            .unwrap();
        session.apply(&reset).expect("recovery reset");
    }
    assert_eq!(session.serial(), verification.current_serial());

    // Converged means converged: a fresh observer syncing from scratch holds
    // exactly the same digest set.
    let mut fresh = SyncSession::new();
    let full = sync_server
        .try_handle(&verification, &fresh.request(ClientId(1)))
        .unwrap();
    fresh.apply(&full).expect("fresh reset");
    assert_eq!(session.digests(), fresh.digests());
}

/// Mirror-desync: phantom removals must flip the incremental model into its
/// desynchronised, conservative mode (every query re-verified), and a
/// rebuild from the true snapshot must restore exact equivalence.
#[test]
fn phantom_removals_degrade_to_conservative_reverification() {
    let topology = generators::line(3, 1);
    let attack = Attack::MirrorDesync {
        victim_host: HostId(2),
        phantom_rules: 6,
    };
    let snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
    let mut model = IncrementalModel::from_snapshot(topology.clone(), &snapshot);
    assert!(!model.is_desynced());

    // Compile the phantom removals into rule-level changes, exactly the way
    // the epoch delta would present them.
    let changes: Vec<RuleChange> = attack
        .compile(&topology)
        .into_iter()
        .filter_map(|(switch, message)| match message {
            Message::FlowMod {
                command: FlowModCommand::Delete { flow_match },
            } => Some(RuleChange::removed(
                switch,
                FlowEntry::new(PRIO_ATTACK, flow_match, Vec::new()),
            )),
            _ => None,
        })
        .collect();
    assert_eq!(changes.len(), 6);

    let region = model.apply(&changes);
    assert!(model.is_desynced(), "unknown removals must be noticed");
    assert!(
        region.conservative,
        "a desynchronised model must not claim a bounded region"
    );
    // Conservative means *every* standing query re-verifies — the safe
    // direction; no verdict is ever served from the diverged mirror.
    for (client, spec) in all_queries(&topology) {
        assert!(
            query_affected(&topology, client, &spec, &region),
            "{client:?} {spec:?} must be re-verified under a conservative region"
        );
    }

    // Recovery: a rebuild from the (true) snapshot restores exact
    // behavioural equivalence with the real network.
    model.rebuild_from(&snapshot);
    assert!(!model.is_desynced());
    assert!(reachability_equivalent(
        model.network_function(),
        &snapshot.to_network_function(&topology)
    ));
}

/// Cache poisoning: a rule toggled on and off across epochs flips the
/// reachability verdict each time, and every answer — cached or not — must
/// equal the full-rebuild oracle's answer for the *same* epoch.
#[test]
fn epoch_toggled_rule_cannot_poison_the_result_cache() {
    let topology = generators::line(3, 1);
    let attack = Attack::CachePoison {
        victim_host: HostId(2),
    };
    let cached = service(&topology, true);
    let oracle = service(&topology, false);
    let client = ClientId(1);
    let spec = QuerySpec::ReachableDestinations;

    let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
    cached
        .try_publish(&snapshot, SimTime::from_millis(1))
        .unwrap();
    oracle
        .try_publish(&snapshot, SimTime::from_millis(1))
        .unwrap();

    let mut verdicts = Vec::new();
    for epoch in 0..6u64 {
        let at = SimTime::from_millis(10 + 10 * epoch);
        let messages = if epoch % 2 == 0 {
            attack.compile(&topology)
        } else {
            attack.compile_removal(&topology)
        };
        apply_messages(&mut snapshot, &messages, at);
        cached.try_publish(&snapshot, at).unwrap();
        oracle.try_publish(&snapshot, at).unwrap();

        // Query twice so the second answer is eligible for the cache, then
        // compare both against the oracle.
        let first = cached
            .try_query(client, spec.clone(), TraceContext::mint())
            .unwrap();
        let second = cached
            .try_query(client, spec.clone(), TraceContext::mint())
            .unwrap();
        let truth = oracle
            .try_query(client, spec.clone(), TraceContext::mint())
            .unwrap();
        assert_eq!(first.result, truth.result, "epoch {epoch}: fresh answer");
        assert_eq!(second.result, truth.result, "epoch {epoch}: cached answer");
        assert_eq!(first.epoch_serial, truth.epoch_serial);
        verdicts.push(first.result);
    }
    // Ground truth that the probe works: consecutive epochs disagree.
    for pair in verdicts.windows(2) {
        assert_ne!(
            pair[0], pair[1],
            "the toggled rule must flip the verdict between epochs"
        );
    }
    // And the cache was actually exercised, not bypassed.
    assert!(
        cached.stats().cache_hits > 0,
        "second same-epoch query must hit the cache"
    );
}

/// Churn flood: a single epoch carrying hundreds of distinct rule changes
/// must trip the epoch store's bulk-rebuild heuristic (per-rule region
/// tracking would be slower than a rebuild), while an ordinary small delta
/// must not.
#[test]
fn churn_flood_trips_the_bulk_rebuild_heuristic() {
    let topology = generators::line(3, 1);
    let flood_switch = topology.switches().next().expect("a switch").id;
    let attack = Attack::ChurnFlood {
        switch: flood_switch,
        rules: 120,
    };
    let Some(ServicePlaneExpectation::BulkRebuild { min_changes }) =
        attack.service_plane_expectation()
    else {
        panic!("churn flood must carry the bulk-rebuild expectation");
    };

    let store = EpochStore::new(8, Topology::new(), &Registry::new());
    let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
    store
        .try_publish(snapshot.clone(), SimTime::from_millis(1))
        .expect("baseline epoch");

    // The flood epoch: every rule is a distinct digest, so the delta size
    // equals the flood size and the heuristic must fire.
    apply_messages(
        &mut snapshot,
        &attack.compile(&topology),
        SimTime::from_millis(10),
    );
    let flooded = store
        .try_publish(snapshot.clone(), SimTime::from_millis(10))
        .expect("flood epoch");
    assert!(flooded.delta_rules >= min_changes as usize);
    assert!(
        flooded.bulk_rebuild,
        "{} rule changes must take the bulk-rebuild path",
        flooded.delta_rules
    );
    assert!(
        flooded.changed.conservative || !flooded.changed.space.is_empty(),
        "a bulk rebuild reports an unbounded or non-trivial region"
    );

    // Removing the flood is the same storm in reverse.
    apply_messages(
        &mut snapshot,
        &attack.compile_removal(&topology),
        SimTime::from_millis(20),
    );
    let drained = store
        .try_publish(snapshot.clone(), SimTime::from_millis(20))
        .expect("drain epoch");
    assert!(drained.bulk_rebuild);

    // Control: one ordinary change stays on the per-rule delta path.
    apply_messages(
        &mut snapshot,
        &Attack::Blackhole {
            victim_host: HostId(2),
        }
        .compile(&topology),
        SimTime::from_millis(30),
    );
    let small = store
        .try_publish(snapshot.clone(), SimTime::from_millis(30))
        .expect("small epoch");
    assert!(
        !small.bulk_rebuild,
        "a one-rule delta must not trigger a bulk rebuild"
    );
    assert_eq!(small.delta_rules, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Convergence under adversarial interleavings: whatever mix of benign
    /// churn, attacks, removals, stale replays and forced desyncs a client
    /// endures, one ordinary sync exchange (with the standard desync-reset
    /// fallback) lands it exactly on the server's current digest set.
    #[test]
    fn sync_session_converges_after_any_interleaving(ops in proptest::collection::vec(0u8..6u8, 1..24)) {
        let topology = generators::line(3, 1);
        let verification = service(&topology, true);
        let sync_server = SyncServer::new(verification.store(), 11, &verification.registry());
        let client = ClientId(1);
        let attack = Attack::StaleEpochReplay { victim_host: HostId(2) };

        let mut snapshot = benign_snapshot(&topology, SimTime::from_millis(1));
        verification.try_publish(&snapshot, SimTime::from_millis(1)).unwrap();
        let mut session = SyncSession::new();
        let recorded = sync_server.try_handle(&verification, &session.request(client)).unwrap();
        session.apply(&recorded).expect("initial reset");

        let mut attacked = false;
        for (step, op) in ops.iter().enumerate() {
            let at = SimTime::from_millis(10 + step as u64 * 10);
            match op {
                // Benign churn: toggle an unrelated blackhole.
                0 => {
                    let benign = Attack::Blackhole { victim_host: HostId(3) };
                    let messages = if step % 2 == 0 {
                        benign.compile(&topology)
                    } else {
                        benign.compile_removal(&topology)
                    };
                    apply_messages(&mut snapshot, &messages, at);
                    verification.try_publish(&snapshot, at).unwrap();
                }
                // Attack install / removal epochs.
                1 => {
                    if !attacked {
                        apply_messages(&mut snapshot, &attack.compile(&topology), at);
                        verification.try_publish(&snapshot, at).unwrap();
                        attacked = true;
                    }
                }
                2 => {
                    if attacked {
                        apply_messages(&mut snapshot, &attack.compile_removal(&topology), at);
                        verification.try_publish(&snapshot, at).unwrap();
                        attacked = false;
                    }
                }
                // An ordinary sync round trip, with the reset fallback.
                3 => {
                    let response = sync_server.try_handle(&verification, &session.request(client)).unwrap();
                    if session.apply(&response).is_err() {
                        session.desynchronise();
                        let reset = sync_server.try_handle(&verification, &session.request(client)).unwrap();
                        session.apply(&reset).expect("recovery reset");
                    }
                }
                // Adversarial replay of the recorded clean epoch; errors
                // (e.g. removal of a digest the rollback lost) force the
                // documented desync fallback.
                4 => {
                    if session.apply(&recorded).is_err() {
                        session.desynchronise();
                    }
                }
                // Spontaneous client state loss (crash/restart).
                _ => session.desynchronise(),
            }
        }

        // One ordinary exchange must now converge the mirror exactly.
        let response = sync_server.try_handle(&verification, &session.request(client)).unwrap();
        if session.apply(&response).is_err() {
            session.desynchronise();
            let reset = sync_server.try_handle(&verification, &session.request(client)).unwrap();
            session.apply(&reset).expect("final recovery reset");
        }
        prop_assert_eq!(session.serial(), verification.current_serial());
        let mut fresh = SyncSession::new();
        let full = sync_server.try_handle(&verification, &fresh.request(client)).unwrap();
        fresh.apply(&full).expect("fresh observer reset");
        prop_assert_eq!(session.digests(), fresh.digests());
    }
}
