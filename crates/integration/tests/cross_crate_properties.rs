//! Property-based integration tests checking that the symbolic view (HSA over
//! the RVaaS snapshot) agrees with the concrete behaviour of the simulated
//! data plane, across randomly chosen topologies and traffic.

use proptest::prelude::*;

use rvaas::NetworkSnapshot;
use rvaas_controlplane::{benign_rules, ProviderController};
use rvaas_hsa::{Cube, HeaderSpace, ReachabilityEngine};
use rvaas_netsim::{Network, NetworkConfig};
use rvaas_topology::generators;
use rvaas_types::{Field, Header, HostId, Packet, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any pair of hosts in a small line network running the benign
    /// policy, the HSA reachability verdict computed from the *snapshot*
    /// (built from the same rules) matches whether a concrete packet is
    /// actually delivered by the simulator.
    #[test]
    fn symbolic_reachability_matches_concrete_delivery(
        n in 3usize..6,
        clients in 1usize..3,
        src_idx in 0usize..5,
        dst_idx in 0usize..5,
    ) {
        let topo = generators::line(n, clients);
        let hosts: Vec<_> = topo.hosts().cloned().collect();
        let src = &hosts[src_idx % hosts.len()];
        let dst = &hosts[dst_idx % hosts.len()];
        prop_assume!(src.id != dst.id);

        // Symbolic verdict from a snapshot holding the benign rules.
        let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in benign_rules(&topo) {
            snapshot.record_installed(switch, entry, SimTime::from_millis(1));
        }
        let nf = snapshot.to_network_function(&topo);
        let engine = ReachabilityEngine::new(&nf);
        let space = HeaderSpace::from(
            Cube::wildcard()
                .with_field(Field::IpSrc, u64::from(src.ip))
                .with_field(Field::IpDst, u64::from(dst.ip)),
        );
        let symbolically_reachable = engine
            .reachable_edge_ports(src.attachment, space)
            .contains(&dst.attachment);

        // Concrete verdict from the simulator.
        let mut net = Network::new(topo.clone(), NetworkConfig::default());
        net.add_controller(Box::new(ProviderController::honest(topo.clone())));
        net.run_until(SimTime::from_millis(2));
        let packet = Packet::new(Header::builder().ip_src(src.ip).ip_dst(dst.ip).build());
        net.inject_from_host(src.id, packet).unwrap();
        net.run_until(SimTime::from_millis(10));
        let concretely_delivered = net.deliveries().iter().any(|d| d.host == dst.id);

        prop_assert_eq!(symbolically_reachable, concretely_delivered,
            "symbolic and concrete verdicts must agree for {} -> {}", src.id, dst.id);
        // And both must equal the policy intent: same client <=> reachable.
        prop_assert_eq!(concretely_delivered, src.owner == dst.owner);
    }

    /// The ground-truth network function exported by the simulator after the
    /// provider installed its rules is equivalent (rule-count wise and for
    /// sampled probes) to the snapshot built directly from the same policy.
    #[test]
    fn snapshot_matches_ground_truth_after_installation(n in 3usize..6, clients in 1usize..3) {
        let topo = generators::line(n, clients);
        let mut net = Network::new(topo.clone(), NetworkConfig::default());
        net.add_controller(Box::new(ProviderController::honest(topo.clone())));
        net.run_until(SimTime::from_millis(5));
        let ground_truth = net.ground_truth_function();

        let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
        for (switch, entry) in benign_rules(&topo) {
            snapshot.record_installed(switch, entry, SimTime::from_millis(1));
        }
        let from_snapshot = snapshot.to_network_function(&topo);
        prop_assert_eq!(ground_truth.rule_count(), from_snapshot.rule_count());
        prop_assert_eq!(ground_truth.switch_count(), from_snapshot.switch_count());
    }
}

/// The delivered-packet traces recorded by the simulator never contradict the
/// wiring plan: consecutive trace hops are always joined by a physical link.
#[test]
fn packet_traces_respect_the_wiring_plan() {
    let topo = generators::leaf_spine(2, 3, 2, 9);
    let mut net = Network::new(topo.clone(), NetworkConfig::default());
    net.add_controller(Box::new(ProviderController::honest(topo.clone())));
    net.run_until(SimTime::from_millis(5));
    // Blast traffic between all same-client pairs.
    let hosts: Vec<_> = topo.hosts().cloned().collect();
    for a in &hosts {
        for b in &hosts {
            if a.id != b.id && a.owner == b.owner {
                let packet = Packet::new(Header::builder().ip_src(a.ip).ip_dst(b.ip).build());
                net.inject_from_host(a.id, packet).unwrap();
            }
        }
    }
    net.run_until(SimTime::from_millis(50));
    assert!(net.stats().packets_delivered > 0);
    for delivery in net.deliveries() {
        let path = delivery.path();
        for pair in path.windows(2) {
            assert!(
                topo.neighbors(pair[0]).contains(&pair[1]),
                "trace hop {} -> {} has no physical link",
                pair[0],
                pair[1]
            );
        }
    }
    assert_eq!(
        net.deliveries().len(),
        net.stats().packets_delivered as usize
    );
    let _ = HostId(1);
}

// ---------------------------------------------------------------------------
// Incremental verification engine: cross-crate equivalence and soundness.
// ---------------------------------------------------------------------------

/// A tenant-pinned rule above the benign priorities, as the incremental
/// churn workload installs them.
fn tenant_entry(src_ip: u32, dst_ip: u32) -> rvaas_openflow::FlowEntry {
    rvaas_openflow::FlowEntry::new(
        400,
        rvaas_openflow::FlowMatch::from_ip(src_ip).field(Field::IpDst, u64::from(dst_ip)),
        vec![rvaas_openflow::Action::Drop],
    )
}

fn benign_snapshot_of(topo: &rvaas_topology::Topology) -> NetworkSnapshot {
    let mut snapshot = NetworkSnapshot::new(SimTime::from_secs(1));
    for (switch, entry) in benign_rules(topo) {
        snapshot.record_installed(switch, entry, SimTime::from_millis(1));
    }
    snapshot
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Driving an [`rvaas::IncrementalModel`] purely from the service
    /// plane's epoch deltas — digest diffing, arrival-order rule resolution
    /// and multi-epoch aggregation included — keeps it
    /// reachability-equivalent to a from-scratch rebuild of the final
    /// snapshot. The ops install, remove, or flip an installed rule's
    /// actions in place (a modify); one store publishes full snapshots and
    /// a twin publishes the same ops as rule changes, and the two must hold
    /// the same digest set after every op.
    #[test]
    fn incremental_model_tracks_epoch_deltas(
        ops in proptest::collection::vec((0usize..6, 0usize..6, 1u32..5, 0u8..3), 1..10),
    ) {
        use rvaas::RuleChange;
        use rvaas_openflow::Action;
        use rvaas_service::EpochStore;
        use rvaas_telemetry::Registry;

        const INSTALL: u8 = 1;
        const FLIP: u8 = 2;

        let topo = generators::line(4, 2);
        let ips: Vec<u32> = topo.hosts().map(|h| h.ip).collect();
        let mut snapshot = benign_snapshot_of(&topo);
        let full = EpochStore::new(64, rvaas_topology::Topology::new(), &Registry::new());
        let delta = EpochStore::new(64, rvaas_topology::Topology::new(), &Registry::new());
        full.try_publish(snapshot.clone(), SimTime::from_millis(1)).unwrap();
        delta.try_publish(snapshot.clone(), SimTime::from_millis(1)).unwrap();

        let mut models = [
            (rvaas::IncrementalModel::new(topo.clone()), 0u64),
            (rvaas::IncrementalModel::new(topo.clone()), 0u64),
        ];
        for (i, (src, dst, sw, op)) in ops.iter().enumerate() {
            let at = SimTime::from_millis(10 + i as u64);
            let change = if *op == FLIP {
                // Flip the actions of an installed tenant rule in place.
                let tenants: Vec<_> = snapshot
                    .tables()
                    .flat_map(|(switch, table)| {
                        table.iter().filter(|e| e.priority == 400).map(move |e| (switch, e))
                    })
                    .collect();
                if tenants.is_empty() {
                    continue;
                }
                let (switch, installed) = tenants[src % tenants.len()];
                let mut flipped = installed.clone();
                flipped.actions = if installed.actions == [Action::Drop] {
                    vec![Action::Output(rvaas_types::PortId(1))]
                } else {
                    vec![Action::Drop]
                };
                RuleChange::installed(switch, flipped)
            } else {
                let entry = tenant_entry(ips[src % ips.len()], ips[dst % ips.len()]);
                let switch = rvaas_types::SwitchId(*sw);
                let present = snapshot
                    .table_of(switch)
                    .iter()
                    .find(|e| e.priority == entry.priority && e.flow_match == entry.flow_match)
                    .cloned();
                match (*op == INSTALL, present) {
                    (true, None) => RuleChange::installed(switch, entry),
                    (false, Some(installed)) => RuleChange::removed(switch, installed),
                    _ => continue,
                }
            };
            if change.installed {
                snapshot.record_installed(change.switch, change.entry.clone(), at);
            } else {
                snapshot.record_removed(change.switch, &change.entry, at);
            }
            full.try_publish(snapshot.clone(), at).unwrap();
            delta.try_publish_changes(std::slice::from_ref(&change), at).unwrap();
            prop_assert_eq!(&delta.current().digests, &full.current().digests);
            // Catch the models up every other step so some syncs aggregate
            // more than one epoch's delta.
            if i % 2 == 0 {
                for ((model, model_serial), store) in models.iter_mut().zip([&full, &delta]) {
                    let current = store.current();
                    let window = store
                        .delta_between(*model_serial, current.serial)
                        .expect("retained window");
                    model.apply(&window.rule_changes());
                    *model_serial = current.serial;
                }
            }
        }
        for ((model, model_serial), store) in models.iter_mut().zip([&full, &delta]) {
            let current = store.current();
            if *model_serial != current.serial {
                let window = store
                    .delta_between(*model_serial, current.serial)
                    .expect("retained window");
                model.apply(&window.rule_changes());
            }
            prop_assert!(
                rvaas_hsa::reachability_equivalent(
                    model.network_function(),
                    &snapshot.to_network_function(&topo),
                ),
                "incremental model diverged from rebuild after {} ops", ops.len()
            );
        }
    }

    /// Soundness of the affected-query computation: any standing query the
    /// changed region reports as *unaffected* must produce exactly the same
    /// verdict on the new snapshot as on the old one.
    #[test]
    fn unaffected_queries_keep_their_verdicts(
        ops in proptest::collection::vec((0usize..6, 0usize..6, 1u32..5, any::<bool>()), 1..6),
    ) {
        use rvaas_client::QuerySpec;
        use rvaas_types::ClientId;

        let topo = generators::line(4, 2);
        let ips: Vec<u32> = topo.hosts().map(|h| h.ip).collect();
        let before = benign_snapshot_of(&topo);
        let mut after = before.clone();
        let mut model = rvaas::IncrementalModel::from_snapshot(topo.clone(), &before);

        let mut changes = Vec::new();
        for (src, dst, sw, install) in &ops {
            let entry = tenant_entry(ips[src % ips.len()], ips[dst % ips.len()]);
            let switch = rvaas_types::SwitchId(*sw);
            let present = after
                .table_of(switch)
                .iter()
                .any(|e| e.priority == entry.priority && e.flow_match == entry.flow_match);
            if *install && !present {
                after.record_installed(switch, entry.clone(), SimTime::from_millis(9));
                changes.push(rvaas::RuleChange::installed(switch, entry));
            } else if !*install && present {
                after.record_removed(switch, &entry, SimTime::from_millis(9));
                changes.push(rvaas::RuleChange::removed(switch, entry));
            }
        }
        let region = model.apply(&changes);

        let verifier = rvaas::LogicalVerifier::new(
            topo.clone(),
            rvaas::VerifierConfig {
                use_history: false,
                locations: rvaas::LocationMap::disclosed(&topo),
            },
        );
        let some_ip = ips[0];
        let specs = [
            QuerySpec::ReachableDestinations,
            QuerySpec::ReachingSources,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
            QuerySpec::PathLength { to_ip: some_ip },
            QuerySpec::Neutrality,
        ];
        for client in [ClientId(1), ClientId(2)] {
            for spec in &specs {
                if !rvaas::query_affected(&topo, client, spec, &region) {
                    prop_assert_eq!(
                        verifier.answer(&before, client, spec),
                        verifier.answer(&after, client, spec),
                        "query {:?}/{:?} was reported unaffected but changed verdict",
                        client, spec
                    );
                }
            }
        }
    }
}
