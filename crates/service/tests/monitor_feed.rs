//! Closes the monitor → epoch-store loop end to end: a [`ConfigMonitor`]
//! consumes raw switch messages, its [`drain_changes`] output is handed
//! straight to [`VerificationService::try_publish_changes`], and the
//! resulting epochs must be indistinguishable — digest for digest — from a
//! twin service that re-digests the monitor's full snapshot on every
//! publish, including after a modify that rewrites installed rules'
//! actions in place. The `None` drain after a full-table poll reply must
//! fall back to the full-snapshot path.
//!
//! [`drain_changes`]: rvaas::ConfigMonitor::drain_changes

use rvaas::{ConfigMonitor, LocationMap, MonitorConfig, VerifierConfig};
use rvaas_client::QuerySpec;
use rvaas_controlplane::benign_rules;
use rvaas_controlplane::routing::PRIO_TRANSIT;
use rvaas_openflow::{Action, FlowEntry, FlowMatch, Message};
use rvaas_service::{ServiceSettings, VerificationService};
use rvaas_telemetry::TraceContext;
use rvaas_topology::generators;
use rvaas_types::{ClientId, SimTime, SwitchId};

fn service_over(topology: &rvaas_topology::Topology) -> VerificationService {
    let config = ServiceSettings {
        workers: 1,
        ..ServiceSettings::default()
    }
    .into_config(VerifierConfig {
        use_history: false,
        locations: LocationMap::disclosed(topology),
    });
    VerificationService::new(topology.clone(), config)
}

/// Both services must expose the same epoch: serial, digest set and rule
/// count, and the same verdict for a representative query.
fn assert_epochs_agree(delta: &VerificationService, full: &VerificationService, round: &str) {
    let d = delta.store().current();
    let f = full.store().current();
    assert_eq!(d.serial, f.serial, "{round}: serials diverged");
    assert_eq!(d.digests, f.digests, "{round}: digest sets diverged");
    assert_eq!(
        d.snapshot.rule_count(),
        f.snapshot.rule_count(),
        "{round}: rule counts diverged"
    );
    let spec = QuerySpec::ReachableDestinations;
    let dv = delta
        .try_query(ClientId(1), spec.clone(), TraceContext::mint())
        .unwrap();
    let fv = full
        .try_query(ClientId(1), spec, TraceContext::mint())
        .unwrap();
    assert_eq!(dv.result, fv.result, "{round}: verdicts diverged");
}

#[test]
fn monitor_drained_changes_reproduce_full_snapshot_publishes() {
    let topology = generators::line(4, 2);
    let delta_service = service_over(&topology);
    let full_service = service_over(&topology);
    let mut monitor = ConfigMonitor::new(MonitorConfig::default());

    // --- initial table build arrives as passive notifications -----------
    let seed = benign_rules(&topology);
    for (switch, entry) in &seed {
        monitor.on_switch_message(
            *switch,
            &Message::FlowMonitorNotify {
                switch: *switch,
                entry: entry.clone(),
                added: true,
                at: SimTime::from_millis(1),
            },
            SimTime::from_millis(1),
        );
    }
    let changes = monitor.drain_changes().expect("no resync yet");
    assert_eq!(changes.len(), seed.len());
    delta_service
        .try_publish_changes(&changes, SimTime::from_millis(1))
        .unwrap();
    full_service
        .try_publish(monitor.snapshot(), SimTime::from_millis(1))
        .unwrap();
    assert_epochs_agree(&delta_service, &full_service, "seed");

    // --- a quiet window drains empty: nothing to publish -----------------
    assert_eq!(monitor.drain_changes(), Some(Vec::new()));

    // --- install + remove churn, one publish per window -------------------
    for round in 0..3u64 {
        let at = SimTime::from_millis(10 + round);
        let filter = FlowEntry::new(
            300 + round as u16,
            FlowMatch::to_ip(0x0a00_0001 + round as u32),
            vec![Action::Drop],
        );
        monitor.on_switch_message(
            SwitchId(2),
            &Message::FlowMonitorNotify {
                switch: SwitchId(2),
                entry: filter,
                added: true,
                at,
            },
            at,
        );
        let (victim_switch, victim_entry) = &seed[round as usize];
        monitor.on_switch_message(
            *victim_switch,
            &Message::FlowRemoved {
                switch: *victim_switch,
                entry: victim_entry.clone(),
                at,
            },
            at,
        );
        let changes = monitor.drain_changes().expect("no resync in this window");
        assert_eq!(changes.len(), 2);
        delta_service.try_publish_changes(&changes, at).unwrap();
        full_service.try_publish(monitor.snapshot(), at).unwrap();
        assert_epochs_agree(&delta_service, &full_service, &format!("churn {round}"));
    }

    // --- a modify round: the controller rewrites the installed transit
    // rules to drop, keeping priority and match; the monitor sees only the
    // FlowMonitorNotify of the rewritten entries -------------------------
    let at = SimTime::from_millis(40);
    let spec = QuerySpec::ReachableDestinations;
    let before = full_service
        .try_query(ClientId(1), spec.clone(), TraceContext::mint())
        .unwrap();
    let mut rewrites = 0;
    for (switch, entry) in &seed[3..] {
        if entry.priority != PRIO_TRANSIT {
            continue;
        }
        let mut dropped = entry.clone();
        dropped.actions = vec![Action::Drop];
        monitor.on_switch_message(
            *switch,
            &Message::FlowMonitorNotify {
                switch: *switch,
                entry: dropped,
                added: false,
                at,
            },
            at,
        );
        rewrites += 1;
    }
    let changes = monitor.drain_changes().expect("no resync in this window");
    assert_eq!(changes.len(), rewrites);
    assert!(rewrites > 0);
    delta_service.try_publish_changes(&changes, at).unwrap();
    full_service.try_publish(monitor.snapshot(), at).unwrap();
    assert_epochs_agree(&delta_service, &full_service, "modify");
    let after = full_service
        .try_query(ClientId(1), spec, TraceContext::mint())
        .unwrap();
    assert_ne!(
        before.result, after.result,
        "the rewrite changed the verdict"
    );

    // --- a full-table poll reply voids the delta: fall back to the
    // full-snapshot publish on both services ------------------------------
    let at = SimTime::from_millis(50);
    monitor.on_switch_message(
        SwitchId(1),
        &Message::FlowStatsReply {
            switch: SwitchId(1),
            entries: vec![FlowEntry::new(
                9,
                FlowMatch::to_ip(0x0a00_0002),
                vec![Action::Output(rvaas_types::PortId(1))],
            )],
        },
        at,
    );
    assert_eq!(monitor.drain_changes(), None, "resync voids the delta");
    delta_service.try_publish(monitor.snapshot(), at).unwrap();
    full_service.try_publish(monitor.snapshot(), at).unwrap();
    assert_epochs_agree(&delta_service, &full_service, "resync");

    // The next window is delta-driven again.
    monitor.on_switch_message(
        SwitchId(3),
        &Message::FlowMonitorNotify {
            switch: SwitchId(3),
            entry: FlowEntry::new(8, FlowMatch::any(), vec![Action::Drop]),
            added: true,
            at: SimTime::from_millis(60),
        },
        SimTime::from_millis(60),
    );
    let changes = monitor.drain_changes().expect("drained after resync");
    assert_eq!(changes.len(), 1);
    delta_service
        .try_publish_changes(&changes, SimTime::from_millis(60))
        .unwrap();
    full_service
        .try_publish(monitor.snapshot(), SimTime::from_millis(60))
        .unwrap();
    assert_epochs_agree(&delta_service, &full_service, "post-resync");
}
