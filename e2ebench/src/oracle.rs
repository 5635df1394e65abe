//! The correctness oracle, run after timing ends: rebuilds every epoch by
//! replaying the benchmark's own publish log and checks what the daemon
//! served against it.
//!
//! * Every converged session's digest set must equal its epoch's.
//! * Every reverified standing-query result must equal a full-rebuild
//!   `LogicalVerifier` answer at its epoch.
//! * Verdicts at epoch 1 and at a seeded sample of later epochs must equal
//!   the full-rebuild answer, rendered as the daemon renders it.

use std::collections::{BTreeMap, BTreeSet};

use rvaas::{
    LocationMap, LogicalVerifier, NetworkSnapshot, QueryEvaluator, RuleChange, VerifierConfig,
};
use rvaas_client::{FlowDigest, QueryResult, QuerySpec};
use rvaas_daemon::json;
use rvaas_service::{digest_entry, digest_snapshot};
use rvaas_topology::Topology;
use rvaas_types::{ClientId, SimTime};

use crate::workload::{epoch_one, mix64, Rng};

/// An order-independent fingerprint of a digest set: its size plus two
/// independent 64-bit mixes summed and xored over the members.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    count: u64,
    sum: u64,
    xor: u64,
}

impl Fingerprint {
    /// The fingerprint of `digests`.
    pub fn of<'a>(digests: impl IntoIterator<Item = &'a FlowDigest>) -> Self {
        let mut fp = Fingerprint::default();
        for d in digests {
            fp.add(*d);
        }
        fp
    }

    fn add(&mut self, d: FlowDigest) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix64(d.0));
        self.xor ^= mix64(d.0 ^ 0xa5a5_a5a5_a5a5_a5a5);
    }

    fn remove(&mut self, d: FlowDigest) {
        self.count -= 1;
        self.sum = self.sum.wrapping_sub(mix64(d.0));
        self.xor ^= mix64(d.0 ^ 0xa5a5_a5a5_a5a5_a5a5);
    }
}

/// A rule set rebuilt from epoch 1 by replaying publishes with the epoch
/// store's semantics: re-installs and removals of absent rules are not
/// changes.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The replayed rules.
    pub snapshot: NetworkSnapshot,
    digests: BTreeSet<FlowDigest>,
    fingerprint: Fingerprint,
}

impl Replay {
    /// The daemon's epoch 1 over `topology`.
    #[must_use]
    pub fn new(topology: &Topology) -> Self {
        let snapshot = epoch_one(topology);
        let digests = digest_snapshot(&snapshot);
        let fingerprint = Fingerprint::of(&digests);
        Replay {
            snapshot,
            digests,
            fingerprint,
        }
    }

    /// Applies one publish's changes.
    pub fn apply(&mut self, changes: &[RuleChange], at: SimTime) {
        for change in changes {
            let d = digest_entry(change.switch, &change.entry);
            if change.installed {
                if self.digests.insert(d) {
                    self.snapshot
                        .record_installed(change.switch, change.entry.clone(), at);
                    self.fingerprint.add(d);
                }
            } else if self.digests.remove(&d) {
                self.snapshot
                    .record_removed(change.switch, &change.entry, at);
                self.fingerprint.remove(d);
            }
        }
    }

    /// The fingerprint of the replayed digest set.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }
}

/// Everything the run recorded for the oracle.
#[derive(Debug, Default)]
pub struct Record {
    /// `(serial, changes)` of every accepted publish, in order.
    pub publishes: Vec<(u64, Vec<RuleChange>)>,
    /// The first verdict `result` seen per `(serial, key index)`.
    pub verdicts: BTreeMap<(u64, usize), String>,
    /// `(serial, fingerprint)` of every session at every convergence.
    pub convergences: Vec<(u64, Fingerprint)>,
    /// `(serial, client, query, result)` of every reverified standing query.
    pub reverified: Vec<(u64, ClientId, QuerySpec, QueryResult)>,
}

/// What the oracle found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Findings {
    /// Verdicts checked against a full rebuild.
    pub verdicts_checked: usize,
    /// Of those, wrong.
    pub verdicts_wrong: usize,
    /// Convergences checked.
    pub convergences_checked: usize,
    /// Of those, diverged from their epoch.
    pub convergences_diverged: usize,
    /// Reverified results checked.
    pub reverified_checked: usize,
    /// Of those, wrong.
    pub reverified_wrong: usize,
    /// Epochs at which a full verifier was rebuilt.
    pub epochs_rebuilt: usize,
}

impl Findings {
    /// Total mismatches.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.verdicts_wrong + self.convergences_diverged + self.reverified_wrong
    }
}

/// Replays the publish log over epoch 1 and checks `record` against it.
/// Verdicts are checked at epoch 1 and at up to `sampled_epochs` later
/// epochs drawn with `seed`.
#[must_use]
pub fn check(
    topology: &Topology,
    keys: &[(ClientId, QuerySpec)],
    record: &Record,
    sampled_epochs: usize,
    seed: u64,
) -> Findings {
    let verifier = LogicalVerifier::new(
        topology.clone(),
        VerifierConfig {
            use_history: false,
            locations: LocationMap::disclosed(topology),
        },
    );
    let mut verdict_serials: Vec<u64> = record
        .verdicts
        .keys()
        .map(|(s, _)| *s)
        .filter(|s| *s > 1)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    Rng::new(seed ^ 0x0ac1e).shuffle(&mut verdict_serials);
    verdict_serials.truncate(sampled_epochs);
    let mut verdict_serials: BTreeSet<u64> = verdict_serials.into_iter().collect();
    verdict_serials.insert(1);

    let mut convergences: BTreeMap<u64, Vec<Fingerprint>> = BTreeMap::new();
    for (serial, fp) in &record.convergences {
        convergences.entry(*serial).or_default().push(*fp);
    }
    let mut reverified: BTreeMap<u64, Vec<(ClientId, &QuerySpec, &QueryResult)>> = BTreeMap::new();
    for (serial, client, spec, result) in &record.reverified {
        reverified
            .entry(*serial)
            .or_default()
            .push((*client, spec, result));
    }

    let mut replay = Replay::new(topology);
    let mut findings = Findings::default();
    let check_epoch =
        |serial: u64, snapshot: &NetworkSnapshot, fp: Fingerprint, findings: &mut Findings| {
            for seen in convergences.get(&serial).into_iter().flatten() {
                findings.convergences_checked += 1;
                if *seen != fp {
                    findings.convergences_diverged += 1;
                }
            }
            let verdicts: Vec<(&(u64, usize), &String)> = if verdict_serials.contains(&serial) {
                record
                    .verdicts
                    .range((serial, 0)..=(serial, usize::MAX))
                    .collect()
            } else {
                Vec::new()
            };
            let standing = reverified.get(&serial);
            if verdicts.is_empty() && standing.is_none() {
                return;
            }
            findings.epochs_rebuilt += 1;
            let mut evaluator: QueryEvaluator<'_> = verifier.evaluator(snapshot);
            for ((_, key), served) in verdicts {
                let (client, spec) = &keys[*key];
                findings.verdicts_checked += 1;
                if json::render_result(&evaluator.answer(*client, spec)) != **served {
                    findings.verdicts_wrong += 1;
                }
            }
            for (client, spec, result) in standing.into_iter().flatten() {
                findings.reverified_checked += 1;
                if evaluator.answer(*client, spec) != **result {
                    findings.reverified_wrong += 1;
                }
            }
        };

    check_epoch(1, &replay.snapshot, replay.fingerprint(), &mut findings);
    for (i, (serial, changes)) in record.publishes.iter().enumerate() {
        replay.apply(changes, SimTime::from_millis(2 + i as u64));
        check_epoch(
            *serial,
            &replay.snapshot,
            replay.fingerprint(),
            &mut findings,
        );
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WORKLOADS};

    #[test]
    fn fingerprint_is_order_independent_and_tracks_removals() {
        let a = [FlowDigest(1), FlowDigest(2), FlowDigest(3)];
        let b = [FlowDigest(3), FlowDigest(1), FlowDigest(2)];
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
        let mut fp = Fingerprint::of(&a);
        fp.remove(FlowDigest(2));
        assert_eq!(fp, Fingerprint::of(&[FlowDigest(1), FlowDigest(3)]));
        assert_ne!(fp, Fingerprint::of(&[FlowDigest(1), FlowDigest(4)]));
    }

    #[test]
    fn oracle_accepts_truth_and_flags_a_flipped_verdict() {
        let spec = WORKLOADS[1];
        let inputs = generate(&spec, 5, 1.0).unwrap();
        let topology = &inputs.topology;
        let verifier = LogicalVerifier::new(
            topology.clone(),
            VerifierConfig {
                use_history: false,
                locations: LocationMap::disclosed(topology),
            },
        );
        // Build a truthful record over the first two publishes.
        let mut record = Record::default();
        let mut replay = Replay::new(topology);
        let answer = |snapshot: &NetworkSnapshot, key: usize| {
            let (client, query) = &inputs.keys[key];
            json::render_result(&verifier.answer(snapshot, *client, query))
        };
        record.verdicts.insert((1, 0), answer(&replay.snapshot, 0));
        record.convergences.push((1, replay.fingerprint()));
        for (i, changes) in inputs.publishes.iter().take(2).enumerate() {
            let serial = i as u64 + 2;
            replay.apply(changes, SimTime::from_millis(2));
            record.publishes.push((serial, changes.clone()));
            record.convergences.push((serial, replay.fingerprint()));
            record
                .verdicts
                .insert((serial, 1), answer(&replay.snapshot, 1));
        }
        let clean = check(topology, &inputs.keys, &record, 8, 1);
        assert_eq!(clean.failures(), 0, "{clean:?}");
        assert_eq!(clean.verdicts_checked, 3);
        assert_eq!(clean.convergences_checked, 3);

        // A verdict served for the wrong epoch's state, and a session that
        // missed a removal, are both caught.
        record
            .verdicts
            .insert((1, 0), "{\"isolated\":false}".to_string());
        record.convergences[2].1 = record.convergences[1].1;
        let dirty = check(topology, &inputs.keys, &record, 8, 1);
        assert_eq!(dirty.verdicts_wrong, 1);
        assert_eq!(dirty.convergences_diverged, 1);
    }
}
