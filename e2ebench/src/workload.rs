//! The benchmark's workloads and the inputs generated from a seed.
//!
//! Every workload drives the same two streams against the daemon: open-loop
//! `POST /v1/query` reads on one keep-alive HTTP connection, and a fixed-rate
//! publish stream whose epochs are pulled over one sync connection carrying
//! a few client sessions. The workloads differ in topology size, in which
//! keys are read and in what each publish changes, and so in which layers
//! the two streams reach. Everything the daemon receives is generated here,
//! before it starts, from the `--seed` argument alone.

use std::collections::BTreeMap;

use rvaas::{NetworkSnapshot, RuleChange};
use rvaas_client::QuerySpec;
use rvaas_controlplane::benign_rules;
use rvaas_daemon::json;
use rvaas_openflow::{Action, FlowEntry, FlowMatch};
use rvaas_service::digest_entry;
use rvaas_topology::Topology;
use rvaas_types::{ClientId, Field, SimTime, SwitchId};
use rvaas_workloads::churn::tenant_churn_round;
use rvaas_workloads::service_load::clients_of;

/// Sync sessions per workload (one sync connection carries all of them).
pub const SESSIONS: usize = 3;
/// Clients read by a [`ReadKeys::Few`] workload.
const FEW_READERS: usize = 8;
/// Priority of the rules the publish streams install: above the benign
/// admission rules, like the tenant churn of `rvaas_workloads`.
const PRIO_CHURN: u16 = 400;
/// Base of the address block no tenant owns (`11.0.0.0/8`); `read_hot`'s
/// publishes match only inside it.
const FOREIGN_BASE: u32 = 0x0b00_0000;

/// What each publish of a workload changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishKind {
    /// One rule matching only unowned addresses, installed and removed on
    /// alternate publishes: no tenant's query depends on it.
    Foreign,
    /// `rvaas_workloads::tenant_churn_round` over a rotating window of
    /// `clients` tenants with `rules` rules each.
    TenantChurn { clients: usize, rules: usize },
    /// One tenant-pinned rule of a tenant that neither reads nor holds a
    /// session, installed and removed on alternate publishes.
    SingleTenantRule,
}

/// Which keys a workload reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKeys {
    /// Every client × the six query kinds.
    AllClients,
    /// `path_length` of [`FEW_READERS`] clients that neither hold a
    /// session nor are churned: one traversal each, so a read that misses
    /// the cache costs little next to the publish it waited for.
    Few,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Topology constructor, as in the daemon's `topology` key.
    pub topology: &'static str,
    /// Nominal open-loop read rate on the HTTP connection.
    pub read_qps: f64,
    /// Fixed publish rate. Its period is not a multiple of the read
    /// period, so reads meet publishes at every phase rather than at a few
    /// fixed ones.
    pub publish_per_s: f64,
    /// Keys read.
    pub keys: ReadKeys,
    /// Publish content.
    pub publish: PublishKind,
    /// Epochs at which the oracle rebuilds a full verifier to check
    /// verdicts, beyond epoch 1 (the full rebuild costs O(rules) each).
    pub oracle_epochs: usize,
}

/// The three workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "read_hot",
        topology: "fat_tree(8,32)",
        read_qps: 18.0,
        publish_per_s: 4.7,
        keys: ReadKeys::AllClients,
        publish: PublishKind::Foreign,
        oracle_epochs: 24,
    },
    WorkloadSpec {
        name: "churn_mixed",
        topology: "fat_tree(8,32)",
        read_qps: 18.0,
        publish_per_s: 4.7,
        keys: ReadKeys::AllClients,
        publish: PublishKind::TenantChurn {
            clients: 2,
            rules: 2,
        },
        oracle_epochs: 24,
    },
    WorkloadSpec {
        name: "rule_scale",
        topology: "leaf_spine(8,32,32,7)",
        read_qps: 18.0,
        publish_per_s: 4.7,
        keys: ReadKeys::Few,
        publish: PublishKind::SingleTenantRule,
        oracle_epochs: 3,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A small deterministic PRNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_b0a7_0000_0001)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 finaliser: a bijective 64-bit mix.
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything one run sends to the daemon, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The topology the daemon is configured with.
    pub topology: Topology,
    /// The keys read: `(client, query)`.
    pub keys: Vec<(ClientId, QuerySpec)>,
    /// The raw `POST /v1/query` request of each key.
    pub requests: Vec<Vec<u8>>,
    /// The key index of each timed read, in send order.
    pub reads: Vec<usize>,
    /// The clients holding a sync session.
    pub sessions: Vec<ClientId>,
    /// The standing queries every session client subscribes.
    pub standing: Vec<Vec<QuerySpec>>,
    /// Clients no session or read uses; the traced run replays
    /// `SyncServer::handle` on them.
    pub shadows: Vec<ClientId>,
    /// The rule changes of each timed publish, in order.
    pub publishes: Vec<Vec<RuleChange>>,
    /// FNV-1a digest over the read requests and publish changes in order.
    pub digest: u64,
}

/// Generates the inputs of `spec` for `seed`, sized for `seconds` of timed
/// load.
///
/// # Errors
///
/// Returns a message when the topology spec does not build or has too few
/// clients for the workload's roles.
pub fn generate(spec: &WorkloadSpec, seed: u64, seconds: f64) -> Result<Inputs, String> {
    let topology = rvaas_daemon::build_topology(spec.topology).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(seed);
    let mut clients = clients_of(&topology);
    rng.shuffle(&mut clients);
    let host_ips: Vec<u32> = topology.hosts().map(|h| h.ip).collect();
    if clients.len() < 2 * SESSIONS + 2 || host_ips.is_empty() {
        return Err(format!("{} has too few clients", spec.topology));
    }
    let sessions: Vec<ClientId> = clients[..SESSIONS].to_vec();
    let shadows: Vec<ClientId> = clients[SESSIONS..2 * SESSIONS].to_vec();
    let seeded_ip = |rng: &mut Rng| host_ips[rng.below(host_ips.len())];
    let kinds = |to_ip: u32| {
        vec![
            QuerySpec::ReachableDestinations,
            QuerySpec::ReachingSources,
            QuerySpec::Isolation,
            QuerySpec::GeoLocation,
            QuerySpec::PathLength { to_ip },
            QuerySpec::Neutrality,
        ]
    };
    let standing: Vec<Vec<QuerySpec>> = sessions
        .iter()
        .map(|_| kinds(seeded_ip(&mut rng)))
        .collect();

    // Readers and (for single-rule churn) the churned tenants come after
    // the session and shadow clients, so the roles never overlap.
    let rest = &clients[2 * SESSIONS..];
    let mut keys = Vec::new();
    let churn_pool: Vec<ClientId> = match spec.keys {
        ReadKeys::AllClients => {
            let mut all = clients.clone();
            all.sort();
            for client in all {
                for query in kinds(seeded_ip(&mut rng)) {
                    keys.push((client, query));
                }
            }
            Vec::new()
        }
        ReadKeys::Few => {
            let n = FEW_READERS.min(rest.len().saturating_sub(1)).max(1);
            for &client in &rest[..n] {
                keys.push((
                    client,
                    QuerySpec::PathLength {
                        to_ip: seeded_ip(&mut rng),
                    },
                ));
            }
            rest[n..].to_vec()
        }
    };
    let requests: Vec<Vec<u8>> = keys.iter().map(|(c, q)| query_request(*c, q)).collect();

    // The read order: seeded permutations of the key set, back to back.
    let read_count = (seconds * spec.read_qps).ceil() as usize;
    let mut reads = Vec::with_capacity(read_count);
    while reads.len() < read_count {
        let mut round: Vec<usize> = (0..keys.len()).collect();
        rng.shuffle(&mut round);
        reads.extend(round);
    }
    reads.truncate(read_count);

    let publish_count = (seconds * spec.publish_per_s).ceil() as usize;
    let publishes = match spec.publish {
        PublishKind::Foreign => foreign_publishes(&topology, &mut rng, publish_count),
        PublishKind::TenantChurn { clients, rules } => {
            tenant_publishes(&topology, &mut rng, publish_count, clients, rules)
        }
        PublishKind::SingleTenantRule => {
            single_rule_publishes(&topology, &mut rng, publish_count, &churn_pool)?
        }
    };
    let digest = sequence_digest(&requests, &reads, &publishes);
    Ok(Inputs {
        topology,
        keys,
        requests,
        reads,
        sessions,
        standing,
        shadows,
        publishes,
        digest,
    })
}

/// The raw HTTP/1.1 request asking `query` for `client`.
#[must_use]
fn query_request(client: ClientId, query: &QuerySpec) -> Vec<u8> {
    let body = match query {
        QuerySpec::PathLength { to_ip } => format!(
            "{{\"client\":{},\"query\":\"path_length\",\"to_ip\":{to_ip}}}",
            client.0
        ),
        other => format!(
            "{{\"client\":{},\"query\":{}}}",
            client.0,
            json::quote(json::query_name(other))
        ),
    };
    format!(
        "POST /v1/query HTTP/1.1\r\nHost: rvaas\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Switches without attached hosts (transit), as tenant churn uses.
fn hostless_switches(topology: &Topology) -> Vec<SwitchId> {
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

/// Alternating install/remove of one rule that matches only unowned
/// addresses.
fn foreign_publishes(topology: &Topology, rng: &mut Rng, count: usize) -> Vec<Vec<RuleChange>> {
    let switches = hostless_switches(topology);
    let mut out = Vec::with_capacity(count);
    let mut live: Option<(SwitchId, FlowEntry)> = None;
    for i in 0..count {
        if let Some((switch, entry)) = live.take() {
            out.push(vec![RuleChange::removed(switch, entry)]);
            continue;
        }
        let switch = switches[rng.below(switches.len())];
        let low = (rng.next_u64() & 0xff_ffff) as u32;
        let flow_match = FlowMatch::from_ip(FOREIGN_BASE | low)
            .field(Field::IpDst, u64::from(FOREIGN_BASE | (low ^ 0x5a5a)))
            .field(Field::L4Dst, i as u64);
        let entry = FlowEntry::new(PRIO_CHURN, flow_match, vec![Action::Drop]);
        live = Some((switch, entry.clone()));
        out.push(vec![RuleChange::installed(switch, entry)]);
    }
    out
}

/// `tenant_churn_round` applied round after round from a seeded starting
/// round; each publish carries that round's removals and installs.
fn tenant_publishes(
    topology: &Topology,
    rng: &mut Rng,
    count: usize,
    churn_clients: usize,
    rules_per_client: usize,
) -> Vec<Vec<RuleChange>> {
    // The churn generator mutates a snapshot; run it on one holding only
    // churn rules and read each round's changes off the digest diff.
    let mut churn_only = NetworkSnapshot::new(SimTime::from_secs(1));
    let first = rng.below(1 << 16) as u64;
    let mut before = table_digests(topology, &churn_only);
    let mut out = Vec::with_capacity(count);
    for i in 0..count as u64 {
        let at = SimTime::from_millis(2 + i);
        // Round `first` would remove round `first - 1`'s rules, which were
        // never installed: the generator skips absent removals.
        tenant_churn_round(
            topology,
            &mut churn_only,
            first + i,
            churn_clients,
            rules_per_client,
            at,
        );
        let after = table_digests(topology, &churn_only);
        let mut changes: Vec<RuleChange> = before
            .iter()
            .filter(|(d, _)| !after.contains_key(*d))
            .map(|(_, (s, e))| RuleChange::removed(*s, e.clone()))
            .collect();
        changes.extend(
            after
                .iter()
                .filter(|(d, _)| !before.contains_key(*d))
                .map(|(_, (s, e))| RuleChange::installed(*s, e.clone())),
        );
        out.push(changes);
        before = after;
    }
    out
}

fn table_digests(
    topology: &Topology,
    snapshot: &NetworkSnapshot,
) -> BTreeMap<u64, (SwitchId, FlowEntry)> {
    let mut out = BTreeMap::new();
    for switch in topology.switches().map(|s| s.id) {
        for entry in snapshot.table_of(switch) {
            out.insert(digest_entry(switch, entry).0, (switch, entry.clone()));
        }
    }
    out
}

/// Alternating install/remove of one tenant-pinned rule, the tenant drawn
/// from `pool` (tenants that neither read nor hold a session).
fn single_rule_publishes(
    topology: &Topology,
    rng: &mut Rng,
    count: usize,
    pool: &[ClientId],
) -> Result<Vec<Vec<RuleChange>>, String> {
    if pool.is_empty() {
        return Err("no tenant left to churn".to_string());
    }
    let switches = hostless_switches(topology);
    let mut out = Vec::with_capacity(count);
    let mut live: Option<(SwitchId, FlowEntry)> = None;
    for i in 0..count {
        if let Some((switch, entry)) = live.take() {
            out.push(vec![RuleChange::removed(switch, entry)]);
            continue;
        }
        let client = pool[rng.below(pool.len())];
        let hosts = topology.hosts_of_client(client);
        let src = hosts[rng.below(hosts.len())];
        let dst = hosts[rng.below(hosts.len())];
        let switch = switches[rng.below(switches.len())];
        let action = topology
            .port_towards(switch, dst.attachment.switch)
            .map_or(Action::Drop, Action::Output);
        let flow_match = FlowMatch::from_ip(src.ip)
            .field(Field::IpDst, u64::from(dst.ip))
            .field(Field::L4Dst, i as u64);
        let entry = FlowEntry::new(PRIO_CHURN, flow_match, vec![action]);
        live = Some((switch, entry.clone()));
        out.push(vec![RuleChange::installed(switch, entry)]);
    }
    Ok(out)
}

/// FNV-1a over everything the daemon will be sent, in order.
#[must_use]
pub fn sequence_digest(
    requests: &[Vec<u8>],
    reads: &[usize],
    publishes: &[Vec<RuleChange>],
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for &i in reads {
        feed(&requests[i]);
    }
    for changes in publishes {
        feed(b"publish");
        for c in changes {
            feed(&[u8::from(c.installed)]);
            feed(&digest_entry(c.switch, &c.entry).0.to_le_bytes());
        }
    }
    h
}

/// The daemon's epoch-1 rule set for `topology` (benign shortest-path
/// routing, as `Daemon::start` publishes it).
#[must_use]
pub fn epoch_one(topology: &Topology) -> NetworkSnapshot {
    let mut snapshot = NetworkSnapshot::new(SimTime::from_millis(1));
    for (switch, entry) in benign_rules(topology) {
        snapshot.record_installed(switch, entry, SimTime::from_millis(1));
    }
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for spec in WORKLOADS {
            let a = generate(&spec, 7, 2.0).unwrap();
            let b = generate(&spec, 7, 2.0).unwrap();
            let c = generate(&spec, 8, 2.0).unwrap();
            assert_eq!(a.digest, b.digest, "{}", spec.name);
            assert_ne!(a.digest, c.digest, "{}", spec.name);
            assert_eq!(a.reads, b.reads);
        }
    }

    #[test]
    fn every_publish_changes_something_and_roles_are_disjoint() {
        for spec in WORKLOADS {
            let inputs = generate(&spec, 3, 4.0).unwrap();
            assert!(
                inputs.publishes.iter().all(|p| !p.is_empty()),
                "{}",
                spec.name
            );
            for s in &inputs.sessions {
                assert!(!inputs.shadows.contains(s));
            }
            if spec.keys != ReadKeys::AllClients {
                for (client, _) in &inputs.keys {
                    assert!(!inputs.sessions.contains(client));
                    assert!(!inputs.shadows.contains(client));
                }
            }
        }
    }
}
