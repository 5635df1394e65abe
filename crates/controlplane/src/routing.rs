//! The benign provider routing policy.
//!
//! The provider offers its clients *isolated connectivity*: hosts of the same
//! client can talk to each other along shortest paths; traffic between
//! different clients is not admitted. The policy is compiled into three rule
//! layers per switch:
//!
//! * **Admission** (priority [`PRIO_ADMISSION`]): at the access-point port of
//!   each host, allow exactly the `(src = that host, dst = same-client host)`
//!   pairs and forward them toward the destination.
//! * **Host-port default drop** (priority [`PRIO_EDGE_DROP`]): everything
//!   else entering through a host port is dropped (isolation + anti-spoofing).
//! * **Transit** (priority [`PRIO_TRANSIT`]): destination-based forwarding for
//!   traffic already inside the fabric (arriving on internal ports).
//!
//! The RVaaS controller later installs its own interception rules at a higher
//! priority ([`rvaas` uses 1000]), so client query packets are punted to the
//! controller before the edge drop can discard them.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};

use rvaas_openflow::{Action, FlowEntry, FlowMatch};
use rvaas_topology::{Host, Topology};
use rvaas_types::{FlowCookie, PortId, SwitchId};

/// Cookie tagging rules installed by the benign provider policy.
pub const BENIGN_COOKIE: FlowCookie = FlowCookie(0x0001);

/// Cookie tagging rules installed by the adversary. RVaaS never sees cookies
/// semantics (the adversary could reuse the benign cookie); the tag exists so
/// experiments can compute ground truth.
pub const ATTACK_COOKIE: FlowCookie = FlowCookie(0x0BAD);

/// Priority of per-host admission rules at access-point ports.
pub const PRIO_ADMISSION: u16 = 300;
/// Priority of the default drop on access-point ports.
pub const PRIO_EDGE_DROP: u16 = 200;
/// Priority of destination-based transit rules.
pub const PRIO_TRANSIT: u16 = 100;

/// Compiles the benign routing policy for `topology`.
///
/// Returns `(switch, entry)` pairs ready to be sent as Flow-Mod adds. Every
/// output port is the one [`next_hop_port`] gives, but the shortest paths
/// come from one BFS per source switch rather than one per
/// (switch, host) pair.
#[must_use]
pub fn benign_rules(topology: &Topology) -> Vec<(SwitchId, FlowEntry)> {
    let next_hops = NextHops::new(topology);
    compile(topology, |from, host| next_hops.port(from, host))
}

/// The policy's rule layers, with `out_port(switch, host)` giving the port
/// `switch` forwards toward `host` on.
fn compile(
    topology: &Topology,
    out_port: impl Fn(SwitchId, &Host) -> Option<PortId>,
) -> Vec<(SwitchId, FlowEntry)> {
    let mut rules = Vec::new();
    let hosts: Vec<_> = topology.hosts().cloned().collect();

    for host in &hosts {
        let edge_switch = host.attachment.switch;
        // Admission rules: this host may talk to every same-client host.
        for peer in &hosts {
            if peer.id == host.id || peer.owner != host.owner {
                continue;
            }
            if let Some(out_port) = out_port(edge_switch, peer) {
                rules.push((
                    edge_switch,
                    FlowEntry::new(
                        PRIO_ADMISSION,
                        FlowMatch::from_ip(host.ip)
                            .field(rvaas_types::Field::IpDst, u64::from(peer.ip))
                            .on_port(host.attachment.port),
                        vec![Action::Output(out_port)],
                    )
                    .with_cookie(BENIGN_COOKIE),
                ));
            }
        }
        // Default drop for anything else entering through the host port.
        rules.push((
            edge_switch,
            FlowEntry::new(
                PRIO_EDGE_DROP,
                FlowMatch::any().on_port(host.attachment.port),
                vec![Action::Drop],
            )
            .with_cookie(BENIGN_COOKIE),
        ));
    }

    // Transit rules: every switch forwards toward every host's attachment.
    for switch in topology.switches() {
        for host in &hosts {
            if let Some(out_port) = out_port(switch.id, host) {
                rules.push((
                    switch.id,
                    FlowEntry::new(
                        PRIO_TRANSIT,
                        FlowMatch::to_ip(host.ip),
                        vec![Action::Output(out_port)],
                    )
                    .with_cookie(BENIGN_COOKIE),
                ));
            }
        }
    }
    rules
}

/// The port `from` should use to forward traffic toward `host`
/// (the host's own port if the host attaches to `from`, otherwise the port
/// toward the next switch on the shortest path).
#[must_use]
pub fn next_hop_port(topology: &Topology, from: SwitchId, host: &Host) -> Option<PortId> {
    if host.attachment.switch == from {
        return Some(host.attachment.port);
    }
    let path = topology.shortest_path(from, host.attachment.switch)?;
    let next = *path.get(1)?;
    topology.port_towards(from, next)
}

/// [`next_hop_port`] for every source switch at once: the adjacency is
/// built once and each source gets one BFS, instead of a BFS (that rescans
/// every link for each node's neighbours) per (source, host) pair.
///
/// Results are identical, tie-breaks included. Neighbours are visited in
/// the same ascending order as [`Topology::shortest_path`], and a node's
/// BFS parent is fixed when it is first discovered, so a BFS that runs to
/// completion gives every destination the same first hop as one that stops
/// at it. Each (switch, first hop) port is the first link in id order, as
/// [`Topology::port_towards`] picks it.
struct NextHops {
    /// Source switch → destination switch → output port on the source.
    ports: HashMap<SwitchId, HashMap<SwitchId, PortId>>,
}

impl NextHops {
    fn new(topology: &Topology) -> Self {
        let mut adjacency: BTreeMap<SwitchId, Vec<SwitchId>> = BTreeMap::new();
        let mut link_ports: HashMap<(SwitchId, SwitchId), PortId> = HashMap::new();
        for link in topology.links() {
            let (a, b) = (link.a.switch, link.b.switch);
            adjacency.entry(a).or_default().push(b);
            adjacency.entry(b).or_default().push(a);
            link_ports.entry((a, b)).or_insert(link.a.port);
            link_ports.entry((b, a)).or_insert(link.b.port);
        }
        for neighbours in adjacency.values_mut() {
            neighbours.sort();
            neighbours.dedup();
        }
        let ports = adjacency
            .keys()
            .map(|&from| {
                // Destination → first hop out of `from`; `from` maps to
                // itself and doubles as the BFS's seen set.
                let mut first_hop = HashMap::from([(from, from)]);
                let mut queue = VecDeque::from([from]);
                while let Some(s) = queue.pop_front() {
                    let hop = first_hop[&s];
                    for &n in &adjacency[&s] {
                        if let Entry::Vacant(slot) = first_hop.entry(n) {
                            slot.insert(if s == from { n } else { hop });
                            queue.push_back(n);
                        }
                    }
                }
                first_hop.remove(&from);
                let towards = first_hop
                    .into_iter()
                    .filter_map(|(to, hop)| Some((to, *link_ports.get(&(from, hop))?)))
                    .collect();
                (from, towards)
            })
            .collect();
        NextHops { ports }
    }

    /// Same as [`next_hop_port`]`(topology, from, host)`.
    fn port(&self, from: SwitchId, host: &Host) -> Option<PortId> {
        if host.attachment.switch == from {
            return Some(host.attachment.port);
        }
        self.ports.get(&from)?.get(&host.attachment.switch).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvaas_hsa::{Cube, HeaderSpace, NetworkFunction, ReachabilityEngine, SwitchTransfer};
    use rvaas_topology::generators;
    use rvaas_types::{ClientId, Field};

    /// Installs the benign rules into an HSA network function for analysis.
    fn as_network_function(topology: &Topology) -> NetworkFunction {
        let mut nf = NetworkFunction::new();
        for sw in topology.switches() {
            nf.declare_switch(sw.id, sw.ports.clone());
        }
        for link in topology.links() {
            nf.connect(link.a, link.b);
        }
        let mut tables: std::collections::BTreeMap<SwitchId, Vec<rvaas_hsa::RuleTransfer>> =
            std::collections::BTreeMap::new();
        for (switch, entry) in benign_rules(topology) {
            tables
                .entry(switch)
                .or_default()
                .push(entry.to_rule_transfer());
        }
        for (switch, rules) in tables {
            nf.set_transfer(switch, SwitchTransfer::from_rules(rules));
        }
        nf
    }

    fn space_from_to(src: u32, dst: u32) -> HeaderSpace {
        HeaderSpace::from(
            Cube::wildcard()
                .with_field(Field::IpSrc, u64::from(src))
                .with_field(Field::IpDst, u64::from(dst)),
        )
    }

    #[test]
    fn same_client_hosts_can_reach_each_other() {
        // line(4, 2): hosts 1,3 belong to client 1; hosts 2,4 to client 2.
        let topo = generators::line(4, 2);
        let nf = as_network_function(&topo);
        let engine = ReachabilityEngine::new(&nf);
        let h1 = topo.host(rvaas_types::HostId(1)).unwrap();
        let h3 = topo.host(rvaas_types::HostId(3)).unwrap();
        assert_eq!(h1.owner, h3.owner);
        let reached = engine.reachable_edge_ports(h1.attachment, space_from_to(h1.ip, h3.ip));
        assert!(reached.contains(&h3.attachment), "reached: {reached:?}");
    }

    #[test]
    fn different_client_hosts_are_isolated() {
        let topo = generators::line(4, 2);
        let nf = as_network_function(&topo);
        let engine = ReachabilityEngine::new(&nf);
        let h1 = topo.host(rvaas_types::HostId(1)).unwrap(); // client 1
        let h2 = topo.host(rvaas_types::HostId(2)).unwrap(); // client 2
        assert_ne!(h1.owner, h2.owner);
        let reached = engine.reachable_edge_ports(h1.attachment, space_from_to(h1.ip, h2.ip));
        assert!(
            !reached.contains(&h2.attachment),
            "cross-client traffic must not be admitted: {reached:?}"
        );
    }

    #[test]
    fn spoofed_sources_are_dropped_at_the_edge() {
        let topo = generators::line(4, 2);
        let nf = as_network_function(&topo);
        let engine = ReachabilityEngine::new(&nf);
        let h1 = topo.host(rvaas_types::HostId(1)).unwrap();
        let h3 = topo.host(rvaas_types::HostId(3)).unwrap();
        // Traffic injected at h1's port but claiming h3's source address can
        // still only reach same-client destinations... and in fact the
        // admission rule requires src == h1.ip, so spoofed traffic is dropped.
        let spoofed = space_from_to(h3.ip, h1.ip);
        let reached = engine.reachable_edge_ports(h1.attachment, spoofed);
        assert!(
            reached.is_empty(),
            "spoofed traffic must be dropped: {reached:?}"
        );
    }

    #[test]
    fn leaf_spine_full_same_client_connectivity() {
        let topo = generators::leaf_spine(2, 3, 2, 1);
        let nf = as_network_function(&topo);
        let engine = ReachabilityEngine::new(&nf);
        let client1_hosts = topo.hosts_of_client(ClientId(1));
        assert!(client1_hosts.len() >= 2);
        for a in &client1_hosts {
            for b in &client1_hosts {
                if a.id == b.id {
                    continue;
                }
                let reached = engine.reachable_edge_ports(a.attachment, space_from_to(a.ip, b.ip));
                assert!(
                    reached.contains(&b.attachment),
                    "{} -> {} not reachable",
                    a.id,
                    b.id
                );
            }
        }
    }

    #[test]
    fn next_hop_port_local_and_remote() {
        let topo = generators::line(3, 1);
        let h3 = topo.host(rvaas_types::HostId(3)).unwrap();
        // From switch 3 (local attachment).
        assert_eq!(
            next_hop_port(&topo, SwitchId(3), h3),
            Some(h3.attachment.port)
        );
        // From switch 1, next hop is toward switch 2 via port 3.
        assert_eq!(
            next_hop_port(&topo, SwitchId(1), h3),
            topo.port_towards(SwitchId(1), SwitchId(2))
        );
    }

    #[test]
    fn one_bfs_per_switch_matches_per_pair_shortest_paths() {
        // A second 1–2 link: the lower link id must keep winning the port.
        let mut parallel = generators::line(3, 1);
        parallel
            .add_link(
                rvaas_types::SwitchPort::new(SwitchId(1), PortId(4)),
                rvaas_types::SwitchPort::new(SwitchId(2), PortId(4)),
                rvaas_types::SimTime::from_micros(1),
            )
            .unwrap();
        for (name, topo) in [
            ("line(3,1) + parallel link", parallel),
            ("line(4,2)", generators::line(4, 2)),
            ("line(3,1)", generators::line(3, 1)),
            ("leaf_spine(2,3,2,1)", generators::leaf_spine(2, 3, 2, 1)),
            (
                "leaf_spine(8,32,32,7)",
                generators::leaf_spine(8, 32, 32, 7),
            ),
            ("fat_tree(4,2)", generators::fat_tree(4, 2)),
            ("fat_tree(8,32)", generators::fat_tree(8, 32)),
        ] {
            // The per-pair reference: one `shortest_path` BFS per
            // (switch, host) pair, as `benign_rules` used to resolve ports.
            let per_pair = compile(&topo, |from, host| next_hop_port(&topo, from, host));
            let rules = benign_rules(&topo);
            assert!(!rules.is_empty(), "{name}");
            assert!(rules == per_pair, "{name}: rule lists differ");
        }
    }

    #[test]
    fn all_rules_carry_the_benign_cookie() {
        let topo = generators::line(3, 1);
        for (_, entry) in benign_rules(&topo) {
            assert_eq!(entry.cookie, BENIGN_COOKIE);
        }
    }

    #[test]
    fn rvaas_magic_traffic_would_be_dropped_without_interception() {
        // Sanity check of the layering: a query packet from a host port does
        // not match any admission rule, so without RVaaS's high-priority
        // interception rules it is dropped at the edge. This is why RVaaS
        // must install its own rules (tested in the core crate).
        let topo = generators::line(3, 1);
        let nf = as_network_function(&topo);
        let engine = ReachabilityEngine::new(&nf);
        let h1 = topo.host(rvaas_types::HostId(1)).unwrap();
        let query_space = HeaderSpace::from(
            Cube::wildcard()
                .with_field(Field::IpSrc, u64::from(h1.ip))
                .with_field(Field::IpDst, 0x0aff_fffe)
                .with_field(Field::L4Dst, 47_999),
        );
        let result = engine.reachable_from(h1.attachment, query_space);
        assert!(result.endpoints.is_empty());
        assert!(result.to_controller.is_empty());
    }
}
