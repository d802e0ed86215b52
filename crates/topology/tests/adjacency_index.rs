//! Differential check of the adjacency-indexed lookups against the
//! brute-force scans over every link that they replace. The scans live
//! here only, as the reference.

use rocescale_sim::PortId;
use rocescale_topology::{ClosSpec, Incident, Tier, Topology};

fn incident_scan(t: &Topology, node: usize) -> Vec<Incident> {
    t.links()
        .iter()
        .flat_map(|l| [(l.a, l.b, l.meters), (l.b, l.a, l.meters)])
        .filter(|(me, _, _)| me.0 == node)
        .map(|(me, peer, meters)| Incident {
            port: me.1,
            peer: peer.0,
            meters,
        })
        .collect()
}

fn port_count_scan(t: &Topology, node: usize) -> u16 {
    let mut max = 0u16;
    for l in t.links() {
        if l.a.0 == node {
            max = max.max(l.a.1 .0 + 1);
        }
        if l.b.0 == node {
            max = max.max(l.b.1 .0 + 1);
        }
    }
    max
}

fn servers_of_tor_scan(t: &Topology, tor: usize) -> Vec<usize> {
    let mut out: Vec<(PortId, usize)> = t
        .links()
        .iter()
        .filter_map(|l| {
            if l.a.0 == tor && t.nodes[l.b.0].tier == Tier::Server {
                Some((l.a.1, l.b.0))
            } else if l.b.0 == tor && t.nodes[l.a.0].tier == Tier::Server {
                Some((l.b.1, l.a.0))
            } else {
                None
            }
        })
        .collect();
    out.sort();
    out.into_iter().map(|(_, s)| s).collect()
}

fn tor_of_server_scan(t: &Topology, server: usize) -> usize {
    for l in t.links() {
        if l.a.0 == server && t.nodes[l.b.0].tier == Tier::Tor {
            return l.b.0;
        }
        if l.b.0 == server && t.nodes[l.a.0].tier == Tier::Tor {
            return l.a.0;
        }
    }
    panic!("server {server} has no ToR link");
}

/// Every node on small shapes. On large ones an even stride of about
/// 256 nodes, plus the first and last node of each tier and every leaf
/// and spine, so the 102 400-host shape stays affordable against the
/// O(links) scans.
fn sample(t: &Topology) -> Vec<usize> {
    let stride = (t.nodes.len() / 256).max(1);
    let mut out: Vec<usize> = (0..t.nodes.len())
        .filter(|&i| i % stride == 0 || matches!(t.nodes[i].tier, Tier::Leaf | Tier::Spine))
        .collect();
    for tier in [Tier::Server, Tier::Tor] {
        let all = t.of_tier(tier);
        out.extend(all.first().into_iter().chain(all.last()));
    }
    out
}

#[test]
fn indexed_lookups_equal_link_scans() {
    let shapes = [
        // fleet_100k: 320 servers per ToR, so addresses alias across /24s.
        ClosSpec::uniform_40g(8, 40, 2, 4, 320),
        // One pod.
        ClosSpec::uniform_40g(1, 4, 2, 4, 3),
        // One rack.
        ClosSpec::uniform_40g(1, 1, 1, 1, 8),
        ClosSpec::fig7_podsets(1),
        ClosSpec::uniform_40g(3, 5, 4, 8, 7),
    ];
    for spec in shapes {
        let t = Topology::clos(&spec);
        let total: usize = (0..t.nodes.len()).map(|n| t.incident(n).len()).sum();
        assert_eq!(
            total,
            2 * t.links().len(),
            "{spec:?}: every endpoint indexed"
        );
        for n in sample(&t) {
            let ctx = format!("{spec:?}, node {}", t.nodes[n].name);
            assert_eq!(t.incident(n), incident_scan(&t, n), "{ctx}");
            assert_eq!(t.port_count(n), port_count_scan(&t, n), "{ctx}");
            match t.nodes[n].tier {
                Tier::Server => assert_eq!(t.tor_of_server(n), tor_of_server_scan(&t, n), "{ctx}"),
                Tier::Tor => assert_eq!(t.servers_of_tor(n), servers_of_tor_scan(&t, n), "{ctx}"),
                Tier::Leaf | Tier::Spine => {}
            }
        }
    }
}

#[test]
fn port_toward_finds_the_first_link_between_two_nodes() {
    let t = Topology::clos(&ClosSpec::uniform_40g(2, 3, 2, 4, 5));
    for l in t.links() {
        assert_eq!(t.port_toward(l.a.0, l.b.0), Some(l.a.1));
        assert_eq!(t.port_toward(l.b.0, l.a.0), Some(l.b.1));
    }
    let servers = t.of_tier(Tier::Server);
    assert_eq!(t.port_toward(servers[0], servers[1]), None);
}
