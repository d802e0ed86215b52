//! Differential checks of the cluster's build-time indexes against the
//! scans they replaced (kept here only, as the references):
//! `servers_under`, which reads a subnet index, against the filter over
//! every server's address — on every rack, including the aliased racks
//! of a shape with more than 254 servers per ToR — and `tor_of`, which
//! reads each server's stored ToR switch index, against a scan of the
//! switch list for the ToR the topology wires the server to. Both
//! cluster flavours must agree with both references.

use rocescale_core::{Cluster, ClusterBuilder, Engine, ExecutionProfile, ServerId};
use rocescale_topology::{tor_subnet, ClosSpec, Tier};

fn scan(ips: &[u32], pod: u32, tor: u32) -> Vec<ServerId> {
    let subnet = tor_subnet(pod, tor);
    (0..ips.len())
        .filter(|&i| ips[i] & 0xffff_ff00 == subnet)
        .map(ServerId)
        .collect()
}

/// `tor_of` for every server must name the switch a scan of the switch
/// list finds for the server's ToR in the topology.
fn check_tor_of<E: Engine>(c: &Cluster<E>, what: &str) {
    let topo = c.topology();
    let servers = topo.of_tier(Tier::Server);
    assert_eq!(servers.len(), c.server_count(), "{what}");
    for (i, &node) in servers.iter().enumerate() {
        let tor = &topo.nodes[topo.tor_of_server(node)].name;
        let want = (0..c.switch_count())
            .position(|k| c.switch_name(k) == tor)
            .expect("every ToR is a switch");
        assert_eq!(c.tor_of(ServerId(i)), want, "{what}: server {i}");
    }
}

/// Every rack of the shape, plus one /24 past the last ToR of each pod
/// (where a 320-server rack spills) and one in a pod that does not exist.
fn racks(spec: &ClosSpec) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = (0..spec.pods)
        .flat_map(|p| (0..=spec.tors_per_pod).map(move |t| (p, t)))
        .collect();
    out.push((spec.pods, 0));
    out
}

#[test]
fn indexed_lookups_equal_the_reference_scans() {
    for spec in [
        ClosSpec::uniform_40g(1, 4, 2, 4, 3),
        ClosSpec::uniform_40g(3, 5, 4, 8, 7),
        ClosSpec::uniform_40g(2, 3, 2, 2, 300),
    ] {
        let plain = ClusterBuilder::new(spec).build();
        let sharded = ClusterBuilder::new(spec)
            .execution(ExecutionProfile::Sharded { shards: 2 })
            .build_sharded();
        let ips: Vec<u32> = plain
            .all_servers()
            .iter()
            .map(|&s| plain.server_ip(s))
            .collect();
        for (p, t) in racks(&spec) {
            let want = scan(&ips, p, t);
            assert_eq!(plain.servers_under(p, t), want, "{spec:?} rack {p}/{t}");
            assert_eq!(sharded.servers_under(p, t), want, "{spec:?} rack {p}/{t}");
        }
        check_tor_of(&plain, &format!("{spec:?} plain"));
        check_tor_of(&sharded, &format!("{spec:?} sharded"));
    }
}

#[test]
fn fleet_100k_racks_match_the_address_filter() {
    // The benchmark's 102 400-host shape: 320 servers per ToR alias
    // across /24s, so most racks come back short or mixed.
    let spec = ClosSpec::uniform_40g(8, 40, 2, 4, 320);
    let c = ClusterBuilder::new(spec)
        .execution(ExecutionProfile::Sharded { shards: 2 })
        .build_sharded();
    let ips: Vec<u32> = c.all_servers().iter().map(|&s| c.server_ip(s)).collect();
    let mut aliased = 0;
    for (p, t) in racks(&spec) {
        let want = scan(&ips, p, t);
        aliased += usize::from(want.len() != 320);
        assert_eq!(c.servers_under(p, t), want, "rack {p}/{t}");
    }
    assert!(aliased > 0, "the shape exercises the aliased racks");
}
