//! Differential check of `servers_under`, which reads a subnet index
//! built once per cluster, against the filter over every server's
//! address that it replaced (kept here only, as the reference). Both
//! cluster flavours must agree with it on every rack, including the
//! aliased racks of a shape with more than 254 servers per ToR.

use rocescale_core::{ClusterBuilder, ExecutionProfile, ServerId};
use rocescale_topology::{tor_subnet, ClosSpec};

fn scan(ips: &[u32], pod: u32, tor: u32) -> Vec<ServerId> {
    let subnet = tor_subnet(pod, tor);
    (0..ips.len())
        .filter(|&i| ips[i] & 0xffff_ff00 == subnet)
        .map(ServerId)
        .collect()
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
fn servers_under_equals_the_address_filter() {
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
