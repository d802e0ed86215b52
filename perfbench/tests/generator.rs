//! The benchmark's input generator: seeded, reproducible, and shaped as
//! the workload docs promise.

use rocescale_perfbench::gen::{plan, Workload, INCAST_FAN_IN};
use rocescale_perfbench::run::{run, Mode};
use rocescale_transport::LossRecovery;

#[test]
fn same_seed_gives_identical_endpoints_and_digest() {
    for w in Workload::ALL {
        let (a, b) = (plan(w, 7), plan(w, 7));
        assert_eq!(a, b, "{}", w.name());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
    // The one workload cheap enough to simulate in a test: the same
    // seed dispatches the byte-identical event stream.
    let a = run(Workload::Lossy1in256, 7, Mode::Plain);
    let b = run(Workload::Lossy1in256, 7, Mode::Plain);
    assert_eq!((a.digest, a.events), (b.digest, b.events));
    assert!(a.checks.iter().all(|&(_, ok)| ok), "{:?}", a.checks);
}

#[test]
fn traced_run_dispatches_the_untraced_event_stream() {
    let plain = run(Workload::Lossy1in256, 3, Mode::Plain);
    let traced = run(Workload::Lossy1in256, 3, Mode::Traced);
    assert_eq!((plain.digest, plain.events), (traced.digest, traced.events));
    assert!(traced.profile.total_events() > 0, "profiler on when traced");
    assert_eq!(plain.profile.total_events(), 0, "profiler off otherwise");
}

#[test]
fn a_different_seed_changes_the_endpoints() {
    for w in Workload::ALL {
        let (a, b) = (plan(w, 1), plan(w, 2));
        assert_ne!(a.flows, b.flows, "{}", w.name());
        assert_ne!(a.fingerprint(), b.fingerprint(), "{}", w.name());
    }
}

#[test]
fn every_fleet_flow_leaves_its_pod() {
    let spec = Workload::Fleet100k.spec();
    for seed in 0..8 {
        let p = plan(Workload::Fleet100k, seed);
        assert_eq!(p.flows.len() as u32, spec.pods * spec.tors_per_pod);
        for f in &p.flows {
            assert_ne!(f.src.pod, f.dst.pod, "{f:?}");
            assert_eq!(f.src.idx, 0, "each flow starts at its rack's first server");
            assert!(f.dst.tor < spec.tors_per_pod && f.dst.idx < spec.servers_per_tor);
        }
    }
}

#[test]
fn every_incast_sender_sits_outside_its_aggregators_rack() {
    let spec = Workload::IncastPodset.spec();
    for seed in 0..8 {
        let p = plan(Workload::IncastPodset, seed);
        let racks = spec.pods * spec.tors_per_pod;
        assert_eq!(p.flows.len() as u32, racks * INCAST_FAN_IN);
        for agg in p.flows.chunks(INCAST_FAN_IN as usize) {
            let dst = agg[0].dst;
            let mut senders: Vec<_> = agg.iter().map(|f| f.src).collect();
            senders.sort();
            senders.dedup();
            assert_eq!(senders.len(), INCAST_FAN_IN as usize, "distinct senders");
            for f in agg {
                assert_eq!(f.dst, dst, "one aggregator per group");
                assert_ne!((f.src.pod, f.src.tor), (f.dst.pod, f.dst.tor), "{f:?}");
            }
        }
    }
}

#[test]
fn lossy_pairs_alternate_recovery_schemes() {
    let spec = Workload::Lossy1in256.spec();
    for seed in 0..8 {
        let p = plan(Workload::Lossy1in256, seed);
        assert_eq!(p.flows.len() as u32, spec.servers_per_tor / 2);
        let mut hosts: Vec<u32> = p
            .flows
            .iter()
            .flat_map(|f| [f.src.idx, f.dst.idx])
            .collect();
        hosts.sort();
        assert_eq!(
            hosts,
            (0..spec.servers_per_tor).collect::<Vec<_>>(),
            "8 disjoint pairs"
        );
        for (k, f) in p.flows.iter().enumerate() {
            let want = if k % 2 == 0 {
                LossRecovery::GoBackN
            } else {
                LossRecovery::SelectiveRepeat
            };
            assert_eq!(f.recovery, Some(want), "pair {k}");
        }
    }
}
