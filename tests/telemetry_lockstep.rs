//! Lockstep check for the lock-free telemetry fast path.
//!
//! The hub keeps a `locked_reference` mode that routes every counter and
//! gauge update through the registration mutex into plain shadow values —
//! the semantics the atomic fast path must reproduce. This test runs the
//! paper-default incast twice, once per path, and demands bit-identical
//! results on both sides of the membrane: the same dispatch digest (the
//! hub observed, never steered) and the same `counters_snapshot()` (the
//! relaxed atomic adds lost nothing the mutex path counted).

use rocescale_core::{ClusterBuilder, InstrumentationProfile, ServerId};
use rocescale_monitor::MetricsHub;
use rocescale_nic::QpApp;
use rocescale_sim::SimTime;

/// Everything one path observes: `(digest, events, counters, gauges)`.
type Observation = (u64, u64, Vec<(String, u64)>, Vec<(String, f64)>);

fn run_incast(hub: MetricsHub) -> Observation {
    let mut cl = ClusterBuilder::two_tier(2, 4)
        .seed(7)
        .instrumentation(InstrumentationProfile::paper_default().telemetry(hub))
        .build();
    for i in 1..4usize {
        cl.connect_qp(
            ServerId(i),
            ServerId(0),
            6000 + i as u16,
            QpApp::Saturate {
                msg_len: 128 * 1024,
                inflight: 2,
            },
            QpApp::None,
        );
    }
    cl.run_until(SimTime::from_micros(500));
    let digest = cl.world.dispatch_digest();
    let events = cl.world.events_processed();
    let hub = cl.telemetry().clone();
    (
        digest,
        events,
        hub.counters_snapshot(),
        hub.gauges_snapshot(),
    )
}

#[test]
fn atomic_fast_path_matches_mutex_reference_in_lockstep() {
    let (digest_fast, events_fast, counters_fast, gauges_fast) = run_incast(MetricsHub::enabled());
    let (digest_ref, events_ref, counters_ref, gauges_ref) =
        run_incast(MetricsHub::enabled_locked_reference());

    assert_eq!(
        (digest_fast, events_fast),
        (digest_ref, events_ref),
        "the update path must never steer the simulation"
    );
    assert_eq!(
        counters_fast, counters_ref,
        "atomic counter path diverges from the mutex reference"
    );
    assert_eq!(
        gauges_fast, gauges_ref,
        "atomic gauge path diverges from the mutex reference"
    );
    // Sanity: this compared real data, not two empty hubs.
    assert!(
        counters_fast.iter().any(|(_, v)| *v > 0),
        "no counter ever incremented: {counters_fast:?}"
    );
}
