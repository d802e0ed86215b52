//! Determinism pins for sharded execution (`ExecutionProfile::Sharded`).
//!
//! Three guarantees anchor the conservative exchange (see
//! `rocescale_core::sharded` and DESIGN.md §Sharded execution):
//!
//! 1. One effective shard dispatches the byte-identical event stream of
//!    the plain `Cluster` — including the committed golden digest.
//! 2. With N ≥ 2 shards, serial and threaded epoch execution agree
//!    byte-for-byte: digest, event count, exchange bookkeeping, and the
//!    merged telemetry snapshot.
//! 3. Scripted faults — including a link flap on a *cross-shard* fabric
//!    link, where the admin action and its effect live in different
//!    worlds — keep both guarantees.
//! 4. Adaptive epoch pacing (skipping provably idle grid windows) is an
//!    engine knob, not a physics knob: dense and adaptive runs agree
//!    byte-for-byte, window-exact (`executed + skipped` under adaptive
//!    equals the dense window count), even when a scripted fault lands
//!    inside a span the fleet is otherwise quiet for.
//! 5. Observation runs bank-per-shard: a trace sink attached to a
//!    multi-shard build receives every shard's records merged in
//!    `(time, shard, emission)` order, byte-identical threaded vs
//!    serial.
//! 6. TCP hosts run on shards like RDMA hosts: one shard matches the
//!    plain cluster with a TCP workload, and a cross-pod TCP flow
//!    delivers through the exchange, byte-identical threaded vs serial.
//!
//! The sweep below runs every (topology, seed, shard-count) cell twice,
//! threaded and serial, and demands byte-equality; a scheduling race,
//! an unordered exchange merge, or a nondeterministic telemetry fold
//! all fail loudly here.

use rocescale_core::{
    Cluster, ClusterBuilder, Engine, ExecutionProfile, FaultProfile, InstrumentationProfile,
    ScriptAction, ServerId, ServerKind,
};
use rocescale_monitor::{MemorySink, MetricsHub};
use rocescale_nic::QpApp;
use rocescale_sim::{EpochPacing, SimTime};
use rocescale_tcp::{ConnHandle, TcpApp};
use rocescale_topology::ClosSpec;

/// Must match `tests/golden_trace.rs` — the committed golden pin.
const GOLDEN_DIGEST: u64 = 5655298337002817904;
const GOLDEN_EVENTS: u64 = 13800;

fn saturate() -> QpApp {
    QpApp::Saturate {
        msg_len: 64 * 1024,
        inflight: 2,
    }
}

/// Everything a run produces that must be byte-identical across
/// threading modes (and, for one effective shard, across builders).
type Fingerprint = (u64, u64, u64, u64, Vec<(String, u64)>);

/// Build `spec` at `shards`, install one cross-pod saturating flow per
/// pod (a ring — every flow crosses a shard boundary when sharded),
/// run to `dur`, and fingerprint the result.
fn run_sharded(
    spec: ClosSpec,
    seed: u64,
    shards: u32,
    threaded: bool,
    faults: FaultProfile,
    dur: SimTime,
) -> Fingerprint {
    let mut c = ClusterBuilder::new(spec)
        .seed(seed)
        .instrumentation(InstrumentationProfile::paper_default().telemetry(MetricsHub::enabled()))
        .execution(ExecutionProfile::Sharded { shards })
        .faults(faults)
        .build_sharded();
    c.set_threaded(threaded);
    let pods = spec.pods;
    for p in 0..pods {
        let src = c.servers_under(p, 0)[0];
        let dst = c.servers_under((p + 1) % pods, 0)[1];
        c.connect_qp(src, dst, 6000 + p as u16, saturate(), QpApp::None);
    }
    c.run_until(dur);
    (
        c.dispatch_digest(),
        c.events_processed(),
        c.exchange_epochs(),
        c.boundary_messages(),
        c.counters_snapshot(),
    )
}

#[test]
fn serial_and_threaded_sweep_byte_identical() {
    // Small multi-pod fabrics: 2 pods (one boundary) and 4 pods (spines
    // spread round-robin over shards). Shard counts above the pod count
    // collapse — also part of the property.
    let dur = SimTime::from_micros(400);
    for spec in [
        ClosSpec::uniform_40g(2, 1, 2, 2, 2),
        ClosSpec::uniform_40g(4, 2, 2, 4, 3),
    ] {
        for seed in [7u64, 21] {
            for shards in [1u32, 2, 4] {
                let t = run_sharded(spec, seed, shards, true, FaultProfile::paper_default(), dur);
                let s = run_sharded(
                    spec,
                    seed,
                    shards,
                    false,
                    FaultProfile::paper_default(),
                    dur,
                );
                assert_eq!(
                    t, s,
                    "threaded vs serial divergence: pods={} seed={seed} shards={shards}",
                    spec.pods
                );
            }
        }
    }
}

#[test]
fn single_shard_matches_the_plain_cluster_on_a_multi_pod_fabric() {
    // Event-stream equality (digest + count). Telemetry stays at the
    // paper default here: the two builders register fleet gauges over
    // different index structures (one bank vs bank-per-shard), so
    // counter-snapshot equality across *builders* is not the contract —
    // byte-identity across threading and pacing modes of the same
    // builder is (the tests around this one). Device behavior is what
    // the digest pins.
    let spec = ClosSpec::uniform_40g(4, 2, 2, 4, 3);
    let dur = SimTime::from_micros(400);

    let mut plain = ClusterBuilder::new(spec).seed(21).build();
    for p in 0..spec.pods {
        let src = plain.servers_under(p, 0)[0];
        let dst = plain.servers_under((p + 1) % spec.pods, 0)[1];
        plain.connect_qp(src, dst, 6000 + p as u16, saturate(), QpApp::None);
    }
    plain.run_until(dur);
    let want = (
        plain.world.dispatch_digest(),
        plain.world.events_processed(),
    );

    let got = run_sharded(spec, 21, 1, true, FaultProfile::paper_default(), dur);
    assert_eq!(
        (got.0, got.1),
        want,
        "one shard must dispatch the plain cluster's event stream, byte for byte"
    );
    assert_eq!((got.2, got.3), (0, 0), "no exchange with one shard");
}

/// Odd servers run kernel TCP, even ones RoCEv2: the paper's shared
/// fabric.
fn mixed_kinds(i: usize) -> ServerKind {
    if i % 2 == 1 {
        ServerKind::Tcp
    } else {
        ServerKind::Rdma
    }
}

/// Per pod, a (source, destination) pair of `kind` servers: the pod's
/// first to the next pod's last — a ring of cross-pod flows.
fn ring<E: Engine>(c: &Cluster<E>, kind: ServerKind) -> Vec<(ServerId, ServerId)> {
    let pods = c.spec().pods;
    let of_pod = |p: u32| -> Vec<ServerId> {
        c.servers_of_kind(kind)
            .into_iter()
            .filter(|&s| c.server_pod(s) == p)
            .collect()
    };
    (0..pods)
        .map(|p| (of_pod(p)[0], *of_pod((p + 1) % pods).last().unwrap()))
        .collect()
}

/// A saturating RDMA ring and a saturating TCP ring side by side.
/// Returns each TCP stream's sending side.
fn mixed_rings<E: Engine>(c: &mut Cluster<E>) -> Vec<(ServerId, ConnHandle)> {
    for (k, (a, b)) in ring(c, ServerKind::Rdma).into_iter().enumerate() {
        c.connect_qp(a, b, 6000 + k as u16, saturate(), QpApp::None);
    }
    ring(c, ServerKind::Tcp)
        .into_iter()
        .map(|(a, b)| {
            let app = TcpApp::Saturate { msg_len: 64 * 1024 };
            (a, c.connect_tcp(a, b, app, TcpApp::None).0)
        })
        .collect()
}

#[test]
fn single_shard_matches_the_plain_cluster_with_tcp_hosts() {
    // Guarantee 1 with TCP in the mix: the same workload built plain and
    // at one shard dispatches the same event stream.
    let spec = ClosSpec::uniform_40g(4, 2, 2, 4, 3);
    let dur = SimTime::from_micros(400);
    let builder = || ClusterBuilder::new(spec).seed(21).server_kind(mixed_kinds);

    let mut plain = builder().build();
    mixed_rings(&mut plain);
    plain.run_until(dur);

    let mut one = builder()
        .execution(ExecutionProfile::Sharded { shards: 1 })
        .build_sharded();
    assert_eq!(one.shard_count(), 1);
    let senders = mixed_rings(&mut one);
    one.run_until(dur);

    assert_eq!(
        (one.dispatch_digest(), one.events_processed()),
        (
            plain.world.dispatch_digest(),
            plain.world.events_processed()
        ),
        "one shard must dispatch the plain cluster's event stream with TCP hosts"
    );
    for (src, conn) in senders {
        assert!(
            one.tcp(src).sender_stats(conn).bytes_acked > 0,
            "every TCP stream must make progress"
        );
    }
}

#[test]
fn cross_pod_tcp_flow_delivers_through_the_exchange() {
    // The mixed rings on two shards: every stream crosses the boundary,
    // so TCP data and ACKs ride the exchange. Threaded and serial epochs
    // must agree byte for byte.
    let spec = ClosSpec::uniform_40g(2, 1, 2, 2, 4);
    let run = |threaded: bool| {
        let mut c = ClusterBuilder::new(spec)
            .seed(7)
            .server_kind(mixed_kinds)
            .execution(ExecutionProfile::Sharded { shards: 2 })
            .build_sharded();
        assert_eq!(c.shard_count(), 2);
        c.set_threaded(threaded);
        let senders = mixed_rings(&mut c);
        c.run_for_millis(2);
        let acked: Vec<u64> = senders
            .iter()
            .map(|&(src, conn)| c.tcp(src).sender_stats(conn).bytes_acked)
            .collect();
        (
            c.dispatch_digest(),
            c.events_processed(),
            c.boundary_messages(),
            acked,
        )
    };
    let threaded = run(true);
    let serial = run(false);
    assert_eq!(threaded, serial, "threaded vs serial divergence with TCP");
    assert!(threaded.2 > 0, "the streams must cross the shard boundary");
    for acked in &threaded.3 {
        assert!(
            *acked >= 64 * 1024,
            "each cross-pod stream must deliver at least one message: {acked}"
        );
    }
}

#[test]
fn golden_trace_re_pins_under_sharded_execution() {
    // The exact recipe of tests/golden_trace.rs, built through
    // `build_sharded`. two_tier fabrics have one pod, so *any* shard
    // request collapses to one effective shard — the golden digest is
    // pinned under both `shards: 1` and `shards: 4`.
    for shards in [1u32, 4] {
        let mut cl = ClusterBuilder::two_tier(2, 4)
            .seed(7)
            .execution(ExecutionProfile::Sharded { shards })
            .build_sharded();
        assert_eq!(cl.shard_count(), 1);
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
        assert_eq!(
            (cl.dispatch_digest(), cl.events_processed()),
            (GOLDEN_DIGEST, GOLDEN_EVENTS),
            "golden trace deviates under ExecutionProfile::Sharded {{ shards: {shards} }}"
        );
    }
}

#[test]
fn cross_boundary_link_flap_is_deterministic() {
    // pod1-leaf0 lives on shard 1, spine0 on shard 0: the scripted flap
    // downs a port whose peer is in another world, so the admin event
    // and its LinkSet boundary message cross the exchange.
    let spec = ClosSpec::uniform_40g(2, 1, 2, 2, 2);
    let dur = SimTime::from_micros(500);
    let flap = || {
        FaultProfile::paper_default()
            .at(
                SimTime::from_micros(100),
                ScriptAction::FabricLink {
                    a: "pod1-leaf0".to_string(),
                    b: "spine0".to_string(),
                    up: false,
                },
            )
            .at(
                SimTime::from_micros(250),
                ScriptAction::FabricLink {
                    a: "pod1-leaf0".to_string(),
                    b: "spine0".to_string(),
                    up: true,
                },
            )
    };
    let threaded = run_sharded(spec, 7, 2, true, flap(), dur);
    let serial = run_sharded(spec, 7, 2, false, flap(), dur);
    assert_eq!(threaded, serial, "flapped run must stay byte-identical");

    let unflapped = run_sharded(spec, 7, 2, true, FaultProfile::paper_default(), dur);
    assert_ne!(
        threaded.0, unflapped.0,
        "the scripted flap must actually change the event stream"
    );
}

/// A bounded transfer per pod (the ring again, but [`QpApp::Burst`]):
/// the flows drain and the fabric goes quiet except for periodic host
/// timers — the workload shape adaptive pacing exists for.
fn burst() -> QpApp {
    QpApp::Burst {
        msg_len: 64 * 1024,
        count: 4,
        inflight: 2,
    }
}

/// Like [`run_sharded`] but with the burst workload and explicit epoch
/// pacing; also returns (executed, skipped) epoch counts.
fn run_paced(
    spec: ClosSpec,
    seed: u64,
    shards: u32,
    pacing: EpochPacing,
    faults: FaultProfile,
    dur: SimTime,
) -> (Fingerprint, u64, u64) {
    let mut c = ClusterBuilder::new(spec)
        .seed(seed)
        .instrumentation(InstrumentationProfile::paper_default().telemetry(MetricsHub::enabled()))
        .execution(ExecutionProfile::Sharded { shards })
        .faults(faults)
        .build_sharded();
    c.set_pacing(pacing);
    let pods = spec.pods;
    for p in 0..pods {
        let src = c.servers_under(p, 0)[0];
        let dst = c.servers_under((p + 1) % pods, 0)[1];
        c.connect_qp(src, dst, 6000 + p as u16, burst(), QpApp::None);
    }
    c.run_until(dur);
    let fp = (
        c.dispatch_digest(),
        c.events_processed(),
        c.exchange_epochs(),
        c.boundary_messages(),
        c.counters_snapshot(),
    );
    (fp, c.exchange_epochs(), c.epochs_skipped())
}

#[test]
fn adaptive_skipping_matches_dense_across_the_sweep() {
    // Guarantee 4 as a property over (topology × seed × shards): the
    // fingerprint — digest, events, boundary messages, merged counters —
    // must not depend on pacing, and the window accounting must be
    // exact: every window adaptive pacing skips is one dense pacing
    // executed (executed_adaptive + skipped == executed_dense). The
    // burst workload drains mid-run, so every multi-shard cell has a
    // quiet tail to skip.
    let dur = SimTime::from_micros(400);
    let mut skipped_anywhere = 0u64;
    for spec in [
        ClosSpec::uniform_40g(2, 1, 2, 2, 2),
        ClosSpec::uniform_40g(4, 2, 2, 4, 3),
    ] {
        for seed in [7u64, 21] {
            for shards in [2u32, 4] {
                let (fp_d, exec_d, skip_d) = run_paced(
                    spec,
                    seed,
                    shards,
                    EpochPacing::Dense,
                    FaultProfile::paper_default(),
                    dur,
                );
                let (fp_a, exec_a, skip_a) = run_paced(
                    spec,
                    seed,
                    shards,
                    EpochPacing::Adaptive,
                    FaultProfile::paper_default(),
                    dur,
                );
                let cell = format!("pods={} seed={seed} shards={shards}", spec.pods);
                assert_eq!(skip_d, 0, "dense pacing never skips: {cell}");
                assert_eq!(
                    (fp_a.0, fp_a.1, fp_a.3, fp_a.4.clone()),
                    (fp_d.0, fp_d.1, fp_d.3, fp_d.4.clone()),
                    "pacing changed the physics: {cell}"
                );
                assert_eq!(
                    exec_a + skip_a,
                    exec_d,
                    "window accounting must be exact: {cell}"
                );
                skipped_anywhere += skip_a;
            }
        }
    }
    assert!(
        skipped_anywhere > 0,
        "the burst workload must leave windows to skip somewhere in the sweep"
    );
}

#[test]
fn script_action_inside_a_quiet_span_forces_its_window_to_execute() {
    // The bursts drain well before 300 µs; the flap lands at 320/360 µs
    // — inside a span adaptive pacing would otherwise jump over. The
    // skip decision must see the scripted event and execute its window:
    // dense and adaptive stay byte-identical, and the flap provably
    // dispatched (different digest from the unflapped run).
    let spec = ClosSpec::uniform_40g(2, 1, 2, 2, 2);
    let dur = SimTime::from_micros(500);
    let flap = || {
        FaultProfile::paper_default()
            .at(
                SimTime::from_micros(320),
                ScriptAction::FabricLink {
                    a: "pod1-leaf0".to_string(),
                    b: "spine0".to_string(),
                    up: false,
                },
            )
            .at(
                SimTime::from_micros(360),
                ScriptAction::FabricLink {
                    a: "pod1-leaf0".to_string(),
                    b: "spine0".to_string(),
                    up: true,
                },
            )
    };
    let (fp_d, exec_d, _) = run_paced(spec, 7, 2, EpochPacing::Dense, flap(), dur);
    let (fp_a, exec_a, skip_a) = run_paced(spec, 7, 2, EpochPacing::Adaptive, flap(), dur);
    // Physics must not depend on pacing (epoch *counts* do, by design:
    // that is the whole point of skipping).
    assert_eq!(
        (fp_a.0, fp_a.1, fp_a.3, fp_a.4.clone()),
        (fp_d.0, fp_d.1, fp_d.3, fp_d.4.clone()),
        "the flapped run must not depend on pacing"
    );
    assert_eq!(exec_a + skip_a, exec_d, "window accounting must stay exact");
    assert!(skip_a > 0, "the quiet span around the flap must still skip");

    let (fp_u, _, _) = run_paced(
        spec,
        7,
        2,
        EpochPacing::Adaptive,
        FaultProfile::paper_default(),
        dur,
    );
    assert_ne!(
        fp_a.0, fp_u.0,
        "the flap's window must have executed, not been skipped over"
    );
}

#[test]
fn sharded_trace_export_is_byte_identical_threaded_vs_serial() {
    // Guarantee 5: a trace-sink-enabled build under
    // `Sharded { shards: 4 }` merges every shard's bank into the
    // caller's sink in (time, shard, emission) order — a pure function
    // of the records, so the exported stream cannot depend on epoch
    // threading.
    let spec = ClosSpec::uniform_40g(4, 2, 2, 4, 3);
    let run = |threaded: bool| {
        let sink = MemorySink::new();
        let mut c = ClusterBuilder::new(spec)
            .seed(21)
            .instrumentation(
                InstrumentationProfile::paper_default()
                    .telemetry(MetricsHub::enabled())
                    .trace_sink(sink.clone()),
            )
            .execution(ExecutionProfile::Sharded { shards: 4 })
            .build_sharded();
        assert_eq!(c.shard_count(), 4);
        c.set_threaded(threaded);
        for p in 0..spec.pods {
            let src = c.servers_under(p, 0)[0];
            let dst = c.servers_under((p + 1) % spec.pods, 0)[1];
            c.connect_qp(src, dst, 6000 + p as u16, burst(), QpApp::None);
        }
        c.run_until(SimTime::from_micros(400));
        (sink.records(), c.dispatch_digest())
    };
    let (threaded, digest_t) = run(true);
    let (serial, digest_s) = run(false);
    assert_eq!(digest_t, digest_s);
    assert_eq!(
        threaded, serial,
        "merged trace export must be byte-identical"
    );
    assert!(
        !threaded.is_empty(),
        "the sink must actually receive records"
    );
    // Every record is shard-tagged, all four shards contribute, and the
    // merge is globally time-ordered.
    let mut shards_seen = std::collections::BTreeSet::new();
    for r in &threaded {
        shards_seen.insert(r.shard.expect("sharded records carry their shard"));
    }
    assert_eq!(
        shards_seen.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    assert!(
        threaded.windows(2).all(|w| w[0].t_ps <= w[1].t_ps),
        "merged records must be time-sorted"
    );
}
