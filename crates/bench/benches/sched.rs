//! Event-engine benches: the timer wheel against the reference binary
//! heap, from microbenchmark churn up to full-fabric Clos incasts. Both
//! engines dispatch the identical `(time, seq)` stream, so every pair of
//! lines below is the same work — only the queue differs.

use rocescale_bench::harness::{
    bench, bench_elements, section, write_json_artifact_with, Measurement,
};
use rocescale_core::{Cluster, ClusterBuilder, InstrumentationProfile, ServerId};
use rocescale_monitor::{profile_json, Json, MetricsHub};
use rocescale_nic::QpApp;
use rocescale_sim::sched::EventQueue;
use rocescale_sim::{DigestMode, DispatchMode, EngineKind, ProfileMode, SimRng, SimTime};
use rocescale_topology::ClosSpec;

const ENGINES: [EngineKind; 2] = [EngineKind::Wheel, EngineKind::BinaryHeap];

/// Steady-state churn: the queue holds `depth` pending events while each
/// iteration pops the front and pushes a replacement at a random near
/// future — the hold-then-replace pattern every in-flight packet induces.
fn sched_churn(out: &mut Vec<Measurement>) {
    section("sched_churn");
    for depth in [1_000usize, 100_000] {
        for engine in ENGINES {
            let mut q: EventQueue<u64> = EventQueue::new(engine);
            let mut rng = SimRng::from_seed(42);
            let mut now = 0u64;
            for v in 0..depth as u64 {
                q.push(SimTime(rng.gen_below(1 << 24)), v);
            }
            out.push(bench(&format!("churn_depth_{depth}/{engine:?}"), || {
                let (t, v) = q.pop().unwrap();
                now = t.as_ps();
                // Near-future replacement: within ~16 µs, like a
                // serialization delay or a DCQCN timer.
                q.push(SimTime(now + 1 + rng.gen_below(1 << 24)), v);
                v
            }));
        }
    }
}

/// Dense same-tick bursts: 512 events at one timestamp, drained in FIFO
/// order — the pattern of a switch fanning one arrival out to its ports,
/// and the worst case for the wheel's per-slot ready heap.
fn sched_dense_bursts(out: &mut Vec<Measurement>) {
    section("sched_dense_bursts");
    const BURST: u64 = 512;
    for engine in ENGINES {
        let mut t = 0u64;
        out.push(bench_elements(
            &format!("same_tick_burst_512/{engine:?}"),
            BURST,
            || {
                let mut q: EventQueue<u64> = EventQueue::new(engine);
                t += 4_096; // a new tick each iteration
                for v in 0..BURST {
                    q.push(SimTime(t), v);
                }
                let mut last = 0;
                while let Some((_, v)) = q.pop() {
                    last = v;
                }
                last
            },
        ));
    }
}

/// A `fan_in`:1 incast onto server 0 of the given fabric.
fn build_incast(spec: ClosSpec, fan_in: usize, engine: EngineKind, digest: DigestMode) -> Cluster {
    build_incast_full(
        spec,
        fan_in,
        engine,
        digest,
        MetricsHub::disabled(),
        ProfileMode::Off,
    )
}

/// [`build_incast`] with an explicit telemetry hub and profiler mode —
/// the `fast_tele` arms and the dispatch-breakdown capture use this.
fn build_incast_full(
    spec: ClosSpec,
    fan_in: usize,
    engine: EngineKind,
    digest: DigestMode,
    hub: MetricsHub,
    profile: ProfileMode,
) -> Cluster {
    let mut cl = ClusterBuilder::new(spec)
        .seed(11)
        .engine(engine)
        .instrumentation(
            InstrumentationProfile::paper_default()
                .digest(digest)
                .telemetry(hub)
                .profiler(profile),
        )
        .build();
    for i in 1..=fan_in {
        cl.connect_qp(
            ServerId(i),
            ServerId(0),
            5000 + i as u16,
            QpApp::Saturate {
                msg_len: 64 * 1024,
                inflight: 2,
            },
            QpApp::None,
        );
    }
    cl
}

/// Full-fabric Clos incasts at four sizes: a rack, a pod, and two
/// podset fabrics. Event count (and thus pending-event depth) grows
/// with fabric size; the wheel must stay at parity or better throughout.
fn sched_clos_incast(out: &mut Vec<Measurement>, profiles: &mut Vec<(String, Json)>) {
    section("sched_clos_incast");
    let fabrics: [(&str, ClosSpec, usize); 4] = [
        ("rack_8", ClosSpec::uniform_40g(1, 1, 1, 1, 8), 7),
        ("pod_2x8", ClosSpec::uniform_40g(1, 2, 2, 2, 8), 7),
        ("podset_2x2x4", ClosSpec::uniform_40g(2, 2, 2, 4, 4), 7),
        ("podset_4x4x8", ClosSpec::uniform_40g(4, 4, 4, 8, 8), 7),
    ];
    let window = SimTime::from_micros(200);
    for (name, spec, fan_in) in fabrics {
        let events = {
            let mut cl = build_incast(spec, fan_in, EngineKind::Wheel, DigestMode::On);
            cl.run_until(window);
            cl.world.events_processed()
        };
        for engine in ENGINES {
            out.push(bench_elements(
                &format!("incast_{name}/{engine:?}"),
                events,
                || {
                    let mut cl = build_incast(spec, fan_in, engine, DigestMode::On);
                    cl.run_until(window);
                    cl.world.events_processed()
                },
            ));
        }
        // The pre-batching dispatch loop: same events one at a time. The
        // gap to the plain Wheel line above is the same-tick coalescing
        // win, measured drift-free within one process run.
        out.push(bench_elements(
            &format!("incast_{name}/Wheel+single_step"),
            events,
            || {
                let mut cl = build_incast(spec, fan_in, EngineKind::Wheel, DigestMode::On);
                cl.world.set_dispatch_mode(DispatchMode::SingleStep);
                cl.run_until(window);
                cl.world.events_processed()
            },
        ));
        // The dispatch-digest opt-out (fleet/bench fast path): same event
        // stream, no per-event FNV fold.
        out.push(bench_elements(
            &format!("incast_{name}/Wheel+digest_off"),
            events,
            || {
                let mut cl = build_incast(spec, fan_in, EngineKind::Wheel, DigestMode::Off);
                cl.run_until(window);
                cl.world.events_processed()
            },
        ));
        // Telemetry enabled through the lock-free fast path: the same
        // incast with every switch/NIC instrument live. The gap between
        // this line and the plain Wheel line is the whole telemetry tax.
        out.push(bench_elements(
            &format!("incast_{name}/Wheel+fast_tele"),
            events,
            || {
                let mut cl = build_incast_full(
                    spec,
                    fan_in,
                    EngineKind::Wheel,
                    DigestMode::On,
                    MetricsHub::enabled(),
                    ProfileMode::Off,
                );
                cl.run_until(window);
                cl.world.events_processed()
            },
        ));
        // One profiled run per fabric (outside the timed loops): the
        // per-event-kind dispatch breakdown recorded into the artifact.
        let mut cl = build_incast_full(
            spec,
            fan_in,
            EngineKind::Wheel,
            DigestMode::On,
            MetricsHub::enabled(),
            ProfileMode::On,
        );
        cl.run_until(window);
        let p = cl.world.event_profile();
        println!(
            "incast_{name} dispatch profile: {} events, {} ns handler time",
            p.total_events(),
            p.total_nanos()
        );
        profiles.push((format!("incast_{name}"), profile_json(&p)));
    }
}

fn main() {
    let json_out = rocescale_bench::ScenarioCli::parse()
        .unwrap_or_else(|e| {
            eprintln!("sched: {e}");
            std::process::exit(2);
        })
        .json_out;
    let mut results = Vec::new();
    let mut profiles = Vec::new();
    sched_churn(&mut results);
    sched_dense_bursts(&mut results);
    sched_clos_incast(&mut results, &mut profiles);
    if let Some(path) = json_out {
        let profile_obj = Json::Obj(profiles);
        write_json_artifact_with(&path, "sched", &results, vec![("profiles", profile_obj)]);
    }
}
