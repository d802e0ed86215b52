//! Golden dispatch-trace pin for the event engine.
//!
//! `World` folds every dispatched event — `(time, kind, node, detail)` —
//! into an FNV-1a digest, a compact fingerprint of the full event trace.
//! This test pins that digest for a fixed full-stack scenario so any
//! change to dispatch *order or content* (a scheduler bug, an accidental
//! semantic change riding along a refactor) fails loudly, and proves the
//! timer wheel and the reference binary heap dispatch byte-identical
//! streams.
//!
//! If a PR changes simulation semantics on purpose, re-deriving the
//! constant is the explicit, reviewable act of accepting the new trace.

use rocescale_core::{ClusterBuilder, InstrumentationProfile, ServerId};
use rocescale_monitor::{MemorySink, MetricsHub};
use rocescale_nic::QpApp;
use rocescale_sim::{DigestMode, EngineKind, EventProfile, ProfileMode, SimTime};

/// Digest pinned at the timer-wheel engine's introduction (identical to
/// the binary heap's on the same scenario).
const GOLDEN_DIGEST: u64 = 5655298337002817904;
/// Event count of the pinned trace.
const GOLDEN_EVENTS: u64 = 13800;

fn run(engine: EngineKind) -> (u64, u64) {
    run_full(
        engine,
        MetricsHub::disabled(),
        DigestMode::On,
        ProfileMode::Off,
    )
    .0
}

fn run_with_hub(engine: EngineKind, hub: MetricsHub) -> ((u64, u64), MetricsHub) {
    run_full(engine, hub, DigestMode::On, ProfileMode::Off)
}

fn run_full(
    engine: EngineKind,
    hub: MetricsHub,
    digest: DigestMode,
    profile: ProfileMode,
) -> ((u64, u64), MetricsHub) {
    let (out, hub, _) = run_profiled(engine, hub, digest, profile);
    (out, hub)
}

fn run_profiled(
    engine: EngineKind,
    hub: MetricsHub,
    digest: DigestMode,
    profile: ProfileMode,
) -> ((u64, u64), MetricsHub, EventProfile) {
    let mut cl = ClusterBuilder::two_tier(2, 4)
        .seed(7)
        .engine(engine)
        .instrumentation(
            InstrumentationProfile::paper_default()
                .telemetry(hub)
                .digest(digest)
                .profiler(profile),
        )
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
    let out = (cl.world.dispatch_digest(), cl.world.events_processed());
    let profile = cl.world.event_profile();
    (out, cl.telemetry().clone(), profile)
}

#[test]
fn dispatch_trace_matches_committed_golden() {
    assert_eq!(
        run(EngineKind::Wheel),
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "wheel trace deviates from the committed golden digest"
    );
}

#[test]
fn both_engines_dispatch_byte_identical_traces() {
    assert_eq!(
        run(EngineKind::BinaryHeap),
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "binary-heap trace deviates from the wheel's"
    );
}

/// `DigestMode::Off` (the fleet/bench fast path) must skip only the
/// fold, not change the simulation: the pinned scenario dispatches the
/// exact golden event count while the digest stays at the FNV basis.
#[test]
fn digest_off_dispatches_the_same_event_stream() {
    let ((digest, events), _) = run_full(
        EngineKind::Wheel,
        MetricsHub::disabled(),
        DigestMode::Off,
        ProfileMode::Off,
    );
    assert_eq!(
        events, GOLDEN_EVENTS,
        "digest mode must not change the event stream"
    );
    assert_ne!(
        digest, GOLDEN_DIGEST,
        "off mode must not accidentally keep folding"
    );
}

/// The pluggable congestion-control layer must leave the paper-default
/// path untouched: `paper_default()` still selects DCQCN + go-back-N,
/// and the pinned scenario — which is built from exactly that profile —
/// still dispatches the committed golden trace. Together with
/// [`dispatch_trace_matches_committed_golden`] this pins the refactor
/// as digest-neutral: swapping the concrete RP/NP state machines for
/// the `CongestionControl` trait moved code, not events.
#[test]
fn paper_default_cc_selection_preserves_the_golden_trace() {
    use rocescale_core::{CcKind, TransportProfile};
    use rocescale_transport::LossRecovery;
    let t = TransportProfile::paper_default();
    assert_eq!(t.cc, CcKind::Dcqcn, "paper default must stay DCQCN");
    assert_eq!(t.recovery, LossRecovery::GoBackN);
    // And the deprecated shim still lands on the same controller.
    assert_eq!(TransportProfile::paper_default().dcqcn(true).cc, t.cc);
    assert_eq!(
        run(EngineKind::Wheel),
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "the CC layer must be digest-neutral on the paper-default path"
    );
}

/// The telemetry bus must be a pure observer: running the pinned
/// scenario with a live hub — counters, flight recorder, and chunked
/// sampled `run_until` all active — must reproduce the exact golden
/// digest, byte for byte, while actually collecting data.
#[test]
fn telemetry_does_not_perturb_the_dispatch_trace() {
    let (out, hub) = run_with_hub(EngineKind::Wheel, MetricsHub::enabled());
    assert_eq!(
        out,
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "telemetry-on trace deviates from the committed golden digest"
    );
    // And it must really have observed the run, not silently no-opped.
    assert!(hub.samples_taken() > 0, "sampling never ran");
    let counters = hub.counters_snapshot();
    let total: u64 = counters.iter().map(|(_, v)| v).sum();
    assert!(total > 0, "no counter ever incremented: {counters:?}");
}

/// A configured-but-unfired fault script must be invisible: scripted
/// actions ride ordinary timer events, so a script whose first action is
/// scheduled *after* the run ends adds zero dispatched events and the
/// pinned scenario — detector live, telemetry on — reproduces the exact
/// golden digest.
#[test]
fn unfired_fault_script_preserves_the_golden_trace() {
    use rocescale_core::{FaultProfile, ScriptAction};
    let mut cl = ClusterBuilder::two_tier(2, 4)
        .seed(7)
        .instrumentation(InstrumentationProfile::paper_default().telemetry(MetricsHub::enabled()))
        .faults(FaultProfile::paper_default().at(
            SimTime::from_millis(1000), // run ends at 500 µs: never fires
            ScriptAction::SetLossless {
                switch: "pod0-tor0".to_string(),
                prio: 3,
                on: false,
            },
        ))
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
    assert_eq!(
        (cl.world.dispatch_digest(), cl.world.events_processed()),
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "an unfired script must not perturb the dispatch trace"
    );
    assert_eq!(
        cl.deadlock_probe().cycle_epochs(),
        0,
        "healthy pinned scenario must stay cycle-free"
    );
    assert!(
        cl.deadlock_probe().epochs() > 0,
        "the live detector must actually have run"
    );
}

/// Run the pinned scenario with an arbitrary instrumentation profile.
fn run_instrumented(instr: InstrumentationProfile) -> (u64, u64) {
    let mut cl = ClusterBuilder::two_tier(2, 4)
        .seed(7)
        .instrumentation(instr)
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
    (cl.world.dispatch_digest(), cl.world.events_processed())
}

/// A streaming trace sink must be a pure observer: the pinned scenario
/// with a live sink — per-packet hops, queue samples, rate points and
/// teed flight events all flowing — reproduces the exact golden digest
/// while actually exporting a substantial trace.
#[test]
fn trace_sink_does_not_perturb_the_dispatch_trace() {
    let mem = MemorySink::new();
    let out = run_instrumented(
        InstrumentationProfile::paper_default()
            .telemetry(MetricsHub::enabled())
            .trace_sink(mem.clone()),
    );
    assert_eq!(
        out,
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "sink-attached trace deviates from the committed golden digest"
    );
    // And the sink must really have streamed the run, not no-opped:
    // every packet enqueue is a hop, each telemetry epoch a queue
    // sample per switch, and DCQCN activity shows up as rate points.
    assert!(
        mem.count_kind("hop") > 1000,
        "hops: {}",
        mem.count_kind("hop")
    );
    assert!(mem.count_kind("queue") > 0, "queue samples missing");
    assert!(mem.count_kind("cc_rate") > 0, "rate points missing");
}

/// Attaching a sink without a hub must imply an enabled hub (otherwise
/// the sink would silently see nothing) — and still leave the golden
/// trace untouched.
#[test]
fn sink_implies_enabled_hub_and_preserves_the_golden_trace() {
    let mem = MemorySink::new();
    let out = run_instrumented(InstrumentationProfile::paper_default().trace_sink(mem.clone()));
    assert_eq!(out, (GOLDEN_DIGEST, GOLDEN_EVENTS));
    assert!(!mem.is_empty(), "implied hub must actually stream");
}

/// The profile assembled field by field in [`run_profiled`] and one
/// built whole for [`run_instrumented`] must configure identical
/// observation and dispatch the identical golden trace. (The name
/// predates the removal of the loose `ClusterBuilder` setters this test
/// first compared against the profile.)
#[test]
fn builder_shims_agree_with_instrumentation_profile() {
    let via_shims = run_full(
        EngineKind::Wheel,
        MetricsHub::enabled(),
        DigestMode::On,
        ProfileMode::Off,
    )
    .0;
    let via_profile = run_instrumented(
        InstrumentationProfile::paper_default()
            .telemetry(MetricsHub::enabled())
            .digest(DigestMode::On)
            .profiler(ProfileMode::Off),
    );
    assert_eq!(
        via_shims, via_profile,
        "old setters and the profile must be the same configuration"
    );
    assert_eq!(via_profile, (GOLDEN_DIGEST, GOLDEN_EVENTS));
}

/// Batched dispatch (the default since the same-tick coalescing change)
/// must be observationally identical to single-step dispatch on the full
/// paper incast with telemetry and the profiler live: same golden
/// digest, same event count, every telemetry counter byte-identical,
/// and the same per-kind event breakdown. Only the batch histogram may
/// differ — it is the one artifact of the batching itself.
#[test]
fn batched_and_single_step_dispatch_are_trace_identical() {
    use rocescale_sim::DispatchMode;
    let run_mode = |mode: DispatchMode| {
        let mut cl = ClusterBuilder::two_tier(2, 4)
            .seed(7)
            .instrumentation(
                InstrumentationProfile::paper_default()
                    .telemetry(MetricsHub::enabled())
                    .profiler(ProfileMode::On),
            )
            .build();
        cl.world.set_dispatch_mode(mode);
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
        (
            cl.world.dispatch_digest(),
            cl.world.events_processed(),
            cl.telemetry().counters_snapshot(),
            cl.world.event_profile(),
        )
    };
    let (b_digest, b_events, b_counters, b_profile) = run_mode(DispatchMode::Batched);
    let (s_digest, s_events, s_counters, s_profile) = run_mode(DispatchMode::SingleStep);
    assert_eq!(
        (b_digest, b_events),
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "batched dispatch deviates from the committed golden digest"
    );
    assert_eq!(
        (s_digest, s_events),
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "single-step dispatch deviates from the committed golden digest"
    );
    assert_eq!(
        b_counters, s_counters,
        "telemetry counters must not depend on the dispatch mode"
    );
    assert_eq!(
        b_profile.counts, s_profile.counts,
        "per-kind event counts must not depend on the dispatch mode"
    );
    // The histogram is where the modes are allowed to differ: batching
    // really coalesced (fewer batches than events), single-step did not.
    assert!(
        b_profile.total_batches() > 0 && b_profile.total_batches() < GOLDEN_EVENTS,
        "batched run must record coalesced batches: {:?}",
        b_profile.batches
    );
    assert_eq!(
        s_profile.total_batches(),
        0,
        "single-step run must record no batches"
    );
}

/// The dispatch profiler must also be a pure observer: with profiling
/// *and* telemetry both live, the pinned scenario still dispatches the
/// exact golden trace, and the profile's per-kind counts sum to the
/// golden event count (wall-clock timing is bookkeeping, not events).
#[test]
fn profiler_does_not_perturb_the_dispatch_trace() {
    let (out, _, profile) = run_profiled(
        EngineKind::Wheel,
        MetricsHub::enabled(),
        DigestMode::On,
        ProfileMode::On,
    );
    assert_eq!(
        out,
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "profiler-on trace deviates from the committed golden digest"
    );
    assert_eq!(
        profile.total_events(),
        GOLDEN_EVENTS,
        "profile counts must cover every dispatched event"
    );
    // Arrivals dominate a saturating incast; the breakdown must show it.
    assert!(
        profile.counts[1] > 0 && profile.counts[3] > 0,
        "expected arrival and timer events in the breakdown: {profile:?}"
    );
}
