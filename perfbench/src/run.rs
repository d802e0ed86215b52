//! One workload run, start to finish, through the public API: topology,
//! build, endpoint lookup, connect, four equal `run_until` windows,
//! report collection and teardown, each phase inside a span.

use std::collections::BTreeMap;

use rocescale_core::{
    Cluster, ClusterBuilder, ExecutionProfile, FaultProfile, InstrumentationProfile, ServerId,
    ShardedCluster, TransportProfile,
};
use rocescale_monitor::MetricsHub;
use rocescale_nic::{QpApp, QpHandle, RdmaHost};
use rocescale_sim::{EventProfile, ProfileMode, SimTime, World};
use rocescale_switch::{DropReason, Switch};
use rocescale_topology::{Partition, Tier, Topology};

use crate::gen::{plan, Plan, Workload};
use crate::trace::Spans;

/// How a run is instrumented and executed.
///
/// Sharded clusters execute their exchange epochs serially on one
/// thread except under [`Mode::Threaded`]: on a 2-core host shared with
/// other load, threaded run phases of one input vary by 2x or more from
/// run to run, which no bound could absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: the end-to-end numbers come from these runs.
    Plain,
    /// Traced: the per-event-kind profiler on, plus a timed sample of
    /// `Topology::tor_of_server` calls; the span file is written out.
    Traced,
    /// Untraced, with sharded epochs on one thread per shard: the
    /// determinism check against the serial digest, and the source of
    /// the threaded shard figures.
    Threaded,
}

impl Mode {
    /// Parse a command-line name.
    pub fn from_name(s: &str) -> Option<Mode> {
        match s {
            "plain" => Some(Mode::Plain),
            "traced" => Some(Mode::Traced),
            "threaded" => Some(Mode::Threaded),
            _ => None,
        }
    }
}

/// Servers whose `tor_of_server` call the traced run times.
const TOR_SAMPLE: usize = 64;
/// Monitor poll cadence on hub-enabled workloads (the hub's own
/// sampling and deadlock-probe cadence).
const POLL_EVERY: SimTime = SimTime::from_micros(100);
/// Run-phase windows for the flat-cost check.
const WINDOWS: u64 = 4;

/// What one run produced.
pub struct Outcome {
    /// The generated inputs.
    pub plan: Plan,
    /// Named invariant checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    /// Global dispatch digest.
    pub digest: u64,
    /// Events dispatched.
    pub events: u64,
    /// Every metric of the run, end-to-end and per-layer.
    pub metrics: Vec<(&'static str, f64)>,
    /// The run's spans.
    pub spans: Spans,
    /// Dispatch profile summed over every world (zeros when untraced).
    pub profile: EventProfile,
}

/// The calls the benchmark makes on either cluster type.
trait Fabric {
    fn servers_under(&self, pod: u32, tor: u32) -> Vec<ServerId>;
    fn server_pod(&self, id: ServerId) -> u32;
    fn same_tor(&self, a: ServerId, b: ServerId) -> bool;
    fn connect_qp(
        &mut self,
        a: ServerId,
        b: ServerId,
        udp: u16,
        app: QpApp,
    ) -> (QpHandle, QpHandle);
    fn run_until(&mut self, t: SimTime);
    fn rdma(&self, id: ServerId) -> &RdmaHost;
    fn switch_count(&self) -> usize;
    fn switch(&self, i: usize) -> &Switch;
    fn total_switch_pause_tx(&self) -> u64;
    fn total_drops_of(&self, reason: DropReason) -> u64;
    fn total_rdma_goodput(&self) -> u64;
    fn deadlock_verdict(&self) -> Vec<String>;
    fn worlds(&self) -> Vec<&World>;
    fn events(&self) -> u64;
    fn digest(&self) -> u64;
    /// Executed epochs, skipped epochs, boundary messages, per-shard
    /// wall nanoseconds; `None` for a single-world cluster.
    fn shard_view(&self) -> Option<(u64, u64, u64, Vec<u64>)>;
    /// The telemetry hub. Only single-world workloads turn it on
    /// (fleet_100k cannot, see the README), so on a sharded cluster
    /// shard 0's hub stands for all of them.
    fn hub(&self) -> &MetricsHub;
    /// One monitor poll: refresh gauges, take the counter snapshot;
    /// returns the snapshot's length.
    fn poll(&mut self) -> usize;
}

/// The methods both cluster types spell the same way.
macro_rules! shared_fabric_calls {
    () => {
        fn servers_under(&self, pod: u32, tor: u32) -> Vec<ServerId> {
            self.servers_under(pod, tor)
        }
        fn server_pod(&self, id: ServerId) -> u32 {
            self.server_pod(id)
        }
        fn same_tor(&self, a: ServerId, b: ServerId) -> bool {
            self.same_tor(a, b)
        }
        fn connect_qp(
            &mut self,
            a: ServerId,
            b: ServerId,
            udp: u16,
            app: QpApp,
        ) -> (QpHandle, QpHandle) {
            self.connect_qp(a, b, udp, app, QpApp::None)
        }
        fn run_until(&mut self, t: SimTime) {
            self.run_until(t)
        }
        fn rdma(&self, id: ServerId) -> &RdmaHost {
            self.rdma(id)
        }
        fn switch_count(&self) -> usize {
            self.switch_count()
        }
        fn switch(&self, i: usize) -> &Switch {
            self.switch(i)
        }
        fn total_switch_pause_tx(&self) -> u64 {
            self.total_switch_pause_tx()
        }
        fn total_drops_of(&self, reason: DropReason) -> u64 {
            self.total_drops_of(reason)
        }
        fn total_rdma_goodput(&self) -> u64 {
            self.total_rdma_goodput()
        }
        fn deadlock_verdict(&self) -> Vec<String> {
            self.deadlock_probe().verdict()
        }
    };
}

impl Fabric for Cluster {
    shared_fabric_calls!();
    fn worlds(&self) -> Vec<&World> {
        vec![&self.world]
    }
    fn events(&self) -> u64 {
        self.world.events_processed()
    }
    fn digest(&self) -> u64 {
        self.world.dispatch_digest()
    }
    fn shard_view(&self) -> Option<(u64, u64, u64, Vec<u64>)> {
        None
    }
    fn hub(&self) -> &MetricsHub {
        self.telemetry()
    }
    fn poll(&mut self) -> usize {
        self.publish_gauges();
        self.telemetry().counters_snapshot().len()
    }
}

impl Fabric for ShardedCluster {
    shared_fabric_calls!();
    fn worlds(&self) -> Vec<&World> {
        (0..self.shard_count()).map(|s| self.world(s)).collect()
    }
    fn events(&self) -> u64 {
        self.events_processed()
    }
    fn digest(&self) -> u64 {
        self.dispatch_digest()
    }
    fn shard_view(&self) -> Option<(u64, u64, u64, Vec<u64>)> {
        let st = self.shard_stats();
        Some((
            st.epochs_executed,
            st.epochs_skipped,
            st.boundary_messages,
            self.shard_wall_nanos().to_vec(),
        ))
    }
    fn hub(&self) -> &MetricsHub {
        ShardedCluster::hub(self, 0)
    }
    fn poll(&mut self) -> usize {
        self.publish_gauges();
        self.counters_snapshot().len()
    }
}

/// Run workload `w` once on the inputs generated from `seed`.
pub fn run(w: Workload, seed: u64, mode: Mode) -> Outcome {
    let plan = plan(w, seed);
    let mut sp = Spans::new(format!(
        "{}-{}-{}-{:x}",
        w.name(),
        seed,
        std::process::id(),
        plan.fingerprint()
    ));
    let wall = sp.begin("wall");
    let spec = w.spec();
    let topo = sp.time("topology.clos", || Topology::clos(&spec));
    let mut checks = vec![("topology_shape", topo.pod_count() == spec.pods)];
    let mut metrics = Vec::new();
    if mode == Mode::Traced {
        let servers = topo.of_tier(Tier::Server);
        let mut ok = true;
        for k in 0..TOR_SAMPLE {
            let s = servers[k * servers.len() / TOR_SAMPLE];
            let tor = sp.time("topology.tor_of_server", || topo.tor_of_server(s));
            ok &= topo.nodes[tor].tier == Tier::Tor;
        }
        checks.push(("tor_of_server_is_tor", ok));
        metrics.push((
            "topology.tor_of_server_us",
            sp.total_s("topology.tor_of_server") * 1e6 / TOR_SAMPLE as f64,
        ));
    }

    let profiler = match mode {
        Mode::Traced => ProfileMode::On,
        Mode::Plain | Mode::Threaded => ProfileMode::Off,
    };
    let hub = match w {
        Workload::IncastPodset => MetricsHub::enabled(),
        Workload::Fleet100k | Workload::Lossy1in256 => MetricsHub::disabled(),
    };
    let builder = ClusterBuilder::new(spec).seed(seed).instrumentation(
        InstrumentationProfile::paper_default()
            .telemetry(hub)
            .profiler(profiler),
    );
    let mut drove = match w {
        Workload::Fleet100k => {
            // Sharded{2} always yields two shards on this 8-pod fabric.
            let planned = Partition::pods(&topo, 2);
            let mut c = sp.time("core.build", || {
                builder
                    .execution(ExecutionProfile::Sharded { shards: 2 })
                    .build_sharded()
            });
            c.set_threaded(mode == Mode::Threaded);
            checks.push((
                "two_shards",
                c.shard_count() == 2 && c.partition().shard_sizes() == planned.shard_sizes(),
            ));
            let app = QpApp::Burst {
                msg_len: 64 * 1024,
                count: 10,
                inflight: 2,
            };
            drive(&mut sp, c, &plan, app)
        }
        Workload::IncastPodset => {
            let c = sp.time("core.build", || builder.build());
            let app = QpApp::Saturate {
                msg_len: 64 * 1024,
                inflight: 2,
            };
            drive(&mut sp, c, &plan, app)
        }
        Workload::Lossy1in256 => {
            let recovery = plan.recovery_by_host();
            let c = sp.time("core.build", || {
                builder
                    .transport(
                        TransportProfile::paper_default()
                            .dcqcn(false)
                            .qp_rto(SimTime::from_micros(100)),
                    )
                    .faults(FaultProfile::paper_default().drop_ip_id_low_byte(Some(0xff)))
                    .host_tweak(move |i, cfg| {
                        if let Some(r) = recovery[i] {
                            cfg.qp_defaults.recovery = r;
                        }
                    })
                    .build()
            });
            let app = QpApp::Saturate {
                msg_len: 4 << 20,
                inflight: 2,
            };
            drive(&mut sp, c, &plan, app)
        }
    };
    sp.end(wall);
    checks.append(&mut drove.checks);
    metrics.append(&mut drove.metrics);

    let setup_s = ["topology.clos", "core.build", "core.lookup", "core.connect"]
        .iter()
        .map(|n| sp.total_s(n))
        .sum::<f64>();
    let run_s = sp.total_s("sim.run");
    metrics.extend([
        ("wall_s", sp.total_s("wall")),
        ("setup_s", setup_s),
        ("events_per_s", drove.events as f64 / run_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("topology.clos_s", sp.total_s("topology.clos")),
        ("core.build_s", sp.total_s("core.build")),
        ("core.lookup_s", sp.total_s("core.lookup")),
        ("core.connect_s", sp.total_s("core.connect")),
        ("core.report_s", sp.total_s("core.report")),
        ("core.teardown_s", sp.total_s("core.teardown")),
        ("monitor.poll_s", sp.total_s("monitor.poll")),
    ]);
    Outcome {
        plan,
        checks,
        digest: drove.digest,
        events: drove.events,
        metrics,
        spans: sp,
        profile: drove.profile,
    }
}

/// What [`drive`] hands back to [`run`].
struct Drove {
    checks: Vec<(&'static str, bool)>,
    metrics: Vec<(&'static str, f64)>,
    digest: u64,
    events: u64,
    profile: EventProfile,
}

/// Endpoint lookup, connect, the run windows, report and teardown.
fn drive<F: Fabric>(sp: &mut Spans, mut c: F, plan: &Plan, app: QpApp) -> Drove {
    let racks: BTreeMap<(u32, u32), Vec<ServerId>> = sp.time("core.lookup", || {
        plan.flows
            .iter()
            .flat_map(|f| [(f.src.pod, f.src.tor), (f.dst.pod, f.dst.tor)])
            .map(|r| (r, c.servers_under(r.0, r.1)))
            .collect()
    });
    // `servers_under` matches a ToR's /24, which cannot hold more than
    // 254 hosts: above that, a rack's list comes back short or mixed
    // with the previous rack's overflow. Count such racks, and resolve a
    // position past the end of a short list modulo its length.
    let rack_size = plan.workload.spec().servers_per_tor as usize;
    let bad_racks = racks
        .values()
        .filter(|l| l.len() != rack_size || l.iter().any(|&s| !c.same_tor(s, l[0])))
        .count();
    let at = |e: crate::gen::Endpoint| {
        let l = &racks[&(e.pod, e.tor)];
        l[e.idx as usize % l.len()]
    };
    let qps: Vec<(ServerId, QpHandle, ServerId, QpHandle)> = sp.time("core.connect", || {
        plan.flows
            .iter()
            .map(|f| {
                let (a, b) = (at(f.src), at(f.dst));
                let (ha, hb) = c.connect_qp(a, b, f.udp_src, app);
                (a, ha, b, hb)
            })
            .collect()
    });

    // The run phase: four equal windows, polling the monitor on its
    // cadence when the hub is on.
    let dur = plan.workload.duration();
    let polling = c.hub().is_enabled();
    let mut window_cost = Vec::new();
    let run = sp.begin("sim.run");
    let mut next_poll = POLL_EVERY;
    for q in 1..=WINDOWS {
        let end = SimTime(dur.as_ps() * q / WINDOWS);
        let events0 = c.events();
        let busy0 = sp.total_s("sim.run_until");
        let window = sp.begin("sim.window");
        while polling && next_poll < end {
            sp.time("sim.run_until", || c.run_until(next_poll));
            sp.time("monitor.poll", || c.poll());
            next_poll += POLL_EVERY;
        }
        sp.time("sim.run_until", || c.run_until(end));
        sp.end(window);
        let events = c.events() - events0;
        window_cost.push((sp.total_s("sim.run_until") - busy0) / events.max(1) as f64);
    }
    sp.end(run);

    let report = sp.begin("core.report");
    let mut checks = Vec::new();
    let goodput = c.total_rdma_goodput();
    let lossless_drops = c.total_drops_of(DropReason::LosslessOverflow);
    let filter_drops = c.total_drops_of(DropReason::InjectedFilter);
    let (mut hits, mut misses) = (0u64, 0u64);
    for i in 0..c.switch_count() {
        let st = c.switch(i).flow_cache_stats();
        hits += st.hits;
        misses += st.misses;
    }
    let (mut retx, mut naks, mut oos, mut data_tx) = (0u64, 0u64, 0u64, 0u64);
    let mut pairs_progress = true;
    let mut recovery_as_planned = true;
    let mut pods_crossed = true;
    let mut racks_crossed = true;
    for (f, &(a, ha, b, hb)) in plan.flows.iter().zip(&qps) {
        for (s, h) in [(a, ha), (b, hb)] {
            let st = &c.rdma(s).qp_endpoint(h).stats;
            retx += st.retx_pkts;
            naks += st.naks_tx;
            oos += st.out_of_seq_rx;
            data_tx += st.data_pkts_tx;
            if let Some(r) = f.recovery {
                recovery_as_planned &= c.rdma(s).qp_endpoint(h).config().recovery == r;
            }
        }
        pairs_progress &= c.rdma(b).qp_endpoint(hb).stats.goodput_bytes > 0;
        pods_crossed &= c.server_pod(a) != c.server_pod(b);
        racks_crossed &= !c.same_tor(a, b);
    }
    let counters = c.hub().counters_snapshot();
    let counter_sum = |suffix: &str| -> u64 {
        counters
            .iter()
            .filter(|(n, _)| n.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    let cc_rate_changes = counter_sum(".rate_changes");
    let cc_cnp_rx = counter_sum(".dcqcn.cnp_rx");
    let instruments = counters.len() + c.hub().gauges_snapshot().len();
    let verdict = c.deadlock_verdict();
    let worlds = c.worlds();
    let mut profile = EventProfile::default();
    for w in &worlds {
        let p = w.event_profile();
        for k in 0..4 {
            profile.counts[k] += p.counts[k];
            profile.nanos[k] += p.nanos[k];
        }
        for (b, n) in profile.batches.iter_mut().zip(p.batches) {
            *b += n;
        }
    }
    let occupancy: u64 = worlds.iter().map(|w| w.sched_stats().max_occupancy).sum();
    let slab_slots: usize = worlds.iter().map(|w| w.packet_slab_capacity()).sum();
    drop(worlds);
    let pause_tx = c.total_switch_pause_tx();
    let events = c.events();
    let digest = c.digest();
    let shard_view = c.shard_view();
    sp.end(report);

    match plan.workload {
        Workload::Fleet100k => {
            checks.push(("flows_cross_pods", pods_crossed));
        }
        Workload::IncastPodset => {
            checks.push(("senders_outside_aggregator_rack", racks_crossed));
            checks.push(("no_deadlock_verdict", verdict.is_empty()));
        }
        Workload::Lossy1in256 => {
            checks.push(("every_pair_progresses", pairs_progress));
            checks.push(("filter_drops", filter_drops > 0));
            checks.push(("recovery_as_planned", recovery_as_planned));
        }
    }
    if plan.workload != Workload::Lossy1in256 {
        checks.push(("no_lossless_drops", lossless_drops == 0));
        checks.push(("goodput", goodput > 0));
    }

    sp.time("core.teardown", || drop(c));

    let run_s = sp.total_s("sim.run");
    let run_until_s = sp.total_s("sim.run_until");
    let handler_ns: u64 = profile.nanos.iter().sum();
    // Single-world runs have one busy "shard": the world itself.
    let (epochs, skipped, boundary, walls) =
        shard_view.unwrap_or((0, 0, 0, vec![(run_until_s * 1e9) as u64]));
    let busy_max = *walls.iter().max().unwrap_or(&0) as f64 / 1e9;
    let busy_sum = walls.iter().sum::<u64>() as f64 / 1e9;
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let metrics = vec![
        ("sim.events", events as f64),
        ("sim.run_s", run_s),
        ("sim.handler_s.arrival", profile.nanos[1] as f64 / 1e9),
        ("sim.handler_s.port_idle", profile.nanos[2] as f64 / 1e9),
        ("sim.handler_s.timer", profile.nanos[3] as f64 / 1e9),
        ("sim.engine_s", busy_sum - handler_ns as f64 / 1e9),
        (
            "sim.events_per_batch",
            ratio(profile.total_events(), profile.total_batches()),
        ),
        ("sim.wheel_max_occupancy", occupancy as f64),
        ("sim.slab_slots", slab_slots as f64),
        (
            "sim.late_cost_ratio",
            window_cost[WINDOWS as usize - 1] / window_cost[0],
        ),
        ("shard.epochs", epochs as f64),
        ("shard.epochs_skipped", skipped as f64),
        ("shard.boundary_messages", boundary as f64),
        ("shard.busy_s_max", busy_max),
        ("shard.imbalance", busy_max * walls.len() as f64 / busy_sum),
        ("shard.barrier_s", (run_until_s - busy_max).max(0.0)),
        ("switch.flow_cache_hit_rate", ratio(hits, hits + misses)),
        ("switch.pause_tx", pause_tx as f64),
        ("switch.lossless_drops", lossless_drops as f64),
        ("switch.filter_drops", filter_drops as f64),
        ("transport.retx_pkts", retx as f64),
        ("transport.naks_tx", naks as f64),
        ("transport.out_of_seq_rx", oos as f64),
        ("transport.retx_share", ratio(retx, data_tx)),
        ("nic.goodput_bytes", goodput as f64),
        ("cc.rate_changes", cc_rate_changes as f64),
        ("cc.cnp_rx", cc_cnp_rx as f64),
        ("monitor.instruments", instruments as f64),
        ("core.lookup_bad_racks", bad_racks as f64),
    ];
    Drove {
        checks,
        metrics,
        digest,
        events,
        profile,
    }
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
