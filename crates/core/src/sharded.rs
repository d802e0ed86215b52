//! Sharded cluster execution: per-pod worker shards behind the
//! conservative exchange.
//!
//! [`ShardedCluster`] is the multi-world sibling of
//! [`Cluster`](crate::Cluster): the same devices, built by the same
//! [`ClusterBuilder`](crate::ClusterBuilder) factory, but distributed
//! across per-pod [`rocescale_sim::World`]s that a
//! [`rocescale_sim::ShardedWorld`] advances in lookahead epochs. Three
//! determinism guarantees anchor it (pinned by
//! `tests/shard_determinism.rs`):
//!
//! 1. One effective shard (a `SingleThread` profile, `shards: 1`, or a
//!    single-pod topology the partition collapses) dispatches the
//!    byte-identical event stream — and golden digest — of
//!    [`Cluster`](crate::Cluster).
//! 2. With N ≥ 2 shards, serial and threaded epoch execution agree
//!    byte-for-byte: same digest, same event counts, same merged
//!    counter snapshot.
//! 3. The digest folds per-shard digests in fixed shard order, so a
//!    sharded run is replayable and pinnable like any other.
//!
//! Every observation feature runs *bank-per-shard* here: each shard's
//! devices register counters, gauges, time series and trace streams on
//! their own [`MetricsHub`];
//! [`ShardedCluster::counters_snapshot`] merges the banks by name
//! (summing duplicates) into one deterministic fleet view, and a
//! configured [`TraceSink`] receives every shard's records merged in
//! `(time, shard, emission)` order with a `shard` tag per line. The live
//! [`DeadlockProbe`] reads the barrier-merged pause/occupancy view
//! across all shard worlds at each sampling epoch, and the Pingmesh
//! report mirrors each prober's RTTs into its owning shard's bank.
//! Serial and threaded execution produce byte-identical exports: within
//! an epoch each world writes only to its own bank, and the merge order
//! is a pure function of the records.

use std::collections::BTreeMap;

use rocescale_monitor::{MemorySink, MetricsHub, Pingmesh, QueueSample, StreamRecord, TraceSink};
use rocescale_nic::{QpApp, QpHandle, RdmaHost};
use rocescale_packet::Priority;
use rocescale_sim::{EpochPacing, ShardStats, ShardedWorld, SimTime, World};
use rocescale_switch::{DropReason, Switch};
use rocescale_topology::{ClosSpec, Partition, Tier, Topology};

use crate::cluster::{
    probe_wiring, BuiltParts, ClusterTele, ServerId, ServerInfo, ServerKind, SubnetIndex,
    SwitchInfo,
};
use crate::detect::DeadlockProbe;

/// One shard's observation bank: fleet-level gauge ids and trace scopes
/// registered on that shard's hub, over the switches the shard owns.
struct ShardObs {
    tele: ClusterTele,
    /// Global switch indices owned by this shard, parallel to the
    /// `tele` vectors.
    switch_idx: Vec<usize>,
}

/// A running sharded cluster: per-pod worlds behind the conservative
/// exchange, plus the index structures to reach every device.
pub struct ShardedCluster {
    sharded: ShardedWorld,
    topo: Topology,
    spec: ClosSpec,
    partition: Partition,
    servers: Vec<ServerInfo>,
    subnets: SubnetIndex,
    switches: Vec<SwitchInfo>,
    hubs: Vec<MetricsHub>,
    obs: Vec<ShardObs>,
    deadlock: DeadlockProbe,
    /// Per-shard trace banks (parallel to `hubs`) and the caller's sink
    /// they merge into; both empty/none unless a sink was configured on
    /// a multi-shard build.
    banks: Vec<MemorySink>,
    sink: Option<Box<dyn TraceSink>>,
}

impl ShardedCluster {
    pub(crate) fn from_parts(parts: BuiltParts, spec: ClosSpec) -> ShardedCluster {
        let BuiltParts {
            worlds,
            partition,
            topo,
            servers,
            subnets,
            switches,
            hubs,
            banks,
            sink,
        } = parts;
        let obs = hubs
            .iter()
            .enumerate()
            .map(|(s, hub)| {
                let switch_idx: Vec<usize> = switches
                    .iter()
                    .enumerate()
                    .filter(|(_, sw)| sw.shard == s as u32)
                    .map(|(i, _)| i)
                    .collect();
                let owned: Vec<SwitchInfo> =
                    switch_idx.iter().map(|&i| switches[i].clone()).collect();
                ShardObs {
                    tele: ClusterTele::register(hub, &owned),
                    switch_idx,
                }
            })
            .collect();
        let (probe_switches, probe_links) = probe_wiring(&topo, &switches);
        let deadlock = DeadlockProbe::new_sharded(
            &hubs[0],
            probe_switches,
            probe_links,
            vec![Priority::new(3), Priority::new(4)],
            3,
        );
        ShardedCluster {
            sharded: ShardedWorld::new(worlds),
            topo,
            spec,
            partition,
            servers,
            subnets,
            switches,
            hubs,
            obs,
            deadlock,
            banks,
            sink,
        }
    }

    // ---- shape ----

    /// The Clos spec this cluster was built from.
    pub fn spec(&self) -> &ClosSpec {
        &self.spec
    }

    /// The topology description.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The pod-granular partition plan in force.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of worker shards (1 for a single-pod topology).
    pub fn shard_count(&self) -> usize {
        self.sharded.shard_count()
    }

    /// Borrow shard `s`'s world (for per-shard engine stats).
    pub fn world(&self, s: usize) -> &World {
        self.sharded.world(s)
    }

    /// Mutably borrow shard `s`'s world.
    pub fn world_mut(&mut self, s: usize) -> &mut World {
        self.sharded.world_mut(s)
    }

    /// Run epochs serially even with multiple shards (differential
    /// testing: results are byte-identical either way).
    pub fn set_threaded(&mut self, threaded: bool) {
        self.sharded.set_threaded(threaded);
    }

    /// Choose dense grid pacing or adaptive epoch skipping (the
    /// default). A differential knob like `set_threaded`: both modes
    /// dispatch byte-identical event streams.
    pub fn set_pacing(&mut self, pacing: EpochPacing) {
        self.sharded.set_pacing(pacing);
    }

    /// The active pacing mode.
    pub fn pacing(&self) -> EpochPacing {
        self.sharded.pacing()
    }

    // ---- servers ----

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// All server ids.
    pub fn all_servers(&self) -> Vec<ServerId> {
        (0..self.servers.len()).map(ServerId).collect()
    }

    /// Server ids of a given kind.
    pub fn servers_of_kind(&self, kind: ServerKind) -> Vec<ServerId> {
        self.servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == kind)
            .map(|(i, _)| ServerId(i))
            .collect()
    }

    /// The servers under `tor` (pod-relative index), in port order.
    pub fn servers_under(&self, pod: u32, tor: u32) -> Vec<ServerId> {
        self.subnets.servers_under(pod, tor)
    }

    /// A server's IP.
    pub fn server_ip(&self, id: ServerId) -> u32 {
        self.servers[id.0].ip
    }

    /// A server's pod.
    pub fn server_pod(&self, id: ServerId) -> u32 {
        self.servers[id.0].pod
    }

    /// The shard that owns a server.
    pub fn server_shard(&self, id: ServerId) -> u32 {
        self.servers[id.0].shard
    }

    /// Two servers share a ToR?
    pub fn same_tor(&self, a: ServerId, b: ServerId) -> bool {
        self.servers[a.0].tor_topo_idx == self.servers[b.0].tor_topo_idx
    }

    /// Borrow an RDMA server.
    pub fn rdma(&self, id: ServerId) -> &RdmaHost {
        let s = &self.servers[id.0];
        assert_eq!(s.kind, ServerKind::Rdma);
        self.sharded.world(s.shard as usize).node::<RdmaHost>(s.sim)
    }

    /// Mutably borrow an RDMA server.
    pub fn rdma_mut(&mut self, id: ServerId) -> &mut RdmaHost {
        let s = &self.servers[id.0];
        assert_eq!(s.kind, ServerKind::Rdma);
        let (shard, sim) = (s.shard, s.sim);
        self.sharded
            .world_mut(shard as usize)
            .node_mut::<RdmaHost>(sim)
    }

    /// Create a QP pair between two RDMA servers — shard-oblivious: the
    /// endpoints may live in different worlds, and their traffic rides
    /// the exchange.
    pub fn connect_qp(
        &mut self,
        a: ServerId,
        b: ServerId,
        udp_src: u16,
        app_a: QpApp,
        app_b: QpApp,
    ) -> (QpHandle, QpHandle) {
        let a_ip = self.server_ip(a);
        let b_ip = self.server_ip(b);
        let a_qpn = self.rdma(a).qp_count() as u32;
        let b_qpn = self.rdma(b).qp_count() as u32;
        let ha = self.rdma_mut(a).add_qp(b_ip, b_qpn, udp_src, app_a);
        let hb = self.rdma_mut(b).add_qp(a_ip, a_qpn, udp_src, app_b);
        (ha, hb)
    }

    // ---- switches ----

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Borrow switch `i` (topology order: ToRs and leaves pod-major,
    /// then spines).
    pub fn switch(&self, i: usize) -> &Switch {
        let s = &self.switches[i];
        self.sharded.world(s.shard as usize).node::<Switch>(s.sim)
    }

    /// A switch's display name.
    pub fn switch_name(&self, i: usize) -> &str {
        &self.switches[i].name
    }

    /// Indices of switches of a tier.
    pub fn switches_of_tier(&self, tier: Tier) -> Vec<usize> {
        self.switches
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tier == tier)
            .map(|(i, _)| i)
            .collect()
    }

    // ---- running ----

    /// Advance every shard to `t` through conservative-lookahead epochs.
    ///
    /// With telemetry enabled the run is chunked at sample boundaries —
    /// exactly like [`Cluster::run_until`](crate::Cluster::run_until) —
    /// so every shard bank samples its time series on the same cadence,
    /// fleet gauges refresh, queue samples stream into each shard's
    /// bank, and the deadlock probe reads the barrier-merged
    /// pause/occupancy view across all shard worlds. Chunking never
    /// changes the physics: the dispatch digest is byte-identical with
    /// observation on or off, threaded or serial.
    pub fn run_until(&mut self, t: SimTime) {
        if self.hubs[0].is_enabled() {
            while let Some(ns) = self.hubs[0].next_sample_ps() {
                if ns >= t.as_ps() {
                    break;
                }
                self.sharded.run_until(SimTime(ns));
                self.publish_gauges();
                self.stream_queue_samples(ns);
                self.deadlock
                    .observe_merged(self.sharded.worlds(), SimTime(ns));
                for h in &self.hubs {
                    h.maybe_sample(ns);
                }
            }
        }
        self.sharded.run_until(t);
        // A run boundary is where readers expect the exported trace to
        // be complete: move every bank's records into the caller's sink
        // (multi-shard) or flush the directly attached sink (one shard).
        self.merge_trace_banks();
        for h in &self.hubs {
            h.flush_sink();
        }
    }

    /// Refresh each shard's fleet-level gauges (engine progress,
    /// per-switch lossless backlog) from live state. Called
    /// automatically at each sample boundary.
    pub fn publish_gauges(&self) {
        for (s, obs) in self.obs.iter().enumerate() {
            let hub = &self.hubs[s];
            if !hub.is_enabled() {
                continue;
            }
            let w = self.sharded.world(s);
            hub.set_gauge(obs.tele.engine_events, w.events_processed() as f64);
            let st = w.sched_stats();
            hub.set_gauge(
                obs.tele.engine_pending,
                (st.pushed - st.dispatched - st.cancelled) as f64,
            );
            for (k, &gi) in obs.switch_idx.iter().enumerate() {
                let backlog = self.switch(gi).lossless_backlog() as f64;
                hub.set_gauge(obs.tele.switch_backlog[k], backlog);
            }
        }
    }

    /// Stream one queue-depth sample per switch into its owning shard's
    /// bank at epoch boundary `ns` (no-op for shards without a
    /// queue-class sink).
    fn stream_queue_samples(&self, ns: u64) {
        for (s, obs) in self.obs.iter().enumerate() {
            let hub = &self.hubs[s];
            if !hub.streams_queues() {
                continue;
            }
            for (k, &gi) in obs.switch_idx.iter().enumerate() {
                let sw = self.switch(gi);
                hub.stream_queue(
                    ns,
                    obs.tele.switch_scopes[k],
                    QueueSample {
                        backlog_bytes: sw.lossless_backlog(),
                        max_port_bytes: sw.max_egress_depth(),
                        tx_pkts: sw.total_data_tx_pkts(),
                    },
                );
            }
        }
    }

    /// Drain every shard's trace bank into the caller's sink, merged in
    /// `(time, shard, emission order)` — a pure function of the records,
    /// so threaded and serial runs export byte-identical files. Each
    /// line carries its owning shard in the `shard` field. Records never
    /// interleave wrongly across successive calls: a chunk's records all
    /// precede the next chunk's in simulated time.
    fn merge_trace_banks(&mut self) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let mut all: Vec<(u64, u32, usize, rocescale_monitor::OwnedRecord)> = Vec::new();
        for (s, bank) in self.banks.iter().enumerate() {
            for (i, rec) in bank.take_records().into_iter().enumerate() {
                all.push((rec.t_ps, s as u32, i, rec));
            }
        }
        all.sort_by_key(|&(t, s, i, _)| (t, s, i));
        for (_, s, _, rec) in all {
            sink.write(&StreamRecord {
                t_ps: rec.t_ps,
                scope: &rec.scope,
                shard: Some(s),
                body: rec.body,
            });
        }
        sink.flush();
    }

    /// The live deadlock probe over the barrier-merged fleet view.
    /// Epochs run automatically at each telemetry sample boundary.
    pub fn deadlock_probe(&self) -> &DeadlockProbe {
        &self.deadlock
    }

    /// Force one deadlock-detection epoch right now against the merged
    /// pause/occupancy view. Returns the wait cycle found, if any.
    pub fn deadlock_observe_now(&mut self) -> Option<Vec<String>> {
        let now = self.sharded.now();
        self.deadlock.observe_merged(self.sharded.worlds(), now)
    }

    /// Run for `ms` more milliseconds of simulated time.
    pub fn run_for_millis(&mut self, ms: u64) {
        let t = self.now() + SimTime::from_millis(ms);
        self.run_until(t);
    }

    /// Current simulated horizon (every shard has advanced at least this
    /// far).
    pub fn now(&self) -> SimTime {
        self.sharded.now()
    }

    // ---- determinism & progress ----

    /// Global dispatch digest: per-shard digests folded in shard order.
    pub fn dispatch_digest(&self) -> u64 {
        self.sharded.dispatch_digest()
    }

    /// Total events dispatched across all shards.
    pub fn events_processed(&self) -> u64 {
        self.sharded.events_processed()
    }

    /// Exchange epochs executed (0 until the first multi-shard run).
    pub fn exchange_epochs(&self) -> u64 {
        self.sharded.epochs()
    }

    /// Grid windows adaptive pacing proved idle and jumped over (0 under
    /// dense pacing or one shard).
    pub fn epochs_skipped(&self) -> u64 {
        self.sharded.epochs_skipped()
    }

    /// Executed/skipped/boundary counters in one snapshot.
    pub fn shard_stats(&self) -> ShardStats {
        self.sharded.stats()
    }

    /// Boundary messages carried across shards so far.
    pub fn boundary_messages(&self) -> u64 {
        self.sharded.boundary_messages()
    }

    /// Per-shard wall-clock spent inside `World::run_until`, in
    /// nanoseconds (index = shard).
    pub fn shard_wall_nanos(&self) -> &[u64] {
        self.sharded.shard_wall_nanos()
    }

    /// The conservative lookahead (min cross-shard propagation delay);
    /// `None` with one shard.
    pub fn lookahead(&self) -> Option<SimTime> {
        self.sharded.lookahead()
    }

    // ---- fleet-wide monitoring ----

    /// Total XOFF pause frames sent by all switches.
    pub fn total_switch_pause_tx(&self) -> u64 {
        (0..self.switches.len())
            .map(|i| self.switch(i).stats.total_pause_tx())
            .sum()
    }

    /// Total drops of a given reason across switches.
    pub fn total_drops_of(&self, reason: DropReason) -> u64 {
        (0..self.switches.len())
            .map(|i| self.switch(i).stats.drops_of(reason))
            .sum()
    }

    /// Drops that must be zero in a healthy lossless fabric.
    pub fn lossless_drops(&self) -> u64 {
        self.total_drops_of(DropReason::LosslessOverflow)
    }

    /// Sum of receiver-side RDMA goodput bytes across all servers.
    pub fn total_rdma_goodput(&self) -> u64 {
        self.servers
            .iter()
            .filter(|s| s.kind == ServerKind::Rdma)
            .map(|s| {
                self.sharded
                    .world(s.shard as usize)
                    .node::<RdmaHost>(s.sim)
                    .total_goodput_bytes()
            })
            .sum()
    }

    /// Aggregate flow-cache hits and misses across every switch.
    pub fn flow_cache_totals(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for i in 0..self.switches.len() {
            let st = self.switch(i).flow_cache_stats();
            hits += st.hits;
            misses += st.misses;
        }
        (hits, misses)
    }

    /// Shard `s`'s telemetry bank (disabled unless the builder attached
    /// an enabled hub).
    pub fn hub(&self, s: usize) -> &MetricsHub {
        &self.hubs[s]
    }

    /// Fleet counter snapshot: every shard bank's counters merged by
    /// name, duplicates summed, name-sorted — deterministic regardless
    /// of shard count or threading.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for h in &self.hubs {
            for (name, v) in h.counters_snapshot() {
                *merged.entry(name).or_insert(0) += v;
            }
        }
        merged.into_iter().collect()
    }

    /// Fleet gauge snapshot: every shard bank's gauges merged by name.
    /// Additive fleet gauges (engine events/pending, per-switch backlog)
    /// sum; names are unique per shard otherwise, so summing is exact.
    pub fn gauges_snapshot(&self) -> Vec<(String, f64)> {
        let mut merged: BTreeMap<String, f64> = BTreeMap::new();
        for h in &self.hubs {
            for (name, v) in h.gauges_snapshot() {
                *merged.entry(name).or_insert(0.0) += v;
            }
        }
        merged.into_iter().collect()
    }

    // ---- pingmesh ----

    /// Pingmesh scope of a server pair (§5.3's ToR / Podset / DC levels).
    pub fn scope_of(&self, a: ServerId, b: ServerId) -> rocescale_monitor::pingmesh::Scope {
        use rocescale_monitor::pingmesh::Scope;
        if self.same_tor(a, b) {
            Scope::IntraTor
        } else if self.server_pod(a) == self.server_pod(b) {
            Scope::IntraPodset
        } else {
            Scope::IntraDc
        }
    }

    /// Install the RDMA Pingmesh service (§5.3), shard-oblivious: the
    /// same pair-selection as [`Cluster::install_pingmesh`]
    /// (crate::Cluster::install_pingmesh), with probes that cross shard
    /// boundaries riding the exchange like any other flow. Returns the
    /// probed pairs; collect results with
    /// [`ShardedCluster::pingmesh_report`].
    pub fn install_pingmesh(
        &mut self,
        fanout: usize,
        interval: SimTime,
    ) -> Vec<(ServerId, ServerId)> {
        let servers = self.servers_of_kind(ServerKind::Rdma);
        let mut pairs = Vec::new();
        for (i, a) in servers.iter().enumerate() {
            for k in 1..=fanout {
                let b = servers[(i + k * (servers.len() / (fanout + 1)).max(1)) % servers.len()];
                if b == *a {
                    continue;
                }
                self.connect_qp(
                    *a,
                    b,
                    (20_000 + i * 17 + k) as u16,
                    rocescale_nic::QpApp::Pinger {
                        payload: rocescale_monitor::pingmesh::PROBE_BYTES,
                        interval,
                        start_at: SimTime::from_micros(10 + (i * 13 + k * 7) as u64),
                    },
                    rocescale_nic::QpApp::Echo {
                        reply_len: rocescale_monitor::pingmesh::PROBE_BYTES,
                    },
                );
                pairs.push((*a, b));
            }
        }
        pairs
    }

    /// Aggregate all collected probe RTTs into a fleet Pingmesh report.
    ///
    /// Each RTT sample is mirrored into the *prober's owning shard's*
    /// bank (so `pingmesh.{tor,podset,dc}.*` counters live next to that
    /// shard's other metrics and merge by name in
    /// [`counters_snapshot`](Self::counters_snapshot)), and recorded
    /// once more in the returned unbound fleet aggregate — which is what
    /// callers quote for percentiles, since per-shard gauge banks only
    /// see their own shard's latencies.
    pub fn pingmesh_report(&mut self, pairs: &[(ServerId, ServerId)]) -> Pingmesh {
        use rocescale_monitor::pingmesh::ProbeResult;
        let mut shard_banks: Vec<Pingmesh> = self
            .hubs
            .iter()
            .map(|h| Pingmesh::with_hub(h.clone()))
            .collect();
        let mut fleet = Pingmesh::new();
        for (a, b) in pairs {
            let scope = self.scope_of(*a, *b);
            let info = &self.servers[a.0];
            let (shard, sim) = (info.shard, info.sim);
            let samples = std::mem::take(
                &mut self
                    .sharded
                    .world_mut(shard as usize)
                    .node_mut::<RdmaHost>(sim)
                    .stats
                    .rtt_samples_ps,
            );
            for s in samples {
                shard_banks[shard as usize].record(scope, ProbeResult::Rtt(s));
                fleet.record(scope, ProbeResult::Rtt(s));
            }
        }
        fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterBuilder, ExecutionProfile};
    use rocescale_sim::SimTime;

    fn two_pods(seed: u64) -> ClusterBuilder {
        ClusterBuilder::new(ClosSpec::uniform_40g(2, 1, 2, 2, 2)).seed(seed)
    }

    fn saturate() -> QpApp {
        QpApp::Saturate {
            msg_len: 128 * 1024,
            inflight: 1,
        }
    }

    #[test]
    fn sharded_cluster_carries_cross_pod_traffic() {
        let mut c = two_pods(3)
            .execution(ExecutionProfile::Sharded { shards: 2 })
            .build_sharded();
        assert_eq!(c.shard_count(), 2);
        let ids = c.all_servers();
        let a = *ids.iter().find(|s| c.server_pod(**s) == 0).unwrap();
        let b = *ids.iter().find(|s| c.server_pod(**s) == 1).unwrap();
        assert_ne!(c.server_shard(a), c.server_shard(b));
        c.connect_qp(a, b, 6000, saturate(), QpApp::None);
        c.run_for_millis(2);
        assert!(
            c.total_rdma_goodput() >= 128 * 1024,
            "cross-pod flow must complete through the exchange: {}",
            c.total_rdma_goodput()
        );
        assert!(
            c.exchange_epochs() > 0,
            "multi-shard runs advance in epochs"
        );
        assert!(c.boundary_messages() > 0, "the flow crosses the boundary");
        assert_eq!(c.lossless_drops(), 0);
        assert!(c.lookahead().unwrap() > SimTime::ZERO);
    }

    #[test]
    fn single_pod_collapses_to_the_plain_cluster() {
        // two_tier topologies have one pod, so any shard request
        // collapses to one shard — and the event stream (digest, event
        // count) is byte-identical to `build()`'s. This is the guarantee
        // that re-pins the golden trace under `Sharded { shards: N }`.
        let drive = |mut c: crate::Cluster| {
            let ids = c.all_servers();
            c.connect_qp(ids[1], ids[0], 5000, saturate(), QpApp::None);
            c.run_for_millis(1);
            (c.world.dispatch_digest(), c.world.events_processed())
        };
        let single = drive(ClusterBuilder::two_tier(2, 3).seed(9).build());

        let mut s = ClusterBuilder::two_tier(2, 3)
            .seed(9)
            .execution(ExecutionProfile::Sharded { shards: 4 })
            .build_sharded();
        assert_eq!(s.shard_count(), 1);
        let ids = s.all_servers();
        s.connect_qp(ids[1], ids[0], 5000, saturate(), QpApp::None);
        s.run_for_millis(1);
        assert_eq!(s.exchange_epochs(), 0, "one shard never runs epochs");
        assert_eq!((s.dispatch_digest(), s.events_processed()), single);
    }

    #[test]
    fn serial_and_threaded_epochs_agree_with_merged_counters() {
        let run = |threaded: bool| {
            let mut c = two_pods(7)
                .telemetry(MetricsHub::enabled())
                .execution(ExecutionProfile::Sharded { shards: 2 })
                .build_sharded();
            c.set_threaded(threaded);
            let ids = c.all_servers();
            let a = *ids.iter().find(|s| c.server_pod(**s) == 0).unwrap();
            let b = *ids.iter().find(|s| c.server_pod(**s) == 1).unwrap();
            c.connect_qp(a, b, 6000, saturate(), QpApp::None);
            c.run_until(SimTime::from_micros(800));
            (
                c.dispatch_digest(),
                c.events_processed(),
                c.exchange_epochs(),
                c.boundary_messages(),
                c.counters_snapshot(),
            )
        };
        assert_eq!(run(false), run(true));
    }
}
