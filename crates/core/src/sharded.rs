//! Sharded cluster execution: per-pod worker shards behind the
//! conservative exchange.
//!
//! [`ShardedCluster`] is [`Cluster`] over a [`ShardedWorld`]: the same
//! devices, built by the same [`ClusterBuilder`](crate::ClusterBuilder)
//! factory and driven by the same methods, but distributed across
//! per-pod [`World`]s that the exchange advances in lookahead epochs.
//! This module holds only what exists for shards alone: the partition,
//! per-shard worlds, hubs and wall clocks, the exchange bookkeeping, the
//! threading and pacing knobs, and the merged fleet snapshots. Three
//! determinism guarantees anchor it (pinned by
//! `tests/shard_determinism.rs`):
//!
//! 1. One effective shard (a `SingleThread` profile, `shards: 1`, or a
//!    single-pod topology the partition collapses) dispatches the
//!    byte-identical event stream — and golden digest — of a
//!    single-world [`Cluster`].
//! 2. With N ≥ 2 shards, serial and threaded epoch execution agree
//!    byte-for-byte: same digest, same event counts, same merged
//!    counter snapshot.
//! 3. The digest folds per-shard digests in fixed shard order, so a
//!    sharded run is replayable and pinnable like any other.
//!
//! Every observation feature runs *bank-per-shard*: each shard's
//! devices register counters, gauges, time series and trace streams on
//! their own [`MetricsHub`];
//! [`counters_snapshot`](Cluster::counters_snapshot) merges the banks
//! by name (summing duplicates) into one deterministic fleet view, and a
//! configured trace sink receives every shard's records merged in
//! `(time, shard, emission)` order with a `shard` tag per line. The live
//! deadlock probe reads the barrier-merged pause/occupancy view across
//! all shard worlds at each sampling epoch, and the Pingmesh report
//! mirrors each prober's RTTs into its owning shard's bank. Serial and
//! threaded execution produce byte-identical exports: within an epoch
//! each world writes only to its own bank, and the merge order is a pure
//! function of the records.

use std::collections::BTreeMap;

use rocescale_monitor::MetricsHub;
use rocescale_sim::{EpochPacing, ShardStats, ShardedWorld, SimTime, World};
use rocescale_topology::Partition;

use crate::cluster::{Cluster, ServerId};

/// A cluster whose devices run in per-pod worlds behind the conservative
/// exchange; built by [`ClusterBuilder::build_sharded`](crate::ClusterBuilder::build_sharded).
pub type ShardedCluster = Cluster<ShardedWorld>;

impl Cluster<ShardedWorld> {
    /// The pod-granular partition plan in force.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of worker shards (1 for a single-pod topology).
    pub fn shard_count(&self) -> usize {
        self.world.shard_count()
    }

    /// Borrow shard `s`'s world (for per-shard engine stats).
    pub fn world(&self, s: usize) -> &World {
        self.world.world(s)
    }

    /// Mutably borrow shard `s`'s world.
    pub fn world_mut(&mut self, s: usize) -> &mut World {
        self.world.world_mut(s)
    }

    /// Run epochs serially even with multiple shards (differential
    /// testing: results are byte-identical either way).
    pub fn set_threaded(&mut self, threaded: bool) {
        self.world.set_threaded(threaded);
    }

    /// Choose dense grid pacing or adaptive epoch skipping (the
    /// default). A differential knob like `set_threaded`: both modes
    /// dispatch byte-identical event streams.
    pub fn set_pacing(&mut self, pacing: EpochPacing) {
        self.world.set_pacing(pacing);
    }

    /// The active pacing mode.
    pub fn pacing(&self) -> EpochPacing {
        self.world.pacing()
    }

    /// The shard that owns a server.
    pub fn server_shard(&self, id: ServerId) -> u32 {
        self.servers[id.0].shard
    }

    // ---- determinism & progress ----

    /// Global dispatch digest: per-shard digests folded in shard order.
    pub fn dispatch_digest(&self) -> u64 {
        self.world.dispatch_digest()
    }

    /// Total events dispatched across all shards.
    pub fn events_processed(&self) -> u64 {
        self.world.events_processed()
    }

    /// Exchange epochs executed (0 until the first multi-shard run).
    pub fn exchange_epochs(&self) -> u64 {
        self.world.epochs()
    }

    /// Grid windows adaptive pacing proved idle and jumped over (0 under
    /// dense pacing or one shard).
    pub fn epochs_skipped(&self) -> u64 {
        self.world.epochs_skipped()
    }

    /// Executed/skipped/boundary counters in one snapshot.
    pub fn shard_stats(&self) -> ShardStats {
        self.world.stats()
    }

    /// Boundary messages carried across shards so far.
    pub fn boundary_messages(&self) -> u64 {
        self.world.boundary_messages()
    }

    /// Per-shard wall-clock spent inside `World::run_until`, in
    /// nanoseconds (index = shard).
    pub fn shard_wall_nanos(&self) -> &[u64] {
        self.world.shard_wall_nanos()
    }

    /// The conservative lookahead (min cross-shard propagation delay);
    /// `None` with one shard.
    pub fn lookahead(&self) -> Option<SimTime> {
        self.world.lookahead()
    }

    // ---- per-shard telemetry ----

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterBuilder, ExecutionProfile, InstrumentationProfile};
    use rocescale_nic::QpApp;
    use rocescale_topology::ClosSpec;

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
                .instrumentation(
                    InstrumentationProfile::paper_default().telemetry(MetricsHub::enabled()),
                )
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
