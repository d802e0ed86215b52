//! Cluster construction and operation: topology → simulated fabric.
//!
//! [`Cluster`] is generic over its [`Engine`]: one [`World`] (the
//! default) or a [`ShardedWorld`] of per-pod worlds. Everything both
//! flavours do has one definition here; the shard-only accessors live
//! in [`crate::sharded`].

use std::collections::BTreeMap;

use rocescale_cc::CcParams;
use rocescale_dcqcn::CpParams;
use rocescale_monitor::deadlock::Snapshot;
use rocescale_monitor::pingmesh::ProbeResult;
use rocescale_monitor::{
    GaugeId, MemorySink, MetricsHub, OwnedRecord, Pingmesh, QueueSample, ScopeId, StreamRecord,
    TelemetryConfig, TraceSink,
};
use rocescale_nic::{
    host::{TOK_INJECT_STORM, TOK_STOP_STORM},
    HostPfcMode, NicConfig, QpApp, QpHandle, RdmaHost,
};
use rocescale_packet::{MacAddr, Priority};
use rocescale_sim::{
    EngineKind, LinkSpec, Node, NodeId, PortId, RemotePort, ShardedWorld, SimTime, World,
};
use rocescale_switch::{
    AdminAction, BufferConfig, ClassifyMode, DropReason, EcmpGroup, PortRole, Switch, SwitchConfig,
    WatchdogConfig,
};
use rocescale_tcp::{ConnHandle, TcpApp, TcpHost, TcpHostConfig};
use rocescale_topology::{ClosSpec, Incident, Partition, RouteSpec, Tier, Topology};
use rocescale_transport::QpConfig;

use crate::detect::{DeadlockProbe, ProbeLink};
use crate::instrument::InstrumentationProfile;
use crate::profiles::{
    ExecutionProfile, FabricProfile, FaultProfile, ScriptAction, TransportProfile,
};
use crate::sharded::ShardedCluster;

/// Per-shard world-seed stride: shard `s` seeds its world with
/// `seed + s * STRIDE`, so shard 0 keeps the builder's seed (and thus
/// the single-shard event stream) while other shards draw independent
/// streams.
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Park an admin action in a switch and schedule the timer that fires it
/// — the build-time translation of one scripted incident step.
fn sched_admin(world: &mut World, at: SimTime, sim: NodeId, action: AdminAction) {
    let token = world.node_mut::<Switch>(sim).schedule_admin(action);
    world.schedule_timer(at, sim, token);
}

/// PFC flavour for the whole cluster (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfcMode {
    /// DSCP-based PFC: the paper's design. Layer-3 clean, access-mode
    /// server ports.
    Dscp,
    /// VLAN-based PFC: the original design whose trunk-mode coupling
    /// breaks PXE boot.
    Vlan,
}

/// What runs on a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// RoCEv2 host.
    Rdma,
    /// Kernel-TCP host (the baseline / legacy apps).
    Tcp,
}

/// Index into the cluster's server list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServerId(pub usize);

/// Builder for a [`Cluster`].
///
/// Configuration is grouped into five profiles — [`FabricProfile`]
/// (switches), [`TransportProfile`] (NICs), [`FaultProfile`] (injected
/// failures), [`InstrumentationProfile`] (observation: telemetry hub,
/// digest, profiler, trace sink), [`ExecutionProfile`] (single-threaded
/// or pod-sharded dispatch) — each defaulting to the paper's deployed
/// settings. The builder itself keeps only run mechanics (seed, engine
/// backend) and per-node escape hatches.
pub struct ClusterBuilder {
    spec: ClosSpec,
    fabric: FabricProfile,
    transport: TransportProfile,
    faults: FaultProfile,
    instr: InstrumentationProfile,
    execution: ExecutionProfile,
    seed: u64,
    engine: EngineKind,
    server_kind: Box<dyn FnMut(usize) -> ServerKind + Send>,
    host_tweak: HostTweak,
    tcp_tweak: TcpTweak,
    switch_tweak: SwitchTweak,
}

/// Per-server hook mutating a NIC config before the host is built.
///
/// Hooks are `Send` (like the builder itself) so the fleet runner can
/// construct whole clusters inside worker threads.
type HostTweak = Box<dyn FnMut(usize, &mut NicConfig) + Send>;
/// Per-server hook mutating a TCP host config before the host is built.
type TcpTweak = Box<dyn FnMut(usize, &mut TcpHostConfig) + Send>;
/// Per-switch hook (keyed by name) mutating a switch config.
type SwitchTweak = Box<dyn FnMut(&str, &mut SwitchConfig) + Send>;

impl ClusterBuilder {
    /// A cluster over an arbitrary Clos spec, with the paper's
    /// recommended configuration: DSCP-based PFC, go-back-N, DCQCN + ECN,
    /// watchdogs on, deadlock fix on, PFC up to the spine.
    pub fn new(spec: ClosSpec) -> ClusterBuilder {
        ClusterBuilder {
            spec,
            fabric: FabricProfile::paper_default(),
            transport: TransportProfile::paper_default(),
            faults: FaultProfile::paper_default(),
            instr: InstrumentationProfile::paper_default(),
            execution: ExecutionProfile::paper_default(),
            seed: 1,
            engine: EngineKind::default(),
            server_kind: Box::new(|_| ServerKind::Rdma),
            host_tweak: Box::new(|_, _| {}),
            tcp_tweak: Box::new(|_, _| {}),
            switch_tweak: Box::new(|_, _| {}),
        }
    }

    /// One pod, `tors` racks of `servers_per_tor`, two leaves (a small
    /// two-tier testbed like Figure 8's).
    pub fn two_tier(tors: u32, servers_per_tor: u32) -> ClusterBuilder {
        ClusterBuilder::new(ClosSpec::uniform_40g(1, tors, 2, 2, servers_per_tor))
    }

    /// One ToR with `servers` hosts (a lab rack).
    pub fn single_tor(servers: u32) -> ClusterBuilder {
        ClusterBuilder::new(ClosSpec::uniform_40g(1, 1, 1, 1, servers))
    }

    /// Replace the switch-side configuration profile.
    pub fn fabric(mut self, f: FabricProfile) -> Self {
        self.fabric = f;
        self
    }

    /// Replace the NIC-side transport profile.
    pub fn transport(mut self, t: TransportProfile) -> Self {
        self.transport = t;
        self
    }

    /// Replace the fault-injection profile.
    pub fn faults(mut self, f: FaultProfile) -> Self {
        self.faults = f;
        self
    }

    /// Replace the observation profile: telemetry hub, dispatch digest,
    /// dispatch profiler, and streaming trace sink, as one coherent
    /// group. With an enabled hub every switch, NIC and TCP host
    /// registers its instruments on it, and [`Cluster::run_until`]
    /// drives sim-time-aligned sampling; the default (disabled) hub
    /// costs nothing and leaves the dispatch digest untouched.
    pub fn instrumentation(mut self, i: InstrumentationProfile) -> Self {
        self.instr = i;
        self
    }

    /// Replace the execution profile: single-threaded (the default) or
    /// pod-granular shards. [`build`](Self::build) always produces a
    /// single-world [`Cluster`] regardless; the profile takes effect
    /// through [`build_sharded`](Self::build_sharded), which honours the
    /// requested shard count (clamped to the topology's pod count).
    pub fn execution(mut self, e: ExecutionProfile) -> Self {
        self.execution = e;
        self
    }

    /// RNG seed (every run with the same seed is identical).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Event-engine backend. Dispatch order — and thus every result — is
    /// identical across engines; this knob exists for differential tests
    /// and wheel-vs-heap benchmarks.
    pub fn engine(mut self, e: EngineKind) -> Self {
        self.engine = e;
        self
    }

    /// Choose per-server kind (index = server order in the topology).
    pub fn server_kind(mut self, f: impl FnMut(usize) -> ServerKind + Send + 'static) -> Self {
        self.server_kind = Box::new(f);
        self
    }

    /// Post-process each RDMA host's config (MTT models, custom DCQCN…).
    pub fn host_tweak(mut self, f: impl FnMut(usize, &mut NicConfig) + Send + 'static) -> Self {
        self.host_tweak = Box::new(f);
        self
    }

    /// Post-process each TCP host's config (kernel model, RTO…).
    pub fn tcp_tweak(mut self, f: impl FnMut(usize, &mut TcpHostConfig) + Send + 'static) -> Self {
        self.tcp_tweak = Box::new(f);
        self
    }

    /// Post-process each switch's config by name (headroom overrides,
    /// per-type buffer settings — the §6.2 "new switch type" situation).
    pub fn switch_tweak(mut self, f: impl FnMut(&str, &mut SwitchConfig) + Send + 'static) -> Self {
        self.switch_tweak = Box::new(f);
        self
    }

    /// Instantiate the cluster (one world, one thread — the golden-trace
    /// path, whatever the execution profile says).
    pub fn build(mut self) -> Cluster {
        Cluster::from_parts(self.build_parts(1))
    }

    /// Instantiate the cluster as per-pod worker shards advanced through
    /// the conservative exchange (see [`ShardedCluster`]). The
    /// [`ExecutionProfile`] chooses the shard count; `SingleThread` (or a
    /// single-pod topology, which the partition collapses) yields one
    /// shard whose event stream — and dispatch digest — is byte-identical
    /// to [`build`](Self::build)'s.
    pub fn build_sharded(mut self) -> ShardedCluster {
        let shards = self.execution.shard_count();
        Cluster::from_parts(self.build_parts(shards))
    }

    /// Everything `build` and `build_sharded` share: instantiate every
    /// device into its shard's world (the pod-granular [`Partition`]
    /// decides ownership), wire local links directly and boundary links
    /// as mirrored remote ports, and translate the fault profile into
    /// timers on the owning shards. With one effective shard this is
    /// exactly the single-world construction.
    fn build_parts(&mut self, shards: u32) -> BuiltParts {
        // A trace sink needs a live hub to stream through; upgrade a
        // disabled hub before any device registers instruments, then
        // attach the sink so records flow from the first event on.
        if self.instr.sink.is_some() && !self.instr.telemetry.is_enabled() {
            self.instr.telemetry = MetricsHub::enabled();
        }
        let topo = Topology::clos(&self.spec);
        let partition = Partition::pods(&topo, shards);
        let nshards = partition.shards() as usize;
        // With one effective shard the caller's sink attaches directly to
        // the hub (record bytes carry no shard tag). With several, each
        // shard's hub streams into its own MemorySink bank and the
        // caller's sink becomes the merge target: the cluster drains the
        // banks in deterministic order at every flush boundary and stamps
        // each record with its shard.
        let mut deferred_sink = None;
        if let Some((sink, filter)) = self.instr.sink.take() {
            if nshards == 1 {
                self.instr.telemetry.attach_sink(sink, filter);
            } else {
                deferred_sink = Some((sink, filter));
            }
        }
        // Shard-local telemetry banks: shard 0 keeps the builder's hub
        // (so the single-shard path is unchanged and callers hold a live
        // handle), every other shard gets its own bank with the same
        // enablement and sampling cadence. Sharded snapshots merge them by
        // name.
        let hubs: Vec<MetricsHub> = (0..nshards)
            .map(|s| {
                if s == 0 {
                    self.instr.telemetry.clone()
                } else if self.instr.telemetry.is_enabled() {
                    MetricsHub::with_config(TelemetryConfig {
                        sample_every_ps: self
                            .instr
                            .telemetry
                            .sample_every_ps()
                            .unwrap_or_else(|| TelemetryConfig::default().sample_every_ps),
                        ..TelemetryConfig::default()
                    })
                } else {
                    MetricsHub::disabled()
                }
            })
            .collect();
        let banks: Vec<MemorySink> = if let Some((_, filter)) = &deferred_sink {
            hubs.iter()
                .map(|h| {
                    let bank = MemorySink::new();
                    h.attach_sink(Box::new(bank.clone()), *filter);
                    bank
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut worlds: Vec<World> = (0..nshards as u64)
            .map(|s| {
                let mut w = World::new_with_engine(
                    self.seed.wrapping_add(s.wrapping_mul(SHARD_SEED_STRIDE)),
                    self.engine,
                );
                w.set_digest_mode(self.instr.digest);
                w.set_profile_mode(self.instr.profile);
                w
            })
            .collect();
        let n = topo.nodes.len();

        // MAC conventions: switches get 0x00F0_0000 + idx, servers idx+1.
        let switch_mac = |idx: usize| MacAddr::from_id(0x00F0_0000 + idx as u32);
        let server_mac = |idx: usize| MacAddr::from_id(idx as u32 + 1);

        // Peer role/mac per link endpoint for switch construction.
        let classify = match self.fabric.pfc_mode {
            PfcMode::Dscp => ClassifyMode::Dscp,
            PfcMode::Vlan => ClassifyMode::Vlan,
        };
        let pfc_enabled = self.fabric.pfc_enabled;
        let stage = self.fabric.stage;
        let lossless_for = |tier: Tier| -> [bool; 8] {
            let on = pfc_enabled
                && match tier {
                    Tier::Tor => stage.tor(),
                    Tier::Leaf => stage.leaf(),
                    Tier::Spine => stage.spine(),
                    Tier::Server => true,
                };
            if on {
                [false, false, false, true, true, false, false, false]
            } else {
                [false; 8]
            }
        };

        // Each node's (shard, shard-local sim id) once instantiated, and
        // each switch node's index into `switches`.
        let mut sim_ids: Vec<Option<(u32, NodeId)>> = vec![None; n];
        let mut switch_of: Vec<Option<usize>> = vec![None; n];
        let mut servers: Vec<ServerInfo> = Vec::new();
        let mut switches: Vec<SwitchInfo> = Vec::new();

        // Server build order (the index space FaultProfile uses).
        let mut order_of: Vec<Option<usize>> = vec![None; n];
        let mut next_order = 0usize;
        for (idx, node) in topo.nodes.iter().enumerate() {
            if node.tier == Tier::Server {
                order_of[idx] = Some(next_order);
                next_order += 1;
            }
        }

        // Build switches first (they need routes + table seeds).
        for (idx, node) in topo.nodes.iter().enumerate() {
            if node.tier == Tier::Server {
                continue;
            }
            let ports = topo.port_count(idx);
            let mut cfg = SwitchConfig::new(node.name.clone(), ports);
            cfg.classify = classify;
            cfg.lossless = lossless_for(node.tier);
            // Port roles from the topology.
            let mut roles = vec![PortRole::Fabric; ports as usize];
            let mut max_meters = 2u32;
            for &Incident { port, peer, meters } in topo.incident(idx) {
                max_meters = max_meters.max(meters);
                if topo.nodes[peer].tier == Tier::Server {
                    roles[port.index()] = PortRole::Server;
                }
            }
            cfg.port_roles = roles;
            cfg.buffer = BufferConfig {
                total_bytes: 12 << 20,
                headroom_per_port_pg: BufferConfig::headroom_for(40_000_000_000, max_meters, 1120),
                alpha: self.fabric.alpha,
                xoff_static: 256 * 1024,
                xon_delta: 2 * 1120,
            };
            cfg.ecn = if self.fabric.ecn {
                let mut e: [Option<CpParams>; 8] = Default::default();
                e[3] = Some(CpParams::default());
                e[4] = Some(CpParams::default());
                e
            } else {
                Default::default()
            };
            cfg.watchdog = WatchdogConfig {
                enabled: self.fabric.switch_watchdog,
                ..WatchdogConfig::default()
            };
            cfg.drop_lossless_on_incomplete_arp = self.fabric.drop_lossless_on_incomplete_arp;
            cfg.drop_ip_id_low_byte = self.faults.drop_ip_id_low_byte;
            cfg.per_packet_spraying = self.fabric.per_packet_spraying;
            let shard = partition.shard_of(idx);
            cfg.telemetry = hubs[shard as usize].clone();
            (self.switch_tweak)(&node.name.clone(), &mut cfg);

            let mut sw = Switch::new(cfg, switch_mac(idx), idx as u64 * 0x9e37 + 7);
            for r in &topo.routes[idx] {
                match r {
                    RouteSpec::Connected { prefix, len } => {
                        sw.routes_mut().add_connected(*prefix, *len);
                    }
                    RouteSpec::Via { prefix, len, ports } => {
                        sw.routes_mut()
                            .add(*prefix, *len, EcmpGroup::new(ports.clone()));
                    }
                }
            }
            // Seed ARP + MAC for directly attached servers; peer MACs for
            // fabric links.
            for &Incident { port, peer, .. } in topo.incident(idx) {
                match topo.nodes[peer].tier {
                    Tier::Server => {
                        let ip = topo.nodes[peer].ip.expect("servers have IPs");
                        sw.seed_arp(ip, server_mac(peer), SimTime::ZERO);
                        // Dead-but-remembered servers (§4.2): the ARP
                        // entry survives but the MAC→port binding is
                        // gone, so lossless traffic to them hits the
                        // incomplete-ARP path.
                        let dead =
                            order_of[peer].is_some_and(|o| self.faults.dead_servers.contains(&o));
                        if !dead {
                            sw.seed_mac(server_mac(peer), port, SimTime::ZERO);
                        }
                    }
                    _ => sw.set_peer_mac(port, switch_mac(peer)),
                }
            }
            let sim = worlds[shard as usize].add_node(Box::new(sw));
            sim_ids[idx] = Some((shard, sim));
            switch_of[idx] = Some(switches.len());
            switches.push(SwitchInfo {
                topo_idx: idx,
                shard,
                sim,
                tier: node.tier,
                name: node.name.clone(),
            });
        }

        // Hosts.
        for (idx, node) in topo.nodes.iter().enumerate() {
            if node.tier != Tier::Server {
                continue;
            }
            let tor_idx = topo.tor_of_server(idx);
            let gateway = switch_mac(tor_idx);
            let ip = node.ip.expect("servers have IPs");
            let order = servers.len();
            let kind = (self.server_kind)(order);
            let shard = partition.shard_of(idx);
            let sim = match kind {
                ServerKind::Rdma => {
                    let mut cfg = NicConfig::new(node.name.clone(), idx as u32 + 1, ip, gateway);
                    cfg.pfc_mode = match self.fabric.pfc_mode {
                        PfcMode::Dscp => HostPfcMode::Dscp,
                        PfcMode::Vlan => HostPfcMode::Vlan { vid: 100 },
                    };
                    cfg.qp_defaults = QpConfig {
                        recovery: self.transport.recovery,
                        rto_ps: self.transport.qp_rto.as_ps(),
                        ..QpConfig::default()
                    };
                    // Sender-role congestion control, with parameters
                    // derived from the host's line rate (for DCQCN this
                    // reproduces the NicConfig default exactly).
                    cfg.cc = CcParams::for_line_rate(self.transport.cc, cfg.link_bps);
                    cfg.nic_watchdog_after = self.transport.nic_watchdog;
                    cfg.telemetry = hubs[shard as usize].clone();
                    (self.host_tweak)(order, &mut cfg);
                    worlds[shard as usize].add_node(Box::new(RdmaHost::new(cfg)))
                }
                ServerKind::Tcp => {
                    let mut cfg =
                        TcpHostConfig::new(node.name.clone(), idx as u32 + 1, ip, gateway);
                    cfg.conn.min_rto_ps = self.transport.tcp_min_rto.as_ps();
                    cfg.telemetry = hubs[shard as usize].clone();
                    (self.tcp_tweak)(order, &mut cfg);
                    worlds[shard as usize].add_node(Box::new(TcpHost::new(cfg)))
                }
            };
            sim_ids[idx] = Some((shard, sim));
            servers.push(ServerInfo {
                topo_idx: idx,
                shard,
                sim,
                kind,
                ip,
                pod: node.pod,
                tor: switch_of[tor_idx].expect("a server's ToR is a switch"),
            });
        }

        // Links: shard-local ones wire directly; boundary links become a
        // mirrored pair of remote ports whose packets travel through the
        // shard exchange (the partition guarantees only ToR/leaf↔spine
        // links ever cross, so the exchange lookahead is the spine-cable
        // propagation delay).
        for l in topo.links() {
            let (sa, a) = sim_ids[l.a.0].expect("all nodes instantiated");
            let (sb, b) = sim_ids[l.b.0].expect("all nodes instantiated");
            let spec = LinkSpec::with_length(l.rate_bps, l.meters);
            if sa == sb {
                worlds[sa as usize].connect(a, l.a.1, b, l.b.1, spec);
            } else {
                worlds[sa as usize].connect_remote(
                    a,
                    l.a.1,
                    spec,
                    RemotePort {
                        shard: sb,
                        node: b,
                        port: l.b.1,
                    },
                );
                worlds[sb as usize].connect_remote(
                    b,
                    l.b.1,
                    spec,
                    RemotePort {
                        shard: sa,
                        node: a,
                        port: l.a.1,
                    },
                );
            }
        }

        // Injected NIC pause storms (FaultProfile).
        for (idx, at) in &self.faults.storms {
            let s = servers
                .get(*idx)
                .unwrap_or_else(|| panic!("storm target {idx} out of range"));
            worlds[s.shard as usize].schedule_timer(*at, s.sim, TOK_INJECT_STORM);
        }

        // Incident-replay script (FaultProfile::at): every action becomes
        // either a NIC storm timer or a switch admin action fired by an
        // ordinary Timer event, so scripted runs stay deterministic and
        // digest-pinnable — and an empty script changes nothing.
        {
            let find_switch = |name: &str| -> &SwitchInfo {
                switches
                    .iter()
                    .find(|s| s.name == name)
                    .unwrap_or_else(|| panic!("script names unknown switch {name:?}"))
            };
            // A server's ToR-side attachment: (ToR shard, ToR sim node,
            // ToR port facing the server, server topo index).
            let tor_attach = |server: usize| -> (u32, NodeId, PortId, usize) {
                let info = servers
                    .get(server)
                    .unwrap_or_else(|| panic!("script server {server} out of range"));
                let tor = &switches[info.tor];
                let port = topo
                    .port_toward(tor.topo_idx, info.topo_idx)
                    .expect("server has a ToR link");
                (tor.shard, tor.sim, port, info.topo_idx)
            };
            let script = std::mem::take(&mut self.faults.script);
            for (at, action) in &script {
                match action {
                    ScriptAction::ServerLink { server, up } => {
                        let (shard, tor, port, _) = tor_attach(*server);
                        sched_admin(
                            &mut worlds[shard as usize],
                            *at,
                            tor,
                            AdminAction::LinkSet { port, up: *up },
                        );
                    }
                    ScriptAction::FabricLink { a, b, up } => {
                        let (sa, sb) = (find_switch(a), find_switch(b));
                        let port = topo
                            .port_toward(sa.topo_idx, sb.topo_idx)
                            .unwrap_or_else(|| panic!("no fabric link {a:?} <-> {b:?}"));
                        sched_admin(
                            &mut worlds[sa.shard as usize],
                            *at,
                            sa.sim,
                            AdminAction::LinkSet { port, up: *up },
                        );
                    }
                    ScriptAction::StormStart { server } => {
                        let s = servers
                            .get(*server)
                            .unwrap_or_else(|| panic!("script server {server} out of range"));
                        worlds[s.shard as usize].schedule_timer(*at, s.sim, TOK_INJECT_STORM);
                    }
                    ScriptAction::StormStop { server } => {
                        let s = servers
                            .get(*server)
                            .unwrap_or_else(|| panic!("script server {server} out of range"));
                        worlds[s.shard as usize].schedule_timer(*at, s.sim, TOK_STOP_STORM);
                    }
                    ScriptAction::ServerDeath { server } => {
                        // A dead server is *silent*: its link goes down
                        // (no frames to re-learn the MAC from) and its
                        // MAC entry is evicted — while the ARP entry
                        // survives, the §4.2 "dead but remembered" state.
                        let (shard, tor, port, srv_t) = tor_attach(*server);
                        let world = &mut worlds[shard as usize];
                        sched_admin(world, *at, tor, AdminAction::LinkSet { port, up: false });
                        sched_admin(
                            world,
                            *at,
                            tor,
                            AdminAction::EvictMac {
                                mac: server_mac(srv_t),
                            },
                        );
                    }
                    ScriptAction::ServerResurrect { server } => {
                        let (shard, tor, port, srv_t) = tor_attach(*server);
                        let world = &mut worlds[shard as usize];
                        sched_admin(world, *at, tor, AdminAction::LinkSet { port, up: true });
                        sched_admin(
                            world,
                            *at,
                            tor,
                            AdminAction::SeedMac {
                                mac: server_mac(srv_t),
                                port,
                            },
                        );
                    }
                    ScriptAction::PfcThreshold {
                        switch,
                        alpha,
                        xoff_static,
                    } => {
                        let sw = find_switch(switch);
                        sched_admin(
                            &mut worlds[sw.shard as usize],
                            *at,
                            sw.sim,
                            AdminAction::SetThresholds {
                                alpha: *alpha,
                                xoff_static: *xoff_static,
                            },
                        );
                    }
                    ScriptAction::SetLossless { switch, prio, on } => {
                        let sw = find_switch(switch);
                        sched_admin(
                            &mut worlds[sw.shard as usize],
                            *at,
                            sw.sim,
                            AdminAction::SetLossless {
                                prio: *prio,
                                on: *on,
                            },
                        );
                    }
                    ScriptAction::Reroute {
                        switch,
                        prefix,
                        len,
                        ports,
                    } => {
                        let sw = find_switch(switch);
                        sched_admin(
                            &mut worlds[sw.shard as usize],
                            *at,
                            sw.sim,
                            AdminAction::Reroute {
                                prefix: *prefix,
                                len: *len,
                                ports: ports.iter().map(|p| PortId(*p)).collect(),
                            },
                        );
                    }
                }
            }
        }

        BuiltParts {
            spec: self.spec,
            worlds,
            partition,
            probe: probe_wiring(&topo, &switches, &switch_of),
            topo,
            subnets: SubnetIndex::new(&servers),
            servers,
            switches,
            hubs,
            banks,
            sink: deferred_sink.map(|(sink, _)| sink),
        }
    }
}

/// The deadlock probe's wiring over a built fabric: every switch keyed by
/// (name, shard, sim id), and every switch egress that faces another
/// device (fabric links both directions, plus switch→server ports so
/// storm victims show up as wait-chain leaves). `switch_of` maps a
/// topology node to its index in `switches`.
fn probe_wiring(
    topo: &Topology,
    switches: &[SwitchInfo],
    switch_of: &[Option<usize>],
) -> ProbeWiring {
    let probe_switches: Vec<(String, u32, NodeId)> = switches
        .iter()
        .map(|s| (s.name.clone(), s.shard, s.sim))
        .collect();
    let mut probe_links = Vec::new();
    for l in topo.links() {
        for (me, peer) in [(l.a, l.b), (l.b, l.a)] {
            let Some(sw_idx) = switch_of[me.0] else {
                continue;
            };
            probe_links.push(ProbeLink {
                switch: sw_idx,
                port: me.1,
                peer: topo.nodes[peer.0].name.clone(),
            });
        }
    }
    (probe_switches, probe_links)
}

/// The deadlock probe's switches and monitored egresses.
type ProbeWiring = (Vec<(String, u32, NodeId)>, Vec<ProbeLink>);

/// What [`ClusterBuilder::build_parts`] hands back: every device
/// instantiated into its shard's world and fully wired, plus the index
/// structures the cluster needs.
struct BuiltParts {
    spec: ClosSpec,
    worlds: Vec<World>,
    partition: Partition,
    probe: ProbeWiring,
    topo: Topology,
    servers: Vec<ServerInfo>,
    subnets: SubnetIndex,
    switches: Vec<SwitchInfo>,
    hubs: Vec<MetricsHub>,
    /// Per-shard trace banks (parallel to `hubs`; empty when no sink was
    /// configured or one effective shard attached it directly).
    banks: Vec<MemorySink>,
    /// The caller's sink, deferred for the sharded merge (multi-shard
    /// builds with a sink configured; `None` otherwise).
    sink: Option<Box<dyn TraceSink>>,
}

/// One shard's observation bank: fleet-level gauge ids and trace scopes
/// registered on that shard's hub (sentinels when telemetry is
/// disabled), over the switches the shard owns.
struct ShardObs {
    engine_events: GaugeId,
    engine_pending: GaugeId,
    /// Indices (into the cluster's switch list) of the switches this
    /// shard owns, parallel to the two vectors below.
    switch_idx: Vec<usize>,
    switch_backlog: Vec<GaugeId>,
    /// Each switch's trace scope (`switch.{name}` — the same name its
    /// own `SwitchTele` registers, so streamed queue samples land under
    /// the same scope as the switch's hop records and events).
    switch_scopes: Vec<ScopeId>,
}

impl ShardObs {
    fn register(hub: &MetricsHub, shard: u32, switches: &[SwitchInfo]) -> ShardObs {
        let switch_idx: Vec<usize> = (0..switches.len())
            .filter(|&i| switches[i].shard == shard)
            .collect();
        ShardObs {
            engine_events: hub.gauge("engine.events_processed"),
            engine_pending: hub.gauge("engine.pending"),
            switch_backlog: switch_idx
                .iter()
                .map(|&i| {
                    hub.gauge(&format!(
                        "switch.{}.lossless_backlog_bytes",
                        switches[i].name
                    ))
                })
                .collect(),
            switch_scopes: switch_idx
                .iter()
                .map(|&i| hub.scope(&format!("switch.{}", switches[i].name)))
                .collect(),
            switch_idx,
        }
    }
}

/// Servers by the /24 their address falls in (`ip & 0xffff_ff00`), each
/// list in server order: what `servers_under` returns, built once.
struct SubnetIndex(BTreeMap<u32, Vec<ServerId>>);

impl SubnetIndex {
    fn new(servers: &[ServerInfo]) -> SubnetIndex {
        let mut map: BTreeMap<u32, Vec<ServerId>> = BTreeMap::new();
        for (i, s) in servers.iter().enumerate() {
            map.entry(s.ip & 0xffff_ff00).or_default().push(ServerId(i));
        }
        SubnetIndex(map)
    }

    /// The servers whose address lies in ToR `tor`'s /24 of pod `pod`.
    /// Above 254 servers per ToR addresses spill into the next /24, so a
    /// list can then be short or hold a neighbouring rack's servers.
    fn servers_under(&self, pod: u32, tor: u32) -> Vec<ServerId> {
        let subnet = rocescale_topology::tor_subnet(pod, tor);
        self.0.get(&subnet).cloned().unwrap_or_default()
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ServerInfo {
    topo_idx: usize,
    /// Owning shard (always 0 in a single-world [`Cluster`]).
    pub(crate) shard: u32,
    /// Shard-local sim node id.
    sim: NodeId,
    kind: ServerKind,
    ip: u32,
    pod: u32,
    /// The serving ToR's index into the cluster's switch list.
    tor: usize,
}

#[derive(Debug, Clone)]
struct SwitchInfo {
    topo_idx: usize,
    /// Owning shard (always 0 in a single-world [`Cluster`]).
    shard: u32,
    /// Shard-local sim node id.
    sim: NodeId,
    tier: Tier,
    name: String,
}

mod sealed {
    /// Closes [`Engine`](super::Engine) to the two engines below.
    pub trait Sealed {}
    impl Sealed for rocescale_sim::World {}
    impl Sealed for rocescale_sim::ShardedWorld {}
}

/// The event engine under a [`Cluster`]: one [`World`] (the default —
/// the golden-trace path) or a [`ShardedWorld`] of per-pod worlds
/// advanced through the conservative exchange. Every cluster method
/// reaches devices through [`worlds`](Engine::worlds) and its owning
/// shard index, so one method body serves both. Sealed: no other
/// engine exists.
pub trait Engine: sealed::Sealed {
    /// Take ownership of the built worlds, one per shard.
    fn from_worlds(worlds: Vec<World>) -> Self;
    /// Advance every world to `t`.
    fn run_until(&mut self, t: SimTime);
    /// Current simulated time (the common horizon of all shards).
    fn now(&self) -> SimTime;
    /// Every world, in shard order.
    fn worlds(&self) -> &[World];
    /// Mutably borrow shard `s`'s world.
    fn world_mut(&mut self, s: usize) -> &mut World;
}

impl Engine for World {
    fn from_worlds(mut worlds: Vec<World>) -> World {
        assert_eq!(worlds.len(), 1, "a single-world cluster has one shard");
        worlds.pop().expect("one world")
    }

    fn run_until(&mut self, t: SimTime) {
        World::run_until(self, t)
    }

    fn now(&self) -> SimTime {
        World::now(self)
    }

    fn worlds(&self) -> &[World] {
        std::slice::from_ref(self)
    }

    fn world_mut(&mut self, s: usize) -> &mut World {
        debug_assert_eq!(s, 0, "a single-world cluster has one shard");
        self
    }
}

impl Engine for ShardedWorld {
    fn from_worlds(worlds: Vec<World>) -> ShardedWorld {
        ShardedWorld::new(worlds)
    }

    fn run_until(&mut self, t: SimTime) {
        ShardedWorld::run_until(self, t)
    }

    fn now(&self) -> SimTime {
        ShardedWorld::now(self)
    }

    fn worlds(&self) -> &[World] {
        ShardedWorld::worlds(self)
    }

    fn world_mut(&mut self, s: usize) -> &mut World {
        ShardedWorld::world_mut(self, s)
    }
}

/// A running cluster: the simulation engine plus the index structures to
/// reach every device.
///
/// `Cluster` (that is, `Cluster<World>`) runs every device in one world;
/// [`ShardedCluster`] (`Cluster<ShardedWorld>`) spreads them over
/// per-pod worlds. The methods here serve both: each server and switch
/// records its owning shard, and observation runs in per-shard banks
/// (telemetry hub, fleet gauges, trace bank, Pingmesh mirror) that
/// reduce to the single-world behaviour with one shard.
pub struct Cluster<E: Engine = World> {
    /// The simulation engine (exposed for advanced scenarios: fault
    /// injection timers, custom nodes, engine statistics).
    pub world: E,
    topo: Topology,
    spec: ClosSpec,
    pub(crate) partition: Partition,
    pub(crate) servers: Vec<ServerInfo>,
    subnets: SubnetIndex,
    switches: Vec<SwitchInfo>,
    /// Per-shard telemetry banks; shard 0's is the builder's hub.
    pub(crate) hubs: Vec<MetricsHub>,
    /// Per-shard fleet gauges and queue scopes, parallel to `hubs`.
    obs: Vec<ShardObs>,
    deadlock: DeadlockProbe,
    /// Per-shard trace banks (parallel to `hubs`) and the caller's sink
    /// they merge into; both empty/none unless a sink was configured on
    /// a multi-shard build.
    banks: Vec<MemorySink>,
    sink: Option<Box<dyn TraceSink>>,
}

impl<E: Engine> Cluster<E> {
    fn from_parts(parts: BuiltParts) -> Cluster<E> {
        let BuiltParts {
            spec,
            worlds,
            partition,
            probe: (probe_switches, probe_links),
            topo,
            servers,
            subnets,
            switches,
            hubs,
            banks,
            sink,
        } = parts;
        // Live deadlock probe, then the fleet-level gauges published at
        // each sample tick (registration order is part of the hub's
        // observable layout, so it stays fixed).
        let deadlock = DeadlockProbe::new(
            &hubs[0],
            probe_switches,
            probe_links,
            vec![Priority::new(3), Priority::new(4)],
            3,
        );
        let obs = hubs
            .iter()
            .enumerate()
            .map(|(s, hub)| ShardObs::register(hub, s as u32, &switches))
            .collect();
        Cluster {
            world: E::from_worlds(worlds),
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

    /// Borrow device `sim` in shard `shard`'s world.
    fn node<T: Node>(&self, shard: u32, sim: NodeId) -> &T {
        self.world.worlds()[shard as usize].node(sim)
    }

    /// Mutably borrow device `sim` in shard `shard`'s world.
    fn node_mut<T: Node>(&mut self, shard: u32, sim: NodeId) -> &mut T {
        self.world.world_mut(shard as usize).node_mut(sim)
    }

    /// Borrow server `id`, which must be of `kind`.
    fn host<T: Node>(&self, id: ServerId, kind: ServerKind) -> &T {
        let s = &self.servers[id.0];
        assert_eq!(s.kind, kind);
        self.node(s.shard, s.sim)
    }

    /// Mutably borrow server `id`, which must be of `kind`.
    fn host_mut<T: Node>(&mut self, id: ServerId, kind: ServerKind) -> &mut T {
        let s = &self.servers[id.0];
        assert_eq!(s.kind, kind);
        let (shard, sim) = (s.shard, s.sim);
        self.node_mut(shard, sim)
    }

    /// The Clos spec this cluster was built from.
    pub fn spec(&self) -> &ClosSpec {
        &self.spec
    }

    /// The topology description.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

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

    /// A server's kind.
    pub fn server_kind_of(&self, id: ServerId) -> ServerKind {
        self.servers[id.0].kind
    }

    /// The sim node id of a server in its owning shard's world (for
    /// fault-injection timers).
    pub fn server_node(&self, id: ServerId) -> NodeId {
        self.servers[id.0].sim
    }

    /// Two servers share a ToR?
    pub fn same_tor(&self, a: ServerId, b: ServerId) -> bool {
        self.servers[a.0].tor == self.servers[b.0].tor
    }

    /// Borrow an RDMA server.
    pub fn rdma(&self, id: ServerId) -> &RdmaHost {
        self.host(id, ServerKind::Rdma)
    }

    /// Mutably borrow an RDMA server.
    pub fn rdma_mut(&mut self, id: ServerId) -> &mut RdmaHost {
        self.host_mut(id, ServerKind::Rdma)
    }

    /// Borrow a TCP server.
    pub fn tcp(&self, id: ServerId) -> &TcpHost {
        self.host(id, ServerKind::Tcp)
    }

    /// Mutably borrow a TCP server.
    pub fn tcp_mut(&mut self, id: ServerId) -> &mut TcpHost {
        self.host_mut(id, ServerKind::Tcp)
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Borrow switch `i` (iteration order: ToRs and leaves pod-major,
    /// then spines — the topology's order).
    pub fn switch(&self, i: usize) -> &Switch {
        let s = &self.switches[i];
        self.node(s.shard, s.sim)
    }

    /// Mutably borrow switch `i`.
    pub fn switch_mut(&mut self, i: usize) -> &mut Switch {
        let s = &self.switches[i];
        let (shard, sim) = (s.shard, s.sim);
        self.node_mut(shard, sim)
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

    /// The ToR switch index (into [`Cluster::switch`]) serving a server.
    pub fn tor_of(&self, id: ServerId) -> usize {
        self.servers[id.0].tor
    }

    // ---- workload wiring ----

    /// Create a QP pair between two RDMA servers. `udp_src` selects the
    /// ECMP path; both directions share it. The endpoints may live in
    /// different shards: their traffic then rides the exchange.
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

    /// Create a TCP connection between two TCP servers (in any shards).
    pub fn connect_tcp(
        &mut self,
        a: ServerId,
        b: ServerId,
        app_a: TcpApp,
        app_b: TcpApp,
    ) -> (ConnHandle, ConnHandle) {
        let a_ip = self.server_ip(a);
        let b_ip = self.server_ip(b);
        let pa = self.tcp_mut(a).alloc_port();
        let pb = self.tcp_mut(b).alloc_port();
        let ca = self.tcp_mut(a).add_conn(b_ip, pa, pb, app_a);
        let cb = self.tcp_mut(b).add_conn(a_ip, pb, pa, app_b);
        (ca, cb)
    }

    // ---- running ----

    /// Run the simulation until `t` (sharded: through
    /// conservative-lookahead epochs).
    ///
    /// With telemetry enabled the run is chunked at sample boundaries so
    /// time-series points land on the hub's cadence in every shard's
    /// bank: fleet gauges refresh, each switch streams one
    /// [`QueueSample`] into its shard's bank (with a queue-class sink
    /// attached), and the deadlock probe reads the barrier-merged
    /// pause/occupancy view of all shard worlds. Chunked `run_until`
    /// dispatches the exact same event sequence as one big call, so the
    /// dispatch digest is byte-identical with telemetry (and any sink)
    /// on or off, threaded or serial.
    pub fn run_until(&mut self, t: SimTime) {
        if self.hubs[0].is_enabled() {
            while let Some(ns) = self.hubs[0].next_sample_ps() {
                if ns >= t.as_ps() {
                    break;
                }
                self.world.run_until(SimTime(ns));
                self.publish_gauges();
                self.stream_queue_samples(ns);
                self.deadlock.observe(self.world.worlds(), SimTime(ns));
                for h in &self.hubs {
                    h.maybe_sample(ns);
                }
            }
        }
        self.world.run_until(t);
        // A run boundary is where readers expect the exported trace to
        // be complete: move every bank's records into the caller's sink
        // (multi-shard) or flush the directly attached sink (one shard).
        self.merge_trace_banks();
        for h in &self.hubs {
            h.flush_sink();
        }
    }

    /// Stream one queue-depth sample per switch into its owning shard's
    /// bank at epoch boundary `ns` (no-op for shards without a
    /// queue-class sink).
    fn stream_queue_samples(&self, ns: u64) {
        for (hub, obs) in self.hubs.iter().zip(&self.obs) {
            if !hub.streams_queues() {
                continue;
            }
            for (&i, &scope) in obs.switch_idx.iter().zip(&obs.switch_scopes) {
                let sw = self.switch(i);
                hub.stream_queue(
                    ns,
                    scope,
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
    /// precede the next chunk's in simulated time. No-op with one shard,
    /// whose sink is attached to the hub directly.
    fn merge_trace_banks(&mut self) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let mut all: Vec<(u64, u32, usize, OwnedRecord)> = Vec::new();
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

    /// The live deadlock probe: cycle history, verdicts, last wait graph.
    /// Epochs run automatically at each telemetry sample boundary.
    pub fn deadlock_probe(&self) -> &DeadlockProbe {
        &self.deadlock
    }

    /// Force one deadlock-detection epoch right now (for runs without
    /// telemetry sampling, or end-of-run checks). Returns the wait cycle
    /// found this epoch, if any.
    pub fn deadlock_observe_now(&mut self) -> Option<Vec<String>> {
        let now = self.world.now();
        self.deadlock.observe(self.world.worlds(), now)
    }

    /// The cluster's telemetry hub — shard 0's bank when sharded —
    /// disabled unless the [`InstrumentationProfile`] enabled one.
    pub fn telemetry(&self) -> &MetricsHub {
        &self.hubs[0]
    }

    /// Refresh each shard's fleet-level gauges (engine progress,
    /// per-switch lossless backlog) from live state. Called
    /// automatically at each sample boundary; call manually before
    /// rendering JSON mid-run.
    pub fn publish_gauges(&self) {
        for (s, (hub, obs)) in self.hubs.iter().zip(&self.obs).enumerate() {
            if !hub.is_enabled() {
                continue;
            }
            let w = &self.world.worlds()[s];
            hub.set_gauge(obs.engine_events, w.events_processed() as f64);
            let st = w.sched_stats();
            hub.set_gauge(
                obs.engine_pending,
                (st.pushed - st.dispatched - st.cancelled) as f64,
            );
            for (&i, &gauge) in obs.switch_idx.iter().zip(&obs.switch_backlog) {
                hub.set_gauge(gauge, self.switch(i).lossless_backlog() as f64);
            }
        }
    }

    /// Run for `ms` more milliseconds of simulated time.
    pub fn run_for_millis(&mut self, ms: u64) {
        let t = self.now() + SimTime::from_millis(ms);
        self.run_until(t);
    }

    /// Current simulated time (sharded: the horizon every shard has
    /// reached).
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    // ---- fleet-wide monitoring (what §5's systems aggregate) ----

    /// Total XOFF pause frames sent by all switches.
    pub fn total_switch_pause_tx(&self) -> u64 {
        (0..self.switches.len())
            .map(|i| self.switch(i).stats.total_pause_tx())
            .sum()
    }

    /// Every RDMA host, in server order.
    fn rdma_hosts(&self) -> impl Iterator<Item = &RdmaHost> {
        self.servers
            .iter()
            .filter(|s| s.kind == ServerKind::Rdma)
            .map(|s| self.node(s.shard, s.sim))
    }

    /// Total pause frames received by servers — the Figure 9/10 metric.
    pub fn total_server_pause_rx(&self) -> u64 {
        self.rdma_hosts().map(|h| h.stats.pause_rx).sum()
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
        self.rdma_hosts().map(RdmaHost::total_goodput_bytes).sum()
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

    /// Drain all RDMA RTT samples collected so far (ps).
    pub fn take_rdma_rtts(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for id in self.servers_of_kind(ServerKind::Rdma) {
            out.append(&mut self.rdma_mut(id).stats.rtt_samples_ps);
        }
        out
    }

    /// Drain all TCP RTT samples collected so far (ps).
    pub fn take_tcp_rtts(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for id in self.servers_of_kind(ServerKind::Tcp) {
            out.append(&mut self.tcp_mut(id).stats.rtt_samples_ps);
        }
        out
    }

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

    /// Install the RDMA Pingmesh service (§5.3): every RDMA server probes
    /// `fanout` others (512-byte payloads) every `interval`, chosen
    /// round-robin so ToR-, podset- and DC-scope pairs all get coverage.
    /// Probes that cross shards ride the exchange like any other flow.
    /// Returns the probed pairs; collect results with
    /// [`Cluster::pingmesh_report`].
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
                    QpApp::Pinger {
                        payload: rocescale_monitor::pingmesh::PROBE_BYTES,
                        interval,
                        start_at: SimTime::from_micros(10 + (i * 13 + k * 7) as u64),
                    },
                    QpApp::Echo {
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
    /// Each RTT sample is also mirrored into the *prober's owning
    /// shard's* telemetry bank, so with telemetry enabled the per-scope
    /// counts and latencies (`pingmesh.{tor,podset,dc}.*`) land in hub
    /// snapshots and exported traces next to that shard's other metrics.
    /// The returned aggregate is unbound: it sees every shard's samples,
    /// which no single bank does.
    ///
    /// Because a host logs its RTT samples in completion order across all
    /// of its prober QPs, per-pair attribution uses each *prober host's*
    /// dominant scope: hosts whose probes span several scopes contribute
    /// to each (per-QP logs would be the production refinement).
    pub fn pingmesh_report(&mut self, pairs: &[(ServerId, ServerId)]) -> Pingmesh {
        let mut banks: Vec<Pingmesh> = self
            .hubs
            .iter()
            .map(|h| Pingmesh::with_hub(h.clone()))
            .collect();
        let mut fleet = Pingmesh::new();
        for &(a, b) in pairs {
            let scope = self.scope_of(a, b);
            let shard = self.servers[a.0].shard as usize;
            let samples = std::mem::take(&mut self.rdma_mut(a).stats.rtt_samples_ps);
            for s in samples {
                banks[shard].record(scope, ProbeResult::Rtt(s));
                fleet.record(scope, ProbeResult::Rtt(s));
            }
        }
        fleet
    }

    /// Per-switch (name, progress snapshot) for the deadlock detector.
    pub fn switch_snapshots(&self) -> Vec<(String, Snapshot)> {
        (0..self.switches.len())
            .map(|i| {
                let sw = self.switch(i);
                (
                    self.switches[i].name.clone(),
                    Snapshot {
                        tx_pkts: sw.total_data_tx_pkts(),
                        backlog_bytes: sw.lossless_backlog(),
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocescale_sim::DigestMode;

    #[test]
    fn builder_is_send() {
        // The fleet runner moves builders (or closures that construct
        // them) into worker threads; compile-time proof it stays legal.
        fn assert_send<T: Send>() {}
        assert_send::<ClusterBuilder>();
    }

    #[test]
    fn digest_off_cluster_matches_on_cluster() {
        let run = |mode| {
            let mut c = ClusterBuilder::single_tor(3)
                .seed(5)
                .instrumentation(InstrumentationProfile::paper_default().digest(mode))
                .build();
            let ids = c.all_servers();
            c.connect_qp(
                ids[1],
                ids[0],
                5000,
                QpApp::Saturate {
                    msg_len: 64 * 1024,
                    inflight: 2,
                },
                QpApp::None,
            );
            c.run_for_millis(1);
            (
                c.total_rdma_goodput(),
                c.world.events_processed(),
                c.world.dispatch_digest(),
            )
        };
        let on = run(DigestMode::On);
        let off = run(DigestMode::Off);
        assert_eq!(on.0, off.0, "goodput must not depend on digest mode");
        assert_eq!(on.1, off.1, "event count must not depend on digest mode");
        assert_ne!(on.2, off.2, "off-mode digest stays at the basis");
    }

    #[test]
    fn builds_and_runs_a_small_cluster() {
        let mut c = ClusterBuilder::two_tier(2, 3).seed(9).build();
        assert_eq!(c.server_count(), 6);
        assert_eq!(c.switch_count(), 2 + 2 + 2); // 2 ToR + 2 leaf + 2 spine
        let (a, b) = (ServerId(0), ServerId(3)); // different racks
        assert!(!c.same_tor(a, b));
        c.connect_qp(
            a,
            b,
            5000,
            QpApp::Saturate {
                msg_len: 256 * 1024,
                inflight: 1,
            },
            QpApp::None,
        );
        c.run_for_millis(2);
        assert!(c.total_rdma_goodput() >= 256 * 1024);
        assert_eq!(c.lossless_drops(), 0);
    }

    #[test]
    fn cross_pod_traffic_traverses_spines() {
        let mut c = ClusterBuilder::new(ClosSpec::uniform_40g(2, 1, 2, 2, 2))
            .seed(3)
            .build();
        let pod0 = c
            .all_servers()
            .into_iter()
            .find(|s| c.server_pod(*s) == 0)
            .unwrap();
        let pod1 = c
            .all_servers()
            .into_iter()
            .find(|s| c.server_pod(*s) == 1)
            .unwrap();
        c.connect_qp(
            pod0,
            pod1,
            6000,
            QpApp::Saturate {
                msg_len: 128 * 1024,
                inflight: 1,
            },
            QpApp::None,
        );
        c.run_for_millis(2);
        assert!(c.total_rdma_goodput() >= 128 * 1024);
        let spine_tx: u64 = c
            .switches_of_tier(Tier::Spine)
            .into_iter()
            .map(|i| c.switch(i).total_tx_pkts())
            .sum();
        assert!(spine_tx > 100, "spines must carry the flow: {spine_tx}");
    }

    #[test]
    fn mixed_rdma_tcp_cluster() {
        let mut c = ClusterBuilder::two_tier(1, 4)
            .server_kind(|i| {
                if i % 2 == 0 {
                    ServerKind::Rdma
                } else {
                    ServerKind::Tcp
                }
            })
            .build();
        assert_eq!(c.servers_of_kind(ServerKind::Rdma).len(), 2);
        assert_eq!(c.servers_of_kind(ServerKind::Tcp).len(), 2);
        let t = c.servers_of_kind(ServerKind::Tcp);
        let (ca, _cb) = c.connect_tcp(
            t[0],
            t[1],
            TcpApp::Saturate { msg_len: 100_000 },
            TcpApp::None,
        );
        c.run_for_millis(5);
        let sent = c.tcp(t[0]).sender_stats(ca).bytes_acked;
        assert!(sent >= 100_000, "TCP stream must flow: {sent}");
    }

    #[test]
    fn fault_profile_injects_storm() {
        let mut c = ClusterBuilder::two_tier(2, 2)
            .faults(FaultProfile::paper_default().storm_at(0, SimTime::from_millis(1)))
            .build();
        let ids = c.all_servers();
        // Traffic toward the stormer piles up behind its paused port.
        c.connect_qp(
            ids[2],
            ids[0],
            5000,
            QpApp::Saturate {
                msg_len: 128 * 1024,
                inflight: 2,
            },
            QpApp::None,
        );
        c.run_until(SimTime::from_millis(1));
        assert_eq!(
            c.rdma(ids[0]).stats.rx_storm_dropped,
            0,
            "storm must not start early"
        );
        c.run_for_millis(4);
        assert!(
            c.rdma(ids[0]).stats.rx_storm_dropped > 0,
            "stormer must drop its inbound traffic"
        );
        assert!(
            c.rdma(ids[0]).stats.pause_tx > 0,
            "stormer must pause its ToR port"
        );
        let tor_pause_rx: u64 = c
            .switches_of_tier(Tier::Tor)
            .into_iter()
            .map(|i| c.switch(i).stats.pause_rx.iter().sum::<u64>())
            .sum();
        assert!(tor_pause_rx > 0, "ToR must see the storm's pause frames");
    }

    #[test]
    fn dead_server_fault_leaves_incomplete_arp() {
        let mut c = ClusterBuilder::single_tor(2)
            .faults(FaultProfile::paper_default().dead_server(1))
            .build();
        let ids = c.all_servers();
        c.connect_qp(
            ids[0],
            ids[1],
            5000,
            QpApp::Saturate {
                msg_len: 64 * 1024,
                inflight: 1,
            },
            QpApp::None,
        );
        c.run_for_millis(1);
        // paper_default keeps the §4.2 fix on: lossless packets to the
        // half-resolved server are dropped, not flooded.
        assert!(
            c.total_drops_of(DropReason::IncompleteArpLossless) > 0,
            "traffic to the dead server must hit the incomplete-ARP path"
        );
        assert_eq!(c.total_rdma_goodput(), 0);
    }

    #[test]
    fn scripted_lossless_off_flushes_queued_packets_exactly_once() {
        // A storming NIC pauses its ToR port so lossless packets queue
        // behind it; the scripted SetLossless(off) must flush that queue
        // once — counted once — and never again.
        let mut c = ClusterBuilder::two_tier(2, 2)
            .faults(
                FaultProfile::paper_default()
                    .storm_at(0, SimTime::from_millis(1))
                    .at(
                        SimTime::from_millis(3),
                        ScriptAction::SetLossless {
                            switch: "pod0-tor0".to_string(),
                            prio: 3,
                            on: false,
                        },
                    ),
            )
            .build();
        let ids = c.all_servers();
        c.connect_qp(
            ids[2],
            ids[0],
            5000,
            QpApp::Saturate {
                msg_len: 128 * 1024,
                inflight: 2,
            },
            QpApp::None,
        );
        c.run_until(SimTime::from_micros(2_900));
        assert_eq!(
            c.total_drops_of(DropReason::AdminLosslessOff),
            0,
            "no admin flush before the scripted action fires"
        );
        c.run_until(SimTime::from_millis(4));
        let flushed = c.total_drops_of(DropReason::AdminLosslessOff);
        assert!(flushed > 0, "queued lossless packets must be flushed");
        c.run_for_millis(3);
        assert_eq!(
            c.total_drops_of(DropReason::AdminLosslessOff),
            flushed,
            "the flush happens exactly once"
        );
    }

    #[test]
    fn scripted_link_flap_stalls_then_resumes_traffic() {
        let flap_down = SimTime::from_millis(1);
        let flap_up = SimTime::from_millis(2);
        let mut c = ClusterBuilder::single_tor(2)
            .faults(
                FaultProfile::paper_default()
                    .at(
                        flap_down,
                        ScriptAction::ServerLink {
                            server: 1,
                            up: false,
                        },
                    )
                    .at(
                        flap_up,
                        ScriptAction::ServerLink {
                            server: 1,
                            up: true,
                        },
                    ),
            )
            .build();
        let ids = c.all_servers();
        c.connect_qp(
            ids[0],
            ids[1],
            5000,
            QpApp::Saturate {
                msg_len: 64 * 1024,
                inflight: 2,
            },
            QpApp::None,
        );
        c.run_until(flap_down);
        let before = c.total_rdma_goodput();
        assert!(before > 0, "traffic must flow before the flap");
        c.run_until(flap_up);
        let during = c.total_rdma_goodput();
        c.run_for_millis(3);
        let after = c.total_rdma_goodput();
        assert!(
            after > during + 64 * 1024,
            "traffic must resume after re-up: {during} -> {after}"
        );
    }

    #[test]
    fn snapshots_expose_progress() {
        let mut c = ClusterBuilder::single_tor(2).build();
        let s = c.switch_snapshots();
        assert_eq!(s.len(), 3); // tor + leaf + spine
        assert!(s.iter().all(|(_, snap)| snap.tx_pkts == 0));
        let ids = c.all_servers();
        c.connect_qp(
            ids[0],
            ids[1],
            5000,
            QpApp::Saturate {
                msg_len: 65536,
                inflight: 1,
            },
            QpApp::None,
        );
        c.run_for_millis(1);
        let s = c.switch_snapshots();
        assert!(s.iter().any(|(_, snap)| snap.tx_pkts > 0));
    }
}
