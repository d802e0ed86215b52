//! Seeded workload generator: the three benchmark workloads, their
//! fabric shapes, and the endpoint lists derived from the seed.
//!
//! Endpoints are rack coordinates (pod, ToR, port-order index), a pure
//! function of the workload and the seed; the runner resolves them to
//! `ServerId`s through `servers_under` on the built cluster.

use rocescale_sim::{digest_fold, SimRng, SimTime};
use rocescale_topology::ClosSpec;
use rocescale_transport::LossRecovery;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 102,400 hosts, two shards, one cross-pod burst per ToR.
    Fleet100k,
    /// 256 hosts, PFC + DCQCN incast into 16 rack aggregators, hub on.
    IncastPodset,
    /// One ToR, 8 saturating pairs under deterministic 1/256 loss.
    Lossy1in256,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [
        Workload::Fleet100k,
        Workload::IncastPodset,
        Workload::Lossy1in256,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet100k => "fleet_100k",
            Workload::IncastPodset => "incast_podset",
            Workload::Lossy1in256 => "lossy_1in256",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The Clos fabric the workload runs on.
    pub fn spec(self) -> ClosSpec {
        match self {
            Workload::Fleet100k => ClosSpec::uniform_40g(8, 40, 2, 4, 320),
            Workload::IncastPodset => ClosSpec::uniform_40g(4, 4, 4, 8, 16),
            Workload::Lossy1in256 => ClosSpec::uniform_40g(1, 1, 1, 1, 16),
        }
    }

    /// Simulated duration of the run phase.
    pub fn duration(self) -> SimTime {
        match self {
            Workload::Fleet100k => SimTime::from_millis(1),
            Workload::IncastPodset => SimTime::from_millis(5),
            Workload::Lossy1in256 => SimTime::from_millis(16),
        }
    }
}

/// A server by rack coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Endpoint {
    /// Pod index.
    pub pod: u32,
    /// Pod-relative ToR index.
    pub tor: u32,
    /// Position under the ToR, in port order.
    pub idx: u32,
}

/// One QP pair the workload connects: `src` sends, `dst` receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Sending server.
    pub src: Endpoint,
    /// Receiving server.
    pub dst: Endpoint,
    /// UDP source port (selects the ECMP path).
    pub udp_src: u16,
    /// Loss-recovery scheme both ends run (`None`: the profile default).
    pub recovery: Option<LossRecovery>,
}

/// The generated inputs of one workload run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed the plan came from (also the cluster's RNG seed).
    pub seed: u64,
    /// Every flow, in connect order.
    pub flows: Vec<Flow>,
}

/// Senders per incast aggregator.
pub const INCAST_FAN_IN: u32 = 48;

/// Generate the plan of `w` for `seed`.
pub fn plan(w: Workload, seed: u64) -> Plan {
    // Decorrelate the generator stream from the cluster's own RNG,
    // which receives the same seed.
    let mut rng = SimRng::from_seed(seed ^ 0x7065_7266_6265_6e63);
    let spec = w.spec();
    let mut flows = Vec::new();
    match w {
        Workload::Fleet100k => {
            for pod in 0..spec.pods {
                for tor in 0..spec.tors_per_pod {
                    let other =
                        (pod + 1 + rng.gen_below(u64::from(spec.pods - 1)) as u32) % spec.pods;
                    let dst = Endpoint {
                        pod: other,
                        tor: rng.gen_below(u64::from(spec.tors_per_pod)) as u32,
                        idx: rng.gen_below(u64::from(spec.servers_per_tor)) as u32,
                    };
                    flows.push(Flow {
                        src: Endpoint { pod, tor, idx: 0 },
                        dst,
                        udp_src: udp_port(&mut rng),
                        recovery: None,
                    });
                }
            }
        }
        Workload::IncastPodset => {
            let racks: Vec<(u32, u32)> = (0..spec.pods)
                .flat_map(|p| (0..spec.tors_per_pod).map(move |t| (p, t)))
                .collect();
            for &(pod, tor) in &racks {
                let agg = Endpoint {
                    pod,
                    tor,
                    idx: rng.gen_below(u64::from(spec.servers_per_tor)) as u32,
                };
                let mut remote: Vec<Endpoint> = racks
                    .iter()
                    .filter(|&&r| r != (pod, tor))
                    .flat_map(|&(p, t)| {
                        (0..spec.servers_per_tor).map(move |idx| Endpoint {
                            pod: p,
                            tor: t,
                            idx,
                        })
                    })
                    .collect();
                shuffle(&mut remote, &mut rng);
                for &src in &remote[..INCAST_FAN_IN as usize] {
                    flows.push(Flow {
                        src,
                        dst: agg,
                        udp_src: udp_port(&mut rng),
                        recovery: None,
                    });
                }
            }
        }
        Workload::Lossy1in256 => {
            let mut hosts: Vec<u32> = (0..spec.servers_per_tor).collect();
            shuffle(&mut hosts, &mut rng);
            for (k, pair) in hosts.chunks_exact(2).enumerate() {
                let at = |idx| Endpoint {
                    pod: 0,
                    tor: 0,
                    idx,
                };
                flows.push(Flow {
                    src: at(pair[0]),
                    dst: at(pair[1]),
                    udp_src: udp_port(&mut rng),
                    recovery: Some(if k % 2 == 0 {
                        LossRecovery::GoBackN
                    } else {
                        LossRecovery::SelectiveRepeat
                    }),
                });
            }
        }
    }
    Plan {
        workload: w,
        seed,
        flows,
    }
}

impl Plan {
    /// A fingerprint of the endpoint list, so two plans can be compared
    /// by one number in logs.
    pub fn fingerprint(&self) -> u64 {
        self.flows.iter().fold(0xcbf2_9ce4_8422_2325, |h, f| {
            let h = digest_fold(
                h,
                u64::from(f.src.pod) << 40 | u64::from(f.src.tor) << 20 | u64::from(f.src.idx),
            );
            let h = digest_fold(
                h,
                u64::from(f.dst.pod) << 40 | u64::from(f.dst.tor) << 20 | u64::from(f.dst.idx),
            );
            let rec = f.recovery.map_or(0, |r| r as u64 + 1);
            digest_fold(h, u64::from(f.udp_src) << 8 | rec)
        })
    }

    /// The loss-recovery scheme of every host the plan pins, by
    /// position under ToR 0 (only the single-rack workload pins any).
    pub fn recovery_by_host(&self) -> Vec<Option<LossRecovery>> {
        let n = self.workload.spec().servers_per_tor as usize;
        let mut out = vec![None; n];
        for f in self.flows.iter().filter(|f| f.recovery.is_some()) {
            out[f.src.idx as usize] = f.recovery;
            out[f.dst.idx as usize] = f.recovery;
        }
        out
    }
}

/// A UDP source port in the dynamic range.
fn udp_port(rng: &mut SimRng) -> u16 {
    49152 + rng.gen_below(16384) as u16
}

/// Fisher–Yates shuffle on the simulator's deterministic RNG.
fn shuffle<T>(v: &mut [T], rng: &mut SimRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_index(i + 1);
        v.swap(i, j);
    }
}
