//! What the benchmark runs and reports: the four workloads, their sizes, and
//! the metric names. `BENCHMARK.json` lists the same names; `tests/schema.rs`
//! holds the two together.

/// One set of inputs. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The headline byte-faithful interval; the receiver path dominates.
    WireSteady,
    /// Same path, every receiver lossy, multicast only: recovery is by
    /// Reed–Solomon decode instead of direct reception.
    WireFec,
    /// Admission → `KeyServer::rekey` → round-one emit; no network, no fleet.
    ServerScale,
    /// The figure-reproduction engine: share-count receivers, adaptive rho.
    SimFigures,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::WireSteady,
    Workload::WireFec,
    Workload::ServerScale,
    Workload::SimFigures,
];

/// Size of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Group size `N` (a power of the tree degree 4, so the tree is full).
    pub n: u32,
    /// Requests per interval: `J = L = batch` (`sim_figures`: `J = 0`,
    /// `L = N/4`, drawn inside the product's own experiment loop).
    pub batch: usize,
    /// FEC block size `k`.
    pub k: usize,
    /// Intervals per second on the box the sizes were chosen on. Sizes the
    /// warm-up, the exact window and the traced run from `--seconds`; it is
    /// not a target and does not enter any metric.
    pub rate: f64,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSteady => "wire_steady",
            Workload::WireFec => "wire_fec",
            Workload::ServerScale => "server_scale",
            Workload::SimFigures => "sim_figures",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (`why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WireSteady => "headline byte-faithful interval (N=4096, J=L=64, 20% of receivers lossy): receive, parse and netsim dominate, the server is under 1%",
            Workload::WireFec => "same path, every receiver at 20% loss, k=32, multicast only: recovery is Reed-Solomon decode, so rse/gf256 gains show here and not on wire_steady",
            Workload::ServerScale => "admission, KeyServer::rekey and round-one emit at N=16384, J=L=512, no network: the only workload where keytree, rekeymsg, wirecrypto and rse encode do the work",
            Workload::SimFigures => "the figure engine (ExperimentRun::step, share-count receivers, adaptive rho): netsim and sim dominate and no receiver touches a byte, so receive/parse gains must not move it",
        }
    }

    /// Join and leave requests one interval serves (`requests_per_s`).
    pub fn requests_per_interval(self, sizing: Sizing) -> usize {
        match self {
            Workload::SimFigures => sizing.batch,
            _ => 2 * sizing.batch,
        }
    }

    /// The sizes every reported number refers to.
    pub fn sizing(self) -> Sizing {
        match self {
            Workload::WireSteady => Sizing {
                n: 4096,
                batch: 64,
                k: 10,
                rate: 24.0,
            },
            Workload::WireFec => Sizing {
                n: 1024,
                batch: 256,
                k: 32,
                rate: 40.0,
            },
            Workload::ServerScale => Sizing {
                n: 16384,
                batch: 512,
                k: 10,
                rate: 420.0,
            },
            Workload::SimFigures => Sizing {
                n: 4096,
                batch: 1024,
                k: 10,
                rate: 80.0,
            },
        }
    }

    /// Small groups for `tests/schema.rs`: same code paths, milliseconds.
    pub fn tiny_sizing(self) -> Sizing {
        match self {
            Workload::WireSteady => Sizing {
                n: 256,
                batch: 8,
                k: 10,
                rate: 400.0,
            },
            Workload::WireFec => Sizing {
                n: 64,
                batch: 16,
                k: 8,
                rate: 400.0,
            },
            Workload::ServerScale => Sizing {
                n: 1024,
                batch: 32,
                k: 10,
                rate: 4000.0,
            },
            Workload::SimFigures => Sizing {
                n: 1024,
                batch: 256,
                k: 10,
                rate: 400.0,
            },
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

/// An end-to-end metric: what a user of the system would see. `bound` is the
/// share of the parent's median by which it may worsen before a change counts
/// as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Reported by every untraced run of every workload. The first five are host
/// time and memory; the last four are *simulated* protocol quantities, exact
/// functions of the seed — a pure optimisation leaves them unchanged to the
/// last digit, and a protocol change must name the one it moves.
///
/// The host bounds are all at the contract's cap of 25%: on this sandbox the
/// spread of a host metric over ten seeds (interquartile range over median) is
/// 1-5% while the host is quiet and two to three times that when a slow
/// episode of the host covers some of the runs, after best-of-three-passes
/// timing and host-speed rescaling (see the README's Baseline). The simulated
/// ones vary by under 1% from seed to seed.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("interval_ms_p50", "ms", Lower, 0.25),
    e2e("interval_ms_p90", "ms", Lower, 0.25),
    e2e("requests_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("bandwidth_overhead", "ratio", Lower, 0.05),
    e2e("rounds_to_key_mean", "rounds", Lower, 0.05),
    e2e("on_time_users_pct", "%", Higher, 0.05),
    e2e("wire_bytes_per_interval", "B", Lower, 0.05),
];

/// Per-layer metrics `(name, unit, better)`, reported by every traced run.
/// `.ms` is mean busy milliseconds per interval inside calls to the layer's
/// public functions, `.calls` is calls per interval, other counts are per
/// interval too.
pub const PER_LAYER: [(&str, &str, Better); 53] = [
    ("frontend.admit.ms", "ms", Lower),
    ("frontend.admit.calls", "count", Lower),
    ("frontend.refused", "count", Lower),
    ("server.rekey.ms", "ms", Lower),
    ("server.rekey.coverage_pct", "%", Higher),
    ("server.usr_packet.ms", "ms", Lower),
    ("server.usr_packet.calls", "count", Lower),
    ("keytree.mark.ms", "ms", Lower),
    ("keytree.mark.encryptions", "count", Lower),
    ("keytree.enc_per_request", "ratio", Lower),
    ("keytree.enc_vs_model_pct", "%", Lower),
    ("rekeymsg.build.ms", "ms", Lower),
    ("rekeymsg.build.enc_packets", "count", Lower),
    ("rekeymsg.build.duplication_pct", "%", Lower),
    ("rekeymsg.emit.ms", "ms", Lower),
    ("rekeymsg.emit.calls", "count", Lower),
    ("rekeymsg.emit.bytes", "B", Lower),
    ("rekeymsg.parse.ms", "ms", Lower),
    ("rekeymsg.parse.calls", "count", Lower),
    ("wirecrypto.seal.ns", "ns", Lower),
    ("wirecrypto.unseal.ns", "ns", Lower),
    ("wirecrypto.mac64.ns", "ns", Lower),
    ("rse.encode.us_per_parity", "us", Lower),
    ("rse.decode.us_per_block", "us", Lower),
    ("rse.parities_minted", "count", Lower),
    ("gf256.mul_acc.ns_per_kb", "ns", Lower),
    ("rekeyproto.begin.ms", "ms", Lower),
    ("rekeyproto.start.ms", "ms", Lower),
    ("rekeyproto.server_round.ms", "ms", Lower),
    ("rekeyproto.adjust.ms", "ms", Lower),
    ("rekeyproto.nacks", "count", Lower),
    ("rekeyproto.rounds", "count", Lower),
    ("rekeyproto.user_receive.ms", "ms", Lower),
    ("rekeyproto.user_receive.calls", "count", Lower),
    ("rekeyproto.user_round.ms", "ms", Lower),
    ("rekeyproto.user_round.calls", "count", Lower),
    ("rekeyproto.receives_per_keyed_user", "ratio", Lower),
    ("netsim.multicast.ms", "ms", Lower),
    ("netsim.multicast.calls", "count", Lower),
    ("netsim.unicast.ms", "ms", Lower),
    ("netsim.unicast.calls", "count", Lower),
    ("netsim.decisions", "count", Lower),
    ("netsim.delivered_pct", "%", Higher),
    ("agent.apply.ms", "ms", Lower),
    ("agent.apply.calls", "count", Lower),
    ("driver.self.ms", "ms", Lower),
    ("sim.tree_build.ms", "ms", Lower),
    ("sim.transport.ms", "ms", Lower),
    ("sim.transport.packets", "count", Lower),
    ("sim.ns_per_user_packet", "ns", Lower),
    ("trace.interval.ms", "ms", Lower),
    ("trace.coverage_pct", "%", Higher),
    ("trace.overhead_pct", "%", Lower),
];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 25;
/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 20010827;

/// The text of the root `BENCHMARK.json`. The committed file is this string;
/// `tests/schema.rs` fails when the two drift apart.
pub fn benchmark_json() -> String {
    let better = |b: Better| if b == Lower { "lower" } else { "higher" };
    let mut out = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!(
        "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    ));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|&(name, unit, b)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(b)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
