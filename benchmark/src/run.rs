//! One run: one workload, one seed, one fresh process.
//!
//! An untraced run drives the product lane and reports the end-to-end
//! metrics. It makes three passes over the same seeded interval sequence, each
//! on a fresh lane, and times every interval at its fastest pass: what a
//! shared host adds to an execution is never negative and rarely hits the same
//! interval in passes seconds apart, so the p50 and the p90 are those of the
//! workload's intervals, not of the host's bad moments.
//!
//! A traced run drives three lanes of the same seed side by side — the
//! product loop, the layered loop with spans, the layered loop without — and
//! reports the per-layer metrics from the middle one. The lanes are advanced
//! round-robin, one interval each, because back-to-back loops on a small box
//! see different host speeds; interleaved, the drift cancels out of the two
//! ratios that say whether the budget can be trusted (`trace.coverage_pct`,
//! `trace.overhead_pct`).

use std::time::Instant;

use crate::layers::{self, IntervalOutcome, Lane, LaneKind, MessageReport};
use crate::spec::{Sizing, Workload, END_TO_END, PER_LAYER};
use crate::stats::{self, Digest, SpeedGauge};
use crate::trace::{Recorder, Span};

/// Passes of an untraced run. Each is a fresh lane of the same seed driven
/// over the same interval sequence; an interval's time is its fastest pass,
/// and `setup_s` is the median of the passes' set-ups.
const PASSES: usize = 3;
/// Spans that are structure of the layered loop, not calls into a layer:
/// their self time is `driver.self.ms`.
const STRUCTURAL: [&str; 5] = ["interval", "round", "packet", "boundary", "apply"];

pub struct RunConfig {
    pub workload: Workload,
    pub sizing: Sizing,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunResult {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Facts of the run that are not metrics: digests, sample counts, host.
    pub info: Vec<(&'static str, String)>,
    /// Kept spans and the trace file text of a traced run.
    pub spans: Vec<Span>,
    pub trace_json: Option<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every value with all its digits.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Interval counts derived from `--seconds` and the workload's nominal rate.
struct Plan {
    /// Untimed intervals after set-up (caches fill, buffers reach size).
    warmup: usize,
    /// Timed intervals of each pass of an untraced run that feed the digest
    /// and the exact metrics: half of what the nominal rate fits into a
    /// pass, so a slow host still reaches them in time. The first pass keeps
    /// timing past them until its share of `--seconds` is over.
    exact: usize,
    /// Intervals per lane of a traced run.
    traced: usize,
}

impl Plan {
    fn new(cfg: &RunConfig) -> Self {
        let per_pass = cfg.sizing.rate * cfg.seconds / PASSES as f64;
        let share = |f: f64| ((per_pass * f).round() as usize).max(1);
        Plan {
            warmup: share(0.05),
            exact: share(0.5),
            traced: share(0.75),
        }
    }
}

/// Checks and exact (seed-determined) quantities accumulated over intervals.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Digest,
    intervals: u64,
    overhead_sum: f64,
    enc_packets: u64,
    multicast_packets: u64,
    wire_bytes: u64,
    keyed: u64,
    keyed_on_time: u64,
    rounds_weighted: u64,
}

impl Tally {
    /// Counts what the interval attempted and what failed: a refused valid
    /// request, a receiver without the server's group key, an unserved user.
    fn check(&mut self, o: &IntervalOutcome) {
        self.attempted += (o.requests + o.receivers) as u64;
        self.failed += (o.refused + o.unkeyed) as u64;
    }

    /// Folds the interval's report into the digest and the exact metrics.
    fn fold(&mut self, r: &MessageReport) {
        let d = &mut self.digest;
        for v in [
            r.msg_seq,
            r.enc_packets as u64,
            r.blocks as u64,
            r.rho.to_bits(),
            r.num_nack as u64,
            r.nacks_round1 as u64,
            r.bandwidth_overhead.to_bits(),
            r.server_rounds as u64,
            r.unserved_users as u64,
            r.missed_deadline as u64,
            r.usr_packets as u64,
            r.usr_bytes as u64,
            r.duplication_overhead.to_bits(),
            r.encoding_units,
            r.rounds_histogram.len() as u64,
        ] {
            d.u64(v);
        }
        for &n in &r.rounds_histogram {
            d.u64(n as u64);
        }

        // h' = overhead * h, both integers in the product.
        let multicast = (r.bandwidth_overhead * r.enc_packets as f64).round() as u64;
        self.intervals += 1;
        self.overhead_sum += r.bandwidth_overhead;
        self.enc_packets += r.enc_packets as u64;
        self.multicast_packets += multicast;
        self.wire_bytes += multicast * layers::enc_packet_len() as u64 + r.usr_bytes as u64;
        for (i, &n) in r.rounds_histogram.iter().enumerate() {
            self.keyed += n as u64;
            self.rounds_weighted += ((i + 1) * n) as u64;
            if i < layers::DEADLINE_ROUNDS {
                self.keyed_on_time += n as u64;
            }
        }
    }
}

/// Facts echoed with every result and in every trace file.
fn host_info(seed: u64) -> Vec<(&'static str, String)> {
    let threads = std::env::var("REKEY_THREADS").unwrap_or_else(|_| "unset".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("seed", seed.to_string()),
        ("rekey_threads", threads),
        ("nproc", nproc.to_string()),
    ]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn run(cfg: &RunConfig) -> RunResult {
    let mut gauge = SpeedGauge::default();
    let host = host_info(cfg.seed);
    let mut result = if cfg.trace {
        run_traced(cfg, &mut gauge, &host)
    } else {
        run_untraced(cfg, &mut gauge)
    };
    let (slowest, fastest) = gauge.speed_range_pct();
    result.info.extend([
        ("host_speed_pct", format!("{slowest:.1}..{fastest:.1}")),
        ("machine_drift_pct", format!("{:.2}", gauge.drift_pct())),
    ]);
    result.info.extend(host);
    result
}

fn run_untraced(cfg: &RunConfig, gauge: &mut SpeedGauge) -> RunResult {
    let plan = Plan::new(cfg);
    let pass_seconds = cfg.seconds / PASSES as f64;
    let mut checks = Tally::default();
    let mut digests: Vec<Tally> = Vec::with_capacity(PASSES);
    let mut setups = Vec::with_capacity(PASSES);
    // Per interval of the seeded sequence, the fastest pass: wall time raw
    // and rescaled to the reference host.
    let mut raw_ms: Vec<f64> = Vec::new();
    let mut best_ms: Vec<f64> = Vec::new();
    let mut executions = 0usize;
    let mut executed_ms = 0.0;
    let mut peak_rss_mb = 0.0;

    for pass in 0..PASSES {
        // Set-up: build the lane and warm it up. Each pass pays it, so a run
        // times it `PASSES` times; the previous lane is gone by now, so the
        // peak resident set is one lane's.
        let scale_before = gauge.scale();
        let t = Instant::now();
        let mut lane = layers::make_lane(cfg.workload, cfg.sizing, cfg.seed, LaneKind::Product);
        for _ in 0..plan.warmup {
            checks.check(&lane.interval());
        }
        setups.push(t.elapsed().as_secs_f64() * (scale_before + gauge.scale()) / 2.0);

        let mut tally = Tally::default();
        let start = Instant::now();
        let mut i = 0;
        loop {
            let scale = gauge.scale();
            let outcome = lane.interval();
            let wall_ms = ms(outcome.wall_ns);
            if i == best_ms.len() {
                raw_ms.push(wall_ms);
                best_ms.push(wall_ms * scale);
            } else {
                raw_ms[i] = raw_ms[i].min(wall_ms);
                best_ms[i] = best_ms[i].min(wall_ms * scale);
            }
            executions += 1;
            executed_ms += wall_ms * scale;
            checks.check(&outcome);
            i += 1;
            if i <= plan.exact {
                tally.fold(&outcome.report);
                if i == plan.exact {
                    tally.digest.bytes(&lane.group_key());
                    // Read where the interval count is fixed, so the seed
                    // alone decides how far the heap has grown.
                    if pass == 0 {
                        peak_rss_mb = stats::peak_rss_mib();
                    }
                }
            }
            // The first pass sets the length of the sequence; later passes
            // repeat it, and give up on its tail only on a host that has
            // become twice as slow, so a run's length stays bounded.
            let elapsed = start.elapsed().as_secs_f64();
            let done = if pass == 0 {
                elapsed >= pass_seconds
            } else {
                i == best_ms.len() || elapsed >= 2.0 * pass_seconds
            };
            if i >= plan.exact && done {
                break;
            }
        }
        digests.push(tally);
    }

    // Same seed, same inputs: every pass must have done the same work.
    let tally = &digests[0];
    let mismatches = digests.iter().filter(|t| t.digest != tally.digest).count() as u64;
    if mismatches > 0 {
        eprintln!("passes of one seed printed different digests");
    }

    let busy_s: f64 = best_ms.iter().sum::<f64>() / 1e3;
    let requests = cfg.workload.requests_per_interval(cfg.sizing) * best_ms.len();
    let value = |name: &str| match name {
        "setup_s" => stats::median(&setups),
        "interval_ms_p50" => stats::percentile(&best_ms, 50.0),
        "interval_ms_p90" => stats::percentile(&best_ms, 90.0),
        "requests_per_s" => requests as f64 / busy_s,
        "peak_rss_mb" => peak_rss_mb,
        "bandwidth_overhead" => tally.overhead_sum / tally.intervals as f64,
        "rounds_to_key_mean" => tally.rounds_weighted as f64 / tally.keyed as f64,
        "on_time_users_pct" => 100.0 * tally.keyed_on_time as f64 / tally.keyed as f64,
        "wire_bytes_per_interval" => tally.wire_bytes as f64 / tally.intervals as f64,
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: value(m.name),
            unit: m.unit,
        })
        .collect();

    // How much slower the average execution was than the fastest pass: what
    // the host added and best-of-passes took out again.
    let mean_best_ms = busy_s * 1e3 / best_ms.len() as f64;
    let host_noise_pct = 100.0 * (executed_ms / executions as f64 / mean_best_ms - 1.0);

    RunResult {
        metrics,
        attempted: checks.attempted + 1,
        failed: checks.failed + mismatches,
        info: vec![
            ("run_digest", format!("{:016x}", tally.digest.value())),
            (
                "interval_ms_p50_raw",
                format!("{:.4}", stats::percentile(&raw_ms, 50.0)),
            ),
            ("passes", PASSES.to_string()),
            ("exact_intervals", plan.exact.to_string()),
            ("timed_intervals", best_ms.len().to_string()),
            // p90 keeps this many samples beyond it.
            ("samples_beyond_p90", (best_ms.len() / 10).to_string()),
            ("host_noise_pct", format!("{host_noise_pct:.2}")),
        ],
        spans: Vec::new(),
        trace_json: None,
    }
}

fn run_traced(
    cfg: &RunConfig,
    gauge: &mut SpeedGauge,
    host: &[(&'static str, String)],
) -> RunResult {
    let plan = Plan::new(cfg);
    let kinds = [
        LaneKind::Product,
        LaneKind::Layered { spans: true },
        LaneKind::Layered { spans: false },
    ];
    let mut warm = Tally::default();
    let mut lanes: Vec<Box<dyn Lane>> = kinds
        .iter()
        .map(|&kind| {
            let mut lane = layers::make_lane(cfg.workload, cfg.sizing, cfg.seed, kind);
            for _ in 0..plan.warmup {
                warm.check(&lane.interval());
            }
            if let Some(rec) = lane.recorder() {
                rec.reset();
            }
            lane
        })
        .collect();

    let mut tallies = [Tally::default(), Tally::default(), Tally::default()];
    let mut walls_ms: [Vec<f64>; 3] = Default::default();
    let mut layered_raw_ms = 0.0;
    for _ in 0..plan.traced {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let scale = gauge.scale();
            let outcome = lane.interval();
            walls_ms[i].push(ms(outcome.wall_ns) * scale);
            if i == 1 {
                layered_raw_ms += ms(outcome.wall_ns);
            }
            tallies[i].check(&outcome);
            tallies[i].fold(&outcome.report);
        }
    }
    for (tally, lane) in tallies.iter_mut().zip(&lanes) {
        tally.digest.bytes(&lane.group_key());
    }

    // Proof that the layered loop measures the product's work. Where the
    // lanes consume the same batches the digests must be equal; sim_figures
    // draws its batches inside the product, so there the means must agree.
    let mut mismatches = 0u64;
    let [product, layered, bare] = &tallies;
    if cfg.workload == Workload::SimFigures {
        // Within 3% at a full run's 300 messages; two independent means of
        // fewer messages differ by more, so shorter runs get 0.5/sqrt(n).
        let tolerance = 0.03f64.max(0.5 / (plan.traced as f64).sqrt());
        let close = |a: f64, b: f64| (a - b).abs() <= tolerance * a.abs();
        for (what, a, b) in [
            ("ENC packets", product.enc_packets, layered.enc_packets),
            (
                "multicast packets",
                product.multicast_packets,
                layered.multicast_packets,
            ),
        ] {
            if !close(a as f64, b as f64) {
                eprintln!("layered loop disagrees with the product loop on {what}: {b} vs {a}");
                mismatches += 1;
            }
        }
        let (a, b) = (product.overhead_sum, layered.overhead_sum);
        if !close(a, b) {
            eprintln!("layered loop disagrees with the product loop on overhead: {b} vs {a}");
            mismatches += 1;
        }
    } else if product.digest != layered.digest || product.digest != bare.digest {
        eprintln!(
            "layered loop does not reproduce the product loop: digests {:016x} / {:016x} / {:016x}",
            product.digest.value(),
            layered.digest.value(),
            bare.digest.value()
        );
        mismatches += 1;
    }

    let probes = layers::run_probes(cfg.sizing.k, cfg.seed, gauge);
    let p50 = |i: usize| stats::percentile(&walls_ms[i], 50.0);
    let rec: &Recorder = lanes[1].recorder().expect("the layered lane records");
    let n = f64::from(rec.intervals());
    // The recorder's totals are raw nanoseconds; the layered lane's intervals
    // were gauged one by one, so their ratio rescales every row.
    let to_reference = walls_ms[1].iter().sum::<f64>() / layered_raw_ms;
    let layer_ms = |name: &str| ms(rec.agg(name).total_ns) / n * to_reference;
    let calls = |name: &str| rec.agg(name).calls as f64 / n;
    let count = |name: &str| rec.counter(name) as f64 / n;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // `KeyServer::rekey`'s three steps are replayed outside the window on the
    // server workloads and called directly (inside it) on sim_figures.
    let step_ms = |name: &str| layer_ms(name) + layer_ms(&format!("replay.{name}"));
    let encryptions = count("keytree.mark.encryptions");
    let model = match cfg.workload {
        Workload::SimFigures => {
            layers::model_encryptions_leave_only(cfg.sizing.n, cfg.sizing.batch)
        }
        _ => replacement_model(cfg.sizing.n, cfg.sizing.batch),
    };

    let value = |name: &str| -> f64 {
        match name {
            "frontend.refused"
            | "keytree.mark.encryptions"
            | "rekeymsg.build.enc_packets"
            | "rekeymsg.emit.bytes"
            | "rse.parities_minted"
            | "rekeyproto.nacks"
            | "rekeyproto.rounds"
            | "netsim.decisions"
            | "sim.transport.packets" => count(name),
            "server.rekey.coverage_pct" => ratio(
                100.0
                    * (layer_ms("replay.keytree.mark")
                        + layer_ms("replay.rekeymsg.build")
                        + layer_ms("replay.rekeyproto.begin")),
                layer_ms("server.rekey"),
            ),
            "keytree.mark.ms" => step_ms("keytree.mark"),
            "rekeymsg.build.ms" => step_ms("rekeymsg.build"),
            "rekeyproto.begin.ms" => step_ms("rekeyproto.begin"),
            "keytree.enc_per_request" => ratio(
                encryptions,
                cfg.workload.requests_per_interval(cfg.sizing) as f64,
            ),
            "keytree.enc_vs_model_pct" => ratio(100.0 * encryptions, model),
            "rekeymsg.build.duplication_pct" => ratio(
                100.0 * (count("rekeymsg.build.entries") - encryptions),
                encryptions,
            ),
            "wirecrypto.seal.ns" => probes.seal_ns,
            "wirecrypto.unseal.ns" => probes.unseal_ns,
            "wirecrypto.mac64.ns" => probes.mac64_ns,
            "rse.encode.us_per_parity" => probes.encode_us_per_parity,
            "rse.decode.us_per_block" => probes.decode_us_per_block,
            "gf256.mul_acc.ns_per_kb" => probes.mul_acc_ns_per_kb,
            "rekeyproto.receives_per_keyed_user" => ratio(
                rec.agg("rekeyproto.user_receive").calls as f64,
                layered.keyed as f64,
            ),
            "netsim.delivered_pct" => ratio(
                100.0 * rec.counter("netsim.delivered") as f64,
                rec.counter("netsim.decisions") as f64,
            ),
            "driver.self.ms" => {
                STRUCTURAL
                    .iter()
                    .map(|s| ms(rec.agg(s).self_ns))
                    .sum::<f64>()
                    / n
                    * to_reference
            }
            "sim.ns_per_user_packet" => ratio(
                rec.agg("sim.transport").total_ns as f64 * to_reference,
                rec.counter("sim.user_packets") as f64,
            ),
            "trace.interval.ms" => layer_ms("interval"),
            "trace.coverage_pct" => 100.0 * p50(1) / p50(0),
            "trace.overhead_pct" => 100.0 * (p50(1) / p50(2) - 1.0),
            _ => {
                if let Some(layer) = name.strip_suffix(".ms") {
                    layer_ms(layer)
                } else if let Some(layer) = name.strip_suffix(".calls") {
                    calls(layer)
                } else {
                    unreachable!("per-layer metric {name} has no definition")
                }
            }
        }
    };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            value: value(name),
            unit,
        })
        .collect();

    let mut info = vec![
        ("run_digest", format!("{:016x}", layered.digest.value())),
        ("traced_intervals", plan.traced.to_string()),
        ("product_interval_ms_p50", format!("{:.4}", p50(0))),
    ];
    let trace_json = rec.to_chrome_json(cfg.workload.name(), host);
    let spans = rec.spans().to_vec();
    info.push(("kept_spans", spans.len().to_string()));

    RunResult {
        metrics,
        attempted: warm.attempted + tallies.iter().map(|t| t.attempted).sum::<u64>() + 1,
        failed: warm.failed + tallies.iter().map(|t| t.failed).sum::<u64>() + mismatches,
        info,
        spans,
        trace_json: Some(trace_json),
    }
}

/// Expected encryptions of one batch on a full degree-4 tree of `n` users
/// when `batch` uniformly chosen members leave and as many join: the joiners
/// take the leavers' slots, so no child is pruned and every child of an
/// updated k-node carries one encryption. A k-node over `m` leaves is updated
/// unless none of its leaves departs (the hypergeometric `A(m)` of
/// `keytree::analysis`, which covers the leave-only case).
fn replacement_model(n: u32, batch: usize) -> f64 {
    let d = u64::from(layers::DEGREE);
    let (n, l) = (u64::from(n), batch as u64);
    let h = layers::full_tree_height(n as u32);
    (0..h)
        .map(|level| {
            let m = d.pow(h - level);
            let untouched: f64 = (0..m)
                .map(|i| (n - l).saturating_sub(i) as f64 / (n - i) as f64)
                .product();
            (d.pow(level) * d) as f64 * (1.0 - untouched)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replacement_model_limits() {
        // Nobody leaves: nothing to encrypt. Everybody leaves: every edge.
        assert_eq!(replacement_model(64, 0), 0.0);
        assert!((replacement_model(64, 64) - (4.0 + 16.0 + 64.0)).abs() < 1e-9);
        // One request updates one path: h k-nodes, d children each.
        assert!((replacement_model(64, 1) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
            attempted: 10,
            failed: 0,
            info: Vec::new(),
            spans: Vec::new(),
            trace_json: None,
        };
        assert_eq!(
            r.to_json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
