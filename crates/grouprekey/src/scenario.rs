//! Trace-driven scenario engine: deterministic, seeded membership traces
//! driven through [`KeyServer::rekey`].
//!
//! The paper's analysis only exercises Poisson-style `(J, L)` batch
//! arrivals. This module generates the workload classes that stress an
//! LKH tree in ways Poisson churn never does:
//!
//! * [`ScenarioKind::FlashCrowd`] — a pay-per-view kickoff: a short
//!   window of very large join bursts onto a small steady group, then
//!   trickle churn (generalizes `examples/pay_per_view.rs`).
//! * [`ScenarioKind::Diurnal`] — triangle-wave join/leave cycles, joins
//!   peaking half a cycle before leaves, as in a daily audience curve.
//! * [`ScenarioKind::MassDeparture`] — steady state until half-time,
//!   then 90% of the group leaves in one batch; the long tail afterwards
//!   is what exposes monotonic memory growth and skewed depth.
//! * [`ScenarioKind::Oscillation`] — a rejoin-heavy cohort that
//!   repeatedly drains and refills: departed members return (fresh
//!   individual keys, same member IDs), oscillating the tree between two
//!   shapes.
//! * [`ScenarioKind::Storm`] — CKCS-style simultaneous join/leave storms
//!   (arXiv 1208.5558): every interval carries both a large `J` and a
//!   large `L`.
//!
//! Traces are pure functions of `(kind, seed, initial_users, intervals)`
//! — the engine uses a private splitmix64 stream, so a run is replayable
//! bit for bit at any worker count. Each interval's [`IntervalStats`]
//! records the tree-shape and cost metrics the churn bench sweeps, and a
//! running [`ScenarioReport::digest`] folds every outcome so bit-identity
//! gates can compare whole runs in O(1).
//!
//! With `--features sanitize` every generated batch passes the full
//! marking/message oracles inside [`KeyServer::rekey`]; with
//! `--features obs` the engine tags each interval with `scenario.*`
//! spans, counters, and gauges.
//!
//! [`ScenarioKind::FlashCrowd`]: crate::scenario::ScenarioKind::FlashCrowd
//! [`ScenarioKind::Diurnal`]: crate::scenario::ScenarioKind::Diurnal
//! [`ScenarioKind::MassDeparture`]: crate::scenario::ScenarioKind::MassDeparture
//! [`ScenarioKind::Oscillation`]: crate::scenario::ScenarioKind::Oscillation
//! [`ScenarioKind::Storm`]: crate::scenario::ScenarioKind::Storm
//! [`IntervalStats`]: crate::scenario::IntervalStats
//! [`ScenarioReport::digest`]: crate::scenario::ScenarioReport::digest

use keytree::{Batch, MemberId};
use wirecrypto::SymKey;

use crate::{KeyServer, ServerOptions};

/// The five adversarial trace families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Flash-crowd join burst (pay-per-view kickoff).
    FlashCrowd,
    /// Diurnal join/leave cycles (daily audience curve).
    Diurnal,
    /// Correlated mass departure at half-time.
    MassDeparture,
    /// Rejoin-heavy cohort oscillation.
    Oscillation,
    /// CKCS-style simultaneous join/leave storms.
    Storm,
}

impl ScenarioKind {
    /// Every trace family, in catalog order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::FlashCrowd,
        ScenarioKind::Diurnal,
        ScenarioKind::MassDeparture,
        ScenarioKind::Oscillation,
        ScenarioKind::Storm,
    ];

    /// Stable snake_case name (bench JSON key, obs gauge suffix).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioKind::FlashCrowd => "flash_crowd",
            ScenarioKind::Diurnal => "diurnal",
            ScenarioKind::MassDeparture => "mass_departure",
            ScenarioKind::Oscillation => "oscillation",
            ScenarioKind::Storm => "storm",
        }
    }
}

/// One scenario run's parameters. The trace is a pure function of this
/// struct (given the same [`ServerOptions`]).
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Trace family.
    pub kind: ScenarioKind,
    /// Seed of the trace's private splitmix64 stream.
    pub seed: u64,
    /// Group size the server bootstraps with.
    pub initial_users: u32,
    /// Number of rekey intervals (batches) to run.
    pub intervals: usize,
    /// Server construction options (degree, layout, compaction policy).
    pub options: ServerOptions,
}

impl ScenarioConfig {
    /// A small default: 1024 users, 96 intervals, compaction off.
    pub fn new(kind: ScenarioKind) -> Self {
        ScenarioConfig {
            kind,
            seed: 0x5CE7_A210,
            initial_users: 1024,
            intervals: 96,
            options: ServerOptions::default(),
        }
    }
}

/// Tree-shape and cost metrics after one interval's batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalStats {
    /// Interval index (0-based).
    pub interval: usize,
    /// Members in the group after the batch.
    pub users: usize,
    /// Joins in this interval's batch.
    pub joins: usize,
    /// Leaves in this interval's batch.
    pub leaves: usize,
    /// Compaction relocations announced this batch.
    pub relocations: usize,
    /// Distinct encryptions in the rekey subtree.
    pub encryptions: usize,
    /// Encryptions per current member (0 for an empty group).
    pub enc_per_member: f64,
    /// ENC bytes multicast for this message (packets x packet length).
    pub bytes_on_wire: usize,
    /// Deepest u-node level after the batch.
    pub max_depth: u32,
    /// Mean u-node level after the batch.
    pub mean_depth: f64,
    /// Heap bytes resident in the tree's arrays after the batch.
    pub resident_bytes: usize,
    /// Maximum k-node ID (`maxKID`) after the batch, `u64::MAX` if none.
    pub nk: u64,
}

/// A finished scenario run: the per-interval trajectory plus a digest of
/// every outcome for whole-run bit-identity comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The configuration that produced this run.
    pub kind: ScenarioKind,
    /// Per-interval metrics, in order.
    pub stats: Vec<IntervalStats>,
    /// splitmix64 fold of every interval's group key, `nk`, membership
    /// count, encryption count, and relocation list. Two runs are the
    /// same rekey stream iff their digests match.
    pub digest: u64,
}

impl ScenarioReport {
    /// Deepest u-node level seen across the run.
    pub fn max_depth(&self) -> u32 {
        self.stats.iter().map(|s| s.max_depth).max().unwrap_or(0)
    }

    /// Peak resident bytes across the run.
    pub fn peak_resident_bytes(&self) -> usize {
        let resident = self.stats.iter().map(|s| s.resident_bytes);
        resident.max().unwrap_or(0)
    }

    /// Resident bytes after the final interval.
    pub fn final_resident_bytes(&self) -> usize {
        self.stats.last().map_or(0, |s| s.resident_bytes)
    }

    /// Mean encryptions per member over intervals with a non-empty group.
    pub fn mean_enc_per_member(&self) -> f64 {
        let live = self.stats.iter().filter(|s| s.users > 0);
        let (sum, n) = live.fold((0.0, 0), |(sum, n), s| (sum + s.enc_per_member, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / f64::from(n)
        }
    }

    /// Total ENC bytes multicast over the run.
    pub fn total_bytes_on_wire(&self) -> usize {
        self.stats.iter().map(|s| s.bytes_on_wire).sum()
    }

    /// Total compaction relocations over the run.
    pub fn total_relocations(&self) -> usize {
        self.stats.iter().map(|s| s.relocations).sum()
    }
}

/// splitmix64: a tiny deterministic generator. Private stream per
/// engine, so scenario traces never interact with key generation.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound` (`0` for an empty range).
    fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            (self.next() % bound as u64) as usize
        }
    }
}

fn mix(acc: u64, v: u64) -> u64 {
    SplitMix64::new(acc ^ v).next()
}

/// The engine: owns the server, the live-member roster, and the rejoin
/// pool, and steps one interval at a time so callers (the soak test, the
/// churn bench) can interleave their own checks.
#[derive(Debug)]
pub struct ScenarioEngine {
    config: ScenarioConfig,
    server: KeyServer,
    rng: SplitMix64,
    /// Current members, in engine order (deterministically permuted by
    /// leave selection; never sorted, never hashed).
    live: Vec<MemberId>,
    /// Members that left and may rejoin (oscillation / rejoin traffic).
    departed: Vec<MemberId>,
    next_member: MemberId,
    interval: usize,
    digest: u64,
}

impl ScenarioEngine {
    /// Bootstraps a full balanced group of `config.initial_users`.
    pub fn new(config: ScenarioConfig) -> Self {
        let server = KeyServer::bootstrap(config.initial_users, config.options);
        ScenarioEngine {
            server,
            rng: SplitMix64::new(config.seed ^ 0xC0FF_EE00),
            live: (0..config.initial_users).collect(),
            departed: Vec::new(),
            next_member: config.initial_users,
            interval: 0,
            digest: config.seed,
            config,
        }
    }

    /// The server (read-only), e.g. for invariant checks between steps.
    pub fn server(&self) -> &KeyServer {
        &self.server
    }

    /// Intervals stepped so far.
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// Running outcome digest (see [`ScenarioReport::digest`]).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Draws the next interval's `(joins, leaves)` sizes from the trace
    /// shape. Leave count is clamped to the live population later.
    fn plan(&mut self) -> (usize, usize) {
        let n = self.config.initial_users as usize;
        let t = self.interval;
        let total = self.config.intervals.max(1);
        match self.config.kind {
            ScenarioKind::FlashCrowd => {
                // Kickoff window: the first eighth of the horizon carries
                // join bursts an order of magnitude above steady churn.
                let kick = (total / 8).max(2);
                if t < kick {
                    ((n / kick).max(8), self.rng.below(n / 128 + 1))
                } else {
                    (self.rng.below(4), 1 + self.rng.below((n / 64).max(2)))
                }
            }
            ScenarioKind::Diurnal => {
                // Triangle wave of period C; leaves lag joins by half a
                // cycle, so the group swells by day and drains by night.
                let c = (total / 4).max(8);
                let tri = |phase: usize| -> usize {
                    let half = c / 2;
                    let p = phase % c;
                    if p < half {
                        p
                    } else {
                        c - p
                    }
                };
                let amp = (n / 8).max(4);
                let j = amp * tri(t) / (c / 2).max(1);
                let l = amp * tri(t + c / 2) / (c / 2).max(1);
                (j + self.rng.below(3), l + self.rng.below(3))
            }
            ScenarioKind::MassDeparture => {
                if t == total / 2 {
                    // The correlated event: 90% of the group walks out.
                    (0, self.live.len() * 9 / 10)
                } else {
                    (self.rng.below(3), self.rng.below(3))
                }
            }
            ScenarioKind::Oscillation => {
                // Phases of length P alternate between draining and
                // refilling seven eighths of the group, rejoin-first —
                // deep enough that the drained tree is far sparser than
                // any compaction slack tolerates.
                let p = (total / 8).max(4);
                let cohort = (n * 7 / 8).max(2);
                let step = (cohort / p).max(1);
                if (t / p).is_multiple_of(2) {
                    (0, step)
                } else {
                    (step, 0)
                }
            }
            ScenarioKind::Storm => {
                // CKCS simultaneous storms: both sides large, every
                // interval.
                let burst = (n / 16).max(8);
                (
                    burst + self.rng.below(burst / 2 + 1),
                    burst + self.rng.below(burst / 2 + 1),
                )
            }
        }
    }

    /// Selects `count` distinct leaving members by partial Fisher–Yates
    /// over the live roster, removing them from it.
    fn pick_leaves(&mut self, count: usize) -> Vec<MemberId> {
        let count = count.min(self.live.len());
        for i in 0..count {
            let j = i + self.rng.below(self.live.len() - i);
            self.live.swap(i, j);
        }
        let picked: Vec<MemberId> = self.live.drain(..count).collect();
        self.departed.extend_from_slice(&picked);
        picked
    }

    /// Builds `count` join entries: rejoin-heavy traces take from the
    /// departed pool first (same member ID, fresh individual key — a
    /// returning member never reuses key material), the rest are brand
    /// new registrations.
    fn pick_joins(&mut self, count: usize) -> Vec<(MemberId, SymKey)> {
        let mut joins = Vec::with_capacity(count);
        let rejoin_first = matches!(self.config.kind, ScenarioKind::Oscillation);
        for _ in 0..count {
            let member = if rejoin_first && !self.departed.is_empty() {
                let i = self.rng.below(self.departed.len());
                self.departed.swap_remove(i)
            } else {
                let m = self.next_member;
                self.next_member += 1;
                m
            };
            joins.push((member, self.server.mint_individual_key()));
            self.live.push(member);
        }
        joins
    }

    /// Runs one interval: plans the batch, rekeys, folds the outcome into
    /// the digest, and returns the interval's metrics.
    pub fn step(&mut self) -> IntervalStats {
        let _span = obs::span("scenario.interval");
        let (j, l) = self.plan();
        let leaves = self.pick_leaves(l);
        let joins = self.pick_joins(j);
        let (joins_n, leaves_n) = (joins.len(), leaves.len());
        obs::counter_add("scenario.joins", joins_n as u64);
        obs::counter_add("scenario.leaves", leaves_n as u64);

        let artifacts = self.server.rekey(Batch::new(joins, leaves));
        let outcome = &artifacts.outcome;
        obs::counter_add("scenario.relocations", outcome.relocations.len() as u64);

        // Fold the batch's observable result into the running digest.
        let mut d = self.digest;
        if let Some(gk) = self.server.tree().group_key() {
            for chunk in gk.as_bytes().chunks(8) {
                let mut buf = [0u8; 8];
                buf[..chunk.len()].copy_from_slice(chunk);
                d = mix(d, u64::from_le_bytes(buf));
            }
        }
        d = mix(d, outcome.nk.map_or(u64::MAX, u64::from));
        d = mix(d, self.server.tree().user_count() as u64);
        d = mix(d, outcome.encryptions.len() as u64);
        for rl in &outcome.relocations {
            d = mix(d, u64::from(rl.member));
            d = mix(d, u64::from(rl.old_id));
            d = mix(d, u64::from(rl.new_id));
        }
        self.digest = d;

        let tree = self.server.tree();
        let users = tree.user_count();
        let layout = self.config.options.protocol.layout;
        let stats = IntervalStats {
            interval: self.interval,
            users,
            joins: joins_n,
            leaves: leaves_n,
            relocations: outcome.relocations.len(),
            encryptions: outcome.encryptions.len(),
            enc_per_member: if users == 0 {
                0.0
            } else {
                outcome.encryptions.len() as f64 / users as f64
            },
            bytes_on_wire: artifacts.assignment.stats.packets * layout.enc_packet_len,
            max_depth: tree.height(),
            mean_depth: tree.mean_user_depth(),
            resident_bytes: tree.resident_bytes(),
            nk: outcome.nk.map_or(u64::MAX, u64::from),
        };
        obs::gauge_set("scenario.users", users as u64);
        obs::gauge_set("scenario.max_depth", u64::from(stats.max_depth));
        obs::gauge_set("scenario.resident_bytes", stats.resident_bytes as u64);
        self.interval += 1;
        stats
    }

    /// Runs the remaining intervals and returns the full report.
    pub fn run(self) -> ScenarioReport {
        self.run_each(|_| {})
    }

    /// Like [`ScenarioEngine::run`], but also records every interval
    /// into `series`: the explicit [`IntervalStats`] columns plus, in
    /// obs-enabled builds, the per-interval stage-wall and counter
    /// deltas ([`obs::series::SeriesRecorder::snapshot_deltas`]).
    pub fn run_recorded(self, series: &mut obs::series::SeriesRecorder) -> ScenarioReport {
        self.run_each(|interval| record_interval(series, interval))
    }

    /// Runs the remaining intervals, handing each one's stats to `each`.
    fn run_each(mut self, mut each: impl FnMut(&IntervalStats)) -> ScenarioReport {
        let mut stats = Vec::with_capacity(self.config.intervals);
        while self.interval < self.config.intervals {
            let interval = self.step();
            each(&interval);
            stats.push(interval);
        }
        ScenarioReport {
            kind: self.config.kind,
            stats,
            digest: self.digest,
        }
    }
}

/// Appends one scenario interval to `series` as an `obs_series/v1` row:
/// the churn/size/cost columns of [`IntervalStats`] plus whatever the
/// obs span totals and counters advanced by during the interval.
fn record_interval(series: &mut obs::series::SeriesRecorder, stats: &IntervalStats) {
    series.begin_interval(stats.interval as u64);
    series.set("users", stats.users as f64);
    series.set("joins", stats.joins as f64);
    series.set("leaves", stats.leaves as f64);
    series.set("relocations", stats.relocations as f64);
    series.set("encryptions", stats.encryptions as f64);
    series.set("enc_per_member", stats.enc_per_member);
    series.set("bytes_on_wire", stats.bytes_on_wire as f64);
    series.set("max_depth", f64::from(stats.max_depth));
    series.set("mean_depth", stats.mean_depth);
    series.set("resident_bytes", stats.resident_bytes as f64);
    series.snapshot_deltas();
}

/// Convenience one-shot: builds the engine and runs the whole trace.
pub fn run(config: ScenarioConfig) -> ScenarioReport {
    ScenarioEngine::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use keytree::CompactionPolicy;

    fn small(kind: ScenarioKind) -> ScenarioConfig {
        ScenarioConfig {
            initial_users: 128,
            intervals: 32,
            ..ScenarioConfig::new(kind)
        }
    }

    #[test]
    fn traces_are_deterministic() {
        for kind in ScenarioKind::ALL {
            let a = run(small(kind));
            let b = run(small(kind));
            assert_eq!(a, b, "{} not replayable", kind.name());
            assert_eq!(a.stats.len(), 32);
        }
    }

    #[test]
    fn run_recorded_matches_plain_run_and_fills_columns() {
        let mut series = obs::series::SeriesRecorder::new();
        let recorded =
            ScenarioEngine::new(small(ScenarioKind::FlashCrowd)).run_recorded(&mut series);
        let plain = run(small(ScenarioKind::FlashCrowd));
        // Recording is a pure observer: same digest, same stats.
        assert_eq!(recorded, plain);
        assert_eq!(series.len(), recorded.stats.len());
        let users = series.column("users").expect("users column");
        for (v, s) in users.iter().zip(&recorded.stats) {
            assert_eq!(*v, s.users as f64);
        }
        let bytes = series.column("bytes_on_wire").expect("bytes column");
        assert!(bytes.iter().any(|&b| b > 0.0));
        assert!(obs::json::well_formed(&series.to_json()));
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(small(ScenarioKind::Storm));
        let mut cfg = small(ScenarioKind::Storm);
        cfg.seed ^= 1;
        let b = run(cfg);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn traces_shape_the_population_as_advertised() {
        let flash = run(small(ScenarioKind::FlashCrowd));
        let peak = flash.stats.iter().map(|s| s.users).max().unwrap();
        assert!(peak >= 200, "flash crowd never swelled: peak {peak}");

        let mass = run(small(ScenarioKind::MassDeparture));
        let min = mass.stats.iter().map(|s| s.users).min().unwrap();
        assert!(min <= 24, "mass departure never drained: min {min}");

        let storm = run(small(ScenarioKind::Storm));
        assert!(storm
            .stats
            .iter()
            .all(|s| s.joins >= 8 && s.leaves.min(s.joins) >= 1));
    }

    #[test]
    fn oscillation_rejoins_departed_members() {
        let mut engine = ScenarioEngine::new(small(ScenarioKind::Oscillation));
        let mut rejoined = false;
        let mut seen_departed: Vec<MemberId> = Vec::new();
        for _ in 0..32 {
            let before: Vec<MemberId> = engine.live.clone();
            engine.step();
            for m in &engine.live {
                if seen_departed.contains(m) && !before.contains(m) {
                    rejoined = true;
                }
            }
            seen_departed.extend(engine.departed.iter().copied());
        }
        assert!(rejoined, "oscillation trace never rejoined a member");
    }

    #[test]
    fn compaction_keeps_mass_departure_depth_bounded() {
        let mut with = small(ScenarioKind::MassDeparture);
        with.options.compaction = CompactionPolicy::DEFAULT_ON;
        let with = run(with);
        let without = run(small(ScenarioKind::MassDeparture));
        let last_with = with.stats.last().unwrap();
        let last_without = without.stats.last().unwrap();
        assert!(
            last_with.max_depth <= last_without.max_depth,
            "compaction made depth worse: {} vs {}",
            last_with.max_depth,
            last_without.max_depth
        );
        assert!(with.total_relocations() > 0);
        // Memory comes back down after the departure with compaction on.
        assert!(
            with.final_resident_bytes() < with.peak_resident_bytes(),
            "resident_bytes stayed at peak"
        );
    }
}
