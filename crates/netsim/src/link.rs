//! The two-state Markov burst-loss link, observed at packet times.

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::network::{check_positive, check_rate};
use crate::SimTime;

/// How a link loses packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Two-state Markov bursts with the given mean cycle (the paper's
    /// model: mean bad period `cycle * p`, mean good `cycle * (1 - p)`).
    Burst {
        /// Mean burst cycle in milliseconds.
        cycle_ms: f64,
    },
    /// Independent (Bernoulli) loss per packet — the ablation baseline
    /// that shows why block interleaving matters under bursts.
    Independent,
}

/// Past this exponent `exp(-x) < 2^-53`, the grid of a uniform `f64` draw:
/// the link has forgotten its state and the next one is drawn at `p`.
const FORGOTTEN: f64 = 37.0;

/// `t` on the grid of a uniform draw `x = next_u64() >> 11`: `x·2^-53 < t`
/// exactly when `x < grid(t)`. Panics, as `gen_bool`, unless `t ∈ [0, 1]`.
fn grid(t: f64) -> u64 {
    assert!((0.0..=1.0).contains(&t), "P(bad) = {t} not in [0, 1]");
    (t * (1u64 << 53) as f64).ceil() as u64
}

/// A link alternating between *good* (delivering) and *bad* (dropping)
/// periods with exponentially distributed holding times.
///
/// Parameterised by the stationary loss rate `p` and the burst cycle `c`
/// (default 100 ms): mean bad duration `c * p`, mean good duration
/// `c * (1 - p)`. The link keeps no timeline. A continuous-time chain
/// looked at only when a packet is sent is itself a Markov chain, with
/// `P(bad at t + dt | state at t) = p + (1{bad} - p) exp(-dt / (c p (1 - p)))`,
/// so a query draws the next state from the last: one uniform draw, exact
/// in law (DESIGN.md "Asking a link"). Queries must come at non-decreasing
/// times; asking again at the same instant repeats the answer, undrawn.
#[derive(Debug, Clone)]
pub struct MarkovLink {
    loss_rate: f64,
    independent: bool,
    /// `1 / (c p (1 - p))`, the sum of the chain's two rates per ms; read
    /// only when `p > 0`, formed only then.
    decay_per_ms: f64,
    bad: bool,
    rng: SmallRng,
    last_query: SimTime,
    /// The last gap asked at (packets are evenly spaced), and `P(bad)` after
    /// it from good and from bad on the draw's grid; `p` for an independent link.
    memo: (SimTime, [u64; 2]),
}

impl MarkovLink {
    /// Creates a link with stationary loss rate `p` (`0 <= p < 1`) and the
    /// given burst cycle in milliseconds; panics as [`MarkovLink::with_model`].
    pub fn new(p: f64, burst_cycle_ms: f64, seed: u64) -> Self {
        Self::with_model(
            p,
            LossModel::Burst {
                cycle_ms: burst_cycle_ms,
            },
            seed,
        )
    }

    /// Creates a link with an explicit loss model.
    ///
    /// # Panics
    /// On a rate or cycle [`crate::NetworkConfig::validate`] refuses.
    #[expect(
        clippy::panic,
        reason = "documented: a bad rate here is a caller bug; NetworkConfig::validate is the door that returns it"
    )]
    pub fn with_model(p: f64, model: LossModel, seed: u64) -> Self {
        let (independent, cycle_ms) = match model {
            LossModel::Burst { cycle_ms } => (false, cycle_ms),
            LossModel::Independent => (true, f64::INFINITY), // no cycle to check or use
        };
        if let Err(e) = check_rate("loss rate", p).and(check_positive("burst cycle", cycle_ms)) {
            panic!("{e}");
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        MarkovLink {
            loss_rate: p,
            independent,
            decay_per_ms: if p > 0.0 {
                1.0 / (cycle_ms * p * (1.0 - p))
            } else {
                0.0
            },
            // A burst link starts in the stationary distribution.
            bad: !independent && p > 0.0 && rng.gen_bool(p),
            rng,
            last_query: 0.0,
            memo: (0.0, [grid(p); 2]),
        }
    }

    /// Sends one packet at simulation time `now`; true when it gets through.
    /// The one step every question takes, inlined wherever a link is asked.
    #[inline(always)]
    pub fn transmit(&mut self, now: SimTime) -> bool {
        let dt = now - self.last_query;
        debug_assert!(
            dt >= -1e-9,
            "MarkovLink queried backwards in time: {now} < {}",
            self.last_query
        );
        self.last_query = self.last_query.max(now);
        let p = self.loss_rate;
        if self.independent {
            return p == 0.0 || self.rng.next_u64() >> 11 >= self.memo.1[0];
        }
        if dt <= 0.0 || p == 0.0 {
            return !self.bad;
        }
        if self.memo.0 != dt {
            self.memo = (dt, thresholds(p, self.decay_per_ms, dt));
        }
        let x = self.rng.next_u64() >> 11;
        let [good, bad] = self.memo.1;
        self.bad = if self.bad { x < bad } else { x < good };
        !self.bad
    }

    /// Asks at `times[j]` for each `j` in `span` with `source_ok[j]`, pushing
    /// to `got` each `j` that gets through. A local copy, written back once,
    /// keeps the link's state in registers.
    pub(crate) fn answer(
        &mut self,
        times: &[SimTime],
        source_ok: &[bool],
        span: Range<usize>,
        got: &mut Vec<usize>,
    ) {
        let (mut run, times, source_ok) =
            (self.clone(), &times[..span.end], &source_ok[..span.end]);
        for j in span {
            if source_ok[j] && run.transmit(times[j]) {
                got.push(j);
            }
        }
        *self = run;
    }
}

/// `P(bad)` after gap `dt` from good and from bad, on the draw's grid, `exp`
/// skipped past `FORGOTTEN`; cold and by value, so a walk's link stays in registers.
#[cold]
#[inline(never)]
fn thresholds(p: f64, decay_per_ms: f64, dt: SimTime) -> [u64; 2] {
    let x = dt * decay_per_ms;
    let memory = if x > FORGOTTEN { 0.0 } else { (-x).exp() };
    // In [0, 1] for every p in [0, 1): `memory <= 1` and rounding is monotone.
    [grid(p + -p * memory), grid(p + (1.0 - p) * memory)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_loss(p: f64, seed: u64, packets: usize, spacing: f64) -> f64 {
        let mut link = MarkovLink::new(p, 100.0, seed);
        let mut lost = 0;
        for i in 0..packets {
            if !link.transmit(i as f64 * spacing) {
                lost += 1;
            }
        }
        lost as f64 / packets as f64
    }

    #[test]
    fn lossless_link_never_drops() {
        let mut link = MarkovLink::new(0.0, 100.0, 0);
        for i in 0..10_000 {
            assert!(link.transmit(i as f64 * 13.7));
        }
    }

    #[test]
    fn stationary_loss_rate_matches_p() {
        for &p in &[0.02, 0.20, 0.50] {
            // Widely spaced packets decorrelate; loss fraction ~ p.
            let got = empirical_loss(p, 99, 200_000, 997.0);
            assert!((got - p).abs() < 0.01, "p = {p}, measured {got}");
        }
    }

    #[test]
    fn closely_spaced_packets_are_correlated() {
        // With 1 ms spacing inside a 100 ms burst cycle, consecutive
        // losses cluster: P(loss | previous loss) >> p.
        let p = 0.2;
        let mut link = MarkovLink::new(p, 100.0, 7);
        let mut prev_lost = false;
        let (mut after_loss, mut loss_after_loss) = (0u64, 0u64);
        for i in 0..500_000 {
            let lost = !link.transmit(i as f64);
            if prev_lost {
                after_loss += 1;
                if lost {
                    loss_after_loss += 1;
                }
            }
            prev_lost = lost;
        }
        let cond = loss_after_loss as f64 / after_loss as f64;
        assert!(
            cond > 3.0 * p,
            "conditional loss {cond} not bursty versus stationary {p}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let pattern = |seed: u64| -> Vec<bool> {
            let mut link = MarkovLink::new(0.3, 100.0, seed);
            (0..1000).map(|i| link.transmit(i as f64 * 10.0)).collect()
        };
        assert_eq!(pattern(5), pattern(5));
        assert_ne!(pattern(5), pattern(6));
    }

    #[test]
    fn mean_burst_duration_scales_with_p() {
        // Measure mean bad-period length by dense sampling.
        let p = 0.3;
        let mut link = MarkovLink::new(p, 100.0, 11);
        let dt = 0.25;
        let mut bursts = Vec::new();
        let mut current: Option<f64> = None;
        for i in 0..4_000_000u64 {
            let t = i as f64 * dt;
            let lost = !link.transmit(t);
            match (lost, current) {
                (true, None) => current = Some(dt),
                (true, Some(len)) => current = Some(len + dt),
                (false, Some(len)) => {
                    bursts.push(len);
                    current = None;
                }
                (false, None) => {}
            }
        }
        let mean = bursts.iter().sum::<f64>() / bursts.len() as f64;
        let expect = 100.0 * p;
        assert!(
            (mean - expect).abs() < expect * 0.1,
            "mean burst {mean}, expected ~{expect}"
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn loss_rate_one_rejected() {
        let _ = MarkovLink::new(1.0, 100.0, 0);
    }

    #[test]
    fn independent_mode_matches_rate_and_is_memoryless() {
        let p = 0.2;
        let mut link = MarkovLink::with_model(p, LossModel::Independent, 5);
        let mut lost = 0u64;
        let (mut after_loss, mut loss_after_loss) = (0u64, 0u64);
        let mut prev = false;
        let n = 400_000u64;
        for i in 0..n {
            let l = !link.transmit(i as f64); // densely spaced on purpose
            if l {
                lost += 1;
            }
            if prev {
                after_loss += 1;
                if l {
                    loss_after_loss += 1;
                }
            }
            prev = l;
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - p).abs() < 0.01, "rate {rate}");
        let cond = loss_after_loss as f64 / after_loss as f64;
        assert!(
            (cond - p).abs() < 0.03,
            "independent loss must be memoryless even at dense spacing: {cond}"
        );
    }

    // ---- The law oracle: the closed form against the formula and against
    // the event-driven link it replaced (DESIGN.md "Asking a link"). ----

    /// The holding-time replay `MarkovLink` was until PR 24, kept as the
    /// reference: it walks every good and bad period between two queries.
    struct ReplayLink {
        mean_ms: [f64; 2], // good, bad
        bad: bool,
        until: SimTime,
        rng: SmallRng,
    }

    impl ReplayLink {
        fn new(p: f64, cycle_ms: f64, seed: u64) -> Self {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut link = ReplayLink {
                mean_ms: [cycle_ms * (1.0 - p), cycle_ms * p],
                bad: rng.gen_bool(p),
                until: 0.0,
                rng,
            };
            link.until = link.holding();
            link
        }

        fn holding(&mut self) -> SimTime {
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            -self.mean_ms[usize::from(self.bad)] * u.ln()
        }

        fn transmit(&mut self, now: SimTime) -> bool {
            while self.until <= now {
                self.bad = !self.bad;
                self.until += self.holding();
            }
            !self.bad
        }
    }

    type Ask = Box<dyn FnMut(SimTime) -> bool>;

    /// Both engines at cycle 100 ms, closed form first.
    fn engines(p: f64, seed: u64) -> [(&'static str, Ask); 2] {
        let mut closed = MarkovLink::new(p, 100.0, seed);
        let mut replay = ReplayLink::new(p, 100.0, seed);
        [
            ("closed form", Box::new(move |t| closed.transmit(t))),
            ("replay", Box::new(move |t| replay.transmit(t))),
        ]
    }

    /// `P(bad at t + dt | state at t)` at cycle 100 ms.
    fn law(p: f64, from_bad: bool, dt: f64) -> f64 {
        let at = if from_bad { 1.0 } else { 0.0 };
        p + (at - p) * (-dt / (100.0 * p * (1.0 - p))).exp()
    }

    /// Whether each query in `times` was lost.
    fn observe(ask: &mut Ask, times: impl Iterator<Item = SimTime>) -> Vec<(SimTime, bool)> {
        times.map(|t| (t, !ask(t))).collect()
    }

    /// Checks every consecutive pair of observations against [`law`]: per
    /// distinct gap and starting state, the share of pairs ending bad is a
    /// binomial proportion (given the first state, the second is one
    /// independent draw), and must be within 4 sigma of the formula.
    fn assert_two_point_law(what: &str, p: f64, seen: &[(SimTime, bool)]) {
        // (gap, from_bad) -> (pairs, pairs ending bad)
        let mut groups: Vec<((u64, bool), (u64, u64))> = Vec::new();
        for pair in seen.windows(2) {
            let key = ((pair[1].0 - pair[0].0).to_bits(), pair[0].1);
            let at = groups.iter().position(|g| g.0 == key).unwrap_or_else(|| {
                groups.push((key, (0, 0)));
                groups.len() - 1
            });
            groups[at].1 .0 += 1;
            groups[at].1 .1 += u64::from(pair[1].1);
        }
        for ((gap, from_bad), (n, bad)) in groups {
            let gap = f64::from_bits(gap);
            let q = law(p, from_bad, gap);
            let got = bad as f64 / n as f64;
            let sigma = (q * (1.0 - q) / n as f64).sqrt();
            assert!(n >= 1000, "{what}: p {p} gap {gap}: only {n} pairs");
            assert!(
                (got - q).abs() <= 4.0 * sigma,
                "{what}: p {p}, gap {gap} ms, from_bad {from_bad}: {got} over {n} pairs, law {q}, sigma {sigma}"
            );
        }
    }

    #[test]
    fn transition_probabilities_match_the_formula_at_every_spacing() {
        for p in [0.02, 0.2, 0.5] {
            for dt in [0.25, 1.0, 10.0, 100.0, 1000.0] {
                for (what, mut ask) in engines(p, 31) {
                    let seen = observe(&mut ask, (0..200_000).map(|i| i as f64 * dt));
                    assert_two_point_law(what, p, &seen);
                }
            }
        }
    }

    /// The transport's schedule: a round is a train of packets 100 ms apart,
    /// rounds are seconds apart, and a receiver that already has its keys is
    /// not asked for a whole train.
    #[test]
    fn trains_gaps_and_skipped_trains_match_the_formula() {
        let schedule = || {
            (0..30_000u64)
                .filter(|train| train % 3 != 2)
                .flat_map(|train| (0..12u64).map(move |i| (train * 4100 + i * 100) as f64))
        };
        for p in [0.2, 0.5] {
            for (what, mut ask) in engines(p, 32) {
                // Gaps of 100, 3000 and 7100 ms.
                assert_two_point_law(what, p, &observe(&mut ask, schedule()));
            }
        }
    }

    /// Chapman–Kolmogorov, empirically: a query in the middle of an
    /// interval does not perturb the process. Asked at gaps 3, 7, 3, 7, ...
    /// ms, every second answer obeys the law of a 10 ms gap.
    #[test]
    fn an_intermediate_query_changes_nothing() {
        for p in [0.2, 0.5] {
            for (what, mut ask) in engines(p, 33) {
                let times = (0..400_000u64).map(|i| (i / 2 * 10 + i % 2 * 3) as f64);
                let seen = observe(&mut ask, times);
                assert_two_point_law(what, p, &seen);
                let every_second: Vec<_> = seen.iter().copied().step_by(2).collect();
                assert_two_point_law(what, p, &every_second);
            }
        }
    }

    /// Lengths of runs of consecutive losses, bucketed 1, 2, 3-4, 5-8, ...
    fn loss_runs(seen: &[(SimTime, bool)]) -> Vec<u64> {
        let mut buckets = vec![0u64; 12];
        let mut run = 0u64;
        for &(_, lost) in seen {
            if lost {
                run += 1;
            } else if run > 0 {
                buckets[(u64::BITS - (run - 1).leading_zeros()) as usize] += 1;
                run = 0;
            }
        }
        buckets
    }

    #[test]
    fn loss_run_lengths_match_the_replay_link() {
        for dt in [1.0, 100.0] {
            let [closed, replay] = engines(0.2, 34).map(|(_, mut ask)| {
                loss_runs(&observe(&mut ask, (0..1_000_000).map(|i| i as f64 * dt)))
            });
            let (n_closed, n_replay) = (closed.iter().sum::<u64>(), replay.iter().sum::<u64>());
            for (bucket, (&a, &b)) in closed.iter().zip(&replay).enumerate() {
                let (fa, fb) = (a as f64 / n_closed as f64, b as f64 / n_replay as f64);
                let pooled = (a + b) as f64 / (n_closed + n_replay) as f64;
                let sigma =
                    (pooled * (1.0 - pooled) * (1.0 / n_closed as f64 + 1.0 / n_replay as f64))
                        .sqrt();
                assert!(
                    (fa - fb).abs() <= 4.0 * sigma,
                    "spacing {dt} ms, bucket {bucket}: closed form {fa} of {n_closed} runs, replay {fb} of {n_replay}"
                );
            }
        }
    }

    // ---- Edge cases of the formula. ----

    #[test]
    fn a_lossless_link_never_forms_the_rate() {
        // 1 / (c * 0 * 1) would be infinite, and 0 * inf a NaN exponent.
        let mut link = MarkovLink::new(0.0, 100.0, 3);
        assert_eq!(link.decay_per_ms, 0.0);
        assert!((0..1000).all(|i| link.transmit(i as f64 * 0.5)));
    }

    #[test]
    fn extreme_rates_give_probabilities_in_the_unit_interval() {
        // `grid` panics on a probability outside [0, 1] or NaN, so
        // surviving the queries is the assertion.
        for (p, expect_delivery) in [(f64::MIN_POSITIVE, true), (1.0 - f64::EPSILON, false)] {
            for cycle_ms in [f64::MIN_POSITIVE, 100.0, f64::MAX] {
                let mut link = MarkovLink::new(p, cycle_ms, 4);
                assert!(link.decay_per_ms >= 0.0, "p {p}, cycle {cycle_ms}");
                let mut now = 0.0;
                for dt in [f64::MIN_POSITIVE, 1e-9, 0.25, 100.0, 1e12, 1e300] {
                    for _ in 0..200 {
                        now += dt;
                        assert_eq!(link.transmit(now), expect_delivery, "p {p}, dt {dt}");
                    }
                }
            }
        }
    }

    #[test]
    fn asking_again_at_the_same_instant_draws_nothing() {
        let mut link = MarkovLink::new(0.5, 100.0, 5);
        let first = link.transmit(0.0);
        let mut answers = vec![first, link.transmit(-1e-9)];
        link.transmit(40.0);
        let untouched = link.clone();
        // Same instant, and as early as the backwards-query check tolerates.
        answers.extend([link.transmit(40.0), link.transmit(40.0 - 5e-10)]);
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[2], answers[3]);
        assert_eq!(answers[2], !untouched.bad);
        // No draw was spent: both copies go on to the same future.
        let future = |mut l: MarkovLink| -> Vec<bool> {
            (1..200)
                .map(|i| l.transmit(40.0 + i as f64 * 7.0))
                .collect()
        };
        assert_eq!(future(link), future(untouched));
    }

    #[test]
    fn the_exp_is_skipped_or_remembered() {
        // p = 0.02 at 100 ms: exponent 51, past f64 resolution, so both
        // thresholds are `p`'s and `exp` is never taken.
        let mut low = MarkovLink::new(0.02, 100.0, 6);
        // p = 0.2 at 100 ms: exponent 6.25, taken once for the whole train.
        let mut high = MarkovLink::new(0.2, 100.0, 6);
        let m = (-6.25f64).exp();
        let train = [grid(0.2 + -0.2 * m), grid(0.2 + 0.8 * m)];
        for i in 1..50 {
            low.transmit(i as f64 * 100.0);
            high.transmit(i as f64 * 100.0);
            assert_eq!(high.memo, (100.0, train));
        }
        assert_eq!(low.memo, (100.0, [grid(0.02); 2]));
        // A new gap points the memo at it; a repeated instant leaves it be.
        high.transmit(5050.0);
        high.transmit(5050.0);
        let m = (-9.375f64).exp();
        assert_eq!(
            high.memo,
            (150.0, [grid(0.2 + -0.2 * m), grid(0.2 + 0.8 * m)])
        );
    }

    /// The grid compare is the `f64` compare of a uniform draw, exactly:
    /// `(x as f64) * 2^-53 < t` exactly when `x < grid(t)`, at the grid
    /// points next to the threshold and at both ends of the draw's range.
    #[test]
    fn the_grid_compare_is_exact_at_its_boundary() {
        let ulp = 2f64.powi(-53);
        let m = (-6.25f64).exp();
        for t in [
            0.0,
            ulp,
            0.02,
            0.2,
            0.5,
            1.0 - ulp,
            1.0,
            0.2 + -0.2 * m,
            0.2 + 0.8 * m,
        ] {
            let cut = grid(t);
            let top = (1u64 << 53) - 1;
            for x in [0, cut.saturating_sub(1), cut, cut + 1, top].map(|x| x.min(top)) {
                assert_eq!(x < cut, (x as f64) * ulp < t, "t {t:e}, x {x}, grid {cut}");
            }
        }
        assert_eq!((grid(0.0), grid(ulp), grid(1.0)), (0, 1, 1 << 53));
    }

    /// The answers of one seeded link per loss law on a fixed schedule,
    /// folded FNV-style into one word. The schedule holds trains of 100 ms
    /// gaps, round boundaries of 150 and 250 ms, repeated instants, the
    /// ~1 ns backwards query the debug check tolerates (2^-30 ms, exact on
    /// these times) and gaps of a second, past `FORGOTTEN` at every rate.
    #[test]
    fn answers_match_the_recorded_vector() {
        let links = [
            MarkovLink::new(0.02, 100.0, 41),
            MarkovLink::new(0.2, 100.0, 42),
            MarkovLink::new(0.5, 100.0, 43),
            MarkovLink::with_model(0.2, LossModel::Independent, 44),
            MarkovLink::new(0.0, 100.0, 45),
        ];
        let mut fold = 0xCBF2_9CE4_8422_2325u64;
        for mut link in links {
            let mut now: SimTime = 0.0;
            for step in 0..6000u32 {
                now += match step % 32 {
                    0 => 150.0,
                    7 | 19 => 0.0,
                    11 => -(2f64.powi(-30)),
                    12 => 2f64.powi(-30) + 100.0,
                    23 => 250.0,
                    31 => 1000.0,
                    _ => 100.0,
                };
                fold = (fold ^ u64::from(link.transmit(now))).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        // Recorded with the `f64` draw (`gen_bool(p + pull * memory)`) the
        // grid compare replaced.
        assert_eq!(fold, 0x2668_8ecb_3c2f_c010);
    }
}
