//! The star-of-links multicast topology.

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::link::{LossModel, MarkovLink};
use crate::SimTime;

/// Loss class of one user.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserClass {
    /// Receiver link at `p_high`.
    HighLoss,
    /// Receiver link at `p_low`.
    LowLoss,
}

/// Topology and loss parameters (defaults are the paper's).
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Number of users (receiver links).
    pub n_users: usize,
    /// Fraction of users in the high-loss class.
    pub alpha: f64,
    /// Receiver loss rate of high-loss users.
    pub p_high: f64,
    /// Receiver loss rate of low-loss users.
    pub p_low: f64,
    /// Source-link loss rate.
    pub p_source: f64,
    /// Mean burst cycle of every link, milliseconds.
    pub burst_cycle_ms: f64,
    /// Use independent (Bernoulli) loss instead of Markov bursts — the
    /// ablation baseline for interleaving/burstiness studies.
    pub independent_loss: bool,
    /// Server inter-packet send spacing, milliseconds (10 pkt/s default).
    pub send_interval_ms: f64,
    /// One-way server-to-user latency, milliseconds.
    pub one_way_delay_ms: f64,
    /// RNG seed; every link derives an independent stream from it.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            n_users: 4096,
            alpha: 0.20,
            p_high: 0.20,
            p_low: 0.02,
            p_source: 0.01,
            burst_cycle_ms: 100.0,
            independent_loss: false,
            send_interval_ms: 100.0,
            one_way_delay_ms: 25.0,
            seed: 1,
        }
    }
}

/// Why a [`NetworkConfig`] (or one link of it) cannot be simulated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetConfigError {
    /// A loss rate that is NaN or outside `[0, 1)`: which one, and its value.
    LossRate(&'static str, f64),
    /// `alpha` is NaN or outside `[0, 1]`.
    Alpha(f64),
    /// `n_users` is zero.
    NoUsers,
    /// A burst cycle or send interval that is not above zero (or NaN).
    NotPositive(&'static str, f64),
}

impl std::fmt::Display for NetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            NetConfigError::LossRate(what, p) => write!(f, "{what} {p} outside [0, 1)"),
            NetConfigError::Alpha(a) => write!(f, "alpha {a} outside [0, 1]"),
            NetConfigError::NoUsers => write!(f, "need at least one user"),
            NetConfigError::NotPositive(what, v) => write!(f, "{what} {v} ms is not above zero"),
        }
    }
}

impl std::error::Error for NetConfigError {}

pub(crate) fn check_rate(what: &'static str, p: f64) -> Result<(), NetConfigError> {
    if (0.0..1.0).contains(&p) {
        Ok(())
    } else {
        Err(NetConfigError::LossRate(what, p))
    }
}

pub(crate) fn check_positive(what: &'static str, ms: f64) -> Result<(), NetConfigError> {
    if ms > 0.0 {
        Ok(())
    } else {
        Err(NetConfigError::NotPositive(what, ms))
    }
}

impl NetworkConfig {
    /// The one statement of what can be simulated: every loss rate in
    /// `[0, 1)`, `alpha` in `[0, 1]`, at least one user, burst cycle and
    /// send interval above zero (NaN fails each). [`Network::new`] and
    /// [`MarkovLink::with_model`] panic on exactly what this refuses.
    pub fn validate(&self) -> Result<(), NetConfigError> {
        if self.n_users == 0 {
            return Err(NetConfigError::NoUsers);
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(NetConfigError::Alpha(self.alpha));
        }
        check_rate("p_high", self.p_high)?;
        check_rate("p_low", self.p_low)?;
        check_rate("p_source", self.p_source)?;
        check_positive("burst cycle", self.burst_cycle_ms)?;
        check_positive("send interval", self.send_interval_ms)
    }
}

/// The simulated network: one source link plus per-user receiver links.
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    source: MarkovLink,
    receivers: Vec<MarkovLink>,
    classes: Vec<UserClass>,
}

impl Network {
    /// Builds the topology: exactly `round(alpha * n)` high-loss users,
    /// assigned pseudo-randomly by the seed.
    ///
    /// # Panics
    /// On a configuration [`NetworkConfig::validate`] refuses.
    #[expect(
        clippy::panic,
        reason = "documented: an unchecked config is a caller bug; NetworkConfig::validate is the door that returns it"
    )]
    pub fn new(config: NetworkConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xC0FF_EE00_D15E_A5E5);

        // Choose the high-loss subset by a seeded shuffle of indices.
        let n_high = (config.alpha * config.n_users as f64).round() as usize;
        let mut order: Vec<usize> = (0..config.n_users).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut classes = vec![UserClass::LowLoss; config.n_users];
        for &u in order.iter().take(n_high) {
            classes[u] = UserClass::HighLoss;
        }

        let model = if config.independent_loss {
            LossModel::Independent
        } else {
            LossModel::Burst {
                cycle_ms: config.burst_cycle_ms,
            }
        };
        let receivers = classes
            .iter()
            .map(|c| {
                let p = match c {
                    UserClass::HighLoss => config.p_high,
                    UserClass::LowLoss => config.p_low,
                };
                MarkovLink::with_model(p, model, rng.gen())
            })
            .collect();

        Network {
            source: MarkovLink::with_model(config.p_source, model, rng.gen()),
            receivers,
            classes,
            config,
        }
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.receivers.len()
    }

    /// Loss class of a user.
    pub fn class_of(&self, user: usize) -> UserClass {
        self.classes[user]
    }

    /// Sends one multicast packet across the source link at time `now`;
    /// true when it reaches the backbone (a loss there hits every user).
    /// Ask once per packet sent, then [`Network::link_delivers`] for each
    /// listener, and only if this said true.
    // xcheck: no_alloc
    pub fn source_delivers(&mut self, now: SimTime) -> bool {
        obs::counter_add("net.multicast_packets", 1);
        self.source.transmit(now)
    }

    /// Carries a multicast packet that crossed the source link at time
    /// `now` over `user`'s receiver link; true when it gets through. A link
    /// nobody asks is not drawn: its loss process catches up at the next
    /// query.
    // xcheck: no_alloc
    pub fn link_delivers(&mut self, user: usize, now: SimTime) -> bool {
        ask(&mut self.receivers[user], now, "net.deliveries")
    }

    /// Walks `user` through packets `span` of a round sent at `times`: the source
    /// to the span's end, past what earlier walks left in `source_ok`, then the
    /// user's link as [`Network::link_delivers`] would. Pushes what gets through to `got`.
    // xcheck: no_alloc
    pub fn walk(
        &mut self,
        user: usize,
        times: &[SimTime],
        source_ok: &mut Vec<bool>,
        span: Range<usize>,
        got: &mut Vec<usize>,
    ) {
        let unasked = &times[source_ok.len().min(span.end)..span.end];
        obs::counter_add("net.multicast_packets", unasked.len() as u64);
        let source = &mut self.source;
        source_ok.extend(unasked.iter().map(|&now| source.transmit(now)));
        let before = got.len();
        self.receivers[user].answer(times, source_ok, span.clone(), got);
        // Counted only where it is recorded: the query count is a pass of its own.
        if obs::enabled() {
            let queries = source_ok[span].iter().filter(|&&ok| ok).count();
            obs::counter_add("net.link_queries", queries as u64);
            obs::counter_add("net.deliveries", (got.len() - before) as u64);
        }
    }

    /// One multicast packet to the users in `listeners`, asked as
    /// [`Network::source_delivers`] then [`Network::link_delivers`] per
    /// listener, in order. Clears `delivered` and fills it with one flag per
    /// entry of `listeners`, reusing the buffer's capacity across packets.
    // xcheck: no_alloc
    pub fn multicast_to_into(
        &mut self,
        now: SimTime,
        listeners: &[usize],
        delivered: &mut Vec<bool>,
    ) {
        delivered.clear();
        let source_ok = self.source_delivers(now);
        delivered.extend(
            listeners
                .iter()
                .map(|&u| source_ok && self.link_delivers(u, now)),
        );
    }

    /// Unicasts one packet to `user` at time `now` (source + receiver
    /// link, same as multicast but for one destination).
    // xcheck: no_alloc
    pub fn unicast(&mut self, now: SimTime, user: usize) -> bool {
        obs::counter_add("net.unicast_packets", 1);
        self.source.transmit(now) && ask(&mut self.receivers[user], now, "net.unicast_delivered")
    }
}

/// Asks a receiver link, counting the query and, in `delivered`, a delivery.
#[inline]
fn ask(link: &mut MarkovLink, now: SimTime, delivered: &'static str) -> bool {
    obs::counter_add("net.link_queries", 1);
    let ok = link.transmit(now);
    if ok {
        obs::counter_add(delivered, 1);
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(n: usize, alpha: f64, seed: u64) -> Network {
        Network::new(NetworkConfig {
            n_users: n,
            alpha,
            seed,
            ..NetworkConfig::default()
        })
    }

    /// One packet multicast to every user: a delivery flag per user.
    fn multicast(net: &mut Network, now: SimTime) -> Vec<bool> {
        let everyone: Vec<usize> = (0..net.n_users()).collect();
        let mut delivered = Vec::new();
        net.multicast_to_into(now, &everyone, &mut delivered);
        delivered
    }

    #[test]
    fn high_loss_population_matches_alpha() {
        let net = small(1000, 0.20, 3);
        let high = (0..1000)
            .filter(|&u| net.class_of(u) == UserClass::HighLoss)
            .count();
        assert_eq!(high, 200);
    }

    #[test]
    fn alpha_zero_and_one() {
        let net0 = small(100, 0.0, 3);
        assert!((0..100).all(|u| net0.class_of(u) == UserClass::LowLoss));
        let net1 = small(100, 1.0, 3);
        assert!((0..100).all(|u| net1.class_of(u) == UserClass::HighLoss));
    }

    #[test]
    fn multicast_loss_rates_by_class() {
        let mut net = small(400, 0.5, 17);
        let mut received = vec![0u32; 400];
        let rounds = 4000;
        for i in 0..rounds {
            // Wide spacing to decorrelate the burst process.
            let got = multicast(&mut net, i as f64 * 500.0);
            for (u, ok) in got.iter().enumerate() {
                if *ok {
                    received[u] += 1;
                }
            }
        }
        // Expected delivery: (1 - p_source)(1 - p_class).
        let mut high_rate = Vec::new();
        let mut low_rate = Vec::new();
        for (u, &r) in received.iter().enumerate() {
            let rate = r as f64 / rounds as f64;
            match net.class_of(u) {
                UserClass::HighLoss => high_rate.push(rate),
                UserClass::LowLoss => low_rate.push(rate),
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let high = mean(&high_rate);
        let low = mean(&low_rate);
        assert!(
            (high - 0.99 * 0.80).abs() < 0.02,
            "high-class delivery {high}"
        );
        assert!((low - 0.99 * 0.98).abs() < 0.02, "low-class delivery {low}");
    }

    #[test]
    fn source_loss_hits_everyone_together() {
        // With p_source ~ 50% and lossless receivers, outcomes per packet
        // are all-true or all-false.
        let mut net = Network::new(NetworkConfig {
            n_users: 50,
            alpha: 0.0,
            p_low: 0.0,
            p_source: 0.5,
            seed: 9,
            ..NetworkConfig::default()
        });
        let mut saw_all_false = false;
        for i in 0..2000 {
            let got = multicast(&mut net, i as f64 * 300.0);
            let any = got.iter().any(|&b| b);
            let all = got.iter().all(|&b| b);
            assert!(any == all, "partial delivery despite lossless receivers");
            saw_all_false |= !any;
        }
        assert!(saw_all_false, "source link never dropped at p = 0.5");
    }

    #[test]
    fn determinism() {
        let run = |seed: u64| -> Vec<bool> {
            let mut net = small(64, 0.3, seed);
            (0..200)
                .flat_map(|i| multicast(&mut net, i as f64 * 40.0))
                .collect()
        };
        assert_eq!(run(12), run(12));
        assert_ne!(run(12), run(13));
    }

    #[test]
    fn unicast_uses_both_links() {
        let mut net = Network::new(NetworkConfig {
            n_users: 4,
            alpha: 1.0,
            p_high: 0.5,
            p_source: 0.0,
            seed: 20,
            ..NetworkConfig::default()
        });
        let mut delivered = 0;
        let trials = 20_000;
        for i in 0..trials {
            if net.unicast(i as f64 * 400.0, 0) {
                delivered += 1;
            }
        }
        let rate = delivered as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.02, "unicast delivery {rate}");
    }

    #[test]
    fn multicast_to_subset() {
        let mut net = small(100, 0.0, 4);
        let listeners = vec![3, 50, 99];
        let mut got = vec![true; 7];
        net.multicast_to_into(0.0, &listeners, &mut got);
        assert_eq!(got.len(), 3, "one flag per listener, stale flags cleared");
    }

    /// The per-link queries, asked link by link — the source once per
    /// packet, then each listener's whole train — answer what one
    /// `multicast_to_into` per packet answers, and leave every link in the
    /// same state: a link owns its RNG, so only its own questions matter.
    #[test]
    fn link_by_link_queries_agree_with_multicast_to_into() {
        for independent_loss in [false, true] {
            for p in [0.0, 0.02, 0.2] {
                let config = NetworkConfig {
                    n_users: 48,
                    alpha: 0.5,
                    p_high: p,
                    p_low: p / 2.0,
                    p_source: p,
                    independent_loss,
                    seed: 23,
                    ..NetworkConfig::default()
                };
                let (mut packet_major, mut link_major) =
                    (Network::new(config), Network::new(config));
                let listeners: Vec<usize> = (0..48).filter(|u| u % 5 != 2).collect();
                let times: Vec<SimTime> = (0..400).map(|i| f64::from(i) * 37.5).collect();

                let mut flags = Vec::new();
                let by_packet: Vec<Vec<bool>> = times
                    .iter()
                    .map(|&now| {
                        packet_major.multicast_to_into(now, &listeners, &mut flags);
                        flags.clone()
                    })
                    .collect();

                let source: Vec<bool> = times
                    .iter()
                    .map(|&t| link_major.source_delivers(t))
                    .collect();
                let mut by_link = vec![vec![false; listeners.len()]; times.len()];
                for (i, &u) in listeners.iter().enumerate() {
                    for (j, &now) in times.iter().enumerate() {
                        by_link[j][i] = source[j] && link_major.link_delivers(u, now);
                    }
                }

                let what = format!("p {p}, independent {independent_loss}");
                assert_eq!(by_packet, by_link, "{what}: delivery flags");
                assert_eq!(
                    format!("{packet_major:?}"),
                    format!("{link_major:?}"),
                    "{what}: link states afterwards"
                );
                if p > 0.0 {
                    assert!(by_packet.iter().flatten().any(|&ok| !ok), "{what}: no loss");
                }
            }
        }
    }

    /// A walk in spans answers what per-question `transmit` on a twin
    /// network answers, and leaves every link (RNG, `bad`, last query time,
    /// memo) as the twin's: with a lossy source that breaks the gaps, spans
    /// that open a tick backwards or at a repeated instant, gaps past
    /// `FORGOTTEN`, empty spans, and burst, independent and `p = 0` links.
    #[test]
    fn walk_spans_match_per_question_transmit_on_a_twin() {
        let tick = 2f64.powi(-30);
        let mut times = Vec::new();
        for train in 0..40u32 {
            let first = f64::from(train) * 5000.0;
            times.extend((0..12).map(|i| first + f64::from(i) * 100.0));
            times.extend([first + 1100.0, first + 1100.0 - tick, first + 1250.0]);
        }
        let spans = [3, 1, 0, 7, 2, 12, 5];
        for (independent_loss, p) in [(false, 0.2), (false, 0.02), (true, 0.2), (false, 0.0)] {
            let config = NetworkConfig {
                n_users: 6,
                alpha: 0.5,
                p_high: p,
                p_low: p / 2.0,
                p_source: 0.3,
                independent_loss,
                seed: 29,
                ..NetworkConfig::default()
            };
            let (mut net, mut twin) = (Network::new(config), Network::new(config));
            let source: Vec<bool> = times.iter().map(|&t| twin.source_delivers(t)).collect();
            let mut source_ok = Vec::new();
            for user in 0..6 {
                let mut got = Vec::new();
                let mut start = 0;
                for len in spans.iter().cycle().skip(user) {
                    let end = times.len().min(start + len);
                    net.walk(user, &times, &mut source_ok, start..end, &mut got);
                    if end == times.len() {
                        break;
                    }
                    start = end;
                }
                let asked: Vec<usize> = (0..times.len())
                    .filter(|&j| source[j] && twin.link_delivers(user, times[j]))
                    .collect();
                let what = format!("p {p}, independent {independent_loss}, user {user}");
                assert_eq!(got, asked, "{what}: deliveries");
            }
            assert_eq!(source_ok, source, "the source, asked once per packet");
            assert!(source.iter().any(|&ok| !ok), "the source must drop");
            assert_eq!(
                format!("{net:?}"),
                format!("{twin:?}"),
                "p {p}: link states"
            );
        }
    }

    #[test]
    fn validate_names_what_cannot_be_simulated() {
        let ok = NetworkConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let bad = |edit: fn(&mut NetworkConfig)| {
            let mut config = ok;
            edit(&mut config);
            config.validate().unwrap_err()
        };
        assert_eq!(bad(|c| c.n_users = 0), NetConfigError::NoUsers);
        assert_eq!(bad(|c| c.alpha = 1.5), NetConfigError::Alpha(1.5));
        assert_eq!(
            bad(|c| c.p_high = 1.0),
            NetConfigError::LossRate("p_high", 1.0)
        );
        assert_eq!(
            bad(|c| c.p_low = -0.1),
            NetConfigError::LossRate("p_low", -0.1)
        );
        assert_eq!(
            bad(|c| c.burst_cycle_ms = 0.0),
            NetConfigError::NotPositive("burst cycle", 0.0)
        );
        assert_eq!(
            bad(|c| c.send_interval_ms = -100.0),
            NetConfigError::NotPositive("send interval", -100.0)
        );
        // NaN compares false with everything, itself included.
        assert!(matches!(
            bad(|c| c.alpha = f64::NAN),
            NetConfigError::Alpha(_)
        ));
        assert!(matches!(
            bad(|c| c.p_source = f64::NAN),
            NetConfigError::LossRate("p_source", _)
        ));
        assert!(matches!(
            bad(|c| c.burst_cycle_ms = f64::NAN),
            NetConfigError::NotPositive("burst cycle", _)
        ));
    }

    #[test]
    #[should_panic(expected = "p_high 1 outside [0, 1)")]
    fn new_panics_with_what_validate_returns() {
        let _ = Network::new(NetworkConfig {
            p_high: 1.0,
            ..NetworkConfig::default()
        });
    }
}
