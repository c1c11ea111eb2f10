//! Deterministic network simulation for rekey transport.
//!
//! The paper evaluates its protocol on the topology of Nonnenmacher et
//! al.: the key server reaches a loss-free backbone through one *source
//! link*, and each user hangs off the backbone through its own *receiver
//! link*. Every link is an independent two-state (good/bad) continuous-time
//! Markov process; during *bad* periods all packets on the link are lost.
//! With loss rate `p`, the mean bad-period duration is `100 p` ms and the
//! mean good-period duration is `100 (1 - p)` ms, so the stationary loss
//! probability is exactly `p` with a 100 ms burst cycle — the paper's
//! burst-loss model.
//!
//! A fraction `alpha` of users are *high-loss* receivers (`p_high`, default
//! 20%); the rest see `p_low` (default 2%); the source link has `p_source`
//! (default 1%).
//!
//! Everything is driven by explicit simulation time and a seeded RNG, so
//! runs are exactly reproducible. There is no event queue and no timeline:
//! the caller (the transport loop in `grouprekey`) advances the clock itself,
//! one send interval per packet, and asks each link whether the packet got
//! through. A link answers from the state it last reported and the time
//! since, through the chain's closed-form transition
//! `P(bad at t + dt | s) = p + (1{s = bad} - p) exp(-dt / (c p (1 - p)))` —
//! one uniform draw per query, the same law as replaying every good and bad
//! period in between ([`MarkovLink`]; its tests keep that replay as the
//! oracle). A link nobody asks costs nothing.
//!
//! [`NetworkConfig::validate`] states which configurations can be simulated;
//! [`Network::new`] panics on the rest.

//! # Example
//!
//! ```
//! use netsim::{Network, NetworkConfig};
//!
//! let mut net = Network::new(NetworkConfig {
//!     n_users: 8,
//!     alpha: 0.5,   // half the receivers on high-loss links
//!     seed: 7,
//!     ..NetworkConfig::default()
//! });
//! // One packet at t = 0 ms: the source link first, then each listener's
//! // own link, and only if the source delivered.
//! let source_ok = net.source_delivers(0.0);
//! let delivered: Vec<bool> = (0..8)
//!     .map(|user| source_ok && net.link_delivers(user, 0.0))
//!     .collect();
//! assert_eq!(delivered.len(), 8);
//! // Same seed, same losses: simulations are exactly reproducible.
//! ```

// Panic-free outside tests; an exception is a reasoned `#[expect]` (ci.sh denies clippy warnings).
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

mod link;
mod network;

pub use link::{LossModel, MarkovLink};
pub use network::{NetConfigError, Network, NetworkConfig, UserClass};

/// Simulation time in milliseconds.
pub type SimTime = f64;
