//! Scalable, reliable group rekeying — the end-to-end system.
//!
//! This is the top-level crate of the reproduction of *"Reliable group
//! rekeying: a performance analysis"* (SIGCOMM 2001) and its companion
//! protocol paper. It wires the substrates together:
//!
//! ```text
//!           keytree (LKH + marking)        wirecrypto (cipher/MAC/seal)
//!                     \                       /
//!                  rekeymsg (UKA, blocks, wire formats, estimation)
//!                     |
//!                rekeyproto (server/user state machines)   rse (FEC)
//!                     |
//!                 grouprekey  <--- drives --->  netsim (lossy multicast)
//!                     |
//!    KeyServer::rekey, then transport::run — one pipeline, one round loop
//!              /                         \
//!   byte model (driver::Group)     count model (ExperimentRun, SimUser)
//! ```
//!
//! Main entry points:
//!
//! * [`KeyServer`] — owns the key tree, processes join/leave batches, and
//!   produces rekey messages: both drivers rekey through it.
//! * [`UserAgent`] — a user's key store: applies ENC/USR packets,
//!   rederives its ID, and tracks the group key.
//! * [`transport`] — the one transport loop (multicast rounds, NACK
//!   boundary, unicast tail) and the receiver trait its two models
//!   implement.
//! * [`driver`] — the byte model end to end: every packet is emitted to
//!   wire bytes, crosses the simulated lossy network, is parsed and
//!   cryptographically processed by user agents. Used by integration
//!   tests and examples.
//! * [`sim`] — the count model used to reproduce the paper's figures: the
//!   same loop and server stack, but users track share *counts* instead of
//!   share *bytes*.
//! * [`experiment`] — parameterised runners that regenerate each figure.
//! * [`frontend`] — authenticated join/leave requests and per-interval
//!   batch collection (the key-management component's request path).
//!
//! # Quickstart
//!
//! ```
//! use grouprekey::{KeyServer, ServerOptions};
//! use keytree::Batch;
//!
//! // A group of 64 users under a degree-4 key tree.
//! let mut server = KeyServer::bootstrap(64, ServerOptions::default());
//! let key0 = server.tree().group_key().unwrap();
//!
//! // One user leaves; the server builds the rekey message.
//! let artifacts = server.rekey(Batch::new(vec![], vec![17]));
//! assert!(artifacts.assignment.stats.packets >= 1);
//! assert_ne!(server.tree().group_key().unwrap(), key0);
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

mod agent;
/// Byte-faithful end-to-end driver: server, network, and user agents.
pub mod driver;
/// Parameterised experiment runners that regenerate the paper's figures.
pub mod experiment;
/// The key-management front end: authenticated join/leave requests.
pub mod frontend;
mod metrics;
/// Deep invariant pass run after every batch (`--features sanitize`).
#[cfg(feature = "sanitize")]
pub mod sanitize;
/// Trace-driven adversarial membership scenarios.
pub mod scenario;
mod server;
/// The count model of the transport: share-counting simulated users.
pub mod sim;
/// The one transport loop and its two receiver models.
pub mod transport;

pub use agent::{install_lanes, ApplyError, InstallScratch, UserAgent};
pub use metrics::MessageReport;
pub use server::{KeyServer, RekeyArtifacts, ServerOptions};
