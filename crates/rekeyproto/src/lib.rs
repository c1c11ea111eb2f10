//! Server and user protocol state machines for reliable group rekeying.
//!
//! This crate is **sans-I/O**: the state machines consume packets and emit
//! packets/decisions, and a driver (the `grouprekey` crate) moves bytes
//! over a real or simulated network. The machines implement the paper's
//! Figures 2, 3, 11, 22, 26 and 27:
//!
//! * [`ServerController`] — cross-message state: the proactivity factor
//!   `rho` and the NACK target `numNACK`, with the `AdjustRho` adaptation
//!   (Figure 11) and the `numNACK` deadline heuristics.
//! * [`ServerSession`] — one rekey message at the server: round-one
//!   multicast schedule (ENC + proactive PARITY, interleaved), NACK
//!   aggregation into `amax[i]`, reactive rounds, the multicast→unicast
//!   switch rule, and escalating USR duplication (Figure 22).
//! * [`BlockSearch`] — the receive rules without payload, one copy for both
//!   transport models: share-index check, 16-bit ID guard, block-ID
//!   estimation and ruled-out test (Appendix D), share bitsets, NACK.
//! * [`UserSession`] — one rekey message at a user, fed frames (wire bytes):
//!   header read in place, the one ENC frame that serves it kept as it lies,
//!   the shares its [`BlockSearch`] takes kept in one flat arrival-order
//!   store; ID rederivation from `maxKID` (Theorem 4.2), and FEC recovery
//!   of the one packet it needs (the rows the held headers bracket first).

//! # Example
//!
//! ```
//! use rekeyproto::{RoundDecision, ServerConfig, ServerController};
//!
//! let controller = ServerController::new(ServerConfig::default());
//! // An empty rekey message completes immediately.
//! let mut session = controller.begin_message(vec![], 100);
//! assert!(session.start().is_empty());
//! assert_eq!(session.end_of_round(), RoundDecision::Done);
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

mod adjust;
mod server;
mod user;

pub use adjust::{adjust_rho, update_num_nack, AdjustConfig};
pub use server::{
    RoundDecision, ServerConfig, ServerController, ServerSession, ServerStats, UnicastSend,
};
pub use user::{BlockSearch, DecodeWork, Ignored, Received, UserOutcome, UserSession};
