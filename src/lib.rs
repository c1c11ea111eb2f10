//! Umbrella crate for the group-rekeying reproduction.
//!
//! Re-exports every subsystem so the workspace-level integration tests and
//! examples have a single import root. See the individual crates for the
//! real documentation:
//!
//! * [`grouprekey`] — the end-to-end system (start here),
//! * [`keytree`] — LKH key trees and the marking algorithm,
//! * [`rekeymsg`] — wire formats, UKA, blocks, block-ID estimation,
//! * [`rekeyproto`] — server/user protocol state machines,
//! * [`rse`] / [`gf256`] — Reed–Solomon erasure coding substrate,
//! * [`wirecrypto`] — cipher/MAC/sealing/registration substrate,
//! * [`netsim`] — the lossy-multicast network simulator.

pub use gf256;
pub use grouprekey;
pub use keytree;
pub use netsim;
pub use rekeymsg;
pub use rekeyproto;
pub use rse;
pub use wirecrypto;
