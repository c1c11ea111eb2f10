//! Symmetric-crypto substrate for the group-rekeying system.
//!
//! The papers treat cryptography as an opaque building block: the key
//! server holds 128-bit symmetric keys, encrypts new keys under old keys
//! (`{k'}_k`, an *encryption*), and authenticates users at registration.
//! This crate supplies those primitives from scratch (no external crypto
//! crates are available offline), sized so the paper's packet arithmetic
//! holds exactly:
//!
//! * [`SymKey`] — a 128-bit symmetric key.
//! * [`StreamCipher`] — a ChaCha20-class ARX stream cipher used for all
//!   encryption and as the deterministic key generator.
//! * [`mac`] — a SipHash-2-4-class keyed MAC for blob authentication and
//!   the registration handshake.
//! * [`SealedKey`] — a 20-byte authenticated encryption of one key under
//!   another (16-byte ciphertext + 4-byte tag). 20 bytes is what makes a
//!   1027-byte ENC packet hold 46 `<encryption, ID>` pairs and a USR packet
//!   at most `3 + 20h` bytes, matching the paper.
//! * [`batch`] — the same seal, and the cipher's first 16 keystream bytes
//!   (the key tree's node-key PRF), over eight independent inputs at a
//!   time: what a key server runs thousands of per rekey interval; and the
//!   unseal over eight receivers' next links at a time.
//! * [`KeyGen`] — deterministic, seedable generator of fresh keys: the
//!   cipher's keystream under the seed, made eight blocks at a time.
//! * [`registration`] — the mutual-authentication join handshake run
//!   between a user and the registrar before rekeying ever sees the user.
//!
//! There is one cipher and one MAC. Their round functions are written once
//! over a lane count `W` — every state word is a `[u32; W]` / `[u64; W]`
//! holding that word of `W` independent computations, lane `l` never
//! touching lane `m` — and the entries differ only in `W`:
//! [`SealedKey::seal`], [`SealedKey::unseal`], [`StreamCipher`] and
//! [`mac::mac64`] are `W = 1` (a receiver unseals its path serially: each
//! key-encrypting key is the previous plaintext), [`batch`] — eight
//! receivers' chains side by side, for unsealing — and
//! [`KeyGen`]'s refill are `W = 8`, where a state word is one AVX2 register
//! at the workspace's `x86-64-v3` and the compiler vectorises the lane
//! loops. No `unsafe`, no intrinsics,
//! no feature or runtime dispatch; results are byte-identical per element,
//! which `batch`'s tests prove for every length around the group size and
//! pin with known answers.
//!
//! None of this is security-audited cryptography; it is a faithful,
//! self-contained stand-in whose costs and interfaces mirror what the
//! paper's system (Keystone) used.

//! # Example
//!
//! ```
//! use wirecrypto::{KeyGen, SealedKey};
//!
//! let mut keygen = KeyGen::from_seed(7);
//! let kek = keygen.next_key();
//! let fresh = keygen.next_key();
//!
//! // Seal a new key under an old one — the 20-byte "encryption" of the
//! // rekey protocol — and recover it.
//! let blob = SealedKey::seal(&kek, &fresh, 42);
//! assert_eq!(blob.unseal(&kek, 42).unwrap(), fresh);
//! assert!(blob.unseal(&kek, 43).is_err(), "wrong context is rejected");
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

pub mod batch;
mod chacha;
mod keys;
pub mod mac;
pub mod registration;
mod sealed;

pub use chacha::StreamCipher;
pub use keys::{KeyGen, SymKey};
pub use sealed::{SealedKey, UnsealError, SEALED_KEY_LEN};
