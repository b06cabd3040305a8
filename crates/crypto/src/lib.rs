//! Symmetric cryptographic primitives for the ECQV/STS reproduction.
//!
//! The paper's C implementation builds on *tiny-AES*, *bear-ssl* and
//! *micro-ecc*. This crate is the Rust equivalent of the first two: a
//! self-contained, dependency-free implementation of every symmetric
//! primitive the key-derivation protocols need:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (one-shot and incremental),
//! * [`hmac`] — RFC 2104 HMAC-SHA256,
//! * [`hkdf`] — RFC 5869 HKDF-SHA256 (the paper's `KDF(KPM, salt)`),
//! * [`aes`] — FIPS 197 AES-128 block cipher,
//! * [`ctr`] — AES-128-CTR stream encryption (used for the encrypted STS
//!   signature response, Algorithm 1 of the paper),
//! * [`drbg`] — NIST SP 800-90A HMAC-DRBG, the deterministic randomness
//!   source used for reproducible protocol simulation,
//! * [`ct`] — constant-time comparison helpers,
//! * [`zeroize`] — best-effort wiping of secret material (volatile
//!   stores + compiler fence; no dependencies).
//!
//! # Example
//!
//! ```
//! use ecq_crypto::{hkdf::hkdf_sha256, sha256::sha256};
//!
//! let premaster = sha256(b"shared secret material");
//! let mut session_key = [0u8; 16];
//! hkdf_sha256(b"salt", &premaster, b"ecqv-sts session", &mut session_key);
//! assert_ne!(session_key, [0u8; 16]);
//! ```

#![warn(missing_docs)]

pub mod aes;
pub mod ct;
pub mod ctr;
pub mod drbg;
pub mod hkdf;
pub mod hmac;
pub mod sha256;
pub mod zeroize;

pub use drbg::HmacDrbg;
pub use sha256::Sha256;
