//! Dynamic key derivation for ECQV implicit certificates via the
//! Station-to-Station protocol — the paper's contribution (§IV).
//!
//! # Protocol (Fig. 2 of the paper)
//!
//! ```text
//! ALICE                                   BOB
//!   Gen. XG_A
//!   ── A1: ID_A, XG_A ────────────────────▶
//!                                           Gen. XG_B        (Op1)
//!                                           Derive KS        (Op2)
//!                                           Auth Resp_B      (Op3)
//!   ◀── B1: ID_B, Cert_B, XG_B, Resp_B ────
//!   Derive Q_B, KS                                           (Op2)
//!   Verify Resp_B                                            (Op4)
//!   Auth Resp_A                                              (Op3)
//!   ── A2: Cert_A, Resp_A ────────────────▶
//!                                           Derive Q_A       (Op2')
//!                                           Verify Resp_A    (Op4)
//!   ◀── B2: ACK ────────────────────────────
//! ```
//!
//! * Ephemeral points: `X ∈_R [1, n−1]`, `XG = X·G` (eq. (2)).
//! * Premaster: `KPM = X_A·XG_B = X_B·XG_A` (eq. (3)).
//! * Session key: `KS = KDF(KPM, salt)` with `salt = XG_A ‖ XG_B`
//!   (eq. (4)).
//! * Authentication (Algorithm 1): `Resp = E_KS(sign(Prk, XG_own ‖
//!   XG_peer))`; verification (Algorithm 2) reconstructs the peer's
//!   public key implicitly from its certificate (eq. (1)).
//!
//! Because a fresh `X` is drawn per session, compromise of long-term
//! keys never reveals past session keys: **perfect forward secrecy**,
//! the property every SKD baseline lacks (paper Table III).
//!
//! The [`variant::StsVariant`] type captures the §IV-C pipelining
//! optimizations (eqs. (7)–(8)); they alter the execution schedule the
//! device model computes, not the bytes on the wire.
//!
//! # Example
//!
//! ```
//! use ecq_sts::{establish, StsConfig};
//! use ecq_cert::{ca::CertificateAuthority, DeviceId};
//! use ecq_crypto::HmacDrbg;
//! use ecq_proto::Credentials;
//!
//! let mut rng = HmacDrbg::from_seed(1);
//! let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
//! let alice = Credentials::provision(&ca, DeviceId::from_label("alice"), 0, 100, &mut rng)?;
//! let bob = Credentials::provision(&ca, DeviceId::from_label("bob"), 0, 100, &mut rng)?;
//!
//! let outcome = establish(&alice, &bob, &StsConfig::default(), &mut rng)?;
//! assert_eq!(outcome.initiator_key, outcome.responder_key);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod auth;
pub mod initiator;
pub mod manager;
pub mod responder;
pub mod variant;

pub use auth::ReconstructionHint;
pub use initiator::StsInitiator;
pub use manager::{RekeyPolicy, SessionManager};
pub use responder::StsResponder;
pub use variant::StsVariant;

use ecq_crypto::HmacDrbg;
use ecq_proto::{run_handshake, Credentials, ProtocolError, SessionKey, Transcript};

/// Domain-separation label for the STS KDF.
pub const KDF_LABEL: &[u8] = b"ecqv-sts-v1";

/// Configuration for an STS session.
#[derive(Clone, Copy, Debug)]
pub struct StsConfig {
    /// Deployment timestamp used for certificate validity checks.
    pub now: u32,
    /// Execution-schedule variant (wire format is identical for all).
    pub variant: StsVariant,
}

impl Default for StsConfig {
    fn default() -> Self {
        StsConfig {
            now: 0,
            variant: StsVariant::Conventional,
        }
    }
}

/// Result of a completed STS handshake between two local endpoints.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Key derived by the initiator.
    pub initiator_key: SessionKey,
    /// Key derived by the responder (always equal on success).
    pub responder_key: SessionKey,
    /// Full wire + trace transcript.
    pub transcript: Transcript,
}

/// The two endpoints of one STS handshake, each on its own DRBG forked
/// off `rng` (initiator first) — the derivation [`establish`] and every
/// simulator that wants its transcripts share.
pub fn endpoint_pair(
    initiator: Credentials,
    responder: Credentials,
    config: &StsConfig,
    rng: &mut HmacDrbg,
) -> (StsInitiator, StsResponder) {
    let mut rng_a = HmacDrbg::new(&rng.bytes32(), b"sts-initiator");
    let mut rng_b = HmacDrbg::new(&rng.bytes32(), b"sts-responder");
    (
        StsInitiator::new(initiator, *config, &mut rng_a),
        StsResponder::new(responder, *config, &mut rng_b),
    )
}

/// Convenience driver: runs a complete STS handshake between two
/// credential sets and returns both keys plus the transcript.
///
/// # Errors
///
/// Any [`ProtocolError`] from the handshake (authentication failure,
/// expired certificates, malformed messages).
pub fn establish(
    initiator: &Credentials,
    responder: &Credentials,
    config: &StsConfig,
    rng: &mut HmacDrbg,
) -> Result<SessionOutcome, ProtocolError> {
    let (mut alice, mut bob) = endpoint_pair(initiator.clone(), responder.clone(), config, rng);
    let transcript = run_handshake(&mut alice, &mut bob)?;
    Ok(SessionOutcome {
        initiator_key: alice.session_key()?,
        responder_key: bob.session_key()?,
        transcript,
    })
}

use ecq_proto::Endpoint as _;

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_cert::ca::CertificateAuthority;
    use ecq_cert::DeviceId;

    fn setup(seed: u64) -> (Credentials, Credentials, HmacDrbg) {
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let a = Credentials::provision(&ca, DeviceId::from_label("alice"), 0, 100, &mut rng)
            .expect("provision alice");
        let b = Credentials::provision(&ca, DeviceId::from_label("bob"), 0, 100, &mut rng)
            .expect("provision bob");
        (a, b, rng)
    }

    #[test]
    fn handshake_agrees_on_key() {
        let (a, b, mut rng) = setup(101);
        let out = establish(&a, &b, &StsConfig::default(), &mut rng).unwrap();
        assert_eq!(out.initiator_key, out.responder_key);
    }

    #[test]
    fn fresh_keys_every_session_same_certificates() {
        // The DKD property (§II-A): new session ⇒ new key, even with
        // unchanged certificates.
        let (a, b, mut rng) = setup(102);
        let s1 = establish(&a, &b, &StsConfig::default(), &mut rng).unwrap();
        let s2 = establish(&a, &b, &StsConfig::default(), &mut rng).unwrap();
        assert_ne!(s1.initiator_key, s2.initiator_key);
    }

    #[test]
    fn wire_format_matches_table2() {
        let (a, b, mut rng) = setup(103);
        let out = establish(&a, &b, &StsConfig::default(), &mut rng).unwrap();
        let msgs = out.transcript.messages();
        assert_eq!(msgs.len(), 4);
        assert_eq!(msgs[0].wire_len, 80); // A1: ID(16) + XG(64)
        assert_eq!(msgs[1].wire_len, 245); // B1: ID+Cert+XG+Resp
        assert_eq!(msgs[2].wire_len, 165); // A2: Cert+Resp
        assert_eq!(msgs[3].wire_len, 1); // B2: ACK
        assert_eq!(out.transcript.total_bytes(), 491); // Table II: 491 B
    }

    #[test]
    fn cross_ca_peers_fail_authentication() {
        let mut rng = HmacDrbg::from_seed(104);
        let ca1 = CertificateAuthority::new(DeviceId::from_label("CA1"), &mut rng);
        let ca2 = CertificateAuthority::new(DeviceId::from_label("CA2"), &mut rng);
        let a =
            Credentials::provision(&ca1, DeviceId::from_label("alice"), 0, 100, &mut rng).unwrap();
        let b =
            Credentials::provision(&ca2, DeviceId::from_label("bob"), 0, 100, &mut rng).unwrap();
        let err = establish(&a, &b, &StsConfig::default(), &mut rng).unwrap_err();
        assert_eq!(err, ProtocolError::AuthenticationFailed);
    }

    #[test]
    fn expired_certificate_rejected() {
        let (a, b, mut rng) = setup(105);
        let config = StsConfig {
            now: 1000, // certs valid 0..=100
            variant: StsVariant::Conventional,
        };
        assert!(establish(&a, &b, &config, &mut rng).is_err());
    }
}
