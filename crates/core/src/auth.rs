//! Algorithms 1 and 2 of the paper: the STS implicit-certificate
//! authentication response and its verification.
//!
//! Algorithm 1 (response generation):
//!
//! ```text
//! dsign ← sign(Prk_own, XG_own ‖ XG_peer)
//! Resp  ← encrypt(KS, dsign)
//! ```
//!
//! Algorithm 2 (verification):
//!
//! ```text
//! dsign_X ← decrypt(KS, Resp_X)
//! Q_X     ← hash(Cert_X) · decode(Cert_X) + Q_CA     (eq. (1))
//! Status  ← verify(Q_X, dsign_X)
//! ```
//!
//! Encrypting the signature under the freshly derived `KS` proves key
//! confirmation in the same flight as authentication: a peer that
//! cannot derive `KS` cannot produce a decryptable response.

use ecq_cert::{reconstruct_public_key, CertError, ImplicitCert};
use ecq_crypto::ctr::ctr_blocks;
use ecq_p256::ecdsa::{self, Signature};
use ecq_p256::point::AffinePoint;
use ecq_p256::scalar::Scalar;
use ecq_proto::{OpTrace, PrimitiveOp, ProtocolError, SessionKey, StsPhase};

/// Wire length of the encrypted response (`Resp(64)` in Table II).
pub const RESP_LEN: usize = 64;

/// CTR direction byte for the initiator's `Resp_A`.
pub const DIR_INITIATOR: u8 = 0x0A;
/// CTR direction byte for the responder's `Resp_B`.
pub const DIR_RESPONDER: u8 = 0x0B;

/// Algorithm 1: builds the encrypted authentication response.
///
/// Signs `xg_own ‖ xg_peer` with the ECQV-certified private key and
/// encrypts the 64-byte signature under `KS` (AES-128-CTR, direction-
/// separated keystream).
pub fn auth_response(
    ks: &SessionKey,
    private: &Scalar,
    xg_own: &[u8; 64],
    xg_peer: &[u8; 64],
    direction: u8,
    trace: &mut OpTrace,
) -> [u8; RESP_LEN] {
    let mut msg = [0u8; 128];
    msg[..64].copy_from_slice(xg_own);
    msg[64..].copy_from_slice(xg_peer);

    trace.record(StsPhase::Op3SignEncrypt, PrimitiveOp::EcdsaSign);
    let sig = ecdsa::sign(private, &msg);

    let mut resp = sig.to_bytes();
    trace.record(
        StsPhase::Op3SignEncrypt,
        PrimitiveOp::AesEncrypt {
            blocks: ctr_blocks(RESP_LEN),
        },
    );
    ks.apply_stream(direction, &mut resp);
    resp
}

/// One eq. (1) evaluation: the public key reconstructed from an
/// implicit certificate under a CA key.
///
/// Nothing in the handshake consumes it: [`verify_response`] evaluates
/// eq. (1) afresh under the verifier's own CA key on every call. It is
/// kept only because perfbench's `cert.recon_eq1_us` row times eq. (1)
/// through [`Self::compute`].
#[derive(Clone, Copy, Debug)]
pub struct ReconstructionHint {
    /// `Q_X`, the reconstructed public key.
    pub public: AffinePoint,
}

impl ReconstructionHint {
    /// Evaluates eq. (1) for `cert` under `ca_public`.
    ///
    /// # Errors
    ///
    /// [`CertError`] when the certificate's embedded point or the
    /// derived key is invalid.
    pub fn compute(cert: &ImplicitCert, ca_public: &AffinePoint) -> Result<Self, CertError> {
        Ok(ReconstructionHint {
            public: reconstruct_public_key(cert, ca_public)?,
        })
    }
}

/// Algorithm 2: decrypts and verifies a peer's authentication response.
///
/// # Errors
///
/// * [`ProtocolError::AuthenticationFailed`] when the decrypted bytes
///   are not a valid signature over `xg_peer ‖ xg_own` under the
///   implicitly derived public key;
/// * certificate/point errors when eq. (1) cannot be evaluated.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's explicit inputs
pub fn verify_response(
    ks: &SessionKey,
    resp: &[u8],
    peer_cert: &ImplicitCert,
    ca_public: &AffinePoint,
    xg_peer: &[u8; 64],
    xg_own: &[u8; 64],
    direction: u8,
    trace: &mut OpTrace,
) -> Result<(), ProtocolError> {
    if resp.len() != RESP_LEN {
        return Err(ProtocolError::Decode);
    }
    let mut dsign = [0u8; RESP_LEN];
    dsign.copy_from_slice(resp);
    trace.record(
        StsPhase::Op4DecryptVerify,
        PrimitiveOp::AesDecrypt {
            blocks: ctr_blocks(RESP_LEN),
        },
    );
    ks.apply_stream(direction, &mut dsign);

    let sig = Signature::from_bytes(&dsign).map_err(|_| ProtocolError::AuthenticationFailed)?;

    // eq. (1): Q_X = Hash(Cert_X)·Decode(Cert_X) + Q_CA.
    trace.record(
        StsPhase::Op2KeyDerivation,
        PrimitiveOp::PublicKeyReconstruction,
    );
    let q_x = reconstruct_public_key(peer_cert, ca_public)?;

    let mut msg = [0u8; 128];
    msg[..64].copy_from_slice(xg_peer);
    msg[64..].copy_from_slice(xg_own);

    trace.record(StsPhase::Op4DecryptVerify, PrimitiveOp::EcdsaVerify);
    if ecdsa::verify(&q_x, &msg, &sig) {
        Ok(())
    } else {
        Err(ProtocolError::AuthenticationFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_cert::ca::CertificateAuthority;
    use ecq_cert::DeviceId;
    use ecq_crypto::HmacDrbg;
    use ecq_proto::Credentials;

    fn creds(seed: u64) -> (Credentials, AffinePoint) {
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let c = Credentials::provision(&ca, DeviceId::from_label("dev"), 0, 10, &mut rng).unwrap();
        (c, ca.public_key())
    }

    fn ks() -> SessionKey {
        SessionKey::derive(b"premaster", b"salt", b"test")
    }

    #[test]
    fn response_roundtrip() {
        let (c, ca_pub) = creds(111);
        let xg_a = [1u8; 64];
        let xg_b = [2u8; 64];
        let mut trace = OpTrace::new();
        let resp = auth_response(
            &ks(),
            &c.keys.private,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace,
        );
        verify_response(
            &ks(),
            &resp,
            &c.cert,
            &ca_pub,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace,
        )
        .expect("valid response verifies");
        assert_eq!(trace.count_op(PrimitiveOp::EcdsaSign), 1);
        assert_eq!(trace.count_op(PrimitiveOp::EcdsaVerify), 1);
    }

    #[test]
    fn wrong_session_key_fails() {
        let (c, ca_pub) = creds(112);
        let xg_a = [1u8; 64];
        let xg_b = [2u8; 64];
        let mut trace = OpTrace::new();
        let resp = auth_response(
            &ks(),
            &c.keys.private,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace,
        );
        let other_ks = SessionKey::derive(b"different", b"salt", b"test");
        assert!(verify_response(
            &other_ks,
            &resp,
            &c.cert,
            &ca_pub,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace
        )
        .is_err());
    }

    #[test]
    fn swapped_points_fail() {
        // Signing XG_own ‖ XG_peer and verifying XG_peer ‖ XG_own is
        // order-sensitive: a reflected response must not verify.
        let (c, ca_pub) = creds(113);
        let xg_a = [1u8; 64];
        let xg_b = [2u8; 64];
        let mut trace = OpTrace::new();
        let resp = auth_response(
            &ks(),
            &c.keys.private,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace,
        );
        assert_eq!(
            verify_response(
                &ks(),
                &resp,
                &c.cert,
                &ca_pub,
                &xg_b,
                &xg_a,
                DIR_INITIATOR,
                &mut trace
            )
            .unwrap_err(),
            ProtocolError::AuthenticationFailed
        );
    }

    #[test]
    fn wrong_direction_keystream_fails() {
        let (c, ca_pub) = creds(114);
        let xg_a = [1u8; 64];
        let xg_b = [2u8; 64];
        let mut trace = OpTrace::new();
        let resp = auth_response(
            &ks(),
            &c.keys.private,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace,
        );
        assert!(verify_response(
            &ks(),
            &resp,
            &c.cert,
            &ca_pub,
            &xg_a,
            &xg_b,
            DIR_RESPONDER,
            &mut trace
        )
        .is_err());
    }

    #[test]
    fn tampered_certificate_fails() {
        let (c, ca_pub) = creds(115);
        let xg_a = [1u8; 64];
        let xg_b = [2u8; 64];
        let mut trace = OpTrace::new();
        let resp = auth_response(
            &ks(),
            &c.keys.private,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut trace,
        );
        let mut cert = c.cert;
        cert.serial ^= 1;
        // Tampered cert ⇒ different hash ⇒ different implicit key ⇒
        // signature no longer verifies.
        assert_eq!(
            verify_response(
                &ks(),
                &resp,
                &cert,
                &ca_pub,
                &xg_a,
                &xg_b,
                DIR_INITIATOR,
                &mut trace
            )
            .unwrap_err(),
            ProtocolError::AuthenticationFailed
        );
    }

    #[test]
    fn truncated_response_rejected() {
        let (c, ca_pub) = creds(116);
        let mut trace = OpTrace::new();
        assert_eq!(
            verify_response(
                &ks(),
                &[0u8; 32],
                &c.cert,
                &ca_pub,
                &[0u8; 64],
                &[1u8; 64],
                DIR_INITIATOR,
                &mut trace
            )
            .unwrap_err(),
            ProtocolError::Decode
        );
    }
}
