//! Baseline key-derivation protocols the paper compares against (§V-A).
//!
//! All three baseline families use a **static key derivation (SKD)**:
//! the session secret is a Diffie–Hellman over the long-term,
//! certificate-bound keys (`Sk = Prk_a·Puk_b`), so the underlying
//! secret never changes while the certificates live — the property gap
//! STS closes.
//!
//! * [`s_ecdsa`] — static ECDSA KD (Basic et al. \[5\]) with an optional
//!   extended finished-message handshake;
//! * [`scianc`] — Sciancalepore et al. \[4\]: nonce-diversified SKD with
//!   symmetric authentication MACs bound to the session key;
//! * [`poramb`] — Porambage et al. \[3\]: two-phase pairwise
//!   establishment with pre-shared per-peer authentication keys.
//!
//! Each implementation is a full message-level state machine whose wire
//! format reproduces its Table II column byte-for-byte and whose
//! primitive trace drives the Table I device timings.

#![warn(missing_docs)]

pub mod poramb;
pub mod s_ecdsa;
pub mod scianc;
pub mod skd;

use ecq_crypto::HmacDrbg;
use ecq_proto::{run_handshake, Credentials, Endpoint, ProtocolError, ProtocolKind};
use ecq_sts::{SessionOutcome, StsConfig, StsVariant};

/// The initiator and responder of one `kind` handshake — the one place
/// a [`ProtocolKind`] picks its endpoints.
///
/// Each side draws from its own DRBG forked off `rng`, initiator first,
/// under the protocol's labels (STS forks exactly as
/// [`ecq_sts::establish`] does); PORAMB first draws the pre-shared
/// pairwise key its scheme provisions.
pub fn endpoints(
    kind: ProtocolKind,
    initiator: &Credentials,
    responder: &Credentials,
    now: u32,
    rng: &mut HmacDrbg,
) -> (Box<dyn Endpoint>, Box<dyn Endpoint>) {
    let (a, b) = (initiator.clone(), responder.clone());
    match kind {
        ProtocolKind::Sts | ProtocolKind::StsOptI | ProtocolKind::StsOptII => {
            let variant = StsVariant::from_protocol_kind(kind).unwrap_or_default();
            let (a, b) = ecq_sts::endpoint_pair(a, b, &StsConfig { now, variant }, rng);
            (Box::new(a), Box::new(b))
        }
        ProtocolKind::SEcdsa | ProtocolKind::SEcdsaExt => {
            let ext = kind == ProtocolKind::SEcdsaExt;
            let (mut rng_a, mut rng_b) = fork(rng, b"secdsa-a", b"secdsa-b");
            (
                Box::new(s_ecdsa::SEcdsaInitiator::new(a, now, ext, &mut rng_a)),
                Box::new(s_ecdsa::SEcdsaResponder::new(b, now, ext, &mut rng_b)),
            )
        }
        ProtocolKind::Scianc => {
            let (mut rng_a, mut rng_b) = fork(rng, b"scianc-a", b"scianc-b");
            (
                Box::new(scianc::SciancInitiator::new(a, now, &mut rng_a)),
                Box::new(scianc::SciancResponder::new(b, now, &mut rng_b)),
            )
        }
        ProtocolKind::Poramb => {
            let pairwise = rng.bytes32();
            poramb_endpoints(a, b, &pairwise, now, rng)
        }
    }
}

/// Runs a complete `kind` handshake between two credential sets.
///
/// # Errors
///
/// Any [`ProtocolError`] from the handshake.
pub fn establish(
    kind: ProtocolKind,
    initiator: &Credentials,
    responder: &Credentials,
    now: u32,
    rng: &mut HmacDrbg,
) -> Result<SessionOutcome, ProtocolError> {
    let (a, b) = endpoints(kind, initiator, responder, now, rng);
    complete(a, b)
}

/// Runs a complete S-ECDSA handshake (set `extended` for the
/// finished-message variant).
///
/// # Errors
///
/// Any [`ProtocolError`] from the handshake.
pub fn establish_s_ecdsa(
    initiator: &Credentials,
    responder: &Credentials,
    now: u32,
    extended: bool,
    rng: &mut HmacDrbg,
) -> Result<SessionOutcome, ProtocolError> {
    let kind = if extended {
        ProtocolKind::SEcdsaExt
    } else {
        ProtocolKind::SEcdsa
    };
    establish(kind, initiator, responder, now, rng)
}

/// Runs a complete PORAMB handshake. `pairwise_key` is the pre-shared
/// per-peer authentication key Porambage's scheme requires both sides
/// to hold.
///
/// # Errors
///
/// Any [`ProtocolError`] from the handshake.
pub fn establish_poramb(
    initiator: &Credentials,
    responder: &Credentials,
    pairwise_key: &[u8; 32],
    now: u32,
    rng: &mut HmacDrbg,
) -> Result<SessionOutcome, ProtocolError> {
    let (a, b) = poramb_endpoints(initiator.clone(), responder.clone(), pairwise_key, now, rng);
    complete(a, b)
}

fn poramb_endpoints(
    a: Credentials,
    b: Credentials,
    key: &[u8; 32],
    now: u32,
    rng: &mut HmacDrbg,
) -> (Box<dyn Endpoint>, Box<dyn Endpoint>) {
    let (mut rng_a, mut rng_b) = fork(rng, b"poramb-a", b"poramb-b");
    (
        Box::new(poramb::PorambInitiator::new(a, *key, now, &mut rng_a)),
        Box::new(poramb::PorambResponder::new(b, *key, now, &mut rng_b)),
    )
}

/// One DRBG per side, forked off `rng` initiator first.
fn fork(rng: &mut HmacDrbg, label_a: &[u8], label_b: &[u8]) -> (HmacDrbg, HmacDrbg) {
    let rng_a = HmacDrbg::new(&rng.bytes32(), label_a);
    let rng_b = HmacDrbg::new(&rng.bytes32(), label_b);
    (rng_a, rng_b)
}

/// Drives two endpoints to completion and collects both keys.
fn complete(
    mut a: Box<dyn Endpoint>,
    mut b: Box<dyn Endpoint>,
) -> Result<SessionOutcome, ProtocolError> {
    let transcript = run_handshake(a.as_mut(), b.as_mut())?;
    Ok(SessionOutcome {
        initiator_key: a.session_key()?,
        responder_key: b.session_key()?,
        transcript,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_cert::ca::CertificateAuthority;
    use ecq_cert::DeviceId;
    use ecq_proto::StepOutput;

    fn setup(seed: u64) -> (Credentials, Credentials, HmacDrbg) {
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let a = Credentials::provision(&ca, DeviceId::from_label("a"), 0, 100, &mut rng).unwrap();
        let b = Credentials::provision(&ca, DeviceId::from_label("b"), 0, 100, &mut rng).unwrap();
        (a, b, rng)
    }

    #[test]
    fn s_ecdsa_table2_totals() {
        let (a, b, mut rng) = setup(201);
        let out = establish_s_ecdsa(&a, &b, 0, false, &mut rng).unwrap();
        assert_eq!(out.initiator_key, out.responder_key);
        assert_eq!(out.transcript.step_count(), 4);
        assert_eq!(out.transcript.total_bytes(), 427); // Table II

        let out = establish_s_ecdsa(&a, &b, 0, true, &mut rng).unwrap();
        assert_eq!(out.transcript.step_count(), 5);
        assert_eq!(out.transcript.total_bytes(), 427 + 192); // Table II ext
    }

    #[test]
    fn scianc_table2_totals() {
        let (a, b, mut rng) = setup(202);
        let out = establish(ProtocolKind::Scianc, &a, &b, 0, &mut rng).unwrap();
        assert_eq!(out.initiator_key, out.responder_key);
        assert_eq!(out.transcript.step_count(), 4);
        assert_eq!(out.transcript.total_bytes(), 362); // Table II
    }

    #[test]
    fn poramb_table2_totals() {
        let (a, b, mut rng) = setup(203);
        let out = establish_poramb(&a, &b, &[7u8; 32], 0, &mut rng).unwrap();
        assert_eq!(out.initiator_key, out.responder_key);
        assert_eq!(out.transcript.step_count(), 6);
        assert_eq!(out.transcript.total_bytes(), 820); // Table II
    }

    /// Every endpoint of every protocol fails closed: a responder has
    /// nothing to open with, an initiator opens once, and a message the
    /// current state does not expect — mid-handshake or after
    /// completion — fails the endpoint for good, with no key left.
    #[test]
    fn every_protocol_fails_closed() {
        let (a, b, mut rng) = setup(205);
        for kind in ProtocolKind::ALL {
            // Opening rules.
            let (mut ini, mut res) = endpoints(kind, &a, &b, 0, &mut rng);
            assert_eq!(res.step(None).unwrap(), StepOutput::Wait, "{kind}");
            assert!(ini.step(None).unwrap().into_message().is_some(), "{kind}");
            assert!(ini.step(None).is_err(), "{kind}: initiator opens once");

            // Mid-handshake: the responder answered A1 and now awaits
            // A2; a second A1 is the wrong step.
            let (mut ini, mut res) = endpoints(kind, &a, &b, 0, &mut rng);
            let a1 = ini.step(None).unwrap().into_message().unwrap();
            res.step(Some(&a1)).unwrap();
            let mut failed: Vec<Box<dyn Endpoint>> = vec![res];

            // After completion: each established side gets A1 again.
            let (mut ini, mut res) = endpoints(kind, &a, &b, 0, &mut rng);
            run_handshake(ini.as_mut(), res.as_mut()).unwrap();
            assert!(ini.session_key().is_ok() && res.session_key().is_ok());
            failed.extend([ini, res]);

            for (side, endpoint) in failed.iter_mut().enumerate() {
                assert!(endpoint.step(Some(&a1)).is_err(), "{kind} side {side}");
                assert!(endpoint.session_key().is_err(), "{kind} side {side}");
                assert!(!endpoint.is_established(), "{kind} side {side}");
                // `Failed` is terminal.
                assert!(endpoint.step(None).is_err(), "{kind} side {side}");
                assert!(endpoint.step(Some(&a1)).is_err(), "{kind} side {side}");
            }
        }
    }

    #[test]
    fn skd_keys_repeat_across_sessions() {
        // The static-KD weakness: same certificates ⇒ same underlying
        // secret. S-ECDSA diversifies KS with nonces but the premaster
        // is constant; SCIANC likewise. We assert premaster stability
        // via skd::static_premaster.
        let (a, b, _) = setup(204);
        let p1 = skd::static_premaster(&a, &b.cert).unwrap();
        let p2 = skd::static_premaster(&a, &b.cert).unwrap();
        assert_eq!(p1, p2);
        let p_peer = skd::static_premaster(&b, &a.cert).unwrap();
        assert_eq!(p1, p_peer);
    }
}
