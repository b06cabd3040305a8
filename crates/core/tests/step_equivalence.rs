//! A hand-driven [`Endpoint::step`] exchange and the [`run_handshake`]
//! loop produce byte-identical transcripts and the same session key
//! for identically seeded endpoints: a scheduler that delivers each
//! message as its own event changes *when* messages move, never *what*
//! they say.

use ecq_cert::ca::CertificateAuthority;
use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;
use ecq_proto::{run_handshake, Credentials, Endpoint, SessionKey, StepOutput};
use ecq_sts::{endpoint_pair, StsConfig, StsInitiator, StsResponder, StsVariant};

fn endpoints(seed: u64, variant: StsVariant) -> (StsInitiator, StsResponder) {
    let mut rng = HmacDrbg::from_seed(seed);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let a = Credentials::provision(&ca, DeviceId::from_label("alice"), 0, 1000, &mut rng).unwrap();
    let b = Credentials::provision(&ca, DeviceId::from_label("bob"), 0, 1000, &mut rng).unwrap();
    endpoint_pair(a, b, &StsConfig { now: 0, variant }, &mut rng)
}

/// Steps the two endpoints by hand, one message at a time, until a
/// side has nothing more to send. Returns the raw bytes of each message.
fn drive_steps(alice: &mut StsInitiator, bob: &mut StsResponder) -> (Vec<Vec<u8>>, SessionKey) {
    let mut wire = Vec::new();
    let mut out = alice.step(None).unwrap();
    let mut to_bob = true;
    while let StepOutput::Send(msg) = out {
        wire.push(msg.encode());
        out = if to_bob {
            bob.step(Some(&msg))
        } else {
            alice.step(Some(&msg))
        }
        .unwrap();
        to_bob = !to_bob;
    }
    assert_eq!(out, StepOutput::Established);
    assert!(alice.is_established() && bob.is_established());
    (wire, alice.session_key().unwrap())
}

#[test]
fn step_transcripts_match_run_to_completion_bytes() {
    for variant in StsVariant::ALL {
        for seed in [1u64, 2, 7, 99, 0xFEED] {
            let (mut a1, mut b1) = endpoints(seed, variant);
            let transcript = run_handshake(&mut a1, &mut b1).unwrap();
            let loop_wire: Vec<Vec<u8>> = transcript
                .messages()
                .iter()
                .map(|m| m.bytes.clone())
                .collect();
            assert_eq!(transcript.total_bytes(), 491); // Table II

            let (mut a2, mut b2) = endpoints(seed, variant);
            let (manual_wire, key) = drive_steps(&mut a2, &mut b2);

            assert_eq!(
                loop_wire, manual_wire,
                "seed {seed}: bytes must be identical"
            );
            assert_eq!(
                a1.session_key().unwrap(),
                key,
                "seed {seed}: keys must agree"
            );
        }
    }
}
