//! Workspace smoke test: the paper's core claim — an STS handshake
//! between two ECQV-provisioned devices yields the same session key on
//! both sides — checked across all four evaluation-board presets and
//! all three execution-schedule variants, with the preset cost model
//! integrating each transcript to a positive wall-clock time.

use dynamic_ecqv::devices::timing::integrate;
use dynamic_ecqv::prelude::*;
use dynamic_ecqv::proto::Role;

#[test]
fn establish_agrees_on_every_device_preset() {
    for (i, preset) in DevicePreset::ALL.into_iter().enumerate() {
        let mut rng = HmacDrbg::from_seed(0x540E + i as u64);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let initiator =
            Credentials::provision(&ca, DeviceId::from_label("initiator"), 0, 3600, &mut rng)
                .expect("provision initiator");
        let responder =
            Credentials::provision(&ca, DeviceId::from_label("responder"), 0, 3600, &mut rng)
                .expect("provision responder");

        for variant in StsVariant::ALL {
            let config = StsConfig { now: 0, variant };
            let session = establish(&initiator, &responder, &config, &mut rng)
                .unwrap_or_else(|e| panic!("establish failed on {preset:?}/{variant:?}: {e:?}"));
            assert_eq!(
                session.initiator_key, session.responder_key,
                "key mismatch on {preset:?}/{variant:?}"
            );

            // The preset's cost model must price both sides of the
            // transcript at a finite positive time.
            let profile = preset.profile();
            for role in [Role::Initiator, Role::Responder] {
                let t = integrate(session.transcript.trace(role), &profile);
                assert!(
                    t.total().is_finite() && t.total() > 0.0,
                    "degenerate timing on {preset:?}/{variant:?}/{role:?}: {}",
                    t.total()
                );
            }
        }
    }
}

#[test]
fn sessions_are_fresh_across_presets() {
    // Same credentials, two handshakes: the dynamic-key property must
    // hold no matter which board the deployment models. Each preset
    // gets its own deployment seed so the four runs differ.
    for (i, preset) in DevicePreset::ALL.into_iter().enumerate() {
        let mut rng = HmacDrbg::from_seed(0xF5E5 + i as u64);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let a = Credentials::provision(&ca, DeviceId::from_label("a"), 0, 3600, &mut rng).unwrap();
        let b = Credentials::provision(&ca, DeviceId::from_label("b"), 0, 3600, &mut rng).unwrap();
        let s1 = establish(&a, &b, &StsConfig::default(), &mut rng).unwrap();
        let s2 = establish(&a, &b, &StsConfig::default(), &mut rng).unwrap();
        assert_ne!(
            s1.initiator_key, s2.initiator_key,
            "stale session key re-derived for {preset:?}"
        );
    }
}
