//! Property-based tests of the ECQV certificate layer: encoding
//! roundtrips over arbitrary metadata, tamper detection, the
//! reconstruction identity over random deployments, and fail-closed
//! decoding of arbitrary bytes.

use ecq_cert::ca::CertificateAuthority;
use ecq_cert::requester::CertRequester;
use ecq_cert::{
    cert_hash, reconstruct_public_key, CertError, DeviceId, ImplicitCert, RevocationList, CERT_LEN,
};
use ecq_crypto::HmacDrbg;
use ecq_p256::point::mul_generator_vartime;
use ecq_p256::scalar::Scalar;
use proptest::prelude::*;

fn arb_cert() -> impl Strategy<Value = ImplicitCert> {
    (
        any::<u64>(),
        any::<[u8; 16]>(),
        any::<[u8; 16]>(),
        any::<u32>(),
        any::<u32>(),
        1u64..1_000_000,
    )
        .prop_map(|(serial, issuer, subject, from, to, k)| {
            ImplicitCert::new(
                serial,
                DeviceId::from_bytes(issuer),
                DeviceId::from_bytes(subject),
                from.min(to),
                from.max(to),
                &mul_generator_vartime(&Scalar::from_u64(k)),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn encoding_roundtrips(cert in arb_cert()) {
        let bytes = cert.to_bytes();
        prop_assert_eq!(bytes.len(), 101);
        prop_assert_eq!(ImplicitCert::from_bytes(&bytes).unwrap(), cert);
    }

    #[test]
    fn any_byte_flip_changes_the_hash(cert in arb_cert(), pos in 3usize..101, bit in 0u8..8) {
        // Positions 0..3 (magic+version) are rejected at parse time;
        // any other flip must change e = H_n(Cert) and therefore the
        // implicitly derived key.
        let mut bytes = cert.to_bytes();
        bytes[pos] ^= 1 << bit;
        // Structural rejection (Err) is also fine (e.g. curve id byte).
        if let Ok(tampered) = ImplicitCert::from_bytes(&bytes) {
            prop_assert_ne!(cert_hash(&tampered), cert_hash(&cert));
        }
    }

    #[test]
    fn full_deployment_reconstruction_identity(seed in any::<u64>()) {
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let req = CertRequester::generate(DeviceId::from_label("dev"), &mut rng);
        let issued = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();
        let keys = req.reconstruct(&issued, &ca.public_key()).unwrap();
        // Q_U == d_U·G and eq. (1) agrees with the subject's view.
        prop_assert!(keys.is_consistent());
        prop_assert_eq!(
            reconstruct_public_key(&issued.certificate, &ca.public_key()).unwrap(),
            keys.public
        );
    }

    #[test]
    fn issued_keys_are_unlinkable_to_request(seed in any::<u64>()) {
        // Two certificates from the same request secret have unrelated
        // reconstruction points (CA blinding).
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let req = CertRequester::generate(DeviceId::from_label("dev"), &mut rng);
        let i1 = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();
        let i2 = ca.issue(&req.request(), 0, 100, &mut rng).unwrap();
        prop_assert_ne!(i1.certificate.point, i2.certificate.point);
        let k1 = req.reconstruct(&i1, &ca.public_key()).unwrap();
        let k2 = req.reconstruct(&i2, &ca.public_key()).unwrap();
        prop_assert_ne!(k1.private, k2.private);
    }

    #[test]
    fn validity_window_boundaries(cert in arb_cert(), t in any::<u32>()) {
        prop_assert_eq!(
            cert.is_valid_at(t),
            cert.valid_from <= t && t <= cert.valid_to
        );
    }

    #[test]
    fn batch_issuance_is_byte_identical_to_sequential(
        seed in any::<u64>(),
        n in 1usize..12,
        valid_from in 0u32..1000,
        span in 1u32..100_000,
    ) {
        // The fleet enrollment path leans on this: issue_batch with a
        // given RNG state must produce exactly the bytes (certificate
        // and recon_private) of n sequential issue() calls.
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let requests: Vec<_> = (0..n)
            .map(|i| {
                CertRequester::generate(DeviceId::from_label(&format!("d{i}")), &mut rng)
                    .request()
            })
            .collect();
        let valid_to = valid_from + span;

        let mut rng_batch = rng.clone();
        let mut rng_seq = rng;
        let batch = ca
            .issue_batch(&requests, valid_from, valid_to, &mut rng_batch)
            .unwrap();
        prop_assert_eq!(batch.len(), n);
        for (request, issued) in requests.iter().zip(&batch) {
            let seq = ca.issue(request, valid_from, valid_to, &mut rng_seq).unwrap();
            prop_assert_eq!(issued.certificate.to_bytes(), seq.certificate.to_bytes());
            prop_assert_eq!(
                issued.recon_private.to_be_bytes(),
                seq.recon_private.to_be_bytes()
            );
        }
        // Both paths consumed the identical RNG stream.
        prop_assert_eq!(rng_batch.next_u64(), rng_seq.next_u64());
    }

    #[test]
    fn revocation_list_roundtrips(serials in proptest::collection::vec(any::<u64>(), 0..24)) {
        let unique: std::collections::BTreeSet<u64> = serials.iter().copied().collect();
        let mut rl = RevocationList::new();
        for &s in &unique {
            prop_assert!(rl.revoke(s));
        }
        let bytes = rl.to_bytes();
        prop_assert_eq!(bytes.len(), 11 + 8 * unique.len());
        let parsed = RevocationList::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&parsed, &rl);
        prop_assert_eq!(parsed.len(), unique.len());
        for &s in &unique {
            prop_assert!(parsed.is_revoked(s));
        }
    }

    #[test]
    fn revocation_list_rejects_duplicated_serials(
        serials in proptest::collection::vec(any::<u64>(), 1..12),
        dup_pick in any::<u64>(),
    ) {
        // Append a repeat of an existing serial and patch the count:
        // parsing must fail rather than silently deduplicate, so len()
        // can never disagree with the wire count.
        let unique: Vec<u64> = serials
            .iter()
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut rl = RevocationList::new();
        for &s in &unique {
            rl.revoke(s);
        }
        let mut bytes = rl.to_bytes();
        let dup = unique[(dup_pick % unique.len() as u64) as usize];
        bytes.extend_from_slice(&dup.to_be_bytes());
        let count = (unique.len() as u32 + 1).to_be_bytes();
        bytes[7..11].copy_from_slice(&count);
        prop_assert_eq!(
            RevocationList::from_bytes(&bytes).unwrap_err(),
            CertError::InvalidEncoding
        );
    }
}

proptest! {
    // Decoding is cheap; run enough cases to cover every length shape
    // framed and unframed many times over.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoders_fail_closed_on_byte_soup(
        soup in proptest::collection::vec(any::<u8>(), 200..=200),
        shape in 0u8..3,
        len_pick in 0usize..=200,
        framed in any::<bool>(),
    ) {
        // Three length shapes: anything in 0..=200, exactly CERT_LEN,
        // or a well-formed CRL length 11 + 8k. `framed` stamps a valid
        // header (and, for a CRL, a matching count) so the soup gets
        // past the magic checks into the fixed-width field reads.
        let crl_records = len_pick % 24;
        let len = match shape {
            0 => len_pick,
            1 => CERT_LEN,
            _ => 11 + 8 * crl_records,
        };
        let mut cert_bytes = soup[..len].to_vec();
        let mut crl_bytes = cert_bytes.clone();
        if framed {
            let cert_header = canonical_cert_bytes();
            let n = len.min(3);
            cert_bytes[..n].copy_from_slice(&cert_header[..n]);
            if len > 52 {
                cert_bytes[52] = cert_header[52];
            }
            let crl_header = RevocationList::new().to_bytes();
            crl_bytes[..n].copy_from_slice(&crl_header[..n]);
            if len >= 11 {
                crl_bytes[7..11].copy_from_slice(&(((len - 11) / 8) as u32).to_be_bytes());
            }
        }
        match ImplicitCert::from_bytes(&cert_bytes) {
            Ok(cert) => prop_assert_eq!(&cert.to_bytes()[..], &cert_bytes[..]),
            Err(e) => prop_assert_eq!(e, CertError::InvalidEncoding),
        }
        match RevocationList::from_bytes(&crl_bytes) {
            Ok(crl) => prop_assert_eq!(crl.len(), (len - 11) / 8),
            Err(e) => prop_assert_eq!(e, CertError::InvalidEncoding),
        }
    }
}

/// A canonical certificate encoding: its bytes 0..3 and 52 are the
/// header fields `ImplicitCert::from_bytes` checks.
fn canonical_cert_bytes() -> [u8; CERT_LEN] {
    ImplicitCert::new(
        0,
        DeviceId::from_label("CA"),
        DeviceId::from_label("dev"),
        0,
        0,
        &mul_generator_vartime(&Scalar::from_u64(1)),
    )
    .to_bytes()
}
