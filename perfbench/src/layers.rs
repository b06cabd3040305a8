//! Per-layer rows of the traced run and the attribution built on them.
//!
//! Every row does a fixed amount of work per sample, and the rows are
//! sampled round-robin in one process, so a slow spell of the host
//! lands on every row alike instead of on whichever row ran during it.
//! Each row reports the median over its samples and the quartile
//! spread. `ecq_sts::establish` and `ecq_baselines::establish_s_ecdsa`
//! sit next to each other in every round on the same credentials, and
//! their comparison is the median of the per-round ratios.
//!
//! The `p256`, `cert` and `crypto` medians then calibrate an
//! `ecq_devices::PrimitiveCosts` for this host, and each STS variant's
//! `Transcript::trace` is integrated against it with
//! `ecq_devices::timing::integrate`, giving the predicted handshake
//! time that the measured rows are compared with.

use crate::mix;
use crate::stats::{median, spread};
use crate::trace::Recorder;
use ecq_cert::ca::CertificateAuthority;
use ecq_cert::requester::CertRequester;
use ecq_cert::DeviceId;
use ecq_crypto::aes::Aes128;
use ecq_crypto::hkdf::hkdf_sha256;
use ecq_crypto::hmac::hmac_sha256;
use ecq_crypto::sha256::sha256;
use ecq_crypto::HmacDrbg;
use ecq_devices::timing::integrate;
use ecq_devices::{DeviceProfile, PhaseTimes, PrimitiveCosts};
use ecq_fleet::FleetConfig;
use ecq_p256::field::FieldElement;
use ecq_p256::keys::KeyPair;
use ecq_p256::scalar::Scalar;
use ecq_p256::u256::U256;
use ecq_p256::{ecdh, ecdsa};
use ecq_proto::{Credentials, Endpoint, Frame, Message, Role, StepOutput, Transcript};
use ecq_sts::{establish, ReconstructionHint, StsConfig, StsInitiator, StsResponder, StsVariant};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rounds every row gets even when the budget is short.
const MIN_ROUNDS: usize = 5;

/// Message the ECDSA rows sign and verify.
const MESSAGE: &[u8] = b"layer row message";

struct Row<'a> {
    name: &'static str,
    /// Calls of `work` per sample.
    calls: u32,
    /// Items one call of `work` handles (certificates in a batch).
    items: u32,
    work: Box<dyn FnMut() + 'a>,
}

/// A row of `calls` calls per sample, one item per call; the unit
/// (`ns` or `us`) is the name's suffix.
fn row<'a>(name: &'static str, calls: u32, work: impl FnMut() + 'a) -> Row<'a> {
    Row {
        name,
        calls,
        items: 1,
        work: Box::new(work),
    }
}

/// Median and spread of every row, plus the facts the rows rest on.
pub struct Layers {
    pub rows: BTreeMap<&'static str, (f64, f64, usize)>,
    /// Median over rounds of (STS conventional / S-ECDSA − 1) × 100.
    pub vs_s_ecdsa_pct: f64,
    /// Handshake transcripts by variant (initiator and responder
    /// traces), untimed.
    pub transcripts: Vec<(StsVariant, Transcript)>,
    /// Wire bytes of the four handshake messages.
    pub wire_bytes_per_hs: usize,
    pub failures: Vec<String>,
}

impl Layers {
    pub fn median(&self, name: &str) -> f64 {
        self.rows.get(name).map_or(f64::NAN, |r| r.0)
    }

    /// The host cost table calibrated from the measured rows.
    pub fn host_profile(&self) -> DeviceProfile {
        let us = |name| self.median(name) / 1e3;
        let ns = |name| self.median(name) / 1e6;
        DeviceProfile {
            name: "host",
            class: "benchmark host, calibrated from the p256/cert/crypto rows",
            costs: PrimitiveCosts {
                keygen_ms: us("p256.keygen_us"),
                recon_ms: us("cert.recon_eq1_us"),
                ecdh_ms: us("p256.ecdh_us"),
                sign_ms: us("p256.sign_us"),
                verify_ms: us("p256.verify_us"),
                aes_block_ms: ns("crypto.aes_block_ns"),
                mac_ms: us("crypto.mac_us"),
                kdf_ms: us("crypto.kdf_us"),
                rng32_ms: ns("crypto.rng32_ns"),
                hash_block_ms: ns("crypto.hash_block_ns"),
            },
        }
    }

    /// Both sides of one `variant` handshake integrated against the host
    /// profile, phase by phase, in µs. One host thread runs both sides,
    /// so the sides add up; no phase overlaps.
    pub fn predicted(&self, variant: StsVariant) -> PhaseTimes {
        let profile = self.host_profile();
        let Some((_, transcript)) = self.transcripts.iter().find(|(v, _)| *v == variant) else {
            return PhaseTimes::default();
        };
        let a = integrate(transcript.trace(Role::Initiator), &profile);
        let b = integrate(transcript.trace(Role::Responder), &profile);
        PhaseTimes {
            op1: (a.op1 + b.op1) * 1e3,
            op2: (a.op2 + b.op2) * 1e3,
            op3: (a.op3 + b.op3) * 1e3,
            op4: (a.op4 + b.op4) * 1e3,
            other: (a.other + b.other) * 1e3,
        }
    }

    /// Primitives both sides of a conventional handshake record.
    pub fn prims_per_hs(&self) -> usize {
        self.transcripts.first().map_or(0, |(_, t)| {
            t.trace(Role::Initiator).len() + t.trace(Role::Responder).len()
        })
    }
}

fn layer_credentials(ca: &CertificateAuthority, label: &str, rng: &mut HmacDrbg) -> Credentials {
    Credentials::provision(ca, DeviceId::from_label(label), 0, u32::MAX, rng)
        .expect("provisioning under a fresh CA cannot fail")
}

/// The four handshake messages of one conventional session, driven
/// step by step through both endpoints.
fn handshake_messages(a: &Credentials, b: &Credentials, rng: &mut HmacDrbg) -> Vec<Message> {
    let config = StsConfig::default();
    let mut rng_a = HmacDrbg::new(&rng.bytes32(), b"sts-initiator");
    let mut rng_b = HmacDrbg::new(&rng.bytes32(), b"sts-responder");
    let mut initiator = StsInitiator::new(a.clone(), config, &mut rng_a);
    let mut responder = StsResponder::new(b.clone(), config, &mut rng_b);
    let mut messages = Vec::new();
    let mut next = initiator.step(None);
    let mut to_responder = true;
    while let Ok(StepOutput::Send(message)) = next {
        next = if to_responder {
            responder.step(Some(&message))
        } else {
            initiator.step(Some(&message))
        };
        messages.push(message);
        to_responder = !to_responder;
    }
    messages
}

/// Samples every row round-robin until `budget` is spent.
pub fn measure_rows(seed: u64, budget: Duration, rec: &mut Recorder) -> Layers {
    let mut rng = HmacDrbg::from_seed(mix(seed, 0x1A7E45));
    let ca = CertificateAuthority::new(DeviceId::from_label("layers-ca"), &mut rng);
    let alice = layer_credentials(&ca, "layers-alice", &mut rng);
    let bob = layer_credentials(&ca, "layers-bob", &mut rng);
    let peer = KeyPair::generate(&mut rng);
    let signer = KeyPair::generate(&mut rng);
    let signature = ecdsa::sign(&signer.private, MESSAGE);
    let field = FieldElement::from_reduced(&U256::from_be_bytes(&rng.bytes32()));
    let aes = Aes128::new(&[0x2B; 16]);
    let short_message = [0x5Au8; 64];
    // Batches the size the fleet coordinator issues by default.
    let enroll_batch = FleetConfig::new().enroll_batch;
    let requesters: Vec<CertRequester> = (0..enroll_batch)
        .map(|i| CertRequester::generate(DeviceId::from_label(&format!("row-{i}")), &mut rng))
        .collect();
    let requests: Vec<_> = requesters.iter().map(CertRequester::request).collect();
    let issued = ca
        .issue(&requests[0], 0, u32::MAX, &mut rng)
        .expect("issuing to a well-formed request cannot fail");
    let ca_public = ca.public_key();
    let frame_values: Vec<Frame> = handshake_messages(&alice, &bob, &mut rng)
        .into_iter()
        .map(Frame::HsMessage)
        .collect();
    let frames: Vec<Vec<u8>> = frame_values
        .iter()
        .filter_map(|f| f.encode().ok())
        .collect();
    let decoded_ok = frames.iter().all(
        |bytes| matches!(Frame::decode(bytes), Ok((Frame::HsMessage(_), n)) if n == bytes.len()),
    );

    let mismatches = Cell::new(0u64);
    let mut failures = Vec::new();
    if frames.len() != 4 || !decoded_ok {
        failures.push(format!(
            "handshake frames: {} encoded, round trip ok = {decoded_ok}",
            frames.len()
        ));
    }
    let mut transcripts = Vec::new();
    for variant in [
        StsVariant::Conventional,
        StsVariant::OptimizationI,
        StsVariant::OptimizationII,
    ] {
        match establish(&alice, &bob, &StsConfig { now: 0, variant }, &mut rng) {
            Ok(out) => transcripts.push((variant, out.transcript)),
            Err(e) => failures.push(format!("bare establish ({variant:?}) failed: {e}")),
        }
    }
    let wire_bytes_per_hs = transcripts.first().map_or(0, |(_, t)| t.total_bytes());

    let sts_row = |name, variant| {
        let (alice, bob, mismatches) = (&alice, &bob, &mismatches);
        let mut rng = HmacDrbg::from_seed(mix(seed, 0x5750 + variant as u64));
        let config = StsConfig { now: 0, variant };
        row(name, 2, move || {
            match establish(alice, bob, &config, &mut rng) {
                Ok(out) if out.initiator_key == out.responder_key => {
                    black_box(out);
                }
                _ => mismatches.set(mismatches.get() + 1),
            }
        })
    };

    let mut g = || HmacDrbg::from_seed(mix(seed, rng.next_u64()));
    let (mut r_keygen, mut r_ecdh, mut r_vt) = (g(), g(), g());
    let (mut r_rng, mut r_issue, mut r_batch, mut r_s) = (g(), g(), g(), g());
    let scalar_ecdh = Scalar::random(&mut r_ecdh);
    let scalar_vt = Scalar::random(&mut r_vt);
    let requester = &requesters[0];
    let mut block = [0u8; 16];
    let mut okm = [0u8; 32];

    let mut rows: Vec<Row> = vec![
        row("p256.keygen_us", 64, || {
            black_box(KeyPair::generate(&mut r_keygen));
        }),
        row("p256.ecdh_us", 16, || {
            black_box(ecdh::shared_secret(&scalar_ecdh, black_box(&peer.public)).ok());
        }),
        row("p256.sign_us", 64, || {
            black_box(ecdsa::sign(&signer.private, black_box(MESSAGE)));
        }),
        row("p256.verify_us", 16, || {
            if !ecdsa::verify(&signer.public, black_box(MESSAGE), &signature) {
                mismatches.set(mismatches.get() + 1);
            }
        }),
        row("p256.mul_vartime_us", 16, || {
            black_box(black_box(&peer.public).mul_vartime(&scalar_vt));
        }),
        row("p256.fe_invert_ns", 256, || {
            black_box(black_box(&field).invert());
        }),
        row("crypto.aes_block_ns", 4096, || {
            aes.encrypt_block(black_box(&mut block));
        }),
        row("crypto.mac_us", 1024, || {
            black_box(hmac_sha256(&[7u8; 16], black_box(&short_message)));
        }),
        row("crypto.kdf_us", 512, || {
            hkdf_sha256(b"salt", black_box(&[9u8; 32]), b"ecqv-sts-v1", &mut okm);
            black_box(&okm);
        }),
        // 55 bytes pad to exactly one compression block.
        row("crypto.hash_block_ns", 4096, || {
            black_box(sha256(black_box(&short_message[..55])));
        }),
        row("crypto.rng32_ns", 1024, || {
            black_box(r_rng.bytes32());
        }),
        row("cert.issue_us", 32, || {
            black_box(ca.issue(&requests[0], 0, u32::MAX, &mut r_issue).ok());
        }),
        Row {
            items: enroll_batch as u32,
            ..row("cert.issue_batch_per_cert_us", 1, || {
                black_box(ca.issue_batch(&requests, 0, u32::MAX, &mut r_batch).ok());
            })
        },
        row("cert.reconstruct_us", 8, || {
            if requester
                .reconstruct(black_box(&issued), &ca_public)
                .is_err()
            {
                mismatches.set(mismatches.get() + 1);
            }
        }),
        row("cert.recon_eq1_us", 16, || {
            black_box(ReconstructionHint::compute(black_box(&issued.certificate), &ca_public).ok());
        }),
        row("proto.encode_ns", 256, || {
            for frame in &frame_values {
                black_box(black_box(frame).encode().ok());
            }
        }),
        row("proto.decode_ns", 256, || {
            for bytes in &frames {
                black_box(Frame::decode(black_box(bytes)).ok());
            }
        }),
        // The paper's comparison: STS and S-ECDSA side by side in every
        // round, on the same credentials.
        sts_row("sts.establish_us.conventional", StsVariant::Conventional),
        row(
            "baselines.s_ecdsa_us",
            2,
            || match ecq_baselines::establish_s_ecdsa(&alice, &bob, 0, false, &mut r_s) {
                Ok(out) if out.initiator_key == out.responder_key => {
                    black_box(out);
                }
                _ => mismatches.set(mismatches.get() + 1),
            },
        ),
        sts_row("sts.establish_us.opt1", StsVariant::OptimizationI),
        sts_row("sts.establish_us.opt2", StsVariant::OptimizationII),
    ];

    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    let start = Instant::now();
    let mut round = 0usize;
    while round < MIN_ROUNDS || start.elapsed() < budget {
        for (row, out) in rows.iter_mut().zip(samples.iter_mut()) {
            let t0 = Instant::now();
            for _ in 0..row.calls {
                (row.work)();
            }
            let t1 = Instant::now();
            rec.record_sample(row.name, round as u64, t0, t1);
            let per_item_ns =
                (t1 - t0).as_nanos() as f64 / f64::from(row.calls) / f64::from(row.items);
            let unit_ns = if row.name.ends_with("_ns") { 1.0 } else { 1e3 };
            out.push(per_item_ns / unit_ns);
        }
        round += 1;
    }

    let index = |name| rows.iter().position(|r| r.name == name);
    let vs_s_ecdsa_pct = match (
        index("sts.establish_us.conventional"),
        index("baselines.s_ecdsa_us"),
    ) {
        (Some(sts), Some(base)) => {
            let ratios: Vec<f64> = samples[sts]
                .iter()
                .zip(&samples[base])
                .map(|(s, b)| (s / b - 1.0) * 100.0)
                .collect();
            median(&ratios)
        }
        _ => f64::NAN,
    };
    let rows_out = rows
        .iter()
        .zip(&samples)
        .map(|(row, s)| (row.name, (median(s), spread(s), s.len())))
        .collect();
    drop(rows);
    if mismatches.get() != 0 {
        failures.push(format!(
            "{} layer calls failed a check (initiator and responder keys differ, \
             a valid signature or certificate was refused)",
            mismatches.get()
        ));
    }
    Layers {
        rows: rows_out,
        vs_s_ecdsa_pct,
        transcripts,
        wire_bytes_per_hs,
        failures,
    }
}
