//! Trace integration and the eqs. (5)–(8) schedule arithmetic.
//!
//! This is the one place primitive operations become virtual time:
//! Table I's per-phase integration ([`integrate`], [`pair_total`]),
//! the per-step charges of the message-level simulators
//! ([`cost_since`]), and the enrollment closed forms
//! ([`ca_issue_ms`], [`device_enrollment_ms`]).

use crate::profile::DeviceProfile;
use ecq_proto::{OpTrace, ProtocolKind, StsPhase, Transcript};

/// Per-phase integrated times for one endpoint, in ms.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    /// Op1 — request phase.
    pub op1: f64,
    /// Op2 — key reconstruction/derivation.
    pub op2: f64,
    /// Op3 — signature generation + encryption.
    pub op3: f64,
    /// Op4 — decryption + verification.
    pub op4: f64,
    /// Everything outside the Op1–Op4 taxonomy.
    pub other: f64,
}

impl PhaseTimes {
    /// Total per-side time (the `Σ T_Op` of eq. (5), plus `other`).
    pub fn total(&self) -> f64 {
        self.op1 + self.op2 + self.op3 + self.op4 + self.other
    }

    /// The time booked under one phase.
    pub fn phase(&self, phase: StsPhase) -> f64 {
        match phase {
            StsPhase::Op1Request => self.op1,
            StsPhase::Op2KeyDerivation => self.op2,
            StsPhase::Op3SignEncrypt => self.op3,
            StsPhase::Op4DecryptVerify => self.op4,
            StsPhase::Other => self.other,
        }
    }
}

/// Integrates one endpoint's trace against a device cost table.
pub fn integrate(trace: &OpTrace, device: &DeviceProfile) -> PhaseTimes {
    let mut out = PhaseTimes::default();
    for entry in trace.entries() {
        let cost = device.cost_of(&entry.op);
        match entry.phase {
            StsPhase::Op1Request => out.op1 += cost,
            StsPhase::Op2KeyDerivation => out.op2 += cost,
            StsPhase::Op3SignEncrypt => out.op3 += cost,
            StsPhase::Op4DecryptVerify => out.op4 += cost,
            StsPhase::Other => out.other += cost,
        }
    }
    out
}

/// Integrates the primitives an endpoint recorded since `cursor` — the
/// cost of one protocol step — and advances `cursor` past them.
pub fn cost_since(trace: &OpTrace, cursor: &mut usize, device: &DeviceProfile) -> f64 {
    let entries = trace.entries();
    let cost = entries[*cursor..]
        .iter()
        .map(|e| device.cost_of(&e.op))
        .sum();
    *cursor = entries.len();
    cost
}

/// Virtual CA-side cost (ms) of issuing one certificate on the
/// gateway: the `k·G` blinding (keygen), the serial draw, and the
/// two-block certificate hash.
pub fn ca_issue_ms(gateway: &DeviceProfile) -> f64 {
    let c = &gateway.costs;
    c.keygen_ms + c.rng32_ms + 2.0 * c.hash_block_ms
}

/// Virtual device-side enrollment cost (ms): request keygen, eq. (1)
/// reconstruction and the `d_U·G` possession check on the device's
/// board.
pub fn device_enrollment_ms(device: &DeviceProfile) -> f64 {
    let c = &device.costs;
    2.0 * c.keygen_ms + c.recon_ms
}

/// Total protocol time for a device pair per eqs. (5)–(8).
///
/// * Conventional (eq. (5)): `τ = Σ_A T_Op + Σ_B T_Op` — strictly
///   sequential message-driven execution.
/// * With pipelined phases (eqs. (6)–(8)): each pipelined phase runs
///   concurrently on both devices, so the pair pays
///   `max(T_A, T_B) = T_A + T_B − min(T_A, T_B)` for it. For identical
///   devices the saving is exactly one device's phase time (eqs.
///   (7)/(8)); for different devices the residual `|T_A − T_B|`
///   matches eq. (6).
pub fn pair_total(times_a: &PhaseTimes, times_b: &PhaseTimes, pipelined: &[StsPhase]) -> f64 {
    let mut total = times_a.total() + times_b.total();
    for phase in pipelined {
        total -= times_a.phase(*phase).min(times_b.phase(*phase));
    }
    total
}

/// The phases a protocol variant pipelines (Table I rows) — the one
/// variant → schedule table; `ecq_sts::StsVariant::protocol_kind`
/// keys into it.
pub fn pipelined_phases(kind: ProtocolKind) -> &'static [StsPhase] {
    match kind {
        ProtocolKind::StsOptI => &[StsPhase::Op2KeyDerivation],
        ProtocolKind::StsOptII => &[StsPhase::Op2KeyDerivation, StsPhase::Op3SignEncrypt],
        _ => &[],
    }
}

/// Total simulated time (ms) of a handshake transcript for a device
/// pair, honouring the protocol's pipelining schedule.
pub fn protocol_pair_time(
    kind: ProtocolKind,
    transcript: &Transcript,
    device_a: &DeviceProfile,
    device_b: &DeviceProfile,
) -> f64 {
    let a = integrate(transcript.trace(ecq_proto::Role::Initiator), device_a);
    let b = integrate(transcript.trace(ecq_proto::Role::Responder), device_b);
    pair_total(&a, &b, pipelined_phases(kind))
}

/// The Fig. 3 data series: per-side STS operation times
/// `[Op1, Op2, Op3, Op4]` on a device, from the cost table's
/// decomposition (keygen+rng, recon+ecdh+kdf, sign+4·AES,
/// verify+4·AES).
pub fn sts_operation_times(device: &DeviceProfile) -> [f64; 4] {
    let c = &device.costs;
    [
        c.keygen_ms + c.rng32_ms,
        c.recon_ms + c.ecdh_ms + c.kdf_ms,
        c.sign_ms + 4.0 * c.aes_block_ms,
        c.verify_ms + 4.0 * c.aes_block_ms,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::DevicePreset;
    use ecq_proto::PrimitiveOp;

    fn sts_like_trace() -> OpTrace {
        // One side of an STS run, as the real endpoints record it.
        let mut t = OpTrace::new();
        t.record(StsPhase::Op1Request, PrimitiveOp::RandomBytes { bytes: 32 });
        t.record(StsPhase::Op1Request, PrimitiveOp::EphemeralKeyGen);
        t.record(StsPhase::Op2KeyDerivation, PrimitiveOp::EcdhDerive);
        t.record(StsPhase::Op2KeyDerivation, PrimitiveOp::Kdf);
        t.record(
            StsPhase::Op2KeyDerivation,
            PrimitiveOp::PublicKeyReconstruction,
        );
        t.record(StsPhase::Op3SignEncrypt, PrimitiveOp::EcdsaSign);
        t.record(
            StsPhase::Op3SignEncrypt,
            PrimitiveOp::AesEncrypt { blocks: 4 },
        );
        t.record(
            StsPhase::Op4DecryptVerify,
            PrimitiveOp::AesDecrypt { blocks: 4 },
        );
        t.record(StsPhase::Op4DecryptVerify, PrimitiveOp::EcdsaVerify);
        t
    }

    #[test]
    fn integration_reproduces_fitted_op_times() {
        for preset in DevicePreset::ALL {
            let profile = preset.profile();
            let times = integrate(&sts_like_trace(), &profile);
            let fitted = preset.fitted_op_times();
            assert!((times.op1 - fitted[0]).abs() < 1e-6, "{preset:?} op1");
            assert!((times.op2 - fitted[1]).abs() < 1e-6, "{preset:?} op2");
            assert!((times.op3 - fitted[2]).abs() < 1e-6, "{preset:?} op3");
            assert!((times.op4 - fitted[3]).abs() < 1e-6, "{preset:?} op4");
        }
    }

    #[test]
    fn identical_pair_matches_paper_equations() {
        let profile = DevicePreset::Stm32F767.profile();
        let a = integrate(&sts_like_trace(), &profile);
        let b = a;
        let conventional = pair_total(&a, &b, &[]);
        let opt1 = pair_total(&a, &b, pipelined_phases(ProtocolKind::StsOptI));
        let opt2 = pair_total(&a, &b, pipelined_phases(ProtocolKind::StsOptII));
        // eq. (7): τ' = τ − T_Op2 ; eq. (8): τ'' = τ − T_Op2 − T_Op3.
        assert!((conventional - opt1 - a.op2).abs() < 1e-9);
        assert!((conventional - opt2 - a.op2 - a.op3).abs() < 1e-9);
        assert!(opt2 < opt1 && opt1 < conventional);
    }

    #[test]
    fn heterogeneous_pair_follows_eq6() {
        // eq. (6): pipelining across different boards leaves the
        // residual |T_A − T_B|.
        let stm = DevicePreset::Stm32F767.profile();
        let s32 = DevicePreset::S32K144.profile();
        let a = integrate(&sts_like_trace(), &stm);
        let b = integrate(&sts_like_trace(), &s32);
        let opt1 = pair_total(&a, &b, pipelined_phases(ProtocolKind::StsOptI));
        let conventional = pair_total(&a, &b, &[]);
        let residual = (a.op2 - b.op2).abs();
        let expected_saving = a.op2 + b.op2 - (a.op2.min(b.op2));
        assert!((conventional - opt1 - (a.op2 + b.op2 - expected_saving)).abs() < 1e-9);
        // Residual interpretation: pipelined phase now costs max = min + |diff|.
        assert!(((conventional - opt1) - (a.op2.min(b.op2))).abs() < 1e-9);
        assert!(residual < a.op2 + b.op2);
    }

    #[test]
    fn fig3_shape_op3_dominates() {
        let ops = sts_operation_times(&DevicePreset::Stm32F767.profile());
        assert!(ops[2] > ops[0]);
        assert!(ops[2] > ops[1]);
        assert!(ops[2] > ops[3]);
        // Fitted absolute values.
        assert!((ops[0] - 320.15).abs() < 1e-6);
        assert!((ops[2] - 598.77).abs() < 1e-6);
    }

    #[test]
    fn step_charges_sum_to_the_integrated_total() {
        use ecq_cert::{ca::CertificateAuthority, DeviceId};
        use ecq_crypto::HmacDrbg;
        use ecq_proto::{Credentials, Role, StepOutput};

        let mut rng = HmacDrbg::from_seed(0xC057);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let a = Credentials::provision(&ca, DeviceId::from_label("a"), 0, 100, &mut rng).unwrap();
        let b = Credentials::provision(&ca, DeviceId::from_label("b"), 0, 100, &mut rng).unwrap();
        let device = DevicePreset::S32K144.profile();
        for kind in ProtocolKind::ALL {
            let (mut ini, mut res) = ecq_baselines::endpoints(kind, &a, &b, 0, &mut rng);
            let mut cursors = [0usize; 2];
            let mut charged = [0.0f64; 2];
            let mut incoming = None;
            let mut role = Role::Initiator;
            loop {
                let (endpoint, side) = match role {
                    Role::Initiator => (&mut ini, 0),
                    Role::Responder => (&mut res, 1),
                };
                let out = endpoint.step(incoming.as_ref()).unwrap();
                charged[side] += cost_since(endpoint.trace(), &mut cursors[side], &device);
                match out {
                    StepOutput::Send(msg) => incoming = Some(msg),
                    StepOutput::Wait | StepOutput::Established => break,
                }
                role = role.peer();
            }
            assert!(ini.is_established() && res.is_established(), "{kind}");
            for (side, endpoint) in [ini, res].iter().enumerate() {
                let whole = integrate(endpoint.trace(), &device).total();
                assert!((charged[side] - whole).abs() < 1e-9, "{kind} side {side}");
                assert_eq!(cursors[side], endpoint.trace().entries().len());
            }
        }
    }

    #[test]
    fn phase_accessor_consistency() {
        let profile = DevicePreset::S32K144.profile();
        let t = integrate(&sts_like_trace(), &profile);
        assert_eq!(t.phase(StsPhase::Op1Request), t.op1);
        assert_eq!(t.phase(StsPhase::Other), t.other);
        assert!(t.total() > 0.0);
    }
}
