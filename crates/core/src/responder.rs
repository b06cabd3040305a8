//! The STS responder (BOB in the paper's Fig. 2).

use crate::auth::{auth_response, verify_response, DIR_INITIATOR, DIR_RESPONDER};
use crate::{StsConfig, KDF_LABEL};
use ecq_cert::ImplicitCert;
use ecq_crypto::zeroize::Zeroize;
use ecq_crypto::HmacDrbg;
use ecq_p256::ecdh;
use ecq_p256::encoding::{decode_raw, encode_raw};
use ecq_p256::point::mul_generator_ct;
use ecq_p256::scalar::Scalar;
use ecq_proto::{
    Credentials, Endpoint, FieldKind, Message, OpTrace, PrimitiveOp, ProtocolError, SessionKey,
    StepOutput, StsPhase, WireField,
};

#[derive(Debug)]
enum State {
    AwaitA1,
    AwaitA2,
    Established,
    Failed,
}

/// Responder-side STS state machine.
#[derive(Debug)]
pub struct StsResponder {
    creds: Credentials,
    config: StsConfig,
    rng: HmacDrbg,
    ephemeral: Option<(Scalar, [u8; 64])>,
    peer_id: Option<Vec<u8>>,
    peer_xg: Option<[u8; 64]>,
    session: Option<SessionKey>,
    state: State,
    trace: OpTrace,
}

impl StsResponder {
    /// Creates a responder. The ephemeral key is drawn lazily on `A1`
    /// (the responder's Op1 runs after the request arrives — Fig. 2).
    pub fn new(creds: Credentials, config: StsConfig, rng: &mut HmacDrbg) -> Self {
        StsResponder {
            creds,
            config,
            rng: HmacDrbg::new(&rng.bytes32(), b"sts-responder-session"),
            ephemeral: None,
            peer_id: None,
            peer_xg: None,
            session: None,
            state: State::AwaitA1,
            trace: OpTrace::new(),
        }
    }

    fn handle_a1(&mut self, msg: &Message) -> Result<StepOutput, ProtocolError> {
        let id_a = msg.field(FieldKind::Id)?.to_vec();
        let xg_a_bytes: [u8; 64] = msg
            .field(FieldKind::EphemeralPoint)?
            .try_into()
            .map_err(|_| ProtocolError::Decode)?;
        let xg_a = decode_raw(&xg_a_bytes)?;

        // Op1: our own ephemeral point XG_B.
        self.trace
            .record(StsPhase::Op1Request, PrimitiveOp::RandomBytes { bytes: 32 });
        self.trace
            .record(StsPhase::Op1Request, PrimitiveOp::EphemeralKeyGen);
        let x_b = Scalar::random(&mut self.rng);
        let xg_b_bytes = encode_raw(&mul_generator_ct(&x_b));

        // Op2: KPM = X_B · XG_A; KS = KDF(KPM, XG_A ‖ XG_B).
        self.trace
            .record(StsPhase::Op2KeyDerivation, PrimitiveOp::EcdhDerive);
        let premaster = ecdh::shared_secret(&x_b, &xg_a)?;
        let salt = [xg_a_bytes.as_slice(), xg_b_bytes.as_slice()].concat();
        self.trace
            .record(StsPhase::Op2KeyDerivation, PrimitiveOp::Kdf);
        // `premaster` wipes itself when it drops at the end of this
        // scope; only the derived session key survives.
        let ks = SessionKey::derive(premaster.as_slice(), &salt, KDF_LABEL);

        // Op3: Resp_B = E_KS(sign(Prk_B, XG_B ‖ XG_A)).
        let resp_b = auth_response(
            &ks,
            &self.creds.keys.private,
            &xg_b_bytes,
            &xg_a_bytes,
            DIR_RESPONDER,
            &mut self.trace,
        );

        self.ephemeral = Some((x_b, xg_b_bytes));
        self.peer_id = Some(id_a);
        self.peer_xg = Some(xg_a_bytes);
        self.session = Some(ks);
        self.state = State::AwaitA2;

        Ok(StepOutput::Send(Message::new(
            "B1",
            vec![
                WireField::new(FieldKind::Id, self.creds.id.as_bytes().to_vec()),
                WireField::new(FieldKind::Cert, self.creds.cert.to_bytes().to_vec()),
                WireField::new(FieldKind::EphemeralPoint, xg_b_bytes.to_vec()),
                WireField::new(FieldKind::Response, resp_b.to_vec()),
            ],
        )))
    }

    fn handle_a2(&mut self, msg: &Message) -> Result<StepOutput, ProtocolError> {
        let cert_a = ImplicitCert::from_bytes(msg.field(FieldKind::Cert)?)?;
        let resp_a = msg.field(FieldKind::Response)?;

        let claimed = self
            .peer_id
            .as_deref()
            .ok_or(ProtocolError::UnexpectedMessage)?;
        if cert_a.subject.as_bytes() != claimed {
            return Err(ProtocolError::AuthenticationFailed);
        }
        if !cert_a.is_valid_at(self.config.now) {
            return Err(ProtocolError::Cert(ecq_cert::CertError::Expired));
        }

        let ks = self.session.ok_or(ProtocolError::UnexpectedMessage)?;
        let xg_a = self.peer_xg.ok_or(ProtocolError::UnexpectedMessage)?;
        let (_, xg_b) = self.ephemeral.ok_or(ProtocolError::UnexpectedMessage)?;

        verify_response(
            &ks,
            resp_a,
            &cert_a,
            &self.creds.ca_public,
            &xg_a,
            &xg_b,
            DIR_INITIATOR,
            &mut self.trace,
        )?;

        self.state = State::Established;
        Ok(StepOutput::Send(Message::new(
            "B2",
            vec![WireField::new(FieldKind::Ack, vec![0x01])],
        )))
    }
}

impl Drop for StsResponder {
    /// Wipes the ephemeral secret `X_B` and any derived session key.
    fn drop(&mut self) {
        if let Some((x_b, _)) = self.ephemeral.as_mut() {
            x_b.zeroize();
        }
        SessionKey::wipe_slot(&mut self.session);
    }
}

impl Endpoint for StsResponder {
    fn step(&mut self, incoming: Option<&Message>) -> Result<StepOutput, ProtocolError> {
        let result = match (&self.state, incoming) {
            (State::AwaitA1, None) => Ok(StepOutput::Wait),
            (State::AwaitA1, Some(msg)) => self.handle_a1(msg),
            (State::AwaitA2, Some(msg)) => self.handle_a2(msg),
            _ => Err(ProtocolError::UnexpectedMessage),
        };
        if result.is_err() {
            self.state = State::Failed;
            SessionKey::wipe_slot(&mut self.session);
        }
        result
    }

    fn is_established(&self) -> bool {
        matches!(self.state, State::Established)
    }

    fn session_key(&self) -> Result<SessionKey, ProtocolError> {
        match self.state {
            State::Established => self.session.ok_or(ProtocolError::NotEstablished),
            _ => Err(ProtocolError::NotEstablished),
        }
    }

    fn trace(&self) -> &OpTrace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_cert::ca::CertificateAuthority;
    use ecq_cert::DeviceId;

    fn creds(seed: u64) -> (Credentials, HmacDrbg) {
        let mut rng = HmacDrbg::from_seed(seed);
        let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
        let c = Credentials::provision(&ca, DeviceId::from_label("b"), 0, 10, &mut rng).unwrap();
        (c, rng)
    }

    #[test]
    fn responder_starts_silent() {
        let (c, mut rng) = creds(131);
        let mut resp = StsResponder::new(c, StsConfig::default(), &mut rng);
        assert_eq!(resp.step(None).unwrap(), StepOutput::Wait);
        assert!(!resp.is_established());
    }

    #[test]
    fn rejects_garbage_a1() {
        let (c, mut rng) = creds(132);
        let mut resp = StsResponder::new(c, StsConfig::default(), &mut rng);
        // Off-curve ephemeral point must be rejected before any use.
        let msg = Message::new(
            "A1",
            vec![
                WireField::new(FieldKind::Id, vec![0; 16]),
                WireField::new(FieldKind::EphemeralPoint, vec![0; 64]),
            ],
        );
        assert!(resp.step(Some(&msg)).is_err());
        assert!(!resp.is_established());
        assert!(resp.session_key().is_err());
    }

    #[test]
    fn a2_before_a1_rejected() {
        let (c, mut rng) = creds(133);
        let mut resp = StsResponder::new(c.clone(), StsConfig::default(), &mut rng);
        let msg = Message::new(
            "A2",
            vec![
                WireField::new(FieldKind::Cert, c.cert.to_bytes().to_vec()),
                WireField::new(FieldKind::Response, vec![0; 64]),
            ],
        );
        // In AwaitA1, an A2-shaped message lacks the Id field.
        assert!(resp.step(Some(&msg)).is_err());
    }
}
