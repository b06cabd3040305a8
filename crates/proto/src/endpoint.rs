//! The two-party endpoint abstraction and handshake driver.

use crate::error::ProtocolError;
use crate::session::SessionKey;
use crate::trace::OpTrace;
use crate::transcript::{LoggedMessage, Transcript};
use crate::wire::Message;

/// The two handshake roles — the paper's ALICE (initiator) and BOB
/// (responder) of Fig. 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// The party that opens the session (ALICE / device A).
    Initiator,
    /// The party that answers (BOB / device B).
    Responder,
}

impl Role {
    /// The opposite role.
    pub fn peer(&self) -> Role {
        match self {
            Role::Initiator => Role::Responder,
            Role::Responder => Role::Initiator,
        }
    }
}

/// What an endpoint asks of its caller after one [`Endpoint::step`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutput {
    /// Hand this message to the transport for delivery to the peer.
    Send(Message),
    /// Nothing to send; the endpoint waits for the next incoming
    /// message.
    Wait,
    /// The handshake completed on this side and no further message is
    /// owed. (A side that completes *while* sending its last message
    /// reports `Send` first; the completion is visible through
    /// [`Endpoint::is_established`].)
    Established,
}

impl StepOutput {
    /// The message to send, if this step produced one.
    pub fn into_message(self) -> Option<Message> {
        match self {
            StepOutput::Send(msg) => Some(msg),
            StepOutput::Wait | StepOutput::Established => None,
        }
    }
}

/// A protocol endpoint: one side of a two-party key-derivation
/// handshake, an explicit state machine advanced one wire message at a
/// time by [`Endpoint::step`].
pub trait Endpoint {
    /// Advances the state machine by one message: `None` opens the
    /// handshake on an initiator (a waiting responder answers
    /// [`StepOutput::Wait`]), `Some` feeds an incoming wire message.
    /// [`run_handshake`], the fleet sweep engine, the BMS timeline, the
    /// service daemon and client all move messages through this method.
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`] aborting the handshake (authentication
    /// failure, decode error, a message the current state does not
    /// expect). An error is terminal: the endpoint wipes any derived
    /// key and refuses every later step.
    fn step(&mut self, incoming: Option<&Message>) -> Result<StepOutput, ProtocolError>;

    /// Whether the handshake has completed on this side.
    fn is_established(&self) -> bool;

    /// The derived session key.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotEstablished`] before completion.
    fn session_key(&self) -> Result<SessionKey, ProtocolError>;

    /// The primitive-operation trace accumulated so far.
    fn trace(&self) -> &OpTrace;
}

/// Maximum message exchanges before the driver declares a stall.
const MAX_ROUNDS: usize = 16;

/// Drives a full handshake between two endpoints, alternating messages
/// until both report establishment, and returns the complete
/// [`Transcript`] (messages with byte accounting + both op traces).
///
/// This is the run-to-completion convenience driver: it is a plain loop
/// over [`Endpoint::step`], so its transcripts are byte-identical to
/// what a message-granularity scheduler produces when it delivers the
/// same messages one event at a time.
///
/// # Errors
///
/// Propagates endpoint errors; [`ProtocolError::Stalled`] if the
/// exchange exceeds an internal round budget without completing.
pub fn run_handshake(
    initiator: &mut dyn Endpoint,
    responder: &mut dyn Endpoint,
) -> Result<Transcript, ProtocolError> {
    let mut messages = Vec::new();
    let mut pending = initiator.step(None)?.into_message();
    let mut sender = Role::Initiator;

    let mut rounds = 0;
    while let Some(msg) = pending {
        rounds += 1;
        if rounds > MAX_ROUNDS {
            return Err(ProtocolError::Stalled);
        }
        messages.push(LoggedMessage::from_message(sender, &msg));
        let receiver: &mut dyn Endpoint = match sender {
            Role::Initiator => responder,
            Role::Responder => initiator,
        };
        pending = receiver.step(Some(&msg))?.into_message();
        sender = sender.peer();
    }

    if !initiator.is_established() || !responder.is_established() {
        return Err(ProtocolError::Stalled);
    }

    Ok(Transcript::new(
        messages,
        initiator.trace().clone(),
        responder.trace().clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{PrimitiveOp, StsPhase};
    use crate::wire::{FieldKind, WireField};

    /// A minimal ping/pong endpoint pair for driver tests.
    struct PingPong {
        role: Role,
        established: bool,
        trace: OpTrace,
        hang: bool,
    }

    impl PingPong {
        fn new(role: Role, hang: bool) -> Self {
            PingPong {
                role,
                established: false,
                trace: OpTrace::new(),
                hang,
            }
        }
    }

    impl Endpoint for PingPong {
        fn step(&mut self, incoming: Option<&Message>) -> Result<StepOutput, ProtocolError> {
            match (self.role, incoming) {
                // Echo forever: never establishes.
                (_, Some(msg)) if self.hang => Ok(StepOutput::Send(msg.clone())),
                (Role::Initiator, None) => {
                    self.trace
                        .record(StsPhase::Other, PrimitiveOp::RandomBytes { bytes: 1 });
                    Ok(StepOutput::Send(Message::new(
                        "A1",
                        vec![WireField::new(FieldKind::Ack, vec![1])],
                    )))
                }
                (Role::Responder, None) => Ok(StepOutput::Wait),
                (Role::Responder, Some(_)) => {
                    self.established = true;
                    Ok(StepOutput::Send(Message::new(
                        "B1",
                        vec![WireField::new(FieldKind::Ack, vec![2])],
                    )))
                }
                (Role::Initiator, Some(_)) => {
                    self.established = true;
                    Ok(StepOutput::Established)
                }
            }
        }
        fn is_established(&self) -> bool {
            self.established
        }
        fn session_key(&self) -> Result<SessionKey, ProtocolError> {
            if self.established {
                Ok(SessionKey::from_bytes([0u8; 32]))
            } else {
                Err(ProtocolError::NotEstablished)
            }
        }
        fn trace(&self) -> &OpTrace {
            &self.trace
        }
    }

    #[test]
    fn driver_completes_pingpong() {
        let mut a = PingPong::new(Role::Initiator, false);
        let mut b = PingPong::new(Role::Responder, false);
        let transcript = run_handshake(&mut a, &mut b).unwrap();
        assert_eq!(transcript.messages().len(), 2);
        assert_eq!(transcript.total_bytes(), 2);
        assert_eq!(transcript.trace(Role::Initiator).len(), 1);
    }

    #[test]
    fn driver_detects_stall() {
        let mut a = PingPong::new(Role::Initiator, true);
        let mut b = PingPong::new(Role::Responder, true);
        assert_eq!(
            run_handshake(&mut a, &mut b).unwrap_err(),
            ProtocolError::Stalled
        );
    }

    #[test]
    fn step_machine_sends_then_establishes() {
        let mut a = PingPong::new(Role::Initiator, false);
        let mut b = PingPong::new(Role::Responder, false);
        // A responder has nothing to open with.
        assert_eq!(b.step(None).unwrap(), StepOutput::Wait);
        // Kickoff: the initiator's first step takes no message.
        let StepOutput::Send(a1) = a.step(None).unwrap() else {
            panic!("initiator must open with a message");
        };
        // The responder replies and completes in the same step: Send
        // wins, completion shows through is_established().
        let StepOutput::Send(b1) = b.step(Some(&a1)).unwrap() else {
            panic!("responder must reply to A1");
        };
        assert!(b.is_established());
        assert_eq!(a.step(Some(&b1)).unwrap(), StepOutput::Established);
        assert!(a.is_established());
    }

    #[test]
    fn role_helpers() {
        assert_eq!(Role::Initiator.peer(), Role::Responder);
        assert_eq!(Role::Responder.peer(), Role::Initiator);
    }
}
