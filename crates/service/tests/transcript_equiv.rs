//! Socket transcripts are byte-identical to channel transcripts.
//!
//! The socket path changes the transport, nothing else: for the same
//! (credentials, config, seeds), every handshake message that crosses
//! the loopback daemon must encode to exactly the bytes the same
//! session produces over an in-memory [`ChannelTransport`]. This is
//! the property that lets wall-clock service benchmarks stand in for
//! simulator runs byte-for-byte.

use ecq_cert::ca::CertificateAuthority;
use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;
use ecq_proto::{ChannelTransport, Credentials, Endpoint, Message, Role, SessionKey, StepOutput};
use ecq_service::{ServiceAddr, ServiceClient, ServiceConfig, ServiceDaemon};
use ecq_sts::{StsConfig, StsInitiator, StsResponder, StsVariant};
use proptest::prelude::*;

struct Setup {
    ca: CertificateAuthority,
    initiator: Credentials,
    responder: Credentials,
    seed_a: [u8; 32],
    seed_b: [u8; 32],
}

/// Derives CA, credentials and both session seeds from one master
/// seed, in a fixed draw order shared by both transports.
fn setup(seed: u64) -> Setup {
    let mut rng = HmacDrbg::from_seed(seed);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let initiator =
        Credentials::provision(&ca, DeviceId::from_label("alice"), 0, 1000, &mut rng).unwrap();
    let responder =
        Credentials::provision(&ca, DeviceId::from_label("bob"), 0, 1000, &mut rng).unwrap();
    let seed_a = rng.bytes32();
    let seed_b = rng.bytes32();
    Setup {
        ca,
        initiator,
        responder,
        seed_a,
        seed_b,
    }
}

/// The reference run: same endpoints, same seed-derived RNG streams,
/// driven message-by-message over an in-memory channel transport.
fn channel_transcript(setup: &Setup, config: StsConfig) -> (SessionKey, Vec<Message>) {
    let mut rng_a = HmacDrbg::new(&setup.seed_a, b"sts-initiator");
    let mut rng_b = HmacDrbg::new(&setup.seed_b, b"sts-responder");
    let mut alice = StsInitiator::new(setup.initiator.clone(), config, &mut rng_a);
    let mut bob = StsResponder::new(setup.responder.clone(), config, &mut rng_b);
    let mut link = ChannelTransport::new(0);
    let mut messages = Vec::new();

    let opening = match alice.step(None).unwrap() {
        StepOutput::Send(message) => message,
        other => panic!("initiator must open with a send, got {other:?}"),
    };
    messages.push(opening.clone());
    link.send_frame(Role::Initiator, opening, 0);

    let mut receiver = Role::Responder;
    for _ in 0..16 {
        if alice.is_established() && bob.is_established() {
            break;
        }
        let message = link.recv_frame(receiver, 0).expect("message due");
        let endpoint: &mut dyn Endpoint = match receiver {
            Role::Initiator => &mut alice,
            Role::Responder => &mut bob,
        };
        if let StepOutput::Send(reply) = endpoint.step(Some(&message)).unwrap() {
            messages.push(reply.clone());
            link.send_frame(receiver, reply, 0);
        }
        receiver = receiver.peer();
    }
    assert!(alice.is_established() && bob.is_established());
    let key = alice.session_key().unwrap();
    assert_eq!(key, bob.session_key().unwrap());
    (key, messages)
}

fn socket_transcript(setup: &Setup, config: StsConfig) -> (SessionKey, Vec<Message>) {
    let mut daemon = ServiceDaemon::start_with(
        ServiceConfig::tcp("127.0.0.1:0"),
        setup.ca.clone(),
        setup.responder.clone(),
    )
    .unwrap();
    let addr = match daemon.addr() {
        ServiceAddr::Tcp(addr) => *addr,
        #[cfg(unix)]
        ServiceAddr::Unix(_) => unreachable!("daemon bound to TCP"),
    };
    let mut client = ServiceClient::connect_tcp(addr).unwrap();
    let done = client
        .handshake(
            &setup.initiator,
            config.variant,
            config.now,
            &setup.seed_a,
            &setup.seed_b,
        )
        .unwrap();
    daemon.shutdown();
    (done.key, done.messages)
}

fn assert_byte_identical(seed: u64, variant: StsVariant, now: u32) {
    let setup = setup(seed);
    let config = StsConfig { now, variant };
    let (channel_key, channel_messages) = channel_transcript(&setup, config);
    let (socket_key, socket_messages) = socket_transcript(&setup, config);

    assert_eq!(socket_key, channel_key, "session keys diverge");
    assert_eq!(
        socket_messages.len(),
        channel_messages.len(),
        "message counts diverge"
    );
    for (index, (socket, channel)) in socket_messages
        .iter()
        .zip(channel_messages.iter())
        .enumerate()
    {
        assert_eq!(socket.step, channel.step, "step order diverges at {index}");
        assert_eq!(
            socket.encode(),
            channel.encode(),
            "message {index} ({}) bytes diverge",
            channel.step
        );
    }
}

#[test]
fn conventional_socket_run_matches_channel_run() {
    assert_byte_identical(42, StsVariant::Conventional, 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For ANY master seed, variant and clock, the loopback-socket
    /// handshake transcript is byte-identical to the channel-transport
    /// transcript of the same inputs, and both derive the same key.
    #[test]
    fn socket_transcript_is_byte_identical_to_channel(
        seed in 0u64..1_000_000,
        variant_index in 0usize..3,
        now in 0u32..1000,
    ) {
        assert_byte_identical(seed, StsVariant::ALL[variant_index], now);
    }
}
