//! Socket transcripts are byte-identical to in-memory transcripts.
//!
//! The socket path changes the transport, nothing else: for the same
//! (credentials, config, seeds), every handshake message that crosses
//! the loopback daemon must encode to exactly the bytes
//! [`ecq_sts::establish`] logs when it runs the same session in memory
//! through `run_handshake`. This is the property that lets wall-clock
//! service benchmarks stand in for simulator runs byte-for-byte.

use ecq_cert::ca::CertificateAuthority;
use ecq_cert::DeviceId;
use ecq_crypto::HmacDrbg;
use ecq_proto::{Credentials, Message, SessionKey};
use ecq_service::{ServiceAddr, ServiceClient, ServiceConfig, ServiceDaemon};
use ecq_sts::{establish, StsConfig, StsVariant};
use proptest::prelude::*;

struct Setup {
    ca: CertificateAuthority,
    initiator: Credentials,
    responder: Credentials,
    /// The DRBG both session seeds are drawn from, before the draws:
    /// [`establish`] forks its endpoints off it in the same order.
    wire_rng: HmacDrbg,
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
    let wire_rng = rng.clone();
    let seed_a = rng.bytes32();
    let seed_b = rng.bytes32();
    Setup {
        ca,
        initiator,
        responder,
        wire_rng,
        seed_a,
        seed_b,
    }
}

/// The reference run: the same endpoints on the same seed-derived RNG
/// streams, driven to completion in memory. Returns the key and the
/// step label and encoded bytes of every message.
fn memory_transcript(
    setup: &Setup,
    config: StsConfig,
) -> (SessionKey, Vec<(&'static str, Vec<u8>)>) {
    let outcome = establish(
        &setup.initiator,
        &setup.responder,
        &config,
        &mut setup.wire_rng.clone(),
    )
    .unwrap();
    assert_eq!(outcome.initiator_key, outcome.responder_key);
    let messages = outcome
        .transcript
        .messages()
        .iter()
        .map(|m| (m.step, m.bytes.clone()))
        .collect();
    (outcome.initiator_key, messages)
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
    let (memory_key, memory_messages) = memory_transcript(&setup, config);
    let (socket_key, socket_messages) = socket_transcript(&setup, config);

    assert_eq!(socket_key, memory_key, "session keys diverge");
    assert_eq!(
        socket_messages.len(),
        memory_messages.len(),
        "message counts diverge"
    );
    for (index, (socket, (memory_step, memory_bytes))) in
        socket_messages.iter().zip(&memory_messages).enumerate()
    {
        assert_eq!(socket.step, *memory_step, "step order diverges at {index}");
        assert_eq!(
            &socket.encode(),
            memory_bytes,
            "message {index} ({}) bytes diverge",
            socket.step
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
    /// handshake transcript is byte-identical to the in-memory
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
