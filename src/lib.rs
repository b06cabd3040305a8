//! # dynamic-ecqv
//!
//! A full reproduction of *"Establishing Dynamic Secure Sessions for
//! ECQV Implicit Certificates in Embedded Systems"* (Basic, Steger,
//! Kofler — DATE 2023) as a Rust workspace.
//!
//! This facade crate re-exports every layer under a short module name;
//! the underlying workspace crates are all named `ecq_*` (note that
//! `ecq_sts` builds from the `crates/core` directory):
//!
//! * [`crypto`] (`ecq_crypto`) — SHA-256 / HMAC / HKDF / AES-128 /
//!   HMAC-DRBG,
//! * [`p256`] (`ecq_p256`) — the curve, ECDSA and ECDH from scratch,
//! * [`cert`] (`ecq_cert`) — SEC4 ECQV implicit certificates,
//! * [`proto`] (`ecq_proto`) — wire model, op traces, endpoint driver,
//! * [`sts`] (`ecq_sts`, from `crates/core`) — **the paper's
//!   contribution**: STS dynamic key derivation for ECQV architectures,
//! * [`baselines`] (`ecq_baselines`) — S-ECDSA, SCIANC, PORAMB
//!   comparison protocols,
//! * [`devices`] (`ecq_devices`) — the four evaluation boards' cost
//!   models,
//! * [`fleet`] (`ecq_fleet`) — fleet-scale provisioning: sharded CA
//!   pool, batch enrollment, concurrent handshakes, rekey epochs over
//!   a deterministic scheduler,
//! * [`simnet`] (`ecq_simnet`) — CAN-FD + ISO 15765-2 network
//!   simulation,
//! * [`service`] (`ecq_service`) — real-socket service mode: CA +
//!   responder daemon over TCP/Unix sockets with a versioned wire
//!   format,
//! * [`bms`] (`ecq_bms`) — the BMS↔EVCC automotive prototype,
//! * [`analysis`] (`ecq_analysis`) — threat model, Table III and
//!   executable attacks.
//!
//! # Quickstart
//!
//! ```
//! use dynamic_ecqv::prelude::*;
//!
//! // Deployment: a CA provisions two devices with implicit certs.
//! let mut rng = HmacDrbg::from_seed(1);
//! let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
//! let alice = Credentials::provision(&ca, DeviceId::from_label("alice"), 0, 3600, &mut rng)?;
//! let bob = Credentials::provision(&ca, DeviceId::from_label("bob"), 0, 3600, &mut rng)?;
//!
//! // Session establishment: STS dynamic key derivation.
//! let session = establish(&alice, &bob, &StsConfig::default(), &mut rng)?;
//! assert_eq!(session.initiator_key, session.responder_key);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub use ecq_analysis as analysis;
pub use ecq_baselines as baselines;
pub use ecq_bms as bms;
pub use ecq_cert as cert;
pub use ecq_crypto as crypto;
pub use ecq_devices as devices;
pub use ecq_fleet as fleet;
pub use ecq_p256 as p256;
pub use ecq_proto as proto;
pub use ecq_service as service;
pub use ecq_simnet as simnet;
pub use ecq_sts as sts;

/// The most common imports in one place.
pub mod prelude {
    pub use ecq_cert::{ca::CertificateAuthority, DeviceId, ImplicitCert};
    pub use ecq_crypto::HmacDrbg;
    pub use ecq_devices::DevicePreset;
    pub use ecq_fleet::{FleetConfig, FleetCoordinator, FleetReport, SweepOptions, TransportKind};
    pub use ecq_proto::{Credentials, ProtocolKind, SessionKey};
    pub use ecq_service::{ServiceClient, ServiceConfig, ServiceDaemon};
    pub use ecq_sts::{establish, StsConfig, StsVariant};
}
