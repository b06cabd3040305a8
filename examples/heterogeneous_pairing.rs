//! The paper's eq. (6): what the STS pipelining optimizations buy when
//! the two devices are NOT identical — e.g. a fast gateway talking to
//! a slow sensor node.
//!
//! ```sh
//! cargo run --example heterogeneous_pairing
//! ```

use dynamic_ecqv::devices::timing::protocol_pair_time;
use dynamic_ecqv::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = HmacDrbg::from_seed(606);
    let ca = CertificateAuthority::new(DeviceId::from_label("CA"), &mut rng);
    let alice = Credentials::provision(&ca, DeviceId::from_label("alice"), 0, 3600, &mut rng)?;
    let bob = Credentials::provision(&ca, DeviceId::from_label("bob"), 0, 3600, &mut rng)?;
    let session = establish(&alice, &bob, &StsConfig::default(), &mut rng)?;
    let transcript = session.transcript;

    println!("STS total time for every device pairing (ms), conventional vs opt. II\n");
    println!(
        "{:<14}{:<14}{:>14}{:>14}{:>14}{:>10}",
        "initiator", "responder", "conventional", "opt. I", "opt. II", "saving"
    );
    for da in DevicePreset::ALL {
        for db in DevicePreset::ALL {
            let [conv, opt1, opt2] = StsVariant::ALL.map(|v| {
                protocol_pair_time(v.protocol_kind(), &transcript, &da.profile(), &db.profile())
            });
            println!(
                "{:<14}{:<14}{:>14.2}{:>14.2}{:>14.2}{:>9.1}%",
                da.profile().name,
                db.profile().name,
                conv,
                opt1,
                opt2,
                (1.0 - opt2 / conv) * 100.0
            );
        }
    }
    println!("\nEq. (6) in action: the saving collapses when one device dwarfs the other —");
    println!("pipelining only removes min(T_A, T_B) per overlapped operation.");
    Ok(())
}
