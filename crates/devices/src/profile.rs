//! Per-device primitive cost tables.

use ecq_proto::PrimitiveOp;

/// Millisecond costs of each primitive class on one device.
///
/// The EC costs are fitted from the paper's Table I (see crate docs);
/// the symmetric costs are small device-scaled constants.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrimitiveCosts {
    /// Ephemeral key generation (random scalar + base multiplication).
    pub keygen_ms: f64,
    /// ECQV public-key reconstruction (eq. (1)).
    pub recon_ms: f64,
    /// ECDH point multiplication.
    pub ecdh_ms: f64,
    /// ECDSA signature generation.
    pub sign_ms: f64,
    /// ECDSA signature verification.
    pub verify_ms: f64,
    /// One AES-128 block operation.
    pub aes_block_ms: f64,
    /// One HMAC tag over a short message.
    pub mac_ms: f64,
    /// One HKDF session-key derivation.
    pub kdf_ms: f64,
    /// Drawing 32 random bytes.
    pub rng32_ms: f64,
    /// One SHA-256 compression block.
    pub hash_block_ms: f64,
}

/// A named device with its cost table.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable board name (Table I column header).
    pub name: &'static str,
    /// Hardware class blurb from §V-A (cpu, word size, clock).
    pub class: &'static str,
    /// The primitive cost table.
    pub costs: PrimitiveCosts,
}

impl DeviceProfile {
    /// The simulated cost of one primitive invocation, in ms.
    pub fn cost_of(&self, op: &PrimitiveOp) -> f64 {
        let c = &self.costs;
        match op {
            PrimitiveOp::EphemeralKeyGen => c.keygen_ms,
            PrimitiveOp::PublicKeyReconstruction => c.recon_ms,
            PrimitiveOp::EcdhDerive => c.ecdh_ms,
            PrimitiveOp::EcdsaSign => c.sign_ms,
            PrimitiveOp::EcdsaVerify => c.verify_ms,
            PrimitiveOp::AesEncrypt { blocks } | PrimitiveOp::AesDecrypt { blocks } => {
                c.aes_block_ms * (*blocks as f64)
            }
            PrimitiveOp::MacTag | PrimitiveOp::MacVerify => c.mac_ms,
            PrimitiveOp::Kdf => c.kdf_ms,
            PrimitiveOp::Hash { bytes } => {
                // SHA-256 pads to 64-byte blocks (9 bytes minimum pad).
                let blocks = (bytes + 9).div_ceil(64);
                c.hash_block_ms * blocks as f64
            }
            PrimitiveOp::RandomBytes { bytes } => c.rng32_ms * (bytes.div_ceil(32) as f64),
        }
    }
}

/// Builds a cost table from the four fitted per-side operation times
/// (`Op1..Op4`, ms) and the device's symmetric-primitive constants.
///
/// Inverts the decomposition used by the timing model:
///
/// * `Op1 = keygen + rng32`
/// * `Op2 = recon + ecdh + kdf` (reconstruction and ECDH split evenly —
///   both are one scalar multiplication in micro-ecc)
/// * `Op3 = sign + 4·aes_block` (64-byte response = 4 CTR blocks)
/// * `Op4 = verify + 4·aes_block`
pub fn costs_from_op_times(
    op: [f64; 4],
    aes_block_ms: f64,
    mac_ms: f64,
    kdf_ms: f64,
    rng32_ms: f64,
    hash_block_ms: f64,
) -> PrimitiveCosts {
    let ec_half = (op[1] - kdf_ms) / 2.0;
    PrimitiveCosts {
        keygen_ms: op[0] - rng32_ms,
        recon_ms: ec_half,
        ecdh_ms: ec_half,
        sign_ms: op[2] - 4.0 * aes_block_ms,
        verify_ms: op[3] - 4.0 * aes_block_ms,
        aes_block_ms,
        mac_ms,
        kdf_ms,
        rng32_ms,
        hash_block_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeviceProfile {
        DeviceProfile {
            name: "test",
            class: "test-class",
            costs: costs_from_op_times([100.0, 90.0, 200.0, 110.0], 0.5, 1.0, 4.0, 2.0, 0.1),
        }
    }

    #[test]
    fn inversion_reconstructs_op_times() {
        let p = sample();
        let c = &p.costs;
        assert!((c.keygen_ms + c.rng32_ms - 100.0).abs() < 1e-9);
        assert!((c.recon_ms + c.ecdh_ms + c.kdf_ms - 90.0).abs() < 1e-9);
        assert!((c.sign_ms + 4.0 * c.aes_block_ms - 200.0).abs() < 1e-9);
        assert!((c.verify_ms + 4.0 * c.aes_block_ms - 110.0).abs() < 1e-9);
    }

    #[test]
    fn cost_of_parameterized_ops() {
        let p = sample();
        assert_eq!(p.cost_of(&PrimitiveOp::AesEncrypt { blocks: 4 }), 2.0);
        assert_eq!(p.cost_of(&PrimitiveOp::AesDecrypt { blocks: 1 }), 0.5);
        assert_eq!(p.cost_of(&PrimitiveOp::RandomBytes { bytes: 32 }), 2.0);
        assert_eq!(p.cost_of(&PrimitiveOp::RandomBytes { bytes: 33 }), 4.0);
        // 101-byte cert: 101+9=110 → 2 blocks.
        assert!((p.cost_of(&PrimitiveOp::Hash { bytes: 101 }) - 0.2).abs() < 1e-12);
        assert_eq!(p.cost_of(&PrimitiveOp::MacTag), 1.0);
        assert_eq!(p.cost_of(&PrimitiveOp::MacVerify), 1.0);
    }

    #[test]
    fn ec_ops_dominate_symmetric() {
        let p = sample();
        assert!(p.cost_of(&PrimitiveOp::EcdsaSign) > 50.0 * p.cost_of(&PrimitiveOp::MacTag));
    }
}
