//! 256-bit unsigned integer arithmetic over four 64-bit limbs.
//!
//! Limbs are stored least-significant first. Only the operations the
//! curve layers need are provided: carrying add/sub, widening multiply,
//! comparisons, bit access and big-endian (de)serialization.

#![allow(clippy::needless_range_loop)] // index form mirrors the limb algorithms

/// A 256-bit unsigned integer (little-endian limb order).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    limbs: [u64; 4],
}

impl core::fmt::Debug for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "U256(0x{:016x}{:016x}{:016x}{:016x})",
            self.limbs[3], self.limbs[2], self.limbs[1], self.limbs[0]
        )
    }
}

impl core::fmt::Display for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{:016x}{:016x}{:016x}{:016x}",
            self.limbs[3], self.limbs[2], self.limbs[1], self.limbs[0]
        )
    }
}

impl U256 {
    /// The value 0.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The value 1.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };
    /// The maximum value, 2^256 − 1.
    pub const MAX: U256 = U256 {
        limbs: [u64::MAX; 4],
    };

    /// Constructs from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256 { limbs }
    }

    /// Returns the little-endian limbs.
    pub const fn limbs(&self) -> [u64; 4] {
        self.limbs
    }

    /// Constructs from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Parses a big-endian hex string (exactly 64 hex digits, no prefix).
    ///
    /// # Panics
    ///
    /// Panics on malformed input; intended for constants and tests.
    pub fn from_be_hex(s: &str) -> Self {
        assert_eq!(s.len(), 64, "expected 64 hex chars");
        let mut bytes = [0u8; 32];
        for i in 0..32 {
            bytes[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex digit");
        }
        Self::from_be_bytes(&bytes)
    }

    /// Constructs from 32 big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[8 * (3 - i)..8 * (3 - i) + 8]);
            limbs[i] = u64::from_be_bytes(chunk);
        }
        U256 { limbs }
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * (3 - i)..8 * (3 - i) + 8].copy_from_slice(&self.limbs[i].to_be_bytes());
        }
        out
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Whether the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Returns bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < 256, "bit index out of range");
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return 64 * i + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Extracts the 4-bit window ending at bit `i*4` (for windowed
    /// scalar multiplication): bits `[4i, 4i+3]`.
    pub fn nibble(&self, i: usize) -> u8 {
        assert!(i < 64, "nibble index out of range");
        ((self.limbs[i / 16] >> (4 * (i % 16))) & 0xf) as u8
    }

    /// `self + rhs`, returning the sum and the carry-out bit.
    pub fn adc(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 | c2;
        }
        (U256 { limbs: out }, carry)
    }

    /// `self - rhs`, returning the difference and the borrow-out bit.
    pub fn sbb(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for i in 0..4 {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 | b2;
        }
        (U256 { limbs: out }, borrow)
    }

    /// Wrapping (mod 2^256) addition.
    pub fn wrapping_add(&self, rhs: &U256) -> U256 {
        self.adc(rhs).0
    }

    /// Wrapping (mod 2^256) subtraction.
    pub fn wrapping_sub(&self, rhs: &U256) -> U256 {
        self.sbb(rhs).0
    }

    /// Wrapping (mod 2^256) negation: `2^256 - self` for nonzero values.
    pub fn wrapping_neg(&self) -> U256 {
        U256::ZERO.wrapping_sub(self)
    }

    /// Full 256×256 → 512-bit multiplication.
    pub fn widening_mul(&self, rhs: &U256) -> [u64; 8] {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let acc =
                    out[i + j] as u128 + (self.limbs[i] as u128) * (rhs.limbs[j] as u128) + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            out[i + 4] = carry as u64;
        }
        out
    }

    /// Shifts left by one bit, returning the shifted value and the
    /// carried-out top bit.
    pub fn shl1(&self) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            out[i] = (self.limbs[i] << 1) | carry;
            carry = self.limbs[i] >> 63;
        }
        (U256 { limbs: out }, carry == 1)
    }

    /// All-ones mask when the value is zero, all-zeros otherwise,
    /// without branching on the (possibly secret) value.
    pub fn ct_is_zero_mask(&self) -> u64 {
        crate::ct::is_zero_mask(self.limbs[0] | self.limbs[1] | self.limbs[2] | self.limbs[3])
    }

    /// Shifts right by one bit.
    pub fn shr1(&self) -> U256 {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in (0..4).rev() {
            out[i] = (self.limbs[i] >> 1) | (carry << 63);
            carry = self.limbs[i] & 1;
        }
        U256 { limbs: out }
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                core::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        core::cmp::Ordering::Equal
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl ecq_crypto::zeroize::Zeroize for U256 {
    fn zeroize(&mut self) {
        ecq_crypto::zeroize::wipe_u64s(&mut self.limbs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn be_bytes_roundtrip() {
        let x =
            U256::from_be_hex("00112233445566778899aabbccddeeff0102030405060708090a0b0c0d0e0f10");
        assert_eq!(U256::from_be_bytes(&x.to_be_bytes()), x);
        assert_eq!(x.limbs()[0], 0x090a0b0c0d0e0f10);
        assert_eq!(x.limbs()[3], 0x0011223344556677);
    }

    #[test]
    fn hex_display_roundtrip() {
        let s = "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";
        assert_eq!(U256::from_be_hex(s).to_string(), s);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a =
            U256::from_be_hex("00112233445566778899aabbccddeeff0102030405060708090a0b0c0d0e0f10");
        let b = U256::from_u64(0xdeadbeef);
        let (sum, c) = a.adc(&b);
        assert!(!c);
        let (diff, bo) = sum.sbb(&b);
        assert!(!bo);
        assert_eq!(diff, a);
    }

    #[test]
    fn overflow_carry() {
        let (s, c) = U256::MAX.adc(&U256::ONE);
        assert!(c);
        assert_eq!(s, U256::ZERO);
        let (d, b) = U256::ZERO.sbb(&U256::ONE);
        assert!(b);
        assert_eq!(d, U256::MAX);
    }

    #[test]
    fn widening_mul_small() {
        let a = U256::from_u64(u64::MAX);
        let prod = a.widening_mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(prod[0], 1);
        assert_eq!(prod[1], u64::MAX - 1);
        assert_eq!(prod[2..], [0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn widening_mul_max() {
        let prod = U256::MAX.widening_mul(&U256::MAX);
        // (2^256-1)^2 = 2^512 - 2^257 + 1
        assert_eq!(prod[0], 1);
        assert_eq!(prod[1..4], [0, 0, 0]);
        assert_eq!(prod[4], u64::MAX - 1);
        assert_eq!(prod[5..], [u64::MAX, u64::MAX, u64::MAX]);
    }

    #[test]
    fn bits_and_nibbles() {
        let x = U256::from_u64(0b1011_0101);
        assert!(x.bit(0));
        assert!(!x.bit(1));
        assert!(x.bit(7));
        assert_eq!(x.nibble(0), 0x5);
        assert_eq!(x.nibble(1), 0xb);
        assert_eq!(x.bit_len(), 8);
        assert_eq!(U256::ZERO.bit_len(), 0);
        assert_eq!(U256::MAX.bit_len(), 256);
    }

    #[test]
    fn shifts() {
        let x =
            U256::from_be_hex("8000000000000000000000000000000000000000000000000000000000000001");
        let (shifted, carry) = x.shl1();
        assert!(carry);
        assert_eq!(shifted, U256::from_u64(2));
        assert_eq!(
            x.shr1().to_string(),
            "4000000000000000000000000000000000000000000000000000000000000000"
        );
    }

    #[test]
    fn ordering() {
        let small = U256::from_u64(5);
        let big =
            U256::from_be_hex("0000000000000000000000000000000100000000000000000000000000000000");
        assert!(small < big);
        assert!(big > small);
        assert_eq!(small.cmp(&small), core::cmp::Ordering::Equal);
    }

    #[test]
    fn wrapping_neg_is_twos_complement() {
        assert_eq!(U256::ONE.wrapping_neg(), U256::MAX);
        assert_eq!(U256::ZERO.wrapping_neg(), U256::ZERO);
    }
}
