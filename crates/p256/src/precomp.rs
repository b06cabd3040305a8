//! Fixed-base precomputation for the generator `G`.
//!
//! `k·G` is by far the hottest curve operation in the workspace: every
//! ephemeral STS key (eq. (2)), every ECQV request point, every CA
//! blinding and every key-pair consistency check multiplies the same
//! fixed generator. The generic double-and-add path pays ~252 doublings
//! per call even though the base never changes.
//!
//! One comb serves both fixed-base walks: `table[w][d-1] = d · 16^w · G`,
//! 64 windows × 15 digits, ~70 KiB. It builds lazily on first use, is
//! shared process-wide, and batch-normalizes its Jacobian multiples
//! around a single shared field inversion
//! ([`crate::point::batch_normalize`], Montgomery's trick).
//!
//! * The *constant-time* walk ([`crate::point::mul_generator_ct`])
//!   scans every entry of a window per masked addition, so the scan
//!   cost grows with `2^w` while the savings per extra width bit
//!   shrink. With the specialized backend's cheap additions, 4 bits is
//!   the measured optimum; an 8-bit ct scan would touch 255 entries
//!   per masked add and lose outright.
//! * The *variable-time* walk ([`crate::point::mul_generator_vartime`])
//!   indexes digits directly and skips zero nibbles: at most 64 mixed
//!   additions, no doublings. ECDSA verification's `u1` rides it. An
//!   8-bit comb halved the additions (~11 µs per `u1·G`) but cost a
//!   6 ms build and ~1.75 MiB of peak resident memory, so it was
//!   deleted.
//!
//! **Why ECDSA verification uses the comb.** Verification computes
//! `u1·G + u2·Q`. Its one path runs two separate multiplications: the
//! comb-backed `u1·G` (no doublings) plus one wNAF `u2·Q`. One
//! interleaved `u1·G + u2·Q` ladder ([`crate::point::multi_scalar_mul`])
//! would share `u2·Q`'s doublings but drag `u1·G` through all ~256 of
//! them, because a shared ladder cannot ride a fixed-base comb. The
//! interleaved ladder was deleted as a verify path after it lost every
//! run against the since-deleted 8-bit comb (248.6 µs against 227.1 µs
//! in one `bench_p256` run, 2-vCPU x86-64 container). On the 4-bit
//! comb the margin narrows but holds: over 64 random `(u1, u2, Q)`
//! inputs, 3 × 9 interleaved rounds on the same container, the
//! separate form took 193 µs median against 201 µs for the
//! interleaved ladder and won 25 of 27 rounds (`u1·G` alone: ~30 µs).

use crate::point::{batch_normalize, AffinePoint, JacobianPoint};
use std::sync::OnceLock;

/// Number of 4-bit windows covering a 256-bit scalar.
pub const WINDOWS: usize = 64;
/// Non-zero digits per 4-bit window.
pub const DIGITS: usize = 15;

/// The fixed-base comb: `table[w][d-1] = d · 16^w · G`.
pub struct GeneratorTable {
    windows: Vec<[AffinePoint; DIGITS]>,
}

impl GeneratorTable {
    /// Builds `windows[w][d-1] = d · 16^w · G` from doublings and
    /// additions, normalized to affine around one shared inversion.
    fn build() -> Self {
        let mut jac: Vec<JacobianPoint> = Vec::with_capacity(WINDOWS * DIGITS);
        let mut base = JacobianPoint::from_affine(&AffinePoint::generator());
        for _ in 0..WINDOWS {
            let start = jac.len();
            jac.push(base); // 1·base
            for d in 2..=DIGITS {
                let next = if d % 2 == 0 {
                    jac[start + d / 2 - 1].double()
                } else {
                    jac[start + d - 2].add(&base)
                };
                jac.push(next);
            }
            // 16·base = 2·(8·base) feeds the next window.
            base = jac[start + 7].double();
        }
        let windows = batch_normalize(&jac)
            .chunks_exact(DIGITS)
            .map(|chunk| {
                let mut w = [AffinePoint::identity(); DIGITS];
                w.copy_from_slice(chunk);
                w
            })
            .collect();
        GeneratorTable { windows }
    }

    /// The precomputed point `d · 16^w · G` (`d ∈ [1, 15]`).
    ///
    /// Direct indexing, for the vartime walk over *public* digits.
    /// Indexing by a secret digit leaks it through the data cache; the
    /// constant-time walk uses [`Self::window`] with a full masked scan
    /// instead.
    #[inline]
    pub fn entry(&self, window: usize, digit: u8) -> &AffinePoint {
        debug_assert!((1..=DIGITS as u8).contains(&digit));
        &self.windows[window][digit as usize - 1]
    }

    /// All 15 entries of one window (`window[d-1] = d · 16^w · G`), for
    /// the constant-time scan of [`crate::ct::lookup_affine`].
    #[inline]
    pub fn window(&self, window: usize) -> &[AffinePoint; DIGITS] {
        &self.windows[window]
    }
}

/// The shared process-wide comb, built on first use.
pub fn generator_table() -> &'static GeneratorTable {
    static TABLE: OnceLock<GeneratorTable> = OnceLock::new();
    TABLE.get_or_init(GeneratorTable::build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Scalar;

    /// `d · 16^w` as a scalar.
    fn digit_scalar(d: u64, w: usize) -> Scalar {
        let mut scalar = Scalar::from_u64(d);
        for _ in 0..w {
            scalar = scalar.mul(&Scalar::from_u64(16));
        }
        scalar
    }

    #[test]
    fn table_entries_match_generic_mul() {
        let g = AffinePoint::generator();
        let table = generator_table();
        // Spot-check digits across several windows against the generic
        // scalar multiplication: d · 16^w.
        for &(w, d) in &[(0usize, 1u8), (0, 15), (1, 1), (1, 9), (7, 3), (63, 15)] {
            assert_eq!(
                *table.entry(w, d),
                g.mul_vartime(&digit_scalar(d as u64, w)),
                "window {w} digit {d}"
            );
        }
    }

    #[test]
    fn every_entry_is_on_curve() {
        let table = generator_table();
        for w in 0..WINDOWS {
            for d in 1..=DIGITS as u8 {
                let p = table.entry(w, d);
                assert!(p.is_on_curve() && !p.infinity);
            }
        }
    }
}
