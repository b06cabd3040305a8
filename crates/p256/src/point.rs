//! P-256 group operations.
//!
//! Points are manipulated in Jacobian coordinates (`x = X/Z²`,
//! `y = Y/Z³`) with `a = −3` folded into the doubling formula, exactly
//! as micro-ecc does. Scalar multiplication comes in two explicitly
//! named families:
//!
//! * **`*_ct`** — constant group-operation schedule, for secret
//!   scalars: [`mul_generator_ct`] always-adds across all 64 windows of
//!   the fixed-base table (dummy additions for zero digits, table
//!   entries fetched by a full constant-time scan), and
//!   [`JacobianPoint::mul_ct`] runs a fixed window walk of exactly
//!   4 doublings + 1 masked addition per window. Key generation, ECDH,
//!   ECDSA signing and the ECQV secret paths use these.
//! * **`*_vartime`** — faster, schedule leaks the scalar's digit
//!   pattern: [`mul_generator_vartime`] (the same fixed-base table,
//!   zero digits skipped), [`AffinePoint::mul_vartime`] (width-5 wNAF
//!   over an odd-multiples table) and [`multi_scalar_mul`] (two
//!   interleaved wNAF terms sharing one table inversion), the last two
//!   running the same private wNAF doubling ladder. Only for public
//!   inputs: ECDSA verification, eq. (1) public-key reconstruction,
//!   benches and attack simulations.
//!
//! The op-counter (the `ops` module, compiled under `cfg(test)` or the
//! `schedule-counters` feature) asserts the ct schedules are
//! scalar-independent; `scripts/verify.sh` runs that suite in release
//! mode, and `ecq_lint`'s companion test re-checks it end-to-end from
//! `ecq_sts`. The remaining caveat is documented in [`crate::ct`]: field
//! arithmetic keeps the Montgomery conditional subtraction, so this is
//! schedule-level, not gate-level, constant time.

use crate::ct;
use crate::field::FieldElement;
use crate::scalar::Scalar;
use crate::u256::U256;
use crate::CurveError;
use std::sync::OnceLock;

/// Generator x-coordinate, big-endian hex.
pub const GX_HEX: &str = "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296";
/// Generator y-coordinate, big-endian hex.
pub const GY_HEX: &str = "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5";

/// Group-operation counters behind the constant-schedule assertions.
/// Thread-local, so parallel tests do not observe each other's
/// operations. Compiled for this crate's own tests and, under the
/// `schedule-counters` feature, for cross-crate dynamic checks (the
/// `ecq_lint` companion test drives full STS handshakes under these
/// counters and asserts value-independent schedules end-to-end).
#[cfg(any(test, feature = "schedule-counters"))]
pub mod ops {
    use std::cell::Cell;

    thread_local! {
        static ADDS: Cell<u64> = const { Cell::new(0) };
        static DOUBLES: Cell<u64> = const { Cell::new(0) };
        static CT_ADDS: Cell<u64> = const { Cell::new(0) };
        static CT_DOUBLES: Cell<u64> = const { Cell::new(0) };
    }

    /// Snapshot of this thread's counters.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Counts {
        /// Variable-time additions (`add` / `add_affine`).
        pub adds: u64,
        /// Variable-time doublings (`double`).
        pub doubles: u64,
        /// Constant-schedule additions (`add_affine_ct`).
        pub ct_adds: u64,
        /// Constant-schedule doublings (`double_ct`).
        pub ct_doubles: u64,
    }

    /// Counts one variable-time addition on this thread.
    pub fn record_add() {
        ADDS.with(|c| c.set(c.get() + 1));
    }
    /// Counts one variable-time doubling on this thread.
    pub fn record_double() {
        DOUBLES.with(|c| c.set(c.get() + 1));
    }
    /// Counts one constant-schedule addition on this thread.
    pub fn record_ct_add() {
        CT_ADDS.with(|c| c.set(c.get() + 1));
    }
    /// Counts one constant-schedule doubling on this thread.
    pub fn record_ct_double() {
        CT_DOUBLES.with(|c| c.set(c.get() + 1));
    }

    /// Runs `f` with zeroed counters and returns its result plus the
    /// group operations it performed on this thread. Forces the lazy
    /// fixed-base table first so its one-time build is not
    /// attributed to `f`.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Counts) {
        let _ = crate::precomp::generator_table();
        ADDS.with(|c| c.set(0));
        DOUBLES.with(|c| c.set(0));
        CT_ADDS.with(|c| c.set(0));
        CT_DOUBLES.with(|c| c.set(0));
        let result = f();
        let counts = Counts {
            adds: ADDS.with(Cell::get),
            doubles: DOUBLES.with(Cell::get),
            ct_adds: CT_ADDS.with(Cell::get),
            ct_doubles: CT_DOUBLES.with(Cell::get),
        };
        (result, counts)
    }
}

/// A point in affine coordinates, or the point at infinity.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AffinePoint {
    /// x-coordinate (meaningless when `infinity`).
    pub x: FieldElement,
    /// y-coordinate (meaningless when `infinity`).
    pub y: FieldElement,
    /// Whether this is the identity element.
    pub infinity: bool,
}

impl AffinePoint {
    /// The point at infinity (group identity).
    pub fn identity() -> Self {
        AffinePoint {
            x: FieldElement::zero(),
            y: FieldElement::zero(),
            infinity: true,
        }
    }

    /// The curve generator `G`.
    pub fn generator() -> Self {
        static G: OnceLock<AffinePoint> = OnceLock::new();
        *G.get_or_init(|| AffinePoint {
            x: FieldElement::from_canonical(&U256::from_be_hex(GX_HEX)).expect("Gx < p"),
            y: FieldElement::from_canonical(&U256::from_be_hex(GY_HEX)).expect("Gy < p"),
            infinity: false,
        })
    }

    /// Checks the affine curve equation `y² = x³ − 3x + b`.
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let y2 = self.y.square();
        let x3 = self.x.square().mul(&self.x);
        let rhs = x3
            .sub(&self.x.double().add(&self.x)) // x³ − 3x
            .add(&FieldElement::curve_b());
        y2 == rhs
    }

    /// Encodes the point in compressed SEC1 form (`02/03 ‖ x`,
    /// 33 bytes) — the representation the service wire format and the
    /// ECQV minimal certificate carry.
    ///
    /// Unlike [`crate::encoding::encode_compressed`], this is total:
    /// the point at infinity (which has no SEC1 encoding here) is a
    /// typed error instead of a panic, so wire-facing code stays
    /// panic-free.
    ///
    /// # Errors
    ///
    /// [`CurveError::InvalidPoint`] on the point at infinity.
    pub fn to_bytes_compressed(&self) -> Result<[u8; 33], CurveError> {
        if self.infinity {
            return Err(CurveError::InvalidPoint);
        }
        let mut out = [0u8; 33];
        out[0] = if self.y.is_odd() { 0x03 } else { 0x02 };
        out[1..].copy_from_slice(&self.x.to_be_bytes());
        Ok(out)
    }

    /// Decodes a compressed SEC1 point (33 bytes), recomputing `y` from
    /// the parity tag via a square root and validating the curve
    /// equation.
    ///
    /// # Errors
    ///
    /// [`CurveError::InvalidPoint`] on a bad tag or length, an
    /// out-of-range `x`, or an `x` whose `x³ − 3x + b` is a
    /// non-residue (no curve point has that abscissa).
    pub fn from_bytes_compressed(bytes: &[u8]) -> Result<Self, CurveError> {
        crate::encoding::decode_compressed(bytes)
    }

    /// Constructs a point from affine coordinates, validating the curve
    /// equation. Returns `None` when `(x, y)` is not on the curve.
    pub fn from_coords(x: FieldElement, y: FieldElement) -> Option<Self> {
        let p = AffinePoint {
            x,
            y,
            infinity: false,
        };
        p.is_on_curve().then_some(p)
    }

    /// Point negation.
    pub fn neg(&self) -> Self {
        AffinePoint {
            x: self.x,
            y: self.y.neg(),
            infinity: self.infinity,
        }
    }

    /// Constant-time select: `a` when `mask` is all-ones, `b` when
    /// all-zeros.
    pub fn conditional_select(a: &Self, b: &Self, mask: u64) -> Self {
        AffinePoint {
            x: FieldElement::conditional_select(&a.x, &b.x, mask),
            y: FieldElement::conditional_select(&a.y, &b.y, mask),
            infinity: ct::select_u64(a.infinity as u64, b.infinity as u64, mask) != 0,
        }
    }

    /// Group addition (affine convenience; converts through Jacobian).
    pub fn add(&self, rhs: &AffinePoint) -> AffinePoint {
        JacobianPoint::from_affine(self).add_affine(rhs).to_affine()
    }

    /// Variable-time scalar multiplication `k·self`.
    ///
    /// The schedule skips zero windows of `k`: only for public scalars
    /// (signature verification, attack tooling, benches).
    pub fn mul_vartime(&self, k: &Scalar) -> AffinePoint {
        JacobianPoint::from_affine(self).mul_vartime(k).to_affine()
    }

    /// Constant-schedule scalar multiplication `k·self` for secret `k`.
    /// See [`JacobianPoint::mul_ct`].
    pub fn mul_ct(&self, k: &Scalar) -> AffinePoint {
        JacobianPoint::from_affine(self).mul_ct(k).to_affine()
    }
}

/// A point in Jacobian projective coordinates.
#[derive(Clone, Copy, Debug)]
pub struct JacobianPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

impl JacobianPoint {
    /// The identity element (encoded with `Z = 0`).
    pub fn identity() -> Self {
        JacobianPoint {
            x: FieldElement::one(),
            y: FieldElement::one(),
            z: FieldElement::zero(),
        }
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Lifts an affine point.
    pub fn from_affine(p: &AffinePoint) -> Self {
        if p.infinity {
            Self::identity()
        } else {
            JacobianPoint {
                x: p.x,
                y: p.y,
                z: FieldElement::one(),
            }
        }
    }

    /// Projects back to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> AffinePoint {
        if self.is_identity() {
            return AffinePoint::identity();
        }
        let z_inv = self.z.invert();
        let z_inv2 = z_inv.square();
        let z_inv3 = z_inv2.mul(&z_inv);
        AffinePoint {
            x: self.x.mul(&z_inv2),
            y: self.y.mul(&z_inv3),
            infinity: false,
        }
    }

    /// Constant-time select: `a` when `mask` is all-ones, `b` when
    /// all-zeros.
    pub fn conditional_select(a: &Self, b: &Self, mask: u64) -> Self {
        JacobianPoint {
            x: FieldElement::conditional_select(&a.x, &b.x, mask),
            y: FieldElement::conditional_select(&a.y, &b.y, mask),
            z: FieldElement::conditional_select(&a.z, &b.z, mask),
        }
    }

    /// Point doubling with `a = −3`
    /// (`M = 3(X−Z²)(X+Z²)`, standard dbl-2001-b shape).
    pub fn double(&self) -> JacobianPoint {
        #[cfg(any(test, feature = "schedule-counters"))]
        ops::record_double();
        if self.is_identity() || self.y.is_zero() {
            return Self::identity();
        }
        self.double_inner()
    }

    /// Branch-free doubling for secret-dependent schedules: the same
    /// formula as [`Self::double`] with no identity short-circuit. The
    /// identity (`Z = 0`) flows through to `Z' = 2YZ = 0`, and points
    /// with `Y = 0` (order 2) do not exist on P-256 — the group order
    /// is an odd prime — so the `Y = 0` guard of the vartime path is
    /// unnecessary for valid inputs.
    fn double_ct(&self) -> JacobianPoint {
        #[cfg(any(test, feature = "schedule-counters"))]
        ops::record_ct_double();
        self.double_inner()
    }

    fn double_inner(&self) -> JacobianPoint {
        let zz = self.z.square();
        // M = 3(X−Z²)(X+Z²); the ×3 is an add chain — a `from_u64(3)`
        // here would pay a full Montgomery conversion per doubling.
        let t = self.x.sub(&zz).mul(&self.x.add(&zz));
        let m = t.double().add(&t);
        let y2 = self.y.square();
        let s = self.x.mul(&y2).double().double(); // 4·X·Y²
        let x3 = m.square().sub(&s.double());
        let y4_8 = y2.square().double().double().double(); // 8·Y⁴
        let y3 = m.mul(&s.sub(&x3)).sub(&y4_8);
        let z3 = self.y.mul(&self.z).double();
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian + Jacobian addition.
    pub fn add(&self, rhs: &JacobianPoint) -> JacobianPoint {
        #[cfg(any(test, feature = "schedule-counters"))]
        ops::record_add();
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = rhs.x.mul(&z1z1);
        let s1 = self.y.mul(&z2z2).mul(&rhs.z);
        let s2 = rhs.y.mul(&z1z1).mul(&self.z);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2.sub(&u1);
        let r = s2.sub(&s1);
        let h2 = h.square();
        let h3 = h2.mul(&h);
        let u1h2 = u1.mul(&h2);
        let x3 = r.square().sub(&h3).sub(&u1h2.double());
        let y3 = r.mul(&u1h2.sub(&x3)).sub(&s1.mul(&h3));
        let z3 = self.z.mul(&rhs.z).mul(&h);
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed Jacobian + affine addition (saves a few multiplications).
    pub fn add_affine(&self, rhs: &AffinePoint) -> JacobianPoint {
        #[cfg(any(test, feature = "schedule-counters"))]
        ops::record_add();
        if rhs.infinity {
            return *self;
        }
        if self.is_identity() {
            return Self::from_affine(rhs);
        }
        let z1z1 = self.z.square();
        let u2 = rhs.x.mul(&z1z1);
        let s2 = rhs.y.mul(&z1z1).mul(&self.z);
        if self.x == u2 {
            if self.y == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2.sub(&self.x);
        let r = s2.sub(&self.y);
        let h2 = h.square();
        let h3 = h2.mul(&h);
        let u1h2 = self.x.mul(&h2);
        let x3 = r.square().sub(&h3).sub(&u1h2.double());
        let y3 = r.mul(&u1h2.sub(&x3)).sub(&self.y.mul(&h3));
        let z3 = self.z.mul(&h);
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition for secret-dependent schedules: computes the
    /// general formulas unconditionally, then repairs the exceptional
    /// cases with masked selects instead of branches — identity `self`
    /// → lift of `rhs`; `H = 0` (`self = ±rhs` in the group) → the
    /// identity; identity `rhs` → `self`.
    ///
    /// The `H = 0` repair returns the identity, which is only correct
    /// for `self = −rhs` (it would be wrong for a true doubling). The
    /// ct multipliers never produce the doubling case: each addition
    /// combines multiples `A·P` and `d·P` with `A ≠ d` unless `A = 0`
    /// (repaired by the identity-`self` select, which takes
    /// precedence) — see the per-caller audits on [`Self::mul_ct`] and
    /// [`mul_generator_ct_jacobian`].
    fn add_affine_ct(&self, rhs: &AffinePoint) -> JacobianPoint {
        #[cfg(any(test, feature = "schedule-counters"))]
        ops::record_ct_add();
        let z1z1 = self.z.square();
        let u2 = rhs.x.mul(&z1z1);
        let s2 = rhs.y.mul(&z1z1).mul(&self.z);
        let h = u2.sub(&self.x);
        let r = s2.sub(&self.y);
        let h2 = h.square();
        let h3 = h2.mul(&h);
        let u1h2 = self.x.mul(&h2);
        let x3 = r.square().sub(&h3).sub(&u1h2.double());
        let y3 = r.mul(&u1h2.sub(&x3)).sub(&self.y.mul(&h3));
        let z3 = self.z.mul(&h);
        let general = JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        };

        let self_is_id = self.z.ct_is_zero_mask();
        let rhs_is_id = ct::bool_mask(rhs.infinity);
        let h_is_zero = h.ct_is_zero_mask();
        let rhs_lifted = JacobianPoint {
            x: rhs.x,
            y: rhs.y,
            z: FieldElement::one(),
        };

        // Ascending precedence: H = 0 is garbage when `self` is the
        // identity, and an infinite `rhs` overrides everything.
        let mut out = Self::conditional_select(&Self::identity(), &general, h_is_zero);
        out = Self::conditional_select(&rhs_lifted, &out, self_is_id);
        Self::conditional_select(self, &out, rhs_is_id)
    }

    /// Variable-time scalar multiplication via width-5 wNAF.
    ///
    /// Recodes `k` into signed odd digits `±{1,3,…,15}` (at most one
    /// nonzero digit per 5 bits), precomputes the eight odd multiples
    /// `1·P, 3·P … 15·P` normalized to affine around one shared
    /// inversion, then runs the one-term case of the shared wNAF ladder
    /// (the ladder [`multi_scalar_mul`] runs with two terms): ~255
    /// doublings and ~43 mixed additions on average. Negative digits
    /// reuse the table entry negated, so the table stays eight entries.
    ///
    /// The schedule leaks the scalar's digit pattern: only for public
    /// scalars (ECDSA verification, benches, attack tooling). Secret
    /// scalars go through [`Self::mul_ct`].
    pub fn mul_vartime(&self, k: &Scalar) -> JacobianPoint {
        let kv = k.to_canonical();
        if kv.is_zero() || self.is_identity() {
            return Self::identity();
        }
        let table = normalize_fixed(&self.wnaf_table_vartime());
        wnaf_ladder_vartime(&[wnaf_term_vartime(&kv, table)])
    }

    /// Precomputes the odd multiples `1·P, 3·P … 15·P` for the width-5
    /// wNAF walks (one doubling + seven additions).
    fn wnaf_table_vartime(&self) -> [JacobianPoint; 8] {
        let twice = self.double();
        let mut m = [*self; 8];
        for i in 1..8 {
            m[i] = m[i - 1].add(&twice);
        }
        m
    }

    /// Constant-schedule scalar multiplication `k·self` for secret `k`.
    ///
    /// Fixed 4-bit windows, most-significant first, with a uniform
    /// schedule: per window exactly four branch-free doublings, one
    /// constant-time scan of the full 15-entry table, and one masked
    /// addition whose result is discarded by select when the digit is
    /// zero. After the scalar-independent table setup (7 additions +
    /// 7 doublings + one shared inversion), every scalar — including
    /// 0, 1 and n−1 — costs exactly 256 ct-doublings and 64
    /// ct-additions; the `cfg(test)` op-counter asserts this.
    ///
    /// Exceptional-case audit for `add_affine_ct`: at window
    /// `w` the accumulator holds `A·P` with `A = 16·⌊k/16^(w+1)⌋ < n`
    /// and the looked-up entry is `d·P`, `1 ≤ d ≤ 15`. `H = 0` needs
    /// `A ≡ ±d (mod n)`: `A = d` forces `A = 0` (a zero multiple of
    /// 16), which the identity-`self` select repairs; `A = n − d` makes
    /// the true sum the identity, which the `H = 0` select returns —
    /// correct, and in fact only reachable as the final dummy addition
    /// of `k = n−1`, whose result is discarded anyway. The true-
    /// doubling case is therefore never hit.
    pub fn mul_ct(&self, k: &Scalar) -> JacobianPoint {
        // 1·P … 15·P, normalized to affine around one shared inversion.
        // The build pattern is scalar-independent (and branches only on
        // properties of the public base point).
        let mut multiples = [Self::identity(); 15];
        multiples[0] = *self;
        for i in 2..=15 {
            multiples[i - 1] = if i % 2 == 0 {
                multiples[i / 2 - 1].double()
            } else {
                multiples[i - 2].add(self)
            };
        }
        // Fixed-size Montgomery's-trick normalization: same shared
        // inversion as [`batch_normalize`] but allocation-free, since
        // this sits on the hot secret path (every ECDH). The skip
        // pattern branches only on identity flags — properties of the
        // public base point, never of `k`.
        let table = normalize_fixed(&multiples);

        let kv = k.to_canonical();
        let mut acc = Self::identity();
        for w in (0..64).rev() {
            acc = acc.double_ct().double_ct().double_ct().double_ct();
            let (entry, nonzero) = ct::lookup_affine(&table, kv.nibble(w));
            let sum = acc.add_affine_ct(&entry);
            acc = Self::conditional_select(&sum, &acc, nonzero);
        }
        acc
    }
}

impl PartialEq for JacobianPoint {
    fn eq(&self, other: &Self) -> bool {
        // Compare in the projective equivalence class:
        // X1·Z2² == X2·Z1² and Y1·Z2³ == Y2·Z1³.
        match (self.is_identity(), other.is_identity()) {
            (true, true) => return true,
            (true, false) | (false, true) => return false,
            _ => {}
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x.mul(&z2z2) == other.x.mul(&z1z1)
            && self.y.mul(&z2z2).mul(&other.z) == other.y.mul(&z1z1).mul(&self.z)
    }
}

impl Eq for JacobianPoint {}

/// `k·G` for secret `k` — the constant-schedule fixed-base path.
///
/// See [`mul_generator_ct_jacobian`]; this adds the final affine
/// normalization. Key generation, ECDSA signing nonces, ECQV request
/// secrets and CA blinding all come through here.
pub fn mul_generator_ct(k: &Scalar) -> AffinePoint {
    mul_generator_ct_jacobian(k).to_affine()
}

/// `k·G` for secret `k`, without the final affine normalization.
///
/// Walks the same precomputed table as [`mul_generator_vartime`] but
/// always-adds: each of the 64 windows performs one constant-time scan
/// of its 15 entries ([`crate::ct::lookup_affine`]) and one masked
/// mixed addition — a dummy, discarded by select, when the digit is
/// zero. Exactly 64 ct-additions and no doublings for every scalar.
///
/// Exceptional-case audit for `add_affine_ct`: windows are processed
/// low-to-high, so at window `w` the accumulator holds `S·G` with
/// `S = k mod 16^w < 16^w` and the entry is `d·16^w·G`, `1 ≤ d ≤ 15`.
/// `H = 0` needs `S ≡ ±d·16^w (mod n)`: `S = d·16^w` contradicts
/// `S < 16^w`; `S + d·16^w = n` contradicts `S + d·16^w ≤ k < n` for
/// real digits, and for dummies (`d = 1`) would need `16^w > n/2`,
/// i.e. `w ≥ 64`. Only the `S = 0` identity case remains, repaired by
/// select inside the addition.
pub fn mul_generator_ct_jacobian(k: &Scalar) -> JacobianPoint {
    let kv = k.to_canonical();
    let table = crate::precomp::generator_table();
    let mut acc = JacobianPoint::identity();
    for w in 0..crate::precomp::WINDOWS {
        let (entry, nonzero) = ct::lookup_affine(table.window(w), kv.nibble(w));
        let sum = acc.add_affine_ct(&entry);
        acc = JacobianPoint::conditional_select(&sum, &acc, nonzero);
    }
    acc
}

/// `k·G` for public `k` — the variable-time fixed-base path.
///
/// Walks the 4-bit comb of [`crate::precomp`] and skips zero nibbles,
/// so at most 64 mixed additions, no doublings, and a schedule that
/// leaks `k`'s nibble pattern. Only for public scalars: the `u1` of
/// ECDSA verification, benches and tests.
pub fn mul_generator_vartime(k: &Scalar) -> AffinePoint {
    mul_generator_vartime_jacobian(k).to_affine()
}

/// [`mul_generator_vartime`] without the final affine normalization,
/// for callers that amortize the inversion via [`batch_normalize`].
pub fn mul_generator_vartime_jacobian(k: &Scalar) -> JacobianPoint {
    let kv = k.to_canonical();
    let table = crate::precomp::generator_table();
    let mut acc = JacobianPoint::identity();
    for w in 0..crate::precomp::WINDOWS {
        let digit = kv.nibble(w);
        if digit != 0 {
            acc = acc.add_affine(table.entry(w, digit));
        }
    }
    acc
}

/// Normalizes a batch of Jacobian points to affine with a single field
/// inversion (Montgomery's trick): the inverse of the product of all
/// `Z` coordinates is computed once, then unwound into each individual
/// `Z⁻¹` with two multiplications per point. Identity points map to
/// [`AffinePoint::identity`] and do not participate in the product.
pub fn batch_normalize(points: &[JacobianPoint]) -> Vec<AffinePoint> {
    // prefix[i] = product of z_j for non-identity j < i.
    let mut prefix = Vec::with_capacity(points.len());
    let mut acc = FieldElement::one();
    for p in points {
        prefix.push(acc);
        if !p.is_identity() {
            acc = acc.mul(&p.z);
        }
    }
    let mut suffix_inv = acc.invert();
    let mut out = vec![AffinePoint::identity(); points.len()];
    for (i, p) in points.iter().enumerate().rev() {
        if p.is_identity() {
            continue;
        }
        let z_inv = suffix_inv.mul(&prefix[i]);
        suffix_inv = suffix_inv.mul(&p.z);
        let z_inv2 = z_inv.square();
        out[i] = AffinePoint {
            x: p.x.mul(&z_inv2),
            y: p.y.mul(&z_inv2).mul(&z_inv),
            infinity: false,
        };
    }
    out
}

/// Montgomery's-trick normalization over a fixed-size array: one
/// shared field inversion for all `N` points, no allocation. Identity
/// entries map to [`AffinePoint::identity`] and skip the product —
/// inverting an empty product is `1⁻¹`, which is well defined — so
/// callers may leave unused slots at the identity.
fn normalize_fixed<const N: usize>(points: &[JacobianPoint; N]) -> [AffinePoint; N] {
    // prefix[i] = product of z_j for non-identity j < i.
    let mut prefix = [FieldElement::one(); N];
    let mut acc = FieldElement::one();
    for (slot, p) in prefix.iter_mut().zip(points) {
        *slot = acc;
        if !p.is_identity() {
            acc = acc.mul(&p.z);
        }
    }
    let mut suffix_inv = acc.invert();
    let mut out = [AffinePoint::identity(); N];
    for ((entry, p), pre) in out.iter_mut().zip(points).zip(&prefix).rev() {
        if p.is_identity() {
            continue;
        }
        let z_inv = suffix_inv.mul(pre);
        suffix_inv = suffix_inv.mul(&p.z);
        let z_inv2 = z_inv.square();
        *entry = AffinePoint {
            x: p.x.mul(&z_inv2),
            y: p.y.mul(&z_inv2).mul(&z_inv),
            infinity: false,
        };
    }
    out
}

/// Width-5 wNAF recoding: signed odd digits `±{1,3,…,15}`, at least
/// four zero digits between nonzero ones. Returns the digit array
/// (little-endian by bit position, zero-padded) and the number of
/// digits used.
///
/// Index bound: a nonzero digit at position `m` forces
/// `k > 2^m·16/31` (the top digit is positive and lower nonzero
/// digits, ≥5 apart, sum to less than `2^m·15/31`), so `k < 2^256`
/// caps `m` at 256 and the 257-entry array never overflows.
fn wnaf5_vartime(kv: &U256) -> ([i8; 257], usize) {
    let mut digits = [0i8; 257];
    let mut len = 0usize;
    let mut k = *kv;
    let mut i = 0usize;
    while !k.is_zero() {
        if k.is_odd() {
            // Signed residue mod 32: d ≡ k, d odd, −16 < d < 16.
            let low = (k.limbs()[0] & 0x1f) as i8;
            let d = if low >= 16 { low - 32 } else { low };
            k = if d >= 0 {
                k.wrapping_sub(&U256::from_u64(d as u64))
            } else {
                k.wrapping_add(&U256::from_u64((-d) as u64))
            };
            digits[i] = d;
            len = i + 1;
        }
        k = k.shr1();
        i += 1;
    }
    (digits, len)
}

/// Looks up `d·P` in a wNAF odd-multiples table (`d` odd, `|d| ≤ 15`):
/// entry `(|d|−1)/2`, negated for negative digits.
fn wnaf_entry_vartime(table: &[AffinePoint; 8], d: i8) -> AffinePoint {
    if d > 0 {
        table[(d as usize) >> 1]
    } else {
        table[((-d) as usize) >> 1].neg()
    }
}

/// One `k·P` term of the wNAF ladder: `k`'s width-5 digits (with their
/// count) and `P`'s affine odd-multiples table.
struct WnafTerm {
    digits: [i8; 257],
    len: usize,
    table: [AffinePoint; 8],
}

/// Recodes `k` into a ladder term over `table`.
fn wnaf_term_vartime(k: &U256, table: [AffinePoint; 8]) -> WnafTerm {
    let (digits, len) = wnaf5_vartime(k);
    WnafTerm { digits, len, table }
}

/// The variable-base vartime ladder: `Σ kᵢ·Pᵢ` over one or two terms,
/// one doubling per digit position (skipped while the accumulator is
/// the identity) and one mixed addition per nonzero digit of each
/// term. An identity table entry adds nothing: `add_affine` passes it
/// through.
fn wnaf_ladder_vartime(terms: &[WnafTerm]) -> JacobianPoint {
    let len = terms.iter().map(|t| t.len).max().unwrap_or(0);
    let mut acc = JacobianPoint::identity();
    for i in (0..len).rev() {
        if !acc.is_identity() {
            acc = acc.double();
        }
        for term in terms {
            let d = term.digits[i];
            if d != 0 {
                acc = acc.add_affine(&wnaf_entry_vartime(&term.table, d));
            }
        }
    }
    acc
}

/// Shamir/Straus double-scalar multiplication: computes `a·P + b·Q`
/// with one shared doubling ladder over interleaved width-5 wNAF
/// digits — two 8-entry odd-multiples tables normalized around a
/// *single* shared field inversion, one doubling per bit, and at most
/// one mixed addition per scalar per 5 bits. Variable-time by
/// construction; only for public inputs (the eq. (1) ECQV public-key
/// reconstruction, attack tooling).
// ct-vartime: interleaved wNAF, schedule depends on both scalars.
pub fn multi_scalar_mul(a: &Scalar, p: &AffinePoint, b: &Scalar, q: &AffinePoint) -> AffinePoint {
    multi_scalar_mul_jacobian(a, p, b, q).to_affine()
}

/// [`multi_scalar_mul`] without the final affine normalization, for
/// callers that amortize the inversion via [`batch_normalize`] or
/// compare results in the projective equivalence class.
// ct-vartime: interleaved wNAF, schedule depends on both scalars.
pub fn multi_scalar_mul_jacobian(
    a: &Scalar,
    p: &AffinePoint,
    b: &Scalar,
    q: &AffinePoint,
) -> JacobianPoint {
    let av = a.to_canonical();
    let bv = b.to_canonical();
    // Both odd-multiples tables normalize around one shared inversion;
    // unused halves stay at the identity and skip the product. A unit
    // scalar (eq. (1)'s `+ Q_CA` on every certificate validation) has
    // the single digit 1, so its table is just `[P, identity…]` and
    // needs no build.
    let mut joint = [JacobianPoint::identity(); 16];
    for (half, (k, base)) in joint.chunks_exact_mut(8).zip([(&av, p), (&bv, q)]) {
        if *k != U256::ONE && !k.is_zero() && !base.infinity {
            half.copy_from_slice(&JacobianPoint::from_affine(base).wnaf_table_vartime());
        }
    }
    let joint = normalize_fixed(&joint);
    let term = |k: &U256, base: &AffinePoint, half: &[AffinePoint]| {
        let mut table = [AffinePoint::identity(); 8];
        if *k == U256::ONE {
            table[0] = *base;
        } else {
            table.copy_from_slice(half);
        }
        wnaf_term_vartime(k, table)
    };
    wnaf_ladder_vartime(&[term(&av, p, &joint[..8]), term(&bv, q, &joint[8..])])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecq_crypto::HmacDrbg;

    #[test]
    fn generator_on_curve() {
        assert!(AffinePoint::generator().is_on_curve());
    }

    #[test]
    fn known_double_of_g() {
        // 2G, standard P-256 test vector.
        let two_g = AffinePoint::generator().mul_vartime(&Scalar::from_u64(2));
        assert_eq!(
            two_g.x.to_canonical().to_string(),
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978"
        );
        assert_eq!(
            two_g.y.to_canonical().to_string(),
            "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1"
        );
    }

    #[test]
    fn known_triple_of_g() {
        // 3G, standard P-256 test vector.
        let three_g = AffinePoint::generator().mul_vartime(&Scalar::from_u64(3));
        assert_eq!(
            three_g.x.to_canonical().to_string(),
            "5ecbe4d1a6330a44c8f7ef951d4bf165e6c6b721efada985fb41661bc6e7fd6c"
        );
        assert_eq!(
            three_g.y.to_canonical().to_string(),
            "8734640c4998ff7e374b06ce1a64a2ecd82ab036384fb83d9a79b127a27d5032"
        );
    }

    #[test]
    fn order_times_g_is_identity() {
        // n·G = O, checked via (n-1)·G + G.
        let n_minus_1 = Scalar::from_u64(1).neg();
        let p = mul_generator_vartime(&n_minus_1);
        let sum = p.add(&AffinePoint::generator());
        assert!(sum.infinity);
        // (n-1)·G == -G
        assert_eq!(p, AffinePoint::generator().neg());
    }

    #[test]
    fn add_commutative_and_assoc() {
        let g = AffinePoint::generator();
        let p = g.mul_vartime(&Scalar::from_u64(5));
        let q = g.mul_vartime(&Scalar::from_u64(11));
        let r = g.mul_vartime(&Scalar::from_u64(100));
        assert_eq!(p.add(&q), q.add(&p));
        assert_eq!(p.add(&q).add(&r), p.add(&q.add(&r)));
    }

    #[test]
    fn scalar_mul_distributes() {
        let g = AffinePoint::generator();
        let a = Scalar::from_u64(123);
        let b = Scalar::from_u64(456);
        assert_eq!(
            g.mul_vartime(&a).add(&g.mul_vartime(&b)),
            g.mul_vartime(&a.add(&b))
        );
        assert_eq!(g.mul_vartime(&a).mul_vartime(&b), g.mul_vartime(&a.mul(&b)));
    }

    #[test]
    fn identity_laws() {
        let g = AffinePoint::generator();
        let id = AffinePoint::identity();
        assert_eq!(g.add(&id), g);
        assert_eq!(id.add(&g), g);
        assert!(g.add(&g.neg()).infinity);
        assert!(g.mul_vartime(&Scalar::zero()).infinity);
        assert!(id.mul_vartime(&Scalar::from_u64(7)).infinity);
    }

    #[test]
    fn doubling_matches_addition() {
        let g = JacobianPoint::from_affine(&AffinePoint::generator());
        assert_eq!(g.double(), g.add(&g));
    }

    #[test]
    fn multi_scalar_matches_naive() {
        let mut rng = HmacDrbg::from_seed(5);
        let g = AffinePoint::generator();
        for _ in 0..4 {
            let a = Scalar::random(&mut rng);
            let b = Scalar::random(&mut rng);
            let q = g.mul_vartime(&Scalar::random(&mut rng));
            let fast = multi_scalar_mul(&a, &g, &b, &q);
            let naive = g.mul_vartime(&a).add(&q.mul_vartime(&b));
            assert_eq!(fast, naive);
        }
    }

    #[test]
    fn multi_scalar_edge_cases() {
        let mut rng = HmacDrbg::from_seed(0xE5);
        let g = AffinePoint::generator();
        let q = g.mul_vartime(&Scalar::random(&mut rng));
        let id = AffinePoint::identity();
        let r = Scalar::random(&mut rng);
        // Every combination of edge scalar × edge base against the
        // naive two-multiplication reference, including the unit-scalar
        // shortcut (eq. (1)'s `1·Q_CA` term) and identity bases.
        for (i, a) in edge_scalars().iter().enumerate() {
            for (j, b) in edge_scalars().iter().enumerate() {
                for (k, (p1, p2)) in [(g, q), (q, id), (id, q), (id, id)].iter().enumerate() {
                    let fast = multi_scalar_mul(a, p1, b, p2);
                    let naive = p1.mul_vartime(a).add(&p2.mul_vartime(b));
                    assert_eq!(fast, naive, "a {i}, b {j}, bases {k}");
                }
            }
        }
        // Jacobian variant agrees in the equivalence class.
        assert_eq!(
            multi_scalar_mul_jacobian(&r, &g, &Scalar::one(), &q).to_affine(),
            multi_scalar_mul(&r, &g, &Scalar::one(), &q)
        );
        // The one-term ladder equals the two-term ladder with a zero
        // second scalar.
        for (i, a) in edge_scalars().iter().enumerate() {
            for (k, p) in [g, q, id].iter().enumerate() {
                assert_eq!(
                    p.mul_vartime(a),
                    multi_scalar_mul(a, p, &Scalar::zero(), &q),
                    "a {i}, base {k}"
                );
            }
        }
    }

    #[test]
    fn wnaf_matches_window_reference() {
        // The wNAF path against the independent 4-bit constant-time
        // window walk, over the same edge-scalar sweep the ct tests use
        // plus extra sparse and dense patterns, for generator / random /
        // identity bases.
        let mut rng = HmacDrbg::from_seed(0xE6);
        let g = JacobianPoint::from_affine(&AffinePoint::generator());
        let bases = [
            g,
            g.mul_vartime(&Scalar::random(&mut rng)),
            JacobianPoint::identity(),
        ];
        let mut scalars = edge_scalars();
        scalars.push(Scalar::from_u64(0xFFFF_FFFF_FFFF_FFFF)); // dense NAF
        scalars.push(pow2_scalar(255)); // single top bit
        scalars.push(pow2_scalar(255).add(&Scalar::one())); // sparse ends
        for (bi, base) in bases.iter().enumerate() {
            for (i, k) in scalars.iter().enumerate() {
                assert_eq!(base.mul_vartime(k), base.mul_ct(k), "base {bi}, scalar {i}");
            }
        }
    }

    #[test]
    fn wnaf_digits_are_valid_and_reconstruct() {
        let mut rng = HmacDrbg::from_seed(0xE7);
        let mut scalars = edge_scalars();
        for _ in 0..8 {
            scalars.push(Scalar::random(&mut rng));
        }
        for (i, k) in scalars.iter().enumerate() {
            let (digits, len) = wnaf5_vartime(&k.to_canonical());
            assert!(len <= 257, "scalar {i}: len {len}");
            let mut last_nonzero: Option<usize> = None;
            // Horner evaluation from the top digit back to the scalar.
            let mut acc = Scalar::zero();
            for j in (0..len).rev() {
                acc = acc.add(&acc);
                let d = digits[j];
                if d != 0 {
                    assert_eq!(d & 1, 1, "scalar {i}, digit {j}: even {d}");
                    assert!(d.abs() <= 15, "scalar {i}, digit {j}: wide {d}");
                    if let Some(prev) = last_nonzero {
                        assert!(prev - j >= 5, "scalar {i}: digits {prev},{j}");
                    }
                    last_nonzero = Some(j);
                    let mag = Scalar::from_u64(d.unsigned_abs() as u64);
                    acc = if d > 0 {
                        acc.add(&mag)
                    } else {
                        acc.add(&mag.neg())
                    };
                }
            }
            assert_eq!(acc, *k, "scalar {i} does not reconstruct");
        }
    }

    #[test]
    fn mul_random_scalars_stay_on_curve() {
        let mut rng = HmacDrbg::from_seed(6);
        let g = AffinePoint::generator();
        for _ in 0..4 {
            let k = Scalar::random(&mut rng);
            let p = g.mul_vartime(&k);
            assert!(p.is_on_curve());
            assert!(!p.infinity);
        }
    }

    #[test]
    fn jacobian_eq_across_representations() {
        let g = JacobianPoint::from_affine(&AffinePoint::generator());
        let doubled = g.double();
        // Same point reached two ways, different Z.
        let via_add = g.add(&g);
        assert_eq!(doubled, via_add);
        assert_eq!(doubled.to_affine(), via_add.to_affine());
    }

    #[test]
    fn from_coords_validates() {
        let g = AffinePoint::generator();
        assert!(AffinePoint::from_coords(g.x, g.y).is_some());
        assert!(AffinePoint::from_coords(g.x, g.x).is_none());
    }

    #[test]
    fn fixed_base_matches_generic_mul() {
        let mut rng = HmacDrbg::from_seed(7);
        let g = AffinePoint::generator();
        for _ in 0..8 {
            let k = Scalar::random(&mut rng);
            assert_eq!(mul_generator_vartime(&k), g.mul_vartime(&k));
        }
        // Edge scalars: 0, 1, n−1, and single-nibble values.
        assert!(mul_generator_vartime(&Scalar::zero()).infinity);
        assert_eq!(mul_generator_vartime(&Scalar::one()), g);
        let n_minus_1 = Scalar::from_u64(1).neg();
        assert_eq!(mul_generator_vartime(&n_minus_1), g.neg());
        for shift in [0u32, 4, 60, 252] {
            let k = Scalar::from_u64(9).mul(&pow2_scalar(shift));
            assert_eq!(
                mul_generator_vartime(&k),
                g.mul_vartime(&k),
                "shift {shift}"
            );
        }
    }

    fn pow2_scalar(bits: u32) -> Scalar {
        let mut s = Scalar::one();
        for _ in 0..bits {
            s = s.add(&s);
        }
        s
    }

    /// Edge scalars every ct test sweeps: the op-count must not depend
    /// on nibble patterns, so zero-rich and dense scalars both appear.
    fn edge_scalars() -> Vec<Scalar> {
        let mut rng = HmacDrbg::from_seed(0xC7);
        let mut scalars = vec![
            Scalar::zero(),
            Scalar::one(),
            Scalar::from_u64(1).neg(),     // n − 1
            Scalar::from_u64(15),          // one dense low nibble
            Scalar::from_u64(0x1000_0000), // single nibble mid-word
            pow2_scalar(252),              // only the top window set
            Scalar::from_u64(9).mul(&pow2_scalar(128)),
        ];
        for _ in 0..4 {
            scalars.push(Scalar::random(&mut rng));
        }
        scalars
    }

    #[test]
    fn ct_fixed_base_matches_vartime() {
        let g = AffinePoint::generator();
        for (i, k) in edge_scalars().iter().enumerate() {
            assert_eq!(mul_generator_ct(k), mul_generator_vartime(k), "scalar {i}");
            assert_eq!(
                mul_generator_ct_jacobian(k).to_affine(),
                mul_generator_vartime(k),
                "jacobian, scalar {i}"
            );
        }
        assert!(mul_generator_ct(&Scalar::zero()).infinity);
        assert_eq!(mul_generator_ct(&Scalar::one()), g);
    }

    #[test]
    fn ct_variable_base_matches_vartime() {
        let mut rng = HmacDrbg::from_seed(0xC8);
        let g = AffinePoint::generator();
        let bases = [
            g,
            g.mul_vartime(&Scalar::random(&mut rng)),
            AffinePoint::identity(),
        ];
        for (bi, base) in bases.iter().enumerate() {
            for (i, k) in edge_scalars().iter().enumerate() {
                assert_eq!(base.mul_ct(k), base.mul_vartime(k), "base {bi}, scalar {i}");
            }
        }
    }

    #[test]
    fn ct_fixed_base_schedule_is_scalar_independent() {
        // Acceptance: exactly 64 table additions (with dummies), no
        // doublings, for any scalar — zero-rich or dense.
        for (i, k) in edge_scalars().iter().enumerate() {
            let (_, counts) = ops::measure(|| mul_generator_ct(k));
            assert_eq!(counts.ct_adds, 64, "scalar {i}: {counts:?}");
            assert_eq!(counts.ct_doubles, 0, "scalar {i}: {counts:?}");
            assert_eq!(counts.adds, 0, "scalar {i}: {counts:?}");
            assert_eq!(counts.doubles, 0, "scalar {i}: {counts:?}");
        }
    }

    #[test]
    fn ct_variable_base_schedule_is_scalar_independent() {
        // Acceptance: a fixed double/add schedule — 256 ct-doublings
        // (4 per window) + 64 masked ct-additions, after a scalar-
        // independent table setup of 7 vartime adds + 7 doublings.
        let mut rng = HmacDrbg::from_seed(0xC9);
        let base = JacobianPoint::from_affine(
            &AffinePoint::generator().mul_vartime(&Scalar::random(&mut rng)),
        );
        let mut schedules = Vec::new();
        for (i, k) in edge_scalars().iter().enumerate() {
            let (_, counts) = ops::measure(|| base.mul_ct(k));
            assert_eq!(counts.ct_doubles, 256, "scalar {i}: {counts:?}");
            assert_eq!(counts.ct_adds, 64, "scalar {i}: {counts:?}");
            assert_eq!(counts.adds, 7, "scalar {i}: {counts:?}");
            assert_eq!(counts.doubles, 7, "scalar {i}: {counts:?}");
            schedules.push(counts);
        }
        // Identical schedules for every pair of distinct scalars.
        assert!(schedules.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn vartime_schedule_depends_on_scalar() {
        // Sanity check that the counter actually distinguishes the
        // vartime path: a sparse scalar performs fewer table additions.
        // The comb walk adds one entry per nonzero nibble and never
        // doubles.
        let dense = Scalar::from_u64(1).neg(); // n − 1: ~all nibbles set
        let sparse = Scalar::one();
        let (_, dense_counts) = ops::measure(|| mul_generator_vartime(&dense));
        let (_, sparse_counts) = ops::measure(|| mul_generator_vartime(&sparse));
        assert!(sparse_counts.adds < dense_counts.adds);
        assert!(dense_counts.adds <= 64, "{dense_counts:?}");
        assert_eq!(dense_counts.doubles, 0, "{dense_counts:?}");
        assert_eq!(sparse_counts.adds, 1, "{sparse_counts:?}");
        assert_eq!(dense_counts.ct_adds, 0);
    }

    #[test]
    fn conditional_select_points() {
        let g = AffinePoint::generator();
        let id = AffinePoint::identity();
        assert_eq!(AffinePoint::conditional_select(&g, &id, u64::MAX), g);
        assert_eq!(AffinePoint::conditional_select(&g, &id, 0), id);
        let gj = JacobianPoint::from_affine(&g);
        let idj = JacobianPoint::identity();
        assert_eq!(JacobianPoint::conditional_select(&gj, &idj, u64::MAX), gj);
        assert!(JacobianPoint::conditional_select(&gj, &idj, 0).is_identity());
    }

    #[test]
    fn batch_normalize_matches_individual() {
        let mut rng = HmacDrbg::from_seed(8);
        let g = JacobianPoint::from_affine(&AffinePoint::generator());
        let mut points = vec![JacobianPoint::identity()];
        for _ in 0..5 {
            points.push(g.mul_vartime(&Scalar::random(&mut rng)));
        }
        points.push(JacobianPoint::identity());
        let batch = batch_normalize(&points);
        assert_eq!(batch.len(), points.len());
        for (jac, aff) in points.iter().zip(&batch) {
            assert_eq!(jac.to_affine(), *aff);
        }
        assert!(batch[0].infinity);
        assert!(batch.last().unwrap().infinity);
        assert!(batch_normalize(&[]).is_empty());
    }
}
