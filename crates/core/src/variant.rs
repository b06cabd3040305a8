//! The §IV-C execution-schedule optimizations.
//!
//! The optimizations do not change the transmitted data ("the sent data
//! is identical to the original protocol, but the message and content
//! order vary slightly") — they overlap computation across the two
//! devices:
//!
//! * **Opt. I** (eq. (7)): the initial request already carries the
//!   certificate and `XG`, so the two devices run Op2 concurrently —
//!   the pair pays for Op2 once:
//!   `τ' = 2·T_Op1 + T_Op2 + 2·T_Op3 + 2·T_Op4`.
//! * **Opt. II** (eq. (8)): Op3 is additionally pipelined behind Op2:
//!   `τ'' = 2·T_Op1 + T_Op2 + T_Op3 + 2·T_Op4`.
//!
//! The trade-off (paper §IV-C): failed authentication is only detected
//! after the heavy computations have run, which widens the surface for
//! denial-of-service by unauthenticated peers — [`StsVariant::dos_note`]
//! captures this.
//!
//! For heterogeneous device pairs the paper's eq. (6) applies: the
//! pipelined operation costs `|T_OpAx − T_OpBx|` extra rather than
//! vanishing. The schedule arithmetic and the variant → pipelined-phase
//! table live in `ecq_devices::timing`, keyed by
//! [`StsVariant::protocol_kind`].

use ecq_proto::ProtocolKind;

/// STS execution-schedule variants (Table I rows STS / opt. I / opt. II).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum StsVariant {
    /// The conventional sequential schedule (eq. (5)).
    #[default]
    Conventional,
    /// Optimization I: Op2 pipelined across devices (eq. (7)).
    OptimizationI,
    /// Optimization II: Op2 and Op3 pipelined (eq. (8)).
    OptimizationII,
}

impl StsVariant {
    /// All variants in Table I row order.
    pub const ALL: [StsVariant; 3] = [
        StsVariant::Conventional,
        StsVariant::OptimizationI,
        StsVariant::OptimizationII,
    ];

    /// The Table I row this variant runs as.
    pub fn protocol_kind(&self) -> ProtocolKind {
        match self {
            StsVariant::Conventional => ProtocolKind::Sts,
            StsVariant::OptimizationI => ProtocolKind::StsOptI,
            StsVariant::OptimizationII => ProtocolKind::StsOptII,
        }
    }

    /// The variant a Table I row runs, or `None` for the baselines.
    pub fn from_protocol_kind(kind: ProtocolKind) -> Option<Self> {
        Self::ALL.into_iter().find(|v| v.protocol_kind() == kind)
    }

    /// The paper's label for this variant.
    pub fn label(&self) -> &'static str {
        self.protocol_kind().label()
    }

    /// The flexibility cost the paper calls out: with pipelining,
    /// authentication failures surface only after the expensive
    /// operations already ran.
    pub fn dos_note(&self) -> Option<&'static str> {
        match self {
            StsVariant::Conventional => None,
            _ => Some(
                "failed authentication requests are detected only after \
                 the pipelined computations complete; unauthenticated \
                 peers can force wasted work (denial-of-service surface)",
            ),
        }
    }
}

impl core::fmt::Display for StsVariant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_sets() {
        use ecq_devices::timing::pipelined_phases;
        use ecq_proto::StsPhase;
        assert!(pipelined_phases(StsVariant::Conventional.protocol_kind()).is_empty());
        assert_eq!(
            pipelined_phases(StsVariant::OptimizationI.protocol_kind()),
            &[StsPhase::Op2KeyDerivation]
        );
        assert_eq!(
            pipelined_phases(StsVariant::OptimizationII.protocol_kind()),
            &[StsPhase::Op2KeyDerivation, StsPhase::Op3SignEncrypt]
        );
    }

    #[test]
    fn protocol_kind_round_trip() {
        // Every STS row maps to a variant and back; baselines map to none.
        for kind in ProtocolKind::ALL {
            let back = StsVariant::from_protocol_kind(kind).map(|v| v.protocol_kind());
            assert_eq!(back, kind.is_dynamic().then_some(kind), "{kind}");
        }
    }

    #[test]
    fn only_optimized_variants_carry_dos_note() {
        assert!(StsVariant::Conventional.dos_note().is_none());
        assert!(StsVariant::OptimizationI.dos_note().is_some());
        assert!(StsVariant::OptimizationII.dos_note().is_some());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(StsVariant::Conventional.label(), "STS");
        assert_eq!(StsVariant::OptimizationI.label(), "STS (opt. I)");
        assert_eq!(StsVariant::OptimizationII.label(), "STS (opt. II)");
    }
}
