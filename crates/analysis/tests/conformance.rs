//! Adversarial conformance suite: every named fault scenario must end
//! in its paper-predicted outcome.
//!
//! The contract under test (see `ecq_fleet::scenario`): a handshake on
//! a faulted shared bus either completes with bit-equal session keys on
//! both endpoints or fails closed with the *specific* expected error —
//! never a silent key mismatch, never a session keyed against a peer
//! whose revocation already propagated, and never collateral damage to
//! bystander sessions sharing the bus.

use ecq_fleet::scenario::{by_name, catalog, Expected};
use ecq_proto::ProtocolError;

/// Every catalog scenario runs and satisfies its contract. One test
/// per scenario would be nicer output-wise, but the catalog is data —
/// iterating it here means adding a scenario automatically puts it
/// under conformance.
#[test]
fn every_scenario_meets_its_predicted_outcome() {
    assert!(catalog().len() >= 8, "catalog shrank below the spec floor");
    for scenario in catalog() {
        let out = scenario.assert_contract();
        // Fault evidence must reach the report: an injected scenario
        // with all-zero counters means the fault never fired.
        let c = out.report.faults;
        let injected = c.dropped
            + c.corrupted
            + c.duplicated
            + c.held_back
            + c.delayed
            + c.replayed
            + c.storm_frames;
        let has_revocation = scenario.revocation.is_some();
        let has_skew = scenario.faults.skew_ppm != [0, 0];
        assert!(
            injected > 0 || has_revocation || has_skew,
            "{}: fault schedule left no trace in the report",
            scenario.name
        );
    }
}

/// The catalog covers both conformance classes: sound completion under
/// degradation AND fail-closed rejection, across distinct error kinds.
#[test]
fn catalog_spans_completion_and_fail_closed_outcomes() {
    let mut completes = 0;
    let mut fails: Vec<ProtocolError> = Vec::new();
    for s in catalog() {
        match s.expected {
            Expected::Completes | Expected::CompletesSlower => completes += 1,
            Expected::FailsClosed(e) => {
                if !fails.contains(&e) {
                    fails.push(e);
                }
            }
        }
    }
    assert!(completes >= 2, "need scenarios that survive their faults");
    assert!(
        fails.len() >= 4,
        "need ≥4 distinct fail-closed error kinds, got {fails:?}"
    );
    assert!(
        fails.contains(&ProtocolError::AuthenticationFailed),
        "a corruption scenario must surface as an authentication failure"
    );
    assert!(
        fails.contains(&ProtocolError::Timeout),
        "a loss scenario must surface as a fail-closed timeout"
    );
}

/// Scenario runs are deterministic: the same scenario reproduces the
/// same report bit-for-bit (outcome digest included).
#[test]
fn scenario_runs_are_reproducible() {
    let scenario = by_name("corrupt-b1-auth").expect("catalog scenario");
    let a = scenario.run();
    let b = scenario.run();
    assert_eq!(a.report, b.report);
    assert_eq!(a.session_failures, b.session_failures);
    assert_eq!(a.makespan_us, b.makespan_us);
}

/// The stale-CRL window is a real exposure: the *same* revocation
/// event flips the outcome purely on CRL propagation latency.
#[test]
fn crl_propagation_latency_flips_the_revocation_outcome() {
    let prompt = by_name("revocation-mid-handshake").expect("catalog scenario");
    let stale = by_name("stale-crl-accept-window").expect("catalog scenario");
    let denied = prompt.run();
    let accepted = stale.run();
    assert_eq!(
        denied.target_failure,
        Some(ProtocolError::Cert(ecq_cert::CertError::Revoked))
    );
    assert!(!denied.target_keyed);
    assert_eq!(accepted.target_failure, None);
    assert!(
        accepted.target_keyed,
        "inside the stale window the revoked peer is still accepted — \
         that acceptance *is* the measured exposure"
    );
}

/// An arbitration storm costs time, not soundness: same keys as the
/// fault-free baseline timeline would produce, later.
#[test]
fn arbitration_storm_slows_but_never_corrupts() {
    let out = by_name("arbitration-storm")
        .expect("catalog scenario")
        .assert_contract();
    assert!(out.report.faults.storm_frames > 0, "storm never fired");
    assert_eq!(out.report.faults.messages_lost, 0);
    assert_eq!(out.report.timeouts, 0);
}
