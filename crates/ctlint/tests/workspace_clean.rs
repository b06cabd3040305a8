//! The CI gate as a test: the real workspace, scanned by all three
//! passes with their committed allowlists, must come back clean —
//! zero unsuppressed findings, zero stale entries, zero allowlist
//! errors per pass. This is the same check
//! `cargo run -p ecq_lint -- --pass all` and `scripts/verify.sh
//! ctlint` perform.

use std::path::Path;

#[test]
fn workspace_is_clean_under_committed_allowlists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let passes = ecq_lint::select_passes("all").expect("`all` selects the registry");
    for p in &passes {
        let allowlist = root.join(p.default_allowlist());
        assert!(
            allowlist.exists(),
            "missing committed allowlist {}",
            allowlist.display()
        );
    }

    let report = ecq_lint::run(&root, &passes, None).expect("workspace scan");

    assert_eq!(report.passes.len(), 3, "all three passes must run");
    assert!(
        report.files > 50,
        "suspiciously few files scanned: {}",
        report.files
    );
    for pass in &report.passes {
        assert!(
            pass.is_clean(),
            "{} not clean under {}:\nunsuppressed: {:#?}\nstale: {:#?}\nerrors: {:#?}",
            pass.pass,
            pass.allowlist_path.display(),
            pass.unsuppressed,
            pass.stale,
            pass.allowlist_errors
        );
    }
    assert!(report.is_clean());

    // The committed lists document audited sites that exist today; the
    // secret-flow and panic-reach lists must stay live (staleness is
    // already a failure above, so a suppressed count of zero would
    // mean the list went dead wholesale). The determinism list is
    // deliberately empty: the hot path carries no justified
    // nondeterminism, and this pins that.
    let suppressed: std::collections::BTreeMap<&str, usize> = report
        .passes
        .iter()
        .map(|p| (p.pass.as_str(), p.suppressed.len()))
        .collect();
    assert!(
        suppressed.get("secret-flow").copied().unwrap_or(0) > 0,
        "secret-flow allowlist suppressed nothing"
    );
    assert!(
        suppressed.get("panic-reach").copied().unwrap_or(0) > 0,
        "panic-reach allowlist suppressed nothing"
    );
    assert_eq!(
        suppressed.get("determinism").copied().unwrap_or(0),
        0,
        "the determinism allowlist is deliberately empty; a new entry \
         means the hot path grew a justified nondeterminism — update \
         this pin alongside the justification"
    );

    // The secret-flow and panic-reach allowlists only shrink: their
    // entry counts are pinned as ceilings. Lower a pin when entries go
    // away; raising it needs a new audited site.
    const SECRET_FLOW_ALLOW_CEILING: usize = 10;
    const PANIC_ALLOW_CEILING: usize = 25;
    for (file, ceiling) in [
        ("ci/ctlint_allow.toml", SECRET_FLOW_ALLOW_CEILING),
        ("ci/panic_allow.toml", PANIC_ALLOW_CEILING),
    ] {
        let entries = std::fs::read_to_string(root.join(file))
            .expect("read allowlist")
            .lines()
            .filter(|line| line.trim() == "[[allow]]")
            .count();
        assert!(
            entries <= ceiling,
            "{file} has {entries} entries, above the pinned ceiling {ceiling}"
        );
    }

    // The JSON artifact CI uploads parses back, and a clean run's
    // per-pass finding arrays are empty.
    let json = report.to_json();
    assert!(json.contains("\"clean\":true"), "{json}");
    assert!(
        json.contains("\"unsuppressed\":[]"),
        "clean run must serialize empty finding arrays: {json}"
    );
}
