//! Golden paper artifacts: every deterministic regeneration binary must
//! print exactly what `tests/golden/<name>.txt` holds. The goldens are
//! never regenerated to make this pass — a diff here means a table or
//! figure of the paper moved.
//!
//! Left out: `ablation` (Ablation 1 times the host), `bench_p256`,
//! `fleet` and `service_load` (host-time measurements).

use std::process::Command;

fn check(name: &str, exe: &str, golden: &str) {
    let out = Command::new(exe).output().expect("spawn artifact binary");
    assert!(out.status.success(), "{name} exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    if stdout != golden {
        let line = stdout
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || "a trailing line".to_string(),
                |i| format!("line {}", i + 1),
            );
        panic!("{name}: stdout differs from tests/golden/{name}.txt at {line}\n{stdout}");
    }
}

macro_rules! artifact {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
                include_str!(concat!("golden/", stringify!($name), ".txt")),
            );
        }
    )*};
}

artifact!(table1, table2, table3, fig3, fig4, fig7, fig8, hsm, attacks);
