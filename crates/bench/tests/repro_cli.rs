//! `repro` refuses an unknown experiment name before running anything.

use std::process::Command;

#[test]
fn unknown_experiment_is_an_error_not_a_run() {
    let repro = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
    };
    let typo = repro(&["table1", "fig99"]).expect("repro runs");
    assert_eq!(typo.status.code(), Some(2));
    assert!(typo.stdout.is_empty(), "ran something before refusing");
    assert!(String::from_utf8_lossy(&typo.stderr).contains("unknown experiment \"fig99\""));
    assert!(repro(&["table1"]).expect("repro runs").status.success());
}
