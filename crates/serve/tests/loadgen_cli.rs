//! `nvwa-loadgen` refuses a flag it does not know (exit 2, the flag named
//! on stderr) before any work — a removed flag or a typo never runs a
//! default mix against a server it then waits 10 s for. `--help` is
//! printed from the table that check reads.

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    for (args, message) in [
        // Removed in PR 16; silently ran an all-short mix since.
        (
            "--addr-file /nonexistent/addr --long-frac 0.3",
            "nvwa-loadgen: --long-frac: unknown flag",
        ),
        (
            "--reads 10 --conections 4",
            "nvwa-loadgen: --conections: unknown flag",
        ),
    ] {
        let started = std::time::Instant::now();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nvwa-loadgen"))
            .args(args.split(' '))
            .output()
            .expect("nvwa-loadgen runs");
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with(message));
        assert!(out.stdout.is_empty(), "{args}: did work before refusing");
        // Refused before `--addr-file` is polled (that wait is 10 s).
        assert!(started.elapsed().as_secs() < 5, "{args}: waited first");
    }
}

#[test]
fn help_prints_every_known_flag() {
    let src = include_str!("../src/bin/loadgen.rs");
    let table = src.split_once("const KNOWN_FLAGS").expect("table exists").1;
    let table = table.split_once("\n];").expect("table ends").0;
    let flags: Vec<&str> = table.split('"').filter(|s| s.starts_with("--")).collect();
    assert!(flags.len() >= 20, "table not found: {flags:?}");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nvwa-loadgen"))
        .arg("--help")
        .output()
        .expect("nvwa-loadgen runs");
    let usage = String::from_utf8_lossy(&out.stderr);
    for flag in flags {
        let listed = [format!("[{flag} "), format!("[{flag}]")];
        assert!(
            listed.iter().any(|l| usage.contains(l)),
            "usage omits {flag}"
        );
    }
}
