//! A numeric flag the CLI cannot parse, or a flag it does not know, is a
//! usage error (exit 2, the flag named on stderr) before any work — never
//! a silent default. The usage text is printed from the table that check
//! reads, so it lists every flag the binary accepts.

#[test]
fn unparsable_flag_values_exit_2_naming_the_flag() {
    for (args, message) in [
        (
            "serve --deadline-ms 5s",
            "nvwa: --deadline-ms: cannot parse",
        ),
        ("sim --threads x", "nvwa: --threads: cannot parse"),
        (
            "conformance --seed-from-ci --seed",
            "nvwa: --seed: missing value",
        ),
        // Two removed flags and a typo: refused, not served with defaults.
        (
            "serve --batch-adaptive",
            "nvwa: --batch-adaptive: unknown flag",
        ),
        (
            "serve --batch-wait-us 1",
            "nvwa: --batch-wait-us: unknown flag",
        ),
        ("serve --batch-mxa 8", "nvwa: --batch-mxa: unknown flag"),
        // A flag another flag would make inert: refused, not ignored.
        (
            "serve --tenant homo_sapiens --ref-len 5000",
            "nvwa: --ref-len: not valid with --tenant",
        ),
        // A parsable zero the program cannot run with: refused like
        // garbage, not a panic (or a server that answers nothing) later.
        ("sim --reads 0", "nvwa: --reads: must be at least 1"),
        (
            "synth-ref /dev/null --len 0",
            "nvwa: --len: must be at least 1",
        ),
        (
            "synth-ref /dev/null --chromosomes 0",
            "nvwa: --chromosomes: must be at least 1",
        ),
        ("serve --ref-len 0", "nvwa: --ref-len: must be at least 1"),
        (
            "serve --queue-cap 0",
            "nvwa: --queue-cap: must be at least 1",
        ),
        (
            "serve --batch-max 0",
            "nvwa: --batch-max: must be at least 1",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_nvwa"))
            .args(args.split(' '))
            .output()
            .expect("nvwa runs");
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with(message));
        assert!(out.stdout.is_empty(), "{args}: did work before refusing");
    }
}

#[test]
fn an_unknown_subcommand_prints_every_flag_of_every_subcommand() {
    let src = include_str!("../src/bin/nvwa.rs");
    let table = src.split_once("const SUBCOMMANDS").expect("table exists").1;
    let table = table.split_once("\n];").expect("table ends").0;
    let flags: Vec<&str> = table.split('"').filter(|s| s.starts_with("--")).collect();
    assert!(flags.len() >= 50, "table not found: {flags:?}");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nvwa"))
        .arg("nosuchcommand")
        .output()
        .expect("nvwa runs");
    assert!(!out.status.success());
    let usage = String::from_utf8_lossy(&out.stderr);
    for flag in flags {
        let listed = [format!("[{flag} "), format!("[{flag}]")];
        assert!(
            listed.iter().any(|l| usage.contains(l)),
            "usage omits {flag}"
        );
    }
}
