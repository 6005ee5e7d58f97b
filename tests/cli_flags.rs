//! Every subcommand reads its command line against its row of the one
//! flag table (`SUBCOMMANDS`): a flag it does not know, a value flag
//! without its value, a value it cannot parse or a wrong number of
//! positionals is a usage error (exit 2, named on stderr) before any work
//! — never a silent default. The usage text is printed from that table,
//! so it lists every flag the binary accepts.

use std::path::Path;
use std::process::{Command, Output};
use std::time::Instant;

fn nvwa(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nvwa"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("nvwa runs")
}

/// `(subcommand, its flags)` for every row of the table, read from the
/// source so that a new row or flag is covered without editing this file.
fn table_rows() -> Vec<(&'static str, Vec<&'static str>)> {
    let src = include_str!("../src/bin/nvwa/main.rs");
    let table = src.split_once("const SUBCOMMANDS").expect("table exists").1;
    let table = table.split_once("\n];").expect("table ends").0;
    let rows = table.split("\n    (\"").skip(1);
    let rows = rows.map(|row| {
        let name = row.split('"').next().expect("row has a name");
        (
            name,
            row.split('"').filter(|s| s.starts_with("--")).collect(),
        )
    });
    rows.collect()
}

/// Asserts that `usage` lists `flag` as `[--flag VALUE]` or `[--flag]`.
fn assert_listed(usage: &str, flag: &str) {
    let listed = [format!("[{flag} "), format!("[{flag}]")];
    assert!(
        listed.iter().any(|l| usage.contains(l)),
        "usage omits {flag}"
    );
}

#[test]
fn unparsable_flag_values_exit_2_naming_the_flag() {
    for (args, message) in [
        (
            "serve --deadline-ms 5s",
            "nvwa: --deadline-ms: cannot parse",
        ),
        ("sim --threads x", "nvwa: --threads: cannot parse"),
        ("loadgen --reads x", "nvwa: --reads: cannot parse"),
        (
            "conformance --seed-from-ci --seed",
            "nvwa: --seed: missing value",
        ),
        // A value flag at the end, or followed by another flag, has no
        // value: refused, not written nowhere or to a file named `--threads`.
        (
            "sim --reads 10 --metrics-out",
            "nvwa: --metrics-out: missing value",
        ),
        (
            "sim --metrics-out --threads 1 --reads 10",
            "nvwa: --metrics-out: missing value",
        ),
        // Refused before the load run, not when the report is written.
        ("loadgen --out", "nvwa: --out: missing value"),
        ("loadgen --stats-out", "nvwa: --stats-out: missing value"),
        (
            "repro --full --metrics-out",
            "nvwa: --metrics-out: missing value",
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
        // The observability and debug knobs nothing set to anything but
        // its default are constants now; `--family` is repeatable, so
        // its comma-separated twin is gone.
        (
            "serve --slo-window-ms 1000",
            "nvwa: --slo-window-ms: unknown flag",
        ),
        (
            "serve --slo-step-ms 100",
            "nvwa: --slo-step-ms: unknown flag",
        ),
        (
            "serve --span-log-cap 8",
            "nvwa: --span-log-cap: unknown flag",
        ),
        ("serve --flight-cap 8", "nvwa: --flight-cap: unknown flag"),
        ("serve --shed-storm 3", "nvwa: --shed-storm: unknown flag"),
        (
            "serve --debug-worker-delay-us 10",
            "nvwa: --debug-worker-delay-us: unknown flag",
        ),
        (
            "serve --debug-worker-panic-at-batch 1",
            "nvwa: --debug-worker-panic-at-batch: unknown flag",
        ),
        (
            "conformance --families diff",
            "nvwa: --families: unknown flag",
        ),
        // The loadgen's removed mix flag (it silently ran an all-short mix
        // against a server it then waited 10 s for), a typo, and its
        // removed metrics registry and thread pool.
        (
            "loadgen --addr-file /nonexistent/addr --long-frac 0.3",
            "nvwa: --long-frac: unknown flag",
        ),
        (
            "loadgen --reads 10 --conections 4",
            "nvwa: --conections: unknown flag",
        ),
        (
            "loadgen --metrics-out x",
            "nvwa: --metrics-out: unknown flag",
        ),
        ("loadgen --threads 2", "nvwa: --threads: unknown flag"),
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
        // Positionals the row does not take, or too few of them.
        ("synth-ref out.fa 1000", "nvwa: 1000: unexpected argument"),
        ("align ref.fa", "nvwa: align: missing arguments"),
        ("validate --golden a", "nvwa: validate: missing arguments"),
        (
            "validate --golden a b c",
            "nvwa: --golden compares one candidate",
        ),
        // Every experiment name is resolved before any runs.
        ("repro table1 fig99", "nvwa: unknown experiment \"fig99\""),
    ] {
        let started = Instant::now();
        let out = nvwa(&args.split(' ').collect::<Vec<_>>(), Path::new("."));
        assert_eq!(out.status.code(), Some(2), "{args}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(message), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args}: did work before refusing");
        assert!(started.elapsed().as_secs() < 5, "{args}: waited first");
    }
    assert!(nvwa(&["repro", "table1"], Path::new(".")).status.success());
}

#[test]
fn positionals_are_what_the_flag_values_leave() {
    let dir = std::env::temp_dir().join(format!("nvwa-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = |args: &[&str]| {
        let out = nvwa(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
    };
    // The value of `--len` is not the output file ...
    run(&["synth-ref", "--len", "4000", "--chromosomes", "1", "ref.fa"]);
    assert!(dir.join("ref.fa").exists() && !dir.join("--len").exists());
    run(&["synth-reads", "--count", "16", "ref.fa", "reads.fq"]);
    // ... and the value of `--sam` is not the reference.
    run(&["align", "--sam", "out.sam", "ref.fa", "reads.fq"]);
    assert!(dir.join("out.sam").exists());
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
}

#[test]
fn an_unknown_subcommand_prints_every_flag_of_every_subcommand() {
    let rows = table_rows();
    let flags: Vec<&str> = rows.iter().flat_map(|(_, flags)| flags.clone()).collect();
    assert!(flags.len() >= 60, "table not found: {flags:?}");
    let out = nvwa(&["nosuchcommand"], Path::new("."));
    assert!(!out.status.success());
    let usage = String::from_utf8_lossy(&out.stderr);
    for flag in flags {
        assert_listed(&usage, flag);
    }
}

#[test]
fn help_prints_that_subcommands_synopsis() {
    let rows = table_rows();
    for (name, kept) in [("serve", 21), ("loadgen", 19), ("conformance", 7)] {
        let row = rows.iter().find(|row| row.0 == name).expect("row");
        assert_eq!(row.1.len(), kept, "{name} keeps {kept} flags: {row:?}");
    }
    for (name, flags) in &rows {
        let out = nvwa(&[name, "--help"], Path::new("."));
        let usage = String::from_utf8_lossy(&out.stderr);
        assert!(usage.starts_with("usage: nvwa "), "{name}: {usage}");
        assert_eq!(usage.matches("nvwa ").count(), 1, "{name}: {usage}");
        for flag in flags {
            assert_listed(&usage, flag);
        }
    }
}
