//! `nvwa-loadgen` — drive a running `nvwa serve` instance.
//!
//! `nvwa-loadgen --help` prints every flag (from `KNOWN_FLAGS`, the one
//! place they are listed).
//!
//! Synthesizes `--reads` reads against the same synthetic reference the
//! server built (`--ref-len`/`--ref-seed` must match), pushes them using
//! the chosen arrival discipline, prints a human summary and writes the
//! machine-readable report (`validate` checks it, conservation identities
//! included). With `--scrape-ms` it also scrapes the server's `stats`
//! endpoint mid-run (snapshots land in `--stats-out` as a JSON array);
//! `--slo key=value` targets (repeatable) grade the run. Exits non-zero
//! if any request was lost or duplicated, or any SLO target is violated.
//!
//! `--request-mode` picks the server-side execution path stamped on every
//! request: `short` (default, seed-and-extend), `long` (minimizer-chain-
//! GACT over `--long-len`-bp reads), `classify` (metagenomic screening
//! across every tenant of the server), or `mixed` (a deterministic 2:1:1
//! short/long/classify interleave exercising all three paths at once).
//!
//! `--tenant KEY[:WEIGHT]` (repeatable) switches to multi-tenant mode
//! against a species-tenant server (`nvwa serve --tenant ...`): reads are
//! synthesized per species at `--tenant-scale` (must match the server's),
//! tagged with the tenant name and interleaved by integer weight, and
//! the report grows per-tenant accounting sections. Tenant mixes are
//! short-read only (`--request-mode` must be `short` with `--tenant`).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use nvwa_genome::species::Species;
use nvwa_serve::loadgen::{self, ArrivalMode, LoadgenConfig, SloTarget, TenantRead};
use nvwa_serve::Mode;
use nvwa_sim::par::{usage_synopsis, FlagSpec};
use nvwa_telemetry::{JsonValue, SnapshotMeta};

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `name V` parsed as a `T` (`None` when absent); a missing or
/// unparsable value is a usage error, not a silent default.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    nvwa_sim::par::flag(args, name).unwrap_or_else(|e| {
        eprintln!("nvwa-loadgen: {e}");
        std::process::exit(2)
    })
}

/// Every flag with its value placeholder; anything else starting with
/// `--` is refused before any work, and `usage` prints this table — a
/// flag is listed here and nowhere else.
#[rustfmt::skip]
const KNOWN_FLAGS: &[FlagSpec] = &[
    ("--addr", "H:P"), ("--addr-file", "PATH"), ("--reads", "N"), ("--connections", "C"),
    ("--mode", "closed|open"), ("--window", "W"),
    ("--request-mode", "short|long|classify|mixed"), ("--rate", "RPS"), ("--burst", "B"),
    ("--deadline-ms", "D"), ("--ref-len", "N"), ("--ref-seed", "S"), ("--read-seed", "S"),
    ("--long-len", "N"), ("--tenant", "KEY[:WEIGHT]..."), ("--tenant-scale", "F"),
    ("--out", "report.json"), ("--metrics-out", "snap.json"), ("--stats-out", "scrapes.json"),
    ("--scrape-ms", "MS"), ("--slo", "key=value..."), ("--shutdown", ""), ("--threads", "N"),
];

fn usage() -> ExitCode {
    eprintln!("{}", usage_synopsis("usage: nvwa-loadgen", KNOWN_FLAGS));
    ExitCode::FAILURE
}

/// Collects every occurrence of a repeatable flag's value.
fn flag_values(args: &[String], name: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .cloned()
        .collect()
}

/// Resolves the target address: `--addr` directly, or `--addr-file`
/// (polls up to 10 s for the server to write it — scripts start the
/// server in the background and race us to the file).
fn resolve_addr(args: &[String]) -> Result<String, ExitCode> {
    if let Some(addr) = flag_value(args, "--addr") {
        return Ok(addr);
    }
    let Some(path) = flag_value(args, "--addr-file") else {
        return Ok("127.0.0.1:7878".to_string());
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match std::fs::read_to_string(&path) {
            Ok(text) if !text.trim().is_empty() => return Ok(text.trim().to_string()),
            _ if Instant::now() >= deadline => {
                eprintln!("nvwa-loadgen: no address in {path} after 10s");
                return Err(ExitCode::FAILURE);
            }
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    if let Err(e) = nvwa_sim::par::reject_unknown_flags(&args, KNOWN_FLAGS)
        .and_then(|()| nvwa_sim::par::configure_threads_from_args(&args))
    {
        eprintln!("nvwa-loadgen: {e}");
        return ExitCode::from(2);
    }
    let mode = match flag_value(&args, "--mode").as_deref().unwrap_or("closed") {
        "closed" => ArrivalMode::Closed {
            window: flag(&args, "--window").unwrap_or(32),
        },
        "open" => ArrivalMode::Open {
            rate_rps: flag(&args, "--rate").unwrap_or(500.0),
            burst: flag(&args, "--burst").unwrap_or(1),
        },
        other => {
            eprintln!("nvwa-loadgen: unknown mode {other:?}");
            return usage();
        }
    };
    let reads_n = flag(&args, "--reads").unwrap_or(1_000);
    let ref_len = flag(&args, "--ref-len").unwrap_or(100_000);
    let ref_seed = flag(&args, "--ref-seed").unwrap_or(5);
    let read_seed = flag(&args, "--read-seed").unwrap_or(11);
    let slo = {
        let mut targets = Vec::new();
        for spec in flag_values(&args, "--slo") {
            match SloTarget::parse(&spec) {
                Ok(t) => targets.push(t),
                Err(e) => {
                    eprintln!("nvwa-loadgen: {e}");
                    return usage();
                }
            }
        }
        targets
    };
    // The server-side execution path. `mixed` interleaves all three and
    // is resolved per read below; uniform modes ride on the config.
    let request_mode_spec = flag_value(&args, "--request-mode").unwrap_or_else(|| "short".into());
    let request_mode = match request_mode_spec.as_str() {
        "mixed" => None,
        spec => match Mode::from_wire(spec) {
            Some(m) => Some(m),
            None => {
                eprintln!("nvwa-loadgen: unknown request mode {spec:?}");
                return usage();
            }
        },
    };
    let config = LoadgenConfig {
        connections: flag(&args, "--connections").unwrap_or(2),
        mode,
        request_mode: request_mode.unwrap_or(Mode::Short),
        deadline_ms: flag(&args, "--deadline-ms"),
        arrival_seed: read_seed,
        collect_responses: false,
        shutdown_after: args.iter().any(|a| a == "--shutdown"),
        scrape_every: flag(&args, "--scrape-ms").map(|ms: u64| Duration::from_millis(ms.max(1))),
        slo,
    };

    // Multi-tenant mix: `--tenant KEY[:WEIGHT]` (repeatable). Weighted
    // round-robin interleave so every window carries every tenant.
    let mut tenants: Vec<(Species, usize)> = Vec::new();
    for spec in flag_values(&args, "--tenant") {
        let mut parts = spec.split(':');
        let key = parts.next().unwrap_or("");
        let Some(species) = Species::from_key(key) else {
            eprintln!("nvwa-loadgen: unknown species key {key:?}");
            return usage();
        };
        let weight = match parts.next() {
            None => 1usize,
            Some(w) => match w.parse().ok().filter(|n| *n >= 1) {
                Some(n) => n,
                None => {
                    eprintln!("nvwa-loadgen: bad weight {w:?} in {spec:?}");
                    return usage();
                }
            },
        };
        tenants.push((species, weight));
    }

    let long_len = flag(&args, "--long-len").unwrap_or(2_000);
    let tenant_scale = flag(&args, "--tenant-scale").unwrap_or(0.05f64);

    if !tenants.is_empty() && request_mode != Some(Mode::Short) {
        eprintln!("nvwa-loadgen: --tenant mixes are short-read only");
        return usage();
    }

    // Every flag is parsed by now; only then wait for the server's address.
    let addr = match resolve_addr(&args) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let run_result = if tenants.is_empty() {
        let params = loadgen::ref_params(ref_len);
        let reads = match request_mode {
            Some(Mode::Short) => {
                eprintln!("synthesizing {reads_n} reads (ref {ref_len} bp, seed {ref_seed}) ...");
                loadgen::generate_reads(&params, ref_seed, read_seed, reads_n)
            }
            Some(Mode::Long) | Some(Mode::Classify) => {
                eprintln!(
                    "synthesizing {reads_n} long reads of {long_len} bp \
                     (ref {ref_len} bp, seed {ref_seed}) ...",
                );
                loadgen::generate_long_reads(&params, ref_seed, read_seed, reads_n, long_len)
            }
            None => Vec::new(), // mixed — built below with per-read modes
        };
        eprintln!(
            "driving {addr}: {} mode, {} connections, {request_mode_spec} requests ...",
            config.mode.as_str(),
            config.connections
        );
        if let Some(_uniform) = request_mode {
            loadgen::run(&addr, &reads, &config)
        } else {
            // Mixed: deterministic 2:1:1 short/long/classify interleave.
            // Short positions take Illumina 101 bp reads, long and
            // classify positions take `--long-len`-bp long reads.
            let modes: Vec<Mode> = (0..reads_n)
                .map(|i| match i % 4 {
                    2 => Mode::Long,
                    3 => Mode::Classify,
                    _ => Mode::Short,
                })
                .collect();
            let n_long_mode = modes.iter().filter(|m| **m != Mode::Short).count();
            let shorts =
                loadgen::generate_reads(&params, ref_seed, read_seed, reads_n - n_long_mode);
            let longs = loadgen::generate_long_reads(
                &params,
                ref_seed,
                read_seed ^ 0x10e6_11fe,
                n_long_mode,
                long_len,
            );
            let mut shorts = shorts.into_iter();
            let mut longs = longs.into_iter();
            let mixed: Vec<TenantRead> = modes
                .into_iter()
                .map(|mode| TenantRead {
                    tenant: None,
                    codes: if mode == Mode::Short {
                        shorts.next().expect("short interleave")
                    } else {
                        longs.next().expect("long interleave")
                    },
                    region: None,
                    mode,
                })
                .collect();
            loadgen::run_tenants(&addr, &mixed, &config)
        }
    } else {
        let cycle: Vec<usize> = tenants
            .iter()
            .enumerate()
            .flat_map(|(i, (_, w))| std::iter::repeat_n(i, *w))
            .collect();
        let mut counts = vec![0usize; tenants.len()];
        for i in 0..reads_n {
            counts[cycle[i % cycle.len()]] += 1;
        }
        let pools: Vec<Vec<Vec<u8>>> = tenants
            .iter()
            .enumerate()
            .map(|(i, (species, _))| {
                eprintln!(
                    "synthesizing {} reads for tenant {} (scale {tenant_scale}) ...",
                    counts[i],
                    species.key()
                );
                loadgen::generate_species_reads(
                    *species,
                    tenant_scale,
                    read_seed ^ (i as u64 + 1),
                    counts[i],
                )
            })
            .collect();
        let mut taken = vec![0usize; tenants.len()];
        let mut mixed = Vec::with_capacity(reads_n);
        for i in 0..reads_n {
            let t = cycle[i % cycle.len()];
            mixed.push(TenantRead {
                tenant: Some(tenants[t].0.key().to_string()),
                codes: pools[t][taken[t]].clone(),
                region: None,
                mode: Mode::Short,
            });
            taken[t] += 1;
        }
        eprintln!(
            "driving {addr}: {} mode, {} connections, {} tenants ...",
            config.mode.as_str(),
            config.connections,
            tenants.len()
        );
        loadgen::run_tenants(&addr, &mixed, &config)
    };
    let report = match run_result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nvwa-loadgen: {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let fmt_us = |v: Option<f64>| v.map_or("-".to_string(), |us| format!("{:.1}", us / 1e3));
    println!(
        "sent {} received {} (ok {} unmapped {} shed {} quota {} deadline {} error {}) lost {} dup {}",
        report.sent,
        report.received,
        report.ok,
        report.unmapped,
        report.shed,
        report.quota,
        report.deadline,
        report.errors,
        report.lost,
        report.duplicates
    );
    for t in &report.tenants {
        println!(
            "tenant {}: sent {} ok {} shed {} quota {} deadline {} error {} lost {} | p99 ms {}",
            t.name,
            t.sent,
            t.ok,
            t.shed,
            t.quota,
            t.deadline,
            t.errors,
            t.lost,
            fmt_us(t.latency.p99)
        );
    }
    println!(
        "mapped {}/{} | {:.0} req/s | latency ms p50 {} p90 {} p99 {} max {}",
        report.mapped,
        report.ok,
        report.throughput_rps,
        fmt_us(report.latency.p50),
        fmt_us(report.latency.p90),
        fmt_us(report.latency.p99),
        fmt_us(report.latency.max)
    );
    if config.scrape_every.is_some() {
        println!(
            "scraped {} stats snapshots ({} failures)",
            report.stats_snapshots.len(),
            report.scrape_failures
        );
        if let Some(e) = &report.scrape_first_error {
            println!("first scrape failure: {e}");
        }
    }
    for check in &report.slo {
        let actual = check
            .actual
            .map_or("unmeasured".to_string(), |a| format!("{a:.3}"));
        println!(
            "slo {} {}: {} (bound {})",
            check.key,
            if check.pass { "PASS" } else { "FAIL" },
            actual,
            check.bound
        );
    }
    if let Some(out) = flag_value(&args, "--out") {
        let doc = report.to_json().to_string_pretty();
        if let Err(e) = std::fs::write(&out, doc) {
            eprintln!("nvwa-loadgen: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out}");
    }
    if let Some(out) = flag_value(&args, "--metrics-out") {
        let meta = SnapshotMeta::collect(nvwa_sim::par::current_threads());
        let doc = report.metrics_snapshot(&meta).to_string_pretty();
        if let Err(e) = std::fs::write(&out, doc) {
            eprintln!("nvwa-loadgen: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out}");
    }
    if let Some(out) = flag_value(&args, "--stats-out") {
        let doc = JsonValue::Arr(report.stats_snapshots.clone()).to_string_pretty();
        if let Err(e) = std::fs::write(&out, doc) {
            eprintln!("nvwa-loadgen: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out}");
    }
    if !report.is_lossless() {
        eprintln!(
            "nvwa-loadgen: FAILED response conservation: lost {} duplicates {}",
            report.lost, report.duplicates
        );
        return ExitCode::FAILURE;
    }
    if !report.slo_pass() {
        eprintln!("nvwa-loadgen: FAILED SLO targets (see checks above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
