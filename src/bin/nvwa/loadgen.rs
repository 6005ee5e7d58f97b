//! `nvwa loadgen` — drive a running `nvwa serve` instance.
//!
//! Synthesizes `--reads` reads against the same synthetic reference the
//! server built (`--ref-len`/`--ref-seed` must match), pushes them using
//! the chosen arrival discipline, prints a human summary and writes the
//! machine-readable report (`nvwa validate` checks it, conservation
//! identities included). With `--scrape-ms` it also scrapes the server's
//! `stats` endpoint mid-run (snapshots land in `--stats-out` as a JSON
//! array); `--slo key=value` targets (repeatable) grade the run, and
//! `--shutdown` asks the server to drain once it is over. Exits non-zero
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
//! the report grows one accounting section per tenant. Tenant mixes are
//! short-read only (`--request-mode` must be `short` with `--tenant`).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use nvwa::genome::species::Species;
use nvwa::genome::{ReadSimParams, ReferenceGenome};
use nvwa::serve::loadgen::{
    self, ArrivalMode, Counts, LoadReport, LoadgenConfig, SloTarget, TenantRead,
};
use nvwa::serve::Mode;
use nvwa::telemetry::JsonValue;

use crate::args::Args;
use crate::{fail, usage, write_artifact};

/// Read-simulation seed of a mix's first source; source `i` draws from
/// `READ_SEED + i`.
const READ_SEED: u64 = 11;

/// Resolves the target address: `--addr` directly, or `--addr-file`
/// (polls up to 10 s for the server to write it — scripts start the
/// server in the background and race us to the file).
fn resolve_addr(args: &Args) -> Result<String, ExitCode> {
    if let Some(addr) = args.text("--addr") {
        return Ok(addr.to_string());
    }
    let Some(path) = args.text("--addr-file") else {
        return Ok("127.0.0.1:7878".to_string());
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match std::fs::read_to_string(path) {
            Ok(text) if !text.trim().is_empty() => return Ok(text.trim().to_string()),
            _ if Instant::now() >= deadline => {
                return Err(fail(format!("no address in {path} after 10s")))
            }
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// One stream of a read mix: its weight in the cycle, the genome and
/// read profile it samples, and the tenant label and mode its reads carry.
type Source<'a> = (
    usize,
    &'a ReferenceGenome,
    ReadSimParams,
    Option<&'a str>,
    Mode,
);

/// `n` reads interleaved by weight: the mix repeats a cycle in which
/// source `i` holds `weight` consecutive slots, so every window carries
/// every source. Source `i` simulates its reads with seed `READ_SEED + i`.
fn weighted_mix(sources: &[Source<'_>], n: usize) -> Vec<TenantRead> {
    let cycle: Vec<usize> = sources
        .iter()
        .enumerate()
        .flat_map(|(i, s)| std::iter::repeat_n(i, s.0))
        .collect();
    let mut counts = vec![0; sources.len()];
    for i in 0..n {
        counts[cycle[i % cycle.len()]] += 1;
    }
    let mut pools: Vec<_> = (0..sources.len())
        .map(|i| {
            let (_, genome, sim, tenant, mode) = sources[i];
            let mut reads = loadgen::generate_reads(genome, sim, READ_SEED + i as u64, counts[i]);
            for read in &mut reads {
                read.tenant = tenant.map(str::to_string);
                read.mode = mode;
            }
            reads.into_iter()
        })
        .collect();
    let mut slot = |i: usize| pools[cycle[i % cycle.len()]].next();
    (0..n)
        .map(|i| slot(i).expect("one read per slot"))
        .collect()
}

/// The run the flags ask for: its config, its SLO targets and its reads.
/// `Err` is a usage error.
fn plan(args: &Args) -> Result<(LoadgenConfig, Vec<SloTarget>, Vec<TenantRead>), String> {
    let mode = match args.text("--mode").unwrap_or("closed") {
        "closed" => ArrivalMode::Closed {
            window: args.get("--window").unwrap_or(32),
        },
        "open" => ArrivalMode::Open {
            rate_rps: args.get("--rate").unwrap_or(500.0),
            burst: args.get("--burst").unwrap_or(1),
        },
        other => return Err(format!("unknown mode {other:?}")),
    };
    let config = LoadgenConfig {
        connections: args.get("--connections").unwrap_or(2),
        mode,
        scrape_every: args
            .get("--scrape-ms")
            .map(|ms: u64| Duration::from_millis(ms.max(1))),
        ..LoadgenConfig::default()
    };
    let slo = (args.all::<String>("--slo").iter())
        .map(|spec| SloTarget::parse(spec))
        .collect::<Result<_, _>>()?;
    let n = args.get("--reads").unwrap_or(1_000);
    let ref_len = args.get("--ref-len").unwrap_or(100_000);
    let ref_seed = args.get("--ref-seed").unwrap_or(5);
    let long_len = args.get("--long-len").unwrap_or(2_000);
    let tenant_scale = args.get("--tenant-scale").unwrap_or(0.05f64);
    let request_mode = args.text("--request-mode").unwrap_or("short");
    let short = ReadSimParams::illumina_101();
    let long = ReadSimParams::long_read(long_len);

    let tenants = args.all::<String>("--tenant");
    if !tenants.is_empty() {
        if request_mode != "short" {
            return Err("--tenant mixes are short-read only".to_string());
        }
        let mut mix = Vec::new();
        for spec in &tenants {
            let (key, weight) = spec.split_once(':').unwrap_or((spec, "1"));
            let species =
                Species::from_key(key).ok_or_else(|| format!("unknown species key {key:?}"))?;
            let weight = (weight.parse().ok())
                .filter(|w: &usize| *w >= 1)
                .ok_or_else(|| format!("bad weight {weight:?} in {spec:?}"))?;
            mix.push((species, weight));
        }
        eprintln!(
            "synthesizing {n} reads over {} tenants (scale {tenant_scale}) ...",
            mix.len()
        );
        let genomes: Vec<_> = mix
            .iter()
            .map(|(s, _)| s.synthesize(tenant_scale))
            .collect();
        let sources: Vec<Source<'_>> = (mix.iter().zip(&genomes))
            .map(|((s, w), genome)| (*w, genome, short, Some(s.key()), Mode::Short))
            .collect();
        return Ok((config, slo, weighted_mix(&sources, n)));
    }
    let modes = match request_mode {
        "mixed" => vec![
            (2, short, Mode::Short),
            (1, long, Mode::Long),
            (1, long, Mode::Classify),
        ],
        "short" => vec![(1, short, Mode::Short)],
        spec => match Mode::from_wire(spec) {
            Some(mode) => vec![(1, long, mode)],
            None => return Err(format!("unknown request mode {spec:?}")),
        },
    };
    eprintln!("synthesizing {n} {request_mode} reads (ref {ref_len} bp, seed {ref_seed}) ...");
    let genome = ReferenceGenome::synthesize(&loadgen::ref_params(ref_len), ref_seed);
    let sources: Vec<Source<'_>> = (modes.into_iter())
        .map(|(weight, sim, mode)| (weight, &genome, sim, None, mode))
        .collect();
    Ok((config, slo, weighted_mix(&sources, n)))
}

/// One slice's outcome counts, as the summary prints them.
fn counts_line(c: &Counts) -> String {
    format!(
        "sent {} received {} (ok {} unmapped {} shed {} quota {} deadline {} error {}) lost {}",
        c.sent, c.received, c.ok, c.unmapped, c.shed, c.quota, c.deadline, c.errors, c.lost
    )
}

/// The human summary on stdout.
fn print_summary(report: &LoadReport, scraped: bool) {
    let fmt_us = |v: Option<f64>| v.map_or("-".to_string(), |us| format!("{:.1}", us / 1e3));
    let t = &report.total;
    println!("{} dup {}", counts_line(t), report.duplicates);
    for tenant in &report.tenants {
        let (name, p99) = (&tenant.name, fmt_us(tenant.counts.latency.p99));
        println!(
            "tenant {name}: {} | p99 ms {p99}",
            counts_line(&tenant.counts)
        );
    }
    println!(
        "mapped {}/{} | {:.0} req/s | latency ms p50 {} p90 {} p99 {} max {}",
        t.mapped,
        t.ok,
        report.throughput_rps,
        fmt_us(t.latency.p50),
        fmt_us(t.latency.p90),
        fmt_us(t.latency.p99),
        fmt_us(t.latency.max)
    );
    if scraped {
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
        let verdict = if check.pass { "PASS" } else { "FAIL" };
        println!(
            "slo {} {verdict}: {actual} (bound {})",
            check.target.key, check.target.bound
        );
    }
}

pub fn loadgen(args: &Args) -> Result<(), ExitCode> {
    let (config, slo, reads) = plan(args).map_err(|e| {
        eprintln!("nvwa: {e}");
        usage("loadgen")
    })?;
    // Every flag is checked by now; only then wait for the server's address.
    let addr = resolve_addr(args)?;
    eprintln!(
        "driving {addr}: {} mode, {} connections ...",
        config.mode.as_str(),
        config.connections
    );
    let mut report =
        loadgen::run(&addr, &reads, &config).map_err(|e| fail(format!("{addr}: {e}")))?;
    if args.has("--shutdown") {
        let _ = loadgen::send_shutdown(&addr);
    }
    report.slo = loadgen::evaluate_slo(&report, &slo);
    print_summary(&report, config.scrape_every.is_some());
    let outputs = [
        ("--out", report.to_json()),
        (
            "--stats-out",
            JsonValue::Arr(report.stats_snapshots.clone()),
        ),
    ];
    for (name, doc) in outputs {
        if let Some(path) = args.text(name) {
            write_artifact(path, &doc.to_string_pretty())?;
        }
    }
    if !report.is_lossless() {
        return Err(fail(format!(
            "FAILED response conservation: lost {} duplicates {}",
            report.total.lost, report.duplicates
        )));
    }
    if !report.slo_pass() {
        return Err(fail("FAILED SLO targets (see checks above)".to_string()));
    }
    Ok(())
}
