//! `nvwa serve`: the batched TCP alignment server.

use std::fs;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use nvwa::align::pipeline::ReferenceIndex;
use nvwa::genome::species::{Species, ALL_SPECIES};
use nvwa::genome::ReferenceGenome;
use nvwa::index::Isa;
use nvwa::serve::loadgen::ref_params;
use nvwa::serve::{signal, BackendKind, BatcherConfig, Server, ServerConfig, Tenant};
use nvwa::telemetry::SnapshotMeta;

use crate::args::Args;
use crate::{fail, load_genome, usage, usage_error, write_artifact};

/// Parses a `--tenant` spec: `species_key[:shards[:quota]]`, e.g.
/// `homo_sapiens:4:256`, into `(species, shards, quota)`.
fn parse_tenant_spec(spec: &str) -> Result<(Species, usize, Option<u64>), String> {
    let mut parts = spec.split(':');
    let key = parts.next().unwrap_or("");
    let species = Species::from_key(key).ok_or_else(|| {
        format!(
            "unknown species key {key:?} (want one of: {})",
            ALL_SPECIES.map(Species::key).join(", ")
        )
    })?;
    let (mut shards, mut quota) = (1, None);
    if let Some(n) = parts.next() {
        shards = n
            .parse()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("bad shard count {n:?} in {spec:?}"))?;
    }
    if let Some(q) = parts.next() {
        quota = Some(
            q.parse()
                .map_err(|_| format!("bad quota {q:?} in {spec:?}"))?,
        );
    }
    Ok((species, shards, quota))
}

/// The serving front end: builds (or loads) a reference, starts the
/// batched TCP server and runs until SIGINT/SIGTERM or a protocol
/// `shutdown` request, then drains gracefully and optionally writes the
/// serve metrics snapshot and Chrome trace.
pub fn serve(args: &Args) -> Result<(), ExitCode> {
    // The reactor is the only frontend. Scripts written when there were
    // two still pass `--frontend reactor`; anything else must not
    // silently get the reactor.
    if let Some(name) = args.text("--frontend").filter(|name| *name != "reactor") {
        eprintln!("nvwa: --frontend {name:?}: the threaded frontend was removed");
        return Err(usage("serve"));
    }
    // `--tenant KEY[:SHARDS[:QUOTA]]` (repeatable) serves species tenants,
    // each reference synthesized from its profile at `--tenant-scale`;
    // without one the server has the single `--ref*` tenant. The two do
    // not mix.
    let tenant_scale = args.get("--tenant-scale").unwrap_or(0.05f64);
    let specs = (args.all::<String>("--tenant").iter())
        .map(|spec| parse_tenant_spec(spec))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| {
            eprintln!("nvwa: {e}");
            usage("serve")
        })?;
    for name in ["--ref", "--ref-len", "--ref-seed"] {
        if !specs.is_empty() && args.has(name) {
            return Err(usage_error(format!("{name}: not valid with --tenant")));
        }
    }

    let backend = match args.text("--backend").unwrap_or("sw") {
        "sw" => BackendKind::Software,
        "hil" => BackendKind::hil_default(),
        other => {
            eprintln!("nvwa: unknown backend {other:?} (want sw or hil)");
            return Err(usage("serve"));
        }
    };
    let config = ServerConfig {
        addr: args.text("--addr").unwrap_or("127.0.0.1:0").to_string(),
        registry_budget: args.get("--registry-budget"),
        queue_capacity: args.get("--queue-cap").unwrap_or(1024),
        workers: (args.get("--workers")).unwrap_or_else(nvwa::sim::par::current_threads),
        batch: BatcherConfig {
            max_batch: args.get("--batch-max").unwrap_or(64),
            ..BatcherConfig::default()
        },
        backend,
        default_deadline: args.get("--deadline-ms").map(Duration::from_millis),
        long_deadline: args.get("--long-deadline-ms").map(Duration::from_millis),
        classify_deadline: args
            .get("--classify-deadline-ms")
            .map(Duration::from_millis),
        trace: args.has("--trace-out"),
        flight_dump: args.get("--flight-dump"),
        ..ServerConfig::default()
    };
    signal::install();
    let tenants = if specs.is_empty() {
        let genome = if let Some(ref_path) = args.text("--ref") {
            load_genome(ref_path)?
        } else {
            let len = args.get("--ref-len").unwrap_or(100_000);
            let seed = args.get("--ref-seed").unwrap_or(5);
            eprintln!("synthesizing {len} bp reference (seed {seed}) ...");
            ReferenceGenome::synthesize(&ref_params(len), seed)
        };
        eprintln!(
            "indexing {} bp (isa: {}) ...",
            genome.total_len(),
            Isa::host().name()
        );
        vec![Tenant::single(Arc::new(ReferenceIndex::build(&genome, 32)))]
    } else {
        eprintln!(
            "indexing {} tenant(s) at scale {tenant_scale} (isa: {}) ...",
            specs.len(),
            Isa::host().name()
        );
        specs
            .into_iter()
            .map(|(species, shards, quota)| Tenant {
                shards,
                quota,
                ..Tenant::species(species, tenant_scale)
            })
            .collect()
    };
    let server =
        Server::start(tenants, config).map_err(|e| fail(format!("cannot start server: {e}")))?;
    let addr = server.local_addr();
    println!("serving on {addr} (SIGINT or a shutdown request drains and exits)");
    if let Some(path) = args.text("--addr-file") {
        fs::write(path, addr.to_string()).map_err(|e| fail(format!("cannot write {path}: {e}")))?;
    }
    while !signal::interrupted() && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("draining ...");
    let metrics = server.shutdown();
    println!(
        "served {} ok / {} shed / {} deadline across {} batches ({} connections)",
        metrics.counter("serve.responses_ok"),
        metrics.counter("serve.requests_shed"),
        metrics.counter("serve.deadline_expired"),
        metrics.counter("serve.batches_formed"),
        metrics.counter("serve.connections_accepted"),
    );
    if let Some(path) = args.text("--metrics-out") {
        // The stats-response document: registry snapshot + live SLO view
        // + flight-recorder summary, same shape the in-band `stats`
        // request answers with.
        let meta = SnapshotMeta::collect(nvwa::sim::par::current_threads());
        write_artifact(path, &metrics.stats_response(&meta).to_string_pretty())?;
    }
    if let Some(path) = args.text("--span-log-out") {
        write_artifact(path, &metrics.span_log_doc().to_string_pretty())?;
    }
    if let (Some(path), Some(trace)) = (args.text("--trace-out"), metrics.trace_json()) {
        write_artifact(path, &trace)?;
    }
    Ok(())
}
