//! The `registry` (multi-tenant serving) conformance family (DESIGN.md §14):
//! deterministic shard routing, a two-tenant serve run whose responses are
//! bit-identical to per-species offline aligners, per-tenant conservation
//! identities over the wire, and unknown-tenant rejection.

use std::time::Duration;

use nvwa_align::pipeline::{
    AlignScratch, AlignerConfig, AlignmentOutcome, ReferenceIndex, SeedTrace,
};
use nvwa_align::SoftwareAligner;
use nvwa_genome::species::Species;
use nvwa_genome::{ReadSimParams, ReferenceGenome};
use nvwa_serve::loadgen::{self, LoadReport, LoadgenConfig, TenantRead};
use nvwa_serve::protocol::WireAlignment;
use nvwa_serve::registry::{region_hash, route_shard};
use nvwa_serve::{Server, ServerConfig, Status, Tenant};
use nvwa_telemetry::{JsonValue, SnapshotMeta};

use crate::faults::{closed_loop, exactly_once, framed, play, short_align, with_field, Owed};
use crate::{wait_until, Prng};

/// The two tenants of the registry family: the largest and the smallest
/// species profile, so the cross-tenant differential exercises distinct
/// references. Scale 0.0 clamps both to the 40 kb floor — fast, still
/// bit-exact.
pub(crate) const TENANT_A: Species = Species::HomoSapiens;
pub(crate) const TENANT_B: Species = Species::CaenorhabditisElegans;

/// The two tenants as the server hosts them (tenant A split into two
/// shards) and each tenant's species with its genome, for the registry
/// family and the shard-kill plan.
pub(crate) fn two_tenants() -> (Vec<Tenant>, [(Species, ReferenceGenome); 2]) {
    let mut a = Tenant::species(TENANT_A, 0.0);
    a.shards = 2;
    let genomes = [TENANT_A, TENANT_B].map(|species| (species, species.synthesize(0.0)));
    (vec![a, Tenant::species(TENANT_B, 0.0)], genomes)
}

/// Pure routing checks: the hash is a function of its inputs only, the
/// router is stable, skips dead shards, and returns `None` only when
/// every shard is dead.
fn check_routing(seed: u64) -> Result<(), String> {
    let mut prng = Prng(seed ^ 0x5AAD_0007);
    for case in 0..16 {
        let len = 40 + prng.below(80) as usize;
        let codes = prng.codes(len);
        let region = (case % 2 == 0).then(|| prng.next_u64());
        let h = region_hash(region, &codes);
        if h != region_hash(region, &codes) {
            return Err(format!("region_hash not deterministic (case {case})"));
        }
        for shards in [1usize, 2, 5] {
            let all_live = route_shard(h, shards, |_| true)
                .ok_or_else(|| format!("route with all shards live returned None (case {case})"))?;
            if all_live != (h % shards as u64) as usize {
                return Err(format!(
                    "route_shard is not hash % shards with all live (case {case})"
                ));
            }
            if all_live != route_shard(h, shards, |_| true).unwrap() {
                return Err(format!("route_shard not deterministic (case {case})"));
            }
            if shards > 1 {
                let dead = all_live;
                let rerouted = route_shard(h, shards, |s| s != dead)
                    .ok_or_else(|| format!("reroute past dead shard failed (case {case})"))?;
                if rerouted == dead {
                    return Err(format!("route landed on a dead shard (case {case})"));
                }
            }
            if route_shard(h, shards, |_| false).is_some() {
                return Err(format!(
                    "route with all shards dead must be None (case {case})"
                ));
            }
        }
    }
    Ok(())
}

/// The registry family: routing determinism, a two-tenant serve run
/// bit-identical to per-species offline aligners, and unknown-tenant
/// rejection.
///
/// # Errors
///
/// Names the violated invariant (transport failures included).
pub fn run_registry_family(seed: u64, reads_per_tenant: usize) -> Result<String, String> {
    check_routing(seed)?;

    let (tenants, genomes) = two_tenants();
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(tenants, config).map_err(|e| format!("start: {e}"))?;
    let addr = server.local_addr().to_string();

    let seeds = [seed ^ 0x7E4A_0001, seed ^ 0x7E4A_0002];
    let mixed = interleave_tenants(&genomes, seeds, reads_per_tenant);
    let report = loadgen::run(
        &addr,
        &mixed,
        &LoadgenConfig {
            collect_responses: true,
            ..closed_loop()
        },
    )
    .map_err(|e| format!("loadgen: {e}"))?;

    // Unknown tenant: rejected with a protocol error, never aligned.
    let mut prng = Prng(seed ^ 0xBAD_7E4A);
    let request = short_align(0, prng.codes(60)).encode();
    let tenant = JsonValue::Str("no_such_species".to_string());
    let body = with_field(request, "tenant", tenant).to_string_compact();
    let frame = framed(body.len(), body.as_bytes());
    let resp = &play(&addr, "unknown tenant", &[frame], Owed::Error)?[0];
    let named = resp
        .error
        .as_deref()
        .unwrap_or("")
        .contains("unknown tenant");
    if !named {
        return Err(format!(
            "unknown tenant must be answered error naming it, got {resp:?}"
        ));
    }

    server.shutdown();

    // Conservation, globally and per tenant.
    exactly_once(&report, "registry")?;
    let (total, sections) = (&report.total, report.tenants.len());
    if total.ok != total.sent || sections != 2 {
        return Err(format!(
            "registry: want all ok over 2 tenant sections, got {sections}: {total:?}"
        ));
    }
    for (species, _) in &genomes {
        every(&report, *species, reads_per_tenant, Status::Ok, "registry")?;
    }

    // Bit-identity per tenant against that species' own offline aligner.
    for ((species, genome), offset) in genomes.iter().zip(0u64..) {
        let index = ReferenceIndex::build(genome, 32);
        let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
        // This tenant's reads, interleaved in the order above.
        let ids = (0..reads_per_tenant as u64).map(|pair| pair * 2 + offset);
        let batch = ids.clone().map(|id| (id, &mixed[id as usize].codes[..]));
        let mut out = Vec::new();
        aligner.align_batch(batch, &mut AlignScratch::new(), SeedTrace::Skip, &mut out);
        for (id, AlignmentOutcome { alignment, .. }) in ids.zip(&out) {
            let resp = report
                .responses
                .get(&id)
                .ok_or_else(|| format!("registry: response {id} missing despite ok count"))?;
            if resp.alignment != alignment.as_ref().map(WireAlignment::from_alignment) {
                return Err(format!(
                    "registry: tenant {} read {id} diverges from the offline aligner",
                    species.key()
                ));
            }
        }
    }

    Ok(format!(
        "registry: routing deterministic, 2 tenants × {reads_per_tenant} reads bit-identical \
         to per-species offline aligners, unknown tenant rejected"
    ))
}

/// `Err` unless `report` sent `sent` requests to `tenant` and answered
/// every one of them with `status`; `what` names the run.
pub(crate) fn every(
    report: &LoadReport,
    tenant: Species,
    sent: usize,
    status: Status,
    what: &str,
) -> Result<(), String> {
    let name = tenant.key();
    let Some(t) = report.tenants.iter().find(|t| t.name == name) else {
        return Err(format!("{what}: no report section for {name}"));
    };
    let c = &t.counts;
    let got = match status {
        Status::Ok => c.ok,
        Status::Unmapped => c.unmapped,
        Status::Shed => c.shed,
        Status::Quota => c.quota,
        Status::Deadline => c.deadline,
        Status::Error => c.errors,
    };
    if c.sent != sent as u64 || got != c.sent {
        let status = status.as_str();
        return Err(format!(
            "{what}: {name}: want {sent} sent, all {status}: {c:?}"
        ));
    }
    Ok(())
}

/// `per_tenant` simulated reads from each of the [`two_tenants`]' genomes
/// (read seeds `seeds`), labelled with that genome's tenant key and
/// interleaved a, b, a, b, … so every connection of a run carries both
/// tenants.
pub(crate) fn interleave_tenants(
    genomes: &[(Species, ReferenceGenome); 2],
    seeds: [u64; 2],
    per_tenant: usize,
) -> Vec<TenantRead> {
    let [a, b] = [0, 1].map(|i| {
        let (species, genome) = &genomes[i];
        let sim = ReadSimParams::illumina_101();
        let mut reads = loadgen::generate_reads(genome, sim, seeds[i], per_tenant);
        for read in &mut reads {
            read.tenant = Some(species.key().to_string());
        }
        reads
    });
    a.into_iter().zip(b).flat_map(|(a, b)| [a, b]).collect()
}

/// Streams `reads` at `server` under `load` and kills `tenant`'s shard
/// `shard` once that shard has admitted one of them.
///
/// # Errors
///
/// When the stream fails, the kill is refused, or the kill did not land
/// mid-stream: the shard's `admitted` count in the `stats` tenant rows
/// (which stops at the kill) is not between 1 and the number of `reads`
/// routed to the shard, exclusive.
pub fn kill_shard_mid_stream(
    server: &Server,
    reads: &[TenantRead],
    load: &LoadgenConfig,
    tenant: &str,
    shard: usize,
) -> Result<LoadReport, String> {
    // (the tenant's shard count, the shard's `admitted` count)
    let admitted = || {
        let stats = server.metrics().stats_response(&SnapshotMeta::default());
        let rows = stats.get("tenants").and_then(JsonValue::as_arr);
        let name = |row: &&JsonValue| row.get("name").and_then(JsonValue::as_str) == Some(tenant);
        let row = rows.and_then(|rows| rows.iter().find(name));
        let shards = row
            .and_then(|row| row.get("shards")?.as_arr())
            .unwrap_or_default();
        let n = shards.get(shard).and_then(|s| s.get("admitted")?.as_num());
        (shards.len(), n.unwrap_or(0.0) as u64)
    };
    let shards = admitted().0;
    let routed = reads.iter().filter(|read| {
        let start = route_shard(region_hash(read.region, &read.codes), shards, |_| true);
        read.tenant.as_deref() == Some(tenant) && start == Some(shard)
    });
    let (routed, addr) = (routed.count() as u64, server.local_addr().to_string());
    let (killed, report) = std::thread::scope(|scope| {
        let stream = scope.spawn(|| loadgen::run(&addr, reads, load));
        let started = || admitted().1 > 0 || stream.is_finished();
        wait_until(Duration::from_secs(60), started);
        (server.kill_shard(tenant, shard), stream.join())
    });
    let report = report.map_err(|_| "the load thread panicked")?;
    let (report, n) = (report.map_err(|e| format!("loadgen: {e}"))?, admitted().1);
    if !killed || n == 0 || n >= routed {
        return Err(format!(
            "kill_shard({tenant}, {shard}) did not land mid-stream (accepted: {killed}): \
             the shard had admitted {n} of the {routed} reads routed to it"
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvwa_serve::loadgen::{Counts, TenantReport};

    #[test]
    fn routing_checks_hold() {
        check_routing(3).expect("routing laws hold");
    }

    #[test]
    fn registry_family_holds_on_a_small_run() {
        let summary = run_registry_family(11, 12).expect("registry family holds");
        assert!(summary.contains("bit-identical"), "{summary}");
    }

    #[test]
    fn every_checks_the_tenants_send_count_and_the_named_status() {
        let (a, b) = (TENANT_A, TENANT_B);
        let section = |species: Species, sent, ok, shed| TenantReport {
            name: species.key().to_string(),
            counts: Counts {
                sent,
                ok,
                shed,
                ..Counts::default()
            },
        };
        let report = |tenants| LoadReport {
            mode: "closed",
            total: Counts::default(),
            tenants,
            duplicates: 0,
            connections: 1,
            reads: 0,
            wall_ms: 0.0,
            throughput_rps: 0.0,
            responses: Default::default(),
            stats_snapshots: Vec::new(),
            scrape_failures: 0,
            scrape_first_error: None,
            slo: Vec::new(),
        };
        let fine = report(vec![section(a, 4, 4, 0), section(b, 4, 0, 4)]);
        every(&fine, a, 4, Status::Ok, "t").expect("a all ok");
        every(&fine, b, 4, Status::Shed, "t").expect("b all shed");
        every(&fine, a, 4, Status::Shed, "t").expect_err("a is not shed");
        every(&fine, b, 4, Status::Quota, "t").expect_err("b is not quota");
        // One of A's reads answered in B's slice: each slice is all ok,
        // but neither holds the number of reads sent to it.
        let moved = report(vec![section(a, 3, 3, 0), section(b, 5, 5, 0)]);
        every(&moved, a, 4, Status::Ok, "t").expect_err("a lost one");
        every(&moved, b, 4, Status::Ok, "t").expect_err("b gained one");
        every(&report(vec![section(b, 4, 4, 0)]), a, 4, Status::Ok, "t")
            .expect_err("a has no section");
    }
}
