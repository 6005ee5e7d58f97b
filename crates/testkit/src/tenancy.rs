//! The `registry` (multi-tenant serving) conformance family (DESIGN.md §14):
//! deterministic shard routing, a two-tenant serve run whose responses are
//! bit-identical to per-species offline aligners, per-tenant conservation
//! identities over the wire, and unknown-tenant rejection.

use std::net::TcpStream;
use std::time::Duration;

use nvwa_align::pipeline::{AlignScratch, AlignerConfig, ReferenceIndex, SoftwareAligner};
use nvwa_genome::species::Species;
use nvwa_genome::{ReadSimParams, ReferenceGenome};
use nvwa_serve::loadgen::{self, ArrivalMode, LoadgenConfig, TenantRead};
use nvwa_serve::protocol::{read_frame, write_frame, Mode};
use nvwa_serve::registry::{region_hash, route_shard};
use nvwa_serve::{AlignResponse, Request, Server, ServerConfig, Status, Tenant};

use crate::diff::wire_matches;
use crate::Prng;

/// The two tenants of the registry family: the largest and the smallest
/// species profile, so the cross-tenant differential exercises distinct
/// references. Scale 0.0 clamps both to the 40 kb floor — fast, still
/// bit-exact.
const TENANT_A: Species = Species::HomoSapiens;
const TENANT_B: Species = Species::CaenorhabditisElegans;

fn client_connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("set timeout: {e}"))?;
    Ok(stream)
}

/// Pure routing checks: the hash is a function of its inputs only, the
/// router is stable, skips dead shards, and returns `None` only when
/// every shard is dead.
fn check_routing(seed: u64) -> Result<(), String> {
    let mut prng = Prng(seed ^ 0x5AAD_0007);
    for case in 0..16 {
        let len = 40 + prng.below(80) as usize;
        let codes = prng.codes(len);
        let region = if case % 2 == 0 {
            Some(prng.next_u64())
        } else {
            None
        };
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

    let mut tenant_a = Tenant::species(TENANT_A, 0.0);
    tenant_a.shards = 2;
    let tenant_b = Tenant::species(TENANT_B, 0.0);
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server =
        Server::start(vec![tenant_a, tenant_b], config).map_err(|e| format!("start: {e}"))?;
    let addr = server.local_addr().to_string();

    let genomes = [TENANT_A.synthesize(0.0), TENANT_B.synthesize(0.0)];
    let a = (TENANT_A, &genomes[0], seed ^ 0x7E4A_0001);
    let b = (TENANT_B, &genomes[1], seed ^ 0x7E4A_0002);
    let mixed = interleave_tenants([a, b], reads_per_tenant);
    let report = loadgen::run(
        &addr,
        &mixed,
        &LoadgenConfig {
            connections: 2,
            mode: ArrivalMode::Closed { window: 16 },
            collect_responses: true,
            ..LoadgenConfig::default()
        },
    )
    .map_err(|e| format!("loadgen: {e}"))?;

    // Unknown tenant: rejected with a protocol error, never aligned.
    let mut s = client_connect(&addr)?;
    let mut prng = Prng(seed ^ 0xBAD_7E4A);
    write_frame(
        &mut s,
        &Request::Align {
            id: 0,
            codes: prng.codes(60),
            deadline_ms: None,
            tenant: Some("no_such_species".to_string()),
            region: None,
            mode: Mode::Short,
        }
        .encode(),
    )
    .map_err(|e| format!("unknown-tenant write: {e}"))?;
    let doc = read_frame(&mut s)
        .map_err(|e| format!("unknown-tenant read: {e}"))?
        .ok_or("unknown-tenant: connection closed without a response")?;
    let resp = AlignResponse::decode(&doc)?;
    if resp.status != Status::Error
        || !resp
            .error
            .as_deref()
            .unwrap_or("")
            .contains("unknown tenant")
    {
        return Err(format!(
            "unknown tenant must be answered error naming it, got {resp:?}"
        ));
    }

    server.shutdown();

    // Conservation, globally and per tenant.
    let total = &report.total;
    if !report.is_lossless() || total.received != total.sent {
        return Err(format!(
            "registry: transport not clean: sent {} received {} lost {} duplicates {}",
            total.sent, total.received, total.lost, report.duplicates
        ));
    }
    if total.ok != total.sent {
        return Err(format!(
            "registry: {} of {} requests not ok (shed {} quota {} deadline {} errors {})",
            total.sent - total.ok,
            total.sent,
            total.shed,
            total.quota,
            total.deadline,
            total.errors
        ));
    }
    if report.tenants.len() != 2 {
        return Err(format!(
            "registry: want 2 tenant report sections, got {}",
            report.tenants.len()
        ));
    }
    for t in &report.tenants {
        let c = &t.counts;
        if c.sent != reads_per_tenant as u64 || c.ok != c.sent || c.lost != 0 {
            return Err(format!(
                "registry: tenant {} accounting broken: sent {} ok {} lost {}",
                t.name, c.sent, c.ok, c.lost
            ));
        }
    }

    // Bit-identity per tenant against that species' own offline aligner.
    for ((species, genome), offset) in [TENANT_A, TENANT_B].into_iter().zip(&genomes).zip(0u64..) {
        let index = ReferenceIndex::build(genome, 32);
        let aligner = SoftwareAligner::new(&index, AlignerConfig::default());
        let mut scratch = AlignScratch::new();
        for pair in 0..reads_per_tenant as u64 {
            let id = pair * 2 + offset; // interleave order above
            let resp = report
                .responses
                .get(&id)
                .ok_or_else(|| format!("registry: response {id} missing despite ok count"))?;
            let codes = &mixed[id as usize].codes;
            let offline = aligner.align_codes_fast(id, codes, &mut scratch).alignment;
            if !wire_matches(&resp.alignment, &offline) {
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

/// `per_tenant` simulated reads from each `(species, genome, seed)`,
/// labelled with the species' tenant key and interleaved a, b, a, b, …
/// so every connection of a run carries both tenants.
pub(crate) fn interleave_tenants(
    tenants: [(Species, &ReferenceGenome, u64); 2],
    per_tenant: usize,
) -> Vec<TenantRead> {
    let [a, b] = tenants.map(|(species, genome, seed)| {
        let mut reads =
            loadgen::generate_reads(genome, ReadSimParams::illumina_101(), seed, per_tenant);
        for read in &mut reads {
            read.tenant = Some(species.key().to_string());
        }
        reads
    });
    a.into_iter().zip(b).flat_map(|(a, b)| [a, b]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_checks_hold() {
        check_routing(3).expect("routing laws hold");
    }

    #[test]
    fn registry_family_holds_on_a_small_run() {
        let summary = run_registry_family(11, 12).expect("registry family holds");
        assert!(summary.contains("bit-identical"), "{summary}");
    }
}
