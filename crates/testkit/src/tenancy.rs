//! The `registry` (multi-tenant serving) conformance family (DESIGN.md §14):
//! deterministic shard routing, a two-tenant serve run whose responses are
//! bit-identical to per-species offline aligners, per-tenant conservation
//! identities over the wire, and unknown-tenant rejection.

use nvwa_align::pipeline::{AlignScratch, AlignerConfig, ReferenceIndex, SoftwareAligner};
use nvwa_genome::species::Species;
use nvwa_genome::{ReadSimParams, ReferenceGenome};
use nvwa_serve::loadgen::{self, LoadgenConfig, TenantRead};
use nvwa_serve::protocol::WireAlignment;
use nvwa_serve::registry::{region_hash, route_shard};
use nvwa_serve::{Server, ServerConfig, Tenant};
use nvwa_telemetry::JsonValue;

use crate::faults::{closed_loop, exactly_once, framed, play, short_align, with_field, Owed};
use crate::Prng;

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
    let total = &report.total;
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
    for ((species, genome), offset) in genomes.iter().zip(0u64..) {
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
            if resp.alignment != offline.as_ref().map(WireAlignment::from_alignment) {
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
