//! Every call the benchmark makes into the repository's crates.
//!
//! Later changes to the program may not edit the benchmark, so the surface
//! it depends on is kept in this one file and restricted to public functions
//! of the crates. The workloads see only the plain types defined here. The
//! server itself is never linked in: it runs as the `nvwa serve` child
//! process and is spoken to over the wire (see `server.rs`, `loadgen.rs`).

use std::time::Instant;

use nvwa_align::chain::{chain_seeds, Chain, Seed};
use nvwa_align::gact::gact_extend;
use nvwa_align::kernel::{bitparallel_extend, bitparallel_global};
use nvwa_align::long_read::{LongReadAligner, LongReadAlignment, LongReadConfig, LongReadIndex};
use nvwa_align::myers::MyersScratch;
use nvwa_align::pipeline::{AlignmentOutcome, ReferenceIndex};
use nvwa_align::{AlignScratch, AlignerConfig, DpScratch, SoftwareAligner};
use nvwa_core::config::NvwaConfig;
use nvwa_core::experiments::fig11;
use nvwa_core::system::{simulate, simulate_instrumented, SimOptions, SimReport};
use nvwa_core::units::workload::{build_workload, ReadWork, SyntheticWorkloadParams};
use nvwa_genome::{fasta, Read, ReadSimParams, ReadSimulator, ReferenceGenome, ReferenceParams};
use nvwa_index::minimizer::{minimizers, MinimizerParams};
use nvwa_index::smem::collect_smems_into;
use nvwa_index::{NullTrace, Smem, SmemScratch, VecTrace};
use nvwa_serve::backend::execute_batch_with;
use nvwa_serve::batcher::{BatchItem, Batcher};
use nvwa_serve::protocol::{read_frame, write_frame};
use nvwa_serve::queue::{BoundedQueue, Popped};
use nvwa_serve::{AlignResponse, BackendKind, BatcherConfig, Mode, Request};
use nvwa_sim::{par, EventQueue};
use nvwa_telemetry::JsonValue;
use nvwa_testkit::invariants::check_sim_run;

// ---------------------------------------------------------------- genome

/// Suffix-array sampling rate `nvwa serve` builds its index with.
const SA_RATE: u32 = 32;

pub struct Genome(ReferenceGenome);

impl Genome {
    /// The one reference shape every workload uses: 4 chromosomes, the
    /// synthesizer's default repeat structure.
    pub fn synthesize(total_len: usize, seed: u64) -> Genome {
        let params = ReferenceParams {
            total_len,
            chromosomes: 4,
            ..ReferenceParams::default()
        };
        Genome(ReferenceGenome::synthesize(&params, seed))
    }

    pub fn fasta(&self) -> String {
        fasta::to_fasta(&self.0, 80)
    }

    fn codes(&self) -> &[u8] {
        self.0.flat().codes()
    }
}

/// A simulated read and where it came from.
pub struct SimRead {
    pub codes: Vec<u8>,
    /// Leftmost reference position of the read's origin.
    pub origin: u64,
    pub reverse: bool,
}

fn to_sim_reads(reads: Vec<Read>) -> Vec<SimRead> {
    reads
        .into_iter()
        .map(|r| SimRead {
            codes: r.seq.codes().to_vec(),
            origin: r.origin.flat_pos as u64,
            reverse: r.origin.strand == nvwa_genome::reads::Strand::Reverse,
        })
        .collect()
}

pub fn short_reads(genome: &Genome, count: usize, seed: u64) -> Vec<SimRead> {
    to_sim_reads(
        ReadSimulator::new(&genome.0, ReadSimParams::illumina_101(), seed).simulate_reads(count),
    )
}

pub fn long_reads(genome: &Genome, len: usize, count: usize, seed: u64) -> Vec<SimRead> {
    to_sim_reads(
        ReadSimulator::new(&genome.0, ReadSimParams::long_read(len), seed).simulate_reads(count),
    )
}

/// The answer fields a served response carries and the harness compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    pub pos: u64,
    pub is_rc: bool,
    pub score: i32,
    pub cigar: String,
}

// ------------------------------------------------------- short-read path

pub struct ShortIndex(ReferenceIndex);

impl ShortIndex {
    pub fn build(genome: &Genome) -> ShortIndex {
        ShortIndex(ReferenceIndex::build(&genome.0, SA_RATE))
    }

    pub fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

/// `SoftwareAligner::align_codes_fast` with one reused scratch.
pub struct ShortAligner<'i> {
    aligner: SoftwareAligner<'i>,
    scratch: AlignScratch,
}

pub struct ShortOutcome(AlignmentOutcome);

impl<'i> ShortAligner<'i> {
    pub fn new(index: &'i ShortIndex) -> ShortAligner<'i> {
        ShortAligner {
            aligner: SoftwareAligner::new(&index.0, AlignerConfig::default()),
            scratch: AlignScratch::new(),
        }
    }

    pub fn align(&mut self, id: u64, codes: &[u8]) -> ShortOutcome {
        ShortOutcome(self.aligner.align_codes_fast(id, codes, &mut self.scratch))
    }

    /// `(hits, lookups)` of the occ-block cache over this aligner's life.
    pub fn seed_cache_stats(&self) -> (u64, u64) {
        self.scratch.seed_cache_stats()
    }
}

impl ShortOutcome {
    /// Position, strand and score: what a trial keeps per read.
    pub fn key(&self) -> Option<(u64, bool, i32)> {
        self.0
            .alignment
            .as_ref()
            .map(|a| (a.flat_pos, a.is_rc, a.score))
    }

    pub fn placement(&self) -> Option<Placement> {
        self.0.alignment.as_ref().map(|a| Placement {
            pos: a.flat_pos,
            is_rc: a.is_rc,
            score: a.score,
            cigar: a.cigar.to_string(),
        })
    }

    pub fn dp_cells(&self) -> u64 {
        self.0.profile.dp_cells
    }
}

/// Replays the stages of `align_codes_fast` one public function at a time,
/// on the same read, with the aligner's default parameters.
pub struct ShortReplay<'i> {
    index: &'i ReferenceIndex,
    config: AlignerConfig,
    smem_scratch: SmemScratch,
    traced_scratch: SmemScratch,
    smems: Vec<Smem>,
    seeds: Vec<Seed>,
    rc: Vec<u8>,
    query: Vec<u8>,
    target: Vec<u8>,
    dp: DpScratch,
    myers: MyersScratch,
}

impl<'i> ShortReplay<'i> {
    pub fn new(index: &'i ShortIndex) -> ShortReplay<'i> {
        ShortReplay {
            index: &index.0,
            config: AlignerConfig::default(),
            smem_scratch: SmemScratch::new(),
            traced_scratch: SmemScratch::new(),
            smems: Vec::new(),
            seeds: Vec::new(),
            rc: Vec::new(),
            query: Vec::new(),
            target: Vec::new(),
            dp: DpScratch::default(),
            myers: MyersScratch::new(),
        }
    }

    /// `collect_smems_into` on the fast path (no trace: prefix LUT on).
    /// Returns the SMEM count.
    pub fn smem(&mut self, codes: &[u8]) -> usize {
        collect_smems_into(
            self.index.fmd(),
            codes,
            &self.config.smem,
            &mut self.smem_scratch,
            &mut self.smems,
            &mut NullTrace,
        );
        self.smems.len()
    }

    /// The same search on the hardware-trace path (`VecTrace`: LUT off), the
    /// one `build_workload` and the HIL backend run. Returns the number of
    /// index-block accesses it recorded.
    pub fn smem_traced(&mut self, codes: &[u8]) -> usize {
        let mut trace = VecTrace::default();
        let mut smems = Vec::new();
        collect_smems_into(
            self.index.fmd(),
            codes,
            &self.config.smem,
            &mut self.traced_scratch,
            &mut smems,
            &mut trace,
        );
        trace.0.len()
    }

    /// `SampledSa::locate` + `FmdIndex::resolve_hit` over the SMEMs of the
    /// last [`ShortReplay::smem`], under the aligner's occurrence caps.
    /// Returns the number of located hits.
    pub fn locate(&mut self, read_len: usize) -> usize {
        self.seeds.clear();
        let fmd = self.index.fmd();
        for smem in &self.smems {
            if smem.occ() > self.config.max_smem_occ {
                continue;
            }
            let take = (smem.occ() as usize).min(self.config.max_hits_per_smem);
            for i in 0..take {
                let rank = smem.interval.k + i as u64;
                let pos = self
                    .index
                    .sampled_sa()
                    .locate(fmd.fm(), rank, &mut NullTrace);
                let Some(hit) = fmd.resolve_hit(pos as usize, smem.len()) else {
                    continue;
                };
                let (query_start, query_end) = if hit.is_rc {
                    (read_len - smem.query_end, read_len - smem.query_start)
                } else {
                    (smem.query_start, smem.query_end)
                };
                self.seeds.push(Seed {
                    query_start,
                    query_end,
                    ref_pos: hit.pos as u64,
                    is_rc: hit.is_rc,
                });
            }
        }
        self.seeds.len()
    }

    /// `chain_seeds` over the seeds of the last [`ShortReplay::locate`].
    pub fn chain(&mut self) -> usize {
        std::hint::black_box(chain_seeds(&self.seeds, &self.config.chain)).len()
    }

    /// Replays every extension task the whole-pipeline call recorded through
    /// the kernel the aligner's policy picks for this read length. Returns
    /// the task count.
    pub fn extend(&mut self, codes: &[u8], outcome: &ShortOutcome) -> usize {
        let tasks = &outcome.0.profile.hit_tasks;
        if tasks.is_empty() {
            return 0;
        }
        let flat = self.index.flat();
        let scoring = &self.config.scoring;
        let band = self.config.band.max(1);
        let bitparallel = self.config.kernel.use_bitparallel(codes.len());
        self.rc.clear();
        self.rc.extend(codes.iter().rev().map(|&c| 3 - c));
        for task in tasks {
            let oriented: &[u8] = if task.is_rc { &self.rc } else { codes };
            let (qs, qe) = (task.read_pos.0 as usize, task.read_pos.1 as usize);
            let window =
                &flat[task.ref_pos as usize..task.ref_pos as usize + task.ref_len as usize];
            // A task starting at the read's first base is the left flank
            // (extended leftwards, so both sequences are reversed); one ending
            // at its last base is the right flank; the rest glue two seeds.
            let result = if qs == 0 {
                self.query.clear();
                self.query.extend(oriented[..qe].iter().rev());
                self.target.clear();
                self.target.extend(window.iter().rev());
                if bitparallel {
                    bitparallel_extend(
                        &self.query,
                        &self.target,
                        scoring,
                        band,
                        &mut self.myers,
                        &mut self.dp,
                    )
                } else {
                    nvwa_align::banded::banded_extend_with(
                        &self.query,
                        &self.target,
                        scoring,
                        band,
                        &mut self.dp,
                    )
                }
            } else if qe == codes.len() {
                if bitparallel {
                    bitparallel_extend(
                        &oriented[qs..],
                        window,
                        scoring,
                        band,
                        &mut self.myers,
                        &mut self.dp,
                    )
                } else {
                    nvwa_align::banded::banded_extend_with(
                        &oriented[qs..],
                        window,
                        scoring,
                        band,
                        &mut self.dp,
                    )
                }
            } else if bitparallel {
                bitparallel_global(
                    &oriented[qs..qe],
                    window,
                    scoring,
                    &mut self.myers,
                    &mut self.dp,
                )
            } else {
                nvwa_align::sw::global_align_with(&oriented[qs..qe], window, scoring, &mut self.dp)
            };
            std::hint::black_box(result);
        }
        tasks.len()
    }
}

// -------------------------------------------------------- long-read path

pub struct LongIndex(LongReadIndex);

impl LongIndex {
    /// The minimizer index `nvwa serve` builds beside the FMD-index.
    pub fn build(genome: &Genome) -> LongIndex {
        LongIndex(LongReadIndex::build(
            genome.codes().to_vec(),
            MinimizerParams::default(),
        ))
    }
}

pub struct LongAligner<'i>(LongReadAligner<'i>);

pub struct LongOutcome(LongReadAlignment);

impl<'i> LongAligner<'i> {
    pub fn new(index: &'i LongIndex) -> LongAligner<'i> {
        LongAligner(LongReadAligner::new(&index.0, LongReadConfig::default()))
    }

    pub fn align(&self, codes: &[u8]) -> Option<LongOutcome> {
        self.0.align(codes).map(LongOutcome)
    }
}

impl LongOutcome {
    pub fn key(&self) -> (u64, bool, i32) {
        (self.0.ref_pos, self.0.is_rc, self.0.score)
    }

    pub fn placement(&self) -> Placement {
        Placement {
            pos: self.0.ref_pos,
            is_rc: self.0.is_rc,
            score: self.0.score,
            cigar: self.0.cigar.to_string(),
        }
    }

    pub fn tiles(&self) -> u64 {
        self.0.gact.tiles
    }

    pub fn dp_cells(&self) -> u64 {
        self.0.gact.dp_cells
    }
}

/// Replays the stages of `LongReadAligner::align` one public function at a
/// time, with `LongReadConfig::default()`.
pub struct LongReplay<'i> {
    index: &'i LongReadIndex,
    config: LongReadConfig,
    rc: Vec<u8>,
    seeds: Vec<Seed>,
    chains: Vec<Chain>,
}

impl<'i> LongReplay<'i> {
    pub fn new(index: &'i LongIndex) -> LongReplay<'i> {
        LongReplay {
            index: &index.0,
            config: LongReadConfig::default(),
            rc: Vec::new(),
            seeds: Vec::new(),
            chains: Vec::new(),
        }
    }

    /// `minimizers` + `MinimizerIndex::lookup` on both strands. Returns the
    /// seed count.
    pub fn minimizer(&mut self, codes: &[u8]) -> usize {
        let k = self.config.minimizer.k;
        self.rc.clear();
        self.rc.extend(codes.iter().rev().map(|&c| 3 - c));
        self.seeds.clear();
        for (strand, is_rc) in [(codes, false), (self.rc.as_slice(), true)] {
            for m in minimizers(strand, &self.config.minimizer) {
                let hits = self.index.minimizers().lookup(m.hash, &mut NullTrace);
                if hits.is_empty() || hits.len() > self.config.max_occ {
                    continue;
                }
                self.seeds.extend(hits.iter().map(|&pos| Seed {
                    query_start: m.pos as usize,
                    query_end: m.pos as usize + k,
                    ref_pos: pos as u64,
                    is_rc,
                }));
            }
        }
        self.seeds.len()
    }

    /// `chain_seeds` with the long-read gap limits.
    pub fn chain(&mut self) -> usize {
        self.chains = chain_seeds(&self.seeds, &self.config.chain);
        self.chains.len()
    }

    /// `gact_extend` over the best chain's body and both flanks, as the
    /// aligner fills them. Returns `(tiles, dp_cells)`.
    pub fn gact(&mut self, codes: &[u8]) -> (u64, u64) {
        let Some(chain) = self.chains.first() else {
            return (0, 0);
        };
        let oriented: &[u8] = if chain.is_rc { &self.rc } else { codes };
        let reference = self.index.reference();
        let (qs, qe) = chain.query_span();
        let (rs, re) = chain.ref_span();
        let (rs, re) = (rs as usize, (re as usize).min(reference.len()));
        let half_tile = self.config.gact.tile_size / 2;
        let (scoring, gact) = (&self.config.scoring, &self.config.gact);

        let left_q: Vec<u8> = oriented[..qs].iter().rev().copied().collect();
        let left_t: Vec<u8> = reference[rs.saturating_sub(qs + half_tile)..rs]
            .iter()
            .rev()
            .copied()
            .collect();
        let (_, left) = gact_extend(&left_q, &left_t, scoring, gact);
        let (body, mid) = gact_extend(&oriented[qs..qe], &reference[rs..re], scoring, gact);
        let right_q = &oriented[(qs + body.query_len).min(oriented.len())..];
        let anchor = (rs + body.target_len).min(reference.len());
        let right_t = &reference[anchor..(anchor + right_q.len() + half_tile).min(reference.len())];
        let (_, right) = gact_extend(right_q, right_t, scoring, gact);
        (
            left.tiles + mid.tiles + right.tiles,
            left.dp_cells + mid.dp_cells + right.dp_cells,
        )
    }
}

// ------------------------------------------------------------------ wire

/// One request frame (length prefix + JSON), as a client would send it.
pub fn request_frame(id: u64, codes: &[u8], long: bool) -> Vec<u8> {
    let request = Request::Align {
        id,
        codes: codes.to_vec(),
        deadline_ms: None,
        tenant: None,
        region: None,
        mode: if long { Mode::Long } else { Mode::Short },
    };
    frame_of(&request.encode())
}

pub fn stats_frame() -> Vec<u8> {
    frame_of(&Request::Stats.encode())
}

fn frame_of(doc: &JsonValue) -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, doc).expect("writing to a Vec cannot fail");
    frame
}

/// A fully decoded align response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Served {
    pub id: u64,
    /// The wire status string (`ok`, `unmapped`, `shed`, ...).
    pub status: &'static str,
    pub placement: Option<Placement>,
    pub batch_size: Option<u64>,
}

/// Decodes a response body (the frame without its length prefix).
pub fn decode_response(body: &[u8]) -> Result<Served, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let response = AlignResponse::decode(&JsonValue::parse(text)?)?;
    Ok(Served {
        id: response.id,
        status: response.status.as_str(),
        placement: response.alignment.map(|a| Placement {
            pos: a.pos,
            is_rc: a.is_rc,
            score: a.score,
            cigar: a.cigar,
        }),
        batch_size: response.batch_size,
    })
}

/// A parsed JSON document (the server's `stats` reply, `BENCHMARK.json`).
pub struct Json(JsonValue);

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        JsonValue::parse(text).map(Json)
    }

    fn walk(&self, path: &[&str]) -> Option<&JsonValue> {
        path.iter().try_fold(&self.0, |doc, key| doc.get(key))
    }

    /// The number at `path`, `None` when any key is absent.
    pub fn num(&self, path: &[&str]) -> Option<f64> {
        self.walk(path).and_then(JsonValue::as_num)
    }

    /// The string at `path`.
    pub fn text(&self, path: &[&str]) -> Option<&str> {
        self.walk(path).and_then(JsonValue::as_str)
    }

    /// Whether the value at `path` is `true`.
    pub fn is_true(&self, path: &[&str]) -> bool {
        matches!(self.walk(path), Some(JsonValue::Bool(true)))
    }

    /// The `key` number of every object in the array at `path`.
    pub fn numbers_in_array(&self, path: &[&str], key: &str) -> Vec<f64> {
        self.walk(path)
            .and_then(JsonValue::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|item| item.get(key).and_then(JsonValue::as_num))
            .collect()
    }

    /// The `key` string of every object in the array at `path`.
    pub fn strings_in_array(&self, path: &[&str], key: &str) -> Vec<String> {
        self.walk(path)
            .and_then(JsonValue::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|item| item.get(key).and_then(JsonValue::as_str))
            .map(str::to_string)
            .collect()
    }
}

// ------------------------------------------------- serve stages, in-process

/// A request after the decode stage.
pub struct Decoded {
    pub id: u64,
    pub codes: Vec<u8>,
    pub long: bool,
}

/// A request after the execute stage.
pub struct Executed {
    id: u64,
    answer: Answer,
}

/// What the backend produced; `None` is an unmapped read.
enum Answer {
    Short(Option<nvwa_align::Alignment>),
    /// Placement and the worker's mapq proxy (chained anchors, capped at 60).
    Long(Option<(Placement, u8)>),
}

impl Executed {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// `JsonValue::parse` alone on a frame's body (child of the decode stage).
pub fn stage_json_parse(frame: &[u8]) {
    let text = std::str::from_utf8(&frame[4..]).expect("request frames are UTF-8");
    std::hint::black_box(JsonValue::parse(text).expect("request frames are JSON"));
}

/// The decode stage: `read_frame` over the in-memory frame + `Request::decode`.
pub fn stage_decode(frame: &[u8]) -> Decoded {
    let doc = read_frame(&mut &frame[..])
        .expect("request frames are well-formed")
        .expect("one frame");
    match Request::decode(&doc).expect("request frames decode") {
        Request::Align {
            id, codes, mode, ..
        } => Decoded {
            id,
            codes,
            long: mode == Mode::Long,
        },
        other => panic!("not an align request: {other:?}"),
    }
}

/// The server's stages between decode and encode, driven in-process through
/// the serve crate's public types: admission queue, batcher, batch backend.
pub struct Stages<'i> {
    queue: BoundedQueue<Decoded>,
    batcher: Batcher<Decoded>,
    index: &'i ReferenceIndex,
    long: Option<LongAligner<'i>>,
    scratch: AlignScratch,
}

impl<'i> Stages<'i> {
    /// `max_batch` is the batch size the live server was observed to form,
    /// so the backend stage runs batches of that size.
    pub fn new(index: &'i ShortIndex, long: Option<&'i LongIndex>, max_batch: usize) -> Stages<'i> {
        let mut config = BatcherConfig {
            max_batch: max_batch.max(1),
            long_max_batch: 1,
            ..BatcherConfig::default()
        };
        config.ensure_mode_bins();
        Stages {
            queue: BoundedQueue::new(1024),
            batcher: Batcher::new(config),
            index: &index.0,
            long: long.map(LongAligner::new),
            scratch: AlignScratch::new(),
        }
    }

    /// The queue stage: `try_push` + `pop_wait`, uncontended.
    pub fn queue(&self, request: Decoded) -> Decoded {
        if self.queue.try_push(request).is_err() {
            panic!("an empty queue accepts a push");
        }
        match self.queue.pop_wait(None) {
            Popped::Item(request) => request,
            _ => panic!("the pushed item pops"),
        }
    }

    /// The batcher stage: `Batcher::offer`; a batch comes back when the
    /// request fills its bin.
    pub fn offer(&mut self, request: Decoded, now: Instant) -> Option<Vec<Decoded>> {
        let item = BatchItem {
            len: request.codes.len(),
            mode: if request.long {
                Mode::Long
            } else {
                Mode::Short
            },
            admitted_at: now,
            deadline: None,
            payload: request,
        };
        self.batcher
            .offer(item, now)
            .map(|batch| batch.items.into_iter().map(|i| i.payload).collect())
    }

    /// Flushes what the last offers left behind (`Batcher::drain`).
    pub fn drain(&mut self, now: Instant) -> Vec<Vec<Decoded>> {
        self.batcher
            .drain(now)
            .into_iter()
            .map(|batch| batch.items.into_iter().map(|i| i.payload).collect())
            .collect()
    }

    /// The backend stage: `execute_batch_with` for a short batch, the
    /// long-read aligner per read for a long one (as the server's worker does).
    pub fn execute(&mut self, batch: Vec<Decoded>) -> Vec<Executed> {
        if batch.first().is_some_and(|r| r.long) {
            let aligner = self
                .long
                .as_ref()
                .expect("long requests need the long index");
            return batch
                .iter()
                .map(|r| Executed {
                    id: r.id,
                    answer: Answer::Long(
                        aligner
                            .align(&r.codes)
                            .map(|a| (a.placement(), a.0.anchors.min(60) as u8)),
                    ),
                })
                .collect();
        }
        let items: Vec<(u64, Vec<u8>)> = batch.into_iter().map(|r| (r.id, r.codes)).collect();
        execute_batch_with(
            self.index,
            &AlignerConfig::default(),
            &BackendKind::Software,
            &items,
            &mut self.scratch,
        )
        .results
        .into_iter()
        .map(|(id, alignment)| Executed {
            id,
            answer: Answer::Short(alignment),
        })
        .collect()
    }
}

fn response_of(done: &Executed, batch_size: u64) -> AlignResponse {
    match &done.answer {
        Answer::Short(alignment) => AlignResponse::ok(done.id, alignment.as_ref(), batch_size),
        Answer::Long(None) => AlignResponse::unmapped(done.id, batch_size),
        Answer::Long(Some((p, mapq))) => AlignResponse::ok_wire(
            done.id,
            nvwa_serve::protocol::WireAlignment {
                pos: p.pos,
                is_rc: p.is_rc,
                score: p.score,
                cigar: p.cigar.clone(),
                mapq: *mapq,
            },
            batch_size,
        ),
    }
}

/// `to_string_compact` alone on the response document (child of encode).
pub fn stage_json_write(done: &Executed, batch_size: u64) {
    std::hint::black_box(response_of(done, batch_size).encode().to_string_compact());
}

/// The encode stage: `AlignResponse::ok` (or its long-read forms) + `encode`
/// + `write_frame` into `out` (cleared first).
pub fn stage_encode(done: &Executed, batch_size: u64, out: &mut Vec<u8>) {
    out.clear();
    write_frame(out, &response_of(done, batch_size).encode())
        .expect("writing to a Vec cannot fail");
}

// ------------------------------------------------------------- simulator

pub struct SimWorkload(Vec<ReadWork>);

impl SimWorkload {
    /// The calibrated synthetic workload (`SyntheticWorkloadParams` defaults).
    pub fn synthetic(reads: usize, seed: u64) -> SimWorkload {
        SimWorkload(
            SyntheticWorkloadParams {
                reads,
                ..SyntheticWorkloadParams::default()
            }
            .generate(seed),
        )
    }

    /// The execution-driven workload: `build_workload` over simulated reads,
    /// on one thread.
    pub fn execution_driven(
        index: &ShortIndex,
        genome: &Genome,
        reads: usize,
        seed: u64,
    ) -> SimWorkload {
        let reads = ReadSimulator::new(&genome.0, ReadSimParams::illumina_101(), seed)
            .simulate_reads(reads);
        let aligner = SoftwareAligner::new(&index.0, AlignerConfig::default());
        SimWorkload(par::with_threads(1, || build_workload(&aligner, &reads)))
    }

    pub fn reads(&self) -> usize {
        self.0.len()
    }

    pub fn accesses(&self) -> usize {
        self.0.iter().map(|w| w.seeding_accesses.len()).sum()
    }

    pub fn hits(&self) -> usize {
        self.0.iter().map(|w| w.hits.len()).sum()
    }
}

/// One bar of the Fig. 11 ablation.
pub struct Variant {
    /// The figure's label (`SUs+EUs`, `+OCRA`, `+OCRA+HUS`, `NvWa`).
    pub label: &'static str,
    config: NvwaConfig,
}

/// `fig11::ablation_variants()` on the paper's Table I configuration, in
/// presentation order: baseline first, full NvWa last.
pub fn ablation_variants() -> Vec<Variant> {
    fig11::ablation_variants()
        .into_iter()
        .map(|(label, scheduling)| Variant {
            label,
            config: NvwaConfig {
                scheduling,
                ..NvwaConfig::paper()
            },
        })
        .collect()
}

/// The simulated statistics of one run; equal iff the reports are equal.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats(SimReport);

pub fn simulate_variant(variant: &Variant, works: &SimWorkload) -> SimStats {
    SimStats(par::with_threads(1, || simulate(&variant.config, &works.0)))
}

/// Runs the variant instrumented and checks every simulator invariant.
pub fn invariant_violations(variant: &Variant, works: &SimWorkload) -> Vec<String> {
    let run = par::with_threads(1, || {
        simulate_instrumented(&variant.config, &works.0, &SimOptions::default())
    });
    check_sim_run(&run, &variant.config)
}

impl SimStats {
    /// Simulated throughput at 1 GHz, K reads/s.
    pub fn kreads_per_s(&self) -> f64 {
        self.0.kreads_per_sec().unwrap_or(0.0)
    }

    pub fn total_cycles(&self) -> u64 {
        self.0.total_cycles
    }

    /// `(metric suffix, value)` of the scheduler statistics the benchmark
    /// tracks, all simulated and exact.
    pub fn scheduler_stats(&self) -> [(&'static str, f64); 9] {
        let r = &self.0;
        [
            ("su_utilization", r.su_utilization),
            ("eu_utilization", r.eu_utilization),
            ("su_stall_events", r.su_stall_events as f64),
            ("fragmented_hits", r.fragmented_hits as f64),
            ("buffer_switches", r.buffer_switches as f64),
            ("alloc_rounds", r.alloc_rounds as f64),
            ("hbm_requests", r.hbm_requests as f64),
            ("su_cache_hit_rate", r.su_cache_hit_rate),
            ("correct_allocation", r.overall_correct_allocation()),
        ]
    }
}

/// Pushes `events` events spread over `events / 4` cycles, then pops them
/// all (`EventQueue::push` / `pop`). Returns the number popped.
pub fn event_queue_round(events: u64) -> u64 {
    let mut queue = EventQueue::new();
    for i in 0..events {
        // A multiplicative scramble: arrival order differs from cycle order.
        queue.push(i.wrapping_mul(0x9E37_79B9) % (events / 4).max(1), i);
    }
    let mut popped = 0;
    while let Some(event) = queue.pop() {
        std::hint::black_box(event);
        popped += 1;
    }
    popped
}
