//! The wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message is a 4-byte big-endian length followed by that many bytes
//! of UTF-8 JSON (one [`JsonValue`] document). The framing is symmetric —
//! requests and responses use the same encoding — and deliberately boring:
//! no external serialization crates (DESIGN.md §7), and any JSON client in
//! any language can speak it with ~10 lines of code.
//!
//! Requests (`kind` selects the operation, defaulting to `"align"`):
//!
//! ```json
//! {"kind": "align", "id": 7, "seq": "ACGTACGT...", "deadline_ms": 50,
//!  "tenant": "homo_sapiens", "region": 123456, "mode": "long"}
//! {"kind": "stats"}
//! {"kind": "flight"}
//! {"kind": "shutdown"}
//! ```
//!
//! `tenant` names the reference to align against on a multi-tenant server
//! (absent → the server's default tenant, so pre-tenant clients keep
//! working). `region` is an optional genome-coordinate routing hint; the
//! server hashes it (or, absent, the read itself) to pick a shard —
//! deterministic either way. `mode` selects the processing pipeline
//! (absent → `"short"`, so pre-mode clients keep working):
//!
//! * `"short"` — the seed-and-extend short-read aligner (bit-identical to
//!   offline `nvwa-align`).
//! * `"long"` — the minimizer-seed → chain → GACT-tile long-read
//!   pipeline; a read the chainer cannot place answers with status
//!   `"unmapped"` instead of `ok` + `mapped: false`.
//! * `"classify"` — metagenomic screening: the read's minimizers (both
//!   orientations — the minimizer hash is strand-sensitive) are looked
//!   up in *every* tenant's index and the response carries a per-tenant
//!   hit-score table instead of an alignment.
//!
//! Align responses carry a `status` of `"ok"` (aligned; `mapped` tells
//! whether a best alignment exists), `"unmapped"` (long-read mode only:
//! the read was processed but no chain placed it), `"shed"` (admission
//! queue full or server draining — explicit backpressure, the request was
//! *not* processed), `"quota"` (the tenant's admission quota is exhausted
//! — a per-tenant shed, distinct so clients can tell global overload from
//! their own), `"deadline"` (expired before a batch formed) or `"error"`
//! (malformed request). Alignment fields are bit-identical to the offline
//! `nvwa-align` output for the same sequence. Classify responses carry a
//! `classify` object instead of alignment fields:
//!
//! ```json
//! {"id": 7, "status": "ok", "mapped": false,
//!  "classify": {"partial": false,
//!               "tenants": [{"tenant": "homo_sapiens", "hits": 37,
//!                            "minimizers": 41}],
//!               "missing": []}}
//! ```
//!
//! `tenants` always lists every tenant that was actually screened;
//! `missing` names tenants that could *not* be screened (every shard
//! dead), and `partial` is true iff `missing` is non-empty — a shard
//! failure mid-classify is reported explicitly, never as a silently
//! shorter score table.

use std::io::{Read, Write};

use nvwa_align::pipeline::Alignment;
use nvwa_telemetry::JsonValue;

/// Frames larger than this are rejected (protects the server from a
/// garbage length prefix allocating gigabytes).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Writes one length-prefixed JSON frame.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, doc: &JsonValue) -> std::io::Result<()> {
    let body = doc.to_string_compact();
    let len = body.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

/// Reads one length-prefixed JSON frame. Returns `Ok(None)` on a clean EOF
/// at a frame boundary.
///
/// # Errors
///
/// Propagates I/O errors (including timeouts), and returns
/// `InvalidData` for oversized frames or malformed JSON.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<JsonValue>> {
    let mut len_buf = [0u8; 4];
    // EOF before any length byte is a clean close; EOF mid-frame is an error.
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len_buf[n..])?,
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let doc = JsonValue::parse(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(Some(doc))
}

/// The largest integer a JSON number (an `f64`) carries exactly, 2^53 —
/// the bound on every integer request field.
const MAX_WIRE_INT: f64 = 9_007_199_254_740_992.0;

/// An integer request field: `None` when absent; when present it must be
/// an integer in `0..=2^53` (negative, fractional, huge and non-numeric
/// values are the client's error, not a value to clamp or ignore).
fn wire_uint(doc: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    let Some(v) = doc.get(key) else {
        return Ok(None);
    };
    v.as_num()
        .filter(|n| (0.0..=MAX_WIRE_INT).contains(n) && n.fract() == 0.0)
        .map(|n| Some(n as u64))
        .ok_or_else(|| format!("\"{key}\" must be an integer in 0..=2^53"))
}

/// A string request field: `None` when absent; when present it must be
/// a non-empty string.
fn wire_str<'a>(doc: &'a JsonValue, key: &str) -> Result<Option<&'a str>, String> {
    let Some(v) = doc.get(key) else {
        return Ok(None);
    };
    v.as_str()
        .filter(|s| !s.is_empty())
        .map(Some)
        .ok_or_else(|| format!("\"{key}\" must be a non-empty string"))
}

/// The processing pipeline a request asks for. The wire default is
/// [`Mode::Short`], so documents from pre-mode clients decode unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Seed-and-extend short-read alignment (the original request type).
    Short,
    /// Minimizer-seed → chain → GACT-tile long-read alignment.
    Long,
    /// Metagenomic classification: screen the read's minimizers across
    /// every tenant index and return per-tenant hit scores.
    Classify,
}

impl Mode {
    /// The wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Short => "short",
            Mode::Long => "long",
            Mode::Classify => "classify",
        }
    }

    /// Parses the wire string.
    pub fn from_wire(s: &str) -> Option<Mode> {
        Some(match s {
            "short" => Mode::Short,
            "long" => Mode::Long,
            "classify" => Mode::Classify,
            _ => return None,
        })
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Align one read.
    Align {
        /// Client-chosen request id, echoed in the response.
        id: u64,
        /// 2-bit base codes decoded from the `seq` string.
        codes: Vec<u8>,
        /// Per-request deadline in milliseconds (queueing budget), if any.
        deadline_ms: Option<u64>,
        /// Tenant (reference) to align against; `None` → server default.
        tenant: Option<String>,
        /// Genome-coordinate shard-routing hint, if the client has one.
        region: Option<u64>,
        /// Processing pipeline (absent on the wire → [`Mode::Short`]).
        mode: Mode,
    },
    /// Return the server's current metrics snapshot.
    Stats,
    /// Dump the flight recorder's recent-event ring.
    Flight,
    /// Begin a graceful drain and exit.
    Shutdown,
}

impl Request {
    /// Decodes a request document.
    ///
    /// # Errors
    ///
    /// Returns a client-facing message naming the violated constraint.
    pub fn decode(doc: &JsonValue) -> Result<Request, String> {
        // A field that is present must be well-typed: a malformed value is
        // the client's bug to hear about, never a silent default.
        match wire_str(doc, "kind")?.unwrap_or("align") {
            "align" => {
                let id = wire_uint(doc, "id")?.ok_or("align request needs an \"id\"")?;
                let seq = wire_str(doc, "seq")?.ok_or("align request needs a \"seq\"")?;
                let codes = seq
                    .parse::<nvwa_genome::DnaSeq>()
                    .map_err(|e| e.to_string())?
                    .codes()
                    .to_vec();
                let mode = match wire_str(doc, "mode")? {
                    None => Mode::Short,
                    Some(m) => Mode::from_wire(m)
                        .ok_or("\"mode\" must be \"short\", \"long\" or \"classify\"")?,
                };
                Ok(Request::Align {
                    id,
                    codes,
                    deadline_ms: wire_uint(doc, "deadline_ms")?,
                    tenant: wire_str(doc, "tenant")?.map(str::to_string),
                    region: wire_uint(doc, "region")?,
                    mode,
                })
            }
            "stats" => Ok(Request::Stats),
            "flight" => Ok(Request::Flight),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request kind {other:?}")),
        }
    }

    /// Encodes the request (the client side of [`Request::decode`]).
    pub fn encode(&self) -> JsonValue {
        match self {
            Request::Align {
                id,
                codes,
                deadline_ms,
                tenant,
                region,
                mode,
            } => {
                let seq: String = codes
                    .iter()
                    .map(|&c| nvwa_genome::Base::from_code(c).map_or('N', |b| b.to_char()))
                    .collect();
                let mut pairs = vec![
                    ("kind", JsonValue::Str("align".to_string())),
                    ("id", JsonValue::Num(*id as f64)),
                    ("seq", JsonValue::Str(seq)),
                ];
                if let Some(ms) = deadline_ms {
                    pairs.push(("deadline_ms", JsonValue::Num(*ms as f64)));
                }
                if let Some(t) = tenant {
                    pairs.push(("tenant", JsonValue::Str(t.clone())));
                }
                if let Some(r) = region {
                    pairs.push(("region", JsonValue::Num(*r as f64)));
                }
                // `short` is the wire default: omitting it keeps encoded
                // short-read requests byte-identical to pre-mode clients.
                if *mode != Mode::Short {
                    pairs.push(("mode", JsonValue::Str(mode.as_str().to_string())));
                }
                JsonValue::obj(pairs)
            }
            Request::Stats => JsonValue::obj(vec![("kind", JsonValue::Str("stats".to_string()))]),
            Request::Flight => JsonValue::obj(vec![("kind", JsonValue::Str("flight".to_string()))]),
            Request::Shutdown => {
                JsonValue::obj(vec![("kind", JsonValue::Str("shutdown".to_string()))])
            }
        }
    }
}

/// Terminal status of an align request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Processed; `mapped` distinguishes aligned from unmapped reads.
    Ok,
    /// Long-read mode: the read was fully processed but no seed chain
    /// placed it anywhere on the reference. Unlike `shed`/`deadline`,
    /// the work *was* done — this is a result, not a rejection.
    Unmapped,
    /// Rejected by backpressure (queue full or draining); not processed.
    Shed,
    /// Rejected because the tenant's admission quota is exhausted; not
    /// processed. A per-tenant shed, kept distinct so one tenant's
    /// overload is visible as such to its own clients.
    Quota,
    /// Deadline expired while queued; not processed.
    Deadline,
    /// Malformed request.
    Error,
}

impl Status {
    /// The wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Unmapped => "unmapped",
            Status::Shed => "shed",
            Status::Quota => "quota",
            Status::Deadline => "deadline",
            Status::Error => "error",
        }
    }

    /// Parses the wire string.
    pub fn from_wire(s: &str) -> Option<Status> {
        Some(match s {
            "ok" => Status::Ok,
            "unmapped" => Status::Unmapped,
            "shed" => Status::Shed,
            "quota" => Status::Quota,
            "deadline" => Status::Deadline,
            "error" => Status::Error,
            _ => return None,
        })
    }
}

/// A decoded align response.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Terminal status.
    pub status: Status,
    /// Human-readable detail for non-`ok` statuses.
    pub error: Option<String>,
    /// Alignment (for `ok` + mapped), bit-identical to the offline aligner.
    pub alignment: Option<WireAlignment>,
    /// Size of the batch this request executed in (`ok` only).
    pub batch_size: Option<u64>,
    /// Simulated accelerator cycles for the batch (hardware-in-the-loop
    /// backend only).
    pub sim_cycles: Option<u64>,
    /// Per-tenant classification scores (classify mode only).
    pub classify: Option<ClassifyResult>,
}

/// The score table a classify-mode request returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifyResult {
    /// One entry per tenant that was actually screened, in the server's
    /// tenant order — deterministic across runs.
    pub tenants: Vec<TenantScore>,
    /// Tenants that could not be screened (every shard dead). Present so
    /// a shard failure mid-classify is an explicit partial result, never
    /// a silently shorter `tenants` table.
    pub missing: Vec<String>,
    /// True iff `missing` is non-empty.
    pub partial: bool,
}

/// One tenant's hit score: how many of the read's minimizers occur in
/// that tenant's reference index. The read is sampled in both
/// orientations (the minimizer hash is strand-sensitive), so both counts
/// cover forward plus reverse-complement. Both ride the wire so clients
/// can normalize however they like without floating-point round trips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantScore {
    /// Tenant name.
    pub tenant: String,
    /// Read minimizers (either orientation) with at least one hit in
    /// this tenant's index.
    pub hits: u64,
    /// Total minimizers sampled from both orientations of the read.
    pub minimizers: u64,
}

impl ClassifyResult {
    fn encode(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("partial", JsonValue::Bool(self.partial)),
            (
                "tenants",
                JsonValue::Arr(
                    self.tenants
                        .iter()
                        .map(|t| {
                            JsonValue::obj(vec![
                                ("tenant", JsonValue::Str(t.tenant.clone())),
                                ("hits", JsonValue::Num(t.hits as f64)),
                                ("minimizers", JsonValue::Num(t.minimizers as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "missing",
                JsonValue::Arr(
                    self.missing
                        .iter()
                        .map(|m| JsonValue::Str(m.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    fn decode(doc: &JsonValue) -> Result<ClassifyResult, String> {
        let tenants = match doc.get("tenants") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|t| {
                    Ok(TenantScore {
                        tenant: t
                            .get("tenant")
                            .and_then(JsonValue::as_str)
                            .ok_or("classify tenant entry missing \"tenant\"")?
                            .to_string(),
                        hits: t
                            .get("hits")
                            .and_then(JsonValue::as_num)
                            .filter(|n| *n >= 0.0)
                            .ok_or("classify tenant entry missing \"hits\"")?
                            as u64,
                        minimizers: t
                            .get("minimizers")
                            .and_then(JsonValue::as_num)
                            .filter(|n| *n >= 0.0)
                            .ok_or("classify tenant entry missing \"minimizers\"")?
                            as u64,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("\"classify\" needs a \"tenants\" array".to_string()),
        };
        let missing = match doc.get("missing") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|m| {
                    m.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "classify \"missing\" entries must be strings".to_string())
                })
                .collect::<Result<Vec<_>, String>>()?,
            None => Vec::new(),
            _ => return Err("\"missing\" must be an array".to_string()),
        };
        let partial = matches!(doc.get("partial"), Some(JsonValue::Bool(true)));
        Ok(ClassifyResult {
            tenants,
            missing,
            partial,
        })
    }
}

/// The alignment fields carried on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireAlignment {
    /// Leftmost reference position (flat coordinates).
    pub pos: u64,
    /// Strand.
    pub is_rc: bool,
    /// Alignment score.
    pub score: i32,
    /// CIGAR string.
    pub cigar: String,
    /// Mapping quality (0–60).
    pub mapq: u8,
}

impl WireAlignment {
    /// Projects an [`Alignment`] onto the wire fields.
    pub fn from_alignment(a: &Alignment) -> WireAlignment {
        WireAlignment {
            pos: a.flat_pos,
            is_rc: a.is_rc,
            score: a.score,
            cigar: a.cigar.to_string(),
            mapq: a.mapq,
        }
    }
}

impl AlignResponse {
    /// A response to a request that was executed (`ok` / `unmapped`).
    fn completed(
        id: u64,
        status: Status,
        alignment: Option<WireAlignment>,
        classify: Option<ClassifyResult>,
        batch_size: u64,
    ) -> AlignResponse {
        AlignResponse {
            id,
            status,
            error: None,
            alignment,
            batch_size: Some(batch_size),
            sim_cycles: None,
            classify,
        }
    }

    /// An `ok` response from an optional alignment.
    pub fn ok(id: u64, alignment: Option<&Alignment>, batch_size: u64) -> AlignResponse {
        let alignment = alignment.map(WireAlignment::from_alignment);
        Self::completed(id, Status::Ok, alignment, None, batch_size)
    }

    /// An `ok` response carrying an already-projected wire alignment
    /// (the long-read path, whose alignment type differs from the
    /// short-read [`Alignment`]).
    pub fn ok_wire(id: u64, alignment: WireAlignment, batch_size: u64) -> AlignResponse {
        Self::completed(id, Status::Ok, Some(alignment), None, batch_size)
    }

    /// An `unmapped` response: the long-read pipeline ran to completion
    /// but no chain placed the read.
    pub fn unmapped(id: u64, batch_size: u64) -> AlignResponse {
        Self::completed(id, Status::Unmapped, None, None, batch_size)
    }

    /// An `ok` classify-mode response carrying the per-tenant score
    /// table.
    pub fn classified(id: u64, result: ClassifyResult, batch_size: u64) -> AlignResponse {
        Self::completed(id, Status::Ok, None, Some(result), batch_size)
    }

    /// A terminal failure response (`shed` / `deadline` / `error`).
    pub fn failure(id: u64, status: Status, detail: &str) -> AlignResponse {
        AlignResponse {
            id,
            status,
            error: Some(detail.to_string()),
            alignment: None,
            batch_size: None,
            sim_cycles: None,
            classify: None,
        }
    }

    /// Encodes the response document.
    pub fn encode(&self) -> JsonValue {
        let mut pairs = vec![
            ("id", JsonValue::Num(self.id as f64)),
            ("status", JsonValue::Str(self.status.as_str().to_string())),
            ("mapped", JsonValue::Bool(self.alignment.is_some())),
        ];
        if let Some(a) = &self.alignment {
            pairs.push(("pos", JsonValue::Num(a.pos as f64)));
            pairs.push(("is_rc", JsonValue::Bool(a.is_rc)));
            pairs.push(("score", JsonValue::Num(a.score as f64)));
            pairs.push(("cigar", JsonValue::Str(a.cigar.clone())));
            pairs.push(("mapq", JsonValue::Num(a.mapq as f64)));
        }
        if let Some(b) = self.batch_size {
            pairs.push(("batch_size", JsonValue::Num(b as f64)));
        }
        if let Some(c) = self.sim_cycles {
            pairs.push(("sim_cycles", JsonValue::Num(c as f64)));
        }
        if let Some(cl) = &self.classify {
            pairs.push(("classify", cl.encode()));
        }
        if let Some(e) = &self.error {
            pairs.push(("error", JsonValue::Str(e.clone())));
        }
        JsonValue::obj(pairs)
    }

    /// Decodes a response document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn decode(doc: &JsonValue) -> Result<AlignResponse, String> {
        let id = doc
            .get("id")
            .and_then(JsonValue::as_num)
            .ok_or("response missing numeric \"id\"")? as u64;
        let status = doc
            .get("status")
            .and_then(JsonValue::as_str)
            .and_then(Status::from_wire)
            .ok_or("response missing valid \"status\"")?;
        let mapped = matches!(doc.get("mapped"), Some(JsonValue::Bool(true)));
        let alignment = if mapped {
            Some(WireAlignment {
                pos: doc
                    .get("pos")
                    .and_then(JsonValue::as_num)
                    .ok_or("mapped response missing \"pos\"")? as u64,
                is_rc: matches!(doc.get("is_rc"), Some(JsonValue::Bool(true))),
                score: doc
                    .get("score")
                    .and_then(JsonValue::as_num)
                    .ok_or("mapped response missing \"score\"")? as i32,
                cigar: doc
                    .get("cigar")
                    .and_then(JsonValue::as_str)
                    .ok_or("mapped response missing \"cigar\"")?
                    .to_string(),
                mapq: doc
                    .get("mapq")
                    .and_then(JsonValue::as_num)
                    .ok_or("mapped response missing \"mapq\"")? as u8,
            })
        } else {
            None
        };
        Ok(AlignResponse {
            id,
            status,
            error: doc
                .get("error")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            alignment,
            batch_size: doc
                .get("batch_size")
                .and_then(JsonValue::as_num)
                .map(|n| n as u64),
            sim_cycles: doc
                .get("sim_cycles")
                .and_then(JsonValue::as_num)
                .map(|n| n as u64),
            classify: doc
                .get("classify")
                .map(ClassifyResult::decode)
                .transpose()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let doc = Request::Align {
            id: 42,
            codes: vec![0, 1, 2, 3],
            deadline_ms: Some(50),
            tenant: None,
            region: None,
            mode: Mode::Short,
        }
        .encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).unwrap();
        let back = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            Request::decode(&back).unwrap(),
            Request::Align {
                id: 42,
                codes: vec![0, 1, 2, 3],
                deadline_ms: Some(50),
                tenant: None,
                region: None,
                mode: Mode::Short,
            }
        );
    }

    #[test]
    fn tenant_and_region_round_trip_and_default_to_none() {
        let req = Request::Align {
            id: 7,
            codes: vec![2, 2, 0, 1],
            deadline_ms: None,
            tenant: Some("homo_sapiens".to_string()),
            region: Some(123_456),
            mode: Mode::Short,
        };
        let doc = req.encode();
        assert_eq!(Request::decode(&doc).unwrap(), req);
        // A pre-tenant request document decodes with both fields absent —
        // backward compatible by construction.
        let legacy = JsonValue::obj(vec![
            ("id", JsonValue::Num(1.0)),
            ("seq", JsonValue::Str("ACGT".to_string())),
        ]);
        match Request::decode(&legacy).unwrap() {
            Request::Align { tenant, region, .. } => {
                assert_eq!(tenant, None);
                assert_eq!(region, None);
            }
            other => panic!("expected align, got {other:?}"),
        }
        // An empty tenant string is rejected, not silently defaulted.
        let empty = JsonValue::obj(vec![
            ("id", JsonValue::Num(1.0)),
            ("seq", JsonValue::Str("ACGT".to_string())),
            ("tenant", JsonValue::Str(String::new())),
        ]);
        assert!(Request::decode(&empty).unwrap_err().contains("tenant"));
    }

    #[test]
    fn mode_round_trips_and_defaults_to_short() {
        for mode in [Mode::Short, Mode::Long, Mode::Classify] {
            let req = Request::Align {
                id: 3,
                codes: vec![0, 1, 2, 3],
                deadline_ms: None,
                tenant: None,
                region: None,
                mode,
            };
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        // The short-mode encoding carries no "mode" key at all, so it is
        // byte-identical to what a pre-mode client sends.
        let short = Request::Align {
            id: 3,
            codes: vec![0, 1, 2, 3],
            deadline_ms: None,
            tenant: None,
            region: None,
            mode: Mode::Short,
        }
        .encode();
        assert!(short.get("mode").is_none());
        match Request::decode(&short).unwrap() {
            Request::Align { mode, .. } => assert_eq!(mode, Mode::Short),
            other => panic!("expected align, got {other:?}"),
        }
        // An unknown mode is rejected, not silently defaulted.
        let bad = JsonValue::obj(vec![
            ("id", JsonValue::Num(1.0)),
            ("seq", JsonValue::Str("ACGT".to_string())),
            ("mode", JsonValue::Str("nanopore".to_string())),
        ]);
        assert!(Request::decode(&bad).unwrap_err().contains("mode"));
    }

    #[test]
    fn unmapped_status_round_trips() {
        assert_eq!(Status::Unmapped.as_str(), "unmapped");
        assert_eq!(Status::from_wire("unmapped"), Some(Status::Unmapped));
        let resp = AlignResponse::unmapped(21, 4);
        let doc = resp.encode();
        assert_eq!(doc.get("mapped"), Some(&JsonValue::Bool(false)));
        assert_eq!(AlignResponse::decode(&doc).unwrap(), resp);
    }

    #[test]
    fn classify_responses_round_trip() {
        let resp = AlignResponse::classified(
            5,
            ClassifyResult {
                tenants: vec![
                    TenantScore {
                        tenant: "c_elegans".to_string(),
                        hits: 2,
                        minimizers: 40,
                    },
                    TenantScore {
                        tenant: "homo_sapiens".to_string(),
                        hits: 37,
                        minimizers: 40,
                    },
                ],
                missing: Vec::new(),
                partial: false,
            },
            8,
        );
        assert_eq!(AlignResponse::decode(&resp.encode()).unwrap(), resp);
        // A partial result names the unscreened tenants explicitly.
        let partial = AlignResponse::classified(
            6,
            ClassifyResult {
                tenants: vec![TenantScore {
                    tenant: "homo_sapiens".to_string(),
                    hits: 1,
                    minimizers: 40,
                }],
                missing: vec!["c_elegans".to_string()],
                partial: true,
            },
            1,
        );
        let doc = partial.encode();
        assert_eq!(
            doc.get("classify").and_then(|c| c.get("partial")),
            Some(&JsonValue::Bool(true))
        );
        assert_eq!(AlignResponse::decode(&doc).unwrap(), partial);
    }

    #[test]
    fn quota_status_round_trips() {
        assert_eq!(Status::Quota.as_str(), "quota");
        assert_eq!(Status::from_wire("quota"), Some(Status::Quota));
        let resp = AlignResponse::failure(11, Status::Quota, "tenant quota exhausted");
        assert_eq!(AlignResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn clean_eof_is_none_and_oversize_is_rejected() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut { empty }).unwrap().is_none());
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        let err = read_frame(&mut huge.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let doc = JsonValue::obj(vec![("kind", JsonValue::Str("stats".to_string()))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn request_decode_rejects_garbage() {
        let bad = JsonValue::obj(vec![("kind", JsonValue::Str("align".to_string()))]);
        assert!(Request::decode(&bad).unwrap_err().contains("id"));
        let bad_seq = JsonValue::obj(vec![
            ("id", JsonValue::Num(1.0)),
            ("seq", JsonValue::Str("ACGTX".to_string())),
        ]);
        assert!(Request::decode(&bad_seq).is_err());
        let unknown = JsonValue::obj(vec![("kind", JsonValue::Str("nope".to_string()))]);
        assert!(Request::decode(&unknown).unwrap_err().contains("nope"));
    }

    #[test]
    fn present_but_malformed_fields_are_rejected_not_defaulted() {
        let with = |key: &'static str, value: JsonValue| {
            let mut pairs = vec![
                ("id", JsonValue::Num(1.0)),
                ("seq", JsonValue::Str("ACGT".to_string())),
            ];
            pairs.retain(|(k, _)| *k != key);
            pairs.push((key, value));
            Request::decode(&JsonValue::obj(pairs))
        };
        let text = |s: &str| JsonValue::Str(s.to_string());
        for (key, value) in [
            ("kind", JsonValue::Num(7.0)),
            ("id", text("1")),
            ("id", JsonValue::Num(-1.0)),
            ("id", JsonValue::Num(1.5)),
            ("id", JsonValue::Num(1e300)),
            ("id", JsonValue::Num(f64::NAN)),
            ("deadline_ms", text("soon")),
            ("deadline_ms", JsonValue::Null),
            ("region", JsonValue::Bool(true)),
            ("tenant", JsonValue::Num(3.0)),
            ("mode", JsonValue::Num(3.0)),
            ("seq", JsonValue::Arr(Vec::new())),
        ] {
            let err = with(key, value.clone()).expect_err(key);
            assert!(err.contains(key), "{key} = {value}: {err}");
        }
        // The bound itself is still a valid id.
        assert!(with("id", JsonValue::Num(MAX_WIRE_INT)).is_ok());
    }

    #[test]
    fn responses_round_trip_with_and_without_alignment() {
        let mapped = AlignResponse {
            id: 9,
            status: Status::Ok,
            error: None,
            alignment: Some(WireAlignment {
                pos: 1234,
                is_rc: true,
                score: 99,
                cigar: "101=".to_string(),
                mapq: 60,
            }),
            batch_size: Some(16),
            sim_cycles: Some(5000),
            classify: None,
        };
        assert_eq!(AlignResponse::decode(&mapped.encode()).unwrap(), mapped);
        let shed = AlignResponse::failure(3, Status::Shed, "queue full");
        assert_eq!(AlignResponse::decode(&shed.encode()).unwrap(), shed);
    }
}
