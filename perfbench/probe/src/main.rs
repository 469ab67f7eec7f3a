//! In-process half of the repository benchmark (`perfbench/run.py`).
//!
//! Each subcommand times calls into the library's public entry points
//! from outside the library and prints one flat JSON object as its last
//! stdout line:
//!
//! * `search` — the `search` workload: corpus → SPIMI segments → open →
//!   merge → `BossHandle::init` (set-up, repeated), then a closed loop of
//!   one client sending `trec_like_mix` query strings through
//!   `BossHandle::search` at k=1000. With `--trace 1` it alternates
//!   untraced and traced passes and replays each query's lists through
//!   decode, `Bm25::score_block`, `TopK::sift_block` and `MemorySim`;
//! * `oracle` — rebuilds the same corpus in memory and checks every hit
//!   list `search` wrote against `boss_index::reference::evaluate`;
//! * `setup` — the in-process corpus builds of the `suite` and `serve`
//!   workloads (the work their binaries repeat at start-up);
//! * `calibrate` — the host-speed reference kernel (`calibrate.rs`), one
//!   measurement per line read from stdin;
//! * `suite-layers` / `serve-layers` — in-process replays of the
//!   Fig. 9/10 batch sequence and of the serving sweep's phases, built
//!   from `boss-bench`'s own engine and suite helpers.
//!
//! No tracing lives inside the library: every span here wraps one public
//! call. End-to-end times are reported normalised to the reference host's
//! speed (see `calibrate.rs`), beside their raw values.

mod calibrate;

use calibrate::{speed_factor, Calibrator, Kernel};
use boss_bench::figures::CORE_SWEEP;
use boss_bench::{
    boss_engine, default_threads, iiu_engine, lucene_engine, run_system, BenchArgs, BenchTarget,
    EngineTuning, ServingSpec, TypedSuite,
};
use boss_core::{parse_query, BossConfig, BossHandle, EtMode, QueryPlan, SearchRequest, TopK};
use boss_engine::{open_segments, simulate, SearchEngine, ServiceTable};
use boss_index::shard::ShardedIndex;
use boss_index::{
    reference, DocId, InvertedIndex, QueryAlgorithm, QueryExpr, ScoreScratch, SearchHit,
    SegmentSet,
};
use boss_scm::{AccessCategory, AccessKind, MemoryConfig, MemorySim, PatternHint};
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::{QuerySampler, ALL_QUERY_TYPES};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

type Res<T> = Result<T, String>;

/// k of the `search` workload (the paper's default).
const SEARCH_K: usize = 1000;
/// Segments the `search` corpus is spilled to.
const SEARCH_SEGMENTS: u32 = 4;
/// Set-ups per `search` run; the timed passes are split evenly between
/// them.
const SETUP_REPS: usize = 3;
/// Shards of the `serve` set-up. `serve-layers` checks it against the
/// `shards` the binary reports.
const SERVE_SHARDS: u32 = 4;

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench-probe: refusing to measure a debug build (build with --release)");
        std::process::exit(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some(cmd) => Args::parse(&argv[1..]).and_then(|a| match cmd {
            "search" => search(&a),
            "oracle" => oracle(&a),
            "setup" => setup(&a),
            "suite-layers" => suite_layers(&a),
            "serve-layers" => serve_layers(&a),
            "calibrate" => Kernel::new().serve().map(|()| Report::default()),
            other => Err(format!("unknown subcommand {other:?}")),
        }),
        None => Err("usage: perfbench-probe <search|oracle|setup|suite-layers|serve-layers|calibrate> [--flag value]...".into()),
    };
    match result {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            std::process::exit(1);
        }
    }
}

/// `--flag value` pairs.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Res<Self> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Res<T> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value {v:?} for --{key}")),
        }
    }

    fn path(&self, key: &str) -> Res<PathBuf> {
        self.0
            .get(key)
            .map(PathBuf::from)
            .ok_or_else(|| format!("--{key} is required"))
    }

    fn scale(&self) -> Res<Scale> {
        self.get::<String>("scale", "small".into())?.parse()
    }
}

/// A flat JSON object of numbers, printed in insertion order.
#[derive(Default)]
struct Report(Vec<(String, f64)>);

impl Report {
    fn put(&mut self, key: &str, value: f64) {
        self.0.push((key.to_string(), value));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| {
                // JSON has no NaN/inf; a non-finite value becomes null and
                // `run.py` refuses it.
                let v = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".into()
                };
                format!("\"{k}\": {v}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Median of a non-empty sample (mean of the middle pair when even).
fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile `p` in [0, 1]; 0.0 for an empty sample.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = p * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// This process's own peak resident memory (`VmHWM`), in MiB. The
/// calibration process is not counted, as it would be in the peak RSS the
/// parent reads from `wait4`.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// SplitMix64: derives independent generator seeds from the run seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = (seed ^ salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `search` query seed, drawn from the run seed. The corpus is the
/// fixed clueweb12-like stand-in: its generator seed alone moved a
/// pass's work by about 7% between run seeds.
fn search_query_seed(seed: u64) -> u64 {
    mix(seed, 0x9E_4E5)
}

fn same_hits(a: &[SearchHit], b: &[SearchHit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.doc == y.doc && x.score.to_bits() == y.score.to_bits())
}

/// Phase times of one `search` set-up.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    /// `total_s` at the reference host's speed.
    norm_s: f64,
    gen_s: f64,
    spimi_write_s: f64,
    open_s: f64,
    merge_s: f64,
    init_s: f64,
    segment_bytes: u64,
    postings: u64,
}

/// One `search` set-up into `dir`: generate, spill to segments, open,
/// merge, init. Untraced it runs the plain path (`build_segments`,
/// `open_segments`); traced it times each phase with its own call, and
/// `spimi_write_s` is `build_segments` minus a separately timed
/// `term_lists` (the build regenerates the corpus internally).
fn setup_search(spec: &CorpusSpec, dir: &Path, traced: bool) -> Res<(InvertedIndex, SetupTimes)> {
    let io = |e: boss_index::io::IoError| e.to_string();
    let mut t = SetupTimes::default();
    let start = Instant::now();
    if traced {
        let g = Instant::now();
        black_box(spec.term_lists().map_err(|e| e.to_string())?);
        t.gen_s = secs(g.elapsed());
    }
    let w = Instant::now();
    let set = spec.build_segments(dir, SEARCH_SEGMENTS).map_err(io)?;
    t.spimi_write_s = secs(w.elapsed()) - t.gen_s;
    t.segment_bytes = set.stats().segment_bytes;
    t.postings = set.stats().postings;
    drop(set);
    let index = if traced {
        let o = Instant::now();
        let set = SegmentSet::open_dir(dir).map_err(io)?;
        t.open_s = secs(o.elapsed());
        let m = Instant::now();
        let index = set.merge().map_err(io)?;
        t.merge_s = secs(m.elapsed());
        index
    } else {
        open_segments(dir).map_err(io)?
    };
    let i = Instant::now();
    black_box(BossHandle::init(&index, BossConfig::default()));
    t.init_s = secs(i.elapsed());
    t.total_s = secs(start.elapsed());
    if traced {
        // The traced set-up also paid for the extra generation.
        t.total_s -= t.gen_s;
    }
    Ok((index, t))
}

/// Per-query engine counts of the first pass (deterministic).
#[derive(Default)]
struct Counts {
    cycles: u64,
    docs_scored: u64,
    blocks_fetched: u64,
    blocks_skipped: u64,
    topk_inserts: u64,
    scm_accesses: u64,
    scm_bytes: u64,
    hits: u64,
}

/// The query set and what its first pass returned.
struct QuerySet {
    requests: Vec<SearchRequest>,
    /// Each query's first hits (`None` if it failed); every later run
    /// must return the same.
    first: Vec<Option<Vec<SearchHit>>>,
    counts: Counts,
    /// Per query: SCM accesses and bytes.
    scm: Vec<(u64, u64)>,
}

/// Samples the query set from `index` and runs its first pass.
fn first_pass(
    handle: &mut BossHandle<'_>,
    index: &InvertedIndex,
    seed: u64,
    n: usize,
) -> Res<QuerySet> {
    let requests: Vec<SearchRequest> = QuerySampler::new(index, search_query_seed(seed))
        .and_then(|mut s| s.trec_like_mix(n))
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|q| SearchRequest::new(q.expr.to_string()).with_k(SEARCH_K))
        .collect();
    let mut set = QuerySet {
        first: Vec::with_capacity(requests.len()),
        counts: Counts::default(),
        scm: Vec::with_capacity(requests.len()),
        requests,
    };
    for req in &set.requests {
        let out = handle.search(req).ok();
        let c = &mut set.counts;
        if let Some(out) = &out {
            c.cycles += out.cycles;
            c.docs_scored += out.eval.docs_scored;
            c.blocks_fetched += out.eval.blocks_fetched;
            c.blocks_skipped += out.eval.blocks_skipped;
            c.topk_inserts += out.eval.topk_inserts;
            c.scm_accesses += out.mem.total_count();
            c.scm_bytes += out.mem.total_bytes();
            c.hits += out.hits.len() as u64;
        }
        set.scm.push(
            out.as_ref()
                .map_or((0, 0), |o| (o.mem.total_count(), o.mem.total_bytes())),
        );
        set.first.push(out.map(|o| o.hits));
    }
    Ok(set)
}

/// Timings and tallies of the `search` passes.
struct Passes {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    passes: usize,
    /// Untraced: each query's best `BossHandle::search` latency (ns), at
    /// the reference host's speed and raw.
    best: Vec<f64>,
    best_raw: Vec<f64>,
    /// Speed factor of each untraced pass.
    factors: Vec<f64>,
    /// Traced: per-pass walls and span sums, untraced vs traced.
    untraced_wall: Vec<f64>,
    traced_wall: Vec<f64>,
    untraced_sum: f64,
    traced_sum: f64,
    parse_ns: Vec<f64>,
    search_ns: Vec<f64>,
    search_by_query: Vec<Vec<f64>>,
}

impl Passes {
    fn new(n: usize) -> Self {
        Passes {
            attempted: 0,
            failed: 0,
            mismatches: 0,
            passes: 0,
            best: vec![f64::INFINITY; n],
            best_raw: vec![f64::INFINITY; n],
            factors: Vec::new(),
            untraced_wall: Vec::new(),
            traced_wall: Vec::new(),
            untraced_sum: 0.0,
            traced_sum: 0.0,
            parse_ns: Vec::new(),
            search_ns: Vec::new(),
            search_by_query: vec![Vec::new(); n],
        }
    }

    fn check(
        &mut self,
        res: Result<Vec<SearchHit>, boss_index::Error>,
        want: &Option<Vec<SearchHit>>,
    ) {
        self.attempted += 1;
        match res {
            Ok(hits) => {
                if !want.as_deref().is_some_and(|w| same_hits(&hits, w)) {
                    self.mismatches += 1;
                }
            }
            Err(_) => self.failed += 1,
        }
    }

    /// One pass of `BossHandle::search`, each query timed on its own.
    /// Returns each query's raw latency (ns; NaN if it failed).
    fn untraced(&mut self, handle: &mut BossHandle<'_>, q: &QuerySet) -> Vec<f64> {
        let w = Instant::now();
        let mut lat = Vec::with_capacity(q.requests.len());
        for (req, want) in q.requests.iter().zip(&q.first) {
            let t = Instant::now();
            let res = handle.search(black_box(req));
            let ns = nanos(t.elapsed());
            self.untraced_sum += ns;
            lat.push(if res.is_ok() { ns } else { f64::NAN });
            self.check(res.map(|o| o.hits), want);
        }
        self.untraced_wall.push(secs(w.elapsed()));
        lat
    }

    /// Keeps each query's best latency of the pass `lat`, whose speed
    /// factor is `factor`.
    fn keep_best(&mut self, lat: &[f64], factor: f64) {
        for ((best, raw), &ns) in self.best.iter_mut().zip(&mut self.best_raw).zip(lat) {
            if ns.is_finite() {
                *best = best.min(ns * factor);
                *raw = raw.min(ns);
            }
        }
        self.factors.push(factor);
    }

    /// One pass with `parse_query` and `BossDevice::search_expr` as
    /// separate spans.
    fn traced(&mut self, handle: &mut BossHandle<'_>, q: &QuerySet) {
        let w = Instant::now();
        for (i, (req, want)) in q.requests.iter().zip(&q.first).enumerate() {
            let t0 = Instant::now();
            let expr = parse_query(black_box(&req.q_expression));
            let t1 = Instant::now();
            let res = expr.and_then(|e| handle.device_mut().search_expr(&e, req.k));
            let t2 = Instant::now();
            let (p, s) = (nanos(t1 - t0), nanos(t2 - t1));
            self.traced_sum += p + s;
            if res.is_ok() {
                self.parse_ns.push(p);
                self.search_ns.push(s);
                self.search_by_query[i].push(s);
            }
            self.check(res.map(|o| o.hits), want);
        }
        self.traced_wall.push(secs(w.elapsed()));
    }
}

/// The `search` workload. The set-up runs `SETUP_REPS` times; after
/// each, the fresh index serves an equal slice of the `--passes` timed
/// passes, so the passes spread over the whole run rather than one
/// stretch of it. The pass count is fixed by the caller, never by how
/// many passes fit in a time budget, so a best-of-N statistic uses the
/// same N on every build. Untraced, a pass is one `BossHandle::search`
/// per query; traced, it is an untraced pass followed by a traced one,
/// and the last index is replayed through the per-layer kernels. Every
/// set-up and untraced pass is bracketed by calibration runs, which give
/// its speed factor.
fn search(a: &Args) -> Res<Report> {
    let scale = a.scale()?;
    let seed: u64 = a.get("seed", 1)?;
    let traced = a.get::<u8>("trace", 0)? == 1;
    let n_queries: usize = a.get("queries", 1000)?;
    let passes: usize = a.get("passes", 2)?;
    let dir = a.path("dir")?;
    let hits_path = a.path("hits")?;

    let spec = CorpusSpec::clueweb12_like(scale);
    let config = BossConfig::default();
    let mut setups = Vec::new();
    let mut queries: Option<QuerySet> = None;
    let mut p = Passes::new(n_queries);
    let mut plan_ns = Vec::new();
    let mut replay = None;
    let mut cal = Calibrator::new()?;
    for rep in 0..SETUP_REPS {
        let seg_dir = dir.join(format!("segments-{rep}"));
        let before = cal.sample()?;
        let (index, mut t) = setup_search(&spec, &seg_dir, traced)?;
        t.norm_s = t.total_s * speed_factor(before, cal.sample()?);
        std::fs::remove_dir_all(&seg_dir).map_err(|e| e.to_string())?;
        setups.push(t);
        let mut handle = BossHandle::init(&index, config.clone());
        let q = match queries.take() {
            Some(q) => q,
            None => {
                let q = first_pass(&mut handle, &index, seed, n_queries)?;
                write_hits(&hits_path, &q.requests, &q.first)?;
                q
            }
        };
        let mut last = cal.sample()?;
        while p.passes < passes * (rep + 1) / SETUP_REPS {
            let lat = p.untraced(&mut handle, &q);
            let now = cal.sample()?;
            p.keep_best(&lat, speed_factor(last, now));
            last = now;
            if traced {
                p.traced(&mut handle, &q);
                last = cal.sample()?;
            }
            p.passes += 1;
        }
        if traced && rep + 1 == SETUP_REPS {
            // Planning is a child span of search_expr, timed on its own calls.
            let exprs: Vec<_> = q
                .requests
                .iter()
                .filter_map(|r| parse_query(&r.q_expression).ok())
                .collect();
            for e in &exprs {
                let t = Instant::now();
                let plan = QueryPlan::from_expr(&index, black_box(e), &config);
                plan_ns.push(nanos(t.elapsed()));
                black_box(plan.map_err(|e| e.to_string())?);
            }
            replay = Some(replay_layers(&index, &exprs, &q.scm)?);
        }
        queries = Some(q);
    }
    let q = queries.ok_or("no set-up ran")?;

    let mut r = Report::default();
    if let Some(replay) = replay {
        let c = &q.counts;
        // Base of every share: one pass of search_expr time (per-query medians).
        let base_ns: f64 = p.search_by_query.iter().map(|v| median(v)).sum();
        let decode = ratio(
            replay.decode_ns_per_block * c.blocks_fetched as f64,
            base_ns,
        );
        let score = ratio(replay.score_ns_per_doc * c.docs_scored as f64, base_ns);
        let topk = ratio(replay.topk_ns_per_offer * c.docs_scored as f64, base_ns);
        let scm = ratio(replay.scm_access_ns * c.scm_accesses as f64, base_ns);
        let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        r.put("workload.gen_s", med(|t| t.gen_s));
        r.put("index.spimi_write_s", med(|t| t.spimi_write_s));
        r.put("index.open_s", med(|t| t.open_s));
        r.put("index.merge_s", med(|t| t.merge_s));
        r.put("core.init_s", med(|t| t.init_s));
        r.put(
            "index.bytes_per_posting",
            ratio(setups[0].segment_bytes as f64, setups[0].postings as f64),
        );
        r.put("core.parse_ns", median(&p.parse_ns));
        r.put("core.plan_ns", median(&plan_ns));
        r.put("core.search_p50_ns", percentile(&p.search_ns, 0.50));
        r.put("core.search_p99_ns", percentile(&p.search_ns, 0.99));
        r.put("index.decode_ns_per_block", replay.decode_ns_per_block);
        r.put("index.decode_share", decode);
        r.put("index.score_ns_per_doc", replay.score_ns_per_doc);
        r.put("index.score_share", score);
        r.put("core.topk_ns_per_offer", replay.topk_ns_per_offer);
        r.put("core.topk_share", topk);
        r.put("scm.access_ns", replay.scm_access_ns);
        r.put("scm.share", scm);
        r.put("core.residual_share", 1.0 - decode - score - topk - scm);
        r.put("bench.span_coverage", ratio(p.traced_sum, p.untraced_sum));
        r.put(
            "bench.trace_overhead",
            ratio(median(&p.traced_wall), median(&p.untraced_wall)) - 1.0,
        );
    } else {
        // Each query's latency is the best of its repeats: the host is
        // shared, and the least-disturbed repeat is the one that tells
        // program changes apart from other tenants' interference.
        let finite = |v: &[f64]| v.iter().copied().filter(|b| b.is_finite()).collect::<Vec<_>>();
        let (best, raw) = (finite(&p.best), finite(&p.best_raw));
        let pass_s = best.iter().sum::<f64>() * 1e-9;
        let setup = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        r.put("setup_s", setup(|t| t.norm_s));
        r.put("raw_setup_s", setup(|t| t.total_s));
        r.put("pass_s", pass_s);
        r.put("raw_pass_s", raw.iter().sum::<f64>() * 1e-9);
        r.put("qps", ratio(best.len() as f64, pass_s));
        r.put("p50_us", percentile(&best, 0.50) / 1e3);
        r.put("p99_us", percentile(&best, 0.99) / 1e3);
        r.put("speed_factor", median(&p.factors));
        r.put("peak_rss_mb", peak_rss_mb()?);
    }
    for (i, t) in setups.iter().enumerate() {
        r.put(&format!("setup_rep{i}_s"), t.norm_s);
    }
    let c = &q.counts;
    let fetched = c.blocks_fetched as f64;
    r.put("core.sim_cycles", c.cycles as f64);
    r.put("core.docs_scored", c.docs_scored as f64);
    r.put("core.blocks_fetched", fetched);
    r.put("core.blocks_skipped", c.blocks_skipped as f64);
    r.put("core.topk_inserts", c.topk_inserts as f64);
    r.put("scm.accesses", c.scm_accesses as f64);
    r.put("scm.bytes", c.scm_bytes as f64);
    r.put(
        "core.fetch_ratio",
        ratio(fetched, fetched + c.blocks_skipped as f64),
    );
    r.put(
        "core.docs_scored_per_hit",
        ratio(c.docs_scored as f64, c.hits as f64),
    );
    r.put("queries", q.requests.len() as f64);
    r.put("answered", q.first.iter().flatten().count() as f64);
    r.put("passes", p.passes as f64);
    r.put("attempted", (p.attempted + q.requests.len() as u64) as f64);
    r.put(
        "failed",
        (p.failed + q.first.iter().filter(|h| h.is_none()).count() as u64) as f64,
    );
    r.put("mismatches", p.mismatches as f64);
    Ok(r)
}

/// Per-unit costs of the replayed layers.
struct Replay {
    decode_ns_per_block: f64,
    score_ns_per_doc: f64,
    topk_ns_per_offer: f64,
    scm_access_ns: f64,
}

/// Replays every block of each query's posting lists through
/// `EncodedList::decode_block`, `Bm25::score_block` and
/// `TopK::sift_block` (one span per list and layer), and each query's
/// SCM access count through `MemorySim::access`.
fn replay_layers(
    index: &InvertedIndex,
    exprs: &[boss_index::QueryExpr],
    per_query: &[(u64, u64)],
) -> Res<Replay> {
    let bm25 = index.bm25();
    let norms = index.doc_norms();
    let (mut decode_ns, mut score_ns, mut topk_ns) = (0.0, 0.0, 0.0);
    let (mut blocks, mut docs_n) = (0u64, 0u64);
    let mut docs: Vec<DocId> = Vec::new();
    let mut tfs: Vec<u32> = Vec::new();
    let mut scores: Vec<f32> = Vec::new();
    let mut scratch = ScoreScratch::new();
    let mut topk = TopK::new(SEARCH_K);
    for expr in exprs {
        let mut ids: Vec<_> = expr
            .terms()
            .iter()
            .map(|t| index.term_id(t))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        ids.sort_unstable();
        ids.dedup();
        topk.reset(SEARCH_K);
        for id in ids {
            let list = index.list(id);
            let idf = index.term_info(id).idf;
            let n_blocks = list.n_blocks();
            docs.clear();
            tfs.clear();
            let t = Instant::now();
            for b in 0..n_blocks {
                list.decode_block(b, &mut docs, &mut tfs)
                    .map_err(|e| e.to_string())?;
            }
            decode_ns += nanos(t.elapsed());

            scores.clear();
            let t = Instant::now();
            let mut start = 0;
            for meta in list.blocks() {
                let end = start + meta.count();
                bm25.score_block(
                    idf,
                    &docs[start..end],
                    &tfs[start..end],
                    norms,
                    &mut scratch,
                );
                scores.extend_from_slice(scratch.scores());
                start = end;
            }
            score_ns += nanos(t.elapsed());

            let t = Instant::now();
            let mut start = 0;
            for meta in list.blocks() {
                let end = start + meta.count();
                topk.sift_block(&docs[start..end], &scores[start..end]);
                start = end;
            }
            topk_ns += nanos(t.elapsed());
            blocks += n_blocks as u64;
            docs_n += docs.len() as u64;
        }
        black_box(topk.hits());
    }

    let mut sim = MemorySim::new(MemoryConfig::optane_dcpmm());
    let (mut scm_ns, mut accesses) = (0.0, 0u64);
    for &(n, bytes) in per_query {
        if n == 0 {
            continue;
        }
        let size = (bytes / n).max(1);
        sim.reset();
        let t = Instant::now();
        for j in 0..n {
            black_box(sim.access(
                j * size,
                size,
                AccessKind::Read,
                AccessCategory::LdList,
                PatternHint::Auto,
                0,
            ));
        }
        scm_ns += nanos(t.elapsed());
        accesses += n;
    }
    Ok(Replay {
        decode_ns_per_block: ratio(decode_ns, blocks as f64),
        score_ns_per_doc: ratio(score_ns, docs_n as f64),
        topk_ns_per_offer: ratio(topk_ns, docs_n as f64),
        scm_access_ns: ratio(scm_ns, accesses as f64),
    })
}

/// Hit lists as the oracle reads them: per query, the query string and
/// its hits as (docID, score bits); a failed query has no hit record.
fn write_hits(path: &Path, queries: &[SearchRequest], hits: &[Option<Vec<SearchHit>>]) -> Res<()> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut w = BufWriter::new(std::fs::File::create(path).map_err(io)?);
    let put = |w: &mut BufWriter<std::fs::File>, v: u32| w.write_all(&v.to_le_bytes());
    for (q, h) in queries.iter().zip(hits) {
        let Some(h) = h else { continue };
        let q = q.q_expression.as_bytes();
        let len = u32::try_from(q.len()).map_err(|e| e.to_string())?;
        put(&mut w, len).map_err(io)?;
        w.write_all(q).map_err(io)?;
        put(&mut w, u32::try_from(h.len()).map_err(|e| e.to_string())?).map_err(io)?;
        for hit in h {
            put(&mut w, hit.doc).map_err(io)?;
            put(&mut w, hit.score.to_bits()).map_err(io)?;
        }
    }
    w.flush().map_err(io)
}

fn oracle(a: &Args) -> Res<Report> {
    let index = CorpusSpec::clueweb12_like(a.scale()?)
        .build()
        .map_err(|e| e.to_string())?;
    let path = a.path("hits")?;
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut bytes = Vec::new();
    BufReader::new(std::fs::File::open(&path).map_err(io)?)
        .read_to_end(&mut bytes)
        .map_err(io)?;
    let mut at = 0usize;
    let mut take = |n: usize| -> Res<&[u8]> {
        let s = bytes.get(at..at + n).ok_or("truncated hits file")?;
        at += n;
        Ok(s)
    };
    let word = |s: &[u8]| u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
    // Every record of one query string must equal that query's reference.
    let mut by_query: BTreeMap<String, Vec<Vec<SearchHit>>> = BTreeMap::new();
    let mut checked = 0u64;
    while let Ok(len) = take(4).map(word) {
        let query = String::from_utf8(take(len as usize)?.to_vec()).map_err(|e| e.to_string())?;
        let n = word(take(4)?) as usize;
        let mut got = Vec::with_capacity(n.min(SEARCH_K));
        for _ in 0..n {
            let doc = word(take(4)?);
            let score = f32::from_bits(word(take(4)?));
            got.push(SearchHit { doc, score });
        }
        by_query.entry(query).or_default().push(got);
        checked += 1;
    }
    let distinct: Vec<_> = by_query.iter().collect();
    let chunk = distinct.len().div_ceil(default_threads()).max(1);
    let index = &index;
    let mismatches = std::thread::scope(|s| {
        let workers: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || -> Res<u64> {
                    let mut bad = 0u64;
                    for (query, records) in part {
                        let expr = parse_query(query).map_err(|e| e.to_string())?;
                        let want = reference::evaluate(index, &expr, SEARCH_K)
                            .map_err(|e| e.to_string())?;
                        bad += records.iter().filter(|got| !same_hits(got, &want)).count() as u64;
                    }
                    Ok(bad)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "oracle worker panicked".to_string())?)
            .sum::<Res<u64>>()
    })?;
    let mut r = Report::default();
    r.put("checked", checked as f64);
    r.put("distinct", by_query.len() as f64);
    r.put("mismatches", mismatches as f64);
    Ok(r)
}

/// One set-up of `suite` or `serve`: the corpora the `suite` binaries
/// build (clueweb12-like and ccnews-like), or the `serve` binary's
/// (ccnews-like plus a 4-way shard split). `setup_s` is normalised by
/// calibration runs on either side; `raw_setup_s` is as measured.
fn setup(a: &Args) -> Res<Report> {
    let scale = a.scale()?;
    let serve = match a.get::<String>("workload", String::new())?.as_str() {
        "suite" => false,
        "serve" => true,
        other => return Err(format!("setup: unknown --workload {other:?}")),
    };
    let mut r = Report::default();
    let mut cal = Calibrator::new()?;
    let before = cal.sample()?;
    let t = Instant::now();
    if serve {
        let index = CorpusSpec::ccnews_like(scale)
            .build()
            .map_err(|e| e.to_string())?;
        let s = Instant::now();
        black_box(ShardedIndex::split(&index, SERVE_SHARDS).map_err(|e| e.to_string())?);
        r.put("index.shard_split_s", secs(s.elapsed()));
    } else {
        for spec in [
            CorpusSpec::clueweb12_like(scale),
            CorpusSpec::ccnews_like(scale),
        ] {
            black_box(spec.build().map_err(|e| e.to_string())?);
        }
    }
    let raw = secs(t.elapsed());
    r.put("setup_s", raw * speed_factor(before, cal.sample()?));
    r.put("raw_setup_s", raw);
    Ok(r)
}

/// Fig. 9/10's batch sequence in-process, at the figure binaries'
/// default arguments: per corpus and query type, Lucene x8 once, then IIU
/// and BOSS at each core count of the sweep, each through `run_system`
/// (the `BatchExecutor` driver every figure shares).
fn suite_layers(a: &Args) -> Res<Report> {
    let args = BenchArgs {
        scale: a.scale()?,
        ..BenchArgs::default()
    };
    let tuning = args.tuning();
    let (k, threads) = (args.k, args.threads);
    let (mut build_s, mut lucene_s, mut iiu_s, mut boss_s) = (0.0, 0.0, 0.0, 0.0);
    let mut executions = 0u64;
    let mut eff = 0.0;
    for (ci, (name, spec)) in [
        ("clueweb12-like", CorpusSpec::clueweb12_like(args.scale)),
        ("ccnews-like", CorpusSpec::ccnews_like(args.scale)),
    ]
    .into_iter()
    .enumerate()
    {
        let t = Instant::now();
        let index = args.try_build_corpus(name, &spec)?;
        build_s += secs(t.elapsed());
        let target = BenchTarget::single(&index);
        let suite = TypedSuite::sample(&index, args.queries_per_type, args.seed);
        for (_, queries) in &suite.per_type {
            let lucene = lucene_engine(&target, 8, MemoryConfig::host_scm_6ch(), &tuning);
            lucene_s += timed(|| run_system(&lucene, queries, k, threads));
            executions += queries.len() as u64;
            for cores in CORE_SWEEP {
                let iiu = iiu_engine(&target, cores, MemoryConfig::optane_dcpmm(), &tuning);
                iiu_s += timed(|| run_system(&iiu, queries, k, threads));
                let boss = fig_boss(&target, cores, k, &tuning);
                boss_s += timed(|| run_system(&boss, queries, k, threads));
                executions += 2 * queries.len() as u64;
            }
        }
        if ci == 0 {
            // Parallel efficiency of the executor: the corpus's whole
            // suite on BOSS x8 at 1 thread vs `threads`.
            let all: Vec<QueryExpr> = suite.per_type.into_iter().flat_map(|(_, q)| q).collect();
            let boss = fig_boss(&target, 8, k, &tuning);
            let t1 = timed(|| run_system(&boss, &all, k, 1));
            let tn = timed(|| run_system(&boss, &all, k, threads));
            eff = ratio(t1, tn * threads as f64);
        }
    }
    let mut r = Report::default();
    r.put("index.build_s", build_s);
    r.put("lucene.batch_s", lucene_s);
    r.put("iiu.batch_s", iiu_s);
    r.put("boss.batch_s", boss_s);
    r.put("engine.executions", executions as f64);
    r.put("engine.parallel_eff", eff);
    Ok(r)
}

/// Wall seconds of one call.
fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    secs(t.elapsed())
}

/// BOSS as Figs. 9/10 configure it.
fn fig_boss<'a>(
    target: &BenchTarget<'a>,
    cores: u32,
    k: usize,
    tuning: &EngineTuning,
) -> impl SearchEngine + Send + 'a {
    boss_engine(target, cores, EtMode::Full, MemoryConfig::optane_dcpmm(), k, tuning)
}

/// The parts of `BENCH_serving.json` the serving replay is configured
/// from and checked against.
#[derive(Deserialize)]
struct ServingReport {
    queries: usize,
    k: usize,
    cores: u32,
    shards: u32,
    queue: usize,
    deadline_x: f64,
    arrivals: String,
    results: Vec<ScenarioRow>,
}

#[derive(Deserialize)]
struct ScenarioRow {
    load: f64,
    policy: String,
    deadlines: bool,
    degrade: bool,
    served: usize,
    rejected: usize,
    expired: usize,
    shed: usize,
}

/// The serving sweep's phases in-process, configured from the report
/// `serving_latency` wrote (`--report`) so that the two cannot drift:
/// the shard split, the service-table measurement, the pure `simulate`
/// replay of every scenario the report lists (whose dispositions must
/// equal the report's), and per-query host costs of the sharded search,
/// the canonical search and the top-k merge.
fn serve_layers(a: &Args) -> Res<Report> {
    let scale = a.scale()?;
    let seed: u64 = a.get("seed", 42)?;
    let path = a.path("report")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let rep: ServingReport = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    if rep.shards != SERVE_SHARDS {
        return Err(format!(
            "serving_latency ran {} shards, the serve set-up splits {SERVE_SHARDS}",
            rep.shards
        ));
    }
    let arrivals = rep.arrivals.parse().map_err(|e| format!("arrivals: {e}"))?;
    let err = |e: boss_index::Error| e.to_string();
    let index = CorpusSpec::ccnews_like(scale)
        .build()
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let split = ShardedIndex::split(&index, rep.shards).map_err(err)?;
    let split_s = secs(t.elapsed());
    let target = BenchTarget::new(&index, Some(&split));
    let per_type = rep.queries / ALL_QUERY_TYPES.len();
    let queries: Vec<QueryExpr> = TypedSuite::sample(&index, per_type, seed)
        .per_type
        .into_iter()
        .flat_map(|(_, q)| q)
        .collect();

    let tuning = EngineTuning::new(0, true);
    let pruned_tuning = tuning
        .clone()
        .with_algorithm(QueryAlgorithm::BlockMaxMaxScore);
    let optane = MemoryConfig::optane_dcpmm;
    let mut normal = boss_engine(&target, rep.cores, EtMode::Full, optane(), rep.k, &tuning);
    let pruned = boss_engine(&target, rep.cores, EtMode::Full, optane(), rep.k, &pruned_tuning);
    let t = Instant::now();
    let table = ServiceTable::measure(
        &normal,
        Some(&pruned),
        &queries,
        rep.k,
        (rep.k / 4).max(1),
        default_threads(),
    )
    .map_err(|e| e.to_string())?;
    let measure_s = secs(t.elapsed());

    let mean_svc = table.mean_normal_cycles();
    let servers = normal.lanes();
    let (mut simulate_s, mut arrivals_n, mut mismatches) = (0.0, 0usize, 0u64);
    let mut dispositions = [0usize; 4];
    for row in &rep.results {
        let spec = ServingSpec {
            arrivals,
            load: row.load,
            queue: rep.queue,
            deadline_x: if row.deadlines { rep.deadline_x } else { 0.0 },
            policy: row.policy.parse().map_err(|e| format!("policy: {e}"))?,
            degrade: row.degrade,
        };
        let trace = spec.arrival_trace(queries.len(), mean_svc, servers, seed);
        let config = spec.config(servers, mean_svc);
        let t = Instant::now();
        let run = simulate(&config, &trace, &table);
        simulate_s += secs(t.elapsed());
        arrivals_n += trace.len();
        let got = [run.served(), run.rejected, run.expired, run.shed];
        if got != [row.served, row.rejected, row.expired, row.shed] {
            mismatches += 1;
        }
        for (sum, n) in dispositions.iter_mut().zip(got) {
            *sum += n;
        }
    }

    // Per-query host cost: the sharded (Logical timing) search against
    // the canonical single-device search, the top-k merge, and the BMM
    // level's prune skips.
    let single = BenchTarget::single(&index);
    let mut canonical = boss_engine(&single, rep.cores, EtMode::Full, optane(), rep.k, &tuning);
    let mut bmm = boss_engine(&single, rep.cores, EtMode::Full, optane(), rep.k, &pruned_tuning);
    let (mut shard_ns, mut canon_ns, mut merge_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut prune_skipped, mut considered) = (0u64, 0u64);
    for q in &queries {
        let t = Instant::now();
        black_box(normal.search(q, rep.k).map_err(err)?);
        shard_ns.push(nanos(t.elapsed()));
        let t = Instant::now();
        let hits = canonical.search(q, rep.k).map_err(err)?.hits;
        canon_ns.push(nanos(t.elapsed()));
        // The canonical hits, dealt back to the shards that own them
        // (shard-local docIDs), are a valid merge input whose merge must
        // give the canonical list back.
        let mut per_shard = vec![Vec::new(); split.n_shards()];
        for h in &hits {
            let s = split.bases().partition_point(|&b| b <= h.doc) - 1;
            per_shard[s].push(SearchHit {
                doc: h.doc - split.bases()[s],
                score: h.score,
            });
        }
        let t = Instant::now();
        let merged = split.merge_topk(black_box(&per_shard), rep.k);
        merge_ns.push(nanos(t.elapsed()));
        if !same_hits(&merged, &hits) {
            return Err("merge_topk of the dealt canonical hits differs from them".into());
        }
        let out = bmm.search(q, rep.k).map_err(err)?;
        prune_skipped += out.eval.blocks_skipped_prune;
        considered += out.eval.blocks_fetched + out.eval.blocks_skipped;
    }

    let mut r = Report::default();
    r.put("index.shard_split_s", split_s);
    r.put("engine.measure_s", measure_s);
    r.put("engine.simulate_s", simulate_s);
    r.put(
        "engine.simulate_ns_per_arrival",
        ratio(simulate_s * 1e9, arrivals_n as f64),
    );
    r.put("engine.shard_search_ns", median(&shard_ns));
    r.put("engine.canonical_search_ns", median(&canon_ns));
    r.put("index.merge_topk_ns", median(&merge_ns));
    r.put(
        "core.prune_skip_ratio",
        ratio(prune_skipped as f64, considered as f64),
    );
    for (key, n) in ["served", "rejected", "expired", "shed"]
        .iter()
        .zip(dispositions)
    {
        r.put(&format!("serving.{key}"), n as f64);
    }
    r.put("replay_mismatches", mismatches as f64);
    Ok(r)
}
