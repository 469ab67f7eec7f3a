//! The generic, deterministic batch executor.
//!
//! Each worker thread owns a [`SearchEngine::fork`], so each worker also
//! owns its own decoded-block cache when one is configured. Hit/miss
//! patterns therefore vary with the thread count, but outcomes do not:
//! the cache is functional-speed only (see the crate-level determinism
//! contract).

use crate::SearchEngine;
use boss_core::{EvalCounts, QueryOutcome, SchedPolicy};
use boss_index::{Error, QueryExpr};
use boss_scm::MemStats;

/// Aggregate result of a batch run on any [`SearchEngine`].
#[derive(Debug, Clone)]
pub struct EngineBatch {
    /// Per-query outcomes, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Simulated makespan across the engine's lanes, in engine cycles.
    pub makespan_cycles: u64,
    /// Merged memory traffic.
    pub mem: MemStats,
    /// Merged evaluation counters.
    pub eval: EvalCounts,
}

impl EngineBatch {
    /// Batch wall-clock seconds at `clock_ghz`.
    pub fn seconds(&self, clock_ghz: f64) -> f64 {
        self.makespan_cycles as f64 / (clock_ghz * 1e9)
    }

    /// Batch throughput in queries/second at `clock_ghz`.
    pub fn throughput_qps(&self, clock_ghz: f64) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / self.seconds(clock_ghz)
    }
}

/// Runs query batches on a [`SearchEngine`], optionally sharded across
/// OS threads, with results **bit-identical at every thread count** (see
/// the crate-level determinism contract).
///
/// Wall-clock parallelism (how many OS threads execute queries) is
/// independent of the *simulated* parallelism (the engine's lanes): the
/// simulated schedule is always replayed serially from per-query cycle
/// counts after execution.
#[derive(Debug, Clone)]
pub struct BatchExecutor {
    threads: usize,
    policy: SchedPolicy,
}

impl Default for BatchExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchExecutor {
    /// An executor using every available CPU, FIFO scheduling.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        BatchExecutor {
            threads,
            policy: SchedPolicy::Fifo,
        }
    }

    /// An executor pinned to `threads` OS threads (0 is clamped to 1).
    pub fn with_threads(threads: usize) -> Self {
        BatchExecutor {
            threads: threads.max(1),
            policy: SchedPolicy::Fifo,
        }
    }

    /// Replaces the simulated scheduling policy.
    #[must_use]
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// OS threads this executor shards batches across.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The simulated scheduling policy.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Executes `queries` on forks of `engine` and replays the simulated
    /// lane schedule: [`BatchExecutor::execute`] then
    /// [`BatchExecutor::schedule`]. Outcomes are returned in submission
    /// order; merged stats are summed in submission order.
    ///
    /// `engine` itself is only used for forking and the scheduling hooks
    /// — its accumulators are left untouched, so a caller that wants
    /// running totals keeps using [`SearchEngine::search`] directly.
    ///
    /// # Errors
    ///
    /// The first (in submission order) query that fails to plan, with no
    /// partial results.
    pub fn run<E: SearchEngine + Send>(
        &self,
        engine: &E,
        queries: &[QueryExpr],
        k: usize,
    ) -> Result<EngineBatch, Error> {
        let outcomes = self.execute(engine, queries, k)?;
        Ok(self.schedule(engine, queries, outcomes))
    }

    /// Executes every query on forks of `engine`, sharded across this
    /// executor's OS threads, and returns the outcomes in submission
    /// order. Per-query execution is pure, so the outcomes do not depend
    /// on the thread count — nor on the engine's lane count, which only
    /// [`BatchExecutor::schedule`] reads.
    ///
    /// # Errors
    ///
    /// The first (in submission order) query that fails, with no partial
    /// results.
    pub fn execute<E: SearchEngine + Send>(
        &self,
        engine: &E,
        queries: &[QueryExpr],
        k: usize,
    ) -> Result<Vec<QueryOutcome>, Error> {
        let n = queries.len();
        let workers = self.threads.min(n);
        let mut results: Vec<Option<Result<QueryOutcome, Error>>> = (0..n).map(|_| None).collect();
        if workers <= 1 {
            let mut fork = engine.fork();
            for (slot, q) in results.iter_mut().zip(queries) {
                *slot = Some(fork.search(q, k));
            }
        } else {
            // Fork on the caller's thread (forks borrow the index, which
            // is Sync), then hand each worker one contiguous chunk.
            let forks: Vec<E> = (0..workers).map(|_| engine.fork()).collect();
            let chunk = n.div_ceil(workers);
            crossbeam::thread::scope(|s| {
                let mut rest_results = results.as_mut_slice();
                let mut rest_queries = queries;
                for mut fork in forks {
                    let take = chunk.min(rest_results.len());
                    let (slots, later_slots) = rest_results.split_at_mut(take);
                    let (qs, later_queries) = rest_queries.split_at(take);
                    rest_results = later_slots;
                    rest_queries = later_queries;
                    s.spawn(move || {
                        for (slot, q) in slots.iter_mut().zip(qs) {
                            *slot = Some(fork.search(q, k));
                        }
                    });
                }
            });
        }
        // Surface the first failure in submission order.
        results
            .into_iter()
            .map(|r| r.expect("every query executed"))
            .collect()
    }

    /// Replays the simulated lane schedule of already-executed `outcomes`
    /// (one per query, in submission order, as [`BatchExecutor::execute`]
    /// returns them) on `engine`'s lanes, merges their stats in
    /// submission order, and floors the makespan at the bandwidth
    /// roofline. Pure: it executes nothing, so one execution can be
    /// scheduled for many lane counts of the same engine configuration.
    ///
    /// # Panics
    ///
    /// If `outcomes` and `queries` differ in length.
    pub fn schedule<E: SearchEngine>(
        &self,
        engine: &E,
        queries: &[QueryExpr],
        outcomes: Vec<QueryOutcome>,
    ) -> EngineBatch {
        assert_eq!(outcomes.len(), queries.len(), "one outcome per query");
        if outcomes.is_empty() {
            return EngineBatch {
                outcomes,
                makespan_cycles: 0,
                mem: MemStats::new(),
                eval: EvalCounts::default(),
            };
        }

        // Merge stats in submission order (the merges are commutative
        // u64 sums/maxima, so this matches any execution order bit for
        // bit).
        let mut mem = MemStats::new();
        let mut eval = EvalCounts::default();
        for o in &outcomes {
            mem.merge(&o.mem);
            eval.merge(&o.eval);
        }

        // Replay the simulated schedule serially: greedy earliest-free
        // lane(s) per query in policy order, using the per-query cycle
        // counts. Never observes OS-thread interleaving.
        let mut order: Vec<usize> = (0..queries.len()).collect();
        if self.policy == SchedPolicy::Sjf {
            order.sort_by_key(|&i| engine.work_estimate(&queries[i]));
        }
        let lanes = engine.lanes().max(1);
        let mut busy = vec![0u64; lanes];
        for &qi in &order {
            let gang = engine.gang_width(&queries[qi]).clamp(1, lanes);
            let mut idx: Vec<usize> = (0..lanes).collect();
            idx.sort_by_key(|&i| busy[i]);
            let chosen = &idx[..gang];
            let start = chosen
                .iter()
                .map(|&i| busy[i])
                .max()
                .expect("gang non-empty");
            let end = start + outcomes[qi].cycles;
            for &i in chosen {
                busy[i] = end;
            }
        }
        let core_limited = busy.into_iter().max().unwrap_or(0);
        let makespan_cycles = core_limited.max(engine.bandwidth_limit_cycles(&mem));
        EngineBatch {
            outcomes,
            makespan_cycles,
            mem,
            eval,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Boss, Lucene};
    use boss_core::BossConfig;
    use boss_index::{reference, IndexBuilder, InvertedIndex};
    use boss_luceneish::LuceneConfig;

    fn corpus() -> InvertedIndex {
        let docs: Vec<String> = (0u32..600)
            .map(|i| {
                let mut t = String::from("all");
                for (m, word) in [
                    (2, "even"),
                    (3, "three"),
                    (5, "five"),
                    (7, "seven"),
                    (11, "eleven"),
                    (40, "rare"),
                ] {
                    if i % m == 0 {
                        t.push(' ');
                        t.push_str(word);
                    }
                }
                t
            })
            .collect();
        IndexBuilder::new()
            .add_documents(docs.iter().map(String::as_str))
            .build()
            .unwrap()
    }

    /// A union of more distinct terms than one core's four streams.
    fn wide() -> QueryExpr {
        QueryExpr::or(
            ["all", "even", "three", "five", "seven", "eleven"]
                .iter()
                .map(|t| QueryExpr::term(*t)),
        )
    }

    fn queries() -> Vec<QueryExpr> {
        let mut qs: Vec<QueryExpr> = (0..9)
            .map(|i| match i % 3 {
                0 => QueryExpr::term("even"),
                1 => QueryExpr::and([QueryExpr::term("three"), QueryExpr::term("five")]),
                _ => QueryExpr::or([QueryExpr::term("even"), QueryExpr::term("three")]),
            })
            .collect();
        qs.insert(4, wide());
        qs
    }

    /// Long jobs around short ones: FIFO strands a long job at the tail.
    fn skewed_tail() -> Vec<QueryExpr> {
        ["all", "rare", "rare", "rare", "all"]
            .iter()
            .map(|t| QueryExpr::term(*t))
            .collect()
    }

    /// The native BOSS batch driver's schedule, re-implemented apart from
    /// the executor's replay as a greedy list-scheduling oracle: per-query
    /// outcomes come from a plain `search` loop (whose accumulators give
    /// the batch stats), each query goes, in FIFO or SJF-by-`work_estimate`
    /// order, to the earliest-free gang of lanes, and the bandwidth
    /// roofline floors the makespan.
    fn native_batch_driver<E: SearchEngine>(
        engine: &E,
        qs: &[QueryExpr],
        k: usize,
        policy: SchedPolicy,
    ) -> EngineBatch {
        let mut eng = engine.fork();
        let outcomes: Vec<QueryOutcome> = qs.iter().map(|q| eng.search(q, k).unwrap()).collect();
        let mut order: Vec<usize> = (0..qs.len()).collect();
        if policy == SchedPolicy::Sjf {
            order.sort_by_key(|&i| engine.work_estimate(&qs[i]));
        }
        let mut free_at = vec![0u64; engine.lanes().max(1)];
        for i in order {
            let width = engine.gang_width(&qs[i]).clamp(1, free_at.len());
            let mut gang: Vec<usize> = Vec::new();
            while gang.len() < width {
                let lane = (0..free_at.len())
                    .filter(|l| !gang.contains(l))
                    .min_by_key(|&l| (free_at[l], l))
                    .unwrap();
                gang.push(lane);
            }
            let end = gang.iter().map(|&l| free_at[l]).max().unwrap() + outcomes[i].cycles;
            for l in gang {
                free_at[l] = end;
            }
        }
        let mem = eng.mem_stats().clone();
        let roofline = engine.bandwidth_limit_cycles(&mem);
        EngineBatch {
            outcomes,
            makespan_cycles: free_at.into_iter().max().unwrap().max(roofline),
            mem,
            eval: *eng.eval_counts(),
        }
    }

    /// Runs `qs` through the executor and the native driver, asserts they
    /// agree (outcomes in submission order), and returns the executor's
    /// batch.
    fn check<E: SearchEngine + Send>(
        engine: &E,
        qs: &[QueryExpr],
        policy: SchedPolicy,
    ) -> EngineBatch {
        let ctx = format!("{} {policy:?}", engine.label());
        let want = native_batch_driver(engine, qs, 10, policy);
        let got = BatchExecutor::with_threads(2)
            .with_policy(policy)
            .run(engine, qs, 10)
            .unwrap();
        assert_eq!(got.makespan_cycles, want.makespan_cycles, "{ctx}");
        assert_eq!(got.mem, want.mem, "{ctx}");
        assert_eq!(got.eval, want.eval, "{ctx}");
        assert_eq!(got.outcomes, want.outcomes, "{ctx}");
        got
    }

    fn boss(idx: &InvertedIndex, cores: u32) -> Boss<'_> {
        Boss::new(idx, BossConfig::with_cores(cores))
    }

    #[test]
    fn matches_the_native_boss_batch_driver() {
        let idx = corpus();
        let (qs, skewed) = (queries(), skewed_tail());
        for policy in [SchedPolicy::Fifo, SchedPolicy::Sjf] {
            for cores in [1, 2, 3, 8] {
                check(&boss(&idx, cores), &qs, policy);
                check(&boss(&idx, cores), &skewed, policy);
            }
        }
        // The wide union gangs two of three lanes; one lane caps it.
        assert_eq!(boss(&idx, 3).gang_width(&wide()), 2);
        assert_eq!(boss(&idx, 1).gang_width(&wide()), 1);
    }

    #[test]
    fn batch_parallelism_shrinks_makespan() {
        let idx = corpus();
        let qs = queries();
        for policy in [SchedPolicy::Fifo, SchedPolicy::Sjf] {
            let one = check(&boss(&idx, 1), &qs, policy);
            let eight = check(&boss(&idx, 8), &qs, policy);
            assert!(eight.makespan_cycles < one.makespan_cycles, "{policy:?}");
            assert!(eight.throughput_qps(1.0) > one.throughput_qps(1.0));
            // Functional results are identical across lane counts.
            for (a, b) in one.outcomes.iter().zip(&eight.outcomes) {
                assert_eq!(a.hits, b.hits, "{policy:?}");
            }
        }
    }

    #[test]
    fn batch_merges_stats() {
        let idx = corpus();
        let b = check(&boss(&idx, 2), &queries(), SchedPolicy::Fifo);
        let mem: u64 = b.outcomes.iter().map(|o| o.mem.total_bytes()).sum();
        let scored: u64 = b.outcomes.iter().map(|o| o.eval.docs_scored).sum();
        assert_eq!(b.mem.total_bytes(), mem);
        assert_eq!(b.eval.docs_scored, scored);
        assert!(scored > 0);
    }

    #[test]
    fn sjf_never_worse_than_fifo_for_skewed_tail() {
        // A long job submitted last under FIFO pushes the makespan out on
        // two lanes; SJF runs the short jobs around it.
        let idx = corpus();
        let fifo = check(&boss(&idx, 2), &skewed_tail(), SchedPolicy::Fifo);
        let sjf = check(&boss(&idx, 2), &skewed_tail(), SchedPolicy::Sjf);
        assert!(sjf.makespan_cycles <= fifo.makespan_cycles);
        for (a, b) in fifo.outcomes.iter().zip(&sjf.outcomes) {
            assert_eq!(a.hits, b.hits);
        }
    }

    #[test]
    fn outcomes_in_submission_order_under_sjf() {
        // SJF runs "rare" first on one lane, yet the first outcome is
        // still the one for "all".
        let idx = corpus();
        let qs = [QueryExpr::term("all"), QueryExpr::term("rare")];
        let sjf = check(&boss(&idx, 1), &qs, SchedPolicy::Sjf);
        assert!(sjf.outcomes[0].eval.docs_scored > sjf.outcomes[1].eval.docs_scored);
    }

    #[test]
    fn lucene_threads_scale_batch_throughput() {
        // Lucene's threads are lanes too.
        let idx = corpus();
        let same: Vec<QueryExpr> = (0..16).map(|_| QueryExpr::term("even")).collect();
        let lucene = |threads| Lucene::new(&idx, LuceneConfig::with_threads(threads));
        for policy in [SchedPolicy::Fifo, SchedPolicy::Sjf] {
            let l1 = check(&lucene(1), &same, policy);
            let l8 = check(&lucene(8), &same, policy);
            assert!(l8.makespan_cycles < l1.makespan_cycles, "{policy:?}");
            let (q1, q8) = (l1.throughput_qps(2.7), l8.throughput_qps(2.7));
            assert!(q8 > 4.0 * q1, "{policy:?}: {q8} vs {q1}");
        }
    }

    #[test]
    fn zero_core_device_searches_and_runs_on_one_lane() {
        let idx = corpus();
        let mut zero = Boss::new(&idx, BossConfig::with_cores(0));
        let q = QueryExpr::term("even");
        let out = zero.device_mut().search_expr(&q, 10).unwrap();
        assert_eq!(out.hits, reference::evaluate(&idx, &q, 10).unwrap());
        let one = Boss::new(&idx, BossConfig::with_cores(1));
        let exec = BatchExecutor::with_threads(1);
        let a = exec.run(&zero, &queries(), 10).unwrap();
        let b = exec.run(&one, &queries(), 10).unwrap();
        assert!(a.makespan_cycles > 0);
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn parallel_equals_serial() {
        let idx = corpus();
        let qs = queries();
        let eng = Boss::new(&idx, BossConfig::with_cores(2));
        let serial = BatchExecutor::with_threads(1).run(&eng, &qs, 10).unwrap();
        for threads in [2usize, 4, 7] {
            let par = BatchExecutor::with_threads(threads)
                .run(&eng, &qs, 10)
                .unwrap();
            assert_eq!(
                par.makespan_cycles, serial.makespan_cycles,
                "{threads} threads"
            );
            assert_eq!(par.mem, serial.mem, "{threads} threads");
            assert_eq!(par.eval, serial.eval, "{threads} threads");
            for (a, b) in par.outcomes.iter().zip(&serial.outcomes) {
                assert_eq!(a.hits, b.hits, "{threads} threads");
                assert_eq!(a.cycles, b.cycles, "{threads} threads");
            }
        }
    }

    #[test]
    fn bulk_score_invariant_across_threads() {
        // The bulk hot loop is wall-clock only: every observable of a
        // batch (per-query hits/cycles, merged stats, makespan) matches
        // the scalar engine at every thread count. Workers reuse their
        // fork's top-k heap and scoring scratch across queries, which
        // must not leak state between queries either.
        let idx = corpus();
        let qs = queries();
        let scalar = Boss::new(&idx, BossConfig::with_cores(2).with_bulk_score(false));
        let base = BatchExecutor::with_threads(1)
            .run(&scalar, &qs, 10)
            .unwrap();
        for threads in [1usize, 2, 4] {
            let bulk = Boss::new(&idx, BossConfig::with_cores(2).with_bulk_score(true));
            let b = BatchExecutor::with_threads(threads)
                .run(&bulk, &qs, 10)
                .unwrap();
            assert_eq!(b.makespan_cycles, base.makespan_cycles, "{threads} threads");
            assert_eq!(b.mem, base.mem, "{threads} threads");
            assert_eq!(b.eval, base.eval, "{threads} threads");
            for (a, s) in b.outcomes.iter().zip(&base.outcomes) {
                assert_eq!(a.hits, s.hits, "{threads} threads");
                assert_eq!(a.cycles, s.cycles, "{threads} threads");
            }
        }
    }

    #[test]
    fn error_reported_in_submission_order_without_partial_results() {
        let idx = corpus();
        let qs = vec![
            QueryExpr::term("even"),
            QueryExpr::term("missing"),
            QueryExpr::term("nope"),
        ];
        let eng = Boss::new(&idx, BossConfig::default());
        let err = BatchExecutor::with_threads(2)
            .run(&eng, &qs, 5)
            .unwrap_err();
        assert!(format!("{err}").contains("missing"), "got: {err}");
        // The caller's engine accumulators stay untouched.
        use crate::SearchEngine as _;
        assert_eq!(eng.mem_stats().total_bytes(), 0);
    }

    #[test]
    fn empty_batch_is_empty() {
        let idx = corpus();
        let eng = Boss::new(&idx, BossConfig::default());
        let b = BatchExecutor::with_threads(3).run(&eng, &[], 5).unwrap();
        assert_eq!(b.makespan_cycles, 0);
        assert!(b.outcomes.is_empty());
        assert_eq!(b.throughput_qps(1.0), 0.0);
    }
}
