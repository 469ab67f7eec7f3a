//! The executor's hard guarantee, checked end to end: batch results are
//! bit-identical at every thread count, for every engine and every BOSS
//! early-termination mode. Per-query outcomes are also independent of
//! the lane count, which is what lets one execution be scheduled for a
//! whole core sweep.

use boss_core::{BossConfig, EtMode};
use boss_engine::{
    BatchExecutor, Boss, EngineBatch, Iiu, Lucene, SearchEngine, ShardTiming, Sharded,
};
use boss_iiu::IiuConfig;
use boss_index::shard::ShardedIndex;
use boss_index::{InvertedIndex, QueryExpr};
use boss_luceneish::LuceneConfig;
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::{QuerySampler, ALL_QUERY_TYPES};

fn corpus() -> InvertedIndex {
    CorpusSpec::ccnews_like(Scale::Smoke)
        .build()
        .expect("corpus builds")
}

/// A mixed suite covering all six Table II query types.
fn suite(index: &InvertedIndex) -> Vec<QueryExpr> {
    let mut sampler = QuerySampler::new(index, 7).unwrap();
    let mut queries = Vec::new();
    for qt in ALL_QUERY_TYPES {
        for _ in 0..3 {
            queries.push(sampler.sample(qt).unwrap().expr);
        }
    }
    queries
}

fn assert_batches_identical(a: &EngineBatch, b: &EngineBatch, ctx: &str) {
    assert_eq!(a.makespan_cycles, b.makespan_cycles, "{ctx}: makespan");
    assert_eq!(a.mem, b.mem, "{ctx}: merged MemStats");
    assert_eq!(a.eval, b.eval, "{ctx}: merged EvalCounts");
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{ctx}: outcome count");
    for (i, (x, y)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        // QueryOutcome equality covers hits, cycles, per-query traffic,
        // and per-query counters.
        assert_eq!(x, y, "{ctx}: outcome {i}");
    }
}

fn check_thread_invariance<E: SearchEngine + Send>(engine: &E, queries: &[QueryExpr], k: usize) {
    let label = engine.label();
    let serial = BatchExecutor::with_threads(1)
        .run(engine, queries, k)
        .expect("runs");
    for threads in [2usize, 4] {
        let parallel = BatchExecutor::with_threads(threads)
            .run(engine, queries, k)
            .expect("runs");
        assert_batches_identical(&parallel, &serial, &format!("{label} at {threads} threads"));
    }
}

#[test]
fn boss_deterministic_across_threads_all_et_modes() {
    let index = corpus();
    let queries = suite(&index);
    for et in [EtMode::Exhaustive, EtMode::BlockOnly, EtMode::Full] {
        let engine = Boss::new(&index, BossConfig::with_cores(4).with_et(et).with_k(50));
        check_thread_invariance(&engine, &queries, 50);
    }
}

#[test]
fn iiu_deterministic_across_threads() {
    let index = corpus();
    let queries = suite(&index);
    let engine = Iiu::new(&index, IiuConfig::with_cores(4));
    check_thread_invariance(&engine, &queries, 50);
}

#[test]
fn lucene_deterministic_across_threads() {
    let index = corpus();
    let queries = suite(&index);
    let engine = Lucene::new(&index, LuceneConfig::with_threads(4));
    check_thread_invariance(&engine, &queries, 50);
}

#[test]
fn sjf_schedule_is_also_thread_invariant() {
    // SJF reorders the simulated schedule; that reordering must come
    // from work estimates, never from OS-thread completion order.
    let index = corpus();
    let queries = suite(&index);
    let engine = Boss::new(&index, BossConfig::with_cores(4).with_k(50));
    let exec = |threads| {
        BatchExecutor::with_threads(threads)
            .with_policy(boss_engine::SchedPolicy::Sjf)
            .run(&engine, &queries, 50)
            .expect("runs")
    };
    let serial = exec(1);
    for threads in [2usize, 4] {
        assert_batches_identical(
            &exec(threads),
            &serial,
            &format!("SJF at {threads} threads"),
        );
    }
}

/// Lane counts of the figures' core sweep.
const LANES: [u32; 4] = [1, 2, 4, 8];

/// Executes `queries` on `make(l)` for every lane count `l` and checks
/// that the outcomes never change, and that scheduling the first lane
/// count's outcomes on each engine reproduces that engine's own `run`.
fn check_lane_invariance<E: SearchEngine + Send>(
    make: impl Fn(u32) -> E,
    queries: &[QueryExpr],
    k: usize,
) {
    let exec = BatchExecutor::with_threads(2);
    let first = exec.execute(&make(LANES[0]), queries, k).expect("runs");
    for lanes in LANES {
        let engine = make(lanes);
        let ctx = format!("{} at {lanes} lanes", engine.label());
        assert_eq!(engine.lanes(), lanes as usize, "{ctx}");
        let outcomes = exec.execute(&engine, queries, k).expect("runs");
        assert_eq!(outcomes, first, "{ctx}: outcomes");
        for policy in [
            boss_engine::SchedPolicy::Fifo,
            boss_engine::SchedPolicy::Sjf,
        ] {
            let exec = exec.clone().with_policy(policy);
            let scheduled = exec.schedule(&engine, queries, first.clone());
            let run = exec.run(&engine, queries, k).expect("runs");
            assert_batches_identical(&scheduled, &run, &format!("{ctx} {policy:?}"));
        }
    }
}

#[test]
fn outcomes_do_not_depend_on_the_lane_count() {
    let index = corpus();
    let queries = suite(&index);
    let k = 50;
    check_lane_invariance(
        |l| Boss::new(&index, BossConfig::with_cores(l).with_k(k)),
        &queries,
        k,
    );
    check_lane_invariance(|l| Iiu::new(&index, IiuConfig::with_cores(l)), &queries, k);
    check_lane_invariance(
        |l| Lucene::new(&index, LuceneConfig::with_threads(l)),
        &queries,
        k,
    );
    let split = ShardedIndex::split(&index, 3).expect("splits");
    for timing in [ShardTiming::Logical, ShardTiming::ScatterGather] {
        check_lane_invariance(
            |l| {
                let boss = |ix| Boss::new(ix, BossConfig::with_cores(l).with_k(k));
                let leaves = split.shards().iter().map(|s| vec![boss(s)]).collect();
                Sharded::new(boss(&index), &split, leaves, timing)
            },
            &queries,
            k,
        );
    }
}
