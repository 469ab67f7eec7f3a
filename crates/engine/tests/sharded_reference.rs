//! The honest multi-device model must answer what a single index would:
//! `Sharded<Boss>` in `ScatterGather` mode returns exactly the exhaustive
//! reference top-k at every node count, including for queries whose
//! terms some shards lack (a leaf then runs the query restricted to the
//! terms it holds, instead of failing and returning nothing).

use boss_core::BossConfig;
use boss_engine::{Boss, Error, SearchEngine, ShardTiming, Sharded};
use boss_index::shard::ShardedIndex;
use boss_index::{reference, InvertedIndex, QueryExpr};
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::{QuerySampler, QueryType};

const SHARD_COUNTS: [u32; 4] = [2, 4, 8, 16];

fn smoke_corpus() -> InvertedIndex {
    CorpusSpec::ccnews_like(Scale::Smoke)
        .build()
        .expect("corpus builds")
}

/// A scatter-gather pool of one two-core BOSS device per shard.
fn pool<'a>(index: &'a InvertedIndex, sharded: &'a ShardedIndex) -> Sharded<'a, Boss<'a>> {
    let config = BossConfig::with_cores(2);
    let leaves = sharded
        .shards()
        .iter()
        .map(|s| vec![Boss::new(s, config.clone())])
        .collect();
    Sharded::new(
        Boss::new(index, config.clone()),
        sharded,
        leaves,
        ShardTiming::ScatterGather,
    )
}

#[test]
fn scatter_gather_topk_matches_reference_at_2_4_8_16_shards() {
    let index = smoke_corpus();
    let mut sampler = QuerySampler::new(&index, 42).expect("corpus vocabulary");
    let mut queries = Vec::new();
    for qt in [QueryType::Q1, QueryType::Q2, QueryType::Q3, QueryType::Q5] {
        for _ in 0..10 {
            queries.push(sampler.sample(qt).expect("corpus samples").expr);
        }
    }
    let k = 1000;
    let expected: Vec<_> = queries
        .iter()
        .map(|q| reference::evaluate(&index, q, k).expect("reference runs"))
        .collect();
    for n_shards in SHARD_COUNTS {
        let sharded = ShardedIndex::split(&index, n_shards).expect("splits");
        let mut pool = pool(&index, &sharded);
        for (q, want) in queries.iter().zip(&expected) {
            let got = pool.search(q, k).expect("sharded search runs");
            assert_eq!(&got.hits, want, "{n_shards} shards: {q}");
        }
    }
}

#[test]
fn unknown_term_everywhere_is_error_at_2_4_8_16_shards() {
    // A term no shard holds fails the query, alone or inside a union or
    // intersection, just as it does on the single index; the pool then
    // keeps answering.
    let index = smoke_corpus();
    let mut sampler = QuerySampler::new(&index, 7).expect("corpus vocabulary");
    let known = sampler.sample(QueryType::Q1).expect("corpus samples").expr;
    let missing = QueryExpr::term("zz-not-in-the-corpus");
    let bad = [
        missing.clone(),
        QueryExpr::or([known.clone(), missing.clone()]),
        QueryExpr::and([known.clone(), missing]),
    ];
    for n_shards in SHARD_COUNTS {
        let sharded = ShardedIndex::split(&index, n_shards).expect("splits");
        let mut pool = pool(&index, &sharded);
        for q in &bad {
            assert!(
                matches!(
                    reference::evaluate(&index, q, 10),
                    Err(Error::UnknownTerm { .. })
                ),
                "reference: {q}"
            );
            assert!(
                matches!(pool.search(q, 10), Err(Error::UnknownTerm { .. })),
                "{n_shards} shards: {q}"
            );
        }
        let hits = pool.search(&known, 10).expect("known query runs").hits;
        assert_eq!(
            hits,
            reference::evaluate(&index, &known, 10).expect("reference runs")
        );
    }
}
