//! Hand-built queries nested past `MAX_NESTING_DEPTH` are a typed
//! `InvalidQuery` everywhere a query is planned, before any unbounded
//! recursion over them.

use boss_core::{BossConfig, QueryPlan};
use boss_engine::{Boss, Error, Iiu, Lucene, SearchEngine, ShardTiming, Sharded};
use boss_iiu::IiuConfig;
use boss_index::shard::ShardedIndex;
use boss_index::{IndexBuilder, InvertedIndex, QueryExpr, MAX_NESTING_DEPTH};
use boss_luceneish::LuceneConfig;

fn corpus() -> InvertedIndex {
    IndexBuilder::new()
        .add_documents(["alpha beta", "beta gamma", "alpha gamma", "gamma"])
        .build()
        .expect("corpus builds")
}

/// `levels` operators nested in a chain, alternating And and Or, over
/// terms the corpus knows.
fn chain(levels: usize) -> QueryExpr {
    (0..levels).fold(QueryExpr::term("alpha"), |inner, i| {
        let subs = [QueryExpr::term("beta"), inner];
        if i % 2 == 0 {
            QueryExpr::and(subs)
        } else {
            QueryExpr::or(subs)
        }
    })
}

fn assert_too_deep<T: std::fmt::Debug>(result: Result<T, Error>, who: &str) {
    match result {
        Err(Error::InvalidQuery { reason }) => {
            assert!(reason.contains("nested deeper"), "{who}: {reason}");
        }
        other => panic!("{who}: expected InvalidQuery, got {other:?}"),
    }
}

#[test]
fn deep_hand_built_queries_are_rejected_by_the_planner_and_every_engine() {
    let index = corpus();
    let deep = chain(200);
    assert_too_deep(
        QueryPlan::from_expr(&index, &deep, &BossConfig::default()),
        "QueryPlan::from_expr",
    );
    let mut boss = Boss::new(&index, BossConfig::default());
    assert_too_deep(boss.search(&deep, 10), "BOSS");
    let mut iiu = Iiu::new(&index, IiuConfig::default());
    assert_too_deep(iiu.search(&deep, 10), "IIU");
    let mut lucene = Lucene::new(&index, LuceneConfig::default());
    assert_too_deep(lucene.search(&deep, 10), "Lucene");
    assert_too_deep(boss.search_host_merged(&deep, 10), "BOSS host-merged");
    let split = ShardedIndex::split(&index, 2).expect("splits");
    let leaves = split
        .shards()
        .iter()
        .map(|s| vec![Boss::new(s, BossConfig::default())])
        .collect();
    let canonical = Boss::new(&index, BossConfig::default());
    let mut sharded = Sharded::new(canonical, &split, leaves, ShardTiming::ScatterGather);
    assert_too_deep(sharded.search(&deep, 10), "scatter-gather");

    // At the bound the same chain plans and runs.
    let deepest = chain(MAX_NESTING_DEPTH);
    assert!(QueryPlan::from_expr(&index, &deepest, &BossConfig::default()).is_ok());
    assert!(boss.search(&deepest, 10).is_ok());
}
