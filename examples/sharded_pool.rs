//! A terabyte-scale serving story in miniature: shard a corpus across a
//! pool of SCM memory nodes (Figure 2), give each node its own BOSS
//! device, and serve queries root-to-leaves — watching what crosses the
//! shared CXL link.
//!
//! Run with: `cargo run --release -p boss-examples --bin sharded_pool`

use boss_core::BossConfig;
use boss_engine::{Boss, SearchEngine, ShardTiming, Sharded};
use boss_index::reference;
use boss_index::shard::ShardedIndex;
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::queries::{QuerySampler, QueryType};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let index = CorpusSpec::ccnews_like(Scale::Smoke).build()?;
    println!("corpus: {} docs, {} terms", index.n_docs(), index.n_terms());

    let sharded = ShardedIndex::split(&index, 4)?;
    println!("split into {} shards:", sharded.n_shards());
    for (i, s) in sharded.shards().iter().enumerate() {
        println!("  node {i}: {} docs, {} terms", s.n_docs(), s.n_terms());
    }

    let config = BossConfig::with_cores(2);
    let leaves = sharded
        .shards()
        .iter()
        .map(|s| vec![Boss::new(s, config.clone())])
        .collect();
    let mut pool = Sharded::new(
        Boss::new(&index, config),
        &sharded,
        leaves,
        ShardTiming::ScatterGather,
    );
    let mut sampler = QuerySampler::new(&index, 11)?;
    let k = 10;

    println!("\nquery\tlink_bytes\thostside_bytes\tlatency_us\thits");
    for qt in [QueryType::Q1, QueryType::Q3, QueryType::Q5] {
        let q = sampler.sample(qt)?.expr;
        let out = pool.search(&q, k)?;
        // A host-side design ships every candidate; each BOSS node ships
        // at most k of the candidates in its docID range.
        let candidates = reference::candidates(&index, &q)?;
        let bases = sharded.bases();
        let link: usize = (0..bases.len())
            .map(|s| {
                let end = bases.get(s + 1).copied().unwrap_or(u32::MAX);
                let local = candidates.partition_point(|&d| d < end)
                    - candidates.partition_point(|&d| d < bases[s]);
                local.min(k) * 8
            })
            .sum();
        println!(
            "{}\t{}\t{}\t{:.1}\t{}",
            qt.label(),
            link,
            candidates.len() * 8,
            out.cycles as f64 / 1e3,
            out.hits.len()
        );
        // The pool's merged answer is exactly a single-index search.
        assert_eq!(
            out.hits,
            reference::evaluate(&index, &q, k)?,
            "pooled top-k equals the single-index top-k"
        );
    }
    println!("\nhardware top-k keeps the shared link at k x 8 bytes per node per query.");
    Ok(())
}
