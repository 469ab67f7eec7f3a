//! Ablation: memory-pool scale-out (Figure 2 / Section III-A).
//!
//! Splits the corpus across 1..16 memory nodes, each with its own BOSS
//! device, behind one shared 64 GB/s CXL-like link (`Sharded` in
//! scatter-gather timing), and compares the interconnect traffic of
//! BOSS's hardware top-k against a host-side design that ships every
//! node's full scored candidate list to the CPU.

use boss_bench::{f, header, row, BenchArgs};
use boss_core::BossConfig;
use boss_engine::{Boss, SearchEngine, ShardTiming, Sharded};
use boss_index::reference;
use boss_index::shard::ShardedIndex;
use boss_workload::corpus::CorpusSpec;
use boss_workload::queries::{QuerySampler, QueryType};

fn main() {
    let args = BenchArgs::parse();
    let index = args.build_corpus("ccnews-like", &CorpusSpec::ccnews_like(args.scale));
    let mut sampler = QuerySampler::new(&index, args.seed).expect("corpus vocabulary");
    let queries: Vec<_> = (0..args.queries_per_type.max(4))
        .map(|i| {
            sampler
                .sample(if i % 2 == 0 {
                    QueryType::Q3
                } else {
                    QueryType::Q5
                })
                .expect("corpus samples")
                .expr
        })
        .collect();
    // Every matching document, ascending: what a host-side design ships.
    let candidates: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| reference::candidates(&index, q).expect("candidates"))
        .collect();

    println!(
        "# Ablation: pool scale-out, k={} — interconnect bytes per query",
        args.k
    );
    header(&[
        "nodes",
        "topk_link_bytes",
        "hostside_link_bytes",
        "reduction_x",
        "mean_query_us",
    ]);
    let config = BossConfig::with_cores(2);
    for nodes in [1u32, 2, 4, 8, 16] {
        let sharded = ShardedIndex::split(&index, nodes).expect("splits");
        let leaves = sharded
            .shards()
            .iter()
            .map(|s| vec![Boss::new(s, config.clone())])
            .collect();
        let mut pool = Sharded::new(
            Boss::new(&index, config.clone()),
            &sharded,
            leaves,
            ShardTiming::ScatterGather,
        );
        let bases = sharded.bases();
        let mut link = 0u64;
        let mut host = 0u64;
        let mut cycles = 0u64;
        for (q, cands) in queries.iter().zip(&candidates) {
            cycles += pool.search(q, args.k).expect("pool search runs").cycles;
            host += cands.len() as u64 * 8;
            // Each node ships at most k of the candidates in its docID range.
            for (s, &base) in bases.iter().enumerate() {
                let end = bases.get(s + 1).copied().unwrap_or(u32::MAX);
                let local =
                    cands.partition_point(|&d| d < end) - cands.partition_point(|&d| d < base);
                link += local.min(args.k) as u64 * 8;
            }
        }
        let n = queries.len() as f64;
        row(&[
            nodes.to_string(),
            f(link as f64 / n),
            f(host as f64 / n),
            f(host as f64 / link.max(1) as f64),
            f(cycles as f64 / n / 1e3),
        ]);
    }
    println!(
        "# top-k traffic grows with nodes*k; host-side traffic stays at the full candidate volume"
    );
}
