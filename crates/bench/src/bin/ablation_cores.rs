//! Ablation: core scaling beyond the paper's 8, exposing the SCM
//! bandwidth ceiling — the "scale-out further" argument of Section III-A.

use boss_bench::{boss_engine, f, header, iiu_engine, row, run_lane_sweep, BenchArgs, BenchTarget};
use boss_core::EtMode;
use boss_scm::MemoryConfig;
use boss_workload::corpus::CorpusSpec;
use boss_workload::queries::QuerySampler;

fn main() {
    let args = BenchArgs::parse();
    let index = args.build_corpus("clueweb12-like", &CorpusSpec::clueweb12_like(args.scale));
    let sharded = args.shard_split(&index);
    let target = BenchTarget::new(&index, sharded.as_ref());
    let mut sampler = QuerySampler::new(&index, args.seed).expect("corpus vocabulary");
    let queries: Vec<_> = sampler
        .trec_like_mix(args.queries_per_type * 6)
        .expect("corpus samples")
        .into_iter()
        .map(|t| t.expr)
        .collect();
    println!(
        "# Ablation: core-count sweep on the TREC-like mix (k={})",
        args.k
    );
    args.print_threads_comment();
    header(&[
        "cores",
        "boss_qps",
        "iiu_qps",
        "boss_gbps",
        "iiu_gbps",
        "boss_speedup_vs_iiu",
    ]);
    // Outcomes do not depend on the core count: each engine executes the
    // mix once and is scheduled at every count.
    let cores = [1u32, 2, 4, 8, 16, 32];
    let tuning = args.tuning();
    let boss = run_lane_sweep(
        &cores,
        |c| {
            boss_engine(
                &target,
                c,
                EtMode::Full,
                MemoryConfig::optane_dcpmm(),
                args.k,
                &tuning,
            )
        },
        &queries,
        args.k,
        args.threads,
    );
    let iiu = run_lane_sweep(
        &cores,
        |c| iiu_engine(&target, c, MemoryConfig::optane_dcpmm(), &tuning),
        &queries,
        args.k,
        args.threads,
    );
    for ((c, b), i) in cores.iter().zip(&boss).zip(&iiu) {
        row(&[
            c.to_string(),
            f(b.qps),
            f(i.qps),
            f(b.bandwidth_gbps),
            f(i.bandwidth_gbps),
            f(b.qps / i.qps.max(1e-9)),
        ]);
    }
}
