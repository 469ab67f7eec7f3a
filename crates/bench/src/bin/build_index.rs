//! CLI: build a synthetic corpus into a one-segment index directory for
//! `search_index` (the artifact `init(indexFile, ...)` consumes).
//!
//! Usage: `cargo run --release -p boss-bench --bin build_index -- <index-dir> [--scale smoke|small|full] [--corpus ccnews|clueweb]`
//!
//! Bad arguments exit with status 2, build and I/O failures with 1.

use boss_workload::corpus::{CorpusSpec, Scale};

/// Prints `msg` and exits with `code`.
fn fail(code: i32, msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(code);
}

fn main() {
    let mut out: Option<String> = None;
    let mut scale = Scale::Smoke;
    let mut corpus = "ccnews".to_owned();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail(2, "missing value for --scale"));
                scale = v.parse().unwrap_or_else(|e: String| fail(2, &e));
            }
            "--corpus" => {
                corpus = it
                    .next()
                    .unwrap_or_else(|| fail(2, "missing value for --corpus"));
            }
            "--help" | "-h" => {
                println!("usage: build_index <index directory> [--scale smoke|small|full] [--corpus ccnews|clueweb]");
                return;
            }
            other => out = Some(other.to_owned()),
        }
    }
    let Some(out) = out else {
        fail(2, "missing index directory; see --help");
    };
    let spec = match corpus.as_str() {
        "ccnews" => CorpusSpec::ccnews_like(scale),
        "clueweb" => CorpusSpec::clueweb12_like(scale),
        other => fail(2, &format!("unknown corpus {other:?} (use ccnews|clueweb)")),
    };
    eprintln!("building {} ...", spec.name);
    let set = spec
        .build_segments(std::path::Path::new(&out), 1)
        .unwrap_or_else(|e| fail(1, &format!("failed to build {out}: {e}")));
    eprintln!(
        "wrote {out}: {} docs, {} terms, {:.1} MiB of segment files",
        set.n_docs(),
        set.entries().iter().map(|e| e.n_terms).sum::<u32>(),
        set.stats().segment_bytes as f64 / (1 << 20) as f64
    );
}
