//! Figure 3: compression ratio of BP/VB/OptPFD/S16/S8b and the hybrid
//! pick on seven synthetic streams and the two corpus stand-ins.
//! Higher is better; the star in the paper marks the per-dataset best.

use boss_bench::{f, header, row, BenchArgs};
use boss_compress::{best_scheme, codec_for, compression_ratio, ALL_SCHEMES};
use boss_index::BLOCK_SIZE;
use boss_workload::corpus::{CorpusSpec, Scale};
use boss_workload::streams::{generate, ALL_STREAMS};

fn stream_len(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 100_000,
        Scale::Small => 1_000_000,
        Scale::Full => 10_000_000, // the paper's 10M integers
    }
}

fn main() {
    let args = BenchArgs::parse();
    println!("# Figure 3: compression ratio (raw 4B/int over encoded), higher is better");
    println!("# paper shape: best scheme differs per dataset; hybrid matches the best");
    header(&[
        "dataset", "BP", "VB", "OptPFD", "S16", "S8b", "hybrid", "best",
    ]);

    for kind in ALL_STREAMS {
        let values = generate(kind, stream_len(args.scale), args.seed);
        // Block the stream like a posting list (128-value blocks).
        let mut cells = vec![kind.label().to_owned()];
        for s in ALL_SCHEMES {
            let codec = codec_for(s);
            let total: Option<usize> = values
                .chunks(BLOCK_SIZE)
                .map(|c| codec.encoded_len(c).ok())
                .sum();
            cells.push(match total {
                Some(t) => f(compression_ratio(values.len(), t)),
                None => "n/a".into(),
            });
        }
        let hybrid = best_scheme(&values);
        cells.push(f(compression_ratio(values.len(), hybrid.bytes)));
        cells.push(hybrid.scheme.label().to_owned());
        row(&cells);
    }

    // Corpus stand-ins: hybrid applies the best scheme per posting list.
    for (name, spec) in [
        ("clueweb12-like", CorpusSpec::clueweb12_like(args.scale)),
        ("ccnews-like", CorpusSpec::ccnews_like(args.scale)),
    ] {
        let index = spec.build().expect("corpus builds");
        let raw = index.total_raw_bytes() / 2; // docID column only, like the streams

        // Each list is decoded and sized once: its hybrid choice carries
        // every scheme's size too. A scheme that cannot encode some list
        // reads n/a.
        let mut totals = [Some(0u64); 5];
        let mut hybrid_total = 0u64;
        for id in index.term_ids() {
            let (docs, _) = index.list(id).decode_all().expect("decodes");
            let mut gaps = Vec::with_capacity(docs.len());
            let mut prev = 0u32;
            for (i, &d) in docs.iter().enumerate() {
                gaps.push(if i == 0 { d } else { d - prev });
                prev = d;
            }
            let choice = best_scheme(&gaps);
            for (total, size) in totals.iter_mut().zip(choice.all_bytes) {
                *total = total.zip(size).map(|(t, sz)| t + sz as u64);
            }
            // The index itself is hybrid-encoded (docIDs + tfs); report
            // the docID-equivalent ratio from per-list best choices.
            hybrid_total += choice.bytes as u64;
        }
        let mut cells = vec![name.to_owned()];
        for total in totals {
            cells.push(match total {
                Some(t) => f(raw as f64 / t as f64),
                None => "n/a".into(),
            });
        }
        cells.push(f(raw as f64 / hybrid_total as f64));
        cells.push("per-list".into());
        row(&cells);
    }
}
