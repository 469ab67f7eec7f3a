//! The Fig. 8 decompression engine is the hardware oracle of the host
//! decode path: over the smoke corpora, every block of every posting
//! list must decode to the same docIDs and tfs through the scheme's
//! codec (`EncodedList::decode_block`), the engine's compiled stage-2
//! plan, and the engine's netlist interpreter. Figure timing is charged
//! from block metadata, so per-block equality here is what keeps every
//! figure independent of which decoder a deployment would run.

use boss_compress::Scheme;
use boss_decomp::DecompEngine;
use boss_index::{IndexBuilder, InvertedIndex, SchemeChoice};
use boss_workload::corpus::{CorpusSpec, Scale};
use std::collections::HashMap;

const CHOICES: [SchemeChoice; 6] = [
    SchemeChoice::Fixed(Scheme::Bp),
    SchemeChoice::Fixed(Scheme::Vb),
    SchemeChoice::Fixed(Scheme::OptPfd),
    SchemeChoice::Fixed(Scheme::S16),
    SchemeChoice::Fixed(Scheme::S8b),
    SchemeChoice::Hybrid,
];

fn build(spec: &CorpusSpec, choice: SchemeChoice) -> InvertedIndex {
    let mut b = IndexBuilder::new().scheme(choice);
    for (term, list) in spec.term_lists().expect("corpus generates") {
        b = b.add_posting_list(&term, &list);
    }
    b.build().expect("index builds")
}

/// Decodes one block through `engine` the way `decode_block` lays it
/// out: fused d-gap docIDs, then tfs stored minus one.
fn engine_decode(
    engine: &DecompEngine,
    data: &[u8],
    meta: &boss_index::BlockMeta,
    base: u32,
) -> (Vec<u32>, Vec<u32>) {
    let block = &data[meta.offset as usize..(meta.offset + meta.len) as usize];
    let (delta_part, tf_part) = block.split_at(meta.tf_offset as usize);
    let mut docs = Vec::new();
    engine
        .decode_docids_into(delta_part, &meta.delta_info, base, &mut docs)
        .expect("engine decodes docIDs");
    let mut tfs = Vec::new();
    engine
        .decode_into(tf_part, &meta.tf_info, &mut tfs)
        .expect("engine decodes tfs");
    for tf in &mut tfs {
        *tf += 1;
    }
    (docs, tfs)
}

#[test]
fn codec_compiled_and_interpreted_decode_every_block_identically() {
    let mut engines: HashMap<Scheme, (DecompEngine, DecompEngine)> = HashMap::new();
    for spec in [
        CorpusSpec::ccnews_like(Scale::Smoke),
        CorpusSpec::clueweb12_like(Scale::Smoke),
    ] {
        for choice in CHOICES {
            let index = build(&spec, choice);
            let mut blocks = 0usize;
            for term in 0..index.n_terms() as u32 {
                let list = index.list(term);
                let scheme = list.scheme();
                let (compiled, interpreted) = engines.entry(scheme).or_insert_with(|| {
                    let e = DecompEngine::for_scheme(scheme).expect("stock netlist parses");
                    (e.clone(), e.with_interpreter(true))
                });
                let mut base = 0;
                for (bi, meta) in list.blocks().iter().enumerate() {
                    let (mut docs, mut tfs) = (Vec::new(), Vec::new());
                    list.decode_block(bi, &mut docs, &mut tfs)
                        .expect("codec decodes");
                    let ctx = format!("{} {choice:?} term {term} ({scheme}) block {bi}", spec.name);
                    assert_eq!(
                        engine_decode(compiled, list.data(), meta, base),
                        (docs.clone(), tfs.clone()),
                        "compiled plan: {ctx}"
                    );
                    assert_eq!(
                        engine_decode(interpreted, list.data(), meta, base),
                        (docs, tfs),
                        "interpreter: {ctx}"
                    );
                    base = meta.last_doc;
                    blocks += 1;
                }
            }
            assert!(blocks > index.n_terms(), "{} {choice:?}", spec.name);
        }
    }
}
