//! Property-based tests: every codec must roundtrip every representable
//! stream, and hybrid selection must never lose to a single scheme.

use boss_compress::{
    best_scheme, codec_for, encoded_size, Error, Scheme, ALL_SCHEMES, MAX_BLOCK_VALUES,
};
use proptest::prelude::*;

fn roundtrip_ok(scheme: Scheme, values: &[u32]) {
    let codec = codec_for(scheme);
    let mut buf = Vec::new();
    let info = codec.encode(values, &mut buf).unwrap();
    let mut out = Vec::new();
    codec.decode(&buf, &info, &mut out).unwrap();
    assert_eq!(out, values, "scheme {scheme}");
}

/// Value streams shaped like real d-gap distributions: mostly small with
/// occasional large jumps.
fn gap_stream() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        prop_oneof![
            4 => 0u32..16,
            3 => 0u32..256,
            2 => 0u32..65536,
            1 => 0u32..(1 << 27),
        ],
        0..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bp_roundtrips(values in prop::collection::vec(any::<u32>(), 0..300)) {
        roundtrip_ok(Scheme::Bp, &values);
    }

    #[test]
    fn vb_roundtrips(values in prop::collection::vec(any::<u32>(), 0..300)) {
        roundtrip_ok(Scheme::Vb, &values);
    }

    #[test]
    fn pfd_roundtrips(values in prop::collection::vec(any::<u32>(), 0..300)) {
        roundtrip_ok(Scheme::OptPfd, &values);
    }

    #[test]
    fn s8b_roundtrips(values in prop::collection::vec(any::<u32>(), 0..300)) {
        roundtrip_ok(Scheme::S8b, &values);
    }

    #[test]
    fn s16_roundtrips_or_rejects(values in prop::collection::vec(any::<u32>(), 0..300)) {
        let codec = codec_for(Scheme::S16);
        let mut buf = Vec::new();
        match codec.encode(&values, &mut buf) {
            Ok(info) => {
                prop_assert!(values.iter().all(|&v| v < (1 << 28)));
                let mut out = Vec::new();
                codec.decode(&buf, &info, &mut out).unwrap();
                prop_assert_eq!(out, values);
            }
            Err(Error::ValueTooLarge { .. }) => {
                prop_assert!(values.iter().any(|&v| v >= (1 << 28)));
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }

    #[test]
    fn all_schemes_roundtrip_gap_streams(values in gap_stream()) {
        for s in ALL_SCHEMES {
            roundtrip_ok(s, &values);
        }
    }

    #[test]
    fn hybrid_never_loses(values in gap_stream()) {
        let choice = best_scheme(&values);
        for s in ALL_SCHEMES {
            if let Ok(sz) = encoded_size(s, &values) {
                prop_assert!(choice.bytes <= sz, "hybrid {} beats {s} ({sz})", choice.bytes);
            }
        }
    }

    #[test]
    fn decoding_random_garbage_never_panics(
        data in prop::collection::vec(any::<u8>(), 0..128),
        count in 0u16..256,
        bit_width in 0u8..=40,
        exception_offset in 0u16..200,
    ) {
        for s in ALL_SCHEMES {
            let info = boss_compress::BlockInfo { count, bit_width, exception_offset };
            // Must return Ok or Err, never panic or loop forever.
            let _ = codec_for(s).decode(&data, &info, &mut Vec::new());
        }
    }
}

/// Every codec the crate ships, the paper's five plus Group-Varint.
const ALL_SIX: [Scheme; 6] = [
    Scheme::Bp,
    Scheme::Vb,
    Scheme::OptPfd,
    Scheme::S16,
    Scheme::S8b,
    Scheme::GroupVarint,
];

/// A block whose values are at most `w` bits wide for a drawn `w` in
/// 0–32, each value's own width drawn below that, at lengths from empty
/// to one past the block limit. Widths above 28 exercise S16's rejection.
fn sized_block() -> impl Strategy<Value = Vec<u32>> {
    let len = prop_oneof![
        3 => 0usize..300,
        1 => 0usize..MAX_BLOCK_VALUES + 2,
        1 => (MAX_BLOCK_VALUES - 1)..MAX_BLOCK_VALUES + 2,
    ];
    (0u32..=32, len).prop_flat_map(|(max_width, len)| {
        prop::collection::vec(
            (any::<u32>(), 0u32..=max_width).prop_map(|(v, w)| v.checked_shr(32 - w).unwrap_or(0)),
            len,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn encoded_len_is_the_encoded_size(values in sized_block()) {
        for s in ALL_SIX {
            let codec = codec_for(s);
            let mut buf = Vec::new();
            let encoded = codec.encode(&values, &mut buf).map(|_| buf.len());
            prop_assert_eq!(codec.encoded_len(&values), encoded, "scheme {}", s);
        }
    }
}
