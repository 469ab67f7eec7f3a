//! Simple16: each 32-bit word carries a 4-bit selector and 28 payload bits
//! split into equal-width (or two-width) fields according to one of 16
//! layouts (Zhang, Long & Suel).

use crate::{check_count, check_len, BlockInfo, Codec, Error, Scheme};

/// The 16 Simple16 layouts as `(count, bits)` runs. Each layout's field
/// widths sum to exactly 28 bits.
const LAYOUTS: [&[(u32, u32)]; 16] = [
    &[(28, 1)],
    &[(7, 2), (14, 1)],
    &[(7, 1), (7, 2), (7, 1)],
    &[(14, 1), (7, 2)],
    &[(14, 2)],
    &[(1, 4), (8, 3)],
    &[(1, 3), (4, 4), (3, 3)],
    &[(7, 4)],
    &[(4, 5), (2, 4)],
    &[(2, 4), (4, 5)],
    &[(3, 6), (2, 5)],
    &[(2, 5), (3, 6)],
    &[(4, 7)],
    &[(1, 10), (2, 9)],
    &[(2, 14)],
    &[(1, 28)],
];

/// Values held by each layout, indexed by selector.
const LAYOUT_COUNTS: [usize; 16] = [28, 21, 21, 21, 14, 9, 8, 7, 6, 6, 5, 5, 4, 3, 2, 1];

/// Emits `N` fields of `BITS` bits starting at `*shift`; monomorphized per
/// (run, width) pair so the compiler fully unrolls each run, and staged
/// through a stack array so the `Vec` pays one capacity check per run
/// instead of one per value.
#[inline]
fn emit_run<const N: usize, const BITS: u32>(word: u32, shift: &mut u32, out: &mut Vec<u32>) {
    let mask = (1u32 << BITS) - 1;
    let mut vals = [0u32; N];
    for (i, v) in vals.iter_mut().enumerate() {
        *v = (word >> (*shift + i as u32 * BITS)) & mask;
    }
    *shift += N as u32 * BITS;
    out.extend_from_slice(&vals);
}

/// Decodes one full word (all `LAYOUT_COUNTS[sel]` values) with the
/// unrolled per-selector kernel.
#[inline]
fn decode_word(sel: usize, word: u32, out: &mut Vec<u32>) {
    let s = &mut 0u32;
    match sel {
        0 => emit_run::<28, 1>(word, s, out),
        1 => {
            emit_run::<7, 2>(word, s, out);
            emit_run::<14, 1>(word, s, out);
        }
        2 => {
            emit_run::<7, 1>(word, s, out);
            emit_run::<7, 2>(word, s, out);
            emit_run::<7, 1>(word, s, out);
        }
        3 => {
            emit_run::<14, 1>(word, s, out);
            emit_run::<7, 2>(word, s, out);
        }
        4 => emit_run::<14, 2>(word, s, out),
        5 => {
            emit_run::<1, 4>(word, s, out);
            emit_run::<8, 3>(word, s, out);
        }
        6 => {
            emit_run::<1, 3>(word, s, out);
            emit_run::<4, 4>(word, s, out);
            emit_run::<3, 3>(word, s, out);
        }
        7 => emit_run::<7, 4>(word, s, out),
        8 => {
            emit_run::<4, 5>(word, s, out);
            emit_run::<2, 4>(word, s, out);
        }
        9 => {
            emit_run::<2, 4>(word, s, out);
            emit_run::<4, 5>(word, s, out);
        }
        10 => {
            emit_run::<3, 6>(word, s, out);
            emit_run::<2, 5>(word, s, out);
        }
        11 => {
            emit_run::<2, 5>(word, s, out);
            emit_run::<3, 6>(word, s, out);
        }
        12 => emit_run::<4, 7>(word, s, out),
        13 => {
            emit_run::<1, 10>(word, s, out);
            emit_run::<2, 9>(word, s, out);
        }
        14 => emit_run::<2, 14>(word, s, out),
        _ => emit_run::<1, 28>(word, s, out),
    }
}

/// Whether the head of `values` fits `layout`'s field widths: each run
/// of equal-width fields holds its values when their OR does. Fewer
/// values than the layout holds fit: the encoder pads with zeros.
fn fits(layout: &[(u32, u32)], values: &[u32]) -> bool {
    let mut start = 0usize;
    for &(n, bits) in layout {
        let end = start + n as usize;
        let run = &values[start.min(values.len())..end.min(values.len())];
        if run.iter().fold(0, |acc, &v| acc | v) >> bits != 0 {
            return false;
        }
        start = end;
    }
    true
}

/// The greedy selector shared by [`Codec::encode`] and
/// [`Codec::encoded_len`]: the densest layout whose widths fit the head
/// of `rest` (the table is ordered densest-first), and how many values
/// its word takes. Layouts whose first field is narrower than the first
/// value are skipped without a scan.
fn select(rest: &[u32]) -> Result<(usize, usize), Error> {
    let first = rest.first().copied().unwrap_or(0);
    let sel = LAYOUTS.iter().position(|layout| {
        layout.first().is_some_and(|&(_, bits)| first >> bits == 0) && fits(layout, rest)
    });
    match sel {
        Some(sel) => Ok((sel, LAYOUT_COUNTS[sel].min(rest.len()))),
        // Even 1×28 failed: the value needs more than 28 bits.
        None => Err(Error::ValueTooLarge {
            value: first,
            max: (1 << 28) - 1,
        }),
    }
}

/// The S16 codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Simple16;

impl Codec for Simple16 {
    fn scheme(&self) -> Scheme {
        Scheme::S16
    }

    fn encode(&self, values: &[u32], out: &mut Vec<u8>) -> Result<BlockInfo, Error> {
        let count = check_len(values)?;
        let mut rest = values;
        while !rest.is_empty() {
            let (sel, take) = select(rest)?;
            let mut word: u32 = (sel as u32) << 28;
            let mut shift = 0u32;
            let mut i = 0usize;
            for &(n, bits) in LAYOUTS[sel] {
                for _ in 0..n {
                    let v = rest.get(i).copied().unwrap_or(0);
                    word |= v << shift;
                    shift += bits;
                    i += 1;
                }
            }
            out.extend_from_slice(&word.to_le_bytes());
            rest = &rest[take..];
        }
        Ok(BlockInfo {
            count,
            bit_width: 0,
            exception_offset: 0,
        })
    }

    fn encoded_len(&self, values: &[u32]) -> Result<usize, Error> {
        check_len(values)?;
        let (mut rest, mut words) = (values, 0usize);
        while !rest.is_empty() {
            let (_, take) = select(rest)?;
            words += 1;
            rest = &rest[take..];
        }
        Ok(words * 4)
    }

    fn decode(&self, data: &[u8], info: &BlockInfo, out: &mut Vec<u32>) -> Result<(), Error> {
        let mut remaining = check_count(info)?;
        let mut pos = 0usize;
        out.reserve(remaining);
        while remaining > 0 {
            let Some(bytes) = data.get(pos..pos + 4) else {
                return Err(Error::Truncated {
                    have: data.len(),
                    need: pos + 4,
                });
            };
            pos += 4;
            let word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            let sel = (word >> 28) as usize;
            if remaining >= LAYOUT_COUNTS[sel] {
                // Full word: per-selector unrolled kernel, no per-value
                // remaining checks.
                decode_word(sel, word, out);
                remaining -= LAYOUT_COUNTS[sel];
            } else {
                // Final partial word: the generic field walk.
                let mut shift = 0u32;
                for &(n, bits) in LAYOUTS[sel] {
                    let mask = (1u32 << bits) - 1;
                    for _ in 0..n {
                        if remaining == 0 {
                            break;
                        }
                        out.push((word >> shift) & mask);
                        shift += bits;
                        remaining -= 1;
                    }
                }
            }
        }
        Ok(())
    }

    fn decode_reference(
        &self,
        data: &[u8],
        info: &BlockInfo,
        out: &mut Vec<u32>,
    ) -> Result<(), Error> {
        let mut remaining = check_count(info)?;
        let mut pos = 0usize;
        out.reserve(remaining);
        while remaining > 0 {
            let Some(bytes) = data.get(pos..pos + 4) else {
                return Err(Error::Truncated {
                    have: data.len(),
                    need: pos + 4,
                });
            };
            pos += 4;
            let word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            let sel = (word >> 28) as usize;
            let layout = LAYOUTS[sel];
            let mut shift = 0u32;
            for &(n, bits) in layout {
                let mask = (1u32 << bits) - 1;
                for _ in 0..n {
                    if remaining == 0 {
                        break;
                    }
                    out.push((word >> shift) & mask);
                    shift += bits;
                    remaining -= 1;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32]) -> Vec<u8> {
        let mut buf = Vec::new();
        let info = Simple16.encode(values, &mut buf).unwrap();
        let mut out = Vec::new();
        Simple16.decode(&buf, &info, &mut out).unwrap();
        assert_eq!(out, values);
        buf
    }

    #[test]
    fn layouts_all_sum_to_28_bits() {
        for layout in &LAYOUTS {
            let bits: u32 = layout.iter().map(|&(n, b)| n * b).sum();
            assert_eq!(bits, 28);
        }
    }

    #[test]
    fn layout_counts_match_table() {
        for (sel, layout) in LAYOUTS.iter().enumerate() {
            let count: u32 = layout.iter().map(|&(n, _)| n).sum();
            assert_eq!(LAYOUT_COUNTS[sel], count as usize, "{sel}");
        }
    }

    #[test]
    fn kernel_matches_reference_on_random_streams() {
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for len in [1usize, 2, 27, 28, 29, 100, 128, 513] {
            let values: Vec<u32> = (0..len)
                .map(|_| {
                    let r = next();
                    match r % 8 {
                        0..=4 => r % 4,
                        5 => r % 128,
                        6 => r % 65536,
                        _ => r % (1 << 28),
                    }
                })
                .collect();
            let mut buf = Vec::new();
            let info = Simple16.encode(&values, &mut buf).unwrap();
            let mut fast = Vec::new();
            Simple16.decode(&buf, &info, &mut fast).unwrap();
            let mut slow = Vec::new();
            Simple16.decode_reference(&buf, &info, &mut slow).unwrap();
            assert_eq!(fast, slow, "len {len}");
            assert_eq!(fast, values, "len {len}");
        }
    }

    #[test]
    fn ones_pack_28_per_word() {
        let buf = roundtrip(&[1u32; 56]);
        assert_eq!(buf.len(), 8, "two words of 28×1-bit");
    }

    #[test]
    fn mixed_magnitudes() {
        roundtrip(&[0, 1, 100, 3, 7, 200_000, 1, 1, 1, 0, 50, 2]);
    }

    #[test]
    fn value_at_28_bit_limit() {
        roundtrip(&[(1 << 28) - 1]);
    }

    #[test]
    fn value_above_28_bits_rejected() {
        let err = Simple16.encode(&[1 << 28], &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::ValueTooLarge { .. }));
    }

    #[test]
    fn truncated_errors() {
        let mut buf = Vec::new();
        let info = Simple16.encode(&[5u32; 40], &mut buf).unwrap();
        buf.truncate(buf.len() - 1);
        let err = Simple16.decode(&buf, &info, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Truncated { .. }));
    }

    #[test]
    fn tail_shorter_than_layout() {
        // 3 ones: padded into one 28×1 word.
        let buf = roundtrip(&[1, 1, 1]);
        assert_eq!(buf.len(), 4);
    }
}
