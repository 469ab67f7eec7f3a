//! OptPForDelta: pack the low `b` bits of every value; values that do not
//! fit in `b` bits are *exceptions* whose remaining high bits live in a
//! patch area at the end of the block. The bit width is chosen per block to
//! minimize the total encoded size (the "Opt" in OptPFD).
//!
//! Layout: `[packed count×b bits][exceptions: (index: u16, high: u32)*]`.
//! The number of exceptions is recovered from the exception offset and the
//! total length; the index's block metadata stores the offset, matching the
//! paper's 12-bit "offset of the first exception value and index" field.

use crate::bitio::{bits_for, BitReader, BitWriter};
use crate::{check_count, check_len, unpack, BlockInfo, Codec, Error, Scheme};

/// The OptPFD codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptPfd;

const EXCEPTION_BYTES: usize = 6; // u16 index + u32 high bits

/// The width that minimizes the encoded size, and that size.
///
/// One pass buckets the values by bit width (33 buckets, widths 0–32);
/// the exceptions at width `b` are then the values in buckets above `b`,
/// so every candidate width costs O(1) instead of a rescan. Ties go to
/// the narrower width.
fn best_width(values: &[u32]) -> (u32, usize) {
    let mut hist = [0usize; 33];
    for &v in values {
        hist[bits_for(v) as usize] += 1;
    }
    let max_width = hist.iter().rposition(|&n| n > 0).unwrap_or(0) as u32;
    let mut exceptions = values.len();
    let mut best = (0, usize::MAX);
    for b in 0..=max_width {
        // Values of exactly `b` bits stop being exceptions at width `b`.
        exceptions -= hist[b as usize];
        let len = (values.len() * b as usize).div_ceil(8) + exceptions * EXCEPTION_BYTES;
        if len < best.1 {
            best = (b, len);
        }
    }
    best
}

/// The packed area ends at the exception offset, which the block
/// descriptor stores in 16 bits.
fn check_packed_len(values: &[u32], b: u32) -> Result<(), Error> {
    if (values.len() * b as usize).div_ceil(8) > u16::MAX as usize {
        return Err(Error::Corrupt {
            reason: "OptPFD packed area exceeds offset field",
        });
    }
    Ok(())
}

impl Codec for OptPfd {
    fn scheme(&self) -> Scheme {
        Scheme::OptPfd
    }

    fn encode(&self, values: &[u32], out: &mut Vec<u8>) -> Result<BlockInfo, Error> {
        let count = check_len(values)?;
        let base = out.len();
        let (b, _) = best_width(values);
        check_packed_len(values, b)?;
        let mask = if b == 32 { u32::MAX } else { (1u32 << b) - 1 };
        let mut w = BitWriter::new(out);
        let mut exceptions: Vec<(u16, u32)> = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            w.write(v & mask, b);
            if bits_for(v) > b {
                exceptions.push((i as u16, if b == 32 { 0 } else { v >> b }));
            }
        }
        w.finish();
        let exception_offset = (out.len() - base) as u16;
        for (idx, high) in exceptions {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&high.to_le_bytes());
        }
        Ok(BlockInfo {
            count,
            bit_width: b as u8,
            exception_offset,
        })
    }

    fn encoded_len(&self, values: &[u32]) -> Result<usize, Error> {
        check_len(values)?;
        let (b, len) = best_width(values);
        check_packed_len(values, b)?;
        Ok(len)
    }

    fn decode(&self, data: &[u8], info: &BlockInfo, out: &mut Vec<u32>) -> Result<(), Error> {
        let (b, exc_off) = check_header(data, info)?;
        let base = out.len();
        unpack::unpack(&data[..exc_off], info.count as usize, b, out)?;
        apply_exceptions(&data[exc_off..], b, info.count as usize, &mut out[base..])
    }

    fn decode_reference(
        &self,
        data: &[u8],
        info: &BlockInfo,
        out: &mut Vec<u32>,
    ) -> Result<(), Error> {
        let (b, exc_off) = check_header(data, info)?;
        let base = out.len();
        let mut r = BitReader::new(&data[..exc_off]);
        out.reserve(info.count as usize);
        for _ in 0..info.count {
            out.push(r.read(b)?);
        }
        apply_exceptions(&data[exc_off..], b, info.count as usize, &mut out[base..])
    }
}

fn check_header(data: &[u8], info: &BlockInfo) -> Result<(u32, usize), Error> {
    check_count(info)?;
    let b = u32::from(info.bit_width);
    if b > 32 {
        return Err(Error::Corrupt {
            reason: "OptPFD bit width above 32",
        });
    }
    let exc_off = info.exception_offset as usize;
    if exc_off > data.len() {
        return Err(Error::Truncated {
            have: data.len(),
            need: exc_off,
        });
    }
    Ok((b, exc_off))
}

/// Patches the exception area's high bits back into the unpacked low bits.
/// The prefix sum cannot be fused through this step, which is why OptPFD
/// keeps the default two-pass [`Codec::decode_d1`].
fn apply_exceptions(patch: &[u8], b: u32, count: usize, out: &mut [u32]) -> Result<(), Error> {
    if !patch.len().is_multiple_of(EXCEPTION_BYTES) {
        return Err(Error::Corrupt {
            reason: "OptPFD exception area misaligned",
        });
    }
    for chunk in patch.chunks_exact(EXCEPTION_BYTES) {
        let idx = u16::from_le_bytes([chunk[0], chunk[1]]) as usize;
        let high = u32::from_le_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]);
        if idx >= count {
            return Err(Error::Corrupt {
                reason: "OptPFD exception index out of range",
            });
        }
        if b < 32 {
            let shifted = high.checked_shl(b).ok_or(Error::Corrupt {
                reason: "OptPFD exception high bits overflow",
            })?;
            out[idx] |= shifted;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32]) -> (BlockInfo, Vec<u8>) {
        let mut buf = Vec::new();
        let info = OptPfd.encode(values, &mut buf).unwrap();
        let mut out = Vec::new();
        OptPfd.decode(&buf, &info, &mut out).unwrap();
        assert_eq!(out, values);
        (info, buf)
    }

    /// The width choice before the histogram: rescan every candidate
    /// width, keep the smallest size, narrower on ties.
    fn rescan_width(values: &[u32]) -> (u32, usize) {
        let size = |b: u32| {
            let exceptions = values.iter().filter(|&&v| bits_for(v) > b).count();
            (values.len() * b as usize).div_ceil(8) + exceptions * EXCEPTION_BYTES
        };
        let max_width = values.iter().copied().map(bits_for).max().unwrap_or(0);
        (0..=max_width)
            .map(|b| (b, size(b)))
            .min_by_key(|&(b, len)| (len, b))
            .unwrap()
    }

    #[test]
    fn histogram_width_matches_rescan() {
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 32) as u32
        };
        for len in [0usize, 1, 2, 7, 64, 128, 1000] {
            for spread in 0..=32u32 {
                let values: Vec<u32> = (0..len)
                    .map(|_| {
                        let v = next();
                        // Mostly narrow values with a tail of wide outliers.
                        let w = if next() % 8 == 0 { spread } else { spread / 3 };
                        v.checked_shr(32 - w).unwrap_or(0)
                    })
                    .collect();
                assert_eq!(
                    best_width(&values),
                    rescan_width(&values),
                    "len {len} spread {spread}"
                );
            }
        }
    }

    #[test]
    fn uniform_small_values_no_exceptions() {
        let values = vec![5u32; 128];
        let (info, buf) = roundtrip(&values);
        assert_eq!(
            info.exception_offset as usize,
            buf.len(),
            "no exception area"
        );
        assert_eq!(info.bit_width, 3);
    }

    #[test]
    fn outliers_become_exceptions() {
        let mut values = vec![3u32; 128];
        values[7] = 1_000_000;
        values[100] = 2_000_000;
        let (info, buf) = roundtrip(&values);
        assert!(info.bit_width <= 3, "width chosen for the majority");
        assert_eq!(
            buf.len() - info.exception_offset as usize,
            2 * EXCEPTION_BYTES
        );
    }

    #[test]
    fn opt_width_beats_plain_bp_on_outliers() {
        let mut values = vec![3u32; 128];
        values[0] = u32::MAX;
        let mut pfd_buf = Vec::new();
        OptPfd.encode(&values, &mut pfd_buf).unwrap();
        let mut bp_buf = Vec::new();
        crate::BitPacking.encode(&values, &mut bp_buf).unwrap();
        assert!(pfd_buf.len() < bp_buf.len());
    }

    #[test]
    fn all_large_values() {
        let values: Vec<u32> = (0..128).map(|i| u32::MAX - i).collect();
        let (info, _) = roundtrip(&values);
        assert_eq!(info.bit_width, 32);
    }

    #[test]
    fn zeros() {
        let (info, buf) = roundtrip(&[0u32; 64]);
        assert_eq!(info.bit_width, 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn corrupt_exception_index_rejected() {
        let mut buf = Vec::new();
        let mut values = vec![1u32; 16];
        values[3] = 1 << 20;
        let info = OptPfd.encode(&values, &mut buf).unwrap();
        // Point the exception at an impossible position.
        let off = info.exception_offset as usize;
        buf[off] = 0xFF;
        buf[off + 1] = 0xFF;
        let err = OptPfd.decode(&buf, &info, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }));
    }

    #[test]
    fn misaligned_exception_area_rejected() {
        let mut buf = Vec::new();
        let info = OptPfd.encode(&[1u32; 16], &mut buf).unwrap();
        buf.push(0xAB); // stray byte
        let err = OptPfd.decode(&buf, &info, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }));
    }

    #[test]
    fn truncated_before_exception_area() {
        let mut values = vec![2u32; 128];
        values[5] = 99999;
        let mut buf = Vec::new();
        let info = OptPfd.encode(&values, &mut buf).unwrap();
        let short = &buf[..4];
        let err = OptPfd.decode(short, &info, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, Error::Truncated { .. }));
    }
}
