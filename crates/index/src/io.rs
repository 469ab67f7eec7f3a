//! Typed errors of the on-disk index format — the segment directory
//! (`MANIFEST.json` plus sealed [`crate::segment`] files) that
//! `init(indexFile, ...)` loads into the SCM pool (Section IV-D).

use crate::segment::SEG_VERSION;
use crate::Error;

/// Errors while reading or writing index segment files.
#[derive(Debug)]
#[non_exhaustive]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the BOSS segment magic.
    BadMagic,
    /// The file's format version is not supported.
    BadVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The file failed to decode.
    Corrupt(String),
    /// The decoded index is internally inconsistent.
    Invalid(Error),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "index file I/O error: {e}"),
            IoError::BadMagic => write!(f, "not a BOSS segment file (bad magic)"),
            IoError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported segment file version {found} (supported: {SEG_VERSION})"
                )
            }
            IoError::Corrupt(m) => write!(f, "corrupt index file: {m}"),
            IoError::Invalid(e) => write!(f, "index file contains an invalid index: {e}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::segment::{write_segment, SegmentReader, SEG_MAGIC};
    use crate::spimi::MANIFEST_NAME;
    use crate::{IndexBuilder, InvertedIndex, SegmentSet, SpimiBuilder, SpimiConfig};
    use std::path::PathBuf;

    const DOCS: [&str; 3] = ["scm pools", "data nodes scm", "pools of data"];

    fn sample() -> InvertedIndex {
        IndexBuilder::new().add_documents(DOCS).build().unwrap()
    }

    /// Writes `DOCS` as a one-segment index directory private to `tag`.
    fn sample_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("boss-io-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut b = SpimiBuilder::create(&dir, SpimiConfig::default()).unwrap();
        for d in DOCS {
            b.add_document_text(d).unwrap();
        }
        let set = b.finish().unwrap();
        assert_eq!(set.entries().len(), 1);
        dir
    }

    /// Path of the single segment file of a directory from [`sample_dir`].
    fn segment_file(dir: &std::path::Path) -> PathBuf {
        let set = SegmentSet::open_dir(dir).unwrap();
        dir.join(&set.entries()[0].file)
    }

    fn open_index(dir: &std::path::Path) -> Result<InvertedIndex, IoError> {
        SegmentSet::open_dir(dir)?.merge()
    }

    #[test]
    fn roundtrip_in_memory() {
        let idx = sample();
        let mut terms: Vec<(String, crate::EncodedList)> = idx
            .term_ids()
            .map(|t| (idx.term_info(t).text.clone(), idx.list(t).clone()))
            .collect();
        terms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut buf = Vec::new();
        write_segment(&mut buf, 0, idx.doc_lens(), idx.bm25().params(), &terms).unwrap();
        let mut r = SegmentReader::new(buf.as_slice(), buf.len() as u64).unwrap();
        assert_eq!(r.header().n_docs, idx.n_docs());
        assert_eq!(r.header().n_terms as usize, idx.n_terms());
        assert_eq!(r.doc_lens(), idx.doc_lens());
        for (name, list) in &terms {
            let (term, back) = r.next_term().unwrap().expect("term present");
            assert_eq!(&term, name);
            assert_eq!(&back, list, "list of {name:?} roundtrips bit-identically");
        }
        assert!(r.next_term().unwrap().is_none(), "checksum verifies");
    }

    #[test]
    fn roundtrip_via_file() {
        let idx = sample();
        let dir = sample_dir("roundtrip");
        let back = open_index(&dir).unwrap();
        assert_eq!(back.n_docs(), idx.n_docs());
        assert_eq!(back.n_terms(), idx.n_terms());
        let q = crate::QueryExpr::term("scm");
        assert_eq!(
            crate::reference::evaluate(&idx, &q, 5).unwrap(),
            crate::reference::evaluate(&back, &q, 5).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let dir = sample_dir("magic");
        std::fs::write(segment_file(&dir), b"NOTBOSS\0restoffile").unwrap();
        let err = open_index(&dir).unwrap_err();
        assert!(matches!(err, IoError::BadMagic), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_future_version() {
        let dir = sample_dir("version");
        let path = dir.join(MANIFEST_NAME);
        let body = std::fs::read_to_string(&path).unwrap();
        // Tolerate either JSON spacing style.
        let future = body
            .replacen("\"version\":1", "\"version\":99", 1)
            .replacen("\"version\": 1", "\"version\": 99", 1);
        assert_ne!(body, future, "manifest edit must apply");
        std::fs::write(&path, future).unwrap();
        let err = open_index(&dir).unwrap_err();
        assert!(matches!(err, IoError::BadVersion { found: 99 }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_truncated_body() {
        let dir = sample_dir("truncated");
        let seg = segment_file(&dir);
        let body = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &body[..body.len() - 10]).unwrap();
        let err = open_index(&dir).unwrap_err();
        assert!(matches!(err, IoError::Corrupt(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn huge_claimed_length_is_not_allocated() {
        // A segment header claiming 4 billion documents over a 5-byte
        // body must fail with a typed error — not abort trying to
        // allocate the claim.
        let dir = sample_dir("huge");
        let mut buf = Vec::new();
        buf.extend_from_slice(&SEG_MAGIC);
        buf.extend_from_slice(&SEG_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // flags
        buf.extend_from_slice(&0u32.to_le_bytes()); // doc_base
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // n_docs
        buf.extend_from_slice(&[0u8; 16]); // n_terms, k1, b, reserved
        buf.extend_from_slice(b"@@@@@");
        std::fs::write(segment_file(&dir), &buf).unwrap();
        let err = open_index(&dir).unwrap_err();
        assert!(
            matches!(err, IoError::Corrupt(ref m) if m.contains("claims")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_display() {
        assert!(IoError::BadMagic.to_string().contains("magic"));
        let v = IoError::BadVersion { found: 3 }.to_string();
        assert!(
            v.contains('3') && v.contains(&SEG_VERSION.to_string()),
            "{v}"
        );
    }
}
