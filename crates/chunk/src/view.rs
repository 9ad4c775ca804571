//! The one parser of a sealed chunk: an owned, zero-copy view.
//!
//! [`ChunkView`] wraps the chunk's [`Bytes`] plus its decoded header,
//! and every file/range read is a refcount bump plus offset arithmetic,
//! yielding `Bytes` sub-slices that share the chunk's one allocation. A
//! cache hit is therefore pointer handoff, never memcpy — the invariant
//! the `bytes.copied{site=…}` ledger asserts. Parse, verify, compaction
//! and the cache's payload plane all read chunks through it.

use diesel_util::Bytes;

use crate::format::{ChunkHeader, FileEntry};
use crate::{ChunkError, Result};

/// A parsed, owned view over one chunk (`header ‖ payload`).
#[derive(Debug, Clone)]
pub struct ChunkView {
    bytes: Bytes,
    header: ChunkHeader,
}

impl ChunkView {
    /// Parse a chunk buffer. Verifies header integrity and that the
    /// payload is fully present, without copying any payload bytes.
    pub fn parse(bytes: Bytes) -> Result<Self> {
        let header = ChunkHeader::decode(&bytes)?;
        Self::from_parts(bytes, header)
    }

    /// Build a view from a buffer and its already-decoded header
    /// (callers like the task cache decode the header once on load and
    /// must not pay for a second decode per view).
    pub fn from_parts(bytes: Bytes, header: ChunkHeader) -> Result<Self> {
        let need = header.header_len as usize + header.payload_len as usize;
        if bytes.len() < need {
            return Err(ChunkError::Truncated { need, have: bytes.len() });
        }
        Ok(ChunkView { bytes, header })
    }

    /// The decoded header.
    pub fn header(&self) -> &ChunkHeader {
        &self.header
    }

    /// Serialized header length (the payload starts here).
    pub fn header_len(&self) -> u32 {
        self.header.header_len
    }

    /// The whole chunk buffer (`header ‖ payload`), shared not copied.
    pub fn chunk_bytes(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Total chunk size in bytes (what the cache accounts against its
    /// capacity).
    pub fn chunk_len(&self) -> usize {
        self.bytes.len()
    }

    /// Number of files (live + deleted).
    pub fn file_count(&self) -> usize {
        self.header.files.len()
    }

    /// Find a file's index by exact name, whether live or deleted (the
    /// last entry wins if a name repeats). A scan of the file table: no
    /// serving path looks files up by name (the cache slices by
    /// `FileMeta` offset), so no name index is built on load.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.header.files.iter().rposition(|f| f.name == name)
    }

    /// Slice `offset ‖ length` out of the payload region — the
    /// `FileMeta`-driven read the task cache serves hits from. Bounds
    /// are checked against the payload, not trusted from the caller.
    pub fn slice_payload(&self, offset: u64, length: u64) -> Result<Bytes> {
        let start = self.header.header_len as usize + offset as usize;
        let end = start + length as usize;
        let payload_end = self.header.header_len as usize + self.header.payload_len as usize;
        if end > payload_end {
            return Err(ChunkError::Truncated { need: end, have: payload_end });
        }
        Ok(self.bytes.slice(start..end))
    }

    /// The content of the file at `idx` without checksum verification.
    pub fn file_bytes(&self, idx: usize) -> Result<Bytes> {
        let f =
            self.header.files.get(idx).ok_or_else(|| ChunkError::NoSuchFile(format!("#{idx}")))?;
        self.slice_payload(f.offset, f.length)
            .map_err(|_| ChunkError::CorruptEntry { file: f.name.clone() })
    }

    /// Read a live file by name, verifying its CRC.
    pub fn read_file(&self, name: &str) -> Result<Bytes> {
        let idx = self.find(name).ok_or_else(|| ChunkError::NoSuchFile(name.to_owned()))?;
        if self.header.bitmap.is_deleted(idx) {
            return Err(ChunkError::FileDeleted(name.to_owned()));
        }
        self.read_file_at(idx)
    }

    /// Read the file at `idx` (even if deleted), verifying its CRC.
    pub fn read_file_at(&self, idx: usize) -> Result<Bytes> {
        let bytes = self.file_bytes(idx)?;
        let f =
            self.header.files.get(idx).ok_or_else(|| ChunkError::NoSuchFile(format!("#{idx}")))?;
        if crate::crc::crc32(&bytes) != f.crc32 {
            return Err(ChunkError::ChecksumMismatch { file: f.name.clone() });
        }
        Ok(bytes)
    }

    /// Read a byte range of a live file (FUSE-style partial reads,
    /// clamped to the file's end).
    pub fn read_file_range(&self, name: &str, offset: u64, len: usize) -> Result<Bytes> {
        let idx = self.find(name).ok_or_else(|| ChunkError::NoSuchFile(name.to_owned()))?;
        if self.header.bitmap.is_deleted(idx) {
            return Err(ChunkError::FileDeleted(name.to_owned()));
        }
        let whole = self.file_bytes(idx)?;
        let start = (offset as usize).min(whole.len());
        let end = (start + len).min(whole.len());
        Ok(whole.slice(start..end))
    }

    /// Iterate `(entry, live, bytes)` over all files in payload order.
    pub fn iter_files(&self) -> impl Iterator<Item = (&FileEntry, bool, Bytes)> + '_ {
        self.header.files.iter().enumerate().map(move |(i, f)| {
            let live = !self.header.bitmap.is_deleted(i);
            let bytes = self.file_bytes(i).unwrap_or_default();
            (f, live, bytes)
        })
    }

    /// Verify every file checksum; returns names of corrupt files.
    pub fn verify_all(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for (i, f) in self.header.files.iter().enumerate() {
            match self.file_bytes(i) {
                Ok(b) if crate::crc::crc32(&b) == f.crc32 => {}
                _ => bad.push(f.name.clone()),
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ChunkBuilder;
    use crate::compact::mark_deleted;
    use crate::id::ChunkIdGenerator;
    use proptest::prelude::*;

    fn build(files: &[(&str, &[u8])]) -> Bytes {
        let mut b = ChunkBuilder::with_default_config();
        for (n, d) in files {
            b.add_file(n, d).unwrap();
        }
        let ids = ChunkIdGenerator::deterministic(1, 1, 10);
        Bytes::from(b.seal(ids.next_id(), 1).1)
    }

    #[test]
    fn reads_by_name_and_index_share_the_allocation() {
        let bytes = build(&[("a", b"one"), ("b/c", b"two"), ("d", b"three")]);
        let v = ChunkView::parse(bytes.clone()).unwrap();
        let got = v.read_file("b/c").unwrap();
        assert_eq!(got, b"two"[..]);
        assert!(got.shares_allocation(&bytes), "file read must be a view, not a copy");
        assert_eq!(v.read_file_at(2).unwrap(), b"three"[..]);
        assert!(matches!(v.read_file("zzz"), Err(ChunkError::NoSuchFile(_))));
        assert_eq!(v.chunk_len(), bytes.len());
        assert!(v.chunk_bytes().shares_allocation(&bytes));
    }

    #[test]
    fn range_reads_clamp_to_the_file() {
        let bytes = build(&[("f", b"0123456789")]);
        let v = ChunkView::parse(bytes.clone()).unwrap();
        assert_eq!(v.read_file_range("f", 2, 3).unwrap(), b"234"[..]);
        assert_eq!(v.read_file_range("f", 8, 100).unwrap(), b"89"[..]);
        assert_eq!(v.read_file_range("f", 100, 5).unwrap(), b""[..]);
        assert!(v.read_file_range("f", 2, 3).unwrap().shares_allocation(&bytes));
    }

    #[test]
    fn corruption_and_truncation_are_detected() {
        let mut raw = build(&[("f", b"sensitive-data")]).into_vec();
        let n = raw.len();
        raw[n - 2] ^= 0x01;
        let v = ChunkView::parse(Bytes::from(raw.clone())).unwrap();
        assert!(matches!(v.read_file("f"), Err(ChunkError::ChecksumMismatch { .. })));
        assert_eq!(v.verify_all(), vec!["f".to_string()]);
        assert!(matches!(
            ChunkView::parse(Bytes::from(raw[..n - 4].to_vec())),
            Err(ChunkError::Truncated { .. })
        ));
    }

    #[test]
    fn iter_files_reports_live_flags() {
        let mut raw = build(&[("a", b"1"), ("b", b"2")]).into_vec();
        let v = ChunkView::parse(Bytes::from(raw.clone())).unwrap();
        let flags: Vec<bool> = v.iter_files().map(|(_, live, _)| live).collect();
        assert_eq!(flags, vec![true, true]);
        assert!(mark_deleted(&mut raw, "a").unwrap());
        let v = ChunkView::parse(Bytes::from(raw)).unwrap();
        let seen: Vec<(String, bool, Bytes)> =
            v.iter_files().map(|(f, live, b)| (f.name.clone(), live, b)).collect();
        assert_eq!(
            seen,
            vec![
                ("a".into(), false, Bytes::from(&b"1"[..])),
                ("b".into(), true, Bytes::from(&b"2"[..]))
            ]
        );
        assert!(matches!(v.read_file("a"), Err(ChunkError::FileDeleted(_))));
        assert_eq!(v.find("a"), Some(0), "deleted files are still found by name");
    }

    #[test]
    fn slice_payload_bounds_checked() {
        let bytes = build(&[("f", b"0123456789")]);
        let v = ChunkView::parse(bytes.clone()).unwrap();
        let whole = v.slice_payload(0, 10).unwrap();
        assert_eq!(whole, b"0123456789"[..]);
        assert!(whole.shares_allocation(&bytes));
        assert!(matches!(v.slice_payload(5, 100), Err(ChunkError::Truncated { .. })));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn view_round_trips_builder_input_zero_copy(
            files in proptest::collection::vec(
                ("[a-z]{1,12}(/[a-z]{1,8}){0,3}", proptest::collection::vec(any::<u8>(), 0..2000)),
                1..20
            ),
            range in (0u64..3000, 0usize..3000),
        ) {
            // De-duplicate names (chunk semantics assume unique names).
            let mut seen = std::collections::HashSet::new();
            let files: Vec<(String, Vec<u8>)> = files
                .into_iter()
                .filter(|(n, _)| seen.insert(n.clone()))
                .collect();
            let mut b = ChunkBuilder::with_default_config();
            for (n, d) in &files {
                b.add_file(n, d).unwrap();
            }
            let ids = ChunkIdGenerator::deterministic(2, 2, 20);
            let (_, raw) = b.seal(ids.next_id(), 5);
            let bytes = Bytes::from(raw);
            let v = ChunkView::parse(bytes.clone()).unwrap();
            // The oracle is the builder's input, not a second parser.
            prop_assert!(v.verify_all().is_empty());
            prop_assert_eq!(v.file_count(), files.len());
            for (i, (n, d)) in files.iter().enumerate() {
                prop_assert_eq!(v.find(n), Some(i));
                let owned = v.read_file(n).unwrap();
                prop_assert_eq!(owned.as_slice(), &d[..]);
                // The read is a true view: it shares the parent
                // allocation and its pointers land inside the parent's
                // buffer (never a fresh copy).
                prop_assert!(owned.shares_allocation(&bytes));
                let parent = bytes.as_slice().as_ptr_range();
                let sub = owned.as_slice().as_ptr_range();
                prop_assert!(sub.start >= parent.start && sub.end <= parent.end);
                // Range reads clamp to the file's end.
                let (off, len) = range;
                let start = (off as usize).min(d.len());
                let end = (start + len).min(d.len());
                prop_assert_eq!(v.read_file_range(n, off, len).unwrap().as_slice(), &d[start..end]);
                prop_assert_eq!(v.file_bytes(i).unwrap().as_slice(), &d[..]);
            }
            let listed: Vec<(String, bool, Bytes)> =
                v.iter_files().map(|(f, live, b)| (f.name.clone(), live, b)).collect();
            let expected: Vec<(String, bool, Bytes)> =
                files.iter().map(|(n, d)| (n.clone(), true, Bytes::from(d.clone()))).collect();
            prop_assert_eq!(listed, expected);
        }

        #[test]
        fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..600)) {
            // Parsing must fail gracefully on fuzz input, never panic.
            let _ = ChunkView::parse(Bytes::from(data));
        }
    }
}
