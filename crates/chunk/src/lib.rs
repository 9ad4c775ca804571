//! # diesel-chunk — self-contained data chunks
//!
//! DIESEL (ICPP 2020, §4.1) stores datasets as large (≥ 4 MB) *data chunks*.
//! Each chunk is **self-contained**: a header at the front of the chunk
//! carries the metadata of every file packed inside it (name, offset,
//! length, checksum) plus a deletion bitmap. The DIESEL server can rebuild
//! the entire key-value metadata database from nothing but the chunks
//! themselves (fault recovery, §4.1.2).
//!
//! This crate implements:
//!
//! * [`ChunkId`] — the 16-byte sortable chunk identifier of Table 1
//!   (timestamp ‖ machine id ‖ process id ‖ counter) together with an
//!   **order-preserving** base64-style text encoding, so that
//!   lexicographically sorting encoded IDs sorts chunks by creation time.
//! * [`ChunkBuilder`] — packs small files into a chunk until a target size
//!   (default 4 MB) is reached.
//! * [`ChunkView`] — the one chunk parser: an owned, zero-copy view over
//!   a shared [`diesel_util::Bytes`] buffer. It iterates files, extracts
//!   one file or a range, and verifies per-file CRC32 checksums; every
//!   read is a `Bytes` sub-slice of the chunk's single allocation, which
//!   is what the caching layers hand to trainers (DESIGN.md §11, payload
//!   plane).
//! * [`DeletionBitmap`] — tracks logically deleted files inside a chunk;
//!   [`compact`](compact::compact_chunk) rewrites a chunk without its holes
//!   (the `DL_purge` housekeeping function of §5).
//!
//! The binary layout is versioned and documented in [`mod@format`].

pub mod bitmap;
pub mod builder;
pub mod compact;
pub mod crc;
pub mod format;
pub mod id;
pub mod view;

pub use bitmap::DeletionBitmap;
pub use builder::{ChunkBuilder, ChunkBuilderConfig, ChunkWriter, SealedChunk};
pub use compact::{compact_chunk, mark_deleted, CompactionStats};
// diesel-lint: allow(R4) crate-root re-export: external header tools name the constants via here
pub use format::{ChunkHeader, FileEntry, CHUNK_MAGIC, FORMAT_VERSION};
pub use id::{ChunkId, ChunkIdGenerator, MachineId};
pub use view::ChunkView;

/// Default target chunk size used throughout DIESEL (§4: "files are
/// aggregated into large data chunks (≥ 4MB) on the client-side").
pub const DEFAULT_CHUNK_SIZE: usize = 4 << 20;

/// Errors produced while building or parsing chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// The buffer does not start with [`CHUNK_MAGIC`].
    BadMagic,
    /// The format version is newer than this library understands.
    UnsupportedVersion(u16),
    /// The buffer is shorter than the structures it claims to contain.
    Truncated { need: usize, have: usize },
    /// A per-file CRC32 checksum did not match the payload.
    ChecksumMismatch { file: String },
    /// The header CRC32 did not match.
    HeaderChecksumMismatch,
    /// A file name was not valid UTF-8.
    BadFileName,
    /// No file with the requested name exists in this chunk.
    NoSuchFile(String),
    /// The requested file exists but is marked deleted.
    FileDeleted(String),
    /// A chunk-ID string could not be decoded.
    BadChunkId,
    /// A single file is larger than the maximum chunk payload.
    FileTooLarge { size: usize, max: usize },
    /// An entry in the file table has an out-of-range offset/length.
    CorruptEntry { file: String },
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkError::BadMagic => write!(f, "buffer is not a DIESEL chunk (bad magic)"),
            ChunkError::UnsupportedVersion(v) => write!(f, "unsupported chunk format version {v}"),
            ChunkError::Truncated { need, have } => {
                write!(f, "chunk truncated: need {need} bytes, have {have}")
            }
            ChunkError::ChecksumMismatch { file } => {
                write!(f, "checksum mismatch for file {file:?}")
            }
            ChunkError::HeaderChecksumMismatch => write!(f, "chunk header checksum mismatch"),
            ChunkError::BadFileName => write!(f, "file name is not valid UTF-8"),
            ChunkError::NoSuchFile(name) => write!(f, "no such file in chunk: {name:?}"),
            ChunkError::FileDeleted(name) => write!(f, "file is deleted: {name:?}"),
            ChunkError::BadChunkId => write!(f, "malformed chunk id"),
            ChunkError::FileTooLarge { size, max } => {
                write!(f, "file of {size} bytes exceeds chunk payload limit {max}")
            }
            ChunkError::CorruptEntry { file } => {
                write!(f, "file table entry out of range for {file:?}")
            }
        }
    }
}

impl std::error::Error for ChunkError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ChunkError>;
