//! The server's wire API: every operation a client can ask of a
//! [`DieselServer`], expressed as one request enum so client↔server
//! traffic flows through a `diesel-net` [`Channel`] instead of direct
//! method calls on a concrete `Arc<DieselServer>`.
//!
//! The paper's deployment puts Thrift between libDIESEL and the server
//! (Fig. 2); this enum is that interface. A [`DirectChannel`] keeps the
//! co-located case free of queues and copies, while the same call sites
//! can be pointed at a thread transport, a load-balanced pool
//! ([`ServerPool`](crate::ServerPool)), or a simnet-cost-modeled wrapper
//! without touching client code.

use std::sync::Arc;

use diesel_chunk::{ChunkId, SealedChunk};
use diesel_kv::KvStore;
use diesel_meta::{DatasetRecord, DirEntry, FileMeta, MetaSnapshot};
use diesel_net::{Channel, DirectChannel, Endpoint};
use diesel_obs::{trace, RegistrySnapshot, Span};
use diesel_store::{Bytes, ObjectStore};

use crate::server::{DieselServer, PurgeReport};
use crate::{DieselError, Result};

/// One request to a DIESEL server.
#[derive(Debug, Clone)]
pub enum ServerRequest {
    /// Persist one sealed chunk and ingest its metadata (write flow).
    IngestChunk {
        /// Target dataset.
        dataset: String,
        /// The sealed chunk.
        chunk: SealedChunk,
    },
    /// Read one file by path (server-side metadata lookup).
    ReadFile {
        /// Dataset.
        dataset: String,
        /// File path.
        path: String,
    },
    /// Read one file from caller-held metadata (snapshot fast path).
    ReadByMeta {
        /// Dataset.
        dataset: String,
        /// The file's location.
        meta: FileMeta,
    },
    /// Read a whole chunk.
    ReadChunk {
        /// Dataset.
        dataset: String,
        /// Chunk to read.
        chunk: ChunkId,
    },
    /// Batched read, merged chunk-wise by the request executor.
    ReadFilesMerged {
        /// Dataset.
        dataset: String,
        /// Requested paths, reply in the same order.
        paths: Vec<String>,
    },
    /// `stat` by path.
    Stat {
        /// Dataset.
        dataset: String,
        /// File path.
        path: String,
    },
    /// `readdir`.
    Readdir {
        /// Dataset.
        dataset: String,
        /// Directory path.
        dir: String,
    },
    /// Materialize the dataset's metadata snapshot.
    BuildSnapshot {
        /// Dataset.
        dataset: String,
    },
    /// The dataset's freshness record (§4.1.3 snapshot validation).
    DatasetRecord {
        /// Dataset.
        dataset: String,
    },
    /// Delete one file (metadata + in-chunk bitmap flip).
    DeleteFile {
        /// Dataset.
        dataset: String,
        /// File path.
        path: String,
        /// Deletion timestamp (ms).
        now_ms: u64,
    },
    /// `DL_purge`: compact chunks with deletion holes.
    PurgeDataset {
        /// Dataset.
        dataset: String,
        /// Purge timestamp (ms).
        now_ms: u64,
    },
    /// `DL_delete_dataset`: drop every chunk and metadata key.
    DeleteDataset {
        /// Dataset.
        dataset: String,
    },
    /// A point-in-time snapshot of the server's metric registry, merged
    /// with its KV and store backends (remote observability).
    Stats,
    /// The same merged snapshot as [`Stats`](ServerRequest::Stats),
    /// rendered in the Prometheus text exposition format
    /// ([`diesel_obs::prom`]) — what `dlcmd scrape` and external
    /// monitoring pull.
    Scrape,
    /// Drain the server-side tracer's recorded spans (remote tracing;
    /// see [`diesel_obs::trace`]). Draining empties the buffer, so each
    /// span is returned exactly once.
    Trace,
}

impl ServerRequest {
    /// The request's operation name — the `endpoint=…` label on the
    /// server-side `server.handle` span.
    pub fn kind(&self) -> &'static str {
        match self {
            ServerRequest::IngestChunk { .. } => "IngestChunk",
            ServerRequest::ReadFile { .. } => "ReadFile",
            ServerRequest::ReadByMeta { .. } => "ReadByMeta",
            ServerRequest::ReadChunk { .. } => "ReadChunk",
            ServerRequest::ReadFilesMerged { .. } => "ReadFilesMerged",
            ServerRequest::Stat { .. } => "Stat",
            ServerRequest::Readdir { .. } => "Readdir",
            ServerRequest::BuildSnapshot { .. } => "BuildSnapshot",
            ServerRequest::DatasetRecord { .. } => "DatasetRecord",
            ServerRequest::DeleteFile { .. } => "DeleteFile",
            ServerRequest::PurgeDataset { .. } => "PurgeDataset",
            ServerRequest::DeleteDataset { .. } => "DeleteDataset",
            ServerRequest::Stats => "Stats",
            ServerRequest::Scrape => "Scrape",
            ServerRequest::Trace => "Trace",
        }
    }

    /// The tenant this request belongs to — the dataset it targets.
    /// Tenant identity *is* dataset identity in DIESEL (the paper's
    /// task-grained isolation, §4.2), so every data-plane request
    /// carries it already; only the control-plane requests
    /// ([`Stats`](ServerRequest::Stats)/[`Trace`](ServerRequest::Trace))
    /// are tenant-less and bypass admission control.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            ServerRequest::IngestChunk { dataset, .. }
            | ServerRequest::ReadFile { dataset, .. }
            | ServerRequest::ReadByMeta { dataset, .. }
            | ServerRequest::ReadChunk { dataset, .. }
            | ServerRequest::ReadFilesMerged { dataset, .. }
            | ServerRequest::Stat { dataset, .. }
            | ServerRequest::Readdir { dataset, .. }
            | ServerRequest::BuildSnapshot { dataset }
            | ServerRequest::DatasetRecord { dataset }
            | ServerRequest::DeleteFile { dataset, .. }
            | ServerRequest::PurgeDataset { dataset, .. }
            | ServerRequest::DeleteDataset { dataset } => Some(dataset),
            ServerRequest::Stats | ServerRequest::Scrape | ServerRequest::Trace => None,
        }
    }
}

/// A successful server reply; variants mirror [`ServerRequest`].
#[derive(Debug, Clone)]
pub enum ServerResponse {
    /// Operation completed with nothing to return.
    Unit,
    /// File or chunk bytes.
    Bytes(Bytes),
    /// Batched read results, in request order.
    BytesVec(Vec<Bytes>),
    /// A `stat` result.
    Meta(FileMeta),
    /// A `readdir` result.
    Entries(Vec<DirEntry>),
    /// A metadata snapshot.
    Snapshot(MetaSnapshot),
    /// A dataset freshness record.
    Record(DatasetRecord),
    /// A purge report.
    Purge(PurgeReport),
    /// Number of objects removed.
    Removed(u64),
    /// A metric-registry snapshot.
    Stats(RegistrySnapshot),
    /// Rendered text (a Prometheus scrape).
    Text(String),
    /// Spans drained from the server-side tracer.
    Trace(Vec<Span>),
}

/// Application-level outcome of one request. Transport failures live in
/// [`diesel_net::NetError`], below this layer.
pub type ServerReply = Result<ServerResponse>;

/// A connection to a DIESEL server (or pool of them).
pub type ServerConn = Channel<ServerRequest, ServerReply>;

fn unexpected(what: &str, got: &ServerResponse) -> DieselError {
    DieselError::Client(format!("server replied {got:?} where {what} was expected"))
}

impl ServerResponse {
    /// Unwrap [`ServerResponse::Bytes`].
    pub fn into_bytes(self) -> Result<Bytes> {
        match self {
            ServerResponse::Bytes(b) => Ok(b),
            other => Err(unexpected("bytes", &other)),
        }
    }

    /// Unwrap [`ServerResponse::BytesVec`].
    pub fn into_bytes_vec(self) -> Result<Vec<Bytes>> {
        match self {
            ServerResponse::BytesVec(v) => Ok(v),
            other => Err(unexpected("a bytes batch", &other)),
        }
    }

    /// Unwrap [`ServerResponse::Meta`].
    pub fn into_meta(self) -> Result<FileMeta> {
        match self {
            ServerResponse::Meta(m) => Ok(m),
            other => Err(unexpected("file metadata", &other)),
        }
    }

    /// Unwrap [`ServerResponse::Entries`].
    pub fn into_entries(self) -> Result<Vec<DirEntry>> {
        match self {
            ServerResponse::Entries(v) => Ok(v),
            other => Err(unexpected("directory entries", &other)),
        }
    }

    /// Unwrap [`ServerResponse::Snapshot`].
    pub fn into_snapshot(self) -> Result<MetaSnapshot> {
        match self {
            ServerResponse::Snapshot(s) => Ok(s),
            other => Err(unexpected("a snapshot", &other)),
        }
    }

    /// Unwrap [`ServerResponse::Record`].
    pub fn into_record(self) -> Result<DatasetRecord> {
        match self {
            ServerResponse::Record(r) => Ok(r),
            other => Err(unexpected("a dataset record", &other)),
        }
    }

    /// Unwrap [`ServerResponse::Purge`].
    pub fn into_purge(self) -> Result<PurgeReport> {
        match self {
            ServerResponse::Purge(p) => Ok(p),
            other => Err(unexpected("a purge report", &other)),
        }
    }

    /// Unwrap [`ServerResponse::Removed`].
    pub fn into_removed(self) -> Result<u64> {
        match self {
            ServerResponse::Removed(n) => Ok(n),
            other => Err(unexpected("a removal count", &other)),
        }
    }

    /// Unwrap [`ServerResponse::Stats`].
    pub fn into_stats(self) -> Result<RegistrySnapshot> {
        match self {
            ServerResponse::Stats(s) => Ok(s),
            other => Err(unexpected("a stats snapshot", &other)),
        }
    }

    /// Unwrap [`ServerResponse::Text`].
    pub fn into_text(self) -> Result<String> {
        match self {
            ServerResponse::Text(t) => Ok(t),
            other => Err(unexpected("rendered text", &other)),
        }
    }

    /// Unwrap [`ServerResponse::Trace`].
    pub fn into_trace(self) -> Result<Vec<Span>> {
        match self {
            ServerResponse::Trace(v) => Ok(v),
            other => Err(unexpected("drained trace spans", &other)),
        }
    }
}

impl<K: KvStore, S: ObjectStore> DieselServer<K, S> {
    /// Dispatch one wire request to the corresponding server method.
    pub fn handle(&self, req: ServerRequest) -> ServerReply {
        // Drains bypass the span machinery: the drain itself must not
        // append to the buffer it empties.
        if matches!(req, ServerRequest::Trace) {
            return Ok(ServerResponse::Trace(self.tracer().drain()));
        }
        // Scrapes render outside the span/admission machinery too: a
        // monitoring pull must not perturb (or be blocked by) the
        // tenant data plane it observes.
        if matches!(req, ServerRequest::Scrape) {
            return Ok(ServerResponse::Text(diesel_obs::render_prometheus(&self.stats_snapshot())));
        }
        // Installing a disabled tracer is one thread-local read; when a
        // caller context arrived in the envelope (or via a direct
        // channel), the handle span parents the caller's span.
        let _tracer = trace::install_tracer(self.tracer());
        let _span = trace::span("server.handle", &[("endpoint", req.kind())]);
        // Admission control (DESIGN.md §14): tenant-carrying requests
        // pass the per-tenant token bucket + DRR fair-share queue before
        // touching the exec pool; the permit is held for the whole
        // dispatch so the global concurrency cap bounds real work.
        let _permit = match (self.admission(), req.tenant()) {
            (Some(adm), Some(tenant)) => Some(adm.admit(tenant).map_err(DieselError::Cache)?),
            _ => None,
        };
        // Per-tenant telemetry around the dispatch: read-class requests
        // time into `server.read_latency{dataset=…}` (what the SLO
        // monitor's p99 objective reads) and any admitted request that
        // fails counts into `server.request_errors{dataset=…}`.
        // Throttles never reach this point — they are a separate budget
        // (`server.tenant.throttled`), not a request error.
        let read_class = matches!(
            req,
            ServerRequest::ReadFile { .. }
                | ServerRequest::ReadByMeta { .. }
                | ServerRequest::ReadChunk { .. }
                | ServerRequest::ReadFilesMerged { .. }
        );
        let dataset = req.tenant().map(str::to_owned);
        let start_ns = if read_class { Some(self.registry().clock().now_ns()) } else { None };
        let reply = match req {
            ServerRequest::IngestChunk { dataset, chunk } => {
                self.ingest_chunk(&dataset, chunk).map(|()| ServerResponse::Unit)
            }
            ServerRequest::ReadFile { dataset, path } => {
                self.read_file(&dataset, &path).map(ServerResponse::Bytes)
            }
            ServerRequest::ReadByMeta { dataset, meta } => {
                self.read_by_meta(&dataset, &meta).map(ServerResponse::Bytes)
            }
            ServerRequest::ReadChunk { dataset, chunk } => {
                self.read_chunk(&dataset, chunk).map(ServerResponse::Bytes)
            }
            ServerRequest::ReadFilesMerged { dataset, paths } => {
                let refs: Vec<&str> = paths.iter().map(String::as_str).collect();
                self.read_files_merged(&dataset, &refs).map(ServerResponse::BytesVec)
            }
            ServerRequest::Stat { dataset, path } => {
                self.stat(&dataset, &path).map(ServerResponse::Meta)
            }
            ServerRequest::Readdir { dataset, dir } => {
                self.readdir(&dataset, &dir).map(ServerResponse::Entries)
            }
            ServerRequest::BuildSnapshot { dataset } => {
                self.build_snapshot(&dataset).map(ServerResponse::Snapshot)
            }
            ServerRequest::DatasetRecord { dataset } => {
                Ok(ServerResponse::Record(self.meta().dataset_record(&dataset)?))
            }
            ServerRequest::DeleteFile { dataset, path, now_ms } => {
                self.delete_file(&dataset, &path, now_ms).map(|()| ServerResponse::Unit)
            }
            ServerRequest::PurgeDataset { dataset, now_ms } => {
                self.purge_dataset(&dataset, now_ms).map(ServerResponse::Purge)
            }
            ServerRequest::DeleteDataset { dataset } => {
                self.delete_dataset(&dataset).map(ServerResponse::Removed)
            }
            ServerRequest::Stats => Ok(ServerResponse::Stats(self.stats_snapshot())),
            // Handled by the early returns above; kept for exhaustiveness.
            ServerRequest::Scrape => {
                Ok(ServerResponse::Text(diesel_obs::render_prometheus(&self.stats_snapshot())))
            }
            ServerRequest::Trace => Ok(ServerResponse::Trace(self.tracer().drain())),
        };
        if let Some(dataset) = dataset.as_deref() {
            if let Some(start) = start_ns {
                let elapsed = self.registry().clock().now_ns().saturating_sub(start);
                self.registry()
                    .histogram("server.read_latency", &[("dataset", dataset)])
                    .record_ns(elapsed);
            }
            if reply.is_err() {
                self.registry().counter("server.request_errors", &[("dataset", dataset)]).inc();
            }
        }
        reply
    }

    /// An in-process [`ServerConn`] to this server: direct dispatch, no
    /// queueing — the zero-overhead path for co-located clients.
    pub fn direct_channel(self: &Arc<Self>, node: usize) -> ServerConn
    where
        K: 'static,
        S: 'static,
    {
        let server = self.clone();
        Arc::new(DirectChannel::new(Endpoint::new("server", node), move |req| {
            Ok(server.handle(req))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::{ChunkBuilder, ChunkIdGenerator};
    use diesel_kv::ShardedKv;
    use diesel_net::Service;
    use diesel_store::MemObjectStore;

    fn server() -> Arc<DieselServer<ShardedKv, MemObjectStore>> {
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())))
    }

    fn sealed(files: &[(&str, &[u8])]) -> SealedChunk {
        let ids = ChunkIdGenerator::deterministic(3, 3, 30);
        let mut b = ChunkBuilder::with_default_config();
        for (n, d) in files {
            b.add_file(n, d).unwrap();
        }
        let (header, bytes) = b.seal(ids.next_id(), 1_000);
        SealedChunk { header, bytes: bytes.into() }
    }

    #[test]
    fn request_dispatch_covers_every_operation() {
        let s = server();
        let conn = s.direct_channel(0);
        let ds = || "ds".to_owned();
        conn.call(ServerRequest::IngestChunk {
            dataset: ds(),
            chunk: sealed(&[("a", b"alpha"), ("b", b"beta")]),
        })
        .unwrap()
        .unwrap();
        let data = conn
            .call(ServerRequest::ReadFile { dataset: ds(), path: "a".into() })
            .unwrap()
            .unwrap()
            .into_bytes()
            .unwrap();
        assert_eq!(data.as_ref(), b"alpha");
        let meta = conn
            .call(ServerRequest::Stat { dataset: ds(), path: "b".into() })
            .unwrap()
            .unwrap()
            .into_meta()
            .unwrap();
        let by_meta = conn
            .call(ServerRequest::ReadByMeta { dataset: ds(), meta })
            .unwrap()
            .unwrap()
            .into_bytes()
            .unwrap();
        assert_eq!(by_meta.as_ref(), b"beta");
        let merged = conn
            .call(ServerRequest::ReadFilesMerged {
                dataset: ds(),
                paths: vec!["a".into(), "b".into()],
            })
            .unwrap()
            .unwrap()
            .into_bytes_vec()
            .unwrap();
        assert_eq!(merged[0].as_ref(), b"alpha");
        assert_eq!(merged[1].as_ref(), b"beta");
        let snap = conn
            .call(ServerRequest::BuildSnapshot { dataset: ds() })
            .unwrap()
            .unwrap()
            .into_snapshot()
            .unwrap();
        assert_eq!(snap.files.len(), 2);
        let chunk = conn
            .call(ServerRequest::ReadChunk { dataset: ds(), chunk: snap.chunks[0] })
            .unwrap()
            .unwrap()
            .into_bytes()
            .unwrap();
        diesel_chunk::ChunkView::parse(chunk).unwrap();
        let rec = conn
            .call(ServerRequest::DatasetRecord { dataset: ds() })
            .unwrap()
            .unwrap()
            .into_record()
            .unwrap();
        assert_eq!(rec.file_count, 2);
        assert_eq!(
            conn.call(ServerRequest::Readdir { dataset: ds(), dir: "".into() })
                .unwrap()
                .unwrap()
                .into_entries()
                .unwrap()
                .len(),
            2
        );
        let stats = conn.call(ServerRequest::Stats).unwrap().unwrap().into_stats().unwrap();
        assert!(stats.sum_counter("server.file_reads") >= 2, "reads counted: {stats:?}");
        assert_eq!(stats.counter("server.chunks_ingested"), 1);
        assert!(stats.sum_counter("kv.puts") > 0, "kv backend metrics merged in");
        conn.call(ServerRequest::DeleteFile { dataset: ds(), path: "a".into(), now_ms: 2_000 })
            .unwrap()
            .unwrap();
        let purge = conn
            .call(ServerRequest::PurgeDataset { dataset: ds(), now_ms: 3_000 })
            .unwrap()
            .unwrap()
            .into_purge()
            .unwrap();
        assert_eq!(purge.bytes_reclaimed, 5);
        let removed = conn
            .call(ServerRequest::DeleteDataset { dataset: ds() })
            .unwrap()
            .unwrap()
            .into_removed()
            .unwrap();
        assert!(removed >= 1);
    }

    #[test]
    fn application_errors_travel_inside_the_reply() {
        let s = server();
        let conn = s.direct_channel(0);
        let reply = conn
            .call(ServerRequest::ReadFile { dataset: "ds".into(), path: "ghost".into() })
            .unwrap(); // transport succeeded
        assert!(matches!(reply, Err(DieselError::Meta(_))), "app error inside reply: {reply:?}");
    }

    #[test]
    fn wrong_variant_unwraps_are_typed_errors() {
        let err = ServerResponse::Unit.into_bytes().unwrap_err();
        assert!(matches!(err, DieselError::Client(_)));
        let err = ServerResponse::Removed(3).into_snapshot().unwrap_err();
        assert!(matches!(err, DieselError::Client(_)));
    }
}
