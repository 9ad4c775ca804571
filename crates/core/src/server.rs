//! The DIESEL server: unified data + metadata front over the object
//! store and the KV database (Fig. 2).

use std::collections::HashMap;
use std::sync::Arc;

use diesel_chunk::{compact_chunk, mark_deleted, ChunkId, ChunkIdGenerator, SealedChunk};
use diesel_exec::WorkPool;
use diesel_kv::KvStore;
use diesel_meta::recovery::{
    chunk_object_key, recover_from_timestamp, recover_full, RecoveryReport,
};
use diesel_meta::{DirEntry, FileMeta, MetaService, MetaSnapshot};
use diesel_obs::{
    trace, Counter, FlightRecorder, RecorderConfig, RecorderDriver, Registry, RegistrySnapshot,
    SloMonitor, SloTarget, Tracer,
};
use diesel_store::{Bytes, ObjectStore};
use diesel_util::Mutex;

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::executor::plan_chunk_reads;
use crate::{DieselError, Result};

/// Statistics of a purge (`DL_purge`) sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PurgeReport {
    /// Chunks rewritten.
    pub chunks_compacted: u64,
    /// Chunks removed entirely (all files deleted).
    pub chunks_removed: u64,
    /// Payload bytes reclaimed.
    pub bytes_reclaimed: u64,
}

/// Per-server executor counters, registered under `server.*`. The
/// read-path counters (`server.file_reads`, `server.chunks_fetched`)
/// are *not* held here: they carry a `{dataset=…}` label per tenant and
/// are resolved from the registry at the call site, so per-tenant QPS
/// is attributable and cluster totals come from `sum_counter`.
struct Metrics {
    chunks_ingested: Counter,
    merged_reads: Counter,
    merged_requests: Counter,
    purge_chunks_compacted: Counter,
    purge_chunks_removed: Counter,
    purge_bytes_reclaimed: Counter,
    refreshes: Counter,
    refresh_chunks_added: Counter,
    refresh_chunks_removed: Counter,
    refresh_chunks_rechecked: Counter,
    refresh_files_added: Counter,
    refresh_files_removed: Counter,
}

impl Metrics {
    fn new(registry: &Registry) -> Self {
        Metrics {
            chunks_ingested: registry.counter("server.chunks_ingested", &[]),
            merged_reads: registry.counter("server.merged_reads", &[]),
            merged_requests: registry.counter("server.merged_requests", &[]),
            purge_chunks_compacted: registry.counter("server.purge.chunks_compacted", &[]),
            purge_chunks_removed: registry.counter("server.purge.chunks_removed", &[]),
            purge_bytes_reclaimed: registry.counter("server.purge.bytes_reclaimed", &[]),
            refreshes: registry.counter("server.refreshes", &[]),
            refresh_chunks_added: registry.counter("server.refresh.chunks_added", &[]),
            refresh_chunks_removed: registry.counter("server.refresh.chunks_removed", &[]),
            refresh_chunks_rechecked: registry.counter("server.refresh.chunks_rechecked", &[]),
            refresh_files_added: registry.counter("server.refresh.files_added", &[]),
            refresh_files_removed: registry.counter("server.refresh.files_removed", &[]),
        }
    }
}

/// The DIESEL server.
pub struct DieselServer<K, S> {
    meta: MetaService<K>,
    store: Arc<S>,
    ids: ChunkIdGenerator,
    // Chunk header lengths by object key. A chunk's header length is
    // immutable for the object's lifetime (bitmap flips rewrite bytes in
    // place without resizing the header), so caching it removes the
    // 4-byte probe read that used to precede every payload read.
    header_lens: Mutex<HashMap<String, u64>>,
    registry: Arc<Registry>,
    metrics: Metrics,
    pool: WorkPool,
    tracer: Tracer,
    admission: Option<AdmissionController>,
    recorder: Option<Arc<FlightRecorder>>,
    slo: Option<Arc<SloMonitor>>,
    telemetry_driver: Option<RecorderDriver>,
}

impl<K: KvStore, S: ObjectStore> DieselServer<K, S> {
    /// Deploy a server over the given KV database and object store, with
    /// a private metrics registry.
    pub fn new(kv: Arc<K>, store: Arc<S>) -> Self {
        Self::with_registry(kv, store, Arc::new(Registry::default()))
    }

    /// Deploy a server whose `server.*` counters land in `registry`.
    pub fn with_registry(kv: Arc<K>, store: Arc<S>, registry: Arc<Registry>) -> Self {
        let metrics = Metrics::new(&registry);
        let tracer = Tracer::new(&registry);
        DieselServer {
            meta: MetaService::new(kv),
            store,
            ids: ChunkIdGenerator::new(),
            header_lens: Mutex::named("core.server_headers", HashMap::new()),
            registry,
            metrics,
            pool: diesel_exec::global().clone(),
            tracer,
            admission: None,
            recorder: None,
            slo: None,
            telemetry_driver: None,
        }
    }

    /// Gate tenant-carrying requests behind an admission controller
    /// (per-tenant token bucket + global concurrency cap + DRR
    /// fair-share queue, DESIGN.md §14) whose `server.tenant.*` metrics
    /// land in this server's registry.
    pub fn with_admission(mut self, cfg: AdmissionConfig) -> Self {
        self.admission = Some(AdmissionController::with_registry(cfg, Arc::clone(&self.registry)));
        self
    }

    /// Like [`DieselServer::with_admission`], but with a caller-built
    /// controller — e.g. one driven by a
    /// [`MockClock`](diesel_util::MockClock), or shared across the
    /// front-ends of a [`ServerPool`](crate::ServerPool) so the global
    /// concurrency cap spans the whole fleet.
    pub fn with_admission_controller(mut self, admission: AdmissionController) -> Self {
        self.admission = Some(admission);
        self
    }

    /// The admission controller gating this server's tenant requests,
    /// if one is installed.
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_ref()
    }

    /// Attach a caller-built flight recorder (it must sample this
    /// server's registry). Nothing drives it yet — deterministic
    /// harnesses tick it themselves; live deployments follow with
    /// [`DieselServer::start_telemetry`].
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attach a flight recorder over this server's registry with the
    /// given caps/interval (use [`RecorderConfig::from_env`] for the
    /// `DIESEL_RECORDER_*` knobs).
    pub fn with_recorder_config(self, cfg: RecorderConfig) -> Self {
        let recorder = Arc::new(FlightRecorder::new(Arc::clone(&self.registry), cfg));
        self.with_recorder(recorder)
    }

    /// Declare per-tenant SLO targets, evaluated against the flight
    /// recorder on every telemetry tick. Attaches an env-configured
    /// recorder first if none is present.
    pub fn with_slo_targets(mut self, targets: Vec<SloTarget>) -> Self {
        if self.recorder.is_none() {
            self = self.with_recorder_config(RecorderConfig::from_env());
        }
        if let Some(recorder) = &self.recorder {
            self.slo = Some(Arc::new(SloMonitor::new(
                Arc::clone(&self.registry),
                Arc::clone(recorder),
                targets,
            )));
        }
        self
    }

    /// Spawn the background telemetry driver: one recorder tick per
    /// interval on the registry's clock, each followed by an SLO
    /// evaluation when targets are declared. The driver stops (and its
    /// thread joins) when the server drops. No-op without a recorder;
    /// don't call under `MockClock` (virtual sleeps return instantly —
    /// tick deterministically instead).
    pub fn start_telemetry(mut self) -> Self {
        if let Some(rec) = &self.recorder {
            let slo = self.slo.clone();
            self.telemetry_driver = Some(rec.spawn_with(move || {
                if let Some(monitor) = &slo {
                    monitor.evaluate();
                }
            }));
        }
        self
    }

    /// The attached flight recorder, if any — what `dlcmd top` and the
    /// SLO monitor query.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// The SLO monitor evaluating this server's tenants, if configured.
    pub fn slo_monitor(&self) -> Option<&Arc<SloMonitor>> {
        self.slo.as_ref()
    }

    /// Deterministic ID generation for compaction (tests/simulations).
    pub fn with_id_generator(mut self, ids: ChunkIdGenerator) -> Self {
        self.ids = ids;
        self
    }

    /// Execute merged read plans on `pool` instead of the process-wide
    /// [`diesel_exec::global()`] pool (e.g. an inline pool for
    /// deterministic tests, or a pool sharing this server's registry
    /// for unified `exec.*` metrics).
    pub fn with_pool(mut self, pool: WorkPool) -> Self {
        self.pool = pool;
        self
    }

    /// Record request handling into `tracer` instead of the default
    /// `DIESEL_TRACE`-configured one — e.g. a [`Tracer::enabled`] shared
    /// with the client side so one drain yields the whole request tree.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The tracer recording this server's `server.*` spans; drained
    /// remotely via `ServerRequest::Trace`.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metadata service.
    pub fn meta(&self) -> &MetaService<K> {
        &self.meta
    }

    /// The backing object store.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// The registry holding this server's `server.*` counters.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A snapshot of this server's *own* metrics only — what a
    /// [`ServerPool`](crate::ServerPool) merges per front-end so shared
    /// backends are not double counted.
    pub fn own_snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// The full observability picture through this server: its own
    /// `server.*` counters merged with the KV database's `kv.*` and the
    /// object store's `store.*` metrics, when those layers keep
    /// registries. Served remotely as `ServerRequest::Stats`.
    pub fn stats_snapshot(&self) -> RegistrySnapshot {
        let mut snap = self.registry.snapshot();
        if let Some(kv) = self.meta.kv().obs_snapshot() {
            snap.merge(&kv);
        }
        if let Some(store) = self.store.obs_snapshot() {
            snap.merge(&store);
        }
        snap
    }

    // ---- write flow (Fig. 3) ----

    /// Receive one sealed chunk from a client: persist the chunk bytes
    /// and extract its metadata into the KV database. Takes the chunk
    /// by value so the payload moves straight into the store's
    /// refcounted [`Bytes`] without a copy.
    pub fn ingest_chunk(&self, dataset: &str, chunk: SealedChunk) -> Result<()> {
        let SealedChunk { header, bytes } = chunk;
        let key = chunk_object_key(dataset, header.id);
        let size = bytes.len() as u64;
        self.store.put(&key, bytes)?;
        self.meta.ingest_chunk(dataset, &header, size)?;
        self.header_lens.lock().insert(key, header.header_len as u64);
        self.metrics.chunks_ingested.inc();
        Ok(())
    }

    /// The header length of the chunk object at `key`, probed once and
    /// cached (the header is a fixed prefix; its length sits at bytes
    /// 6..10 of the encoding).
    fn chunk_header_len(&self, key: &str) -> Result<u64> {
        if let Some(&len) = self.header_lens.lock().get(key) {
            return Ok(len);
        }
        let head = self.store.get_range(key, 6, 4)?;
        let head: [u8; 4] = head
            .as_ref()
            .try_into()
            .map_err(|_| DieselError::Client(format!("chunk object {key} truncated")))?;
        let len = u32::from_le_bytes(head) as u64;
        self.header_lens.lock().insert(key.to_owned(), len);
        Ok(len)
    }

    // ---- read flow (Fig. 4) ----

    /// Read one file by path (metadata lookup + range read).
    pub fn read_file(&self, dataset: &str, path: &str) -> Result<Bytes> {
        let meta = self.meta.file_meta(dataset, path)?;
        self.read_by_meta(dataset, &meta)
    }

    /// Read one file when the caller already holds its metadata (clients
    /// with a snapshot skip the server-side lookup entirely).
    pub fn read_by_meta(&self, dataset: &str, meta: &FileMeta) -> Result<Bytes> {
        self.registry.counter("server.file_reads", &[("dataset", dataset)]).inc();
        let key = chunk_object_key(dataset, meta.chunk);
        // The payload offset is relative to the chunk payload; the chunk
        // header precedes it.
        let header_len = self.chunk_header_len(&key)?;
        let _span = if trace::active() {
            trace::span("store.get_range", &[("key", key.as_str())])
        } else {
            trace::SpanGuard::default()
        };
        let data = self.store.get_range(&key, header_len + meta.offset, meta.length as usize)?;
        Ok(data)
    }

    /// Read a whole chunk (what the task-grained cache and the chunk-wise
    /// shuffle issue).
    pub fn read_chunk(&self, dataset: &str, chunk: ChunkId) -> Result<Bytes> {
        self.registry.counter("server.chunks_fetched", &[("dataset", dataset)]).inc();
        let key = chunk_object_key(dataset, chunk);
        let _span = if trace::active() {
            trace::span("store.get", &[("key", key.as_str())])
        } else {
            trace::SpanGuard::default()
        };
        Ok(self.store.get(&key)?)
    }

    /// Batched read with the request executor: requests are sorted and
    /// merged into one ranged read per chunk (Fig. 2). Results come back
    /// in the original request order.
    pub fn read_files_merged(&self, dataset: &str, paths: &[&str]) -> Result<Vec<Bytes>> {
        // One batch: a merged read is never visible without its request
        // count, so `merged_requests / merged_reads` is a sound average.
        self.registry.batch(|| {
            self.metrics.merged_reads.inc();
            self.metrics.merged_requests.add(paths.len() as u64);
        });
        let metas: Vec<FileMeta> = paths
            .iter()
            .map(|p| self.meta.file_meta(dataset, p))
            .collect::<diesel_meta::Result<_>>()?;
        let plans = plan_chunk_reads(&metas);
        // Execute the per-chunk plans concurrently on the work pool; the
        // slices land in request-order slots, so the response (and the
        // first error, if any, in plan order) is identical to the serial
        // loop for any worker count.
        let plan_slices = self.pool.try_map(plans, |_, plan| {
            let key = chunk_object_key(dataset, plan.chunk);
            // Per-plan span: the work pool carries the handler's trace
            // context onto whichever worker runs this plan.
            let _span = if trace::active() {
                let n = plan.requests.len().to_string();
                trace::span("server.plan_read", &[("key", key.as_str()), ("files", n.as_str())])
            } else {
                trace::SpanGuard::default()
            };
            let header_len = self.chunk_header_len(&key)?;
            // One merged read covering every requested byte in the chunk.
            let base = plan.min_offset();
            let span = plan.merged_span() as usize;
            let merged = self.store.get_range(&key, header_len + base, span)?;
            let mut slices = Vec::with_capacity(plan.requests.len());
            for (idx, meta) in &plan.requests {
                let start = (meta.offset - base) as usize;
                let end = start + meta.length as usize;
                if end > merged.len() {
                    return Err(DieselError::Client(format!(
                        "merged read short for request {idx}"
                    )));
                }
                slices.push((*idx, merged.slice(start..end)));
            }
            Ok(slices)
        })?;
        let mut out: Vec<Option<Bytes>> = vec![None; paths.len()];
        for (idx, bytes) in plan_slices.into_iter().flatten() {
            if let Some(slot) = out.get_mut(idx) {
                *slot = Some(bytes);
            }
        }
        out.into_iter()
            .enumerate()
            .map(|(idx, b)| {
                b.ok_or_else(|| {
                    DieselError::Client(format!("request {idx} not covered by any read plan"))
                })
            })
            .collect()
    }

    // ---- metadata passthrough ----

    /// `stat` by path.
    pub fn stat(&self, dataset: &str, path: &str) -> Result<FileMeta> {
        Ok(self.meta.file_meta(dataset, path)?)
    }

    /// `readdir`.
    pub fn readdir(&self, dataset: &str, dir: &str) -> Result<Vec<DirEntry>> {
        Ok(self.meta.readdir(dataset, dir)?)
    }

    /// Materialize the dataset's metadata snapshot (what clients
    /// download).
    pub fn build_snapshot(&self, dataset: &str) -> Result<MetaSnapshot> {
        Ok(self.meta.build_snapshot(dataset)?)
    }

    // ---- mutation & housekeeping ----

    /// Delete one file: metadata removal + in-place bitmap flip in the
    /// stored chunk (so chunks stay self-contained for recovery).
    pub fn delete_file(&self, dataset: &str, path: &str, now_ms: u64) -> Result<()> {
        let meta = self.meta.delete_file(dataset, path, now_ms)?;
        let key = chunk_object_key(dataset, meta.chunk);
        // The store keeps its own reference, so `into_vec` materialises a
        // private copy of the chunk for the in-place bitmap flip — a
        // deliberate write-path copy, ledgered as such.
        let shared = self.store.get(&key)?;
        diesel_obs::record_copy("delete_rewrite", shared.len() as u64);
        let mut bytes = shared.into_vec();
        mark_deleted(&mut bytes, path)?;
        self.store.put(&key, Bytes::from(bytes))?;
        Ok(())
    }

    /// `DL_purge`: rewrite chunks with deletion holes, dropping dead
    /// bytes; fully-deleted chunks are removed.
    pub fn purge_dataset(&self, dataset: &str, now_ms: u64) -> Result<PurgeReport> {
        let mut report = PurgeReport::default();
        for id in self.meta.chunk_ids(dataset)? {
            let record = self.meta.chunk_record(dataset, id)?;
            if record.deleted_count() == 0 {
                continue;
            }
            let key = chunk_object_key(dataset, id);
            let bytes = self.store.get(&key)?;
            let old_header = diesel_chunk::ChunkHeader::decode(&bytes)?;
            let live_bytes: u64 = old_header
                .files
                .iter()
                .enumerate()
                .filter(|(i, _)| !old_header.bitmap.is_deleted(*i))
                .map(|(_, f)| f.length)
                .sum();
            let Some((new_header, new_bytes, stats)) = compact_chunk(bytes, &self.ids, now_ms)?
            else {
                continue;
            };
            report.bytes_reclaimed += stats.reclaimed_bytes;
            // Remove the old chunk's contribution to the dataset counters;
            // the re-ingest below adds the rewritten chunk's back.
            self.meta.adjust_dataset_counters(
                dataset,
                -1,
                -(stats.live_files as i64),
                -(live_bytes as i64),
                now_ms,
            )?;
            // Remove the old chunk object and record. File records were
            // already removed at delete time; live files need re-pointing
            // to the new chunk, which re-ingest performs.
            self.store.delete(&key)?;
            self.header_lens.lock().remove(&key);
            self.meta
                .kv()
                .delete(&diesel_meta::keys::chunk_key(dataset, id))
                .map_err(diesel_meta::MetaError::Kv)?;
            if new_header.file_count() == 0 {
                report.chunks_removed += 1;
                // Nothing left to store; adjust the dataset chunk count.
                continue;
            }
            let new_key = chunk_object_key(dataset, new_header.id);
            let new_len = new_bytes.len() as u64;
            self.store.put(&new_key, Bytes::from(new_bytes))?;
            self.meta.ingest_chunk(dataset, &new_header, new_len)?;
            report.chunks_compacted += 1;
        }
        self.registry.batch(|| {
            self.metrics.purge_chunks_compacted.add(report.chunks_compacted);
            self.metrics.purge_chunks_removed.add(report.chunks_removed);
            self.metrics.purge_bytes_reclaimed.add(report.bytes_reclaimed);
        });
        Ok(report)
    }

    /// `DL_delete_dataset`: drop every chunk object and metadata key.
    pub fn delete_dataset(&self, dataset: &str) -> Result<u64> {
        let mut removed = 0u64;
        let prefix = format!("{dataset}/");
        for key in self.store.list_prefix(&prefix) {
            if self.store.delete(&key)? {
                removed += 1;
            }
        }
        self.header_lens.lock().retain(|k, _| !k.starts_with(&prefix));
        self.meta.delete_dataset(dataset)?;
        Ok(removed)
    }

    /// Incrementally refresh a stale snapshot instead of rebuilding it
    /// from scratch (§4.1.3 requires clients to re-download when the
    /// timestamp mismatches; for large datasets most of the snapshot is
    /// still valid, so this transfers only the delta):
    ///
    /// * chunks that vanished (purge/delete-dataset) drop their files;
    /// * new chunks are read from their self-contained headers;
    /// * surviving chunks whose record is newer than the snapshot are
    ///   re-checked against their deletion bitmaps.
    ///
    /// Returns the refreshed snapshot — byte-equivalent in content to a
    /// freshly built one. Delta statistics land in the server's
    /// `server.refresh.*` counters (one atomic batch per refresh).
    pub fn refresh_snapshot(&self, snapshot: &MetaSnapshot) -> Result<MetaSnapshot> {
        let dataset = snapshot.dataset.as_str();
        let record = self.meta.dataset_record(dataset)?;
        if snapshot.is_fresh(dataset, record.updated_ms) {
            return Ok(snapshot.clone());
        }
        let mut chunks_added = 0u64;
        let mut files_added = 0u64;
        let current: Vec<ChunkId> = self.meta.chunk_ids(dataset)?;
        let current_set: std::collections::HashSet<ChunkId> = current.iter().copied().collect();
        let old_set: std::collections::HashSet<ChunkId> = snapshot.chunks.iter().copied().collect();

        // Which surviving chunks changed since the snapshot?
        let mut rechecked: std::collections::HashMap<ChunkId, diesel_meta::ChunkRecord> =
            std::collections::HashMap::new();
        for &id in &current {
            if old_set.contains(&id) {
                let rec = self.meta.chunk_record(dataset, id)?;
                if rec.updated_ms > snapshot.updated_ms {
                    rechecked.insert(id, rec);
                }
            }
        }

        // Keep files from surviving chunks, applying newer bitmaps.
        let before = snapshot.files.len();
        let mut files: Vec<diesel_meta::snapshot::SnapshotFile> = snapshot
            .files
            .iter()
            .filter(|f| {
                if !current_set.contains(&f.meta.chunk) {
                    return false;
                }
                match rechecked.get(&f.meta.chunk) {
                    Some(rec) => !rec.bitmap.is_deleted(f.meta.index_in_chunk as usize),
                    None => true,
                }
            })
            .cloned()
            .collect();
        let files_removed = (before - files.len()) as u64;
        let chunks_removed =
            snapshot.chunks.iter().filter(|c| !current_set.contains(c)).count() as u64;
        let chunks_rechecked = rechecked.len() as u64;

        // Scan new chunks from their self-contained headers.
        for &id in &current {
            if old_set.contains(&id) {
                continue;
            }
            chunks_added += 1;
            let bytes = self.store.get(&chunk_object_key(dataset, id))?;
            let header = diesel_chunk::ChunkHeader::decode(&bytes)?;
            for (i, f) in header.files.iter().enumerate() {
                if header.bitmap.is_deleted(i) {
                    continue;
                }
                files_added += 1;
                files.push(diesel_meta::snapshot::SnapshotFile {
                    path: f.name.clone(),
                    meta: FileMeta {
                        chunk: id,
                        index_in_chunk: i as u32,
                        offset: f.offset,
                        length: f.length,
                        uploaded_ms: header.updated_ms,
                    },
                });
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        self.registry.batch(|| {
            self.metrics.refreshes.inc();
            self.metrics.refresh_chunks_added.add(chunks_added);
            self.metrics.refresh_chunks_removed.add(chunks_removed);
            self.metrics.refresh_chunks_rechecked.add(chunks_rechecked);
            self.metrics.refresh_files_added.add(files_added);
            self.metrics.refresh_files_removed.add(files_removed);
        });
        Ok(MetaSnapshot {
            dataset: dataset.to_owned(),
            updated_ms: record.updated_ms,
            chunks: current,
            files,
        })
    }

    // ---- fault recovery (§4.1.2) ----

    /// Rebuild all of `dataset`'s metadata from chunk headers (power
    /// loss, scenario b).
    pub fn recover_metadata_full(&self, dataset: &str) -> Result<RecoveryReport> {
        Ok(recover_full(&self.meta, self.store.as_ref(), dataset)?)
    }

    /// Rebuild metadata for chunks written at/after `since_secs`
    /// (scenario a).
    pub fn recover_metadata_since(&self, dataset: &str, since_secs: u32) -> Result<RecoveryReport> {
        Ok(recover_from_timestamp(&self.meta, self.store.as_ref(), dataset, since_secs)?)
    }
}

impl<K, S> std::fmt::Debug for DieselServer<K, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DieselServer").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::{ChunkBuilder, ChunkBuilderConfig, ChunkWriter};
    use diesel_kv::ShardedKv;
    use diesel_store::MemObjectStore;

    type Server = DieselServer<ShardedKv, MemObjectStore>;

    fn server() -> Server {
        DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new()))
            .with_id_generator(ChunkIdGenerator::deterministic(7, 7, 70_000))
    }

    fn ingest_files(s: &Server, dataset: &str, files: &[(&str, Vec<u8>)], chunk_size: usize) {
        let ids = ChunkIdGenerator::deterministic(1, 1, 1_000);
        let cfg = ChunkBuilderConfig { target_chunk_size: chunk_size, ..Default::default() };
        let mut w = ChunkWriter::new(cfg, &ids).with_clock(|| 1_000_000);
        for (n, d) in files {
            w.add_file(n, d).unwrap();
        }
        for sealed in w.finish() {
            s.ingest_chunk(dataset, sealed).unwrap();
        }
    }

    fn file(i: usize, len: usize) -> (String, Vec<u8>) {
        (format!("d{}/f{i:03}", i % 3), vec![(i % 251) as u8; len])
    }

    #[test]
    fn write_then_read_roundtrip() {
        let s = server();
        let files: Vec<(String, Vec<u8>)> = (0..30).map(|i| file(i, 100)).collect();
        let refs: Vec<(&str, Vec<u8>)> =
            files.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        ingest_files(&s, "ds", &refs, 1024);
        for (n, d) in &files {
            assert_eq!(s.read_file("ds", n).unwrap().as_ref(), &d[..], "{n}");
        }
        assert!(matches!(s.read_file("ds", "ghost"), Err(DieselError::Meta(_))));
        let rec = s.meta().dataset_record("ds").unwrap();
        assert_eq!(rec.file_count, 30);
        assert!(rec.chunk_count > 1);
    }

    #[test]
    fn merged_reads_equal_individual_reads() {
        let s = server();
        let files: Vec<(String, Vec<u8>)> = (0..40).map(|i| file(i, 64)).collect();
        let refs: Vec<(&str, Vec<u8>)> =
            files.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        ingest_files(&s, "ds", &refs, 2048);
        let paths: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        let merged = s.read_files_merged("ds", &paths).unwrap();
        assert_eq!(merged.len(), 40);
        for (i, (n, d)) in files.iter().enumerate() {
            assert_eq!(merged[i].as_ref(), &d[..], "merged read of {n}");
        }
    }

    #[test]
    fn read_chunk_returns_full_self_contained_chunk() {
        let s = server();
        ingest_files(&s, "ds", &[("a", vec![1; 10]), ("b", vec![2; 20])], 1 << 20);
        let ids = s.meta().chunk_ids("ds").unwrap();
        assert_eq!(ids.len(), 1);
        let chunk = s.read_chunk("ds", ids[0]).unwrap();
        let r = diesel_chunk::ChunkView::parse(chunk).unwrap();
        assert_eq!(r.read_file("a").unwrap(), [1u8; 10][..]);
    }

    #[test]
    fn delete_then_purge_reclaims_space() {
        let s = server();
        let files: Vec<(String, Vec<u8>)> = (0..12).map(|i| file(i, 500)).collect();
        let refs: Vec<(&str, Vec<u8>)> =
            files.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        ingest_files(&s, "ds", &refs, 2048);
        let before_bytes = s.store().total_bytes();

        s.delete_file("ds", &files[0].0, 2_000_000).unwrap();
        s.delete_file("ds", &files[1].0, 2_000_001).unwrap();
        assert!(s.read_file("ds", &files[0].0).is_err());

        let report = s.purge_dataset("ds", 2_000_002).unwrap();
        assert!(report.chunks_compacted >= 1);
        assert_eq!(report.bytes_reclaimed, 1000);
        assert!(s.store().total_bytes() < before_bytes);

        // Remaining files still readable after compaction re-pointing.
        for (n, d) in files.iter().skip(2) {
            assert_eq!(s.read_file("ds", n).unwrap().as_ref(), &d[..], "{n} after purge");
        }
        // Purge again: nothing to do.
        let again = s.purge_dataset("ds", 2_000_003).unwrap();
        assert_eq!(again, PurgeReport::default());
    }

    #[test]
    fn purge_removes_fully_deleted_chunks() {
        let s = server();
        // One chunk with exactly two files; delete both.
        let ids = ChunkIdGenerator::deterministic(2, 2, 500);
        let mut b = ChunkBuilder::with_default_config();
        b.add_file("x", b"xx").unwrap();
        b.add_file("y", b"yy").unwrap();
        let (header, bytes) = b.seal(ids.next_id(), 1);
        s.ingest_chunk("ds", SealedChunk { header, bytes: bytes.into() }).unwrap();
        s.delete_file("ds", "x", 2).unwrap();
        s.delete_file("ds", "y", 3).unwrap();
        let report = s.purge_dataset("ds", 4).unwrap();
        assert_eq!(report.chunks_removed, 1);
        assert_eq!(s.store().len(), 0, "empty chunk object must be gone");
    }

    #[test]
    fn delete_dataset_clears_store_and_meta() {
        let s = server();
        ingest_files(&s, "ds", &[("a", vec![0; 10])], 1024);
        ingest_files(&s, "other", &[("b", vec![0; 10])], 1024);
        let removed = s.delete_dataset("ds").unwrap();
        assert_eq!(removed, 1);
        assert!(s.meta().dataset_record("ds").is_err());
        assert!(s.read_file("other", "b").is_ok());
    }

    #[test]
    fn metadata_recovery_after_power_loss() {
        let s = server();
        let files: Vec<(String, Vec<u8>)> = (0..25).map(|i| file(i, 200)).collect();
        let refs: Vec<(&str, Vec<u8>)> =
            files.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        ingest_files(&s, "ds", &refs, 2048);
        s.delete_file("ds", &files[5].0, 9_999_999).unwrap();

        s.meta().kv().clear();
        let report = s.recover_metadata_full("ds").unwrap();
        assert_eq!(report.files_recovered, 24, "deleted file must stay deleted");
        for (i, (n, d)) in files.iter().enumerate() {
            if i == 5 {
                assert!(s.read_file("ds", n).is_err());
            } else {
                assert_eq!(s.read_file("ds", n).unwrap().as_ref(), &d[..]);
            }
        }
    }

    #[test]
    fn incremental_refresh_matches_full_rebuild() {
        let s = server();
        let files: Vec<(String, Vec<u8>)> = (0..30).map(|i| file(i, 120)).collect();
        let refs: Vec<(&str, Vec<u8>)> =
            files.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        ingest_files(&s, "ds", &refs, 2048);
        let snap0 = s.build_snapshot("ds").unwrap();

        // Fresh snapshot: refresh is a no-op and counts nothing.
        let same = s.refresh_snapshot(&snap0).unwrap();
        assert_eq!(same, snap0);
        assert_eq!(s.own_snapshot().counter("server.refreshes"), 0);

        // Mutate: delete two files, write new ones, purge (rewrites a
        // chunk under a fresh ID).
        s.delete_file("ds", &files[0].0, 5_000_000).unwrap();
        s.delete_file("ds", &files[4].0, 5_000_001).unwrap();
        let ids = ChunkIdGenerator::deterministic(8, 8, 90_000);
        let mut b = ChunkBuilder::with_default_config();
        b.add_file("new/one", b"fresh").unwrap();
        let (h, bytes) = b.seal(ids.next_id(), 5_000_002);
        s.ingest_chunk("ds", SealedChunk { header: h, bytes: bytes.into() }).unwrap();
        s.purge_dataset("ds", 5_000_003).unwrap();

        let refreshed = s.refresh_snapshot(&snap0).unwrap();
        let mut full = s.build_snapshot("ds").unwrap();
        full.files.sort_by(|a, b| a.path.cmp(&b.path));
        let mut refreshed_sorted = refreshed.clone();
        refreshed_sorted.files.sort_by(|a, b| a.path.cmp(&b.path));
        assert_eq!(refreshed_sorted.files, full.files);
        assert_eq!(refreshed.chunks, full.chunks);
        assert_eq!(refreshed.updated_ms, full.updated_ms);
        let stats = s.own_snapshot();
        assert_eq!(stats.counter("server.refreshes"), 1);
        assert!(stats.counter("server.refresh.chunks_added") >= 1, "new + compacted chunk");
        assert!(stats.counter("server.refresh.files_removed") >= 2);
        // The refreshed snapshot passes the freshness check.
        let rec = s.meta().dataset_record("ds").unwrap();
        assert!(refreshed.is_fresh("ds", rec.updated_ms));
    }

    #[test]
    fn refresh_applies_bitmap_only_deletions() {
        // A delete without purge leaves the chunk in place; the refresh
        // must still drop the file via the chunk record's newer bitmap.
        let s = server();
        let files: Vec<(String, Vec<u8>)> = (0..6).map(|i| file(i, 80)).collect();
        let refs: Vec<(&str, Vec<u8>)> =
            files.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        ingest_files(&s, "ds", &refs, 1 << 20); // one chunk
        let snap0 = s.build_snapshot("ds").unwrap();
        s.delete_file("ds", &files[2].0, 7_000_000).unwrap();
        let refreshed = s.refresh_snapshot(&snap0).unwrap();
        let stats = s.own_snapshot();
        assert_eq!(stats.counter("server.refresh.chunks_added"), 0);
        assert_eq!(stats.counter("server.refresh.chunks_rechecked"), 1);
        assert_eq!(stats.counter("server.refresh.files_removed"), 1);
        assert!(refreshed.files.iter().all(|f| f.path != files[2].0));
        assert_eq!(refreshed.files.len(), 5);
    }

    #[test]
    fn snapshot_served_by_server() {
        let s = server();
        ingest_files(&s, "ds", &[("p/q", vec![9; 40])], 1024);
        let snap = s.build_snapshot("ds").unwrap();
        assert_eq!(snap.files.len(), 1);
        let ns = snap.build_namespace();
        assert_eq!(ns.stat("p/q").unwrap().length, 40);
        assert_eq!(s.readdir("ds", "p").unwrap().len(), 1);
    }
}
