//! A data loader that reads training samples *through DIESEL*.
//!
//! Mirrors a PyTorch `DataLoader` over an image folder: the file list
//! comes from the client's metadata snapshot, the per-epoch order from
//! the configured shuffle strategy (`DL_shuffle`), and every sample is a
//! file read through the client (task cache → server → object store).
//!
//! Reads are pipelined (paper §4.2: I/O overlaps computation). Each
//! epoch runs a two-stage [`WorkPool::pipeline`]:
//!
//! 1. `loader.fetch` — the epoch's shuffle plan is cut into batch-sized
//!    position ranges; a batch's paths are resolved only when the stage
//!    pulls it, and read with [`DieselClient::get_many`], which the
//!    server merges into one ranged read per chunk (Fig. 2).
//! 2. `loader.decode` — fetched bytes are decoded and assembled into a
//!    `(Matrix, labels)` mini-batch.
//!
//! Starting an epoch therefore costs the shuffle plan, not a path list.
//! The epoch is pinned to the snapshot it was planned on
//! ([`EpochOrder`](diesel_core::EpochOrder)): a `download_meta` while it
//! runs changes later epochs, never this one.
//!
//! Read-ahead is counted in batches, not cores: each stage keeps
//! `prefetch_depth` batches in flight even on a pool with fewer
//! workers, so that many batch reads overlap their storage latency.
//!
//! Batch *contents and order* are byte-identical for any worker count —
//! the pipeline reorders completions back to source order — so an
//! inline pool (`DIESEL_EXEC_WORKERS=1`) reproduces a threaded run
//! exactly.

use std::sync::Arc;

use diesel_core::{DieselClient, DieselError};
use diesel_exec::{PipelineIter, WorkPool};
use diesel_kv::KvStore;
use diesel_obs::{trace, Tracer};
use diesel_store::ObjectStore;
use diesel_util::Bytes;

use crate::data::{sample_path, to_batch, Sample};
use crate::tensor::Matrix;

/// Upload a sample set as one-file-per-sample through the client
/// (the data-preparation step of §2.1).
pub fn upload_samples<K: KvStore + 'static, S: ObjectStore + 'static>(
    client: &DieselClient<K, S>,
    samples: &[Sample],
) -> diesel_core::Result<()> {
    for (i, s) in samples.iter().enumerate() {
        client.put(&sample_path(s.label, i), &s.encode())?;
    }
    client.flush()?;
    Ok(())
}

/// One decoded mini-batch: features and labels, or the first error hit
/// while fetching/decoding it.
pub type BatchResult = diesel_core::Result<(Matrix, Vec<usize>)>;

/// Mini-batch iterator over a DIESEL-resident dataset.
pub struct DataLoader<K, S> {
    client: Arc<DieselClient<K, S>>,
    batch_size: usize,
    seed: u64,
    pool: WorkPool,
    prefetch_depth: usize,
    tracer: Option<Tracer>,
}

impl<K: KvStore + 'static, S: ObjectStore + 'static> DataLoader<K, S> {
    /// Build a loader. The client must have a snapshot loaded and a
    /// shuffle strategy enabled. Uses the process-wide work pool
    /// (`DIESEL_EXEC_WORKERS`); override with [`with_pool`](Self::with_pool).
    pub fn new(client: Arc<DieselClient<K, S>>, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size >= 1);
        DataLoader {
            client,
            batch_size,
            seed,
            pool: diesel_exec::global().clone(),
            prefetch_depth: 2,
            tracer: None,
        }
    }

    /// Run the read pipeline on `pool` instead of the global one. An
    /// inline pool (`WorkPool::inline`) makes every epoch fully
    /// deterministic single-threaded execution.
    #[must_use]
    pub fn with_pool(mut self, pool: WorkPool) -> Self {
        self.pool = pool;
        self
    }

    /// Set the read-ahead, in batches: each pipeline stage keeps `depth`
    /// batches in flight (fetching, or decoding) whatever the pool's
    /// worker count, and at most `depth` finished batches wait between
    /// stages before the stage blocks (backpressure). A stage holds at
    /// most `max(pool workers, depth) + depth` batches in flight plus
    /// buffered.
    #[must_use]
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth.max(1);
        self
    }

    /// Record spans into `tracer` while reading: each batch gets a
    /// `loader.fetch{batch=i}` span (parenting the client/net/server
    /// spans of its reads) and a `loader.decode` child span, so one
    /// batch's whole journey shares a trace.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The wrapped client.
    pub fn client(&self) -> &Arc<DieselClient<K, S>> {
        &self.client
    }

    /// Stream one epoch as mini-batches in this epoch's shuffled order.
    ///
    /// Fetching and decoding run ahead of the consumer on the loader's
    /// work pool (bounded by the prefetch depth), so storage latency
    /// overlaps training compute. Yielded batches are identical — same
    /// order, same bytes — for any worker count.
    pub fn epoch_iter(&self, epoch: u64) -> diesel_core::Result<PipelineIter<BatchResult>> {
        // Only the plan is built here; each batch's paths are resolved
        // when the fetch stage pulls it, against the snapshot the epoch
        // was planned on.
        let order = self.client.plan_epoch(self.seed, epoch)?;
        let (batch_size, len) = (self.batch_size, order.len());
        let client = Arc::clone(&self.client);
        let tracer = self.tracer.clone();
        let fetched = self.pool.pipeline(
            "loader.fetch",
            self.prefetch_depth,
            0..len.div_ceil(batch_size),
            move |i: usize| {
                let _tracer = tracer.as_ref().map(trace::install_tracer);
                let span = if trace::active() {
                    let batch = i.to_string();
                    trace::span("loader.fetch", &[("batch", batch.as_str())])
                } else {
                    trace::SpanGuard::default()
                };
                // The fetch span's context rides along to the decode
                // stage, which may run on a different worker thread.
                let ctx = span.context();
                let start = i * batch_size;
                let paths = order.paths(start..len.min(start + batch_size));
                client.get_many(&paths).map(|bytes| (paths, bytes, ctx))
            },
        );
        let tracer = self.tracer.clone();
        Ok(self.pool.pipeline("loader.decode", self.prefetch_depth, fetched, move |fetch| {
            let (paths, bytes, ctx) = fetch?;
            let _tracer = tracer.as_ref().map(trace::install_tracer);
            let _ctx = trace::install_context(ctx);
            // Decode only under a sampled fetch — an unsampled batch
            // must not mint a decode-only root trace.
            let _span = if ctx.is_some() && trace::active() {
                trace::span("loader.decode", &[])
            } else {
                trace::SpanGuard::default()
            };
            decode_batch(&paths, &bytes)
        }))
    }

    /// Number of files per epoch.
    pub fn dataset_len(&self) -> diesel_core::Result<usize> {
        Ok(self.client.file_list()?.len())
    }
}

/// Decode one fetched path group into a training batch.
fn decode_batch(paths: &[String], bytes: &[Bytes]) -> BatchResult {
    // Decoding samples into tensors is the pipeline's one deliberate
    // transform copy; everything upstream of here is `Bytes` handoff.
    diesel_obs::record_copy("decode", bytes.iter().map(|b| b.len() as u64).sum());
    let mut samples = Vec::with_capacity(bytes.len());
    for (path, b) in paths.iter().zip(bytes) {
        let sample = Sample::decode(b)
            .ok_or_else(|| DieselError::Client(format!("undecodable sample {path}")))?;
        samples.push(sample);
    }
    let refs: Vec<&Sample> = samples.iter().collect();
    Ok(to_batch(&refs))
}

impl<K, S> std::fmt::Debug for DataLoader<K, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataLoader")
            .field("batch_size", &self.batch_size)
            .field("prefetch_depth", &self.prefetch_depth)
            .field("pool", &self.pool.name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticSpec;
    use diesel_core::DieselServer;
    use diesel_kv::ShardedKv;
    use diesel_shuffle::ShuffleKind;
    use diesel_store::MemObjectStore;

    fn setup(n: usize) -> (Arc<DieselClient<ShardedKv, MemObjectStore>>, Vec<Sample>) {
        setup_on(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())), n)
    }

    fn setup_on<S: ObjectStore + 'static>(
        server: DieselServer<ShardedKv, S>,
        n: usize,
    ) -> (Arc<DieselClient<ShardedKv, S>>, Vec<Sample>) {
        let server = Arc::new(server);
        let client = DieselClient::connect_with(
            server,
            "synth",
            diesel_core::ClientConfig {
                chunk: diesel_chunk::ChunkBuilderConfig {
                    target_chunk_size: 4096,
                    ..Default::default()
                },
            },
        )
        .with_deterministic_identity(1, 1, 100);
        let samples = SyntheticSpec::cifar_like().generate(n);
        upload_samples(&client, &samples).unwrap();
        client.download_meta().unwrap();
        client.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
        (Arc::new(client), samples)
    }

    fn collect<S: ObjectStore + 'static>(
        loader: &DataLoader<ShardedKv, S>,
        epoch: u64,
    ) -> Vec<(Matrix, Vec<usize>)> {
        loader.epoch_iter(epoch).unwrap().collect::<diesel_core::Result<Vec<_>>>().unwrap()
    }

    #[test]
    fn epoch_covers_every_sample_once() {
        let (client, samples) = setup(57);
        let loader = DataLoader::new(client, 8, 3);
        assert_eq!(loader.dataset_len().unwrap(), 57);
        let batches = collect(&loader, 0);
        assert_eq!(batches.len(), 8, "57 / 8 → 8 batches (last partial)");
        let total: usize = batches.iter().map(|(x, _)| x.rows).sum();
        assert_eq!(total, 57);
        // Label histogram must match the generated set.
        let mut want = vec![0usize; 10];
        for s in &samples {
            want[s.label] += 1;
        }
        let mut got = vec![0usize; 10];
        for (_, labels) in &batches {
            for &l in labels {
                got[l] += 1;
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn different_epochs_have_different_orders() {
        let (client, _) = setup(40);
        let loader = DataLoader::new(client, 40, 5);
        let e0 = collect(&loader, 0);
        let e1 = collect(&loader, 1);
        assert_ne!(e0[0].1, e1[0].1, "epoch label orders should differ");
    }

    #[test]
    fn feature_payloads_survive_the_trip() {
        let (client, samples) = setup(20);
        let loader = DataLoader::new(client, 20, 7);
        let batches = collect(&loader, 0);
        let (x, labels) = &batches[0];
        // Find a known sample by label + features.
        let s0 = &samples[0];
        let found = (0..x.rows).any(|r| labels[r] == s0.label && x.row(r) == &s0.features[..]);
        assert!(found, "sample 0 must come back bit-identical");
    }

    #[test]
    fn pipelined_batches_match_inline_for_any_worker_count() {
        let (client, _) = setup(41);
        let inline =
            DataLoader::new(Arc::clone(&client), 8, 11).with_pool(WorkPool::inline("loader-test"));
        let baseline = collect(&inline, 0);
        // The last case keeps more batches in flight than the pool has
        // workers.
        for (workers, depth) in [(2usize, 3), (8, 3), (2, 8)] {
            let pool = WorkPool::new(
                "loader-test",
                diesel_exec::ExecConfig { workers, queue_capacity: 0 },
            );
            let loader = DataLoader::new(Arc::clone(&client), 8, 11)
                .with_pool(pool)
                .with_prefetch_depth(depth);
            let got = collect(&loader, 0);
            assert_eq!(got.len(), baseline.len());
            for (g, b) in got.iter().zip(&baseline) {
                assert_eq!(g.1, b.1, "labels diverge at workers={workers} depth={depth}");
                assert_eq!(
                    g.0.data, b.0.data,
                    "features diverge at workers={workers} depth={depth}"
                );
            }
        }
    }

    #[test]
    fn traced_epoch_links_fetch_client_server_and_decode_spans() {
        use std::collections::HashMap;
        let server = DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new()));
        // One shared tracer across server, client, and loader: every
        // span of a batch's journey lands in one buffer.
        let tracer = diesel_obs::Tracer::enabled(server.registry());
        let server = Arc::new(server.with_tracer(tracer.clone()));
        let client = DieselClient::connect_with(
            server,
            "synth",
            diesel_core::ClientConfig {
                chunk: diesel_chunk::ChunkBuilderConfig {
                    target_chunk_size: 4096,
                    ..Default::default()
                },
            },
        )
        .with_deterministic_identity(1, 1, 100)
        .with_tracer(tracer.clone());
        let samples = SyntheticSpec::cifar_like().generate(12);
        upload_samples(&client, &samples).unwrap();
        client.download_meta().unwrap();
        client.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
        tracer.drain(); // keep only the epoch's spans

        let pool = WorkPool::new(
            "loader-trace",
            diesel_exec::ExecConfig { workers: 2, queue_capacity: 0 },
        );
        let loader =
            DataLoader::new(Arc::new(client), 4, 3).with_pool(pool).with_tracer(tracer.clone());
        let batches = collect(&loader, 0);
        assert_eq!(batches.len(), 3);

        let spans = tracer.drain();
        let by_id: HashMap<u64, &diesel_obs::Span> = spans.iter().map(|s| (s.id, s)).collect();
        let fetches: Vec<_> = spans.iter().filter(|s| s.name == "loader.fetch").collect();
        assert_eq!(fetches.len(), 3, "one fetch span per batch");
        let decodes: Vec<_> = spans.iter().filter(|s| s.name == "loader.decode").collect();
        assert_eq!(decodes.len(), 3);
        for d in &decodes {
            let parent = by_id[&d.parent.unwrap()];
            assert_eq!(parent.name, "loader.fetch", "decode parents its batch's fetch span");
        }
        // Every batch's read reached the server inside the same trace.
        for f in &fetches {
            assert!(
                spans.iter().any(|s| s.name == "server.handle" && s.trace == f.trace),
                "fetch trace {} never produced a server.handle span",
                f.trace
            );
        }
    }

    #[test]
    fn mid_epoch_drop_is_clean() {
        let (client, _) = setup(30);
        let loader = DataLoader::new(client, 4, 9).with_prefetch_depth(2);
        let mut iter = loader.epoch_iter(0).unwrap();
        let first = iter.next().unwrap().unwrap();
        assert_eq!(first.1.len(), 4);
        drop(iter); // pipeline must cancel and join without hanging
    }

    #[test]
    fn epoch_is_pinned_to_the_snapshot_it_was_planned_on() {
        let (client, _) = setup(48);
        let pool =
            WorkPool::new("loader-pin", diesel_exec::ExecConfig { workers: 2, queue_capacity: 0 });
        let loader = DataLoader::new(Arc::clone(&client), 4, 13).with_pool(pool);
        let want = collect(&loader, 0);
        let mut iter = loader.epoch_iter(0).unwrap();
        let mut got = vec![iter.next().unwrap().unwrap()];
        // A second writer's chunks carry an earlier timestamp, so they
        // sort first in the new snapshot and shift every chunk index an
        // unpinned epoch would resolve against.
        let writer = DieselClient::connect_with(
            Arc::clone(client.server()),
            "synth",
            diesel_core::ClientConfig {
                chunk: diesel_chunk::ChunkBuilderConfig {
                    target_chunk_size: 4096,
                    ..Default::default()
                },
            },
        )
        .with_deterministic_identity(2, 2, 50);
        for (i, s) in SyntheticSpec::cifar_like().generate(40).iter().enumerate() {
            writer.put(&format!("extra/sample{i:06}.bin"), &s.encode()).unwrap();
        }
        writer.flush().unwrap();
        client.download_meta().unwrap();
        assert_eq!(loader.dataset_len().unwrap(), 88, "the new snapshot is installed");
        got.extend(iter.map(Result::unwrap));
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.1, w.1, "labels diverge from the planned epoch");
            assert_eq!(g.0.data, w.0.data, "features diverge from the planned epoch");
        }
        // The next epoch plans against the new snapshot.
        let next: usize = collect(&loader, 1).iter().map(|(x, _)| x.rows).sum();
        assert_eq!(next, 88);
    }

    /// An object store whose ranged reads wait until `need` of them are
    /// outstanding at once, then let every read through. If the latch
    /// has not opened within `patience`, it fails every read instead, so
    /// a loader that never overlaps `need` reads fails fast rather than
    /// hanging.
    struct LatchStore {
        inner: MemObjectStore,
        need: usize,
        patience: std::time::Duration,
        /// `(outstanding reads, latch state)`: `None` while closed,
        /// `Some(true)` once opened, `Some(false)` once given up.
        state: diesel_util::Mutex<(usize, Option<bool>)>,
        cv: diesel_util::Condvar,
    }

    impl LatchStore {
        fn new(need: usize) -> Self {
            LatchStore {
                inner: MemObjectStore::new(),
                need,
                patience: std::time::Duration::from_secs(5),
                state: diesel_util::Mutex::new((0, None)),
                cv: diesel_util::Condvar::new(),
            }
        }

        fn wait_open(&self) -> bool {
            let deadline = std::time::Instant::now() + self.patience;
            let mut g = self.state.lock();
            g.0 += 1;
            if g.0 >= self.need && g.1.is_none() {
                g.1 = Some(true);
                self.cv.notify_all();
            }
            while g.1.is_none() {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    g.1 = Some(false);
                    self.cv.notify_all();
                    break;
                }
                g = self.cv.wait_timeout(g, left).0;
            }
            g.0 -= 1;
            g.1 == Some(true)
        }
    }

    impl ObjectStore for LatchStore {
        fn put(&self, key: &str, value: Bytes) -> diesel_store::Result<()> {
            self.inner.put(key, value)
        }
        fn get(&self, key: &str) -> diesel_store::Result<Bytes> {
            self.inner.get(key)
        }
        fn get_range(&self, key: &str, offset: u64, len: usize) -> diesel_store::Result<Bytes> {
            if !self.wait_open() {
                return Err(diesel_store::StoreError::Io(format!(
                    "fewer than {} reads were ever outstanding together",
                    self.need
                )));
            }
            self.inner.get_range(key, offset, len)
        }
        fn delete(&self, key: &str) -> diesel_store::Result<bool> {
            self.inner.delete(key)
        }
        fn contains(&self, key: &str) -> bool {
            self.inner.contains(key)
        }
        fn list_prefix(&self, prefix: &str) -> Vec<String> {
            self.inner.list_prefix(prefix)
        }
        fn size_of(&self, key: &str) -> Option<usize> {
            self.inner.size_of(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn total_bytes(&self) -> u64 {
            self.inner.total_bytes()
        }
    }

    #[test]
    fn batch_reads_overlap_beyond_the_pool_width() {
        // The server reads inline, so every store read overlaps only
        // with reads of other batches in flight. A 2-worker loader with
        // prefetch depth 4 must get 4 of them outstanding together.
        let server = DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(LatchStore::new(4)))
            .with_pool(WorkPool::inline("server"));
        let (client, _) = setup_on(server, 64);
        let pool =
            WorkPool::new("loader-wide", diesel_exec::ExecConfig { workers: 2, queue_capacity: 0 });
        let loader = DataLoader::new(client, 4, 21).with_pool(pool).with_prefetch_depth(4);
        let rows: usize = collect(&loader, 0).iter().map(|(x, _)| x.rows).sum();
        assert_eq!(rows, 64);
    }
}
