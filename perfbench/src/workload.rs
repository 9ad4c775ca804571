//! The three workloads: stack construction, the training loop, and the
//! `churn` control thread.
//!
//! Load shape: one process. The trainer is one closed-loop client with a
//! fixed prefetch depth; `churn` adds one control thread. Loader, server
//! and cache share one `WorkPool` of `nproc` workers.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use diesel_cache::{CacheConfig, CachePolicy, TaskCache, Topology};
use diesel_chunk::ChunkBuilderConfig;
use diesel_core::{AdmissionConfig, ClientConfig, DieselClient, DieselServer, ServerConn};
use diesel_exec::{ExecConfig, WorkPool};
use diesel_kv::ShardedKv;
use diesel_meta::recovery::chunk_object_key;
use diesel_obs::{Registry, Sampling, Tracer};
use diesel_shuffle::ShuffleKind;
use diesel_simnet::SimTime;
use diesel_store::{DelayedStore, DeviceModel, MemObjectStore, ObjectStore};
use diesel_train::data::{Sample, SyntheticSpec};
use diesel_train::loader::upload_samples;
use diesel_train::{DataLoader, Mlp, MlpConfig};
use diesel_util::SystemClock;

use crate::oracle::Oracle;
use crate::probes::{
    ConnCounts, KeyTable, KvCounts, ProbedConn, ProbedKv, ProbedStore, StoreCounts, StoreRole,
};
use crate::spans::{now_ns, Recorder};

/// Feature dimensionality of a sample (`2 + 4 × DIM` bytes encoded).
pub const DIM: usize = 32;
/// Classes in the synthetic dataset.
pub const CLASSES: usize = 10;
/// Samples uploaded per workload.
pub const SAMPLES: usize = 8_192;
/// Chunk target size: about 250 samples per chunk.
pub const CHUNK_BYTES: usize = 32 << 10;
/// Samples per trainer batch.
pub const BATCH: usize = 64;
/// Finished batches the loader may buffer ahead of the trainer.
pub const PREFETCH_DEPTH: usize = 4;
/// Chunks per chunk-wise shuffle group.
pub const SHUFFLE_GROUP: usize = 2;
/// Modelled service time of one backing-store request.
pub const STORE_REQUEST_MS: u64 = 1;
/// Cache nodes a workload starts with.
pub const CACHE_NODES: usize = 4;
/// `churn`: cache nodes while grown.
pub const CHURN_GROWN_NODES: usize = 8;
/// Batches in one epoch.
pub const EPOCH_BATCHES: usize = SAMPLES.div_ceil(BATCH);
/// `churn`: batch index within each epoch that grows the cache.
pub const CHURN_GROW_AT: usize = EPOCH_BATCHES / 4;
/// `churn`: batch index within each epoch that shrinks it back.
pub const CHURN_SHRINK_AT: usize = 3 * EPOCH_BATCHES / 4;
/// `churn`: neighbour writes per second (open loop).
pub const NEIGHBOUR_RATE_HZ: u64 = 100;
/// `churn`: bytes per neighbour file.
pub const NEIGHBOUR_FILE_BYTES: usize = 512;
/// Tenant name of the training job.
pub const READER: &str = "reader";
/// Tenant name of the `churn` neighbour.
pub const WRITER: &str = "neighbour";

/// Encoded bytes of one sample.
pub const SAMPLE_BYTES: u64 = 2 + 4 * DIM as u64;

/// The store every decorator wraps.
pub type RawStore = DelayedStore<MemObjectStore>;
/// The store type the server and the cache see.
pub type Store = ProbedStore<RawStore>;
/// The KV type the server sees.
pub type Kv = ProbedKv<ShardedKv>;
/// A client of the stack.
pub type Client = DieselClient<Kv, Store>;

/// Which workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fully resident `Oneshot` cache; every read is a one-hop hit.
    WarmHit,
    /// No cache; merged server reads over a 1 ms-per-request store.
    ColdStore,
    /// Half-sized `OnDemand` cache, resizes and a writing neighbour.
    Churn,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm_hit" => Some(Workload::WarmHit),
            "cold_store" => Some(Workload::ColdStore),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHit => "warm_hit",
            Workload::ColdStore => "cold_store",
            Workload::Churn => "churn",
        }
    }

    fn cache_policy(self) -> Option<CachePolicy> {
        match self {
            Workload::WarmHit => Some(CachePolicy::Oneshot),
            Workload::ColdStore => None,
            Workload::Churn => Some(CachePolicy::OnDemand),
        }
    }
}

/// The dataset a seed generates.
pub fn generate(seed: u64) -> Vec<Sample> {
    SyntheticSpec { dim: DIM, classes: CLASSES, separation: 2.0, noise: 1.0, seed }
        .generate(SAMPLES)
}

/// The small fixed model every workload trains.
pub fn model() -> Mlp {
    Mlp::new(
        MlpConfig { input_dim: DIM, hidden: vec![32], classes: CLASSES, lr: 0.05, momentum: 0.9 },
        7,
    )
}

/// Setup phase timings of one stack build.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Upload, `download_meta`, cache build and prefetch.
    pub total_ns: u64,
    /// `download_meta` alone.
    pub download_ns: u64,
    /// `prefetch_all` alone (0 without a `Oneshot` cache).
    pub prefetch_ns: u64,
}

/// One deployed stack: store, KV, server, reader client and (maybe) its
/// task cache, all instrumented by the benchmark's decorators.
pub struct Stack {
    /// The workload it was built for.
    pub workload: Workload,
    /// Span recorder shared by every decorator.
    pub rec: Arc<Recorder>,
    /// Registry of the server, the cache and the pool.
    pub registry: Arc<Registry>,
    /// The one work pool.
    pub pool: WorkPool,
    /// The store under the decorators.
    pub raw_store: Arc<RawStore>,
    /// The server.
    pub server: Arc<DieselServer<Kv, Store>>,
    /// The training job's client.
    pub reader: Arc<Client>,
    /// Its channel counters.
    pub reader_conn: Arc<ConnCounts>,
    /// Its task cache, if the workload has one.
    pub cache: Option<Arc<TaskCache<Store>>>,
    /// Server-side store counters.
    pub server_store: Arc<StoreCounts>,
    /// Cache-side store counters.
    pub cache_store: Arc<StoreCounts>,
    /// KV counters.
    pub kv: Arc<KvCounts>,
    /// How long set-up took.
    pub setup: SetupTimes,
}

fn device() -> DeviceModel {
    DeviceModel {
        name: "bench-store",
        per_request_overhead: SimTime::from_millis(STORE_REQUEST_MS),
        bytes_per_sec: 2.0e9,
        parallelism: 64,
    }
}

fn admission() -> AdmissionConfig {
    // Per-tenant caps well above what either tenant issues: admission is
    // on the path but never binding.
    AdmissionConfig {
        tenant_rate_per_sec: 5_000.0,
        tenant_burst: 500.0,
        ..AdmissionConfig::default()
    }
}

/// A client of `server` for `dataset`, behind its own channel decorator.
fn connect(
    server: &Arc<DieselServer<Kv, Store>>,
    rec: &Arc<Recorder>,
    dataset: &str,
    machine_seed: u64,
    chunk_bytes: usize,
) -> (Client, Arc<ConnCounts>, KeyTable) {
    let conn = ProbedConn::new(server.direct_channel(0), Arc::clone(rec));
    let (counts, keys) = (Arc::clone(conn.counts()), Arc::clone(conn.keys()));
    let config = ClientConfig {
        chunk: ChunkBuilderConfig {
            target_chunk_size: chunk_bytes,
            ..ChunkBuilderConfig::default()
        },
    };
    let client = DieselClient::connect_channel_with(Arc::new(conn) as ServerConn, dataset, config)
        .with_deterministic_identity(machine_seed, 1, 1_000);
    (client, counts, keys)
}

/// A warmed `Oneshot` cache over `raw`, with its own registry and store
/// decorator so it leaves the workload's counters alone.
pub fn warm_cache(
    raw: &Arc<RawStore>,
    rec: &Arc<Recorder>,
    server: &DieselServer<Kv, Store>,
    pool: &WorkPool,
) -> Result<Arc<TaskCache<Store>>, String> {
    let store = Arc::new(ProbedStore::new(Arc::clone(raw), StoreRole::Cache, Arc::clone(rec)));
    let chunks = server.meta().chunk_ids(READER).map_err(|e| e.to_string())?;
    let config = CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot };
    let topo = Topology::uniform(CACHE_NODES, 1).map_err(|e| e.to_string())?;
    let cache = TaskCache::new(topo, store, READER, chunks, config)
        .map_err(|e| e.to_string())?
        .with_pool(pool.clone());
    cache.prefetch_all().map_err(|e| e.to_string())?;
    Ok(Arc::new(cache))
}

impl Stack {
    /// Deploy the stack for `workload` and upload `samples`.
    pub fn build(
        workload: Workload,
        samples: &[Sample],
        rec: &Arc<Recorder>,
    ) -> Result<Stack, String> {
        let t0 = now_ns();
        let registry = Arc::new(Registry::default());
        let workers = std::thread::available_parallelism().map_or(2, usize::from);
        let pool =
            WorkPool::with_registry("bench", ExecConfig::workers(workers), Arc::clone(&registry));
        let raw_store = Arc::new(DelayedStore::new(
            Arc::new(MemObjectStore::new()),
            device(),
            Arc::new(SystemClock::new()),
        ));
        let server_store =
            Arc::new(ProbedStore::new(Arc::clone(&raw_store), StoreRole::Server, Arc::clone(rec)));
        let cache_store =
            Arc::new(ProbedStore::new(Arc::clone(&raw_store), StoreRole::Cache, Arc::clone(rec)));
        let kv = Arc::new(ProbedKv::new(Arc::new(ShardedKv::new()), Arc::clone(rec)));
        let counts = (
            Arc::clone(server_store.counts()),
            Arc::clone(cache_store.counts()),
            Arc::clone(kv.counts()),
        );
        let server = Arc::new(
            DieselServer::with_registry(kv, server_store, Arc::clone(&registry))
                .with_pool(pool.clone())
                // The program's tracer stays off: a traced cache takes a
                // different read path.
                .with_tracer(Tracer::with_sampling(&registry, Sampling::Off))
                .with_admission(admission()),
        );
        let (reader, reader_conn, keys) = connect(&server, rec, READER, 1, CHUNK_BYTES);
        upload_samples(&reader, samples).map_err(|e| format!("upload: {e}"))?;
        let t_meta = now_ns();
        reader.download_meta().map_err(|e| format!("download_meta: {e}"))?;
        let download_ns = now_ns() - t_meta;
        reader.enable_shuffle(ShuffleKind::ChunkWise { group_size: SHUFFLE_GROUP });
        let mut prefetch_ns = 0;
        let cache = match workload.cache_policy() {
            None => None,
            Some(policy) => {
                let chunks = server.meta().chunk_ids(READER).map_err(|e| e.to_string())?;
                // `churn`: four nodes hold half the dataset (eight hold
                // all of it); `warm_hit`: everything fits.
                let capacity = match policy {
                    CachePolicy::Oneshot => 1 << 30,
                    CachePolicy::OnDemand => raw_store.total_bytes() / (2 * CACHE_NODES as u64),
                };
                let config = CacheConfig { capacity_bytes_per_node: capacity, policy };
                let topo = Topology::uniform(CACHE_NODES, 1).map_err(|e| e.to_string())?;
                let cache = TaskCache::with_registry(
                    topo,
                    cache_store,
                    READER,
                    chunks,
                    config,
                    Arc::clone(&registry),
                )
                .map_err(|e| e.to_string())?
                .with_pool(pool.clone());
                if policy == CachePolicy::Oneshot {
                    let t = now_ns();
                    cache.prefetch_all().map_err(|e| format!("prefetch: {e}"))?;
                    prefetch_ns = now_ns() - t;
                }
                let cache = Arc::new(cache);
                reader.attach_cache(Arc::clone(&cache));
                Some(cache)
            }
        };
        let setup = SetupTimes { total_ns: now_ns() - t0, download_ns, prefetch_ns };
        {
            // Path → chunk key, so traced merged reads can announce the
            // store keys their pool-side reads will touch.
            let mut table = keys.write().expect("key table poisoned");
            for path in reader.file_list().map_err(|e| e.to_string())? {
                let meta = reader.stat(&path).map_err(|e| e.to_string())?;
                table.insert(path, chunk_object_key(READER, meta.chunk));
            }
        }
        Ok(Stack {
            workload,
            rec: Arc::clone(rec),
            registry,
            pool,
            raw_store,
            server,
            reader: Arc::new(reader),
            reader_conn,
            cache,
            server_store: counts.0,
            cache_store: counts.1,
            kv: counts.2,
            setup,
        })
    }

    /// The loader the trainer reads through.
    pub fn loader(&self, seed: u64) -> DataLoader<Kv, Store> {
        DataLoader::new(Arc::clone(&self.reader), BATCH, seed)
            .with_pool(self.pool.clone())
            .with_prefetch_depth(PREFETCH_DEPTH)
    }
}

/// What the trainer measured over its epochs.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Samples trained.
    pub samples: u64,
    /// Batches attempted.
    pub batches: u64,
    /// Batches that came back as errors.
    pub failed: u64,
    /// Epochs run.
    pub epochs: u64,
    /// Wall time of those epochs.
    pub wall_ns: u64,
    /// Per epoch: samples trained per second.
    pub epoch_rate: Vec<f64>,
    /// Per epoch: `epoch_iter()` call → first batch in hand.
    pub ttfb_ns: Vec<f64>,
    /// Per epoch: the `epoch_iter()` call alone.
    pub epoch_start_ns: Vec<f64>,
    /// Per batch: time blocked in `next()`.
    pub stall_ns: Vec<f64>,
    /// Sum of `stall_ns`.
    pub blocked_ns: u64,
    /// Loss of the last batch.
    pub loss: f32,
    /// Highest `exec.queue_depth` seen at a batch boundary (traced only).
    pub queue_depth_max: u64,
    /// Trainer-thread time inside the oracle (traced only).
    pub oracle_ns: u64,
}

/// The training job: one closed-loop trainer reading through the stack.
pub struct Trainer<'a> {
    stack: &'a Stack,
    loader: DataLoader<Kv, Store>,
    mlp: Mlp,
    oracle: &'a mut Oracle,
    next_epoch: u64,
}

impl<'a> Trainer<'a> {
    /// A fresh model reading `stack` in the shuffle order of `seed`.
    pub fn new(stack: &'a Stack, oracle: &'a mut Oracle, seed: u64) -> Self {
        Trainer { stack, loader: stack.loader(seed), mlp: model(), oracle, next_epoch: 0 }
    }

    /// The stack it reads through.
    pub fn stack(&self) -> &'a Stack {
        self.stack
    }

    /// The oracle checking the stream.
    pub fn oracle(&self) -> &Oracle {
        self.oracle
    }

    /// Train whole epochs until `seconds` have passed, checking every
    /// batch against the oracle. `at_batch` sees each batch index within
    /// its epoch before that batch is requested.
    pub fn train(
        &mut self,
        seconds: f64,
        at_batch: &mut dyn FnMut(usize),
    ) -> Result<LoopOut, String> {
        let rec = &self.stack.rec;
        let traced = rec.enabled();
        let queue_depth = self.stack.registry.gauge("exec.queue_depth", &[("pool", "bench")]);
        let deadline = now_ns() + (seconds * 1e9) as u64;
        let mut out = LoopOut::default();
        while now_ns() < deadline {
            let epoch = self.next_epoch;
            self.next_epoch += 1;
            let t0 = now_ns();
            let mut iter = self.loader.epoch_iter(epoch).map_err(|e| format!("epoch_iter: {e}"))?;
            let t_started = now_ns();
            rec.push("loader.epoch_start", t0, t_started);
            out.epoch_start_ns.push((t_started - t0) as f64);
            self.oracle.begin_epoch();
            let samples_before = out.samples;
            let mut failed = false;
            let mut idx = 0usize;
            loop {
                at_batch(idx);
                let t = now_ns();
                let Some(next) = iter.next() else { break };
                let t_got = now_ns();
                rec.push("loader.next", t, t_got);
                if idx == 0 {
                    out.ttfb_ns.push((t_got - t0) as f64);
                }
                out.stall_ns.push((t_got - t) as f64);
                out.blocked_ns += t_got - t;
                out.batches += 1;
                idx += 1;
                if traced {
                    out.queue_depth_max = out.queue_depth_max.max(queue_depth.get());
                }
                match next {
                    Ok((x, labels)) => {
                        self.oracle
                            .check_batch(&x, &labels)
                            .map_err(|e| format!("epoch {epoch}: {e}"))?;
                        let t_step = now_ns();
                        out.oracle_ns += t_step - t_got;
                        out.loss = self.mlp.train_batch(&x, &labels);
                        rec.push("train.step", t_step, now_ns());
                        out.samples += x.rows as u64;
                    }
                    Err(e) => {
                        eprintln!("batch {idx} of epoch {epoch} failed: {e}");
                        out.failed += 1;
                        failed = true;
                    }
                }
            }
            // An epoch with failed batches is short by design; those
            // count as errors, not as a correctness failure.
            if !failed {
                self.oracle.end_epoch().map_err(|e| format!("epoch {epoch}: {e}"))?;
            }
            let epoch_ns = now_ns() - t0;
            out.wall_ns += epoch_ns;
            out.epoch_rate.push((out.samples - samples_before) as f64 / (epoch_ns as f64 / 1e9));
            out.epochs += 1;
        }
        Ok(out)
    }

    /// Train for `seconds` with the `churn` control thread beside it;
    /// the neighbour writes under `ingest/<segment>/`.
    pub fn train_with_churn(
        &mut self,
        seconds: f64,
        neighbour: &Neighbour,
        segment: &str,
    ) -> Result<(LoopOut, ControlOut), String> {
        let stack = self.stack;
        let cache = stack.cache.as_deref().ok_or("churn needs a cache")?;
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let ctl = s.spawn(|| control(cache, neighbour, rx, segment, &stack.rec));
            let mut cue = |idx: usize| {
                let nodes = match idx {
                    CHURN_GROW_AT => CHURN_GROWN_NODES,
                    CHURN_SHRINK_AT => CACHE_NODES,
                    _ => return,
                };
                // The control thread outlives the trainer; a send can
                // only fail if it panicked, which the join below reports.
                let _ = tx.send(nodes);
            };
            let trained = self.train(seconds, &mut cue);
            // Hanging up ends the control thread once it has drained its
            // cues.
            drop(tx);
            let ctl = ctl.join().map_err(|_| "control thread panicked".to_string())?;
            Ok((trained?, ctl))
        })
    }
}

/// The `churn` neighbour tenant: its client and channel counters.
pub struct Neighbour {
    /// Its client of the shared server.
    pub client: Client,
    /// Its channel counters.
    pub conn: Arc<ConnCounts>,
    /// Seeds the contents of its files.
    pub seed: u64,
}

impl Neighbour {
    /// Connect the neighbour to `stack`'s server.
    pub fn new(stack: &Stack, seed: u64) -> Neighbour {
        let (client, conn, _) = connect(&stack.server, &stack.rec, WRITER, 2, 4096);
        Neighbour { client, conn, seed }
    }
}

/// What the `churn` control thread did.
#[derive(Debug, Default)]
pub struct ControlOut {
    /// Neighbour `put`+`flush` latency from each write's due time.
    pub write_ns: Vec<f64>,
    /// Writes attempted.
    pub writes: u64,
    /// Writes that failed.
    pub write_failures: u64,
    /// Latest a write started after its due time.
    pub late_max_ns: u64,
    /// Files written, for the read-back check.
    pub written: Vec<(String, Vec<u8>)>,
    /// Wall time of each resize.
    pub resize_ns: Vec<f64>,
    /// Resizes that failed.
    pub resize_failures: u64,
    /// Invariant violations seen after resizes.
    pub violations: Vec<String>,
}

/// Deterministic neighbour file contents.
pub fn neighbour_file(seed: u64, k: u64) -> Vec<u8> {
    let mut x = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    (0..NEIGHBOUR_FILE_BYTES)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// Check the cache's per-node budget and handoff invariants.
pub fn cache_invariants(cache: &TaskCache<Store>, when: &str) -> Vec<String> {
    let mut bad = Vec::new();
    if cache.pending_handoffs() != 0 {
        bad.push(format!("{when}: {} handoffs still pending", cache.pending_handoffs()));
    }
    let budget = cache.capacity_bytes_per_node();
    for node in cache.members() {
        let resident = cache.node_resident_bytes(node);
        if resident > budget {
            bad.push(format!("{when}: node {node} holds {resident} B over its {budget} B budget"));
        }
    }
    bad
}

/// The `churn` control thread: resizes on the trainer's cue and writes
/// neighbour files (under `ingest/<segment>/`) open-loop at
/// [`NEIGHBOUR_RATE_HZ`] until the trainer hangs up.
fn control(
    cache: &TaskCache<Store>,
    neighbour: &Neighbour,
    cues: Receiver<usize>,
    segment: &str,
    rec: &Recorder,
) -> ControlOut {
    let mut out = ControlOut::default();
    let period = 1_000_000_000 / NEIGHBOUR_RATE_HZ;
    let start = now_ns();
    let mut k = 0u64;
    loop {
        let due = start + k * period;
        let wait = due.saturating_sub(now_ns());
        match cues.recv_timeout(Duration::from_nanos(wait)) {
            Ok(nodes) => {
                let t = now_ns();
                let res = cache.resize(nodes);
                let done = now_ns();
                rec.push("cache.resize", t, done);
                out.resize_ns.push((done - t) as f64);
                match res {
                    Ok(_) => out
                        .violations
                        .extend(cache_invariants(cache, &format!("resize to {nodes}"))),
                    Err(e) => {
                        eprintln!("resize to {nodes} failed: {e}");
                        out.resize_failures += 1;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                let started = now_ns();
                out.late_max_ns = out.late_max_ns.max(started.saturating_sub(due));
                let path = format!("ingest/{segment}/w{k:06}.bin");
                let data = neighbour_file(neighbour.seed, k);
                let client = &neighbour.client;
                let res = client.put(&path, &data).and_then(|()| client.flush());
                out.write_ns.push(now_ns().saturating_sub(due) as f64);
                out.writes += 1;
                match res {
                    Ok(_) => out.written.push((path, data)),
                    Err(e) => {
                        eprintln!("neighbour write {k} failed: {e}");
                        out.write_failures += 1;
                    }
                }
                k += 1;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    out
}
