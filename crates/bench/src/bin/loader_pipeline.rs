//! Pipelined DataLoader vs serial reads over a latency-injected store.
//!
//! The paper's pipeline argument (§4.2, Fig. 10a): training throughput
//! is gated by how well sample I/O overlaps compute, and per-file reads
//! on a slow store serialize the whole epoch. Here the backing store is
//! a [`DelayedStore`] charging a seek-heavy device model in real wall
//! time, and we read one epoch three ways:
//!
//! * `serial` — an inline work pool: every fetch and decode runs on the
//!   consumer thread, one after another (the no-pipeline baseline).
//! * `pipelined xN` — the loader's two-stage fetch/decode pipeline on an
//!   N-worker pool; batched fetches overlap each other and the consumer.
//!
//! All three runs yield byte-identical batches; only the wall clock
//! differs.
//!
//! With `--trace out.json` the bench instead reads one epoch through
//! the *full* stack — retrying instrumented channel, task cache with a
//! killed node, pipelined loader — under an always-on tracer, and
//! writes the spans as chrome-trace JSON (open in Perfetto / `chrome:
//! //tracing`). The run self-validates: the JSON must parse and at
//! least one client read span must have a `server.handle` descendant.

use std::sync::Arc;
use std::time::Instant;

use diesel_bench::Table;
use diesel_cache::{CacheConfig, CachePolicy, TaskCache, Topology};
use diesel_core::{ClientConfig, DieselClient, DieselServer, ServerConn};
use diesel_exec::{ExecConfig, WorkPool};
use diesel_kv::ShardedKv;
use diesel_net::{EndpointMetrics, Instrumented, Retry, RetryPolicy, Service};
use diesel_obs::{chrome_trace_json, parse_chrome_trace, Tracer};
use diesel_shuffle::ShuffleKind;
use diesel_simnet::SimTime;
use diesel_store::{DelayedStore, DeviceModel, MemObjectStore};
use diesel_train::loader::upload_samples;
use diesel_train::{DataLoader, SyntheticSpec};
use diesel_util::clock::{Clock, SystemClock};

const SAMPLES: usize = 384;
const BATCH: usize = 16;
const SEED: u64 = 41;

/// A small-overhead spinning-disk-ish front: slow enough that an epoch
/// is I/O-bound, fast enough that the serial baseline stays under a
/// second.
fn device() -> DeviceModel {
    DeviceModel {
        name: "delayed-store",
        per_request_overhead: SimTime::from_micros(800),
        bytes_per_sec: 300.0e6,
        parallelism: 8,
    }
}

type Stack = Arc<DieselClient<ShardedKv, DelayedStore<MemObjectStore>>>;

/// Build a fresh server+client over a delayed store, upload the dataset,
/// and wire `pool` through both the server's request executor and the
/// returned loader.
fn stack(pool: &WorkPool) -> Stack {
    let store = Arc::new(DelayedStore::new(
        Arc::new(MemObjectStore::new()),
        device(),
        Arc::new(SystemClock::new()),
    ));
    let server =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), store).with_pool(pool.clone()));
    let client = DieselClient::connect_with(
        server,
        "synth",
        ClientConfig {
            chunk: diesel_chunk::ChunkBuilderConfig {
                target_chunk_size: 8192,
                ..Default::default()
            },
        },
    )
    .with_deterministic_identity(1, 1, 100);
    let samples = SyntheticSpec::cifar_like().generate(SAMPLES);
    upload_samples(&client, &samples).expect("upload");
    client.download_meta().expect("meta");
    client.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
    Arc::new(client)
}

/// Read one epoch to exhaustion; returns (wall seconds, batches, label
/// checksum — proves every run saw the same data).
fn run_epoch(pool: WorkPool) -> (f64, usize, u64) {
    let loader = DataLoader::new(stack(&pool), BATCH, SEED).with_pool(pool).with_prefetch_depth(4);
    let t0 = Instant::now();
    let mut batches = 0usize;
    let mut checksum = 0u64;
    for batch in loader.epoch_iter(0).expect("epoch") {
        let (x, labels) = batch.expect("batch");
        batches += 1;
        for (r, &l) in labels.iter().enumerate() {
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(l as u64)
                .wrapping_add(x.row(r)[0].to_bits() as u64);
        }
    }
    (t0.elapsed().as_secs_f64(), batches, checksum)
}

/// Read one epoch through every layer under an always-on tracer and
/// write the spans to `out` as chrome-trace JSON.
fn run_traced(out: &str) {
    let pool = WorkPool::new("loader-trace", ExecConfig { workers: 4, queue_capacity: 0 });
    let store = Arc::new(DelayedStore::new(
        Arc::new(MemObjectStore::new()),
        device(),
        Arc::new(SystemClock::new()),
    ));
    let server = DieselServer::new(Arc::new(ShardedKv::new()), store).with_pool(pool.clone());
    // One tracer shared by client, channel, server, and loader: spans
    // from every layer land in a single buffer, forming whole traces.
    let tracer = Tracer::enabled(server.registry());
    let server = Arc::new(server.with_tracer(tracer.clone()));

    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let inner = server.direct_channel(0);
    let metrics = EndpointMetrics::new(server.registry(), &inner.endpoint());
    let conn: ServerConn = Arc::new(
        Retry::new(
            Instrumented::new(inner, metrics.clone(), clock.clone()),
            RetryPolicy {
                max_attempts: 3,
                base_backoff_ns: 100_000,
                multiplier: 2,
                max_backoff_ns: 1_000_000,
            },
            clock,
        )
        .with_metrics(metrics),
    );
    let client: DieselClient<ShardedKv, DelayedStore<MemObjectStore>> =
        DieselClient::connect_channel_with(
            conn,
            "synth",
            ClientConfig {
                chunk: diesel_chunk::ChunkBuilderConfig {
                    target_chunk_size: 8192,
                    ..Default::default()
                },
            },
        )
        .with_deterministic_identity(1, 1, 100)
        .with_tracer(tracer.clone());
    let samples = SyntheticSpec::cifar_like().generate(SAMPLES);
    upload_samples(&client, &samples).expect("upload");
    client.download_meta().expect("meta");
    client.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });

    // Task cache over the dataset's chunks, one node down: reads hit
    // the cache, miss on the dead node, and fall back through the
    // channel to the server — every read-path shape shows up.
    let chunks = server.meta().chunk_ids("synth").expect("chunks");
    let cache = Arc::new(
        TaskCache::new(
            Topology::uniform(2, 2).unwrap(),
            server.store().clone(),
            "synth",
            chunks,
            CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
        )
        .unwrap(),
    );
    cache.prefetch_all().expect("prefetch");
    cache.kill_node(0);
    client.attach_cache(cache);

    tracer.drain(); // keep only the epoch's read path
    let loader = DataLoader::new(Arc::new(client), BATCH, SEED)
        .with_pool(pool)
        .with_prefetch_depth(4)
        .with_tracer(tracer.clone());
    let mut batches = 0usize;
    for batch in loader.epoch_iter(0).expect("epoch") {
        batch.expect("batch");
        batches += 1;
    }

    let spans = tracer.drain();
    let json = chrome_trace_json(&spans);
    std::fs::write(out, &json).expect("write trace file");

    // Self-validate what we just wrote: it must parse, and at least one
    // client read must form a connected tree down to the server.
    let parsed = parse_chrome_trace(&json).expect("emitted trace must parse");
    let linked = parsed.iter().any(|c| {
        (c.name == "client.read" || c.name == "client.get_many")
            && parsed.iter().any(|s| s.name == "server.handle" && s.is_descendant_of(c, &parsed))
    });
    assert!(linked, "no client read span has a server.handle descendant");
    println!(
        "loader_pipeline --trace: {batches} batches, {} spans -> {out} (validated)",
        parsed.len()
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            let out = args.next().unwrap_or_else(|| "loader_trace.json".into());
            run_traced(&out);
            return;
        }
    }

    let mut table = Table::new(
        format!("DataLoader pipeline ({SAMPLES} samples, batch {BATCH}, delayed store)"),
        &["mode", "epoch ms", "batches", "speedup", "checksum"],
    );

    let (serial_s, serial_batches, serial_sum) = run_epoch(WorkPool::inline("loader-serial"));
    table.row(&[
        "serial".into(),
        format!("{:.1}", serial_s * 1e3),
        serial_batches.to_string(),
        "1.00x".into(),
        format!("{serial_sum:016x}"),
    ]);

    for workers in [2usize, 4, 8] {
        let pool = WorkPool::new("loader-bench", ExecConfig { workers, queue_capacity: 0 });
        let (s, batches, sum) = run_epoch(pool);
        assert_eq!(batches, serial_batches, "batch count must not depend on workers");
        assert_eq!(sum, serial_sum, "batch contents must not depend on workers");
        table.row(&[
            format!("pipelined x{workers}"),
            format!("{:.1}", s * 1e3),
            batches.to_string(),
            format!("{:.2}x", serial_s / s),
            format!("{sum:016x}"),
        ]);
    }

    table.emit("loader_pipeline");
}
