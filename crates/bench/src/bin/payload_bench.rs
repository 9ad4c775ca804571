//! Payload-plane benchmark gate: the fixed suite behind `BENCH_6.json`.
//!
//! DIESEL's cache-hit economics (§4.2, Fig. 10/14) only hold if a hit is
//! pointer-handoff cheap, so this bench pins the hot payload path with
//! five fixed measurements:
//!
//! * `chunk_parse_ns` — [`ChunkView::parse`] over a ~1000-file chunk
//! * `cache_hit_read_ns` — [`TaskCache::get_file`] on a fully prefetched
//!   cache (the zero-copy fast path)
//! * `merged_read_us_per_file` — `client.get_many` through the server's
//!   `read_files_merged` plan (no cache attached)
//! * `loader_epoch_ms` — a full [`DataLoader`] epoch over a cache-hit
//!   stack (fetch + decode pipeline)
//! * `kv_put_ns` / `kv_get_ns` — [`ShardedKv`] point ops
//!
//! plus tracer-derived span means (`span_cache_get_hit_us`,
//! `span_loader_fetch_us`) from one traced cache-hit epoch, so the PR 5
//! tracer's view of the read path is recorded alongside the wall times.
//!
//! Results land in a two-section JSON file (default `BENCH_6.json`):
//! the first ever run seeds `baseline` (the pre-refactor numbers, kept
//! verbatim forever); every later run rewrites `current`. With
//! `--check`, wall-time keys in `current` must stay within
//! `--tolerance`× of `baseline` (shrink-only in spirit, with headroom
//! for CI noise) or the process exits nonzero.

use std::sync::Arc;
use std::time::Instant;

use diesel_cache::{CacheConfig, CachePolicy, TaskCache, Topology};
use diesel_chunk::{ChunkBuilderConfig, ChunkIdGenerator, ChunkView, ChunkWriter};
use diesel_core::{ClientConfig, DieselClient, DieselServer};
use diesel_kv::{KvStore, ShardedKv};
use diesel_meta::FileMeta;
use diesel_obs::{Span, Tracer};
use diesel_shuffle::ShuffleKind;
use diesel_store::MemObjectStore;
use diesel_train::loader::upload_samples;
use diesel_train::{DataLoader, SyntheticSpec};

const SAMPLES: usize = 256;
const BATCH: usize = 16;
const SEED: u64 = 61;

/// Best-of-`reps` wall time for `iters` runs of `f`, in ns per iter.
fn best_ns_per_iter(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// One sealed ~1000-file chunk, as raw bytes.
fn chunk_parse_ns() -> f64 {
    let ids = ChunkIdGenerator::deterministic(7, 7, 77);
    let cfg = ChunkBuilderConfig { target_chunk_size: 1 << 22, ..Default::default() };
    let mut w = ChunkWriter::new(cfg, &ids).with_clock(|| 1);
    for i in 0..1000 {
        w.add_file(&format!("file-{i:05}"), &[(i % 251) as u8; 100]).unwrap();
    }
    let sealed = w.finish();
    assert_eq!(sealed.len(), 1, "suite expects one chunk");
    let bytes = &sealed[0].bytes;
    best_ns_per_iter(3, 500, || {
        let v = ChunkView::parse(bytes.clone()).unwrap();
        assert_eq!(v.header().files.len(), 1000);
    })
}

type Stack =
    (Arc<DieselServer<ShardedKv, MemObjectStore>>, DieselClient<ShardedKv, MemObjectStore>);

/// Server + client over a plain memory store with the synthetic dataset
/// uploaded and meta downloaded.
fn stack() -> Stack {
    let server =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())));
    let client = DieselClient::connect_with(
        server.clone(),
        "synth",
        ClientConfig {
            chunk: ChunkBuilderConfig { target_chunk_size: 1 << 16, ..Default::default() },
        },
    )
    .with_deterministic_identity(1, 1, 100);
    let samples = SyntheticSpec::cifar_like().generate(SAMPLES);
    upload_samples(&client, &samples).expect("upload");
    client.download_meta().expect("meta");
    (server, client)
}

/// `(path, meta)` for every file in the dataset.
fn file_metas(server: &DieselServer<ShardedKv, MemObjectStore>) -> Vec<(String, FileMeta)> {
    let snap = server.meta().build_snapshot("synth").expect("snapshot");
    snap.files.iter().map(|f| (f.path.clone(), f.meta)).collect()
}

/// A fully prefetched single-node cache over the server's store.
fn prefetched_cache(
    server: &Arc<DieselServer<ShardedKv, MemObjectStore>>,
) -> Arc<TaskCache<MemObjectStore>> {
    let chunks = server.meta().chunk_ids("synth").expect("chunks");
    let cache = Arc::new(
        TaskCache::new(
            Topology::uniform(1, 1).unwrap(),
            server.store().clone(),
            "synth",
            chunks,
            CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
        )
        .unwrap(),
    );
    cache.prefetch_all().expect("prefetch");
    cache
}

fn cache_hit_read_ns() -> f64 {
    let (server, _client) = stack();
    let metas = file_metas(&server);
    let cache = prefetched_cache(&server);
    best_ns_per_iter(3, 50, || {
        for (_, meta) in &metas {
            let f = cache.get_file(meta).unwrap();
            assert!(!f.data.is_empty());
        }
    }) / metas.len() as f64
}

fn merged_read_us_per_file() -> f64 {
    let (server, client) = stack();
    let paths: Vec<String> = file_metas(&server).into_iter().map(|(p, _)| p).collect();
    let ns = best_ns_per_iter(3, 20, || {
        let got = client.get_many(&paths).unwrap();
        assert_eq!(got.len(), paths.len());
    });
    ns / 1e3 / paths.len() as f64
}

fn kv_ops_ns() -> (f64, f64) {
    let keys: Vec<String> = (0..4096).map(|i| format!("bench/key/{i:06}")).collect();
    let value = vec![0xa5u8; 1024];
    let kv = ShardedKv::new();
    let put = best_ns_per_iter(3, 4, || {
        for k in &keys {
            kv.put(k, value.clone().into()).unwrap();
        }
    }) / keys.len() as f64;
    let get = best_ns_per_iter(3, 8, || {
        for k in &keys {
            assert_eq!(kv.get(k).unwrap().expect("present").len(), 1024);
        }
    }) / keys.len() as f64;
    (put, get)
}

fn loader_epoch_ms() -> f64 {
    let (server, client) = stack();
    client.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
    client.attach_cache(prefetched_cache(&server));
    let loader = DataLoader::new(Arc::new(client), BATCH, SEED);
    best_ns_per_iter(3, 2, || {
        for batch in loader.epoch_iter(0).expect("epoch") {
            batch.expect("batch");
        }
    }) / 1e6
}

/// Mean duration (µs) of spans selected by `pick`.
fn span_mean_us(spans: &[Span], pick: impl Fn(&Span) -> bool) -> f64 {
    let durs: Vec<u64> = spans.iter().filter(|s| pick(s)).map(|s| s.duration_ns()).collect();
    if durs.is_empty() {
        return 0.0;
    }
    durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e3
}

/// One traced cache-hit epoch; returns (cache.get{outcome=hit} mean µs,
/// loader.fetch mean µs).
fn traced_span_means() -> (f64, f64) {
    let (server, client) = stack();
    let tracer = Tracer::enabled(server.registry());
    client.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
    client.attach_cache(prefetched_cache(&server));
    let client = client.with_tracer(tracer.clone());
    let loader = DataLoader::new(Arc::new(client), BATCH, SEED).with_tracer(tracer.clone());
    tracer.drain(); // spans from the epoch only
    for batch in loader.epoch_iter(0).expect("epoch") {
        batch.expect("batch");
    }
    let spans = tracer.drain();
    let hit = span_mean_us(&spans, |s| {
        s.name == "cache.get" && s.labels.iter().any(|(k, v)| k == "outcome" && v == "hit")
    });
    let fetch = span_mean_us(&spans, |s| s.name == "loader.fetch");
    assert!(fetch > 0.0, "traced epoch must produce loader.fetch spans");
    (hit, fetch)
}

/// Flat `"key": number` pairs of one named JSON section, as written by
/// [`render`]. Returns `None` if the section is absent or malformed.
fn parse_section(text: &str, name: &str) -> Option<Vec<(String, f64)>> {
    let start = text.find(&format!("\"{name}\""))?;
    let open = start + text[start..].find('{')?;
    let close = open + text[open..].find('}')?;
    let mut out = Vec::new();
    for part in text[open + 1..close].split(',') {
        let (k, v) = part.split_once(':')?;
        out.push((k.trim().trim_matches('"').to_string(), v.trim().parse().ok()?));
    }
    Some(out)
}

fn render_section(pairs: &[(String, f64)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("    \"{k}\": {v:.3}")).collect();
    format!("{{\n{}\n  }}", body.join(",\n"))
}

fn render(baseline: &[(String, f64)], current: &[(String, f64)]) -> String {
    format!(
        "{{\n  \"schema\": 1,\n  \"suite\": \"payload_bench\",\n  \"baseline\": {},\n  \"current\": {}\n}}\n",
        render_section(baseline),
        render_section(current)
    )
}

fn main() {
    let mut json_path = "BENCH_6.json".to_string();
    let mut check = false;
    let mut tolerance = 2.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = args.next().expect("--json needs a path"),
            "--check" => check = true,
            "--tolerance" => {
                tolerance =
                    args.next().and_then(|s| s.parse().ok()).expect("--tolerance needs a number")
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let parse = chunk_parse_ns();
    let hit = cache_hit_read_ns();
    let merged = merged_read_us_per_file();
    let epoch = loader_epoch_ms();
    let (kv_put, kv_get) = kv_ops_ns();
    let (span_hit, span_fetch) = traced_span_means();

    let current: Vec<(String, f64)> = vec![
        ("chunk_parse_ns".into(), parse),
        ("cache_hit_read_ns".into(), hit),
        ("merged_read_us_per_file".into(), merged),
        ("loader_epoch_ms".into(), epoch),
        ("kv_put_ns".into(), kv_put),
        ("kv_get_ns".into(), kv_get),
        ("span_cache_get_hit_us".into(), span_hit),
        ("span_loader_fetch_us".into(), span_fetch),
    ];

    // First run seeds the baseline; later runs keep it verbatim.
    let baseline = std::fs::read_to_string(&json_path)
        .ok()
        .and_then(|t| parse_section(&t, "baseline"))
        .unwrap_or_else(|| current.clone());
    std::fs::write(&json_path, render(&baseline, &current)).expect("write json");

    println!("payload_bench -> {json_path}");
    for (k, v) in &current {
        let base = baseline.iter().find(|(bk, _)| bk == k).map(|(_, bv)| *bv);
        match base {
            Some(b) if b > 0.0 => {
                println!("  {k:<26} {v:>12.3}  (baseline {b:.3}, {:+.1}%)", (v / b - 1.0) * 100.0)
            }
            _ => println!("  {k:<26} {v:>12.3}"),
        }
    }

    if check {
        let mut failed = false;
        for (k, v) in &current {
            if let Some((_, b)) = baseline.iter().find(|(bk, _)| bk == k) {
                if *b > 0.0 && *v > b * tolerance {
                    eprintln!(
                        "REGRESSION: {k} = {v:.3} exceeds baseline {b:.3} x tolerance {tolerance}"
                    );
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("payload_bench --check: all keys within {tolerance}x of baseline");
    }
}
