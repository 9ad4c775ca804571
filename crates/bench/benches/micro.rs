//! Criterion micro-benchmarks of DIESEL's hot paths.
//!
//! These complement the table/figure binaries: they measure the *real*
//! in-process costs (chunk packing/parsing, ID minting, snapshot codec,
//! namespace stat, shuffle generation, KV ops, cache hits, request
//! merging) plus the chunk-size and group-size ablations called out in
//! DESIGN.md §5.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use diesel_cache::{CacheConfig, CachePolicy, TaskCache, Topology};
use diesel_chunk::{ChunkBuilder, ChunkBuilderConfig, ChunkIdGenerator, ChunkView, ChunkWriter};
use diesel_kv::{KvStore, ShardedKv};
use diesel_meta::recovery::chunk_object_key;
use diesel_meta::{MetaService, MetaSnapshot};
use diesel_shuffle::{epoch_order, ChunkFiles, DatasetIndex, ShuffleKind};
use diesel_store::MemObjectStore;
use diesel_store::ObjectStore;

fn bench_chunk_id(c: &mut Criterion) {
    let gen = ChunkIdGenerator::deterministic(1, 1, 1000);
    c.bench_function("chunk_id/next", |b| b.iter(|| std::hint::black_box(gen.next_id())));
    let id = gen.next_id();
    c.bench_function("chunk_id/encode", |b| b.iter(|| std::hint::black_box(id.encode())));
    let s = id.encode();
    c.bench_function("chunk_id/decode", |b| {
        b.iter(|| diesel_chunk::ChunkId::decode(std::hint::black_box(&s)).unwrap())
    });
}

fn build_chunk(files: usize, file_size: usize) -> Vec<u8> {
    let mut b = ChunkBuilder::new(ChunkBuilderConfig {
        target_chunk_size: usize::MAX,
        ..Default::default()
    });
    let data = vec![0xabu8; file_size];
    for i in 0..files {
        b.add_file(&format!("train/cls{}/img{i:05}.bin", i % 10), &data).unwrap();
    }
    let ids = ChunkIdGenerator::deterministic(1, 1, 1);
    b.seal(ids.next_id(), 1).1
}

fn bench_chunk_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("chunk");
    // Ablation: chunk size 256 KB → 16 MB at 4 KB files.
    for &files in &[64usize, 1024, 4096] {
        let bytes = (files * 4096) as u64;
        g.throughput(Throughput::Bytes(bytes));
        g.bench_with_input(BenchmarkId::new("build_4k_files", files), &files, |b, &n| {
            b.iter(|| std::hint::black_box(build_chunk(n, 4096).len()))
        });
        let chunk = diesel_store::Bytes::from(build_chunk(files, 4096));
        g.bench_with_input(BenchmarkId::new("parse", files), &chunk, |b, chunk| {
            b.iter(|| ChunkView::parse(std::hint::black_box(chunk.clone())).unwrap().file_count())
        });
    }
    g.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let svc = MetaService::new(Arc::new(ShardedKv::new()));
    let ids = ChunkIdGenerator::deterministic(2, 2, 2);
    let cfg = ChunkBuilderConfig { target_chunk_size: 1 << 20, ..Default::default() };
    let mut w = ChunkWriter::new(cfg, &ids).with_clock(|| 1);
    for i in 0..20_000 {
        w.add_file(&format!("train/c{}/f{i:06}", i % 100), &[0u8; 16]).unwrap();
    }
    for sealed in w.finish() {
        svc.ingest_chunk("ds", &sealed.header, sealed.bytes.len() as u64).unwrap();
    }
    let snap = svc.build_snapshot("ds").unwrap();
    let encoded = snap.encode();
    let mut g = c.benchmark_group("snapshot_20k_files");
    g.throughput(Throughput::Elements(20_000));
    g.bench_function("encode", |b| b.iter(|| std::hint::black_box(snap.encode().len())));
    g.bench_function("decode", |b| {
        b.iter(|| MetaSnapshot::decode(std::hint::black_box(&encoded)).unwrap().files.len())
    });
    let ns = snap.build_namespace();
    g.bench_function("namespace_stat", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % 20_000;
            let path = &snap.files[i].path;
            std::hint::black_box(ns.stat(path).unwrap().length)
        })
    });
    g.finish();
}

fn bench_shuffle(c: &mut Criterion) {
    // Ablation: group size sweep at fixed dataset shape.
    let index = DatasetIndex::new(
        (0..2000u32)
            .map(|ci| ChunkFiles {
                chunk: diesel_chunk::ChunkId::new(ci, diesel_chunk::MachineId::from_seed(1), 1, ci),
                chunk_bytes: 4 << 20,
                files: (0..40).map(|f| format!("c{ci}/f{f}")).collect(),
            })
            .collect(),
    );
    let mut g = c.benchmark_group("shuffle_80k_files");
    g.throughput(Throughput::Elements(80_000));
    g.bench_function("dataset_shuffle", |b| {
        let mut e = 0u64;
        b.iter(|| {
            e += 1;
            epoch_order(&index, ShuffleKind::DatasetShuffle, 7, e).len()
        })
    });
    for &gs in &[10usize, 100, 500] {
        g.bench_with_input(BenchmarkId::new("chunk_wise", gs), &gs, |b, &gs| {
            let mut e = 0u64;
            b.iter(|| {
                e += 1;
                epoch_order(&index, ShuffleKind::ChunkWise { group_size: gs }, 7, e).len()
            })
        });
    }
    g.finish();
}

fn bench_kv(c: &mut Criterion) {
    let kv = ShardedKv::new();
    for i in 0..100_000 {
        kv.put(&format!("f/ds/file{i:06}"), vec![0u8; 48].into()).unwrap();
    }
    let mut g = c.benchmark_group("kv_100k_keys");
    g.bench_function("get", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 48_271) % 100_000;
            kv.get(&format!("f/ds/file{i:06}")).unwrap()
        })
    });
    g.bench_function("put", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            kv.put(&format!("f/ds/new{i:08}"), vec![0u8; 48].into()).unwrap()
        })
    });
    g.finish();
}

fn bench_cache_hit(c: &mut Criterion) {
    let store = Arc::new(MemObjectStore::new());
    let svc = MetaService::new(Arc::new(ShardedKv::new()));
    let ids = ChunkIdGenerator::deterministic(3, 3, 3);
    let cfg = ChunkBuilderConfig { target_chunk_size: 4 << 20, ..Default::default() };
    let mut w = ChunkWriter::new(cfg, &ids).with_clock(|| 1);
    for i in 0..5_000 {
        w.add_file(&format!("f{i:05}"), &[1u8; 4096]).unwrap();
    }
    for sealed in w.finish() {
        store.put(&chunk_object_key("ds", sealed.header.id), sealed.bytes.clone()).unwrap();
        svc.ingest_chunk("ds", &sealed.header, sealed.bytes.len() as u64).unwrap();
    }
    let snap = svc.build_snapshot("ds").unwrap();
    let cache = TaskCache::new(
        Topology::uniform(4, 4).unwrap(),
        store,
        "ds",
        snap.chunks.clone(),
        CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
    )
    .unwrap();
    cache.prefetch_all().unwrap();
    let metas: Vec<diesel_meta::FileMeta> = snap.files.iter().map(|f| f.meta).collect();
    let mut g = c.benchmark_group("task_cache");
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("hit_4k", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 2711) % metas.len();
            cache.get_file(&metas[i]).unwrap().data.len()
        })
    });
    g.finish();
}

fn bench_request_executor(c: &mut Criterion) {
    let metas: Vec<diesel_meta::FileMeta> = (0..4096)
        .map(|i| diesel_meta::FileMeta {
            chunk: diesel_chunk::ChunkId::new(
                (i % 64) as u32,
                diesel_chunk::MachineId::from_seed(1),
                1,
                0,
            ),
            index_in_chunk: i as u32,
            offset: ((i * 2_654_435_761usize) % (1 << 20)) as u64,
            length: 4096,
            uploaded_ms: 0,
        })
        .collect();
    let mut g = c.benchmark_group("request_executor");
    g.throughput(Throughput::Elements(4096));
    g.bench_function("plan_4096_reads_64_chunks", |b| {
        b.iter(|| diesel_core::plan_chunk_reads(std::hint::black_box(&metas)).len())
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets =
        bench_chunk_id,
        bench_chunk_roundtrip,
        bench_snapshot,
        bench_shuffle,
        bench_kv,
        bench_cache_hit,
        bench_request_executor
);
criterion_main!(benches);
