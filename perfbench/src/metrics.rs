//! Measurement phases, correctness and isolation checks, and the
//! metrics each mode reports.

use std::collections::BTreeMap;
use std::sync::Arc;

use diesel_cache::TaskCache;
use diesel_meta::FileMeta;
use diesel_train::data::{to_batch, Sample};

use crate::oracle::Oracle;
use crate::probes::ConnCounts;
use crate::spans::{covered_ns, now_ns, self_times, SpanRec};
use crate::stats::{self, fmt_bp, StatError};
use crate::workload::{self, ControlOut, LoopOut, Neighbour, Stack, Store, Trainer, Workload};
use crate::{Args, Report};

/// End-to-end metrics, as `BENCHMARK.json` declares them (`--trace 0`).
pub const END_TO_END: [&str; 4] = ["samples_per_s", "ttfb_ms", "setup_s", "peak_rss_mb"];

/// Per-layer metrics, as `BENCHMARK.json` declares them (`--trace 1`).
pub const PER_LAYER: [&str; 49] = [
    "train.step_us_p50",
    "loader.epoch_start_us_p50",
    "shuffle.plan_us_p50",
    "exec.stage.fetch_us_mean",
    "exec.stage.decode_us_mean",
    "exec.tasks",
    "exec.pipeline_items",
    "exec.queue_depth_max",
    "decode.batch_us_p50",
    "client.get_many_us_p50",
    "cache.get_file_ns_p50",
    "copies.bytes_per_sample",
    "cache.file_reads",
    "cache.chunk_hits",
    "cache.hit_ratio",
    "cache.chunk_loads",
    "cache.bytes_loaded",
    "cache.evictions",
    "cache.rebalance_moves",
    "cache.rebalance_warm_hits",
    "cache.rebalance_fallbacks",
    "cache.stale_owner_retries",
    "net.read_merged.calls",
    "net.read_by_meta.calls",
    "net.ingest.calls",
    "net.ingest.us_p50",
    "net.errors",
    "net.throttled",
    "admission.admitted.reader",
    "admission.admitted.writer",
    "admission.throttled.reader",
    "admission.throttled.writer",
    "server.files_per_merged_read",
    "server.store_reads_per_batch",
    "meta.download_ms",
    "meta.kv_gets_per_file",
    "kv.get.ops",
    "kv.put.ops",
    "kv.busy_ms",
    "store.server.reads",
    "store.server.read_bytes",
    "store.server.busy_ms",
    "store.cache.reads",
    "store.cache.read_bytes",
    "store.writes",
    "store.write_bytes",
    "store.read_amplification",
    "bench.unattributed_pct",
    "bench.trace_overhead_pct",
];

/// One reported number, or why it could not be computed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value.
    pub value: Result<f64, String>,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it.
    pub n: u64,
    /// Which percentile a tail metric reports.
    pub note: String,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, n: u64) -> Metric {
        Metric { name, value: Ok(value), unit, n, note: String::new() }
    }

    fn stat(
        name: &'static str,
        value: Result<f64, StatError>,
        scale: f64,
        unit: &'static str,
        n: usize,
    ) -> Metric {
        let value = value.map(|v| v / scale).map_err(|e| e.to_string());
        Metric { name, value, unit, n: n as u64, note: String::new() }
    }

    /// The human-readable report line.
    pub fn line(&self) -> String {
        match &self.value {
            Ok(v) if self.note.is_empty() => {
                format!("metric {} = {v:.6} {} (n={})", self.name, self.unit, self.n)
            }
            Ok(v) => {
                format!("metric {} = {v:.6} {} (n={}, {})", self.name, self.unit, self.n, self.note)
            }
            Err(e) => format!("metric {} = n/a {} (n={}): {e}", self.name, self.unit, self.n),
        }
    }
}

/// Failed checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// What failed.
    pub failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Counter readings at one instant, keyed by metric-style names.
#[derive(Debug, Clone, Default)]
struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    fn read(stack: &Stack, writer: Option<&ConnCounts>) -> Counters {
        let mut m = BTreeMap::new();
        if let Some(c) = &stack.cache {
            let cm = c.metrics();
            m.insert("cache.file_reads", cm.file_reads());
            m.insert("cache.chunk_hits", cm.chunk_hits());
            m.insert("cache.chunk_loads", cm.chunk_loads());
            m.insert("cache.bytes_loaded", cm.bytes_loaded());
            m.insert("cache.evictions", cm.evictions());
            m.insert("cache.rebalance_moves", cm.rebalance_moves());
            m.insert("cache.rebalance_warm_hits", cm.rebalance_warm_hits());
            m.insert("cache.rebalance_fallbacks", cm.rebalance_fallbacks());
            m.insert("cache.stale_owner_retries", cm.stale_owner_retries());
        }
        let snap = stack.registry.snapshot();
        let reader = workload::READER;
        let writer_tenant = workload::WRITER;
        m.insert(
            "server.file_reads",
            snap.counter(&format!("server.file_reads{{dataset={reader}}}")),
        );
        m.insert("server.merged_reads", snap.counter("server.merged_reads"));
        m.insert("server.merged_requests", snap.counter("server.merged_requests"));
        for (key, what, tenant) in [
            ("admission.admitted.reader", "admitted", reader),
            ("admission.admitted.writer", "admitted", writer_tenant),
            ("admission.throttled.reader", "throttled", reader),
            ("admission.throttled.writer", "throttled", writer_tenant),
        ] {
            m.insert(key, snap.counter(&format!("server.tenant.{what}{{dataset={tenant}}}")));
        }
        m.insert("exec.tasks", snap.counter("exec.tasks_completed{pool=bench}"));
        m.insert(
            "exec.pipeline_items",
            snap.counter("exec.pipeline_items{pool=bench,stage=loader.fetch}")
                + snap.counter("exec.pipeline_items{pool=bench,stage=loader.decode}"),
        );
        m.insert("bytes.copied", diesel_obs::copies::copied_total());
        let stores = [
            (
                [
                    "store.server.reads",
                    "store.server.read_bytes",
                    "store.server.writes",
                    "store.server.write_bytes",
                ],
                &stack.server_store,
            ),
            (
                [
                    "store.cache.reads",
                    "store.cache.read_bytes",
                    "store.cache.writes",
                    "store.cache.write_bytes",
                ],
                &stack.cache_store,
            ),
        ];
        for ([reads, read_bytes, writes, write_bytes], c) in stores {
            m.insert(reads, c.reads.get());
            m.insert(read_bytes, c.read_bytes.get());
            m.insert(writes, c.writes.get());
            m.insert(write_bytes, c.write_bytes.get());
        }
        m.insert("kv.get.ops", stack.kv.gets.get());
        m.insert("kv.put.ops", stack.kv.puts.get());
        let r = &stack.reader_conn;
        m.insert("reader.data_calls", r.data_calls());
        m.insert("reader.read_by_meta", r.read_by_meta.get());
        m.insert("reader.read_other", r.read_other.get());
        let conns: Vec<&ConnCounts> = std::iter::once(&**r).chain(writer).collect();
        let sum = |f: fn(&ConnCounts) -> u64| conns.iter().map(|c| f(c)).sum::<u64>();
        m.insert("net.read_merged.calls", sum(|c| c.read_merged.get()));
        m.insert("net.merged_files", sum(|c| c.merged_files.get()));
        m.insert("net.read_by_meta.calls", sum(|c| c.read_by_meta.get()));
        m.insert("net.ingest.calls", sum(|c| c.ingest.get()));
        m.insert("net.errors", sum(|c| c.errors.get()));
        m.insert("net.throttled", sum(|c| c.throttled.get()));
        Counters(m)
    }

    fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    fn delta(&self, before: &Counters) -> Counters {
        Counters(self.0.iter().map(|(k, v)| (*k, v.saturating_sub(before.get(k)))).collect())
    }
}

/// The `exec.*{pool=bench}` histograms whose means the run reports.
const EXEC_HISTOGRAMS: [(&str, &str); 3] = [
    ("exec.task_us_mean", "exec.task_ns{pool=bench}"),
    ("exec.stage.fetch_us_mean", "exec.pipeline_stage_ns{pool=bench,stage=loader.fetch}"),
    ("exec.stage.decode_us_mean", "exec.pipeline_stage_ns{pool=bench,stage=loader.decode}"),
];

/// Exact sample count and sum of each [`EXEC_HISTOGRAMS`] entry (the
/// bucketed quantiles would read the same bucket floor on every run).
fn exec_totals(stack: &Stack) -> Vec<(u64, u128)> {
    let snap = stack.registry.snapshot();
    EXEC_HISTOGRAMS
        .iter()
        .map(|(_, id)| snap.histogram(id).map_or((0, 0), |h| (h.count(), h.sum_ns())))
        .collect()
}

/// One measured phase.
struct Measured {
    out: LoopOut,
    ctl: Option<ControlOut>,
    delta: Counters,
    /// Per [`EXEC_HISTOGRAMS`] entry: samples and summed ns in the phase.
    exec: Vec<(u64, u128)>,
    start_ns: u64,
    end_ns: u64,
    /// Process CPU time spent in the phase.
    cpu_s: f64,
}

/// Train for `seconds` and take the counter deltas around it.
fn measure(
    trainer: &mut Trainer,
    seconds: f64,
    neighbour: Option<&Neighbour>,
    segment: &str,
) -> Result<Measured, String> {
    let stack = trainer.stack();
    let writer = neighbour.map(|n| &*n.conn);
    let before = Counters::read(stack, writer);
    let exec_before = exec_totals(stack);
    let cpu0 = cpu_seconds()?;
    let start_ns = now_ns();
    let (out, ctl) = match neighbour {
        Some(n) => {
            let (out, ctl) = trainer.train_with_churn(seconds, n, segment)?;
            (out, Some(ctl))
        }
        None => (trainer.train(seconds, &mut |_| {})?, None),
    };
    let end_ns = now_ns();
    let cpu_s = cpu_seconds()? - cpu0;
    let delta = Counters::read(stack, writer).delta(&before);
    let exec =
        exec_totals(stack).iter().zip(&exec_before).map(|(a, b)| (a.0 - b.0, a.1 - b.1)).collect();
    Ok(Measured { out, ctl, delta, exec, start_ns, end_ns, cpu_s })
}

/// Untimed training before any measured phase, so allocator, page and
/// thread warm-up stays out of the numbers.
const WARMUP_SECONDS: f64 = 0.5;

/// Cross-layer accounting and the layer-isolation checks of one phase.
fn check_phase(stack: &Stack, m: &Measured, checks: &mut Checks, phase: &str) {
    let d = &m.delta;
    let delivered = m.out.samples;
    if m.out.failed == 0 {
        checks.expect(m.out.samples == m.out.epochs * workload::SAMPLES as u64, || {
            format!("{phase}: {} samples over {} whole epochs", m.out.samples, m.out.epochs)
        });
    }
    checks.expect(d.get("admission.throttled.reader") == 0, || {
        format!("{phase}: reader tenant throttled {} times", d.get("admission.throttled.reader"))
    });
    match stack.workload {
        Workload::WarmHit => {
            let (reads, hits) = (d.get("cache.file_reads"), d.get("cache.chunk_hits"));
            checks.expect(reads == delivered && hits == delivered, || {
                format!(
                    "{phase}: {delivered} delivered but cache counted {reads} reads, {hits} hits"
                )
            });
            for key in
                ["store.server.reads", "store.cache.reads", "kv.get.ops", "reader.data_calls"]
            {
                checks.expect(d.get(key) == 0, || {
                    format!("{phase}: warm_hit isolation: {key} = {}", d.get(key))
                });
            }
        }
        Workload::ColdStore => {
            if m.out.failed == 0 {
                checks.expect(d.get("server.merged_requests") == delivered, || {
                    format!(
                        "{phase}: {delivered} samples delivered but server merged {} requests",
                        d.get("server.merged_requests")
                    )
                });
            }
            checks.expect(d.get("net.merged_files") == d.get("server.merged_requests"), || {
                format!(
                    "{phase}: client sent {} merged files, server counted {}",
                    d.get("net.merged_files"),
                    d.get("server.merged_requests")
                )
            });
            for key in ["store.cache.reads", "cache.file_reads"] {
                checks.expect(d.get(key) == 0, || {
                    format!("{phase}: cold_store isolation: {key} = {}", d.get(key))
                });
            }
        }
        Workload::Churn => {
            let server_reads = d.get("server.file_reads");
            let (by_meta, other) = (d.get("reader.read_by_meta"), d.get("reader.read_other"));
            checks.expect(server_reads == by_meta + other, || {
                format!(
                    "{phase}: server counted {server_reads} file reads, \
                     the client sent {by_meta} by-meta and {other} other"
                )
            });
            // Every delivered file is a cache read or a server fallback;
            // a cache read that did not deliver was a stale-owner retry
            // or preceded a fallback.
            let (cache_reads, stale) =
                (d.get("cache.file_reads"), d.get("cache.stale_owner_retries"));
            let spare = (cache_reads + server_reads).checked_sub(delivered);
            checks.expect(spare.is_some_and(|s| s <= stale + server_reads), || {
                format!(
                    "{phase}: {delivered} delivered vs {cache_reads} cache reads + \
                     {server_reads} server reads ({stale} stale-owner retries)"
                )
            });
            checks.expect(d.get("cache.evictions") > 0, || {
                format!("{phase}: churn isolation: no evictions")
            });
            checks.expect(d.get("admission.admitted.writer") > 0, || {
                format!("{phase}: churn isolation: no writer-tenant admissions")
            });
            if let Some(ctl) = &m.ctl {
                checks.expect(!ctl.resize_ns.is_empty(), || {
                    format!("{phase}: churn isolation: no resizes")
                });
                checks.failures.extend(ctl.violations.iter().map(|v| format!("{phase}: {v}")));
            }
            if let Some(cache) = &stack.cache {
                checks.failures.extend(workload::cache_invariants(cache, phase));
            }
        }
    }
}

/// Every neighbour write must read back byte-equal.
fn check_read_back(n: &Neighbour, phases: &[&Measured], checks: &mut Checks) {
    if let Err(e) = n.client.download_meta() {
        checks.failures.push(format!("neighbour download_meta: {e}"));
        return;
    }
    let written: Vec<&(String, Vec<u8>)> =
        phases.iter().filter_map(|m| m.ctl.as_ref()).flat_map(|c| &c.written).collect();
    // Merged reads in batches: the server fans each batch's per-chunk
    // reads across the pool.
    let mut bad = 0;
    for batch in written.chunks(256) {
        let paths: Vec<String> = batch.iter().map(|(p, _)| p.clone()).collect();
        match n.client.get_many(&paths) {
            Ok(got) if got.len() == batch.len() => {
                bad += batch.iter().zip(&got).filter(|((_, want), got)| got[..] != want[..]).count()
            }
            _ => bad += batch.len(),
        }
    }
    checks.expect(bad == 0, || {
        format!("{bad} of {} neighbour writes did not read back", written.len())
    });
}

/// CPU time (user + system) this process has used, in seconds.
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (100 per second).
    let rest = stat.rsplit_once(')').ok_or("unparsable /proc/self/stat")?.1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks =
        |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).ok_or("unparsable /proc/self/stat");
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line =
        status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable {line:?}"))?;
    Ok(kb / 1024.0)
}

fn ms_stat(name: &'static str, values: &[f64], bp: u64, scale: f64, unit: &'static str) -> Metric {
    let v = if bp == 5_000 { stats::median(values) } else { stats::percentile(values, bp) };
    Metric::stat(name, v, scale, unit, values.len())
}

fn tail_metric(name: &'static str, values: &[f64], scale: f64, unit: &'static str) -> Metric {
    match stats::tail(values) {
        Ok((bp, v)) => Metric {
            note: format!("p{}", fmt_bp(bp)),
            ..Metric::new(name, v / scale, unit, values.len() as u64)
        },
        Err(e) => Metric::stat(name, Err(e), scale, unit, values.len()),
    }
}

/// The end-to-end metrics of a phase (stall and write metrics included;
/// only those in [`END_TO_END`] enter the result line).
fn end_to_end(m: &Measured, setup_ns: &[f64]) -> Vec<Metric> {
    let o = &m.out;
    let mut v = vec![
        ms_stat("samples_per_s", &o.epoch_rate, 5_000, 1.0, "samples/s"),
        Metric::new(
            "samples_per_s.overall",
            o.samples as f64 / (o.wall_ns as f64 / 1e9),
            "samples/s",
            o.samples,
        ),
        ms_stat("ttfb_ms", &o.ttfb_ns, 5_000, 1e6, "ms"),
        ms_stat("setup_s", setup_ns, 5_000, 1e9, "s"),
        Metric { name: "peak_rss_mb", value: peak_rss_mb(), unit: "MB", n: 1, note: String::new() },
        ms_stat("stall_p50_us", &o.stall_ns, 5_000, 1e3, "us"),
        ms_stat("stall_p99_us", &o.stall_ns, 9_900, 1e3, "us"),
        tail_metric("stall_tail_us", &o.stall_ns, 1e3, "us"),
        Metric::new("cpu_us_per_sample", m.cpu_s * 1e6 / o.samples as f64, "us", o.samples),
        Metric::new("stall_ratio", o.blocked_ns as f64 / o.wall_ns as f64, "fraction", o.batches),
    ];
    let (attempted, failed) = attempts(m);
    v.push(Metric::new(
        "error_ratio",
        failed as f64 / attempted.max(1) as f64,
        "fraction",
        attempted,
    ));
    if let Some(c) = &m.ctl {
        v.push(ms_stat("write_p50_ms", &c.write_ns, 5_000, 1e6, "ms"));
        v.push(ms_stat("write_p99_ms", &c.write_ns, 9_900, 1e6, "ms"));
        v.push(tail_metric("write_tail_ms", &c.write_ns, 1e6, "ms"));
        v.push(Metric::new(
            "write_generator_late_max_ms",
            c.late_max_ns as f64 / 1e6,
            "ms",
            c.writes,
        ));
        v.push(ms_stat("cache.resize_ms_p50", &c.resize_ns, 5_000, 1e6, "ms"));
    }
    v
}

fn pick(all: &[Metric], names: &[&str]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|name| {
            let m = all
                .iter()
                .find(|m| m.name == *name)
                .ok_or(format!("metric {name} was not computed"))?;
            match &m.value {
                Ok(v) if v.is_finite() => Ok(m.clone()),
                Ok(v) => Err(format!("metric {name} is {v}")),
                Err(e) => Err(format!("metric {name}: {e}")),
            }
        })
        .collect()
}

/// Operations attempted and failed in a phase: batches, neighbour
/// writes and resizes.
fn attempts(m: &Measured) -> (u64, u64) {
    let (ops, failures) = m.ctl.as_ref().map_or((0, 0), |c| {
        (c.writes + c.resize_ns.len() as u64, c.write_failures + c.resize_failures)
    });
    (m.out.batches + ops, m.out.failed + failures)
}

/// `--trace 0`: one measured phase, end-to-end metrics.
pub fn untraced(
    args: &Args,
    stack: &Stack,
    oracle: &mut Oracle,
    setup_ns: &[f64],
    checks: &mut Checks,
) -> Result<Report, String> {
    let neighbour = (stack.workload == Workload::Churn).then(|| Neighbour::new(stack, args.seed));
    let mut trainer = Trainer::new(stack, oracle, args.seed);
    trainer.train(WARMUP_SECONDS, &mut |_| {})?;
    let m = measure(&mut trainer, args.seconds, neighbour.as_ref(), "m")?;
    check_phase(stack, &m, checks, "measure");
    if let Some(n) = &neighbour {
        check_read_back(n, &[&m], checks);
    }
    let all = end_to_end(&m, setup_ns);
    let declared = pick(&all, &END_TO_END)?;
    let (attempted, failed) = attempts(&m);
    Ok(Report { all, declared, attempted, failed, loss: m.out.loss })
}

/// Probe: `TaskCache::get_file` on a warm cache, ns per call (each
/// sample times 64 consecutive calls).
fn probe_get_file(cache: &TaskCache<Store>, metas: &[FileMeta]) -> Result<Vec<f64>, String> {
    const CALLS: usize = 64;
    let mut out = Vec::new();
    let deadline = now_ns() + 300_000_000;
    let mut i = 0;
    while out.len() < 20_000 && now_ns() < deadline {
        let t = now_ns();
        for _ in 0..CALLS {
            let f = cache
                .get_file(&metas[i % metas.len()])
                .map_err(|e| format!("probe get_file: {e}"))?;
            std::hint::black_box(f);
            i += 1;
        }
        out.push((now_ns() - t) as f64 / CALLS as f64);
    }
    Ok(out)
}

/// Probe: time `f` per call until 2000 samples or 0.3 s.
fn probe<T>(mut f: impl FnMut(usize) -> Result<T, String>) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    let deadline = now_ns() + 300_000_000;
    while out.len() < 2_000 && now_ns() < deadline {
        let t = now_ns();
        std::hint::black_box(f(out.len())?);
        out.push((now_ns() - t) as f64);
    }
    Ok(out)
}

/// The probe pass: hit-path costs no decorator can see, on the warmed
/// stack (`cold_store` and `churn` warm a separate 4-node `Oneshot`
/// cache over the same store for the `get_file` probe).
fn probe_pass(args: &Args, stack: &Stack, oracle: &Oracle) -> Result<Vec<Metric>, String> {
    let reader = &stack.reader;
    let paths = reader.file_list().map_err(|e| e.to_string())?;
    let metas: Vec<FileMeta> = paths
        .iter()
        .take(4_096)
        .map(|p| reader.stat(p))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let cache = match (&stack.cache, stack.workload) {
        (Some(c), Workload::WarmHit) => Arc::clone(c),
        _ => workload::warm_cache(&stack.raw_store, &stack.rec, &stack.server, &stack.pool)?,
    };
    let get_file = probe_get_file(&cache, &metas)?;
    let batches: Vec<Vec<String>> = paths.chunks(workload::BATCH).map(<[String]>::to_vec).collect();
    let get_many = probe(|i| {
        reader.get_many(&batches[i % batches.len()]).map_err(|e| format!("probe get_many: {e}"))
    })?;
    let plan = probe(|i| {
        reader.epoch_plan(args.seed, 1_000 + i as u64).map_err(|e| format!("probe epoch_plan: {e}"))
    })?;
    let encoded: Vec<Vec<u8>> =
        oracle.samples()[..workload::BATCH].iter().map(Sample::encode).collect();
    let decode = probe(|_| {
        let decoded: Vec<Sample> = encoded
            .iter()
            .map(|b| Sample::decode(b).ok_or("probe decode failed".to_string()))
            .collect::<Result<_, _>>()?;
        let refs: Vec<&Sample> = decoded.iter().collect();
        Ok(to_batch(&refs))
    })?;
    Ok(vec![
        ms_stat("cache.get_file_ns_p50", &get_file, 5_000, 1.0, "ns"),
        ms_stat("client.get_many_us_p50", &get_many, 5_000, 1e3, "us"),
        ms_stat("shuffle.plan_us_p50", &plan, 5_000, 1e3, "us"),
        ms_stat("decode.batch_us_p50", &decode, 5_000, 1e3, "us"),
    ])
}

fn durations(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `--trace 1`: half the time untraced, half traced, then the probe
/// pass; per-layer metrics from the traced half.
pub fn traced(
    args: &Args,
    stack: &Stack,
    oracle: &mut Oracle,
    checks: &mut Checks,
) -> Result<Report, String> {
    let half = args.seconds / 2.0;
    let neighbour = (stack.workload == Workload::Churn).then(|| Neighbour::new(stack, args.seed));
    let mut trainer = Trainer::new(stack, oracle, args.seed);
    trainer.train(WARMUP_SECONDS, &mut |_| {})?;
    let plain = measure(&mut trainer, half, neighbour.as_ref(), "u")?;
    check_phase(stack, &plain, checks, "untraced");
    stack.rec.set_enabled(true);
    let traced = measure(&mut trainer, half, neighbour.as_ref(), "t");
    stack.rec.set_enabled(false);
    let traced = traced?;
    check_phase(stack, &traced, checks, "traced");
    if let Some(n) = &neighbour {
        check_read_back(n, &[&plain, &traced], checks);
    }
    let spans = stack.rec.drain();
    let window: Vec<SpanRec> = spans
        .iter()
        .filter(|s| s.start_ns >= traced.start_ns && s.end_ns <= traced.end_ns)
        .cloned()
        .collect();
    let probes = probe_pass(args, stack, trainer.oracle())?;

    let d = &traced.delta;
    let o = &traced.out;
    // End-to-end lines come from the untraced half.
    let mut all = end_to_end(&plain, &[stack.setup.total_ns as f64]);
    let sps_plain = plain.out.samples as f64 / (plain.out.wall_ns as f64 / 1e9);
    let sps_traced = o.samples as f64 / (o.wall_ns as f64 / 1e9);
    all.push(Metric::new("samples_per_s.traced", sps_traced, "samples/s", o.samples));
    all.extend(probes);

    // Trainer-thread coverage of the traced window.
    let trainer: Vec<(u64, u64)> = window
        .iter()
        .filter(|s| matches!(s.name, "loader.epoch_start" | "loader.next" | "train.step"))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let wall = traced.end_ns - traced.start_ns;
    let covered = covered_ns(traced.start_ns, traced.end_ns, trainer);
    let selfs = self_times(&spans);
    let merged_self: Vec<f64> = window
        .iter()
        .filter(|s| s.name == "net.read_merged")
        .map(|s| selfs[&s.id] as f64)
        .collect();
    let busy_ms = |prefix: &str| {
        spans.iter().filter(|s| s.name.starts_with(prefix)).map(SpanRec::dur_ns).sum::<u64>() as f64
            / 1e6
    };
    let store_read_bytes = d.get("store.server.read_bytes") + d.get("store.cache.read_bytes");
    let files_via_server =
        d.get("net.merged_files") + d.get("reader.read_by_meta") + d.get("reader.read_other");
    let window_spans = window.len() as u64;
    let count = |name: &'static str| Metric::new(name, d.get(name) as f64, "count", 1);

    for ((name, _), &(n, sum)) in EXEC_HISTOGRAMS.iter().zip(&traced.exec) {
        let mean = if n == 0 { Err(StatError::Empty) } else { Ok(sum as f64 / n as f64) };
        all.push(Metric::stat(name, mean, 1e3, "us", n as usize));
    }
    all.extend([
        ms_stat("train.step_us_p50", &durations(&window, "train.step"), 5_000, 1e3, "us"),
        ms_stat("loader.epoch_start_us_p50", &o.epoch_start_ns, 5_000, 1e3, "us"),
        count("exec.tasks"),
        count("exec.pipeline_items"),
        Metric::new("exec.queue_depth_max", o.queue_depth_max as f64, "count", o.batches),
        Metric::new(
            "copies.bytes_per_sample",
            ratio(d.get("bytes.copied"), o.samples),
            "B/sample",
            o.samples,
        ),
        count("cache.file_reads"),
        count("cache.chunk_hits"),
        Metric::new(
            "cache.hit_ratio",
            ratio(d.get("cache.chunk_hits"), d.get("cache.file_reads")),
            "fraction",
            d.get("cache.file_reads"),
        ),
        count("cache.chunk_loads"),
        Metric::new("cache.bytes_loaded", d.get("cache.bytes_loaded") as f64, "B", 1),
        count("cache.evictions"),
        count("cache.rebalance_moves"),
        count("cache.rebalance_warm_hits"),
        count("cache.rebalance_fallbacks"),
        count("cache.stale_owner_retries"),
        Metric::new("cache.prefetch_ms", stack.setup.prefetch_ns as f64 / 1e6, "ms", 1),
        count("net.read_merged.calls"),
        ms_stat("net.read_merged.us_p50", &durations(&window, "net.read_merged"), 5_000, 1e3, "us"),
        ms_stat("net.read_merged.us_p99", &durations(&window, "net.read_merged"), 9_900, 1e3, "us"),
        count("net.read_by_meta.calls"),
        count("net.ingest.calls"),
        ms_stat("net.ingest.us_p50", &durations(&spans, "net.ingest"), 5_000, 1e3, "us"),
        ms_stat("net.ingest.us_p99", &durations(&spans, "net.ingest"), 9_900, 1e3, "us"),
        count("net.errors"),
        count("net.throttled"),
        count("admission.admitted.reader"),
        count("admission.admitted.writer"),
        count("admission.throttled.reader"),
        count("admission.throttled.writer"),
        ms_stat("server.read_merged.self_us_p50", &merged_self, 5_000, 1e3, "us"),
        Metric::new(
            "server.files_per_merged_read",
            ratio(d.get("net.merged_files"), d.get("net.read_merged.calls")),
            "files",
            d.get("net.read_merged.calls"),
        ),
        Metric::new(
            "server.store_reads_per_batch",
            ratio(d.get("store.server.reads"), d.get("net.read_merged.calls")),
            "reads",
            d.get("net.read_merged.calls"),
        ),
        Metric::new("meta.download_ms", stack.setup.download_ns as f64 / 1e6, "ms", 1),
        Metric::new(
            "meta.kv_gets_per_file",
            ratio(d.get("kv.get.ops"), files_via_server),
            "gets",
            files_via_server,
        ),
        count("kv.get.ops"),
        ms_stat("kv.get.ns_p50", &durations(&window, "kv.get"), 5_000, 1.0, "ns"),
        count("kv.put.ops"),
        Metric::new("kv.busy_ms", busy_ms("kv."), "ms", 1),
        count("store.server.reads"),
        Metric::new("store.server.read_bytes", d.get("store.server.read_bytes") as f64, "B", 1),
        ms_stat(
            "store.server.read_us_p50",
            &durations(&window, "store.server.read"),
            5_000,
            1e3,
            "us",
        ),
        Metric::new("store.server.busy_ms", busy_ms("store.server."), "ms", 1),
        count("store.cache.reads"),
        Metric::new("store.cache.read_bytes", d.get("store.cache.read_bytes") as f64, "B", 1),
        ms_stat(
            "store.cache.read_us_p50",
            &durations(&window, "store.cache.read"),
            5_000,
            1e3,
            "us",
        ),
        Metric::new(
            "store.writes",
            (d.get("store.server.writes") + d.get("store.cache.writes")) as f64,
            "count",
            1,
        ),
        Metric::new(
            "store.write_bytes",
            (d.get("store.server.write_bytes") + d.get("store.cache.write_bytes")) as f64,
            "B",
            1,
        ),
        Metric::new(
            "store.read_amplification",
            ratio(store_read_bytes, o.samples * workload::SAMPLE_BYTES),
            "ratio",
            o.samples,
        ),
        Metric::new(
            "bench.unattributed_pct",
            100.0 * (wall - covered.min(wall)) as f64 / wall as f64,
            "%",
            window_spans,
        ),
        Metric::new("bench.oracle_pct", 100.0 * o.oracle_ns as f64 / wall as f64, "%", o.batches),
        Metric::new(
            "bench.trace_overhead_pct",
            100.0 * (sps_plain - sps_traced) / sps_plain,
            "%",
            o.samples,
        ),
    ]);
    let declared = pick(&all, &PER_LAYER)?;
    let (a1, f1) = attempts(&plain);
    let (a2, f2) = attempts(&traced);
    Ok(Report { all, declared, attempted: a1 + a2, failed: f1 + f2, loss: o.loss })
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        let v = m.value.clone()?;
        body.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` value in a JSON document, in order.
    fn names(doc: &str) -> Vec<String> {
        doc.split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let doc = include_str!("../../BENCHMARK.json");
        let want: Vec<String> = ["warm_hit", "cold_store", "churn"]
            .iter()
            .chain(END_TO_END.iter())
            .chain(PER_LAYER.iter())
            .map(|s| (*s).to_owned())
            .collect();
        assert_eq!(names(doc), want);
    }

    #[test]
    fn the_metric_map_covers_every_declared_metric() {
        let map = names(include_str!("../metrics.json"));
        for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(map.iter().any(|m| m == name), "{name} missing from metrics.json");
        }
    }

    #[test]
    fn the_result_line_has_the_contract_keys() {
        let m = vec![Metric::new("samples_per_s", 1.5, "samples/s", 3)];
        assert_eq!(
            result_json(true, 3, 0, &m).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"samples_per_s\": {\"value\": 1.5, \"unit\": \"samples/s\"}}}"
        );
        let bad = vec![Metric::stat("x", Err(StatError::Empty), 1.0, "ms", 0)];
        assert!(result_json(true, 1, 0, &bad).is_err(), "a missing value is not printed");
    }
}
