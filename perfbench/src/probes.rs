//! Decorators over the program's public layer traits.
//!
//! Each wraps one layer boundary — [`ObjectStore`], [`KvStore`] and the
//! client's server channel ([`Service`]) — passes every call, its bytes
//! and its errors through unchanged, counts the calls (always: a relaxed
//! atomic add), and opens a span per call while the shared [`Recorder`]
//! is on. One store decorator is built per caller, so the server's and
//! the cache's store traffic stay apart.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use diesel_cache::CacheError;
use diesel_core::{DieselError, ServerConn, ServerReply, ServerRequest};
use diesel_kv::KvStore;
use diesel_net::{Endpoint, NetError, Service};
use diesel_obs::RegistrySnapshot;
use diesel_store::{Bytes, ObjectStore};

use crate::spans::Recorder;

/// A relaxed counter.
#[derive(Debug, Default)]
pub struct Count(AtomicU64);

impl Count {
    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Which caller a store decorator serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreRole {
    /// The server's reads and writes.
    Server,
    /// The task cache's chunk loads.
    Cache,
}

impl StoreRole {
    fn read_span(self) -> &'static str {
        match self {
            StoreRole::Server => "store.server.read",
            StoreRole::Cache => "store.cache.read",
        }
    }

    fn write_span(self) -> &'static str {
        match self {
            StoreRole::Server => "store.server.write",
            StoreRole::Cache => "store.cache.write",
        }
    }
}

/// Store traffic seen by one decorator.
#[derive(Debug, Default)]
pub struct StoreCounts {
    /// `get`/`get_range` calls.
    pub reads: Count,
    /// Bytes those calls returned.
    pub read_bytes: Count,
    /// `put` calls.
    pub writes: Count,
    /// Bytes those calls stored.
    pub write_bytes: Count,
}

/// An [`ObjectStore`] decorator.
pub struct ProbedStore<S> {
    inner: Arc<S>,
    role: StoreRole,
    rec: Arc<Recorder>,
    counts: Arc<StoreCounts>,
}

impl<S> ProbedStore<S> {
    /// Wrap `inner` for the caller `role`.
    pub fn new(inner: Arc<S>, role: StoreRole, rec: Arc<Recorder>) -> Self {
        ProbedStore { inner, role, rec, counts: Arc::default() }
    }

    /// The counters.
    pub fn counts(&self) -> &Arc<StoreCounts> {
        &self.counts
    }

    fn read(
        &self,
        key: &str,
        f: impl FnOnce() -> diesel_store::Result<Bytes>,
    ) -> diesel_store::Result<Bytes> {
        let _span = self.rec.open_for_key(self.role.read_span(), key);
        let out = f();
        self.counts.reads.add(1);
        if let Ok(b) = &out {
            self.counts.read_bytes.add(b.len() as u64);
        }
        out
    }
}

impl<S: ObjectStore> ObjectStore for ProbedStore<S> {
    fn put(&self, key: &str, value: Bytes) -> diesel_store::Result<()> {
        let _span = self.rec.open(self.role.write_span());
        let n = value.len() as u64;
        let out = self.inner.put(key, value);
        self.counts.writes.add(1);
        if out.is_ok() {
            self.counts.write_bytes.add(n);
        }
        out
    }

    fn get(&self, key: &str) -> diesel_store::Result<Bytes> {
        self.read(key, || self.inner.get(key))
    }

    fn get_range(&self, key: &str, offset: u64, len: usize) -> diesel_store::Result<Bytes> {
        self.read(key, || self.inner.get_range(key, offset, len))
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

    fn obs_snapshot(&self) -> Option<RegistrySnapshot> {
        self.inner.obs_snapshot()
    }
}

/// KV traffic seen by the decorator.
#[derive(Debug, Default)]
pub struct KvCounts {
    /// Keys looked up (`get`, and each key of an `mget`).
    pub gets: Count,
    /// Keys written (`put`, `update`, and each pair of an `mput`).
    pub puts: Count,
}

/// A [`KvStore`] decorator.
pub struct ProbedKv<K> {
    inner: Arc<K>,
    rec: Arc<Recorder>,
    counts: Arc<KvCounts>,
}

impl<K> ProbedKv<K> {
    /// Wrap `inner`.
    pub fn new(inner: Arc<K>, rec: Arc<Recorder>) -> Self {
        ProbedKv { inner, rec, counts: Arc::default() }
    }

    /// The counters.
    pub fn counts(&self) -> &Arc<KvCounts> {
        &self.counts
    }
}

impl<K: KvStore> KvStore for ProbedKv<K> {
    fn get(&self, key: &str) -> diesel_kv::Result<Option<Bytes>> {
        let _span = self.rec.open("kv.get");
        self.counts.gets.add(1);
        self.inner.get(key)
    }

    fn put(&self, key: &str, value: Bytes) -> diesel_kv::Result<()> {
        let _span = self.rec.open("kv.put");
        self.counts.puts.add(1);
        self.inner.put(key, value)
    }

    fn delete(&self, key: &str) -> diesel_kv::Result<bool> {
        let _span = self.rec.open("kv.other");
        self.inner.delete(key)
    }

    fn mget(&self, keys: &[&str]) -> diesel_kv::Result<Vec<Option<Bytes>>> {
        let _span = self.rec.open("kv.get");
        self.counts.gets.add(keys.len() as u64);
        self.inner.mget(keys)
    }

    fn mput(&self, pairs: Vec<(String, Bytes)>) -> diesel_kv::Result<()> {
        let _span = self.rec.open("kv.put");
        self.counts.puts.add(pairs.len() as u64);
        self.inner.mput(pairs)
    }

    fn update(
        &self,
        key: &str,
        f: &mut dyn FnMut(Option<Bytes>) -> Option<Bytes>,
    ) -> diesel_kv::Result<()> {
        let _span = self.rec.open("kv.put");
        self.counts.puts.add(1);
        self.inner.update(key, f)
    }

    fn pscan(&self, prefix: &str) -> diesel_kv::Result<Vec<(String, Bytes)>> {
        let _span = self.rec.open("kv.other");
        self.inner.pscan(prefix)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn obs_snapshot(&self) -> Option<RegistrySnapshot> {
        self.inner.obs_snapshot()
    }
}

/// Server calls seen by one client's channel decorator.
#[derive(Debug, Default)]
pub struct ConnCounts {
    /// `ReadFilesMerged` calls.
    pub read_merged: Count,
    /// Files those calls asked for.
    pub merged_files: Count,
    /// `ReadByMeta` calls (cache fallbacks).
    pub read_by_meta: Count,
    /// Other data reads (`ReadFile`, `ReadChunk`).
    pub read_other: Count,
    /// `IngestChunk` calls.
    pub ingest: Count,
    /// Every other request.
    pub other: Count,
    /// Calls that failed in transport or with an application error.
    pub errors: Count,
    /// Application replies that were admission throttles.
    pub throttled: Count,
}

impl ConnCounts {
    /// Calls that move file data (what a fully cached read path avoids).
    pub fn data_calls(&self) -> u64 {
        self.read_merged.get() + self.read_by_meta.get() + self.read_other.get()
    }
}

/// Path → chunk object key, shared between a [`ProbedConn`] and whoever
/// fills it.
pub type KeyTable = Arc<RwLock<HashMap<String, String>>>;

/// A decorator over a client's server channel ([`ServerConn`]).
pub struct ProbedConn {
    inner: ServerConn,
    rec: Arc<Recorder>,
    counts: Arc<ConnCounts>,
    /// Path → chunk object key, for announcing merged reads' store keys
    /// to the span recorder. Empty until the caller fills it.
    keys: KeyTable,
}

impl ProbedConn {
    /// Wrap `inner`.
    pub fn new(inner: ServerConn, rec: Arc<Recorder>) -> Self {
        ProbedConn { inner, rec, counts: Arc::default(), keys: Arc::default() }
    }

    /// The counters.
    pub fn counts(&self) -> &Arc<ConnCounts> {
        &self.counts
    }

    /// The path → chunk-object-key table merged reads announce from.
    pub fn keys(&self) -> &KeyTable {
        &self.keys
    }
}

impl Service<ServerRequest, ServerReply> for ProbedConn {
    fn call(&self, req: ServerRequest) -> Result<ServerReply, NetError> {
        let (name, count) = match &req {
            ServerRequest::ReadFilesMerged { paths, .. } => {
                self.counts.merged_files.add(paths.len() as u64);
                ("net.read_merged", &self.counts.read_merged)
            }
            ServerRequest::ReadByMeta { .. } => ("net.read_by_meta", &self.counts.read_by_meta),
            ServerRequest::ReadFile { .. } | ServerRequest::ReadChunk { .. } => {
                ("net.read_other", &self.counts.read_other)
            }
            ServerRequest::IngestChunk { .. } => ("net.ingest", &self.counts.ingest),
            _ => ("net.other", &self.counts.other),
        };
        count.add(1);
        let mut span = self.rec.open(name);
        if let (Some(span), ServerRequest::ReadFilesMerged { paths, .. }) = (span.as_mut(), &req) {
            let table = self.keys.read().expect("key table poisoned");
            let mut keys: Vec<String> =
                paths.iter().filter_map(|p| table.get(p).cloned()).collect();
            keys.sort_unstable();
            keys.dedup();
            span.announce(keys);
        }
        let out = self.inner.call(req);
        match &out {
            Ok(Ok(_)) => {}
            Ok(Err(DieselError::Cache(CacheError::Throttled { .. }))) => {
                self.counts.throttled.add(1)
            }
            Ok(Err(_)) | Err(_) => self.counts.errors.add(1),
        }
        out
    }

    fn endpoint(&self) -> Endpoint {
        self.inner.endpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_kv::ShardedKv;
    use diesel_net::DirectChannel;
    use diesel_store::{MemObjectStore, StoreError};

    fn on() -> Arc<Recorder> {
        let rec = Arc::new(Recorder::default());
        rec.set_enabled(true);
        rec
    }

    #[test]
    fn store_decorator_passes_bytes_and_errors_through() {
        let mem = Arc::new(MemObjectStore::new());
        let rec = on();
        let store = ProbedStore::new(Arc::clone(&mem), StoreRole::Cache, Arc::clone(&rec));
        store.put("k", Bytes::from(b"hello world".to_vec())).unwrap();
        assert_eq!(store.get("k").unwrap(), mem.get("k").unwrap());
        assert_eq!(store.get_range("k", 6, 100).unwrap(), mem.get_range("k", 6, 100).unwrap());
        assert_eq!(store.get("nope"), mem.get("nope"));
        assert!(matches!(store.get("nope"), Err(StoreError::NotFound(_))));
        assert_eq!(store.get_range("k", 99, 1), mem.get_range("k", 99, 1));
        assert_eq!(store.len(), mem.len());
        assert_eq!(store.counts().writes.get(), 1);
        assert_eq!(store.counts().write_bytes.get(), 11);
        assert_eq!(store.counts().reads.get(), 5, "failed reads count as reads");
        assert_eq!(store.counts().read_bytes.get(), 11 + 5);
        let spans = rec.drain();
        assert_eq!(spans.iter().filter(|s| s.name == "store.cache.read").count(), 5);
        assert_eq!(spans.iter().filter(|s| s.name == "store.cache.write").count(), 1);
    }

    #[test]
    fn kv_decorator_passes_values_and_misses_through() {
        let inner = Arc::new(ShardedKv::new());
        let kv = ProbedKv::new(Arc::clone(&inner), on());
        kv.put("a", Bytes::from(b"1".to_vec())).unwrap();
        kv.update("b", &mut |_| Some(Bytes::from(b"2".to_vec()))).unwrap();
        assert_eq!(kv.get("a").unwrap(), inner.get("a").unwrap());
        assert_eq!(kv.get("zz").unwrap(), None);
        assert_eq!(kv.mget(&["a", "b", "zz"]).unwrap(), inner.mget(&["a", "b", "zz"]).unwrap());
        assert_eq!(kv.pscan("").unwrap(), inner.pscan("").unwrap());
        assert_eq!(kv.counts().gets.get(), 5);
        assert_eq!(kv.counts().puts.get(), 2);
    }

    #[test]
    fn conn_decorator_passes_replies_and_errors_through() {
        let inner: ServerConn =
            Arc::new(DirectChannel::new(Endpoint::new("server", 0), |req| match req {
                ServerRequest::Stats => Ok(Ok(diesel_core::ServerResponse::Unit)),
                ServerRequest::ReadFile { .. } => {
                    Ok(Err(DieselError::Cache(CacheError::Throttled { retry_after_ms: 3 })))
                }
                _ => Err(NetError::Disconnected { endpoint: Endpoint::new("server", 0) }),
            }));
        let conn = ProbedConn::new(inner, on());
        assert!(matches!(
            conn.call(ServerRequest::Stats),
            Ok(Ok(diesel_core::ServerResponse::Unit))
        ));
        let throttled =
            conn.call(ServerRequest::ReadFile { dataset: "d".into(), path: "p".into() });
        assert!(matches!(
            throttled,
            Ok(Err(DieselError::Cache(CacheError::Throttled { retry_after_ms: 3 })))
        ));
        let lost = conn.call(ServerRequest::Trace);
        assert!(matches!(lost, Err(NetError::Disconnected { endpoint }) if endpoint.node == 0));
        assert_eq!(conn.endpoint(), Endpoint::new("server", 0));
        let c = conn.counts();
        assert_eq!((c.other.get(), c.read_other.get()), (2, 1));
        assert_eq!((c.throttled.get(), c.errors.get()), (1, 1));
    }
}
