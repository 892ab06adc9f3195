//! Content-addressed compile cache: sharded, mutex-striped LRU.
//!
//! `oneqd` keys compiled responses by *content*, not by file name: the
//! address is a hand-written [`sha256`] digest of the
//! [`canonicalize_source`]d QASM bytes combined with the compile-config
//! fingerprint (and the response's file label, which is embedded in the
//! record bytes). Entries store only the 32-byte digest — never the
//! source — so resident key memory is bounded by `capacity × 32` no
//! matter how large the posted circuits are, and serving a wrong
//! circuit's metrics would require a SHA-256 collision. Digests route to
//! one of N mutex stripes by their leading bytes, so concurrent requests
//! only contend when they land on the same shard.
//!
//! Hit/miss/eviction counters are handles into the daemon's metric
//! [`Registry`], registered when the cache is built, so `GET /v1/stats`
//! and `GET /v1/metrics` read them directly.
//!
//! [`SingleFlight`] is the coalescing layer *in front of* the cache: N
//! concurrent misses on one digest elect one leader that compiles while
//! the followers block on its result, so a thundering herd on a cold key
//! runs exactly one compile instead of N.
//!
//! [`TieredCache`] stacks the persistent disk tier
//! ([`SpillTier`]) *behind* the LRU: lookups go
//! memory → disk → (caller compiles), a disk hit is promoted into
//! memory, and a fill lands in memory immediately and on disk
//! write-behind.

use crate::spill::{SpillStats, SpillTier};
use oneq_obs::{Counter, Registry};
use std::sync::{Arc, Condvar, Mutex};

/// SHA-256 round constants (FIPS 180-4 §4.2.2).
const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A small hand-written SHA-256 (FIPS 180-4): the cache's content
/// address. ~40 lines of shifts and adds keeps the workspace free of an
/// external digest crate while making key collisions cryptographically
/// negligible.
pub fn sha256(bytes: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padded message: data ‖ 0x80 ‖ zeros ‖ 64-bit big-endian bit length.
    let mut msg = bytes.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&((bytes.len() as u64) * 8).to_be_bytes());

    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (hi, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *hi = hi.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Canonicalizes QASM source for cache keying: CRLF → LF, trailing
/// horizontal whitespace stripped per line, and exactly one trailing
/// newline. Two sources with the same canonical form tokenize
/// identically under the OpenQASM 2.0 grammar (whitespace is
/// insignificant outside string literals, and the only accepted string
/// literal is the include path), so they compile to the same metrics.
/// The *original* bytes are still what gets compiled on a miss — the
/// canonical form exists only as the cache address.
pub fn canonicalize_source(source: &str) -> String {
    let mut out = String::with_capacity(source.len() + 1);
    for line in source.split('\n') {
        out.push_str(line.trim_end_matches([' ', '\t', '\r']));
        out.push('\n');
    }
    while out.ends_with("\n\n") {
        out.pop();
    }
    out
}

struct Entry {
    digest: [u8; 32],
    value: Arc<str>,
}

/// One stripe: a digest-keyed LRU with the most recently used entry at
/// the back of the vec. Capacities are small (tens of entries per
/// shard), so the O(len) scan-and-rotate is cheaper than pointer-chasing
/// a list.
#[derive(Default)]
struct Shard {
    entries: Vec<Entry>,
}

/// The sharded LRU. All methods take `&self`; interior mutability is one
/// mutex per shard.
pub struct CompileCache {
    shards: Box<[Mutex<Shard>]>,
    shard_capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl CompileCache {
    /// A cache holding at most `capacity` entries striped over `shards`
    /// mutexes (both clamped to ≥ 1; per-shard capacity rounds up). Its
    /// counters and its fixed shape (capacity, shards) are registered in
    /// `registry`.
    pub fn new(capacity: usize, shards: usize, registry: &Registry) -> CompileCache {
        let shards = shards.max(1);
        let shard_capacity = capacity.max(1).div_ceil(shards);
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        let gauge = |name: &str, help: &str, value: usize| {
            registry.gauge(name, help, &[]).set(value as u64);
        };
        gauge(
            "oneqd_cache_memory_capacity",
            "Configured memory-tier capacity.",
            shard_capacity * shards,
        );
        gauge(
            "oneqd_cache_memory_shards",
            "Mutex stripes in the memory tier.",
            shards,
        );
        CompileCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            hits: counter("oneqd_cache_memory_hits_total", "Memory-tier cache hits."),
            misses: counter(
                "oneqd_cache_memory_misses_total",
                "Memory-tier cache misses.",
            ),
            evictions: counter(
                "oneqd_cache_memory_evictions_total",
                "Memory-tier LRU evictions.",
            ),
        }
    }

    /// Routes a digest to its stripe by the leading 8 bytes (SHA-256
    /// output is uniform, so any fixed slice balances the shards).
    fn shard_of(&self, digest: &[u8; 32]) -> &Mutex<Shard> {
        let lead = u64::from_be_bytes(digest[..8].try_into().expect("8-byte slice"));
        &self.shards[(lead as usize) % self.shards.len()]
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        self.get_digest(&sha256(key.as_bytes()))
    }

    /// Digest-addressed lookup (the key was already hashed — e.g. to join
    /// a [`SingleFlight`]), refreshing recency on a hit.
    pub fn get_digest(&self, digest: &[u8; 32]) -> Option<Arc<str>> {
        let mut shard = self.shard_of(digest).lock().expect("cache shard poisoned");
        let pos = shard.entries.iter().position(|e| e.digest == *digest);
        match pos {
            Some(pos) => {
                let entry = shard.entries.remove(pos);
                let value = Arc::clone(&entry.value);
                shard.entries.push(entry);
                self.hits.inc();
                Some(value)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Counter-free lookup: no hit/miss accounting, no recency refresh.
    /// Used by a freshly elected single-flight leader to double-check the
    /// cache (a previous leader may have filled it between this thread's
    /// miss and its election) without double-counting the request's one
    /// logical lookup.
    pub fn peek_digest(&self, digest: &[u8; 32]) -> Option<Arc<str>> {
        let shard = self.shard_of(digest).lock().expect("cache shard poisoned");
        shard
            .entries
            .iter()
            .find(|e| e.digest == *digest)
            .map(|e| Arc::clone(&e.value))
    }

    /// Inserts (or refreshes) `key → value`, evicting the least recently
    /// used entry of the target shard when it is full.
    pub fn insert(&self, key: &str, value: Arc<str>) {
        self.insert_digest(sha256(key.as_bytes()), value);
    }

    /// Digest-addressed insert.
    pub fn insert_digest(&self, digest: [u8; 32], value: Arc<str>) {
        let mut shard = self.shard_of(&digest).lock().expect("cache shard poisoned");
        if let Some(pos) = shard.entries.iter().position(|e| e.digest == digest) {
            // Two threads can race the same miss; the second insert just
            // refreshes recency.
            let mut entry = shard.entries.remove(pos);
            entry.value = value;
            shard.entries.push(entry);
            return;
        }
        shard.entries.push(Entry { digest, value });
        if shard.entries.len() > self.shard_capacity {
            shard.entries.remove(0);
            self.evictions.inc();
        }
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which tier satisfied a [`TieredCache`] lookup — reported to clients
/// verbatim in the `X-Oneqd-Cache` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Served from the in-memory LRU.
    Memory,
    /// Served from the disk spill tier (and promoted into memory).
    Disk,
}

/// The two-level cache: the in-memory LRU in front, the persistent
/// [`SpillTier`] (optional — `oneqd --cache-dir`) behind it.
///
/// Lookup order is memory → disk; a disk hit is *promoted* (inserted
/// into the LRU) so a warm key pays the disk read once. Fills via
/// [`TieredCache::fill`] insert into memory synchronously and enqueue
/// the disk append write-behind, so the compile path never blocks on
/// I/O. Without a disk tier this degrades to exactly the PR-5 behavior.
pub struct TieredCache {
    memory: CompileCache,
    disk: Option<SpillTier>,
    fills: Counter,
}

impl TieredCache {
    /// A tiered cache over an LRU of `capacity` entries × `shards`
    /// stripes, optionally backed by `disk`, counting into `registry`.
    pub fn new(
        capacity: usize,
        shards: usize,
        disk: Option<SpillTier>,
        registry: &Registry,
    ) -> TieredCache {
        TieredCache {
            memory: CompileCache::new(capacity, shards, registry),
            disk,
            fills: registry.counter(
                "oneqd_cache_fills_total",
                "Compile results inserted into the cache.",
                &[],
            ),
        }
    }

    /// Looks `digest` up memory-first, then disk. A disk hit is promoted
    /// into the memory tier before returning.
    pub fn get_digest(&self, digest: &[u8; 32]) -> Option<(Arc<str>, Tier)> {
        if let Some(value) = self.memory.get_digest(digest) {
            return Some((value, Tier::Memory));
        }
        let value = self.disk.as_ref()?.get(digest)?;
        self.memory.insert_digest(*digest, Arc::clone(&value));
        Some((value, Tier::Disk))
    }

    /// Counter-free memory peek, then a disk read: the single-flight
    /// leader's double-check (see [`CompileCache::peek_digest`]). The
    /// memory tier's hit/miss counters stay untouched — the request's one
    /// logical lookup was already counted — but a disk hit still counts
    /// as a disk hit (it *is* one) and still promotes.
    pub fn peek_digest(&self, digest: &[u8; 32]) -> Option<(Arc<str>, Tier)> {
        if let Some(value) = self.memory.peek_digest(digest) {
            return Some((value, Tier::Memory));
        }
        let value = self.disk.as_ref()?.get(digest)?;
        self.memory.insert_digest(*digest, Arc::clone(&value));
        Some((value, Tier::Disk))
    }

    /// Fills `digest → value` after a compile: into memory now, onto
    /// disk write-behind.
    pub fn fill(&self, digest: [u8; 32], value: Arc<str>) {
        self.fills.inc();
        self.memory.insert_digest(digest, Arc::clone(&value));
        if let Some(disk) = &self.disk {
            disk.append(digest, value);
        }
    }

    /// Entries resident in the in-memory tier.
    pub fn memory_len(&self) -> usize {
        self.memory.len()
    }

    /// The disk tier's occupancy; `None` when running memory-only.
    pub fn disk_stats(&self) -> Option<SpillStats> {
        self.disk.as_ref().map(SpillTier::stats)
    }

    /// Blocks until every write-behind append so far is on disk. A no-op
    /// without a disk tier; tests and shutdown use this.
    pub fn flush_disk(&self) {
        if let Some(disk) = &self.disk {
            disk.flush();
        }
    }
}

/// The role [`SingleFlight::join`] hands back for a digest.
pub enum FlightRole<'a> {
    /// This thread compiles; it must call [`FlightLeader::publish`] (or
    /// drop the guard, which aborts the flight and wakes followers).
    Leader(FlightLeader<'a>),
    /// Another thread was already compiling this digest. `Some` carries
    /// its published `(body, ok)`; `None` means the leader aborted
    /// without publishing (it panicked) and the follower should compile
    /// for itself.
    Follower(Option<(Arc<str>, bool)>),
}

enum FlightState {
    Pending,
    Done(Arc<str>, bool),
    Aborted,
}

struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

/// Request coalescing in front of the cache: concurrent misses on one
/// digest elect a single leader; followers block until the leader
/// publishes and then return its bytes. The in-flight table holds only
/// keys currently being compiled, so it stays tiny (bounded by worker
/// count) and one mutex suffices.
///
/// Exactly-once protocol (the part that keeps a storm at one compile):
/// the leader must insert its result into the [`CompileCache`] *before*
/// calling [`FlightLeader::publish`] — publish removes the flight from
/// the table, and any request that missed the cache earlier will either
/// find the flight (and follow) or, finding neither, elect itself leader
/// and see the filled cache on its double-check
/// ([`CompileCache::peek_digest`]).
pub struct SingleFlight {
    inflight: Mutex<Vec<([u8; 32], Arc<Flight>)>>,
    coalesced: Counter,
}

impl SingleFlight {
    /// An empty coalescing table, counting coalesced serves into
    /// `registry`.
    pub fn new(registry: &Registry) -> SingleFlight {
        SingleFlight {
            inflight: Mutex::default(),
            coalesced: registry.counter(
                "oneqd_coalesced_total",
                "Requests served from a concurrent leader's in-flight compile.",
                &[],
            ),
        }
    }

    /// Joins the flight for `digest`: the first caller becomes the
    /// leader, everyone else blocks until the leader publishes or aborts.
    pub fn join(&self, digest: [u8; 32]) -> FlightRole<'_> {
        let mut inflight = self.inflight.lock().expect("single-flight table poisoned");
        if let Some((_, flight)) = inflight.iter().find(|(d, _)| *d == digest) {
            let flight = Arc::clone(flight);
            drop(inflight);
            let mut state = flight.state.lock().expect("flight state poisoned");
            while matches!(*state, FlightState::Pending) {
                state = flight.cv.wait(state).expect("flight state poisoned");
            }
            return match &*state {
                FlightState::Done(body, ok) => {
                    self.coalesced.inc();
                    FlightRole::Follower(Some((Arc::clone(body), *ok)))
                }
                FlightState::Aborted => FlightRole::Follower(None),
                FlightState::Pending => unreachable!("wait loop exits only on a final state"),
            };
        }
        let flight = Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        });
        inflight.push((digest, Arc::clone(&flight)));
        FlightRole::Leader(FlightLeader {
            owner: self,
            digest,
            flight,
            published: false,
        })
    }

    /// Digests currently being compiled (test/stats visibility).
    pub fn in_flight(&self) -> usize {
        self.inflight
            .lock()
            .expect("single-flight table poisoned")
            .len()
    }

    fn finish(&self, digest: &[u8; 32], flight: &Flight, state: FlightState) {
        let mut inflight = self.inflight.lock().expect("single-flight table poisoned");
        if let Some(pos) = inflight.iter().position(|(d, _)| d == digest) {
            inflight.swap_remove(pos);
        }
        drop(inflight);
        *flight.state.lock().expect("flight state poisoned") = state;
        flight.cv.notify_all();
    }
}

/// The leader's obligation: publish a result (or abort by dropping).
pub struct FlightLeader<'a> {
    owner: &'a SingleFlight,
    digest: [u8; 32],
    flight: Arc<Flight>,
    published: bool,
}

impl FlightLeader<'_> {
    /// Publishes the compiled `(body, ok)` to every follower and retires
    /// the flight. Call only *after* inserting a cacheable result into
    /// the cache — see the ordering note on [`SingleFlight`].
    pub fn publish(mut self, body: Arc<str>, ok: bool) {
        self.published = true;
        self.owner
            .finish(&self.digest, &self.flight, FlightState::Done(body, ok));
    }
}

impl Drop for FlightLeader<'_> {
    fn drop(&mut self) {
        // Panic safety: a leader that unwinds without publishing must not
        // strand its followers on the condvar forever.
        if !self.published {
            self.owner
                .finish(&self.digest, &self.flight, FlightState::Aborted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    /// The value of the counter or gauge family `name` in `registry`.
    fn read(registry: &Registry, name: &str) -> u64 {
        let snap = registry.snapshot();
        snap.counter(name, &[]).max(snap.gauge(name, &[]))
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        fn hex(digest: [u8; 32]) -> String {
            digest.iter().map(|b| format!("{b:02x}")).collect()
        }
        assert_eq!(
            hex(sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // Two-block message (FIPS 180-4 example B.2).
        assert_eq!(
            hex(sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn canonicalization_normalizes_whitespace() {
        let a = "OPENQASM 2.0;\r\nqreg q[1];  \nh q[0];\t\r\n\n\n";
        let b = "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n";
        assert_eq!(canonicalize_source(a), canonicalize_source(b));
        assert_eq!(canonicalize_source(b), b, "canonical form is a fixpoint");
        // Leading/interior whitespace is significant structure; keep it.
        assert_ne!(canonicalize_source("  h q;"), canonicalize_source("h q;"));
    }

    #[test]
    fn get_miss_then_hit() {
        let registry = Registry::new();
        let cache = CompileCache::new(8, 2, &registry);
        assert!(cache.get("k").is_none());
        cache.insert("k", arc("v"));
        assert_eq!(cache.get("k").as_deref(), Some("v"));
        assert_eq!(read(&registry, "oneqd_cache_memory_hits_total"), 1);
        assert_eq!(read(&registry, "oneqd_cache_memory_misses_total"), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single shard so the eviction order is fully observable.
        let registry = Registry::new();
        let cache = CompileCache::new(2, 1, &registry);
        cache.insert("a", arc("1"));
        cache.insert("b", arc("2"));
        assert_eq!(cache.get("a").as_deref(), Some("1")); // refresh a
        cache.insert("c", arc("3")); // evicts b, the LRU entry
        assert!(cache.get("b").is_none());
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        assert_eq!(cache.get("c").as_deref(), Some("3"));
        assert_eq!(read(&registry, "oneqd_cache_memory_evictions_total"), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let cache = CompileCache::new(2, 1, &Registry::new());
        cache.insert("a", arc("1"));
        cache.insert("b", arc("2"));
        cache.insert("a", arc("1'"));
        assert_eq!(cache.len(), 2);
        cache.insert("c", arc("3")); // b is now the LRU
        assert!(cache.get("b").is_none());
        assert_eq!(cache.get("a").as_deref(), Some("1'"));
    }

    #[test]
    fn striping_spreads_and_counts_globally() {
        let registry = Registry::new();
        let cache = CompileCache::new(64, 8, &registry);
        for i in 0..64 {
            cache.insert(&format!("key-{i}"), arc("v"));
        }
        assert!(cache.len() <= 64);
        assert!(cache.len() > 8, "keys spread over multiple shards");
        for i in 0..64 {
            let _ = cache.get(&format!("key-{i}"));
        }
        let hits = read(&registry, "oneqd_cache_memory_hits_total");
        assert_eq!(
            hits + read(&registry, "oneqd_cache_memory_misses_total"),
            64
        );
        assert_eq!(read(&registry, "oneqd_cache_memory_shards"), 8);
        assert_eq!(read(&registry, "oneqd_cache_memory_capacity"), 64);
    }

    #[test]
    fn single_flight_coalesces_followers_deterministically() {
        let registry = Registry::new();
        let flights = SingleFlight::new(&registry);
        let digest = sha256(b"storm-key");
        let followers = 6usize;

        std::thread::scope(|scope| {
            let FlightRole::Leader(leader) = flights.join(digest) else {
                panic!("first join must lead");
            };
            assert_eq!(flights.in_flight(), 1);
            // Observing the flight's Arc strong count makes coalescing
            // deterministic instead of timing-dependent: one reference in
            // the table, one in the leader guard, one here, plus one per
            // follower that has found the flight. A follower that cloned
            // the Arc is guaranteed to observe the published state (the
            // wait loop re-checks under the same mutex publish takes).
            let flight = Arc::clone(&leader.flight);
            for _ in 0..followers {
                let flights = &flights;
                scope.spawn(move || match flights.join(digest) {
                    FlightRole::Follower(Some((body, ok))) => {
                        assert_eq!(&*body, "result");
                        assert!(ok);
                    }
                    _ => panic!("expected a published follower result"),
                });
            }
            while Arc::strong_count(&flight) < 3 + followers {
                std::thread::yield_now();
            }
            leader.publish(arc("result"), true);
        });
        assert_eq!(flights.in_flight(), 0);
        assert_eq!(
            read(&registry, "oneqd_coalesced_total"),
            followers as u64,
            "every follower was served from the leader's flight"
        );
    }

    #[test]
    fn single_flight_aborted_leader_releases_followers() {
        let registry = Registry::new();
        let flights = SingleFlight::new(&registry);
        let digest = sha256(b"abort-key");
        let FlightRole::Leader(leader) = flights.join(digest) else {
            panic!("first join must lead");
        };
        std::thread::scope(|scope| {
            let follower = scope.spawn(|| flights.join(digest));
            // Give the follower a moment to block, then abort by drop.
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(leader);
            match follower.join().expect("follower thread") {
                FlightRole::Follower(None) => {}
                FlightRole::Follower(Some(_)) => panic!("aborted flight published a result"),
                FlightRole::Leader(_) => panic!("follower joined a live flight"),
            }
        });
        assert_eq!(flights.in_flight(), 0);
        assert_eq!(
            read(&registry, "oneqd_coalesced_total"),
            0,
            "aborts are not coalesced serves"
        );
        // The digest is free again: the next join leads.
        assert!(matches!(flights.join(digest), FlightRole::Leader(_)));
    }

    #[test]
    fn single_flight_distinct_digests_fly_independently() {
        let flights = SingleFlight::new(&Registry::new());
        let a = sha256(b"a");
        let b = sha256(b"b");
        let FlightRole::Leader(la) = flights.join(a) else {
            panic!("lead a");
        };
        let FlightRole::Leader(lb) = flights.join(b) else {
            panic!("lead b");
        };
        assert_eq!(flights.in_flight(), 2);
        la.publish(arc("A"), true);
        assert_eq!(flights.in_flight(), 1);
        lb.publish(arc("B"), false);
        assert_eq!(flights.in_flight(), 0);
    }

    #[test]
    fn tiered_cache_without_disk_is_memory_only() {
        let registry = Registry::new();
        let tier = TieredCache::new(4, 1, None, &registry);
        let digest = sha256(b"k");
        assert!(tier.get_digest(&digest).is_none());
        tier.fill(digest, arc("v"));
        assert!(matches!(tier.get_digest(&digest), Some((_, Tier::Memory))));
        assert!(matches!(tier.peek_digest(&digest), Some((_, Tier::Memory))));
        assert_eq!(read(&registry, "oneqd_cache_fills_total"), 1);
        assert!(tier.disk_stats().is_none());
        tier.flush_disk(); // no-op, must not panic
    }

    #[test]
    fn tiered_cache_serves_and_promotes_disk_hits() {
        use crate::spill::{SpillConfig, SpillTier};
        let dir = std::env::temp_dir().join(format!(
            "oneq-tiered-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Registry::new();
        let spill = SpillTier::open(SpillConfig::new(&dir), &registry).unwrap();
        // Memory capacity 1: the second fill evicts the first from the
        // LRU, leaving it disk-only.
        let tier = TieredCache::new(1, 1, Some(spill), &registry);
        let (a, b) = (sha256(b"a"), sha256(b"b"));
        tier.fill(a, arc("A"));
        tier.fill(b, arc("B"));
        tier.flush_disk();
        assert_eq!(tier.memory_len(), 1);

        let (value, from) = tier.get_digest(&a).expect("disk still holds a");
        assert_eq!((&*value, from), ("A", Tier::Disk));
        // Promotion: the same key now answers from memory.
        let (value, from) = tier.get_digest(&a).expect("promoted");
        assert_eq!((&*value, from), ("A", Tier::Memory));
        // And b, evicted by the promotion, comes back from disk too.
        assert!(matches!(tier.peek_digest(&b), Some((_, Tier::Disk))));

        assert_eq!(read(&registry, "oneqd_cache_fills_total"), 2);
        assert_eq!(read(&registry, "oneqd_spill_appends_total"), 2);
        assert_eq!(read(&registry, "oneqd_spill_hits_total"), 2);
        drop(tier);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let registry = Registry::new();
        let cache = Arc::new(CompileCache::new(128, 8, &registry));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200 {
                        let key = format!("key-{}", (t * 31 + i) % 50);
                        match cache.get(&key) {
                            Some(v) => assert_eq!(&*v, &key, "a hit returns its own value"),
                            None => cache.insert(&key, Arc::from(key.as_str())),
                        }
                    }
                });
            }
        });
        let hits = read(&registry, "oneqd_cache_memory_hits_total");
        assert_eq!(
            hits + read(&registry, "oneqd_cache_memory_misses_total"),
            8 * 200
        );
        assert!(cache.len() <= 50);
    }
}
