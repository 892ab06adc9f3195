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
//! [`TieredCache`] is what the daemon serves through. It stacks the
//! persistent disk tier ([`SpillTier`]) *behind* the LRU, and its one
//! entry point, [`TieredCache::get_or_compile`], runs the whole miss
//! protocol: lookups go memory → disk → compile, a disk hit is promoted
//! into memory, a fill lands in memory at once and on disk write-behind,
//! and concurrent misses on one digest elect one leader that compiles
//! while the followers wait for its bytes, so a thundering herd on a cold
//! key runs exactly one compile instead of N. The outcome of each call is
//! one of the `OUTCOME_*` labels, which `oneqd` sends in its
//! `X-Oneqd-Cache` header.

use crate::spill::{SpillStats, SpillTier};
use oneq_obs::{Counter, Registry};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// `X-Oneqd-Cache` label: served from the in-memory tier.
pub const OUTCOME_MEMORY: &str = "memory";
/// `X-Oneqd-Cache` label: served from the disk spill tier (and promoted
/// into memory).
pub const OUTCOME_DISK: &str = "disk";
/// `X-Oneqd-Cache` label: compiled fresh (and cached on success).
pub const OUTCOME_MISS: &str = "miss";
/// `X-Oneqd-Cache` label: served from a concurrent leader's in-flight
/// compile.
pub const OUTCOME_COALESCED: &str = "coalesced";
/// `X-Oneqd-Cache` label: cache skipped (`timings=1` or `bypass=1`).
pub const OUTCOME_BYPASS: &str = "bypass";

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

/// What a memory-tier lookup counts toward the tier's hit and miss
/// counters.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Count {
    /// A request's one logical lookup: a hit or a miss, and a hit's
    /// recency is refreshed.
    Outcome,
    /// The event loop's probe: a hit counts and is refreshed as above; a
    /// miss counts nothing, since the request goes on to a worker whose
    /// counted lookup records its one outcome.
    Hit,
    /// A single-flight leader's re-check: nothing counts and nothing is
    /// refreshed.
    Nothing,
}

/// One stripe: a digest-keyed LRU of at most `capacity` entries, with the
/// most recently used entry at the back of the vec. Capacities are small
/// (tens of entries per shard), so the O(len) scan-and-rotate is cheaper
/// than pointer-chasing a list.
struct Shard {
    entries: Vec<Entry>,
    capacity: usize,
}

/// The sharded LRU. All methods take `&self`; interior mutability is one
/// mutex per shard.
pub struct CompileCache {
    shards: Box<[Mutex<Shard>]>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl CompileCache {
    /// A cache holding at most `capacity` entries (clamped to ≥ 1), split
    /// exactly over `min(shards, capacity)` mutex stripes: the first
    /// `capacity % stripes` stripes hold one entry more than the others.
    /// Its counters and its shape (capacity, stripes) are registered in
    /// `registry`.
    pub fn new(capacity: usize, shards: usize, registry: &Registry) -> CompileCache {
        let capacity = capacity.max(1);
        let stripes = shards.clamp(1, capacity);
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        let gauge = |name: &str, help: &str, value: usize| {
            registry.gauge(name, help, &[]).set(value as u64);
        };
        gauge(
            "oneqd_cache_memory_capacity",
            "Configured memory-tier capacity.",
            capacity,
        );
        gauge(
            "oneqd_cache_memory_shards",
            "Mutex stripes in the memory tier.",
            stripes,
        );
        let shard = |i: usize| Shard {
            entries: Vec::new(),
            capacity: capacity / stripes + usize::from(i < capacity % stripes),
        };
        CompileCache {
            shards: (0..stripes).map(|i| Mutex::new(shard(i))).collect(),
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
        self.lookup(&sha256(key.as_bytes()), Count::Outcome)
    }

    /// Digest-addressed lookup, counted as `count` says.
    fn lookup(&self, digest: &[u8; 32], count: Count) -> Option<Arc<str>> {
        let mut shard = self.shard_of(digest).lock().expect("cache shard poisoned");
        let pos = shard.entries.iter().position(|e| e.digest == *digest);
        if count == Count::Nothing {
            return pos.map(|pos| Arc::clone(&shard.entries[pos].value));
        }
        let Some(pos) = pos else {
            if count == Count::Outcome {
                self.misses.inc();
            }
            return None;
        };
        let entry = shard.entries.remove(pos);
        let value = Arc::clone(&entry.value);
        shard.entries.push(entry);
        self.hits.inc();
        Some(value)
    }

    /// Inserts (or refreshes) `key → value`, evicting the least recently
    /// used entry of the target shard when it is full.
    pub fn insert(&self, key: &str, value: Arc<str>) {
        self.insert_digest(sha256(key.as_bytes()), value);
    }

    fn insert_digest(&self, digest: [u8; 32], value: Arc<str>) {
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
        if shard.entries.len() > shard.capacity {
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

/// The two-level cache the daemon serves through: the in-memory LRU in
/// front, the persistent [`SpillTier`] (optional — `oneqd --cache-dir`)
/// behind it, and the in-flight table that coalesces concurrent misses.
/// Its one entry point is [`TieredCache::get_or_compile`].
pub struct TieredCache {
    memory: CompileCache,
    disk: Option<SpillTier>,
    fills: Counter,
    flights: SingleFlight,
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
            flights: SingleFlight::new(registry),
        }
    }

    /// Serves `digest`, running `compile` only when no tier holds the
    /// record and no other call is compiling it. Returns the record
    /// bytes, whether the record is ok, the `X-Oneqd-Cache` outcome, and
    /// `compile`'s third value when this call compiled.
    ///
    /// In order:
    /// 1. Look in memory, counting the lookup (the request's one logical
    ///    lookup), then on disk; a disk hit is promoted into memory.
    /// 2. Join the in-flight table. A follower waits for its leader and
    ///    serves the leader's bytes (`coalesced`).
    /// 3. The leader looks again without counting: a previous leader may
    ///    have filled the cache between this call's miss and its
    ///    election. A disk hit here still counts; it is one.
    /// 4. Compile. An ok record is filled (into memory now, onto disk
    ///    write-behind) *before* it is published, so a call that missed
    ///    earlier either finds the flight or, electing itself, finds the
    ///    fill on its second look: one compile per key.
    /// 5. An error record is neither cached nor published, and a panic
    ///    unwinds through the leader: either aborts the flight, and each
    ///    follower compiles its own record. Error bytes are per source:
    ///    two sources can share a digest yet differ in raw bytes (CRLF,
    ///    trailing whitespace), and an error's spans point into them.
    pub fn get_or_compile<T>(
        &self,
        digest: [u8; 32],
        compile: impl FnOnce() -> (Arc<str>, bool, T),
    ) -> (Arc<str>, bool, &'static str, Option<T>) {
        if let Some((body, outcome)) = self.lookup(&digest, Count::Outcome) {
            return (body, true, outcome, None);
        }
        let leader = match self.flights.join(digest) {
            FlightRole::Follower(Some(body)) => return (body, true, OUTCOME_COALESCED, None),
            FlightRole::Follower(None) => None,
            FlightRole::Leader(leader) => {
                if let Some((body, outcome)) = self.lookup(&digest, Count::Nothing) {
                    leader.publish(Arc::clone(&body));
                    return (body, true, outcome, None);
                }
                Some(leader)
            }
        };
        let (body, ok, compiled) = compile();
        if ok {
            self.fills.inc();
            self.memory.insert_digest(digest, Arc::clone(&body));
            if let Some(disk) = &self.disk {
                disk.append(digest, Arc::clone(&body));
            }
            if let Some(leader) = leader {
                leader.publish(Arc::clone(&body));
            }
        }
        // An error record drops `leader` unpublished, aborting the flight.
        (body, ok, OUTCOME_MISS, Some(compiled))
    }

    /// Memory, then disk; a disk hit is promoted into memory. `count`
    /// applies to the memory tier only.
    fn lookup(&self, digest: &[u8; 32], count: Count) -> Option<(Arc<str>, &'static str)> {
        if let Some(value) = self.memory.lookup(digest, count) {
            return Some((value, OUTCOME_MEMORY));
        }
        let value = self.disk.as_ref()?.get(digest)?;
        self.memory.insert_digest(*digest, Arc::clone(&value));
        Some((value, OUTCOME_DISK))
    }

    /// Looks in the memory tier alone, for a caller that must not block
    /// (`oneqd`'s event loop): no disk read, no in-flight table, no
    /// compile. A hit counts and is refreshed like any request's lookup.
    /// A miss counts nothing: the request then goes through
    /// [`TieredCache::get_or_compile`], whose counted lookup records its
    /// one memory-tier outcome.
    pub fn probe_memory(&self, digest: &[u8; 32]) -> Option<Arc<str>> {
        self.memory.lookup(digest, Count::Hit)
    }

    /// Entries resident in the in-memory tier.
    pub fn memory_len(&self) -> usize {
        self.memory.len()
    }

    /// The disk tier's occupancy; `None` when running memory-only.
    pub fn disk_stats(&self) -> Option<SpillStats> {
        self.disk.as_ref().map(SpillTier::stats)
    }
}

/// What [`SingleFlight::join`] hands back for a digest.
enum FlightRole<'a> {
    /// This call compiles. Dropping the guard without publishing aborts
    /// the flight.
    Leader(FlightLeader<'a>),
    /// Another call was already compiling this digest. `Some` carries the
    /// bytes it published; `None` means it aborted, and this call
    /// compiles for itself.
    Follower(Option<Arc<str>>),
}

enum FlightState {
    Pending,
    Done(Arc<str>),
    Aborted,
}

struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

/// The in-flight table of a [`TieredCache`]: concurrent misses on one
/// digest elect a single leader, and followers block until it publishes
/// or aborts. The table holds only digests being compiled, so it stays
/// tiny (bounded by the compile budget) and one mutex suffices.
struct SingleFlight {
    inflight: Mutex<Vec<([u8; 32], Arc<Flight>)>>,
    coalesced: Counter,
}

impl SingleFlight {
    fn new(registry: &Registry) -> SingleFlight {
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
    fn join(&self, digest: [u8; 32]) -> FlightRole<'_> {
        let mut inflight = self.inflight.lock().expect("single-flight table poisoned");
        if let Some((_, flight)) = inflight.iter().find(|(d, _)| *d == digest) {
            let flight = Arc::clone(flight);
            drop(inflight);
            let mut state = flight.state.lock().expect("flight state poisoned");
            while matches!(*state, FlightState::Pending) {
                state = flight.cv.wait(state).expect("flight state poisoned");
            }
            return match &*state {
                FlightState::Done(body) => {
                    self.coalesced.inc();
                    FlightRole::Follower(Some(Arc::clone(body)))
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
            published: None,
        })
    }

    /// Digests currently being compiled.
    #[cfg(test)]
    fn in_flight(&self) -> usize {
        self.inflight
            .lock()
            .expect("single-flight table poisoned")
            .len()
    }
}

/// A leader's hold on its flight. Dropping it retires the flight: with
/// the published bytes, or as an abort when nothing was published (an
/// error record, or a compile that unwound).
struct FlightLeader<'a> {
    owner: &'a SingleFlight,
    digest: [u8; 32],
    flight: Arc<Flight>,
    published: Option<Arc<str>>,
}

impl FlightLeader<'_> {
    /// Hands `body` to every follower and retires the flight.
    fn publish(mut self, body: Arc<str>) {
        self.published = Some(body);
    }
}

impl Drop for FlightLeader<'_> {
    fn drop(&mut self) {
        // This runs while a panicking compile unwinds, so it must not
        // panic itself; every update of both mutexes is a single step
        // that leaves them valid, so a poisoned guard is safe to reuse.
        let mut inflight = self
            .owner
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = inflight.iter().position(|(d, _)| *d == self.digest) {
            inflight.swap_remove(pos);
        }
        drop(inflight);
        let state = match self.published.take() {
            Some(body) => FlightState::Done(body),
            None => FlightState::Aborted,
        };
        *self
            .flight
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = state;
        self.flight.cv.notify_all();
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
    fn memory_tier_holds_exactly_its_capacity() {
        // 5 entries over 8 requested stripes: 5 stripes of one entry each,
        // not 8 stripes rounded up to one.
        let registry = Registry::new();
        let cache = CompileCache::new(5, 8, &registry);
        for i in 0..100 {
            cache.insert(&format!("key-{i}"), arc("v"));
        }
        assert!(cache.len() <= 5, "{} entries resident", cache.len());
        assert_eq!(read(&registry, "oneqd_cache_memory_capacity"), 5);
        assert_eq!(read(&registry, "oneqd_cache_memory_shards"), 5);
        // An uneven split still sums to the capacity.
        let cache = CompileCache::new(10, 8, &Registry::new());
        for i in 0..100 {
            cache.insert(&format!("key-{i}"), arc("v"));
        }
        assert!(cache.len() <= 10, "{} entries resident", cache.len());
    }

    /// Spins until the flight for `digest` is shared by `holders` Arcs:
    /// the table's, the leader's, and one per follower waiting on it.
    fn await_holders(cache: &TieredCache, digest: &[u8; 32], holders: usize) {
        loop {
            let inflight = cache.flights.inflight.lock().unwrap();
            let flight = inflight.iter().find(|(d, _)| d == digest);
            if flight.is_some_and(|(_, f)| Arc::strong_count(f) == holders) {
                return;
            }
            drop(inflight);
            std::thread::yield_now();
        }
    }

    #[test]
    fn single_flight_coalesces_followers_deterministically() {
        let registry = Registry::new();
        let cache = TieredCache::new(8, 1, None, &registry);
        let digest = sha256(b"storm-key");
        let threads = 7usize;
        let compiles = Mutex::new(0usize);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let (body, ok, outcome, compiled) = cache.get_or_compile(digest, || {
                        *compiles.lock().unwrap() += 1;
                        // The leader publishes only once every other
                        // thread follows it, so coalescing does not
                        // depend on timing.
                        await_holders(&cache, &digest, 2 + threads - 1);
                        (arc("result"), true, ())
                    });
                    assert_eq!((&*body, ok), ("result", true));
                    assert_eq!(compiled.is_some(), outcome == OUTCOME_MISS);
                });
            }
        });
        assert_eq!(*compiles.lock().unwrap(), 1, "one compile per key");
        assert_eq!(cache.flights.in_flight(), 0);
        assert_eq!(read(&registry, "oneqd_coalesced_total"), threads as u64 - 1);
        assert_eq!(
            read(&registry, "oneqd_cache_memory_misses_total"),
            threads as u64
        );
        assert_eq!(read(&registry, "oneqd_cache_fills_total"), 1);
        let (body, _, outcome, compiled) = cache
            .get_or_compile(digest, || -> (Arc<str>, bool, ()) {
                unreachable!("the storm filled the cache")
            });
        assert_eq!((&*body, outcome), ("result", OUTCOME_MEMORY));
        assert!(compiled.is_none());
    }

    #[test]
    fn single_flight_error_records_are_neither_cached_nor_shared() {
        let registry = Registry::new();
        let cache = TieredCache::new(8, 1, None, &registry);
        let digest = sha256(b"error-key");
        let threads = 4usize;
        let compiles = Mutex::new(0usize);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (cache, compiles) = (&cache, &compiles);
                scope.spawn(move || {
                    let own = format!("error {t}");
                    let (body, ok, outcome, compiled) = cache.get_or_compile(digest, || {
                        let first = {
                            let mut compiles = compiles.lock().unwrap();
                            *compiles += 1;
                            *compiles == 1
                        };
                        if first {
                            await_holders(cache, &digest, 2 + threads - 1);
                        }
                        (Arc::from(own.as_str()), false, t)
                    });
                    assert_eq!((&*body, ok, outcome), (own.as_str(), false, OUTCOME_MISS));
                    assert_eq!(compiled, Some(t), "each thread compiled its own record");
                });
            }
        });
        assert_eq!(*compiles.lock().unwrap(), threads);
        assert_eq!(cache.flights.in_flight(), 0);
        assert!(cache.memory.is_empty(), "error records are not cached");
        assert_eq!(read(&registry, "oneqd_cache_fills_total"), 0);
        assert_eq!(read(&registry, "oneqd_coalesced_total"), 0);
    }

    #[test]
    fn single_flight_aborted_leader_releases_followers() {
        let registry = Registry::new();
        let cache = TieredCache::new(8, 1, None, &registry);
        let digest = sha256(b"abort-key");
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                cache.get_or_compile(digest, || -> (Arc<str>, bool, ()) {
                    await_holders(&cache, &digest, 3);
                    panic!("compile panicked");
                })
            });
            // The follower joins the leader's flight, which then aborts;
            // it compiles its own record.
            await_holders(&cache, &digest, 2);
            let (body, ok, outcome, _) =
                cache.get_or_compile(digest, || (arc("follower"), true, ()));
            assert_eq!((&*body, ok, outcome), ("follower", true, OUTCOME_MISS));
            assert!(leader.join().is_err(), "the leader's panic propagates");
        });
        assert_eq!(cache.flights.in_flight(), 0);
        assert_eq!(
            read(&registry, "oneqd_coalesced_total"),
            0,
            "aborts are not coalesced serves"
        );

        // A lone leader that panics frees its digest: the next call leads.
        let digest = sha256(b"lone-key");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compile(digest, || -> (Arc<str>, bool, ()) { panic!("boom") })
        }));
        assert!(panicked.is_err());
        assert_eq!(cache.flights.in_flight(), 0);
        let (body, _, outcome, compiled) =
            cache.get_or_compile(digest, || (arc("again"), true, ()));
        assert_eq!(
            (&*body, outcome, compiled),
            ("again", OUTCOME_MISS, Some(()))
        );
    }

    #[test]
    fn single_flight_distinct_digests_fly_independently() {
        let registry = Registry::new();
        let cache = TieredCache::new(8, 1, None, &registry);
        // Both leaders compile at once: neither waits on the other's
        // digest.
        let both_compiling = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for key in ["a", "b"] {
                let (cache, both_compiling) = (&cache, &both_compiling);
                scope.spawn(move || {
                    let (body, _, outcome, _) =
                        cache.get_or_compile(sha256(key.as_bytes()), || {
                            both_compiling.wait();
                            assert_eq!(cache.flights.in_flight(), 2);
                            both_compiling.wait();
                            (Arc::from(key), true, ())
                        });
                    assert_eq!((&*body, outcome), (key, OUTCOME_MISS));
                });
            }
        });
        assert_eq!(cache.flights.in_flight(), 0);
        assert_eq!(read(&registry, "oneqd_coalesced_total"), 0);
        assert_eq!(read(&registry, "oneqd_cache_fills_total"), 2);
    }

    #[test]
    fn tiered_cache_without_disk_is_memory_only() {
        let registry = Registry::new();
        let tier = TieredCache::new(4, 1, None, &registry);
        let digest = sha256(b"k");
        let (_, _, outcome, compiled) = tier.get_or_compile(digest, || (arc("v"), true, 7));
        assert_eq!((outcome, compiled), (OUTCOME_MISS, Some(7)));
        let (body, _, outcome, compiled) = tier.get_or_compile(digest, || unreachable!());
        assert_eq!(
            (&*body, outcome, compiled),
            ("v", OUTCOME_MEMORY, None::<()>)
        );
        assert_eq!(read(&registry, "oneqd_cache_fills_total"), 1);
        assert!(tier.disk_stats().is_none());
    }

    #[test]
    fn a_memory_probe_counts_and_refreshes_hits_and_leaves_misses_uncounted() {
        let registry = Registry::new();
        let tier = TieredCache::new(2, 1, None, &registry);
        let (a, b, c) = (sha256(b"a"), sha256(b"b"), sha256(b"c"));
        let outcomes = || {
            (
                read(&registry, "oneqd_cache_memory_hits_total"),
                read(&registry, "oneqd_cache_memory_misses_total"),
            )
        };
        // A probe miss counts nothing; the request's counted lookup in
        // `get_or_compile` then counts its one miss.
        assert!(tier.probe_memory(&a).is_none());
        assert_eq!(outcomes(), (0, 0));
        let (_, _, outcome, _) = tier.get_or_compile(a, || (arc("A"), true, ()));
        assert_eq!((outcome, outcomes()), (OUTCOME_MISS, (0, 1)));
        tier.get_or_compile(b, || (arc("B"), true, ()));
        // A probe hit counts and refreshes recency: `b`, not `a`, is
        // evicted by the next fill.
        assert_eq!(tier.probe_memory(&a).as_deref(), Some("A"));
        assert_eq!(outcomes(), (1, 2));
        tier.get_or_compile(c, || (arc("C"), true, ()));
        assert!(tier.probe_memory(&b).is_none());
        assert_eq!(tier.probe_memory(&a).as_deref(), Some("A"));
        assert_eq!(outcomes(), (2, 3));
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
        let serve = |digest: [u8; 32]| {
            let (body, _, outcome, _) = tier.get_or_compile(digest, || -> (Arc<str>, bool, ()) {
                unreachable!("a disk or memory hit")
            });
            (body.to_string(), outcome)
        };
        tier.get_or_compile(a, || (arc("A"), true, ()));
        tier.get_or_compile(b, || (arc("B"), true, ()));
        tier.disk.as_ref().unwrap().flush();
        assert_eq!(tier.memory_len(), 1);

        assert_eq!(serve(a), ("A".to_string(), OUTCOME_DISK));
        // Promotion: the same key now answers from memory.
        assert_eq!(serve(a), ("A".to_string(), OUTCOME_MEMORY));
        // And b, evicted by the promotion, comes back from disk too.
        assert_eq!(serve(b), ("B".to_string(), OUTCOME_DISK));

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
