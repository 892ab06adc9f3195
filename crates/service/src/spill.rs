//! The disk spill tier: a persistent, crash-tolerant second cache level
//! behind the in-memory LRU.
//!
//! A [`SpillTier`] owns one directory of append-only [`segment`] files
//! plus an in-memory index mapping fingerprint digests to record
//! positions. Fills are **write-behind**: [`SpillTier::append`] enqueues
//! the record to a background writer thread and returns immediately, so
//! the compile path never waits on disk. Lookups ([`SpillTier::get`])
//! read through per-segment handles and re-verify the CRC and digest on
//! every read — a record that fails verification is dropped from the
//! index, never served.
//!
//! Startup ([`SpillTier::open`]) takes an exclusive `flock(2)` on the
//! directory's `LOCK` file (so two daemons cannot interleave appends into
//! one segment set), scans every segment tolerating torn tails, rebuilds
//! the index last-wins, and — when the dead-byte ratio exceeds the
//! configured threshold — compacts the live records into fresh segments.
//! Capacity is enforced in whole segments: when the directory exceeds its
//! byte budget, the oldest sealed segment is deleted outright (its
//! entries were the least recently written, and re-filling a dropped
//! entry costs one compile).
//!
//! The byte-level file format is specified in `docs/CACHE_FORMAT.md`;
//! [`segment`] is its reference implementation.
//!
//! [`segment`]: crate::segment
//!
//! # Example
//!
//! ```
//! use oneq_obs::Registry;
//! use oneq_service::cache::sha256;
//! use oneq_service::spill::{SpillConfig, SpillTier};
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join(format!("oneq-spill-doc-{}", std::process::id()));
//! let digest = sha256(b"some fingerprint");
//! {
//!     let tier = SpillTier::open(SpillConfig::new(&dir), &Registry::new()).unwrap();
//!     tier.append(digest, Arc::from("{\"status\": \"ok\"}\n"));
//!     tier.flush(); // write-behind: force the record out for the assert
//!     assert_eq!(tier.get(&digest).as_deref(), Some("{\"status\": \"ok\"}\n"));
//! } // drop releases the directory lock
//! // A new tier over the same directory recovers the record from disk.
//! let tier = SpillTier::open(SpillConfig::new(&dir), &Registry::new()).unwrap();
//! assert_eq!(tier.get(&digest).as_deref(), Some("{\"status\": \"ok\"}\n"));
//! drop(tier);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::segment::{self, ScannedRecord, SegmentWriter, SUPERBLOCK_LEN};
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use oneq_obs::{Counter, Histogram, Registry};

/// Advisory whole-file locking via `flock(2)`. This is one of the
/// crate's three `unsafe` carve-outs (with `poll::poll` and
/// `signal.rs`'s `install` — see the crate manifest), confined to
/// `try_lock_exclusive`:
/// std exposes no file-locking API, and a `create_new` lockfile would go
/// stale after SIGKILL, exactly the crash the spill tier must restart
/// from. A kernel flock is released automatically when the process dies,
/// whatever way it dies.
mod flock {
    use std::fs::File;
    use std::io;

    #[cfg(unix)]
    #[allow(unsafe_code)]
    pub fn try_lock_exclusive(file: &File) -> io::Result<()> {
        use std::os::unix::io::AsRawFd as _;

        const LOCK_EX: i32 = 2;
        const LOCK_NB: i32 = 4;

        extern "C" {
            /// `int flock(int fd, int operation)` from libc (already
            /// linked by std on every Unix target).
            fn flock(fd: i32, operation: i32) -> i32;
        }

        // SAFETY: `flock` is the documented libc entry point; the fd is
        // live for the duration of the call (we hold `&File`), and the
        // operation flags are the portable LOCK_EX|LOCK_NB pair.
        let rc = unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    #[cfg(not(unix))]
    pub fn try_lock_exclusive(_file: &File) -> io::Result<()> {
        // No advisory locking off Unix; single-process operation is the
        // caller's responsibility there.
        Ok(())
    }
}

/// Tunables for a [`SpillTier`].
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory holding the segment files and the `LOCK` file; created
    /// if missing.
    pub dir: PathBuf,
    /// Byte budget for the whole directory; enforced in whole segments
    /// (the oldest sealed segment is deleted when the budget is
    /// exceeded).
    pub max_bytes: u64,
    /// Target size of one segment file; the active segment rotates when
    /// the next record would push it past this.
    pub segment_bytes: u64,
    /// Startup compaction threshold: when
    /// `dead_bytes / (live_bytes + dead_bytes)` exceeds this, the live
    /// records are rewritten into fresh segments.
    pub compact_ratio: f64,
}

impl SpillConfig {
    /// Defaults: 256 MiB budget, 4 MiB segments, compaction past 50 %
    /// garbage.
    pub fn new(dir: impl Into<PathBuf>) -> SpillConfig {
        SpillConfig {
            dir: dir.into(),
            max_bytes: 256 * 1024 * 1024,
            segment_bytes: 4 * 1024 * 1024,
            compact_ratio: 0.5,
        }
    }
}

/// A point-in-time read of the spill tier's occupancy. Its counters live
/// only in the registry it was opened with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillStats {
    /// Records currently indexed (addressable digests).
    pub entries: usize,
    /// Segment files on disk.
    pub segments: usize,
    /// Bytes of indexed (servable) records.
    pub live_bytes: u64,
    /// Bytes of superseded, dropped, or torn data awaiting compaction or
    /// eviction.
    pub dead_bytes: u64,
}

/// Where one record lives: segment id + header offset + body length.
#[derive(Debug, Clone, Copy)]
struct Slot {
    seg: u64,
    offset: u64,
    body_len: u32,
}

/// One segment's read handle and byte accounting.
struct SegmentInfo {
    path: PathBuf,
    file: Arc<Mutex<File>>,
    /// Bytes of records the index currently points into this segment.
    live: u64,
    /// File length on disk (superblock + records + any torn tail).
    total: u64,
}

#[derive(Default)]
struct State {
    index: HashMap<[u8; 32], Slot>,
    segments: BTreeMap<u64, SegmentInfo>,
}

struct Inner {
    config: SpillConfig,
    state: Mutex<State>,
    hits: Counter,
    appends: Counter,
    evicted_segments: Counter,
    compactions: Counter,
    crc_dropped: Counter,
    recovered_records: Counter,
    truncated_tails: Counter,
    /// Write-behind lag observer: records enqueue → write delay per append.
    /// Set once by the daemon after open; absent in library/test use.
    lag: OnceLock<Histogram>,
}

enum Msg {
    /// A record to persist, stamped with its enqueue time so the writer
    /// can measure how far behind the serving path it is running.
    Append([u8; 32], Arc<str>, Instant),
    Flush(Sender<()>),
}

/// The writer thread's mutable half: the segment currently accepting
/// appends.
struct ActiveSeg {
    id: u64,
    writer: SegmentWriter,
}

/// The persistent disk tier. See the [module docs](self) for the design;
/// the on-disk format is specified in `docs/CACHE_FORMAT.md`.
pub struct SpillTier {
    inner: Arc<Inner>,
    tx: Option<Sender<Msg>>,
    writer: Option<std::thread::JoinHandle<()>>,
    /// Held (flocked) for the tier's lifetime; the kernel releases it
    /// when the process exits, however it exits.
    _lock: File,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.log"))
}

fn segment_id(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

impl SpillTier {
    /// Opens (or creates) the spill directory: locks it, scans and
    /// recovers every segment, compacts if past the garbage threshold,
    /// and starts the background writer. Its counters and its byte
    /// budget are registered in `registry`.
    ///
    /// Fails if the directory cannot be created or read, or if another
    /// live process holds its `LOCK`.
    pub fn open(config: SpillConfig, registry: &Registry) -> io::Result<SpillTier> {
        std::fs::create_dir_all(&config.dir)?;
        let lock = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(config.dir.join("LOCK"))?;
        flock::try_lock_exclusive(&lock).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!(
                    "spill directory {} is locked by another process: {e}",
                    config.dir.display()
                ),
            )
        })?;

        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        registry
            .gauge(
                "oneqd_spill_capacity_bytes",
                "Configured spill byte budget.",
                &[],
            )
            .set(config.max_bytes);
        let inner = Arc::new(Inner {
            config,
            state: Mutex::new(State::default()),
            hits: counter("oneqd_spill_hits_total", "Disk-tier cache hits."),
            appends: counter(
                "oneqd_spill_appends_total",
                "Records appended to the spill log.",
            ),
            evicted_segments: counter(
                "oneqd_spill_evicted_segments_total",
                "Whole segments dropped to stay under budget.",
            ),
            compactions: counter(
                "oneqd_spill_compactions_total",
                "Compaction passes over the spill log.",
            ),
            crc_dropped: counter(
                "oneqd_spill_crc_dropped_total",
                "Records dropped for CRC mismatch at recovery.",
            ),
            recovered_records: counter(
                "oneqd_spill_recovered_records_total",
                "Records recovered from disk at startup.",
            ),
            truncated_tails: counter(
                "oneqd_spill_truncated_tails_total",
                "Torn segment tails truncated at recovery.",
            ),
            lag: OnceLock::new(),
        });
        let active = recover(&inner)?;

        let (tx, rx) = std::sync::mpsc::channel::<Msg>();
        let writer_inner = Arc::clone(&inner);
        let writer = std::thread::Builder::new()
            .name("oneqd-spill-writer".to_string())
            .spawn(move || writer_loop(&writer_inner, &rx, active))?;

        Ok(SpillTier {
            inner,
            tx: Some(tx),
            writer: Some(writer),
            _lock: lock,
        })
    }

    /// Looks up `digest` on disk. A hit re-verifies the record's CRC and
    /// digest before returning the body; an entry that fails
    /// verification is dropped from the index and reported as a miss.
    pub fn get(&self, digest: &[u8; 32]) -> Option<Arc<str>> {
        let (slot, file) = {
            let state = self.inner.state.lock().expect("spill state poisoned");
            let slot = *state.index.get(digest)?;
            let file = Arc::clone(&state.segments.get(&slot.seg)?.file);
            (slot, file)
        };
        let body = segment::read_record(&file, slot.offset, slot.body_len, digest)
            .ok()
            .and_then(|bytes| String::from_utf8(bytes).ok());
        match body {
            Some(body) => {
                self.inner.hits.inc();
                Some(Arc::from(body.as_str()))
            }
            None => {
                // The bytes rotted under the index: drop the entry so the
                // next lookup falls through to a fresh compile.
                let mut state = self.inner.state.lock().expect("spill state poisoned");
                if state.index.remove(digest).is_some() {
                    if let Some(seg) = state.segments.get_mut(&slot.seg) {
                        seg.live = seg
                            .live
                            .saturating_sub(segment::record_size(slot.body_len as usize));
                    }
                    self.inner.crc_dropped.inc();
                }
                None
            }
        }
    }

    /// Enqueues `digest → body` for the background writer (write-behind:
    /// returns immediately). Digests already on disk are skipped, so
    /// re-fills after a memory-tier eviction do not grow the log.
    pub fn append(&self, digest: [u8; 32], body: Arc<str>) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(Msg::Append(digest, body, Instant::now()));
        }
    }

    /// Installs the histogram that receives one observation per append:
    /// the nanoseconds between [`SpillTier::append`] and the moment the
    /// writer thread picks the record up. A second call is ignored.
    pub fn set_lag_observer(&self, histogram: Histogram) {
        let _ = self.inner.lag.set(histogram);
    }

    /// Blocks until every append enqueued before this call has been
    /// written out. Tests and shutdown use this; the serving path never
    /// does.
    pub fn flush(&self) {
        if let Some(tx) = &self.tx {
            let (ack_tx, ack_rx) = std::sync::mpsc::channel();
            if tx.send(Msg::Flush(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
    }

    /// Occupancy snapshot.
    pub fn stats(&self) -> SpillStats {
        let state = self.inner.state.lock().expect("spill state poisoned");
        let live_bytes: u64 = state.segments.values().map(|s| s.live).sum();
        let total_bytes: u64 = state
            .segments
            .values()
            .map(|s| s.total.saturating_sub(SUPERBLOCK_LEN))
            .sum();
        SpillStats {
            entries: state.index.len(),
            segments: state.segments.len(),
            live_bytes,
            dead_bytes: total_bytes.saturating_sub(live_bytes),
        }
    }
}

impl Drop for SpillTier {
    fn drop(&mut self) {
        // Closing the channel ends the writer loop after it drains every
        // queued append; joining makes drop a durability barrier.
        drop(self.tx.take());
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// The background writer: drains the append queue one record at a time.
/// Each record reaches the file in a single `write(2)` (see
/// [`SegmentWriter::append`]), so there is never a buffered record a
/// crash could halve — only a torn tail the next startup drops.
fn writer_loop(inner: &Inner, rx: &Receiver<Msg>, mut active: ActiveSeg) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Append(digest, body, enqueued) => {
                if let Some(lag) = inner.lag.get() {
                    lag.record_duration(enqueued.elapsed());
                }
                // An append that fails (disk full, dir deleted) loses one
                // cache record, not the daemon: the entry simply stays
                // memory-only.
                let _ = append_one(inner, &mut active, &digest, body.as_bytes());
            }
            Msg::Flush(ack) => {
                // Every Append sent before this Flush has already been
                // handled (the channel is FIFO); the ack is the barrier.
                let _ = ack.send(());
            }
        }
    }
}

fn append_one(
    inner: &Inner,
    active: &mut ActiveSeg,
    digest: &[u8; 32],
    body: &[u8],
) -> io::Result<()> {
    let size = segment::record_size(body.len());
    {
        let state = inner.state.lock().expect("spill state poisoned");
        if state.index.contains_key(digest) {
            return Ok(()); // already on disk; don't grow the log
        }
    }
    if !active.writer.is_empty() && active.writer.len() + size > inner.config.segment_bytes {
        rotate(inner, active)?;
    }
    let offset = active.writer.append(digest, body)?;
    let mut state = inner.state.lock().expect("spill state poisoned");
    if let Some(seg) = state.segments.get_mut(&active.id) {
        seg.live += size;
        seg.total = active.writer.len();
    }
    if let Some(old) = state.index.insert(
        *digest,
        Slot {
            seg: active.id,
            offset,
            body_len: body.len() as u32,
        },
    ) {
        // Possible only if a reader raced a crc-drop of the same digest;
        // the superseded record becomes dead bytes.
        if let Some(seg) = state.segments.get_mut(&old.seg) {
            seg.live = seg
                .live
                .saturating_sub(segment::record_size(old.body_len as usize));
        }
    }
    inner.appends.inc();
    evict_over_budget(&mut state, inner, active.id);
    Ok(())
}

/// Seals the active segment and opens the next one.
fn rotate(inner: &Inner, active: &mut ActiveSeg) -> io::Result<()> {
    let next = active.id + 1;
    let path = segment_path(&inner.config.dir, next);
    let writer = SegmentWriter::create(&path)?;
    let file = Arc::new(Mutex::new(File::open(&path)?));
    let mut state = inner.state.lock().expect("spill state poisoned");
    state.segments.insert(
        next,
        SegmentInfo {
            path,
            file,
            live: 0,
            total: SUPERBLOCK_LEN,
        },
    );
    active.id = next;
    active.writer = writer;
    Ok(())
}

/// Deletes oldest sealed segments until the directory fits its budget.
/// The active segment is never evicted, so a budget smaller than one
/// segment degrades to "one segment" rather than thrashing.
fn evict_over_budget(state: &mut State, inner: &Inner, active_id: u64) {
    loop {
        let total: u64 = state.segments.values().map(|s| s.total).sum();
        if total <= inner.config.max_bytes {
            return;
        }
        let Some((&oldest, _)) = state.segments.iter().next() else {
            return;
        };
        if oldest == active_id {
            return;
        }
        if let Some(seg) = state.segments.remove(&oldest) {
            let _ = std::fs::remove_file(&seg.path);
        }
        state.index.retain(|_, slot| slot.seg != oldest);
        inner.evicted_segments.inc();
    }
}

/// One scanned-but-not-yet-indexed segment during recovery.
struct LoadedSegment {
    id: u64,
    path: PathBuf,
    records: Vec<ScannedRecord>,
    valid_len: u64,
    file_len: u64,
}

/// Startup: scan, index (last-wins), maybe compact, pick or create the
/// active segment, enforce the byte budget. Returns the writer's half.
fn recover(inner: &Inner) -> io::Result<ActiveSeg> {
    let config = &inner.config;
    let mut ids: Vec<u64> = std::fs::read_dir(&config.dir)?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| segment_id(&entry.file_name().to_string_lossy()))
        .collect();
    ids.sort_unstable();

    let mut loaded = Vec::with_capacity(ids.len());
    for id in ids {
        let path = segment_path(&config.dir, id);
        match segment::scan(&path) {
            Ok(outcome) => {
                if outcome.truncated {
                    inner.truncated_tails.inc();
                }
                inner.recovered_records.add(outcome.records.len() as u64);
                loaded.push(LoadedSegment {
                    id,
                    path,
                    records: outcome.records,
                    valid_len: outcome.valid_len,
                    file_len: outcome.file_len,
                });
            }
            Err(_) => {
                // Not a (readable) segment of this version: it can never
                // be served from, so reclaim the space. The cache can
                // always re-fill.
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    // Last-wins index build with per-segment live-byte accounting.
    let mut index: HashMap<[u8; 32], Slot> = HashMap::new();
    let mut live: HashMap<u64, u64> = HashMap::new();
    for seg in &loaded {
        for record in &seg.records {
            let size = segment::record_size(record.body_len as usize);
            if let Some(old) = index.insert(
                record.digest,
                Slot {
                    seg: seg.id,
                    offset: record.offset,
                    body_len: record.body_len,
                },
            ) {
                if let Some(old_live) = live.get_mut(&old.seg) {
                    *old_live =
                        old_live.saturating_sub(segment::record_size(old.body_len as usize));
                }
            }
            *live.entry(seg.id).or_insert(0) += size;
        }
    }

    let live_total: u64 = live.values().sum();
    let dead_total: u64 = loaded
        .iter()
        .map(|seg| {
            (seg.file_len - SUPERBLOCK_LEN).saturating_sub(live.get(&seg.id).copied().unwrap_or(0))
        })
        .sum();
    let garbage = live_total + dead_total;
    if dead_total > 0 && (dead_total as f64) > config.compact_ratio * garbage as f64 {
        let (new_loaded, new_index, new_live) = compact(config, &loaded, &index)?;
        inner.compactions.inc();
        loaded = new_loaded;
        index = new_index;
        live = new_live;
    }

    // Materialize read handles and accounting.
    let mut segments = BTreeMap::new();
    for seg in &loaded {
        segments.insert(
            seg.id,
            SegmentInfo {
                path: seg.path.clone(),
                file: Arc::new(Mutex::new(File::open(&seg.path)?)),
                live: live.get(&seg.id).copied().unwrap_or(0),
                total: seg.file_len,
            },
        );
    }

    // The active segment: reuse the newest one if it still has room —
    // `open_for_append` physically drops any torn tail first — else (or
    // when the directory is empty) start a fresh one.
    let active = match loaded.last() {
        Some(seg) if seg.valid_len < config.segment_bytes => {
            let writer = SegmentWriter::open_for_append(&seg.path, seg.valid_len)?;
            if let Some(info) = segments.get_mut(&seg.id) {
                info.total = seg.valid_len;
            }
            ActiveSeg { id: seg.id, writer }
        }
        other => {
            let id = other.map_or(0, |seg| seg.id + 1);
            let path = segment_path(&config.dir, id);
            let writer = SegmentWriter::create(&path)?;
            segments.insert(
                id,
                SegmentInfo {
                    path: path.clone(),
                    file: Arc::new(Mutex::new(File::open(&path)?)),
                    live: 0,
                    total: SUPERBLOCK_LEN,
                },
            );
            ActiveSeg { id, writer }
        }
    };

    let mut state = inner.state.lock().expect("spill state poisoned");
    state.index = index;
    state.segments = segments;
    // A budget lowered across a restart is enforced immediately.
    evict_over_budget(&mut state, inner, active.id);
    Ok(active)
}

/// Rewrites every live record into fresh segments (ids continuing past
/// the old set) and deletes the old files. Crash-safe by construction:
/// if the process dies mid-compaction, both copies of a record exist and
/// the next startup's last-wins scan prefers the new one (higher segment
/// id), counting the old as dead again.
#[allow(clippy::type_complexity)]
fn compact(
    config: &SpillConfig,
    loaded: &[LoadedSegment],
    index: &HashMap<[u8; 32], Slot>,
) -> io::Result<(
    Vec<LoadedSegment>,
    HashMap<[u8; 32], Slot>,
    HashMap<u64, u64>,
)> {
    // Copy in log order so relative write order (and thus eviction
    // order) is preserved.
    let mut slots: Vec<([u8; 32], Slot)> = index.iter().map(|(d, s)| (*d, *s)).collect();
    slots.sort_unstable_by_key(|(_, slot)| (slot.seg, slot.offset));

    let mut readers: HashMap<u64, Mutex<File>> = HashMap::new();
    for seg in loaded {
        readers.insert(seg.id, Mutex::new(File::open(&seg.path)?));
    }

    let mut next_id = loaded.last().map_or(0, |seg| seg.id + 1);
    let mut new_loaded: Vec<LoadedSegment> = Vec::new();
    let mut new_index: HashMap<[u8; 32], Slot> = HashMap::new();
    let mut new_live: HashMap<u64, u64> = HashMap::new();
    let mut writer: Option<(u64, SegmentWriter)> = None;

    for (digest, slot) in slots {
        let Some(reader) = readers.get(&slot.seg) else {
            continue;
        };
        // A record that fails verification now is simply not carried
        // over — same policy as a read-time drop.
        let Ok(body) = segment::read_record(reader, slot.offset, slot.body_len, &digest) else {
            continue;
        };
        let size = segment::record_size(body.len());
        let needs_new = match &writer {
            None => true,
            Some((_, w)) => !w.is_empty() && w.len() + size > config.segment_bytes,
        };
        if needs_new {
            if let Some((id, w)) = writer.take() {
                new_loaded.push(LoadedSegment {
                    id,
                    path: segment_path(&config.dir, id),
                    records: Vec::new(),
                    valid_len: w.len(),
                    file_len: w.len(),
                });
            }
            let id = next_id;
            next_id += 1;
            writer = Some((id, SegmentWriter::create(&segment_path(&config.dir, id))?));
        }
        let (id, w) = writer.as_mut().expect("writer was just ensured");
        let offset = w.append(&digest, &body)?;
        new_index.insert(
            digest,
            Slot {
                seg: *id,
                offset,
                body_len: body.len() as u32,
            },
        );
        *new_live.entry(*id).or_insert(0) += size;
    }
    if let Some((id, w)) = writer.take() {
        new_loaded.push(LoadedSegment {
            id,
            path: segment_path(&config.dir, id),
            records: Vec::new(),
            valid_len: w.len(),
            file_len: w.len(),
        });
    }

    for seg in loaded {
        let _ = std::fs::remove_file(&seg.path);
    }
    Ok((new_loaded, new_index, new_live))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::sha256;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oneq-spill-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        // A fresh dir per test: remove leftovers from a previous run.
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The tier's `oneqd_spill_{name}_total` counter.
    fn counter(registry: &Registry, name: &str) -> u64 {
        registry
            .snapshot()
            .counter(&format!("oneqd_spill_{name}_total"), &[])
    }

    fn body(i: usize) -> Arc<str> {
        Arc::from(format!("{{\"record\": {i}, \"pad\": \"{:064}\"}}\n", i).as_str())
    }

    #[test]
    fn append_flush_get_round_trips() {
        let dir = tempdir("roundtrip");
        let registry = Registry::new();
        let tier = SpillTier::open(SpillConfig::new(&dir), &registry).unwrap();
        let digest = sha256(b"k1");
        assert!(tier.get(&digest).is_none());
        tier.append(digest, body(1));
        tier.flush();
        assert_eq!(tier.stats().entries, 1);
        assert_eq!(tier.get(&digest), Some(body(1)));
        let stats = tier.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.dead_bytes, 0);
        assert_eq!(
            (counter(&registry, "hits"), counter(&registry, "appends")),
            (1, 1)
        );
        drop(tier);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_recovers_every_record() {
        let dir = tempdir("restart");
        let digests: Vec<[u8; 32]> = (0..10)
            .map(|i| sha256(format!("k{i}").as_bytes()))
            .collect();
        {
            let tier = SpillTier::open(SpillConfig::new(&dir), &Registry::new()).unwrap();
            for (i, d) in digests.iter().enumerate() {
                tier.append(*d, body(i));
            }
        } // drop drains the queue and releases the lock
        let registry = Registry::new();
        let tier = SpillTier::open(SpillConfig::new(&dir), &registry).unwrap();
        for (i, d) in digests.iter().enumerate() {
            assert_eq!(tier.get(d), Some(body(i)), "record {i} survives restart");
        }
        assert_eq!(counter(&registry, "recovered_records"), 10);
        assert_eq!(tier.stats().entries, 10);
        assert_eq!(counter(&registry, "truncated_tails"), 0);
        drop(tier);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_appends_do_not_grow_the_log() {
        let dir = tempdir("dedup");
        let registry = Registry::new();
        let tier = SpillTier::open(SpillConfig::new(&dir), &registry).unwrap();
        let digest = sha256(b"k");
        tier.append(digest, body(1));
        tier.flush();
        let before = tier.stats().live_bytes;
        for _ in 0..5 {
            tier.append(digest, body(1));
        }
        tier.flush();
        assert_eq!(tier.stats().live_bytes, before);
        assert_eq!(
            counter(&registry, "appends"),
            1,
            "duplicates are skipped, not written"
        );
        drop(tier);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_and_whole_segment_eviction_bound_the_directory() {
        let dir = tempdir("evict");
        let mut config = SpillConfig::new(&dir);
        // Tiny geometry: a couple of records per segment, ~4 segments.
        config.segment_bytes = 400;
        config.max_bytes = 1600;
        let registry = Registry::new();
        let tier = SpillTier::open(config.clone(), &registry).unwrap();
        let digests: Vec<[u8; 32]> = (0..40)
            .map(|i| sha256(format!("k{i}").as_bytes()))
            .collect();
        for (i, d) in digests.iter().enumerate() {
            tier.append(*d, body(i));
        }
        tier.flush();
        let stats = tier.stats();
        assert!(
            counter(&registry, "evicted_segments") > 0,
            "budget pressure evicted"
        );
        assert!(
            stats.live_bytes + stats.dead_bytes <= config.max_bytes,
            "directory stays within budget"
        );
        assert!(stats.entries < digests.len(), "old entries were dropped");
        // The newest record always survives (it is in the active segment).
        assert_eq!(tier.get(digests.last().unwrap()), Some(body(39)));
        // Evicted digests read as clean misses.
        assert!(tier.get(&digests[0]).is_none());
        drop(tier);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn startup_compacts_past_the_garbage_threshold() {
        let dir = tempdir("compact");
        std::fs::create_dir_all(&dir).unwrap();
        // Hand-write a segment full of superseded duplicates: 9 dead
        // versions of one digest, then the live one, plus one distinct
        // record. (The running tier dedups appends, so this much garbage
        // only arises from crash patterns — construct it directly.)
        let digest = sha256(b"dup");
        let other = sha256(b"other");
        let path = segment_path(&dir, 0);
        let mut writer = SegmentWriter::create(&path).unwrap();
        for i in 0..10 {
            writer.append(&digest, body(i).as_bytes()).unwrap();
        }
        writer.append(&other, body(99).as_bytes()).unwrap();
        drop(writer);

        let registry = Registry::new();
        let tier = SpillTier::open(SpillConfig::new(&dir), &registry).unwrap();
        let stats = tier.stats();
        assert_eq!(
            counter(&registry, "compactions"),
            1,
            "dead ratio exceeded the threshold"
        );
        assert_eq!(stats.dead_bytes, 0, "compaction reclaimed the garbage");
        assert_eq!(stats.entries, 2);
        assert_eq!(tier.get(&digest), Some(body(9)), "last write wins");
        assert_eq!(tier.get(&other), Some(body(99)));
        assert!(!path.exists(), "the garbage segment was deleted");
        drop(tier);

        // And the compacted directory recovers cleanly.
        let registry = Registry::new();
        let tier = SpillTier::open(SpillConfig::new(&dir), &registry).unwrap();
        assert_eq!(tier.get(&digest), Some(body(9)));
        assert_eq!(
            counter(&registry, "compactions"),
            0,
            "nothing left to compact"
        );
        drop(tier);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_appends_resume() {
        let dir = tempdir("torn");
        let digest = sha256(b"intact");
        {
            let tier = SpillTier::open(SpillConfig::new(&dir), &Registry::new()).unwrap();
            tier.append(digest, body(1));
        }
        // Simulate a crash mid-write: half a record at the tail.
        let path = segment_path(&dir, 0);
        {
            use std::io::Write as _;
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            let torn = segment::encode_record(&sha256(b"torn"), body(2).as_bytes());
            file.write_all(&torn[..torn.len() / 2]).unwrap();
        }
        let registry = Registry::new();
        let tier = SpillTier::open(SpillConfig::new(&dir), &registry).unwrap();
        assert_eq!(counter(&registry, "truncated_tails"), 1);
        assert_eq!(counter(&registry, "recovered_records"), 1);
        assert_eq!(tier.get(&digest), Some(body(1)), "intact record survives");
        assert!(tier.get(&sha256(b"torn")).is_none());
        // The tail was physically truncated; new appends land cleanly.
        let digest2 = sha256(b"after");
        tier.append(digest2, body(3));
        tier.flush();
        drop(tier);
        let registry = Registry::new();
        let tier = SpillTier::open(SpillConfig::new(&dir), &registry).unwrap();
        assert_eq!(tier.get(&digest), Some(body(1)));
        assert_eq!(tier.get(&digest2), Some(body(3)));
        assert_eq!(counter(&registry, "truncated_tails"), 0, "the tear healed");
        drop(tier);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_open_on_a_locked_directory_fails() {
        let dir = tempdir("lock");
        let tier = SpillTier::open(SpillConfig::new(&dir), &Registry::new()).unwrap();
        let err = SpillTier::open(SpillConfig::new(&dir), &Registry::new());
        if cfg!(unix) {
            let err = err.err().expect("double-open must fail on unix");
            assert!(
                err.to_string().contains("locked by another process"),
                "got: {err}"
            );
        }
        drop(tier);
        // Released on drop: the directory can be reopened.
        let tier = SpillTier::open(SpillConfig::new(&dir), &Registry::new()).unwrap();
        drop(tier);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_segment_files_are_ignored_or_reclaimed() {
        let dir = tempdir("stray");
        std::fs::create_dir_all(&dir).unwrap();
        // A stray file that parses as a segment name but is not one gets
        // reclaimed; unrelated names are left alone.
        std::fs::write(segment_path(&dir, 3), b"not a segment at all").unwrap();
        std::fs::write(dir.join("README.txt"), b"hands off").unwrap();
        let tier = SpillTier::open(SpillConfig::new(&dir), &Registry::new()).unwrap();
        assert!(!segment_path(&dir, 3).exists(), "garbage was reclaimed");
        assert!(dir.join("README.txt").exists(), "unrelated files untouched");
        assert_eq!(tier.stats().entries, 0);
        drop(tier);
        std::fs::remove_dir_all(&dir).ok();
    }
}
