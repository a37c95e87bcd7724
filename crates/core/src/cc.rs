//! Writer-side concurrency-control state.
//!
//! Write-write conflicts are handled by the log itself (§4.4, implemented
//! in `dstore-dipper`): a new write's append scans for in-flight records
//! on the same object and spins on their commit flags.
//!
//! Read-write conflicts use the read-count table
//! ([`dstore_index::ReadCounts`]): a writer polls the object's read count
//! until it reaches zero. To keep that poll from racing with *newly
//! arriving* readers (and to avoid reader/writer livelock), writers also
//! register in this [`InflightWriters`] set for the duration of their
//! metadata/data mutation; a reader that finds its object in the set backs
//! off (releasing its read count) until the writer finishes. The ordering
//! — writer registers *before* polling read counts, reader re-checks
//! *after* incrementing — makes the protocol deadlock-free: readers always
//! release and retry, writers always drain.

use dstore_index::fnv1a;
use dstore_pmem::Backoff;
use parking_lot::Mutex;
use std::time::Duration;

const SHARDS: usize = 64;

/// Names at most this long are stored inline — no heap allocation on the
/// register/unregister fast path (typical object names are short).
const INLINE_NAME: usize = 32;

/// An object name as stored in the in-flight set: inline for short
/// names, heap-allocated only past [`INLINE_NAME`] bytes.
enum NameBuf {
    Inline { len: u8, bytes: [u8; INLINE_NAME] },
    Heap(Vec<u8>),
}

impl NameBuf {
    fn new(name: &[u8]) -> Self {
        if name.len() <= INLINE_NAME {
            let mut bytes = [0u8; INLINE_NAME];
            bytes[..name.len()].copy_from_slice(name);
            NameBuf::Inline {
                len: name.len() as u8,
                bytes,
            }
        } else {
            NameBuf::Heap(name.to_vec())
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            NameBuf::Inline { len, bytes } => &bytes[..*len as usize],
            NameBuf::Heap(v) => v,
        }
    }
}

/// Sharded set of object names currently being mutated. Entries carry
/// their full FNV-1a tag so lookups compare bytes only on tag hits, and
/// the per-shard population is at most the writer thread count, so a
/// flat vector beats a hash set — and avoids its per-insert allocation.
pub struct InflightWriters {
    shards: Vec<Mutex<Vec<(u64, NameBuf)>>>,
    stall_timeout: Duration,
}

impl Default for InflightWriters {
    fn default() -> Self {
        Self::new()
    }
}

impl InflightWriters {
    /// Empty set with the default 30 s deadlock-detector budget.
    pub fn new() -> Self {
        Self::with_stall_timeout(Duration::from_secs(30))
    }

    /// Empty set whose [`InflightWriters::wait_clear`] panics after
    /// `stall_timeout` (see `DStoreConfig::stall_timeout`).
    pub fn with_stall_timeout(stall_timeout: Duration) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            stall_timeout,
        }
    }

    #[inline]
    fn shard(&self, tag: u64) -> &Mutex<Vec<(u64, NameBuf)>> {
        &self.shards[(tag as usize) & (SHARDS - 1)]
    }

    /// Registers a writer. Write-write CC (the log scan) guarantees at
    /// most one writer per object, so double registration is a logic bug.
    pub fn register(&self, name: &[u8]) {
        let tag = fnv1a(name);
        let mut shard = self.shard(tag).lock();
        debug_assert!(
            !shard.iter().any(|(t, n)| *t == tag && n.as_slice() == name),
            "two concurrent writers on one object"
        );
        shard.push((tag, NameBuf::new(name)));
    }

    /// Unregisters a writer.
    pub fn unregister(&self, name: &[u8]) {
        let tag = fnv1a(name);
        let mut shard = self.shard(tag).lock();
        let pos = shard
            .iter()
            .position(|(t, n)| *t == tag && n.as_slice() == name);
        debug_assert!(pos.is_some(), "unregister without register");
        if let Some(pos) = pos {
            shard.swap_remove(pos);
        }
    }

    /// Whether a writer is mutating `name` right now.
    pub fn contains(&self, name: &[u8]) -> bool {
        let tag = fnv1a(name);
        self.shard(tag)
            .lock()
            .iter()
            .any(|(t, n)| *t == tag && n.as_slice() == name)
    }

    /// Waits until no writer is mutating `name` (reader back-off path):
    /// exponential backoff from spinning to capped micro-sleeps, so a
    /// contended key does not burn a core per blocked reader.
    ///
    /// The yield stage of [`Backoff`] is bounded by elapsed time
    /// (~200 µs), not by a step count: the writer is normally one SSD
    /// write plus one fence (~10–20 µs) from unregistering, and even a
    /// 16 µs sleep takes ~65 µs under Linux's default 50 µs timer
    /// slack, so only a wait past the budget sleeps.
    pub fn wait_clear(&self, name: &[u8]) {
        let t = std::time::Instant::now();
        let mut backoff = Backoff::new();
        while self.contains(name) {
            backoff.snooze();
            // Deadlock detector: writers unregister at the end of one op.
            if backoff.is_sleeping() && t.elapsed() > self.stall_timeout {
                panic!(
                    "wait_clear stalled >{:?} on {:?} — leaked writer registration?",
                    self.stall_timeout,
                    String::from_utf8_lossy(name)
                );
            }
        }
    }
}

/// RAII registration.
pub struct WriterGuard<'a> {
    set: &'a InflightWriters,
    name: Vec<u8>,
}

impl<'a> WriterGuard<'a> {
    /// Registers `name` until drop.
    pub fn new(set: &'a InflightWriters, name: &[u8]) -> Self {
        set.register(name);
        Self {
            set,
            name: name.to_vec(),
        }
    }
}

impl Drop for WriterGuard<'_> {
    fn drop(&mut self) {
        self.set.unregister(&self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_contains_unregister() {
        let w = InflightWriters::new();
        assert!(!w.contains(b"a"));
        w.register(b"a");
        assert!(w.contains(b"a"));
        assert!(!w.contains(b"b"));
        w.unregister(b"a");
        assert!(!w.contains(b"a"));
    }

    #[test]
    fn long_names_compare_exactly() {
        let w = InflightWriters::new();
        let long_a = vec![b'a'; 100];
        let mut long_b = long_a.clone();
        *long_b.last_mut().unwrap() = b'b';
        w.register(&long_a);
        assert!(w.contains(&long_a));
        assert!(!w.contains(&long_b));
        w.register(&long_b);
        w.unregister(&long_a);
        assert!(!w.contains(&long_a));
        assert!(w.contains(&long_b));
        w.unregister(&long_b);
    }

    #[test]
    fn inline_boundary_roundtrips() {
        let w = InflightWriters::new();
        for len in [0usize, 1, 31, 32, 33] {
            let name = vec![b'x'; len];
            w.register(&name);
            assert!(w.contains(&name), "len {len}");
            w.unregister(&name);
            assert!(!w.contains(&name), "len {len}");
        }
    }

    #[test]
    fn guard_is_raii() {
        let w = InflightWriters::new();
        {
            let _g = WriterGuard::new(&w, b"obj");
            assert!(w.contains(b"obj"));
        }
        assert!(!w.contains(b"obj"));
    }

    #[test]
    fn wait_clear_unblocks() {
        use std::sync::Arc;
        let w = Arc::new(InflightWriters::new());
        w.register(b"busy");
        let w2 = Arc::clone(&w);
        let t = std::thread::spawn(move || w2.wait_clear(b"busy"));
        std::thread::sleep(std::time::Duration::from_millis(20));
        w.unregister(b"busy");
        t.join().unwrap();
    }
}
