//! The expected state of a shared key space, for checking reads.
//!
//! Each write gets a fresh version of its key. A read may return any
//! version that was written, as long as it is not older than the
//! *floor*: the newest write that was acknowledged before the read was
//! issued and that no other write to the same key overlapped. Two
//! overlapping writes may be ordered either way by the store, so they
//! leave the floor where it was.

use crate::gen::{decode_value, Fault};
use std::sync::{Mutex, MutexGuard};

/// Writers that may have the same key in flight at once (client
/// threads × pipeline depth).
pub const MAX_WRITERS: usize = 4;

#[derive(Default)]
struct KeyState {
    /// Highest version handed out.
    next_version: u64,
    /// Lowest version a read issued now may return.
    floor: u64,
    /// Version each writer has in flight (0 = none).
    active: [u64; MAX_WRITERS],
    /// Writers whose in-flight write overlapped another write.
    overlapped: u8,
}

/// Versions and floors of keys `0..n`.
pub struct KeyModel {
    keys: Vec<Mutex<KeyState>>,
}

fn lock(m: &Mutex<KeyState>) -> MutexGuard<'_, KeyState> {
    // Every update leaves the state valid, so a poisoned lock (a client
    // thread panicked while holding it) is still usable.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl KeyModel {
    /// `n` keys, none written yet.
    pub fn new(n: u64) -> Self {
        KeyModel {
            keys: (0..n).map(|_| Mutex::new(KeyState::default())).collect(),
        }
    }

    /// Number of keys.
    pub fn len(&self) -> u64 {
        self.keys.len() as u64
    }

    /// Records that the preload wrote version 1 of `key`.
    pub fn preloaded(&self, key: u64) {
        let mut s = lock(&self.keys[key as usize]);
        s.next_version = s.next_version.max(1);
        s.floor = s.floor.max(1);
    }

    /// Starts a write of `key` by `writer`; returns the version to write.
    pub fn begin_write(&self, key: u64, writer: usize) -> u64 {
        let mut s = lock(&self.keys[key as usize]);
        s.next_version += 1;
        let v = s.next_version;
        let others = s
            .active
            .iter()
            .enumerate()
            .filter(|&(w, &a)| w != writer && a != 0)
            .fold(0u8, |m, (w, _)| m | 1 << w);
        if others != 0 {
            s.overlapped |= others | 1 << writer;
        }
        s.active[writer] = v;
        v
    }

    /// Ends `writer`'s write of `key`; `acked` when the store confirmed it.
    pub fn end_write(&self, key: u64, writer: usize, acked: bool) {
        let mut s = lock(&self.keys[key as usize]);
        let v = s.active[writer];
        let overlapped = s.overlapped & (1 << writer) != 0;
        s.active[writer] = 0;
        s.overlapped &= !(1 << writer);
        if acked && !overlapped {
            s.floor = s.floor.max(v);
        }
    }

    /// The floor a read of `key` issued now must respect.
    pub fn begin_read(&self, key: u64) -> u64 {
        lock(&self.keys[key as usize]).floor
    }

    /// Checks a value read back for `key` by a read issued when the floor
    /// was `floor`; returns the version read.
    pub fn check_read(&self, key: u64, floor: u64, bytes: &[u8]) -> Result<u64, Fault> {
        let v = decode_value(key, bytes)?;
        if v < floor {
            return Err(Fault::Stale);
        }
        if v == 0 || v > lock(&self.keys[key as usize]).next_version {
            return Err(Fault::Unwritten);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::encode_value;

    fn value(key: u64, version: u64) -> Vec<u8> {
        let mut v = Vec::new();
        encode_value(key, version, 256, &mut v);
        v
    }

    #[test]
    fn verifier_flags_stale_values() {
        let m = KeyModel::new(4);
        m.preloaded(1);
        let v2 = m.begin_write(1, 0);
        m.end_write(1, 0, true);
        assert_eq!(v2, 2);
        let floor = m.begin_read(1);
        assert_eq!(m.check_read(1, floor, &value(1, 2)), Ok(2));
        assert_eq!(m.check_read(1, floor, &value(1, 1)), Err(Fault::Stale));
        assert_eq!(m.check_read(1, floor, &value(1, 3)), Err(Fault::Unwritten));
        assert_eq!(m.check_read(1, floor, &value(2, 2)), Err(Fault::WrongKey));
        let mut torn = value(1, 2);
        torn[200] ^= 1;
        assert_eq!(m.check_read(1, floor, &torn), Err(Fault::Corrupt));
    }

    #[test]
    fn read_issued_before_the_ack_may_see_the_old_version() {
        let m = KeyModel::new(1);
        m.preloaded(0);
        let v = m.begin_write(0, 0);
        let floor = m.begin_read(0);
        m.end_write(0, 0, true);
        assert_eq!(m.check_read(0, floor, &value(0, 1)), Ok(1));
        assert_eq!(m.check_read(0, floor, &value(0, v)), Ok(v));
        assert_eq!(
            m.check_read(0, m.begin_read(0), &value(0, 1)),
            Err(Fault::Stale)
        );
    }

    #[test]
    fn overlapping_writes_leave_the_floor() {
        let m = KeyModel::new(1);
        m.preloaded(0);
        let a = m.begin_write(0, 0);
        let b = m.begin_write(0, 1);
        m.end_write(0, 1, true);
        m.end_write(0, 0, true);
        // The store may have applied b before a: either survives.
        let floor = m.begin_read(0);
        assert_eq!(m.check_read(0, floor, &value(0, a)), Ok(a));
        assert_eq!(m.check_read(0, floor, &value(0, b)), Ok(b));
        // A later write nobody overlapped raises the floor again.
        let c = m.begin_write(0, 1);
        m.end_write(0, 1, true);
        assert_eq!(
            m.check_read(0, m.begin_read(0), &value(0, b)),
            Err(Fault::Stale)
        );
        assert_eq!(m.check_read(0, m.begin_read(0), &value(0, c)), Ok(c));
    }

    #[test]
    fn failed_writes_do_not_raise_the_floor() {
        let m = KeyModel::new(1);
        m.preloaded(0);
        m.begin_write(0, 0);
        m.end_write(0, 0, false);
        assert_eq!(m.check_read(0, m.begin_read(0), &value(0, 1)), Ok(1));
    }
}
