//! Seeded op streams and self-describing values.
//!
//! Every value the benchmark writes carries its key id, a version and a
//! checksum of its payload, so a read can be checked without a second
//! copy of the data: [`decode_value`] rejects a torn or corrupted value,
//! a value that belongs to another key, and (with the model in
//! `crate::model`) a value older than an acknowledged write.

use dstore_workload::ScrambledZipfian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAGIC: u32 = 0xD5BE_0C4B;
/// Bytes before the payload: magic, total length, key id, version,
/// payload checksum.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// Object name of key `id` in the shared key space of the YCSB and
/// server workloads.
pub fn key_name(id: u64) -> Vec<u8> {
    format!("user{id:012}").into_bytes()
}

/// Object name of entry `id` in client `thread`'s private directory
/// (`meta_churn`).
pub fn dir_name(thread: usize, id: u64) -> Vec<u8> {
    format!("dir{thread}/f{id:08}").into_bytes()
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fletcher-style checksum over the length, key id and version fields
/// plus the payload: position-dependent, so a torn value (parts of two
/// versions) or a moved block fails it, and cheap next to a store call.
fn checksum(value: &[u8]) -> u64 {
    let (mut a, mut b) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    let mut add = |w: u64| {
        a = a.wrapping_add(w);
        b = b.wrapping_add(a);
    };
    for part in [&value[4..24], &value[HEADER_LEN..]] {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &byte in words.remainder() {
            add(u64::from(byte));
        }
    }
    let mut x = a ^ b.rotate_left(29);
    splitmix(&mut x)
}

/// Writes the `len`-byte value of (`key`, `version`) into `out`.
pub fn encode_value(key: u64, version: u64, len: usize, out: &mut Vec<u8>) {
    assert!(
        len >= HEADER_LEN,
        "values must hold the {HEADER_LEN}-byte header"
    );
    out.clear();
    out.resize(len, 0);
    let mut state = key.wrapping_mul(0xA24B_AED4_963E_E407) ^ version;
    let base = splitmix(&mut state);
    let payload = &mut out[HEADER_LEN..];
    let mut words = payload.chunks_exact_mut(8);
    for (i, w) in (&mut words).enumerate() {
        w.copy_from_slice(&(base ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)).to_le_bytes());
    }
    for b in words.into_remainder() {
        *b = base as u8;
    }
    out[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    out[4..8].copy_from_slice(&(len as u32).to_le_bytes());
    out[8..16].copy_from_slice(&key.to_le_bytes());
    out[16..24].copy_from_slice(&version.to_le_bytes());
    let sum = checksum(out);
    out[24..32].copy_from_slice(&sum.to_le_bytes());
}

/// Why a value read back was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Bad magic, length or checksum: the bytes are not an intact value.
    Corrupt,
    /// An intact value of another key.
    WrongKey,
    /// An intact value older than an acknowledged write.
    Stale,
    /// A version never written.
    Unwritten,
    /// The key is missing (or present when it must not be).
    Presence,
    /// The store returned an error, or `Busy`.
    Error,
    /// The store panicked or stalled inside the call.
    Panic,
}

/// Checks that `bytes` is an intact value of `key`; returns its version.
pub fn decode_value(key: u64, bytes: &[u8]) -> Result<u64, Fault> {
    if bytes.len() < HEADER_LEN {
        return Err(Fault::Corrupt);
    }
    let word = |r: std::ops::Range<usize>| {
        let mut b = [0u8; 8];
        b[..r.len()].copy_from_slice(&bytes[r]);
        u64::from_le_bytes(b)
    };
    if word(0..4) != u64::from(MAGIC)
        || word(4..8) != bytes.len() as u64
        || word(24..32) != checksum(bytes)
    {
        return Err(Fault::Corrupt);
    }
    if word(8..16) != key {
        return Err(Fault::WrongKey);
    }
    Ok(word(16..24))
}

/// What one generated operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Whole-object get.
    Get,
    /// Put of an existing key (YCSB update).
    Update,
    /// `meta_churn`: create a name absent from the directory.
    Create,
    /// `meta_churn`: stat a present name.
    Stat,
    /// `meta_churn`: delete a present name.
    Delete,
}

impl OpKind {
    /// Whether the op counts as a read (get/stat) or a write.
    pub fn is_read(self) -> bool {
        matches!(self, OpKind::Get | OpKind::Stat)
    }
}

/// Key choice of a YCSB-style stream.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Scrambled zipfian (θ = 0.99).
    Zipfian(ScrambledZipfian),
    /// Uniform over the key space.
    Uniform(u64),
}

/// A seeded stream of (op, key) over a shared key space.
pub struct YcsbStream {
    rng: StdRng,
    dist: KeyDist,
    read_percent: u32,
}

/// Mixes the workload seed with a stream id so every client thread gets
/// its own, reproducible stream.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix(&mut s)
}

/// A seeded picker of values below its argument, for the post-run
/// update bursts (cycle `cycle` of workload seed `seed`).
pub fn seeded_picker(seed: u64, cycle: u64) -> impl FnMut(u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 1000 + cycle));
    move |n| rng.gen_range(0..n.max(1))
}

impl YcsbStream {
    /// Stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64, dist: KeyDist, read_percent: u32) -> Self {
        YcsbStream {
            rng: StdRng::seed_from_u64(stream_seed(seed, stream)),
            dist,
            read_percent,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> (OpKind, u64) {
        let read = self.rng.gen_range(0..100u32) < self.read_percent;
        let key = match &self.dist {
            KeyDist::Zipfian(z) => z.next(&mut self.rng),
            KeyDist::Uniform(n) => self.rng.gen_range(0..*n),
        };
        (if read { OpKind::Get } else { OpKind::Update }, key)
    }
}

/// A seeded create/stat/delete stream over one client's private
/// directory. It keeps the directory's expected contents itself (only
/// its own thread touches the directory), so the op sequence is a pure
/// function of the seed: a random name is created when absent, else
/// stat'ed or deleted with equal odds.
pub struct ChurnStream {
    rng: StdRng,
    /// Expected version of each name; 0 = absent.
    pub versions: Vec<u64>,
    next_version: u64,
}

impl ChurnStream {
    /// Stream `stream` of workload seed `seed` over `names` names.
    pub fn new(seed: u64, stream: u64, names: u64) -> Self {
        ChurnStream {
            rng: StdRng::seed_from_u64(stream_seed(seed, stream)),
            versions: vec![0; names as usize],
            next_version: 0,
        }
    }

    /// The next op, its name id, and — for a create — the version it
    /// writes. Call [`ChurnStream::applied`] once the op succeeded.
    pub fn next_op(&mut self) -> (OpKind, u64, u64) {
        let id = self.rng.gen_range(0..self.versions.len() as u64);
        if self.versions[id as usize] == 0 {
            self.next_version += 1;
            (OpKind::Create, id, self.next_version)
        } else if self.rng.gen_bool(0.5) {
            (OpKind::Stat, id, self.versions[id as usize])
        } else {
            (OpKind::Delete, id, 0)
        }
    }

    /// Records a successful op in the expected directory contents.
    pub fn applied(&mut self, op: OpKind, id: u64, version: u64) {
        match op {
            OpKind::Create | OpKind::Update => self.versions[id as usize] = version,
            OpKind::Delete => self.versions[id as usize] = 0,
            OpKind::Get | OpKind::Stat => {}
        }
    }

    /// A fresh version for an update of a present name.
    pub fn bump(&mut self) -> u64 {
        self.next_version += 1;
        self.next_version
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops() {
        let dist = || KeyDist::Zipfian(ScrambledZipfian::new(20_000));
        let mut a = YcsbStream::new(7, 0, dist(), 50);
        let mut b = YcsbStream::new(7, 0, dist(), 50);
        let ops_a: Vec<_> = (0..5000).map(|_| a.next_op()).collect();
        let ops_b: Vec<_> = (0..5000).map(|_| b.next_op()).collect();
        assert_eq!(ops_a, ops_b);
        // Another seed or another client stream differs.
        let mut c = YcsbStream::new(8, 0, dist(), 50);
        let mut d = YcsbStream::new(7, 1, dist(), 50);
        assert_ne!(ops_a, (0..5000).map(|_| c.next_op()).collect::<Vec<_>>());
        assert_ne!(ops_a, (0..5000).map(|_| d.next_op()).collect::<Vec<_>>());

        let mut e = ChurnStream::new(7, 0, 100);
        let mut f = ChurnStream::new(7, 0, 100);
        for _ in 0..5000 {
            let (op, id, v) = e.next_op();
            assert_eq!((op, id, v), f.next_op());
            e.applied(op, id, v);
            f.applied(op, id, v);
        }
    }

    #[test]
    fn mix_follows_read_percent() {
        let mut s = YcsbStream::new(1, 0, KeyDist::Uniform(1000), 95);
        let reads = (0..100_000)
            .filter(|_| s.next_op().0 == OpKind::Get)
            .count();
        assert!((94_000..96_000).contains(&reads), "{reads}");
    }

    #[test]
    fn values_round_trip() {
        let mut v = Vec::new();
        for len in [HEADER_LEN, 256, 4096, 4099] {
            encode_value(42, 9, len, &mut v);
            assert_eq!(v.len(), len);
            assert_eq!(decode_value(42, &v), Ok(9));
        }
    }

    #[test]
    fn verifier_flags_corrupt_and_wrong_key_values() {
        let mut v = Vec::new();
        encode_value(42, 3, 4096, &mut v);
        assert_eq!(decode_value(43, &v), Err(Fault::WrongKey));
        // The checksum covers the header fields too, so any flipped bit
        // (key id and version included) reads as corruption.
        for at in [0, 5, 9, 17, 30, 100, 4095] {
            let mut bad = v.clone();
            bad[at] ^= 0x10;
            assert_eq!(decode_value(42, &bad), Err(Fault::Corrupt), "flip at {at}");
        }
        assert_eq!(decode_value(42, &v[..4000]), Err(Fault::Corrupt));
        assert_eq!(decode_value(42, &[]), Err(Fault::Corrupt));
    }
}
