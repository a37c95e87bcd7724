//! The in-process workloads: client threads call a `DStore` directly.

use crate::bench::Bench;
use crate::gen::{
    decode_value, dir_name, encode_value, key_name, seeded_picker, ChurnStream, Fault, KeyDist,
    OpKind, YcsbStream,
};
use crate::harness::{run_phase, OpFn, PhaseOut, Recorder};
use crate::model::KeyModel;
use crate::stats::Counters;
use dstore::{DStore, DStoreConfig, DsContext, DsError, Footprint, RecoveryReport};
use dstore_telemetry::TelemetrySnapshot;
use dstore_workload::ScrambledZipfian;
use std::sync::Arc;

/// Shape of an in-process workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Keys (YCSB) or names per client directory (`meta_churn`).
    pub keys: u64,
    /// Value size, bytes.
    pub value_len: usize,
    /// Share of gets, percent (YCSB only).
    pub read_percent: u32,
    /// Zipfian (true) or uniform key choice (YCSB only).
    pub zipfian: bool,
    /// Create/stat/delete churn over private directories instead of YCSB.
    pub churn: bool,
    /// SSD pages the store needs (the default 256 MB device cannot hold
    /// the larger key spaces).
    pub ssd_pages: u64,
}

/// Client threads of every in-process workload.
pub const CLIENTS: usize = 2;

/// Object id stored in a `meta_churn` value: client and name.
fn churn_id(client: usize, id: u64) -> u64 {
    (client as u64) << 32 | id
}

/// The store and what it is expected to hold.
pub struct Env {
    /// The store under test.
    store: Arc<DStore>,
    /// YCSB: versions and floors of the shared keys.
    model: Arc<KeyModel>,
    /// YCSB: key names, by id.
    names: Arc<Vec<Vec<u8>>>,
    /// `meta_churn`: each client's op stream and expected directory.
    churn: Vec<ChurnStream>,
    shape: Shape,
    seed: u64,
}

/// A client's state during a timed phase.
pub enum Client {
    /// YCSB client over the shared key space.
    Ycsb {
        /// Its store context.
        ctx: DsContext,
        /// Its op stream.
        stream: YcsbStream,
        /// Value buffer.
        buf: Vec<u8>,
    },
    /// `meta_churn` client over its own directory.
    Churn {
        /// Its store context.
        ctx: DsContext,
        /// Its op stream and expected directory.
        stream: ChurnStream,
        /// Its names, by id.
        names: Vec<Vec<u8>>,
        /// Value buffer.
        buf: Vec<u8>,
    },
}

/// The store configuration of every in-process workload:
/// `DStoreConfig::bench()`, sized for the shape, with `trace` in place
/// of the default flight-recorder settings.
pub fn config(shape: &Shape, trace: dstore_telemetry::TraceConfig) -> DStoreConfig {
    let mut cfg = DStoreConfig::bench().with_trace(trace);
    cfg.ssd_pages = cfg.ssd_pages.max(shape.ssd_pages);
    cfg
}

impl Env {
    /// Creates the store and preloads it (YCSB) with version 1 of every
    /// key.
    pub fn setup(shape: Shape, seed: u64, cfg: DStoreConfig) -> Result<Env, String> {
        let store = Arc::new(DStore::create(cfg).map_err(|e| format!("create: {e}"))?);
        let n = if shape.churn { 0 } else { shape.keys };
        let model = Arc::new(KeyModel::new(n));
        let names: Arc<Vec<Vec<u8>>> = Arc::new((0..n).map(key_name).collect());
        let ctx = store.context();
        preload(&model, &names, shape.value_len, |k, v| ctx.put(k, v))?;
        drop(ctx);
        let churn = (0..CLIENTS)
            .map(|c| ChurnStream::new(seed, c as u64, shape.keys))
            .collect();
        Ok(Env {
            store,
            model,
            names,
            churn,
            shape,
            seed,
        })
    }
}

impl Bench for Env {
    type Client = Client;

    fn store_config(&self) -> DStoreConfig {
        self.store.config().clone()
    }

    fn describe(&self) -> Vec<(String, String)> {
        vec![
            ("clients".into(), CLIENTS.to_string()),
            ("pipeline_depth".into(), "1".into()),
        ]
    }

    fn clients(&mut self, stream_base: u64) -> Result<Vec<Client>, String> {
        let shape = self.shape;
        if shape.churn {
            let streams = std::mem::take(&mut self.churn);
            return Ok(streams
                .into_iter()
                .enumerate()
                .map(|(c, stream)| Client::Churn {
                    ctx: self.store.context(),
                    names: (0..shape.keys).map(|id| dir_name(c, id)).collect(),
                    stream,
                    buf: Vec::new(),
                })
                .collect());
        }
        Ok((0..CLIENTS)
            .map(|c| {
                let dist = if shape.zipfian {
                    KeyDist::Zipfian(ScrambledZipfian::new(shape.keys))
                } else {
                    KeyDist::Uniform(shape.keys)
                };
                Client::Ycsb {
                    ctx: self.store.context(),
                    stream: YcsbStream::new(
                        self.seed,
                        stream_base + c as u64,
                        dist,
                        shape.read_percent,
                    ),
                    buf: Vec::new(),
                }
            })
            .collect())
    }

    fn op(&self) -> OpFn<Client> {
        let model = Arc::clone(&self.model);
        let names = Arc::clone(&self.names);
        let len = self.shape.value_len;
        Arc::new(move |i, client, rec: &mut Recorder| {
            rec.begin_op();
            match client {
                Client::Ycsb { ctx, stream, buf } => {
                    let (kind, key) = stream.next_op();
                    let name = &names[key as usize];
                    if kind == OpKind::Get {
                        let floor = model.begin_read(key);
                        let (r, ns) = rec.call("core", "get", || ctx.get(name));
                        let verdict = r.and_then(|v| model.check_read(key, floor, &v).map(drop));
                        rec.end_op("get", true, ns, verdict);
                    } else {
                        let v = model.begin_write(key, i);
                        encode_value(key, v, len, buf);
                        let (r, ns) = rec.call("core", "put", || ctx.put(name, buf));
                        model.end_write(key, i, r.is_ok());
                        if r.is_ok() {
                            rec.user_bytes += len as u64;
                        }
                        rec.end_op("update", false, ns, r);
                    }
                }
                Client::Churn {
                    ctx,
                    stream,
                    names,
                    buf,
                } => {
                    let (kind, id, v) = stream.next_op();
                    let name = &names[id as usize];
                    let (verdict, ns, label) = match kind {
                        OpKind::Create => {
                            encode_value(churn_id(i, id), v, len, buf);
                            let (r, ns) = rec.call("core", "put", || ctx.put(name, buf));
                            if r.is_ok() {
                                rec.user_bytes += len as u64;
                            }
                            (r, ns, "create")
                        }
                        OpKind::Stat => {
                            let (r, ns) = rec.call("core", "stat", || ctx.stat(name));
                            let r = r.and_then(|st| {
                                if st.size == len as u64 {
                                    Ok(())
                                } else {
                                    Err(Fault::Corrupt)
                                }
                            });
                            (r, ns, "stat")
                        }
                        _ => {
                            let (r, ns) = rec.call("core", "delete", || ctx.delete(name));
                            (r, ns, "delete")
                        }
                    };
                    if verdict.is_ok() {
                        stream.applied(kind, id, v);
                    }
                    rec.end_op(label, kind.is_read(), ns, verdict);
                }
            }
            true
        })
    }

    /// Takes back the `meta_churn` streams (nothing is left in flight).
    fn finish(&mut self, clients: Vec<Client>) -> (u64, u64) {
        for c in clients {
            if let Client::Churn { stream, .. } = c {
                self.churn.push(stream);
            }
        }
        (0, 0)
    }

    fn counters(&mut self) -> Result<(Counters, TelemetrySnapshot), String> {
        let snap = self.store.telemetry_snapshot().ok_or("telemetry is off")?;
        let mut c = Counters::from_snapshot(&snap);
        add_device_counters(&mut c, &self.store);
        Ok((c, snap))
    }

    fn footprint(&self) -> Footprint {
        self.store.footprint()
    }

    fn shard_ops(&self) -> Vec<f64> {
        Vec::new()
    }

    fn health(&self) -> String {
        format!("{:?}", self.store.health())
    }

    /// Reads every object back and checks it against what the clients
    /// wrote, from [`CLIENTS`] threads. Returns the sweep's record and the
    /// number of objects it had to check.
    fn sweep(&self, trace: bool) -> Result<(PhaseOut<Sweep>, u64), String> {
        if !self.shape.churn {
            let gets = (0..CLIENTS)
                .map(|_| {
                    let ctx = self.store.context();
                    Box::new(move |k: &[u8]| ctx.get(k)) as Getter
                })
                .collect();
            return Ok(sweep_keys(gets, &self.model, &self.names, trace));
        }
        // Client c checks directory c against its expected contents.
        let states = (0..CLIENTS)
            .map(|c| {
                let ctx = self.store.context();
                Sweep {
                    get: Box::new(move |k: &[u8]| ctx.get(k)),
                    next: 0,
                    expected: self
                        .churn
                        .get(c)
                        .map(|s| s.versions.clone())
                        .unwrap_or_default(),
                }
            })
            .collect();
        let keys = self.shape.keys;
        let op: OpFn<Sweep> = Arc::new(move |client, s, rec| {
            rec.begin_op();
            let id = s.next;
            s.next += 1;
            let name = dir_name(client, id);
            let want = s.expected.get(id as usize).copied().unwrap_or(0);
            let (r, ns) = rec.call("core", "get", || match (s.get)(&name) {
                Err(DsError::NotFound) => Ok(None),
                r => r.map(Some),
            });
            let verdict = r.and_then(|got| match (got, want) {
                (None, 0) => Ok(()),
                (Some(b), w) if w != 0 => match decode_value(churn_id(client, id), &b)? {
                    v if v == w => Ok(()),
                    v if v < w => Err(Fault::Stale),
                    _ => Err(Fault::Unwritten),
                },
                _ => Err(Fault::Presence),
            });
            rec.end_op("sweep_get", true, ns, verdict);
            s.next < keys
        });
        Ok((
            run_phase(states, trace, SWEEP_DEADLINE, op),
            keys * CLIENTS as u64,
        ))
    }

    fn checkpoint(&mut self) {
        self.store.checkpoint_now();
    }

    /// Updates of live keys chosen from the seed, one after another
    /// from this thread.
    fn burst(&mut self, k: u64, cycle: u64) -> Vec<Fault> {
        let ctx = self.store.context();
        let mut buf = Vec::new();
        let mut faults = Vec::new();
        let mut pick = seeded_picker(self.seed, cycle);
        for _ in 0..k {
            let r = if self.shape.churn {
                // A live name of a seeded client directory.
                let c = pick(CLIENTS as u64) as usize;
                let Some(stream) = self.churn.get_mut(c) else {
                    faults.push(Fault::Panic);
                    continue;
                };
                let start = pick(self.shape.keys);
                let Some(id) = (0..self.shape.keys)
                    .map(|d| (start + d) % self.shape.keys)
                    .find(|&id| stream.versions[id as usize] != 0)
                else {
                    faults.push(Fault::Presence);
                    continue;
                };
                let v = stream.bump();
                encode_value(churn_id(c, id), v, self.shape.value_len, &mut buf);
                let r = ctx.put(&dir_name(c, id), &buf);
                if r.is_ok() {
                    stream.applied(OpKind::Update, id, v);
                }
                r
            } else {
                let key = pick(self.shape.keys);
                put_key(
                    &self.model,
                    &self.names,
                    key,
                    self.shape.value_len,
                    &mut buf,
                    |k, v| ctx.put(k, v),
                )
            };
            if r.is_err() {
                faults.push(Fault::Error);
            }
        }
        faults
    }

    /// Simulates a power failure and recovers; returns the recovered
    /// workload, the recovery wall time (s) and the report. Fails when a
    /// stalled client still holds the store.
    fn crash_and_recover(self) -> Result<(Env, f64, RecoveryReport), String> {
        let store = Arc::try_unwrap(self.store)
            .map_err(|_| "a stalled client still holds the store".to_string())?;
        let image = store.crash();
        let t = std::time::Instant::now();
        let store = DStore::recover(image).map_err(|e| format!("recover: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        let report = store.recovery_report();
        let env = Env {
            store: Arc::new(store),
            ..self
        };
        Ok((env, secs, report))
    }
}

/// A sweep may take this long (s) before it counts as stalled.
const SWEEP_DEADLINE: f64 = 120.0;

/// A whole-object get through some front end (in-process context,
/// sharded context or network client).
pub type Getter = Box<dyn FnMut(&[u8]) -> dstore::DsResult<Vec<u8>> + Send>;

/// A sweep client.
pub struct Sweep {
    get: Getter,
    next: u64,
    expected: Vec<u64>,
}

/// Reads every shared key back through `gets` (one client each, client
/// `c` checking keys `c`, `c + clients`, …) and checks it against the
/// model. Returns the sweep's record and the number of keys.
pub fn sweep_keys(
    gets: Vec<Getter>,
    model: &Arc<KeyModel>,
    names: &Arc<Vec<Vec<u8>>>,
    trace: bool,
) -> (PhaseOut<Sweep>, u64) {
    let clients = gets.len() as u64;
    let states = gets
        .into_iter()
        .enumerate()
        .map(|(c, get)| Sweep {
            get,
            next: c as u64,
            expected: Vec::new(),
        })
        .collect();
    let (model, names) = (Arc::clone(model), Arc::clone(names));
    let keys = model.len();
    let op: OpFn<Sweep> = Arc::new(move |_, s, rec| {
        rec.begin_op();
        let key = s.next;
        s.next += clients;
        let floor = model.begin_read(key);
        let (r, ns) = rec.call("core", "get", || (s.get)(&names[key as usize]));
        let verdict = r.and_then(|v| model.check_read(key, floor, &v).map(drop));
        rec.end_op("sweep_get", true, ns, verdict);
        s.next < keys
    });
    (run_phase(states, trace, SWEEP_DEADLINE, op), keys)
}

/// Loads version 1 of every key of `model` through `put`, from one
/// thread. (A two-thread load of `ycsb_b`'s 200 k objects hit the
/// optimistic-lock-coupling insert panic, `slab.rs` "resolving null
/// RelPtr", in 2 of 4 runs; concurrent inserts are left to the
/// `meta_churn` workload.)
pub fn preload(
    model: &KeyModel,
    names: &[Vec<u8>],
    len: usize,
    mut put: impl FnMut(&[u8], &[u8]) -> dstore::DsResult<()>,
) -> Result<(), String> {
    let mut buf = Vec::new();
    for k in 0..model.len() {
        encode_value(k, 1, len, &mut buf);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            put(&names[k as usize], &buf)
        })) {
            Ok(Ok(())) => model.preloaded(k),
            Ok(Err(e)) => return Err(format!("preload of key {k}: {e}")),
            Err(_) => return Err(format!("preload of key {k}: the store panicked")),
        }
    }
    Ok(())
}

/// Writes a new version of shared key `key` through `put` (as writer 0,
/// with no other writer running) and records it in the model.
pub fn put_key(
    model: &KeyModel,
    names: &[Vec<u8>],
    key: u64,
    len: usize,
    buf: &mut Vec<u8>,
    mut put: impl FnMut(&[u8], &[u8]) -> dstore::DsResult<()>,
) -> dstore::DsResult<()> {
    let v = model.begin_write(key, 0);
    encode_value(key, v, len, buf);
    let r = put(&names[key as usize], buf);
    model.end_write(key, 0, r.is_ok());
    r
}

/// SSD command counts (the telemetry snapshot carries only bytes).
pub fn add_device_counters(c: &mut Counters, store: &DStore) {
    let s = store.ssd().stats().snapshot();
    c.add("ssd_write_ops", s.write_ops as f64);
    c.add("ssd_read_ops", s.read_ops as f64);
}
