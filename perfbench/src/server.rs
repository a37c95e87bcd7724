//! `server_mixed`: pipelined network clients against `dstore-server`
//! over a 2-shard `ShardedStore` on loopback.

use crate::bench::Bench;
use crate::gen::{encode_value, key_name, seeded_picker, Fault, KeyDist, OpKind, YcsbStream};
use crate::harness::{now_ns, OpFn, PhaseOut, Recorder};
use crate::inproc::{preload, put_key, sweep_keys, Getter, Sweep};
use crate::model::KeyModel;
use crate::stats::Counters;
use dstore::{DStoreConfig, Footprint, RecoveryReport};
use dstore_protocol::{DStoreClient, Request, Response};
use dstore_server::{Server, ServerConfig};
use dstore_shard::{SchedulerConfig, ShardedConfig, ShardedStore};
use dstore_telemetry::TelemetrySnapshot;
use dstore_workload::ScrambledZipfian;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Shards behind the server.
pub const SHARDS: u32 = 2;
/// Client connections.
pub const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight.
pub const DEPTH: usize = 2;
/// Keys, preloaded.
pub const KEYS: u64 = 20_000;
/// Value size, bytes.
pub const VALUE_LEN: usize = 4096;
/// A response slower than this is a stall.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// The server, its store and what the store is expected to hold.
pub struct Env {
    /// The sharded store behind the server.
    store: Arc<ShardedStore>,
    /// The running server (`None` once shut down).
    server: Option<Server>,
    /// Connection for the telemetry RPC, used only between phases.
    control: Option<DStoreClient>,
    /// Versions and floors of the keys.
    model: Arc<KeyModel>,
    /// Key names, by id.
    names: Arc<Vec<Vec<u8>>>,
    seed: u64,
}

/// A request in flight.
struct Pending {
    id: u64,
    kind: OpKind,
    key: u64,
    /// Get: the floor at submit. Update: the writer slot.
    aux: u64,
    submitted: u64,
}

/// A connection's state during the timed phase.
pub struct Client {
    /// The connection.
    conn: DStoreClient,
    stream: YcsbStream,
    inflight: VecDeque<Pending>,
    seq: u64,
    buf: Vec<u8>,
}

/// The shard configuration: `DStoreConfig::bench()` with `trace`.
pub fn config(trace: dstore_telemetry::TraceConfig) -> ShardedConfig {
    ShardedConfig::new(SHARDS, DStoreConfig::bench().with_trace(trace))
}

fn connect(addr: std::net::SocketAddr) -> Result<DStoreClient, String> {
    let mut c = DStoreClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    Ok(c)
}

impl Env {
    /// Creates the store, preloads version 1 of every key in-process,
    /// and starts the server.
    pub fn setup(seed: u64, cfg: ShardedConfig) -> Result<Env, String> {
        let store = Arc::new(ShardedStore::create(cfg).map_err(|e| format!("create: {e}"))?);
        let model = Arc::new(KeyModel::new(KEYS));
        let names: Arc<Vec<Vec<u8>>> = Arc::new((0..KEYS).map(key_name).collect());
        let ctx = store.context();
        preload(&model, &names, VALUE_LEN, |k, v| ctx.put(k, v))?;
        drop(ctx);
        let server = Server::start(Arc::clone(&store), ServerConfig::default())
            .map_err(|e| format!("server: {e}"))?;
        // Set-up ends when a client can talk to the server.
        let control = Some(connect(server.local_addr())?);
        Ok(Env {
            store,
            server: Some(server),
            control,
            model,
            names,
            seed,
        })
    }

    /// Stops the server, draining it.
    fn stop_server(&mut self) {
        self.control = None;
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

impl Bench for Env {
    type Client = Client;

    fn store_config(&self) -> DStoreConfig {
        self.store.shard(0).config().clone()
    }

    fn describe(&self) -> Vec<(String, String)> {
        vec![
            ("clients".into(), CONNECTIONS.to_string()),
            ("pipeline_depth".into(), DEPTH.to_string()),
            ("shards".into(), SHARDS.to_string()),
            ("control_connections".into(), "1".into()),
        ]
    }

    fn clients(&mut self, stream_base: u64) -> Result<Vec<Client>, String> {
        (0..CONNECTIONS)
            .map(|c| {
                Ok(Client {
                    conn: connect(self.server.as_ref().ok_or("server stopped")?.local_addr())?,
                    stream: YcsbStream::new(
                        self.seed,
                        stream_base + c as u64,
                        KeyDist::Zipfian(ScrambledZipfian::new(KEYS)),
                        50,
                    ),
                    inflight: VecDeque::new(),
                    seq: 0,
                    buf: Vec::new(),
                })
            })
            .collect()
    }

    /// One op of a timed phase: top the pipeline up to [`DEPTH`]
    /// requests, then collect the oldest response. Its latency runs from
    /// its submit to its collection.
    fn op(&self) -> OpFn<Client> {
        let model = Arc::clone(&self.model);
        let names = Arc::clone(&self.names);
        Arc::new(move |i, c, rec: &mut Recorder| {
            rec.begin_op();
            while c.inflight.len() < DEPTH {
                let (kind, key) = c.stream.next_op();
                let name = names[key as usize].clone();
                let (req, aux) = if kind == OpKind::Get {
                    (Request::Get { key: name }, model.begin_read(key))
                } else {
                    let slot = i * DEPTH + (c.seq as usize % DEPTH);
                    let v = model.begin_write(key, slot);
                    encode_value(key, v, VALUE_LEN, &mut c.buf);
                    (
                        Request::Put {
                            key: name,
                            value: c.buf.clone(),
                        },
                        slot as u64,
                    )
                };
                c.seq += 1;
                let submitted = now_ns();
                let conn = &mut c.conn;
                let (id, _) = rec.call("protocol", "submit", || Ok(conn.submit(&req)));
                c.inflight.push_back(Pending {
                    id: id.unwrap_or(0),
                    kind,
                    key,
                    aux,
                    submitted,
                });
            }
            let conn = &mut c.conn;
            let (flushed, _) = rec.call("protocol", "flush", || conn.flush());
            let p = c.inflight.pop_front().expect("pipeline is topped up");
            let (r, _) = match flushed {
                Ok(()) => rec.call("protocol", "wait", || conn.wait(p.id)),
                Err(f) => (Err(f), 0),
            };
            let latency = now_ns() - p.submitted;
            if p.kind == OpKind::Get {
                let verdict = r.and_then(|resp| match resp {
                    Response::Value(v) => model.check_read(p.key, p.aux, &v).map(drop),
                    _ => Err(Fault::Error),
                });
                rec.end_op("get", true, latency, verdict);
            } else {
                let verdict = r.and_then(|resp| match resp {
                    Response::Ok => Ok(()),
                    _ => Err(Fault::Error),
                });
                if verdict.is_ok() {
                    rec.user_bytes += VALUE_LEN as u64;
                }
                model.end_write(p.key, p.aux as usize, verdict.is_ok());
                rec.end_op("update", false, latency, verdict);
            }
            true
        })
    }

    /// Collects the responses still in flight (checked like any other
    /// response; not timed).
    fn finish(&mut self, clients: Vec<Client>) -> (u64, u64) {
        let (mut completed, mut faults) = (0, 0);
        for mut c in clients {
            while let Some(p) = c.inflight.pop_front() {
                let ok = match c.conn.wait(p.id) {
                    Ok(Response::Value(v)) if p.kind == OpKind::Get => {
                        self.model.check_read(p.key, p.aux, &v).is_ok()
                    }
                    Ok(Response::Ok) if p.kind != OpKind::Get => true,
                    _ => false,
                };
                if p.kind != OpKind::Get {
                    self.model.end_write(p.key, p.aux as usize, ok);
                }
                completed += 1;
                faults += u64::from(!ok);
            }
        }
        (completed, faults)
    }

    /// The telemetry RPC over the control connection (store and server
    /// series; in-process once the server is stopped) plus SSD command
    /// counts, summed over shards.
    fn counters(&mut self) -> Result<(Counters, TelemetrySnapshot), String> {
        let snap = match &mut self.control {
            Some(c) => c
                .telemetry_snapshot()
                .map_err(|e| format!("telemetry RPC: {e}"))?,
            None => self.store.telemetry_snapshot(),
        };
        let mut c = Counters::from_snapshot(&snap);
        for i in 0..self.store.shard_count() as usize {
            crate::inproc::add_device_counters(&mut c, self.store.shard(i));
        }
        Ok((c, snap))
    }

    fn footprint(&self) -> Footprint {
        self.store.footprint()
    }

    fn health(&self) -> String {
        format!("{:?}", self.store.health_per_shard())
    }

    fn shard_ops(&self) -> Vec<f64> {
        (0..self.store.shard_count() as usize)
            .map(|i| self.store.shard(i).stats().snapshot().total_ops() as f64)
            .collect()
    }

    /// Over [`CONNECTIONS`] fresh connections while the server runs;
    /// in-process after a crash/recovery cycle stopped it.
    fn sweep(&self, trace: bool) -> Result<(PhaseOut<Sweep>, u64), String> {
        let gets = (0..CONNECTIONS)
            .map(|_| match &self.server {
                Some(s) => {
                    let mut conn = connect(s.local_addr())?;
                    Ok(Box::new(move |k: &[u8]| conn.get(k)) as Getter)
                }
                None => {
                    let ctx = self.store.context();
                    Ok(Box::new(move |k: &[u8]| ctx.get(k)) as Getter)
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(sweep_keys(gets, &self.model, &self.names, trace))
    }

    fn checkpoint(&mut self) {
        self.stop_server();
        self.store.checkpoint_now();
    }

    /// In-process through the sharded context (the server is stopped).
    fn burst(&mut self, k: u64, cycle: u64) -> Vec<Fault> {
        let ctx = self.store.context();
        let mut buf = Vec::new();
        let mut pick = seeded_picker(self.seed, cycle);
        (0..k)
            .filter_map(|_| {
                let key = pick(KEYS);
                put_key(
                    &self.model,
                    &self.names,
                    key,
                    VALUE_LEN,
                    &mut buf,
                    |n, v| ctx.put(n, v),
                )
                .err()
                .map(|_| Fault::Error)
            })
            .collect()
    }

    /// Crashes every shard and recovers the fleet; the report is the
    /// shards' reports summed.
    fn crash_and_recover(mut self) -> Result<(Env, f64, RecoveryReport), String> {
        self.stop_server();
        let store = Arc::try_unwrap(self.store)
            .map_err(|_| "a stalled client still holds the store".to_string())?;
        let images = store.crash();
        let t = std::time::Instant::now();
        let store = ShardedStore::recover(images, SchedulerConfig::default())
            .map_err(|e| format!("recover: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        let report = store
            .recovery_reports()
            .iter()
            .fold(RecoveryReport::default(), |mut a, r| {
                a.redo_records += r.redo_records;
                a.replayed_records += r.replayed_records;
                a.metadata_ns += r.metadata_ns;
                a.replay_ns += r.replay_ns;
                a
            });
        let env = Env {
            store: Arc::new(store),
            ..self
        };
        Ok((env, secs, report))
    }
}
