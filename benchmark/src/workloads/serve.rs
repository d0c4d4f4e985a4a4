//! `serve-closed` and `serve-open`: the hot mix and keys through the
//! daemon, first with callers that wait for each reply, then on a Poisson
//! schedule that does not.

use std::io::Cursor;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fork_query::{Lookup, Query, QueryRange};
use fork_replay::Side;
use fork_serve::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    Request, RequestBody, Response, ResponseBody, ServeClient, ServeConfig, Server, ServerHandle,
    STAGES,
};
use fork_telemetry::{Histogram, Snapshot, TimingMode};

use crate::fixture::Answer;
use crate::gen::{self, Op, HOT_MIX, OPEN_MIX};
use crate::harness::{ns_per_call, secs, Env, Layers, Rep, Tally, Workload};
use crate::stats;
use crate::tempdir::TempDir;
use crate::trace::Lane;
use crate::workloads::reanalyze::{closed_loop, warm_ops, Client, HotState};

/// `serve-open` arrival rate, requests per second over all connections.
pub const OPEN_RATE: f64 = 400.0;
/// A request sent more than this long after it was due counts as late.
pub const LATE_NS: u64 = 1_000_000;
/// Latency limit the rate ladder is judged against.
pub const LADDER_LIMIT_US: f64 = 20_000.0;
/// How long a receiver waits for a missing response before giving up.
const RECV_TIMEOUT: Duration = Duration::from_secs(3);

const STAGE_SPANS: [&str; 5] = [
    "serve.stage.read",
    "serve.stage.admit",
    "serve.stage.queue",
    "serve.stage.execute",
    "serve.stage.write",
];

/// One raw connection speaking the daemon's public wire functions — what
/// `ServeClient` does, with ids the benchmark chooses so a server-side
/// slow-log entry can be matched to its client span.
struct Conn {
    stream: TcpStream,
    /// High bits of every id sent on this connection.
    tag: u64,
    sent: u64,
}

impl Conn {
    fn connect(addr: SocketAddr, index: usize) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RECV_TIMEOUT))?;
        Ok(Conn {
            stream,
            tag: (index as u64 + 1) << 32,
            sent: 0,
        })
    }

    fn request(&mut self, id: u64, body: RequestBody) -> Result<Answer, String> {
        write_frame(&mut self.stream, &encode_request(&Request { id, body }))
            .map_err(|e| e.to_string())?;
        let payload = read_frame(&mut self.stream).map_err(|e| format!("{e:?}"))?;
        let resp = decode_response(&payload).map_err(|e| format!("{e:?}"))?;
        if resp.id != id {
            return Err(format!("response {} for request {id}", resp.id));
        }
        answer_of(resp.body)
    }
}

/// The served client: depth 1 on its own connection, spot-checked against
/// the local pool's answer.
impl Client for Conn {
    fn next_id(&mut self) -> u64 {
        self.sent += 1;
        self.tag + self.sent
    }

    fn span(&self, _op: &Op) -> &'static str {
        "serve.call"
    }

    fn call(&mut self, id: u64, op: &Op) -> Option<Answer> {
        self.request(id, body_of(op)).ok()
    }

    fn spot_check(&self, st: &HotState, op: &Op, answer: &Answer) -> bool {
        st.matches_local(op, answer)
    }
}

fn body_of(op: &Op) -> RequestBody {
    match op {
        Op::Lookup(l) => RequestBody::Lookup(*l),
        Op::Query(q) => RequestBody::Query(*q),
    }
}

fn answer_of(body: ResponseBody) -> Result<Answer, String> {
    match body {
        ResponseBody::Output(out) => Ok(Answer::Query(out)),
        ResponseBody::Lookup(out) => Ok(Answer::Lookup(out)),
        ResponseBody::Error(e) => Err(e.kind.label().to_string()),
        other => Err(format!("unexpected response {other:?}")),
    }
}

/// The archive, the daemon over it, and N open connections.
struct Served {
    hot: HotState,
    server: Option<ServerHandle>,
    addr: SocketAddr,
    conns: Vec<Conn>,
}

fn serve_config(env: &Env, dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        cache_bytes: env.sizes.cache_bytes,
        ..ServeConfig::new(dir)
    }
}

impl Served {
    /// Archive, daemon start, hash index (built by the daemon's first
    /// lookup), hot region pulled into the daemon's cache, N connections.
    fn start(env: &Env, tag: &str) -> Served {
        let hot = HotState::build(env, tag, false);
        let server = Server::start(serve_config(env, hot.fx.path())).expect("start daemon");
        let addr = server.local_addr();
        let mut control = ServeClient::connect(addr).expect("connect control client");
        let first = hot.fx.gen.hot.block_hashes[0];
        control
            .lookup(&Lookup::BlockByHash { hash: first })
            .expect("first lookup builds the hash index");
        for op in warm_ops(&hot.fx) {
            if let Op::Query(q) = op {
                control.query(&q).expect("warm the daemon's cache");
            }
        }
        let conns = (0..env.n)
            .map(|i| Conn::connect(addr, i).expect("connect"))
            .collect();
        Served {
            hot,
            server: Some(server),
            addr,
            conns,
        }
    }

    /// The check phase: sampled ops of `mix` through the first connection
    /// against naive scans.
    fn check(&mut self, env: &Env, mix: gen::Mix) -> Tally {
        // The reference pool's index and cache fill here, not at whichever
        // timed op happens to be the first one spot-checked.
        self.hot.warm_local();
        let conn = &mut self.conns[0];
        self.hot.check_against_naive(env, mix, |op| {
            let id = conn.next_id();
            conn.call(id, op)
        })
    }

    fn stats(&self) -> Snapshot {
        let mut control = ServeClient::connect(self.addr).expect("connect control client");
        Snapshot::from_json(&control.stats().expect("stats")).expect("stats payload parses")
    }

    fn stop(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Server stage means, end-to-end percentiles, shed counters and the
/// daemon's cache counters, scraped through `stats()`.
fn scrape_layers(snap: &Snapshot, client_p50: f64, client_p99: f64, layers: &mut Layers) {
    for (stage, name) in STAGES.iter().zip([
        "serve.stage.read_us",
        "serve.stage.admit_us",
        "serve.stage.queue_us",
        "serve.stage.execute_us",
        "serve.stage.write_us",
    ]) {
        if let Some(h) = snap.histograms.get(&format!("serve.stage.{stage}")) {
            layers.set(name, h.mean());
        }
    }
    if let Some(total) = snap.histograms.get("serve.stage.total") {
        let (p50, p99) = (total.p50() as f64, total.p99() as f64);
        layers.set("serve.server.p50_us", p50);
        layers.set("serve.server.p99_us", p99);
        layers.set("serve.gap.p50_us", client_p50 - p50);
        layers.set("serve.gap.p99_us", client_p99 - p99);
    }
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    layers.set(
        "serve.shed.overloaded",
        counter("serve.rejected.overloaded"),
    );
    layers.set(
        "serve.shed.backpressure",
        counter("serve.rejected.backpressure"),
    );
    let (hits, misses) = (counter("query.cache.hit"), counter("query.cache.miss"));
    if hits + misses > 0.0 {
        layers.set("query.cache.hit_rate", hits / (hits + misses));
    }
}

/// Attaches the daemon's worst requests' stage waterfalls under the client
/// spans that carried the same correlation id.
fn attach_slow_log(addr: SocketAddr, lanes: &mut [Lane]) {
    let Ok(mut control) = ServeClient::connect(addr) else {
        return;
    };
    let Ok(log) = control.obs_slow_log() else {
        return;
    };
    for entry in log {
        for lane in lanes.iter_mut() {
            let Some(call) = lane
                .spans()
                .iter()
                .find(|s| s.op == entry.id && s.name == "serve.call")
                .cloned()
            else {
                continue;
            };
            // The server's clock is not the client's: centre its account
            // of the request inside the client's span.
            let slack = (call.end_ns - call.start_ns).saturating_sub(entry.total_us * 1_000);
            let mut at = call.start_ns + slack / 2;
            let st = entry.stages;
            for (name, us) in STAGE_SPANS.iter().zip([
                st.read_us,
                st.admit_us,
                st.queue_us,
                st.execute_us,
                st.write_us,
            ]) {
                lane.attach(name, call.id, entry.id, at, at + us * 1_000);
                at += us * 1_000;
            }
        }
    }
}

/// `serve-closed`.
#[derive(Default)]
pub struct Closed {
    sv: Option<Served>,
    reps_done: u64,
    naive_checked: u64,
    last: (f64, f64),
}

impl Workload for Closed {
    fn setup(&mut self, env: &Env) {
        self.teardown();
        self.sv = Some(Served::start(env, "closed"));
    }

    fn check(&mut self, env: &Env) -> Tally {
        let tally = self.sv.as_mut().expect("set up").check(env, HOT_MIX);
        self.naive_checked = tally.attempted;
        tally
    }

    fn rep(&mut self, env: &Env, budget: Duration, trace: Option<Instant>) -> Rep {
        let sv = self.sv.as_mut().expect("set up");
        let base = self.reps_done * env.n as u64;
        self.reps_done += 1;
        let mut rep = closed_loop(&sv.hot, env, &mut sv.conns, base, budget, trace);
        if trace.is_some() {
            attach_slow_log(sv.addr, &mut rep.lanes);
        }
        self.last = (
            stats::percentile(&rep.lat_us, 50.0),
            stats::percentile(&rep.lat_us, 99.0),
        );
        rep
    }

    fn probes(&mut self, env: &Env, layers: &mut Layers) {
        let sv = self.sv.as_mut().expect("set up");
        layers.set("query.naive_checked", self.naive_checked as f64);
        scrape_layers(&sv.stats(), self.last.0, self.last.1, layers);

        // The floor: a round trip with no query work.
        let mut control = ServeClient::connect(sv.addr).expect("connect");
        let ping_ns = ns_per_call(Duration::from_millis(400), || {
            control.ping().expect("ping");
        });
        layers.set("serve.ping.rtt_us", ping_ns / 1e3);
        let threads = std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count());
        layers.set("serve.threads", threads as f64);

        // The same mix and keys in process: what the serve layer adds.
        sv.hot.warm_local();
        let local = closed_loop(
            &sv.hot,
            env,
            &mut sv.hot.local_clients(env, 0xAB00),
            0xAB00,
            Duration::from_millis(500),
            None,
        );
        layers.set(
            "serve.overhead_ratio",
            self.last.0 / stats::percentile(&local.lat_us, 50.0).max(1e-3),
        );

        wire_layers(&sv.hot, layers);

        // Start cost alone, and the tracing on/off race on fresh daemons.
        let dir = sv.hot.fx.path().to_path_buf();
        let (start_s, plain) = secs(|| {
            Server::start(ServeConfig {
                tracing: false,
                ..serve_config(env, &dir)
            })
            .expect("start untraced daemon")
        });
        layers.set("serve.start_ms", start_s * 1e3);
        let mut plain_conns: Vec<Conn> = (0..env.n)
            .map(|i| Conn::connect(plain.local_addr(), i).expect("connect"))
            .collect();
        for op in warm_ops(&sv.hot.fx) {
            let id = plain_conns[0].next_id();
            plain_conns[0].call(id, &op).expect("warm");
        }
        let slice = Duration::from_secs_f64(env.seconds / 15.0);
        let mut ratios = Vec::new();
        for pair in 0..5u64 {
            let base = 0xCD00 + pair * env.n as u64;
            let on = closed_loop(&sv.hot, env, &mut sv.conns, base, slice, None);
            let off = closed_loop(&sv.hot, env, &mut plain_conns, base, slice, None);
            if on.ops > 0 && off.ops > 0 {
                ratios.push((on.ops as f64 / on.wall_s) / (off.ops as f64 / off.wall_s));
            }
        }
        layers.set("serve.tracing.overhead_ratio", stats::median(&ratios));
        drop(plain_conns);
        plain.shutdown();

        // The explorer's site, from disk and through the daemon.
        let site = TempDir::under(&env.out, "site");
        let (local_s, _) = secs(|| {
            let mut src = fork_explorer::source::ExplorerSource::open(&dir).expect("open");
            fork_explorer::render::render_site(&mut src, site.path()).expect("render")
        });
        layers.set("explorer.site.local_ms", local_s * 1e3);
        let (served_s, _) = secs(|| {
            let mut src = fork_explorer::source::ExplorerSource::connect(&sv.addr.to_string())
                .expect("connect");
            fork_explorer::render::render_site(&mut src, site.path()).expect("render")
        });
        layers.set("explorer.site.served_ms", served_s * 1e3);

        // Telemetry: one histogram record, and the stats() payload codec.
        let h = Histogram::new();
        let mut v = 0u64;
        let record_ns = ns_per_call(Duration::from_millis(50), || {
            v = v.wrapping_add(977);
            h.record(std::hint::black_box(v & 0xFFFF));
        });
        layers.set("telemetry.histogram.record_ns", record_ns);
        let json = control.stats().expect("stats");
        let codec_ns = ns_per_call(Duration::from_millis(100), || {
            let snap = Snapshot::from_json(&json).expect("parse");
            std::hint::black_box(snap.to_json(TimingMode::Wall).len());
        });
        layers.set(
            "telemetry.snapshot.json_mb_per_s",
            2.0 * json.len() as f64 / 1e6 / (codec_ns / 1e9),
        );
    }

    fn bytes_per_record(&self) -> Option<f64> {
        self.sv.as_ref().map(|sv| sv.hot.fx.bytes_per_record())
    }

    fn teardown(&mut self) {
        if let Some(mut sv) = self.sv.take() {
            sv.stop();
        }
    }
}

/// Wire codec and frame sealing on memory: a point-lookup request and a
/// 4,096-block `Blocks` response.
fn wire_layers(hot: &HotState, layers: &mut Layers) {
    let request = Request {
        id: 7,
        body: RequestBody::Lookup(Lookup::BlockByHash {
            hash: hot.fx.gen.hot.block_hashes[0],
        }),
    };
    let encoded = encode_request(&request);
    let enc_ns = ns_per_call(Duration::from_millis(50), || {
        std::hint::black_box(encode_request(std::hint::black_box(&request)).len());
    });
    let dec_ns = ns_per_call(Duration::from_millis(50), || {
        std::hint::black_box(decode_request(std::hint::black_box(&encoded)).is_ok());
    });
    layers.set("serve.wire.encode_request_ns", enc_ns);
    layers.set("serve.wire.decode_request_ns", dec_ns);

    let (first, _) = hot.fx.gen.hot.eth_numbers;
    let blocks = hot
        .exec
        .run(
            &hot.pool,
            &Query {
                side: Some(Side::Eth),
                range: QueryRange::Blocks {
                    first,
                    last: first + 4_095,
                },
                projection: fork_query::Projection::Blocks,
            },
        )
        .expect("4,096-block window");
    let response = Response {
        id: 7,
        body: ResponseBody::Output(blocks),
    };
    let payload = encode_response(&response);
    let mb = payload.len() as f64 / 1e6;
    let enc_ns = ns_per_call(Duration::from_millis(100), || {
        std::hint::black_box(encode_response(std::hint::black_box(&response)).len());
    });
    let dec_ns = ns_per_call(Duration::from_millis(100), || {
        std::hint::black_box(decode_response(std::hint::black_box(&payload)).is_ok());
    });
    layers.set("serve.wire.encode_response_mb_per_s", mb / (enc_ns / 1e9));
    layers.set("serve.wire.decode_response_mb_per_s", mb / (dec_ns / 1e9));

    let mut sealed = Vec::with_capacity(payload.len() + 64);
    let seal_ns = ns_per_call(Duration::from_millis(100), || {
        sealed.clear();
        write_frame(&mut sealed, &payload).expect("seal to memory");
    });
    let open_ns = ns_per_call(Duration::from_millis(100), || {
        std::hint::black_box(read_frame(&mut Cursor::new(&sealed)).is_ok());
    });
    layers.set("serve.frame.seal_mb_per_s", mb / (seal_ns / 1e9));
    layers.set("serve.frame.open_mb_per_s", mb / (open_ns / 1e9));
}

/// One request of an open-loop run, as the generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent {
    /// When the schedule wanted it sent (ns from the run's start).
    pub due_ns: u64,
    /// When it actually left.
    pub sent_ns: u64,
    /// When its response arrived; `None` if it never did.
    pub done_ns: Option<u64>,
    /// Whether the response was a correct, non-error answer.
    pub ok: bool,
    /// Requests in flight on its connection right after it was sent.
    pub inflight: u32,
}

/// What an open-loop run adds up to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenAccount {
    /// Latencies of completed requests, µs, each timed from its due
    /// instant, so a stall is charged to every request it delayed.
    pub lat_us: Vec<f64>,
    /// Requests answered correctly.
    pub completed: u64,
    /// Requests refused, errored, wrong, or never answered.
    pub failed: u64,
    /// Share of requests sent more than [`LATE_NS`] after they were due.
    pub late_share: f64,
    /// 99th percentile of generator lateness, µs.
    pub late_p99_us: f64,
    /// Most requests in flight on one connection.
    pub inflight_max: u32,
    /// Whether the backlog at the end of the schedule was well above the
    /// backlog at its start.
    pub backlog_growing: bool,
}

/// Adds up one open-loop run.
pub fn account(reqs: &[Sent]) -> OpenAccount {
    let mut acc = OpenAccount::default();
    let mut lateness: Vec<f64> = Vec::with_capacity(reqs.len());
    for r in reqs {
        let late = r.sent_ns.saturating_sub(r.due_ns);
        lateness.push(late as f64 / 1e3);
        acc.late_share += (late > LATE_NS) as u64 as f64;
        acc.inflight_max = acc.inflight_max.max(r.inflight);
        match r.done_ns {
            Some(done) if r.ok => {
                acc.completed += 1;
                acc.lat_us.push(done.saturating_sub(r.due_ns) as f64 / 1e3);
            }
            _ => acc.failed += 1,
        }
    }
    acc.late_share /= reqs.len().max(1) as f64;
    acc.late_p99_us = stats::percentile(&lateness, 99.0);
    let quarter = reqs.len() / 4;
    if quarter > 0 {
        let mean =
            |s: &[Sent]| s.iter().map(|r| f64::from(r.inflight)).sum::<f64>() / s.len() as f64;
        let mut by_due = reqs.to_vec();
        by_due.sort_by_key(|r| r.due_ns);
        let (head, tail) = (
            mean(&by_due[..quarter]),
            mean(&by_due[by_due.len() - quarter..]),
        );
        acc.backlog_growing = tail > 2.0 * head + 8.0;
    }
    acc
}

/// Runs one open-loop schedule at `rate` requests per second over all
/// connections for `secs` seconds. Each connection has a sender that
/// sleeps until the next due instant and a receiver that blocks on the
/// socket, so neither waits for the other.
fn open_run(
    hot: &HotState,
    addr: SocketAddr,
    env: &Env,
    stream_base: u64,
    rate: f64,
    secs: f64,
    trace: Option<Instant>,
) -> (Vec<Sent>, f64, Vec<Lane>) {
    struct Plan {
        /// High bits of every id on this connection. The stream number is
        /// in it, so no two runs against one daemon (whose slow log
        /// outlives a run) ever reuse an id.
        tag: u64,
        due: Vec<u64>,
        ops: Vec<Op>,
        frames: Vec<Vec<u8>>,
    }
    let plans: Vec<Plan> = (0..env.n as u64)
        .map(|c| {
            let tag = (stream_base + c + 1) << 32;
            let due = gen::poisson_arrivals(env.seed, stream_base + c, rate / env.n as f64, secs);
            let mut sampler = hot.sampler(env, OPEN_MIX, stream_base + c);
            let ops: Vec<Op> = due.iter().map(|_| sampler.next_op()).collect();
            let frames = ops
                .iter()
                .enumerate()
                .map(|(i, op)| {
                    encode_request(&Request {
                        id: tag + i as u64 + 1,
                        body: body_of(op),
                    })
                })
                .collect();
            Plan {
                tag,
                due,
                ops,
                frames,
            }
        })
        .collect();

    let started = Instant::now();
    let results: Vec<(Vec<Sent>, Option<Lane>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| {
                scope.spawn(move || {
                    let total = plan.due.len();
                    let mut write_half = TcpStream::connect(addr).expect("connect");
                    write_half.set_nodelay(true).expect("nodelay");
                    let mut read_half = write_half.try_clone().expect("clone socket");
                    read_half
                        .set_read_timeout(Some(RECV_TIMEOUT))
                        .expect("read timeout");
                    let received = AtomicU64::new(0);
                    let sender_done = AtomicBool::new(false);
                    let now = || started.elapsed().as_nanos() as u64;

                    let (sent_ns, inflight, done) = std::thread::scope(|inner| {
                        let receiver = inner.spawn(|| {
                            let mut done: Vec<(Option<u64>, bool)> = vec![(None, false); total];
                            let mut got = 0;
                            while got < total {
                                let payload = match read_frame(&mut read_half) {
                                    Ok(p) => p,
                                    // A quiet socket is only final once the
                                    // sender has nothing more to send.
                                    Err(_) if !sender_done.load(Ordering::SeqCst) => continue,
                                    Err(_) => break,
                                };
                                let at = now();
                                got += 1;
                                received.fetch_add(1, Ordering::Relaxed);
                                let Ok(resp) = decode_response(&payload) else {
                                    continue;
                                };
                                let i = (resp.id & 0xFFFF_FFFF) as usize;
                                if i == 0 || i > total {
                                    continue;
                                }
                                let ok = match answer_of(resp.body) {
                                    Ok(a) if resp.id.is_multiple_of(64) => {
                                        hot.matches_local(&plan.ops[i - 1], &a)
                                    }
                                    Ok(_) => true,
                                    Err(_) => false,
                                };
                                done[i - 1] = (Some(at), ok);
                            }
                            done
                        });
                        let mut sent_ns = Vec::with_capacity(total);
                        let mut inflight = Vec::with_capacity(total);
                        for (due, frame) in plan.due.iter().zip(&plan.frames) {
                            let wait = due.saturating_sub(now());
                            if wait > 0 {
                                std::thread::sleep(Duration::from_nanos(wait));
                            }
                            sent_ns.push(now());
                            if write_frame(&mut write_half, frame).is_err() {
                                break;
                            }
                            let out = (sent_ns.len() as u64)
                                .saturating_sub(received.load(Ordering::Relaxed));
                            inflight.push(out as u32);
                        }
                        sender_done.store(true, Ordering::SeqCst);
                        (sent_ns, inflight, receiver.join().expect("receiver thread"))
                    });

                    let sent: Vec<Sent> = (0..total)
                        .map(|i| Sent {
                            due_ns: plan.due[i],
                            sent_ns: sent_ns.get(i).copied().unwrap_or(0),
                            done_ns: done[i].0,
                            ok: done[i].1,
                            inflight: inflight.get(i).copied().unwrap_or(0),
                        })
                        .collect();
                    // Spans are laid down afterwards: an op runs from its
                    // due instant to its response, the wire call under it
                    // from the actual send.
                    let lane = trace.map(|origin| {
                        let mut lane = Lane::new(origin, c as u32);
                        let offset = started.duration_since(origin).as_nanos() as u64;
                        let end = offset + now();
                        let rep = lane.attach("repetition", 0, 0, offset, end);
                        for (i, s) in sent.iter().enumerate() {
                            let Some(done) = s.done_ns else { continue };
                            let id = plan.tag + i as u64 + 1;
                            let op = lane.attach("op", rep, id, offset + s.due_ns, offset + done);
                            lane.attach("serve.call", op, id, offset + s.sent_ns, offset + done);
                        }
                        lane
                    });
                    (sent, lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut all = Vec::new();
    let mut lanes = Vec::new();
    for (sent, lane) in results {
        all.extend(sent);
        lanes.extend(lane);
    }
    (all, wall_s, lanes)
}

/// `serve-open`.
#[derive(Default)]
pub struct Open {
    sv: Option<Served>,
    reps_done: u64,
    naive_checked: u64,
    last: OpenAccount,
}

impl Workload for Open {
    fn setup(&mut self, env: &Env) {
        self.teardown();
        self.sv = Some(Served::start(env, "open"));
    }

    fn check(&mut self, env: &Env) -> Tally {
        let tally = self.sv.as_mut().expect("set up").check(env, OPEN_MIX);
        self.naive_checked = tally.attempted;
        tally
    }

    fn rep(&mut self, env: &Env, budget: Duration, trace: Option<Instant>) -> Rep {
        let sv = self.sv.as_ref().expect("set up");
        let base = 0x1000 + self.reps_done * env.n as u64;
        self.reps_done += 1;
        let (sent, wall_s, mut lanes) = open_run(
            &sv.hot,
            sv.addr,
            env,
            base,
            OPEN_RATE,
            budget.as_secs_f64(),
            trace,
        );
        if trace.is_some() {
            attach_slow_log(sv.addr, &mut lanes);
        }
        let acc = account(&sent);
        let rep = Rep {
            wall_s,
            ops: acc.completed,
            attempted: acc.completed + acc.failed,
            failed: acc.failed,
            lat_us: acc.lat_us.clone(),
            lanes,
        };
        self.last = acc;
        rep
    }

    fn probes(&mut self, env: &Env, layers: &mut Layers) {
        let sv = self.sv.as_ref().expect("set up");
        layers.set("query.naive_checked", self.naive_checked as f64);
        let p = |q| stats::percentile(&self.last.lat_us, q);
        scrape_layers(&sv.stats(), p(50.0), p(99.0), layers);
        layers.set("serve.inflight.max", f64::from(self.last.inflight_max));
        layers.set("serve.open.late_share", self.last.late_share);
        layers.set("serve.open.late_p99_us", self.last.late_p99_us);

        // Latency at a few fixed rates, and the highest that holds the
        // limit without a growing backlog.
        let mut max_ok = 0.0;
        for (i, (rate, name)) in [
            (100.0, "serve.open.ladder.r100.p99_us"),
            (400.0, "serve.open.ladder.r400.p99_us"),
            (1_600.0, "serve.open.ladder.r1600.p99_us"),
        ]
        .into_iter()
        .enumerate()
        {
            let base = 0x2000 + (i * env.n) as u64;
            let (sent, _, _) = open_run(&sv.hot, sv.addr, env, base, rate, env.seconds / 4.0, None);
            let acc = account(&sent);
            let p99 = stats::percentile(&acc.lat_us, 99.0);
            layers.set(name, p99);
            if acc.failed == 0 && p99 <= LADDER_LIMIT_US && !acc.backlog_growing {
                max_ok = rate;
            }
        }
        layers.set("serve.open.max_rate_ok", max_ok);

        let dir = sv.hot.fx.path().to_path_buf();
        let (start_s, extra) = secs(|| Server::start(serve_config(env, &dir)).expect("start"));
        layers.set("serve.start_ms", start_s * 1e3);
        extra.shutdown();
    }

    fn bytes_per_record(&self) -> Option<f64> {
        self.sv.as_ref().map(|sv| sv.hot.fx.bytes_per_record())
    }

    fn teardown(&mut self) {
        if let Some(mut sv) = self.sv.take() {
            sv.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_time(i: u64) -> Sent {
        let due = i * 1_000_000;
        Sent {
            due_ns: due,
            sent_ns: due + 20_000,
            done_ns: Some(due + 220_000),
            ok: true,
            inflight: 1,
        }
    }

    #[test]
    fn an_unstalled_run_is_neither_late_nor_slow() {
        let reqs: Vec<Sent> = (0..100).map(on_time).collect();
        let acc = account(&reqs);
        assert_eq!((acc.completed, acc.failed), (100, 0));
        assert_eq!(acc.late_share, 0.0);
        assert!(stats::percentile(&acc.lat_us, 99.0) < 300.0);
        assert!(!acc.backlog_growing);
    }

    #[test]
    fn a_stall_shows_up_as_lateness_and_as_latency_from_the_due_time() {
        // Requests are due every millisecond; the generator is stuck from
        // 20 ms to 70 ms (a receiver that stopped draining, a full socket
        // buffer) and then sends everything it owes at once. Each response
        // still comes back 0.2 ms after its request left.
        let reqs: Vec<Sent> = (0..100)
            .map(|i| {
                let mut r = on_time(i);
                if (20..70).contains(&i) {
                    r.sent_ns = 70_000_000;
                    r.done_ns = Some(70_200_000);
                    r.inflight = (i - 19) as u32;
                }
                r
            })
            .collect();
        let acc = account(&reqs);
        // Timed from send, every request would look like 0.2 ms. Timed
        // from when it was due, the first stalled one waited 50 ms.
        assert!(stats::percentile(&acc.lat_us, 99.0) > 49_000.0);
        assert!(stats::percentile(&acc.lat_us, 50.0) < 1_000.0);
        assert!((acc.late_share - 0.49).abs() < 0.011, "{}", acc.late_share);
        assert!(acc.late_p99_us > 48_000.0);
        assert_eq!(acc.inflight_max, 50);
    }

    #[test]
    fn refused_wrong_and_missing_responses_all_count_as_failed() {
        let mut reqs: Vec<Sent> = (0..10).map(on_time).collect();
        reqs[3].ok = false; // Overloaded / Backpressure / wrong answer
        reqs[7].done_ns = None; // never answered
        let acc = account(&reqs);
        assert_eq!((acc.completed, acc.failed), (8, 2));
        assert_eq!(acc.lat_us.len(), 8);
    }

    #[test]
    fn a_backlog_that_keeps_growing_is_flagged() {
        let reqs: Vec<Sent> = (0..400)
            .map(|i| Sent {
                inflight: 1 + (i / 4) as u32,
                ..on_time(i)
            })
            .collect();
        assert!(account(&reqs).backlog_growing);
    }
}
