//! The service workloads `svc_sync` and `svc_pipe`: the real `serve`
//! binary, spawned as a child process and driven over a Unix domain
//! socket through `qldpc-client` and `qldpc-wire`.
//!
//! Both use the server registration of `benchmark/specs/svc.campaign`
//! (gross code, code-capacity noise, `bp:40`, f64) and the same load
//! shape: a closed loop from [`CONNECTIONS`] threads, one connection
//! each. `svc_sync` keeps one request outstanding per connection
//! (`Connection::decode`); `svc_pipe` keeps [`WINDOW`] `Submit` frames
//! in flight per connection with `write_frame` / `read_frame`, which the
//! blocking client cannot do.
//!
//! Requests cycle through a pool of [`POOL`] syndromes drawn from the
//! workload seed, so that every reply can be checked bit for bit
//! against a direct decode of the same syndrome without decoding a
//! million syndromes twice.

use crate::stats::{mean, median, p50, percentile};
use crate::trace::{self, Tracer};
use crate::{end_to_end, per_layer, Counts, Options, Outcome, OUT_DIR, PASSES};
use qldpc_campaign::{cell_decoder_inputs, CampaignSpec, Cell};
use qldpc_client::Connection;
use qldpc_codes::CssCode;
use qldpc_decoder_api::DecodeOutcome;
use qldpc_gf2::{BitVec, SparseBitMatrix};
use qldpc_server::{DecodeService, ServiceConfig, SubmitError};
use qldpc_wire::{read_frame, write_frame, Frame, DEFAULT_MAX_PAYLOAD, PROTOCOL_VERSION};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const SPEC: &str = "benchmark/specs/svc.campaign";
/// Closed-loop callers, one connection each: `nproc` on the reference
/// container.
const CONNECTIONS: usize = 2;
/// `svc_pipe`: submits in flight per connection.
const WINDOW: usize = 64;
const POOL: usize = 4096;
/// Requests per connection in the traced pass, at most.
const TRACED_REQUESTS: usize = 20_000;
/// Turns the traced run's untraced and traced passes take.
const TRACED_TURNS: usize = 4;
/// Requests per caller of the in-process probe, at most.
const INPROC_REQUESTS: usize = 5_000;
/// A hung server turns into failed operations, not a hung benchmark.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Sync,
    Pipelined,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Sync => "svc_sync",
            Kind::Pipelined => "svc_pipe",
        }
    }

    /// Requests per second over all connections on the reference
    /// container; sizes a pass so a run measures for about `--seconds`.
    fn rate(self) -> f64 {
        match self {
            Kind::Sync => 5_000.0,
            Kind::Pipelined => 80_000.0,
        }
    }
}

// ---------------------------------------------------------------------
// The registration, and the request pool with its reference outcomes.
// ---------------------------------------------------------------------

struct Registration {
    cell: Cell,
    /// The cell id: the name the Z-check decoder is registered under.
    name: String,
    h: SparseBitMatrix,
    priors: Vec<f64>,
    code: CssCode,
}

fn registration() -> Result<Registration, String> {
    let spec = CampaignSpec::from_file(SPEC.as_ref()).map_err(|e| e.to_string())?;
    let cell = spec
        .cells()
        .map_err(|e| e.to_string())?
        .into_iter()
        .next()
        .ok_or("the spec expands to no cell")?;
    let (name, h, priors) = cell_decoder_inputs(&spec, &cell)
        .into_iter()
        .next()
        .ok_or("the cell registers no decoder")?;
    let code = qldpc_codes::paper_code(&cell.code_slug).ok_or("unknown code slug")?;
    Ok(Registration {
        cell,
        name,
        h,
        priors,
        code,
    })
}

struct Pool {
    syndromes: Vec<BitVec>,
    /// What a direct decode of each syndrome returns.
    reference: Vec<DecodeOutcome>,
    /// Whether that reference is a correction with H·ê = s …
    valid: Vec<bool>,
    /// … and in the right coset.
    logical_ok: Vec<bool>,
    /// p50 of the direct decodes, µs.
    direct_p50_us: f64,
}

/// X errors at the cell's marginal flip rate, their Z-check syndromes,
/// and the reference decode of each with the decoder the cell names.
fn make_pool(reg: &Registration, seed: u64) -> Pool {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = reg.h.cols();
    let mut decoder = reg.cell.decoder.factory(reg.cell.precision)(&reg.h, &reg.priors);
    black_box(decoder.decode_syndrome(&BitVec::zeros(reg.h.rows())));
    let mut pool = Pool {
        syndromes: Vec::with_capacity(POOL),
        reference: Vec::with_capacity(POOL),
        valid: Vec::with_capacity(POOL),
        logical_ok: Vec::with_capacity(POOL),
        direct_p50_us: 0.0,
    };
    let mut direct_us = Vec::with_capacity(POOL);
    for _ in 0..POOL {
        let mut error = BitVec::zeros(n);
        for (i, &p) in reg.priors.iter().enumerate() {
            if rng.random_bool(p) {
                error.set(i, true);
            }
        }
        let syndrome = reg.h.mul_vec(&error);
        let start = Instant::now();
        let out = decoder.decode_syndrome(&syndrome);
        direct_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        let valid = out.solved && reg.h.mul_vec(&out.error_hat) == syndrome;
        let mut residual = error;
        residual.xor_assign(&out.error_hat);
        pool.valid.push(valid);
        pool.logical_ok
            .push(valid && !reg.code.is_x_logical_error(&residual));
        pool.syndromes.push(syndrome);
        pool.reference.push(out);
    }
    direct_us.sort_by(f64::total_cmp);
    pool.direct_p50_us = percentile(&direct_us, 50.0);
    pool
}

// ---------------------------------------------------------------------
// The server child.
// ---------------------------------------------------------------------

/// Builds `serve` from source with the root manifest (and so the root
/// profile) and returns the binary. A no-op when it is up to date.
fn build_serve() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "qldpc-bench", "--bin", "serve"])
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building serve failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let binary = PathBuf::from(target).join("release/serve");
    if !binary.is_file() {
        return Err(format!("{} was not built", binary.display()));
    }
    Ok(binary)
}

static NEXT_SOCKET: AtomicUsize = AtomicUsize::new(0);

struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    socket: String,
}

impl Server {
    /// Spawns `serve` on a socket path no other run or repetition uses
    /// and returns once it prints `LISTENING`.
    fn spawn(binary: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
        let socket = format!(
            "{OUT_DIR}/svc-{}-{}.sock",
            std::process::id(),
            NEXT_SOCKET.fetch_add(1, Ordering::Relaxed)
        );
        let _ = std::fs::remove_file(&socket);
        let mut child = Command::new(binary)
            .args(["--uds", &socket, "--spec", SPEC])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdin,
            stdout,
            socket,
        };
        loop {
            match server.read_line()? {
                Some(line) if line.starts_with("LISTENING") => return Ok(server),
                Some(_) => {}
                None => return Err("serve exited before LISTENING".to_string()),
            }
        }
    }

    fn read_line(&mut self) -> Result<Option<String>, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line.trim_end().to_string())),
            Err(e) => Err(format!("reading serve's stdout: {e}")),
        }
    }

    /// Asks for a clean drain by closing stdin, and returns the
    /// `DRAINED <submitted> <completed>` accounting.
    fn shutdown(mut self) -> Result<(u64, u64), String> {
        drop(self.stdin.take());
        let mut drained = None;
        while let Some(line) = self.read_line()? {
            if let Some(rest) = line.strip_prefix("DRAINED ") {
                let mut it = rest.split_whitespace().map(str::parse::<u64>);
                if let (Some(Ok(s)), Some(Ok(c))) = (it.next(), it.next()) {
                    drained = Some((s, c));
                }
            }
        }
        let status = self.child.wait().map_err(|e| format!("waiting: {e}"))?;
        if !status.success() {
            return Err(format!("serve exited with {status}"));
        }
        drained.ok_or_else(|| "serve printed no DRAINED line".to_string())
    }
}

impl Drop for Server {
    /// Also the panic path: the child never outlives the benchmark.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn connect(socket: &str, name: &str, label: &str) -> Result<(Connection, u32), String> {
    let mut conn = Connection::connect(socket, label).map_err(|e| format!("connect: {e}"))?;
    conn.set_reply_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("reply timeout: {e}"))?;
    let code = conn
        .lookup_code(name)
        .map_err(|e| format!("lookup_code: {e}"))?;
    Ok((conn, code.id))
}

/// One cold set-up: the registration (spec, code, check matrix, priors)
/// and the client's own decoder through the cell's factory, then `serve`
/// spawned until `LISTENING`, then a connect and a `lookup_code` for
/// each connection a pass opens.
fn set_up(binary: &Path, tracer: &mut Tracer) -> Result<(Registration, Server), String> {
    let reg = tracer.span("client.registration", 0, |_| registration())?;
    black_box(reg.cell.decoder.factory(reg.cell.precision)(
        &reg.h,
        &reg.priors,
    ));
    let server = tracer.span("server.spawn", 0, |_| Server::spawn(binary))?;
    for c in 0..CONNECTIONS {
        tracer.span("client.connect_lookup", c as u64, |_| {
            connect(&server.socket, &reg.name, "bench-setup").map(drop)
        })?;
    }
    Ok((reg, server))
}

// ---------------------------------------------------------------------
// One connection's share of a pass.
// ---------------------------------------------------------------------

#[derive(Default)]
struct ConnStats {
    counts: Counts,
    /// Latency of every request answered with a valid correction, µs.
    latency_us: Vec<f64>,
    /// Submit frames the server accepted a socket write for.
    sent: u64,
    refused: u64,
    batch_sizes: u64,
    replies: u64,
    tracer: Option<Tracer>,
}

impl ConnStats {
    /// Books one reply against the reference decode of pool entry `i`.
    fn book(&mut self, pool: &Pool, i: usize, reply: &Result<DecodeOutcome, String>, us: f64) {
        match reply {
            Ok(out) if *out == pool.reference[i] => {
                if pool.valid[i] {
                    self.counts.valid += 1;
                    self.latency_us.push(us);
                }
                self.counts.logical_ok += pool.logical_ok[i] as u64;
            }
            // Not the direct decode's answer, or no answer at all.
            _ => self.counts.failed += 1,
        }
    }
}

struct Share<'a> {
    socket: &'a str,
    name: &'a str,
    pool: &'a Pool,
    /// First pool entry of this connection's request sequence.
    first: usize,
    requests: usize,
    start: &'a Barrier,
}

/// `svc_sync`: one request outstanding, through the blocking client.
fn sync_connection(share: &Share, mut tracer: Tracer) -> ConnStats {
    let mut stats = ConnStats::default();
    stats.counts.attempted = share.requests as u64;
    let connected = connect(share.socket, share.name, "bench-sync");
    share.start.wait();
    let Ok((mut conn, code)) = connected else {
        stats.counts.failed = stats.counts.attempted;
        return stats;
    };
    for k in 0..share.requests {
        let i = (share.first + k) % POOL;
        let (reply, ns) = tracer.timed("client.decode", k as u64, |_| {
            conn.decode(code, &share.pool.syndromes[i])
        });
        let reply = match reply {
            Ok(reply) => {
                stats.sent += 1;
                stats.replies += 1;
                stats.batch_sizes += reply.batch_size;
                reply.result.map_err(|f| f.name().to_string())
            }
            Err(e) => {
                // The connection is no longer in a known state: what was
                // not sent is failed too.
                eprintln!("svc_sync: {e}");
                stats.counts.failed += (share.requests - k) as u64;
                break;
            }
        };
        stats.book(share.pool, i, &reply, ns as f64 / 1e3);
    }
    stats.tracer = Some(tracer);
    stats
}

/// `svc_pipe`: [`WINDOW`] submits in flight, raw frames on the socket.
/// One reply read admits one more submit.
fn pipelined_connection(share: &Share, mut tracer: Tracer) -> ConnStats {
    let mut stats = ConnStats::default();
    stats.counts.attempted = share.requests as u64;
    let opened = open_raw(share.socket, share.name);
    share.start.wait();
    let Ok((mut reader, mut writer, code)) = opened else {
        stats.counts.failed = stats.counts.attempted;
        return stats;
    };
    let origin = Instant::now();
    let mut sent_at_ns = vec![0u64; share.requests];
    let mut next = 0usize;
    let mut answered = 0usize;
    let submit = |k: usize, writer: &mut BufWriter<UnixStream>, tracer: &mut Tracer| {
        let frame = Frame::Submit {
            tag: k as u64 + 1,
            code,
            deadline_micros: 0,
            syndrome: share.pool.syndromes[(share.first + k) % POOL].clone(),
        };
        tracer.span("wire.write_frame", k as u64, |_| {
            write_frame(writer, &frame).and_then(|()| writer.flush())
        })
    };
    while answered < share.requests {
        while next < share.requests && next - answered < WINDOW {
            sent_at_ns[next] = origin.elapsed().as_nanos() as u64;
            if let Err(e) = submit(next, &mut writer, &mut tracer) {
                eprintln!("svc_pipe: write: {e}");
                stats.counts.failed += (share.requests - answered) as u64;
                stats.tracer = Some(tracer);
                return stats;
            }
            stats.sent += 1;
            next += 1;
        }
        let frame = tracer.span("wire.read_frame", answered as u64, |_| {
            read_frame(&mut reader, DEFAULT_MAX_PAYLOAD)
        });
        let now_ns = origin.elapsed().as_nanos() as u64;
        let (tag, reply) = match frame {
            Ok(Some(Frame::DecodeReply {
                tag,
                batch_size,
                result,
            })) => {
                stats.replies += 1;
                stats.batch_sizes += batch_size;
                (tag, result.map_err(|f| f.name().to_string()))
            }
            Ok(Some(Frame::Error { tag, code, .. })) if tag != 0 => {
                stats.refused += 1;
                (tag, Err(code.name().to_string()))
            }
            other => {
                eprintln!("svc_pipe: no reply frame: {other:?}");
                stats.counts.failed += (share.requests - answered) as u64;
                break;
            }
        };
        let Some(k) = (tag as usize).checked_sub(1).filter(|&k| k < next) else {
            eprintln!("svc_pipe: reply to a tag never sent: {tag}");
            stats.counts.failed += (share.requests - answered) as u64;
            break;
        };
        let us = (now_ns - sent_at_ns[k]) as f64 / 1e3;
        stats.book(share.pool, (share.first + k) % POOL, &reply, us);
        answered += 1;
    }
    stats.tracer = Some(tracer);
    stats
}

type RawLink = (BufReader<UnixStream>, BufWriter<UnixStream>, u32);

/// The handshake and code lookup of `Connection`, on a raw socket.
fn open_raw(socket: &str, name: &str) -> Result<RawLink, String> {
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut reader = BufReader::new(stream);
    let mut exchange = |frame: Frame| -> Result<Frame, String> {
        write_frame(&mut writer, &frame)
            .and_then(|()| writer.flush())
            .map_err(|e| format!("write: {e}"))?;
        read_frame(&mut reader, DEFAULT_MAX_PAYLOAD)
            .map_err(|e| format!("read: {e}"))?
            .ok_or_else(|| "connection closed during the handshake".to_string())
    };
    match exchange(Frame::Hello {
        version: PROTOCOL_VERSION,
        client: "bench-pipe".to_string(),
    })? {
        Frame::HelloAck { .. } => {}
        other => return Err(format!("expected HelloAck, got {}", other.type_name())),
    }
    let code = match exchange(Frame::CodeLookup {
        name: name.to_string(),
    })? {
        Frame::CodeInfo { code, .. } => code,
        other => return Err(format!("expected CodeInfo, got {}", other.type_name())),
    };
    Ok((reader, writer, code))
}

// ---------------------------------------------------------------------
// A pass: every connection at once, from a common start.
// ---------------------------------------------------------------------

#[derive(Default)]
struct PassResult {
    stats: Vec<ConnStats>,
    wall_s: f64,
}

impl PassResult {
    fn append(&mut self, mut other: PassResult) {
        self.stats.append(&mut other.stats);
        self.wall_s += other.wall_s;
    }

    fn latency_us(&self) -> Vec<f64> {
        self.stats
            .iter()
            .flat_map(|s| s.latency_us.iter().copied())
            .collect()
    }

    fn total(&self, pick: fn(&ConnStats) -> u64) -> u64 {
        self.stats.iter().map(pick).sum()
    }
}

fn run_pass(
    kind: Kind,
    server: &Server,
    name: &str,
    pool: &Pool,
    pass: usize,
    per_connection: usize,
    trace: Option<Instant>,
) -> PassResult {
    let start = Barrier::new(CONNECTIONS + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let share = Share {
                    socket: &server.socket,
                    name,
                    pool,
                    // Connections and passes walk the pool from different
                    // places, so a pass is not a replay of the last one.
                    first: (pass * CONNECTIONS + c) * 1031 % POOL,
                    requests: per_connection,
                    start: &start,
                };
                let tracer =
                    trace.map_or_else(Tracer::disabled, |origin| Tracer::new(origin, true));
                scope.spawn(move || match kind {
                    Kind::Sync => sync_connection(&share, tracer),
                    Kind::Pipelined => pipelined_connection(&share, tracer),
                })
            })
            .collect();
        start.wait();
        let begun = Instant::now();
        let stats = handles
            .into_iter()
            .map(|h| h.join().expect("a connection thread panicked"))
            .collect();
        PassResult {
            stats,
            wall_s: begun.elapsed().as_secs_f64(),
        }
    })
}

fn absorb(counts: &mut Counts, pass: &PassResult) {
    for s in &pass.stats {
        counts.add(&s.counts);
    }
}

/// Shuts the server down and checks its `DRAINED` accounting against
/// the submits this run wrote.
fn drain(server: Server, sent: u64, counts: &mut Counts) -> Result<(), String> {
    let (submitted, completed) = server.shutdown()?;
    if (submitted, completed) != (sent, sent) {
        eprintln!("serve drained {submitted} submitted / {completed} completed; {sent} were sent");
        counts.failed += 1;
    }
    Ok(())
}

pub fn run(kind: Kind, opts: Options) -> Result<Outcome, String> {
    let mut per_connection = opts.per_pass(kind.rate(), CONNECTIONS) / CONNECTIONS;
    if opts.trace {
        // Two spans a request: keeps trace.json in the megabytes.
        per_connection = per_connection.min(TRACED_REQUESTS);
    }
    let sizes = format!(
        "gross cc bp:40: {CONNECTIONS} connections x {per_connection} requests/pass, {} passes, \
         window {}",
        if opts.trace { 1 } else { PASSES },
        if kind == Kind::Sync { 1 } else { WINDOW },
    );
    let binary = build_serve()?;
    if opts.trace {
        return traced(kind, opts, &binary, per_connection, sizes);
    }

    let mut setup_s = Vec::with_capacity(opts.setup_reps());
    for _ in 0..opts.setup_reps() {
        let start = Instant::now();
        let (_, server) = set_up(&binary, &mut Tracer::disabled())?;
        setup_s.push(start.elapsed().as_secs_f64());
        drain(server, 0, &mut Counts::default())?;
    }

    let (reg, server) = set_up(&binary, &mut Tracer::disabled())?;
    let pool = make_pool(&reg, opts.seed);
    let mut counts = Counts::default();
    let mut sent = 0;
    let mut latency_us = Vec::new();
    let mut throughput_sps = Vec::with_capacity(PASSES);
    for pass in 0..PASSES {
        let result = run_pass(kind, &server, &reg.name, &pool, pass, per_connection, None);
        absorb(&mut counts, &result);
        sent += result.total(|s| s.sent);
        latency_us.extend(result.latency_us());
        throughput_sps.push((CONNECTIONS * per_connection) as f64 / result.wall_s);
    }
    if latency_us.is_empty() {
        return Err("no request was answered with a valid correction".to_string());
    }
    drain(server, sent, &mut counts)?;
    Ok(Outcome {
        metrics: end_to_end(&setup_s, &mut latency_us, &throughput_sps, &counts),
        counts,
        sizes,
    })
}

// ---------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------

/// p50 of one stage of the code's requests, µs, from the server's
/// metrics exposition.
fn stage_p50_us(exposition: &str, code: &str, stage: &str) -> f64 {
    let wanted = [
        format!("code=\"{code}\""),
        format!("stage=\"{stage}\""),
        "quantile=\"0.5\"".to_string(),
    ];
    exposition
        .lines()
        .filter(|l| l.starts_with("qldpc_stage_duration_seconds{"))
        .find(|l| wanted.iter().all(|w| l.contains(w.as_str())))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |seconds| seconds * 1e6)
}

/// `Frame::encode` / `Frame::decode` on one submit and one reply of the
/// pool, timed a thousand calls to a span.
fn wire_layers(pool: &Pool, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    const CALLS: usize = 1000;
    let submit = Frame::Submit {
        tag: 1,
        code: 0,
        deadline_micros: 0,
        syndrome: pool.syndromes[0].clone(),
    };
    let reply = Frame::DecodeReply {
        tag: 1,
        batch_size: 1,
        result: Ok(pool.reference[0].clone()),
    };
    let submit_bytes = submit.encode();
    let reply_bytes = reply.encode();
    let mut per_call = |name: &'static str, f: &dyn Fn()| {
        let samples: Vec<f64> = (0..20)
            .map(|round| {
                let ((), ns) = tracer.timed(name, round, |_| (0..CALLS).for_each(|_| f()));
                ns as f64 / CALLS as f64
            })
            .collect();
        median(&samples)
    };
    vec![
        (
            "wire.encode_submit_ns",
            per_call("wire.encode_submit", &|| {
                black_box(black_box(&submit).encode());
            }),
        ),
        (
            "wire.decode_submit_ns",
            per_call("wire.decode_submit", &|| {
                black_box(Frame::decode(black_box(&submit_bytes)).expect("round trip"));
            }),
        ),
        (
            "wire.encode_reply_ns",
            per_call("wire.encode_reply", &|| {
                black_box(black_box(&reply).encode());
            }),
        ),
        (
            "wire.decode_reply_ns",
            per_call("wire.decode_reply", &|| {
                black_box(Frame::decode(black_box(&reply_bytes)).expect("round trip"));
            }),
        ),
        ("wire.submit_bytes", submit_bytes.len() as f64),
        ("wire.reply_bytes", reply_bytes.len() as f64),
    ]
}

/// The same registration in an in-process `DecodeService`, driven by
/// the same number of closed-loop callers with one request outstanding:
/// `Client::submit().wait()` with no socket under it.
fn inproc_p50_us(reg: &Registration, pool: &Pool, per_caller: usize, tracer: &mut Tracer) -> f64 {
    let mut builder = DecodeService::builder();
    builder.register_code_with(
        &reg.name,
        &reg.h,
        &reg.priors,
        reg.cell.decoder.factory(reg.cell.precision),
        ServiceConfig {
            precision: reg.cell.precision,
            ..ServiceConfig::default()
        },
    );
    let service = builder.start();
    let code = service.lookup_code(&reg.name).expect("just registered");
    let samples: Vec<f64> = tracer.span("server.inproc_pass", 0, |_| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|c| {
                    let mut client = service.client();
                    scope.spawn(move || {
                        (0..per_caller)
                            .map(|k| {
                                let syndrome = pool.syndromes[(c * 1031 + k) % POOL].clone();
                                let start = Instant::now();
                                let response = loop {
                                    match client.submit(code, syndrome.clone()) {
                                        Ok(handle) => break handle.wait(),
                                        Err(SubmitError::Overloaded) => std::thread::yield_now(),
                                        Err(e) => panic!("in-process submit: {e}"),
                                    }
                                };
                                black_box(response);
                                start.elapsed().as_nanos() as f64 / 1e3
                            })
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("an in-process caller panicked"))
                .collect()
        })
    });
    service.shutdown();
    p50(&samples)
}

fn traced(
    kind: Kind,
    opts: Options,
    binary: &Path,
    per_connection: usize,
    sizes: String,
) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, true);
    let (reg, server) = set_up(binary, &mut tracer)?;
    let pool = make_pool(&reg, opts.seed);

    // Untraced and traced segments take turns over the same requests,
    // each on fresh connections, so both see the same phases of the
    // machine and their difference is the tracing.
    let mut untraced = PassResult::default();
    let mut result = PassResult::default();
    let segment = per_connection.div_ceil(TRACED_TURNS);
    for turn in 0..TRACED_TURNS {
        // Who goes first alternates, so neither always meets a cold server.
        for traced_now in [turn % 2 == 1, turn % 2 == 0] {
            let trace = traced_now.then_some(origin);
            let pass = run_pass(kind, &server, &reg.name, &pool, turn, segment, trace);
            if traced_now {
                result.append(pass);
            } else {
                untraced.append(pass);
            }
        }
    }
    let mut counts = Counts::default();
    absorb(&mut counts, &result);
    counts.failed += untraced.total(|s| s.counts.failed);
    let sent = untraced.total(|s| s.sent) + result.total(|s| s.sent);

    let mean_of = |pass: &PassResult| mean(&pass.latency_us());
    let client_p50 = p50(&result.latency_us());
    let replies = result.total(|s| s.replies).max(1) as f64;
    let batch_size_mean = result.total(|s| s.batch_sizes) as f64 / replies;
    let refused_share = result.total(|s| s.refused) as f64 / counts.attempted as f64;
    let overhead = (mean_of(&result) - mean_of(&untraced)) / mean_of(&untraced);
    for stats in &mut result.stats {
        if let Some(t) = stats.tracer.take() {
            tracer.absorb(t);
        }
    }

    // With the load gone: the server's own stage histograms, and the
    // floor of a round trip that decodes nothing.
    let (mut conn, _) = connect(&server.socket, &reg.name, "bench-probe")?;
    let exposition = conn.metrics().map_err(|e| format!("metrics: {e}"))?;
    let stage = |name| stage_p50_us(&exposition, &reg.name, name);
    let rtt_us: Vec<f64> = (0..2000)
        .map(|k| {
            let (found, ns) =
                tracer.timed("client.lookup_code", k, |_| conn.lookup_code(&reg.name));
            found.map(|_| ns as f64 / 1e3).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let rtt_floor = p50(&rtt_us);
    drop(conn);
    drain(server, sent, &mut counts)?;

    let inproc = inproc_p50_us(
        &reg,
        &pool,
        per_connection.min(INPROC_REQUESTS),
        &mut tracer,
    );
    let in_server = stage("queue_wait") + stage("fulfill");
    let mut layers = vec![
        (
            "server.spawn_ms",
            mean(&tracer.durations_ns("server.spawn")) / 1e6,
        ),
        ("server.inproc_p50_us", inproc),
        ("svc.direct_decode_p50_us", pool.direct_p50_us),
        ("server.overhead_p50_us", inproc - pool.direct_p50_us),
        ("server.queue_wait_p50_us", stage("queue_wait")),
        ("server.coalesce_wait_p50_us", stage("coalesce_wait")),
        ("server.kernel_p50_us", stage("kernel")),
        ("server.fulfill_p50_us", stage("fulfill")),
        ("server.batch_size_mean", batch_size_mean),
        ("server.refused_share", refused_share),
        ("client.rtt_floor_us", rtt_floor),
        ("client.overhead_p50_us", client_p50 - inproc),
        (
            "svc.closure_gap_share",
            (client_p50 - in_server - rtt_floor) / client_p50,
        ),
        ("trace_overhead_share", overhead),
    ];
    layers.extend(wire_layers(&pool, &mut tracer));

    trace::write(kind.name(), opts.seed, &tracer)?;
    Ok(Outcome {
        metrics: per_layer(layers),
        counts,
        sizes,
    })
}
