//! `serve-mixed`: an in-process `Server` under open-loop traffic.
//!
//! Requests fall due at a fixed [`RATE`] and are spread over
//! [`CONNECTIONS`] connections; each is timed from its due time, so a
//! stall on a connection counts against every request queued behind it.
//! Three in four requests are a warm `Compile` (a cache hit) followed by a
//! one-argset `Execute` with the app's DRAM inputs and output window; one
//! in four is a streaming session (Open → [`CHUNKS`] × (Feed → Poll until
//! drained) → Close). Every connection reconnects after
//! [`RECONNECT_EVERY`] requests. Every returned window must equal the
//! local untimed run of the same input, which equals the app oracle; each
//! feed must accept its argset, and the sink tokens a session returns must
//! equal those of a local streaming run fed the same argsets.

use crate::common::{
    compile, instance_bytes, instantiate, pass_options, plan_build, reference_kernel, Exact, Input,
    Layers, ObsTotals, Samples, Tally, MAX_ROUNDS,
};
use crate::stats::{dist, median, ms, Rng, Rounds};
use crate::trace::{Ctx, Tracer, SETUP};
use crate::{Bench, Phase, REF_WIDTH};
use revet_apps::{all_apps, DRAM_BYTES};
use revet_core::{CompiledProgram, ProgramId, StreamExecutor};
use revet_serve::protocol::{
    ErrorCode, ExecuteRequest, InstanceOutcome, OpenStreamRequest, WireTok,
};
use revet_serve::{ClientError, ServeClient, ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Records per request: 16, except for the two Huffman apps, whose
/// execution at 16 records (6–20 ms) would dwarf every other layer and
/// queue the requests behind it on their connection.
pub fn scale(app: &str) -> usize {
    match app {
        "huff-dec" => 2,
        "huff-enc" => 4,
        _ => 16,
    }
}
/// Requests per second: about half the capacity measured on 2 vCPUs (no
/// backlog at 200 req/s, a growing one from 250).
pub const RATE: f64 = 100.0;
/// Client connections carrying the traffic.
pub const CONNECTIONS: usize = 2;
/// Requests a connection carries before it reconnects.
pub const RECONNECT_EVERY: usize = 40;
/// Feeds per streaming session.
pub const CHUNKS: usize = 2;
/// Time the server's acceptor thread is given to make its first poll.
const ACCEPTOR_START: Duration = Duration::from_millis(10);
/// Slack before a connection's next due request that lets it run the
/// reference kernel.
const REF_SLACK: Duration = Duration::from_millis(5);
/// Request kinds per app: the last one is a streaming session.
const SLOTS: usize = 4;
/// Latency kinds.
const EXEC: usize = 0;
const CHUNK: usize = 1;

/// Every server knob spelled out (the defaults follow the host's
/// `available_parallelism`), sized for two cores.
pub fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_capacity: 16,
        queue_capacity: 64,
        executor_threads: 2,
        batch_threads: 1,
        max_rounds: MAX_ROUNDS,
        session_capacity: 16,
        session_idle_timeout: Duration::from_secs(30),
    }
}

struct AppRef {
    name: &'static str,
    source: String,
    args: Vec<u32>,
    dram_inits: Vec<(u64, Vec<u8>)>,
    window: (u64, u64),
    /// The local untimed run's window, checked against the oracle.
    reference: Vec<u8>,
    /// Sink tokens of a local streaming run fed [`CHUNKS`] argsets.
    stream_tokens: Vec<WireTok>,
}

pub struct ServeMixed {
    server: Option<Server>,
    apps: Vec<AppRef>,
    rounds: Rounds,
}

impl Bench for ServeMixed {
    fn setup(seed: u64, tr: &Tracer, layers: &mut Layers) -> Result<Self, String> {
        let server = Server::spawn(config()).map_err(|e| format!("server: {e}"))?;
        // The acceptor polls every 50 ms while idle. Connecting before its
        // first poll is accepted at once, after it only at the next poll:
        // letting it poll first makes every set-up pay the same wait.
        std::thread::sleep(ACCEPTOR_START);
        let mut client = ServeClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        let mut apps = Vec::new();
        let mut rng = Rng::new(seed, 300);
        for app in all_apps() {
            let input = Input::new(&app, scale(app.name), rng.next_u64());
            let source = (app.source)(REF_WIDTH);
            let ((compiled, reference), _) = tr.op(SETUP, |ctx| {
                let (mut program, record) = match compile(tr, ctx, app.name, REF_WIDTH, &source) {
                    Ok(c) => c,
                    Err(e) => return (Err(e), None),
                };
                input.load(&mut program.graph.mem.dram);
                let (mut inst, inst_ms) = instantiate(tr, ctx, &program);
                let bytes = instance_bytes(&inst);
                let (run, t) = tr.span(ctx, "exec.run_untimed", |_| {
                    inst.run_untimed(&input.words(), MAX_ROUNDS)
                });
                let reference = input.window_of(&inst.memory().dram).to_vec();
                (
                    Ok((program, record, inst_ms, bytes, run, ms(t))),
                    Some(reference),
                )
            });
            let (program, mut record, inst_ms, bytes, run, run_ms) = compiled?;
            let report = run.map_err(|e| format!("{} untimed: {e}", app.name))?;
            let reference = reference.expect("set with the run");
            if reference != input.expected {
                return Err(format!("{}: untimed output differs from oracle", app.name));
            }
            let stream_tokens = local_stream(&program, &input, &reference)
                .map_err(|e| format!("{} local stream: {e}", app.name))?;
            plan_build(tr, &program, &mut record);
            layers.compiles.push(record);
            layers.instance(app.name, inst_ms, bytes);
            layers.run(app.name, run_ms);
            layers.reports.insert(app.name, report);

            let app_ref = AppRef {
                name: app.name,
                source,
                args: input.args.clone(),
                dram_inits: input
                    .inits
                    .iter()
                    .map(|(off, b)| (*off as u64, b.clone()))
                    .collect(),
                window: (input.window.0 as u64, input.window.1 as u64),
                reference,
                stream_tokens,
            };
            // Warm the cache (a miss) and check one one-shot execute.
            let id = client
                .compile(&app_ref.source, &pass_options())
                .map_err(|e| format!("{} compile: {e}", app.name))?
                .program_id;
            let dram = execute(&mut client, &app_ref, id)?;
            if dram != app_ref.reference {
                return Err(format!("{}: one-shot execute differs", app.name));
            }
            apps.push(app_ref);
        }
        let rounds = Rounds::new(Rng::new(seed, 3), apps.len() * SLOTS);
        Ok(ServeMixed {
            server: Some(server),
            apps,
            rounds,
        })
    }

    fn measure(&mut self, tr: &Tracer, seconds: f64) -> Phase {
        let mut phase = Phase::default();
        let server = self.server.as_ref().expect("server runs until teardown");
        let addr = server.local_addr();
        let n = ((seconds * RATE) as usize).max(CONNECTIONS);
        let items: Vec<usize> = self.rounds.by_ref().take(n).collect();
        let before = scrape(addr);
        let status0 = server.status();
        let t0 = Instant::now() + Duration::from_millis(20);
        let done = AtomicBool::new(false);
        let apps = &self.apps;
        let (conns, watch) = std::thread::scope(|scope| {
            let watcher = scope.spawn(|| watch_sessions(server, &done));
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|c| {
                    let items = &items;
                    scope.spawn(move || connection(tr, addr, apps, items, c, t0))
                })
                .collect();
            let conns: Vec<Conn> = handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect();
            done.store(true, Ordering::Relaxed);
            (conns, watcher.join().expect("watcher panicked"))
        });
        let status1 = server.status();
        let after = scrape(addr);
        if let (Some(b), Some(a)) = (before, after) {
            phase.layers.obs = a.minus(&b);
        }

        let mut all = Conn::default();
        for c in conns {
            all.absorb(c);
        }
        phase.tally.absorb(std::mem::take(&mut all.tally));
        phase.exact = std::mem::take(&mut all.exact);
        let mut latency = Samples::new(2);
        latency.extend(std::mem::take(&mut all.latency));
        phase.ops(&latency);
        phase.lines.extend(dist("exec_ms", &latency.of(EXEC)));
        phase.lines.extend(dist("chunk_ms", &latency.of(CHUNK)));
        let lines = [
            ("serve.overhead_ms", &all.overhead_ms),
            ("serve.server_ms", &all.server_ms),
            ("serve.first_reply_ms", &all.first_reply_ms),
            ("serve.compile_hit_ms", &all.compile_hit_ms),
            ("serve.feed_ms", &all.feed_ms),
            ("serve.poll_ms", &all.poll_ms),
            ("serve.close_ms", &all.close_ms),
            ("serve.generator_late_ms", &all.late_ms),
        ];
        for (name, samples) in lines {
            phase
                .lines
                .push((name.into(), median(samples).unwrap_or(0.0), "ms"));
        }
        let hits = status1.cache_hits - status0.cache_hits;
        let lookups = hits + status1.cache_misses - status0.cache_misses;
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        phase.lines.extend([
            ("serve.rate".into(), RATE, "1/s"),
            (
                "serve.cache_hit_ratio".into(),
                ratio(hits, lookups),
                "ratio",
            ),
            (
                "serve.busy_ratio".into(),
                ratio(all.busy, all.requests),
                "ratio",
            ),
            (
                "serve.session_bytes_reported".into(),
                watch.reported_bytes as f64,
                "bytes",
            ),
            (
                "serve.session_bytes_held".into(),
                (watch.open_sessions * DRAM_BYTES as u64) as f64,
                "bytes",
            ),
        ]);
        phase
    }

    fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// The sink tokens of a local streaming run of `program` (inputs loaded)
/// fed [`CHUNKS`] argsets, each followed by a poll; its final window must
/// equal the one-shot `reference`.
fn local_stream(
    program: &CompiledProgram,
    input: &Input,
    reference: &[u8],
) -> Result<Vec<WireTok>, String> {
    let mut session = program.stream(StreamExecutor::Planned);
    for _ in 0..CHUNKS {
        let accepted = session.feed(&[input.words()]).map_err(|e| e.to_string())?;
        if accepted != 1 {
            return Err(format!("feed accepted {accepted} argsets, not 1"));
        }
        session.poll(MAX_ROUNDS).map_err(|e| e.to_string())?;
    }
    let out = session.finish(MAX_ROUNDS).map_err(|e| e.to_string())?;
    if input.window_of(&out.memory.dram) != reference {
        return Err("window differs from the one-shot run".into());
    }
    Ok(out.sink.iter().map(WireTok::from_ttok).collect())
}

/// A one-argset execute; returns the output window.
fn execute(client: &mut ServeClient, app: &AppRef, id: ProgramId) -> Result<Vec<u8>, String> {
    let reply = client
        .execute(ExecuteRequest {
            program_id: id,
            argsets: vec![app.args.clone()],
            dram_inits: app.dram_inits.clone(),
            window: app.window,
        })
        .map_err(|e| format!("{} execute: {e}", app.name))?;
    match reply.instances.into_iter().next() {
        Some(InstanceOutcome::Ok { dram, .. }) => Ok(dram),
        Some(InstanceOutcome::Err { message, .. }) => Err(format!("{}: {message}", app.name)),
        None => Err(format!("{}: empty reply", app.name)),
    }
}

/// The server's obs counters, over a connection of its own that is closed
/// before the traffic starts (or after it ends).
fn scrape(addr: SocketAddr) -> Option<ObsTotals> {
    let mut client = ServeClient::connect(addr).ok()?;
    let metrics = client.metrics().ok()?;
    Some(ObsTotals::from_pairs(&metrics.counters))
}

#[derive(Default)]
struct Watch {
    reported_bytes: u64,
    open_sessions: u64,
}

/// Samples the server's session counters until `done`, keeping the peaks.
fn watch_sessions(server: &Server, done: &AtomicBool) -> Watch {
    let mut w = Watch::default();
    while !done.load(Ordering::Relaxed) {
        let s = server.status();
        w.reported_bytes = w.reported_bytes.max(s.session_resident_bytes);
        w.open_sessions = w.open_sessions.max(s.open_sessions);
        std::thread::sleep(Duration::from_millis(5));
    }
    w
}

/// What one connection measured.
#[derive(Default)]
struct Conn {
    tally: Tally,
    requests: u64,
    busy: u64,
    /// `Execute` latencies from due time (kind [`EXEC`]) and streaming
    /// feed-to-drained latencies (kind [`CHUNK`]).
    latency: Samples,
    overhead_ms: Vec<f64>,
    server_ms: Vec<f64>,
    first_reply_ms: Vec<f64>,
    compile_hit_ms: Vec<f64>,
    feed_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    close_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Scheduler steps of every execute reply, which must repeat exactly
    /// per app.
    exact: Exact,
}

impl Conn {
    fn absorb(&mut self, o: Conn) {
        self.tally.absorb(o.tally);
        self.latency.extend(o.latency);
        self.requests += o.requests;
        self.busy += o.busy;
        for (to, from) in [
            (&mut self.overhead_ms, o.overhead_ms),
            (&mut self.server_ms, o.server_ms),
            (&mut self.first_reply_ms, o.first_reply_ms),
            (&mut self.compile_hit_ms, o.compile_hit_ms),
            (&mut self.feed_ms, o.feed_ms),
            (&mut self.poll_ms, o.poll_ms),
            (&mut self.close_ms, o.close_ms),
            (&mut self.late_ms, o.late_ms),
        ] {
            to.extend(from);
        }
        for (name, value) in o.exact.0 {
            if let Err(e) = self.exact.put(name, value) {
                self.tally.fail(e);
            }
        }
    }

    /// Counts a request's outcome; `Busy` refusals are failures too.
    fn outcome(&mut self, r: Result<(), ClientError>, what: &str) -> bool {
        self.requests += 1;
        match r {
            Ok(()) => true,
            Err(e) => {
                if matches!(&e, ClientError::Server(f) if f.code == ErrorCode::Busy) {
                    self.busy += 1;
                }
                self.tally.fail(format!("{what}: {e}"));
                false
            }
        }
    }
}

/// Carries requests `c, c + CONNECTIONS, …` of `items`, each sent no
/// earlier than its due time.
fn connection(
    tr: &Tracer,
    addr: SocketAddr,
    apps: &[AppRef],
    items: &[usize],
    c: usize,
    t0: Instant,
) -> Conn {
    let mut out = Conn::default();
    let mut client: Option<ServeClient> = None;
    let mut since_connect = 0;
    let ids: Vec<ProgramId> = apps
        .iter()
        .map(|a| ProgramId::of(&a.source, &pass_options()))
        .collect();
    out.latency.set_reference(reference_kernel());
    for (i, &kind) in items.iter().enumerate().skip(c).step_by(CONNECTIONS) {
        let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        out.late_ms.push(ms(sent.saturating_duration_since(due)));
        let app = &apps[kind / SLOTS];
        let streaming = kind % SLOTS == SLOTS - 1;
        let name = if streaming {
            "op.serve_stream"
        } else {
            "op.serve_execute"
        };
        let (ok, total) = tr.op_from(due, name, |ctx| {
            tr.record(ctx, "client.wait", due, sent);
            let mut connect_start = None;
            if client.is_none() || since_connect >= RECONNECT_EVERY {
                client = None;
                connect_start = Some(Instant::now());
                let (conn, _) = tr.span(ctx, "serve.connect", |_| ServeClient::connect(addr));
                match conn {
                    Ok(conn) => client = Some(conn),
                    Err(e) => {
                        out.tally.fail(format!("connect: {e}"));
                        return false;
                    }
                }
                since_connect = 0;
            }
            since_connect += 1;
            let cl = client.as_mut().expect("connected above");
            let (hit, t) = tr.span(ctx, "serve.compile_hit", |_| {
                cl.compile(&app.source, &pass_options())
            });
            if let Some(start) = connect_start {
                out.first_reply_ms.push(ms(start.elapsed()));
            }
            out.compile_hit_ms.push(ms(t));
            let hit = hit.and_then(|h| {
                if h.program_id == ids[kind / SLOTS] {
                    Ok(())
                } else {
                    Err(ClientError::Unexpected("program id"))
                }
            });
            if !out.outcome(hit, app.name) {
                client = None;
                return false;
            }
            let id = ids[kind / SLOTS];
            let ok = if streaming {
                stream(tr, ctx, cl, app, id, &mut out)
            } else {
                one_shot(tr, ctx, cl, app, id, &mut out)
            };
            if !ok {
                client = None;
            }
            ok
        });
        if ok {
            out.tally.ok();
            if !streaming {
                out.latency.push(EXEC, ms(total));
            }
        }
        // The reference kernel runs only in slack before the next request
        // falls due, so it never delays one.
        let next_due = t0 + Duration::from_secs_f64((i + CONNECTIONS) as f64 / RATE);
        if next_due.saturating_duration_since(Instant::now()) > REF_SLACK {
            out.latency.set_reference(reference_kernel());
        }
    }
    out
}

fn one_shot(
    tr: &Tracer,
    ctx: Ctx,
    cl: &mut ServeClient,
    app: &AppRef,
    id: ProgramId,
    out: &mut Conn,
) -> bool {
    let req = ExecuteRequest {
        program_id: id,
        argsets: vec![app.args.clone()],
        dram_inits: app.dram_inits.clone(),
        window: app.window,
    };
    let (reply, rtt) = tr.span(ctx, "serve.execute", |_| cl.execute(req));
    let reply = match reply {
        Ok(r) => r,
        Err(e) => return out.outcome(Err(e), app.name),
    };
    out.requests += 1;
    match reply.instances.first() {
        Some(InstanceOutcome::Ok { wall_micros, dram }) if *dram == app.reference => {
            let server = *wall_micros as f64 / 1e3;
            out.server_ms.push(server);
            out.overhead_ms.push(ms(rtt) - server);
            let steps = reply.merged.steps as f64;
            if let Err(e) = out.exact.put(format!("exec.steps.{}", app.name), steps) {
                out.tally.fail(e);
                return false;
            }
            true
        }
        Some(InstanceOutcome::Ok { .. }) => {
            out.tally
                .fail(format!("{}: execute window differs", app.name));
            false
        }
        Some(InstanceOutcome::Err { message, .. }) => {
            out.tally.fail(format!("{}: {message}", app.name));
            false
        }
        None => {
            out.tally.fail(format!("{}: empty execute reply", app.name));
            false
        }
    }
}

fn stream(
    tr: &Tracer,
    ctx: Ctx,
    cl: &mut ServeClient,
    app: &AppRef,
    id: ProgramId,
    out: &mut Conn,
) -> bool {
    let open = OpenStreamRequest {
        program_id: id,
        dram_inits: app.dram_inits.clone(),
        window: app.window,
    };
    let (session, _) = tr.span(ctx, "serve.open_stream", |_| cl.open_stream(open));
    let session = match session {
        Ok(s) => {
            out.requests += 1;
            s
        }
        Err(e) => return out.outcome(Err(e), app.name),
    };
    let mut tokens = Vec::new();
    for _ in 0..CHUNKS {
        let start = Instant::now();
        let (fed, t) = tr.span(ctx, "serve.feed", |_| {
            cl.feed(session, vec![app.args.clone()])
        });
        out.feed_ms.push(ms(t));
        // A refused argset (entry channel full) would leave the session
        // short of input; the workload never fills the channel.
        let fed = fed.and_then(|accepted| match accepted {
            1 => Ok(()),
            _ => Err(ClientError::Unexpected("feed did not accept its argset")),
        });
        if !out.outcome(fed, app.name) {
            return false;
        }
        loop {
            let (polled, t) = tr.span(ctx, "serve.poll", |_| cl.poll(session));
            out.poll_ms.push(ms(t));
            match polled {
                Ok(p) => {
                    out.requests += 1;
                    tokens.extend(p.tokens);
                    if p.finished {
                        break;
                    }
                }
                Err(e) => return out.outcome(Err(e), app.name),
            }
        }
        out.latency.push(CHUNK, ms(start.elapsed()));
    }
    let (closed, t) = tr.span(ctx, "serve.close_stream", |_| cl.close_stream(session));
    out.close_ms.push(ms(t));
    let closed = match closed {
        Ok(c) => {
            out.requests += 1;
            c
        }
        Err(e) => return out.outcome(Err(e), app.name),
    };
    tokens.extend(closed.tokens);
    let name = app.name;
    if closed.dram != app.reference {
        out.tally
            .fail(format!("{name}: session window differs from one-shot"));
        return false;
    }
    if tokens != app.stream_tokens {
        out.tally.fail(format!(
            "{name}: session returned {} sink tokens, the local stream {}",
            tokens.len(),
            app.stream_tokens.len()
        ));
        return false;
    }
    let count = tokens.len() as f64;
    if let Err(e) = out.exact.put(format!("serve.stream_tokens.{name}"), count) {
        out.tally.fail(e);
        return false;
    }
    true
}
