//! `serve_mixed`: an in-process `wrm serve` under an open-loop, seeded
//! Poisson arrival schedule, first at a low and then at a high offered
//! rate, then closed loop at capacity, in three cycles. The mix covers
//! every analysis endpoint; request sources are
//! drawn with Zipf popularity from a pool of generated mid-size specs
//! larger than the server's cache, so the LRU both hits and misses and
//! the front half (parse, lint, compile, index) runs on the request
//! path. Only this workload runs the HTTP, cache, pool and render
//! layers under load.
//!
//! Each request is timed from when it was due, not when a client got
//! round to sending it, and no more than `nproc` client threads (one
//! connection each) send. After each cycle's load, every distinct
//! request is sent again in sequence over one connection, which times
//! the server's warm service without queueing. Every 200 body is compared byte for
//! byte with the same request replayed in-process through the same
//! public functions; the traced run replays a sample of the run's
//! requests that way with spans around every layer.

use crate::gen::{self, Rng, Zipf};
use crate::stats::{geomean, median, min, quantile, sort};
use crate::trace::{durations_ms, Tracer};
use crate::{secs, Ctx, Report, Stopwatch, ENDPOINTS};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use wrm_serve::cache::{cache_key, IndexCache, ServeEntry};
use wrm_serve::client::Client;
use wrm_serve::{http, render, ServerConfig};
use wrm_sim::{BaseIndex, McOptions, Scenario, SchedulerPolicy, SimArena};

/// Offered rates (requests/s), fixed near a quarter and three quarters
/// of the closed-loop capacity this workload measured when the rates
/// were set: 760-805 requests/s on a 2-CPU x86-64 host.
const LOW_RPS: f64 = 190.0;
const HIGH_RPS: f64 = 570.0;
/// The run repeats this many cycles of: the low rate, the high rate,
/// closed loop at capacity, and a sequential pass.
const CYCLES: usize = 5;
/// Shares of a cycle's seconds spent at the low and the high rate; the
/// closed-loop phase sends about [`CAPACITY_RPS`] requests per second of
/// the rest.
const LOW_SHARE: f64 = 0.3;
const HIGH_SHARE: f64 = 0.3;
const CAPACITY_RPS: f64 = 770.0;
/// Timed sends of each distinct request in one sequential pass, after
/// one untimed send that brings its source into the cache.
const LATENCY_REPEATS: usize = 3;
/// Set-ups per run: one takes tens of milliseconds, so `setup_s` is the
/// median of more of them than in the other workloads.
const SETUPS: usize = 15;
/// A request counts toward goodput when it succeeds within this limit.
const LATENCY_LIMIT_MS: f64 = 250.0;
/// The server's index cache holds fewer specs than the pool has.
const CACHE_CAPACITY: usize = 8;
/// The traffic below is assumed, not recorded from users.
///
/// Pool specs by popularity rank: 16 specs of 250 to 1000 tasks in even
/// steps, mid-size next to the 100k-task `des_scale` DAGs. Even steps
/// give every seed the same size at the same rank, so latency quantiles
/// move smoothly with the draw.
const POOL: usize = 16;
const fn pool_size(rank: usize) -> usize {
    250 + 50 * rank
}
/// Zipf popularity over the pool. With [`CACHE_CAPACITY`] and this mix,
/// about 10% of the server's lookups miss in a 30 s run (measured):
/// enough that the compile path runs under load, few enough that hits
/// dominate.
const ZIPF_EXPONENT: f64 = 1.5;
/// Endpoint mix, in percent, in [`ENDPOINTS`] order: the mix of the
/// repository's serve loadgen (`crates/bench/benches/serve.rs`: 50%
/// sweep, 20% simulate, 20% certify, 10% healthz) scaled to 90%, plus
/// 5% each for `/v1/mc` and `/v1/lint`, which that loadgen does not send.
const MIX: [u64; 6] = [45, 18, 18, 5, 5, 9];
/// Replications per `/v1/mc` request: a small, interactive batch.
const MC_REPS: u64 = 16;
/// Distinct MC seeds requests draw from.
const MC_SEEDS: u64 = 8;
/// Requests the traced run replays in-process.
const REPLAY_SAMPLE: usize = 200;

const LCLS_WRM: &str = r#"
workflow lcls on cori-hsw {
  targets { makespan 10min  throughput 6 per 600s }
  task analyze[5] {
    nodes 32
    system_bytes ext 1TB cap 1GB/s
    node_bytes dram 1024GB
  }
  task merge { nodes 1 system_bytes bb 5GB after analyze }
}
"#;

const LCLS_MC_WRM: &str = r"
workflow lcls-mc on cori-hsw {
  task analyze[5] {
    nodes 32
    system_bytes ext uniform(0.8TB, 1.2TB) cap 1GB/s
    node_bytes dram lognormal(1024GB, 0.25)
    overhead setup triangular(3s, 5s, 10s)
  }
  task merge {
    nodes 1
    system_bytes bb empirical(4GB 1, 5GB 2, 8GB 1)
    after analyze
  }
}
";

const SWEEP_FACTORS: [f64; 8] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0];

/// One request of the mix; pool specs by index, MC by seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Sweep,
    Simulate(usize),
    Certify(usize),
    Mc(u64),
    Lint(usize),
    Healthz,
}

impl Kind {
    fn endpoint(self) -> &'static str {
        let i = match self {
            Kind::Sweep => 0,
            Kind::Simulate(_) => 1,
            Kind::Certify(_) => 2,
            Kind::Mc(_) => 3,
            Kind::Lint(_) => 4,
            Kind::Healthz => 5,
        };
        ENDPOINTS[i]
    }

    fn path(self) -> &'static str {
        match self {
            Kind::Sweep => "/v1/sweep",
            Kind::Simulate(_) => "/v1/simulate",
            Kind::Certify(_) => "/v1/certify",
            Kind::Mc(_) => "/v1/mc",
            Kind::Lint(_) => "/v1/lint",
            Kind::Healthz => "/healthz",
        }
    }
}

/// The generated inputs: pool sources and the body of every request the
/// mix can draw.
struct Inputs {
    pool: Vec<String>,
    /// A spec outside the pool, for the set-up's cold request.
    setup: String,
    bodies: BTreeMap<Kind, String>,
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::String(s.to_owned())).expect("string serializes")
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let pool: Vec<String> = (0..POOL)
            .map(|k| gen::pool_source(seed.wrapping_mul(1000) + k as u64, pool_size(k)))
            .collect();
        let mut bodies = BTreeMap::new();
        for (k, src) in pool.iter().enumerate() {
            let wf = json_str(src);
            bodies.insert(Kind::Simulate(k), format!("{{\"workflow\":{wf}}}"));
            bodies.insert(Kind::Certify(k), format!("{{\"workflow\":{wf}}}"));
            bodies.insert(
                Kind::Lint(k),
                format!("{{\"workflow\":{wf},\"format\":\"text\"}}"),
            );
        }
        let mc = json_str(LCLS_MC_WRM);
        for s in 0..MC_SEEDS {
            bodies.insert(
                Kind::Mc(s),
                format!(
                    "{{\"workflow\":{mc},\"reps\":{MC_REPS},\"seed\":{s},\"percentiles\":true}}"
                ),
            );
        }
        let factors: Vec<String> = SWEEP_FACTORS.iter().map(f64::to_string).collect();
        bodies.insert(
            Kind::Sweep,
            format!(
                "{{\"workflow\":{},\"resource\":\"ext\",\"factors\":[{}],\
                 \"policies\":[\"fifo\",\"backfill\"],\"format\":\"csv\"}}",
                json_str(LCLS_WRM),
                factors.join(",")
            ),
        );
        Self {
            pool,
            setup: gen::pool_source(seed.wrapping_mul(1000) + 999, 1000),
            bodies,
        }
    }

    fn body(&self, kind: Kind) -> Option<&str> {
        self.bodies.get(&kind).map(String::as_str)
    }

    /// The workflow text a request resolves through the server's cache
    /// (`None` for endpoints that do not resolve).
    fn resolves(&self, kind: Kind) -> Option<&str> {
        match kind {
            Kind::Sweep => Some(LCLS_WRM),
            Kind::Simulate(k) | Kind::Certify(k) => Some(&self.pool[k]),
            Kind::Mc(_) => Some(LCLS_MC_WRM),
            Kind::Lint(_) | Kind::Healthz => None,
        }
    }
}

/// One scheduled request: what, and when (seconds from phase start).
struct Planned {
    kind: Kind,
    due: f64,
}

fn plan(rng: &mut Rng, rate: f64, duration: f64) -> Vec<Planned> {
    let zipf = Zipf::new(POOL, ZIPF_EXPONENT);
    gen::poisson_schedule(rng, rate, duration)
        .into_iter()
        .map(|due| {
            let mut pick = rng.below(100) as u64;
            let mut e = 0;
            while pick >= MIX[e] {
                pick -= MIX[e];
                e += 1;
            }
            let kind = match e {
                0 => Kind::Sweep,
                1 => Kind::Simulate(zipf.sample(rng)),
                2 => Kind::Certify(zipf.sample(rng)),
                3 => Kind::Mc(rng.below(MC_SEEDS as usize) as u64),
                4 => Kind::Lint(zipf.sample(rng)),
                _ => Kind::Healthz,
            };
            Planned { kind, due }
        })
        .collect()
}

/// Where in a cycle a request was sent.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Low,
    High,
    Capacity,
    /// The sequential pass that times warm service.
    Warm,
}

/// One request, in the order sent.
struct Sent {
    kind: Kind,
    phase: Phase,
    sample: Sample,
}

/// What the client saw for one request.
#[derive(Clone, Copy, Default)]
struct Sample {
    /// From due time to the last response byte.
    lat_ms: f64,
    /// From due time to send.
    lag_ms: f64,
    /// HTTP status; 0 when the connection failed.
    status: u16,
    hash: u64,
}

fn hash(bytes: &[u8]) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// Sends `plan` open loop from `threads` clients, one connection each.
/// A free client takes the next request in due order and sends it once
/// it is due, so when every client is busy the backlog shows up as
/// latency counted from the due time.
fn run_phase(
    addr: &str,
    tracer: &Tracer,
    inputs: &Inputs,
    plan: &[Planned],
    threads: usize,
    req_base: u64,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let epoch = Instant::now() + Duration::from_millis(20);
    let per_thread: Vec<Vec<(usize, Sample)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut conn = Client::connect(addr).ok();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = plan.get(i) else { break };
                        let due = epoch + Duration::from_secs_f64(p.due);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let lag_ms =
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                        let body = inputs.body(p.kind);
                        let method = if body.is_some() { "POST" } else { "GET" };
                        let resp = tracer.request(
                            req_base + i as u64,
                            "loadgen",
                            p.kind.endpoint(),
                            || {
                                if conn.is_none() {
                                    conn = Client::connect(addr).ok();
                                }
                                conn.as_mut()
                                    .ok_or_else(|| "no connection".to_owned())
                                    .and_then(|c| c.request(method, p.kind.path(), body))
                            },
                        );
                        let lat_ms =
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                        let (status, h) = match resp {
                            Ok(r) => (r.status, hash(&r.body)),
                            Err(_) => {
                                conn = None;
                                (0, 0)
                            }
                        };
                        out.push((
                            i,
                            Sample {
                                lat_ms,
                                lag_ms,
                                status,
                                hash: h,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut samples = vec![Sample::default(); plan.len()];
    for (i, s) in per_thread.into_iter().flatten() {
        samples[i] = s;
    }
    samples
}

/// Sends every request in `kinds` to the server in sequence over one
/// connection: once untimed, so its source is in the cache, then
/// [`LATENCY_REPEATS`] times timed. Returns every response, per request
/// the wall times (ms) of its timed sends, and the process CPU seconds of
/// all timed sends: the client's and the server's work for them, as
/// nothing else runs. CPU time is read around each request's timed sends
/// as a block and summed over the pass: the kernel brings a thread
/// running on another CPU up to date only at its next tick or switch,
/// so one send's reading can be a tick off, but over a pass the
/// carry-overs cancel.
fn sequential(
    addr: &str,
    inputs: &Inputs,
    kinds: &[Kind],
) -> (Vec<(Kind, Sample)>, Vec<Vec<f64>>, f64) {
    let mut conn = Client::connect(addr).ok();
    let mut send = |kind: Kind| {
        let t = Instant::now();
        let body = inputs.body(kind);
        let method = if body.is_some() { "POST" } else { "GET" };
        let resp = conn
            .as_mut()
            .ok_or_else(|| "no connection".to_owned())
            .and_then(|c| c.request(method, kind.path(), body));
        let lat_ms = secs(t) * 1e3;
        match resp {
            Ok(r) => Sample {
                lat_ms,
                lag_ms: 0.0,
                status: r.status,
                hash: hash(&r.body),
            },
            Err(_) => {
                conn = Client::connect(addr).ok();
                Sample::default()
            }
        }
    };
    let (mut sent, mut times, mut cpu_s) = (Vec::new(), Vec::new(), 0.0);
    for &kind in kinds {
        sent.push((kind, send(kind)));
        let t = Stopwatch::start();
        let timed: Vec<Sample> = (0..LATENCY_REPEATS).map(|_| send(kind)).collect();
        cpu_s += t.took().cpu_s;
        times.push(timed.iter().map(|s| s.lat_ms).collect());
        sent.extend(timed.into_iter().map(|s| (kind, s)));
    }
    (sent, times, cpu_s)
}

/// Replays requests in-process through the server's public functions:
/// HTTP parse, cache, compute, render, HTTP write.
struct Replayer<'a> {
    inputs: &'a Inputs,
    cache: IndexCache,
    arena: SimArena,
}

impl<'a> Replayer<'a> {
    fn new(inputs: &'a Inputs, capacity: usize) -> Self {
        Self {
            inputs,
            cache: IndexCache::new(capacity),
            arena: SimArena::new(),
        }
    }

    /// The response body the server should send for `kind`.
    fn replay(&mut self, tracer: &Tracer, req: u64, kind: Kind) -> Vec<u8> {
        tracer.request(req, "loadgen", "replay", || {
            let body = self.inputs.body(kind).unwrap_or("");
            let method = if self.inputs.body(kind).is_some() {
                "POST"
            } else {
                "GET"
            };
            let raw = format!(
                "{method} {} HTTP/1.1\r\nHost: wrm\r\nContent-Length: {}\r\n\r\n{body}",
                kind.path(),
                body.len()
            );
            let parsed = tracer.span("serve.http", "read_request", || {
                http::read_request(&mut raw.as_bytes())
            });
            let parsed = parsed.ok().flatten().expect("replayed request parses");
            let (content_type, body) = tracer.span("serve.api", kind.endpoint(), || {
                self.handle(tracer, kind, &parsed.body)
            });
            let mut wire = Vec::new();
            tracer
                .span("serve.http", "write_response", || {
                    http::write_response(&mut wire, 200, content_type, body.as_bytes(), true)
                })
                .expect("write to memory");
            body.into_bytes()
        })
    }

    fn entry(&self, tracer: &Tracer, source: &str) -> std::sync::Arc<ServeEntry> {
        let (entry, _hit) = tracer
            .span("serve.cache", "get_or_build", || {
                self.cache
                    .get_or_build(cache_key(source, None), || Ok(build_entry(tracer, source)))
            })
            .expect("entry builds");
        entry
    }

    fn handle(&mut self, tracer: &Tracer, kind: Kind, raw_body: &[u8]) -> (&'static str, String) {
        const TEXT: &str = "text/plain; charset=utf-8";
        let json: serde_json::Value = if raw_body.is_empty() {
            serde_json::Value::Null
        } else {
            serde_json::from_str(std::str::from_utf8(raw_body).expect("UTF-8 body"))
                .expect("JSON body")
        };
        let field = |k: &str| {
            json.get(k)
                .and_then(serde_json::Value::as_str)
                .unwrap_or("")
        };
        let workflow = field("workflow");
        match kind {
            Kind::Healthz => (TEXT, "ok\n".into()),
            Kind::Lint(_) => {
                let diags = tracer.span("lint", "lint_source", || wrm_lint::lint_source(workflow));
                let batch = [("<request>".to_owned(), workflow.to_owned(), diags)];
                (
                    TEXT,
                    tracer.span("serve.render", "lint", || render::lint_text(&batch)),
                )
            }
            Kind::Simulate(_) => {
                let e = self.entry(tracer, workflow);
                let s = e.scenario.clone().with_options(e.scenario.options.clone());
                let r = tracer.span("sim.engine", "simulate", || {
                    wrm_sim::simulate_with_base(&s, &e.base, &mut self.arena)
                });
                let r = r.expect("pool spec simulates");
                let structure = e.structure.as_ref().expect("compiled from source");
                let text = tracer.span("serve.render", "simulate", || {
                    render::simulate_report(&s.workflow.name, &s.machine.name, &r, structure)
                });
                (TEXT, text.expect("report renders"))
            }
            Kind::Certify(_) => {
                let e = self.entry(tracer, workflow);
                let cert = tracer.span("sim.bounds", "certify", || {
                    wrm_sim::certify_with_base(&e.scenario.workflow, &e.scenario.options, &e.base)
                });
                let cert = cert.expect("pool spec certifies");
                let text = tracer.span("serve.render", "certify", || {
                    render::certificate_json(&cert)
                });
                ("application/json", text.expect("certificate renders"))
            }
            Kind::Mc(_) => {
                let e = self.entry(tracer, workflow);
                let opts = McOptions {
                    reps: json
                        .get("reps")
                        .and_then(serde_json::Value::as_u64)
                        .unwrap_or(100) as usize,
                    seed: json
                        .get("seed")
                        .and_then(serde_json::Value::as_u64)
                        .unwrap_or(0),
                    threads: 1,
                };
                let mc = tracer.span("sim.mc", "mc", || {
                    wrm_sim::mc_run_with_base(&e.scenario, &e.base, &opts)
                });
                let mc = mc.expect("lcls-mc replicates");
                let text = tracer.span("serve.render", "mc", || {
                    render::mc_report(
                        &e.scenario.workflow.name,
                        &e.scenario.machine.name,
                        &mc,
                        true,
                    )
                });
                (TEXT, text)
            }
            Kind::Sweep => {
                let e = self.entry(tracer, workflow);
                let policies = [SchedulerPolicy::Fifo, SchedulerPolicy::Backfill];
                let g = render::build_grid(
                    &e.scenario,
                    Some("ext".into()),
                    &SWEEP_FACTORS,
                    &[],
                    &policies,
                )
                .expect("valid grid");
                let mut slots: Vec<_> = (0..g.len()).map(|_| None).collect();
                for ni in 0..g.node_limits.len() {
                    for pi in 0..g.policies.len() {
                        let (col, _) = tracer.span("sim.incremental", "column", || {
                            wrm_sim::sweep_column(&e.scenario, &g, &e.base, ni, pi, &mut self.arena)
                        });
                        for (ix, r) in col {
                            slots[ix] = Some(r);
                        }
                    }
                }
                let csv = tracer.span("serve.render", "sweep_csv", || {
                    let mut csv = String::from(render::SWEEP_CSV_HEADER);
                    for (cell, r) in render::grid_cells(&g).iter().zip(&slots) {
                        let r = r.as_ref().expect("every cell evaluated");
                        let (wf, m) = (&e.scenario.workflow.name, &e.scenario.machine.name);
                        csv.push_str(&render::sweep_row_csv(wf, m, "ext", cell, r));
                    }
                    csv
                });
                ("text/csv; charset=utf-8", csv)
            }
        }
    }
}

/// A cache entry built stage by stage, as `resolve::from_source` and
/// `ServeEntry::build` do on a server miss.
fn build_entry(tracer: &Tracer, source: &str) -> ServeEntry {
    let compiled = crate::compile(tracer, source);
    let structure = wrm_trace::Structure::new(
        compiled.total_tasks,
        compiled.parallel_tasks,
        compiled.nodes_per_task,
    );
    let machine =
        wrm_serve::resolve::resolve_machine(&compiled, None).expect("spec names a machine");
    let scenario = Scenario::new(machine, compiled.spec);
    let base = tracer.span("sim.index", "build", || {
        BaseIndex::build(&scenario.machine, &scenario.workflow).expect("spec indexes")
    });
    ServeEntry {
        scenario,
        base,
        structure: Some(structure),
    }
}

/// Replays `sample` in-process from a cold cache of the server's
/// capacity; returns each request's wall time in ms and body hash.
fn replay_pass(tracer: &Tracer, inputs: &Inputs, sample: &[Kind], base: u64) -> Vec<(f64, u64)> {
    let mut r = Replayer::new(inputs, CACHE_CAPACITY);
    sample
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let t = Instant::now();
            let body = r.replay(tracer, base + i as u64, k);
            (secs(t) * 1e3, hash(&body))
        })
        .collect()
}

/// Checks replayed bodies against the expected ones.
fn check_replay(
    report: &mut Report,
    sample: &[Kind],
    pass: &[(f64, u64)],
    want: &BTreeMap<Kind, u64>,
) {
    for (k, (_, h)) in sample.iter().zip(pass) {
        report.check(want.get(k) == Some(h), || {
            format!("replay of {} differs", k.endpoint())
        });
    }
}

/// The traced run's per-layer split of a request: an even sample of
/// the run's requests replayed in-process, traced, alternating with
/// untraced passes so drift in machine speed falls on both sides of the
/// overhead ratio; with the server's handler times it also gives the
/// queue wait.
fn traced_replay(
    ctx: &Ctx,
    inputs: &Inputs,
    open_loop: &[Kind],
    want: &BTreeMap<Kind, u64>,
    snap: &serde_json::Value,
    report: &mut Report,
) {
    let step = (open_loop.len() / REPLAY_SAMPLE).max(1);
    let sample: Vec<Kind> = open_loop.iter().step_by(step).copied().collect();
    let total = |pass: &[(f64, u64)]| pass.iter().map(|p| p.0).sum::<f64>();
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    for pass in 1..=2u64 {
        plain_ms += total(&replay_pass(&ctx.untraced, inputs, &sample, 0));
        let traced = replay_pass(&ctx.tracer, inputs, &sample, pass << 32);
        check_replay(report, &sample, &traced, want);
        traced_ms += total(&traced);
    }
    report.set("trace.overhead_ratio", traced_ms / plain_ms, "ratio");

    let spans = ctx.tracer.spans();
    let med = |layer: &str, name: &str| median(&durations_ms(&spans, layer, name));
    report.set(
        "serve.http.read_request_us",
        med("serve.http", "read_request") * 1e3,
        "us",
    );
    report.set(
        "serve.http.write_response_us",
        med("serve.http", "write_response") * 1e3,
        "us",
    );
    for r in ["sweep_csv", "simulate", "mc", "certify"] {
        report.set(
            format!("serve.render.{r}_us"),
            med("serve.render", r) * 1e3,
            "us",
        );
    }
    report.set("lang.parse_ms", med("lang", "parse"), "ms");
    report.set("lang.compile_ms", med("lang", "compile"), "ms");
    report.set("lint.error_gate_ms", med("lint", "error_gate"), "ms");
    report.set("sim.index.build_ms", med("sim.index", "build"), "ms");
    report.set("sim.bounds.certify_ms", med("sim.bounds", "certify"), "ms");

    // Queue wait: the server's handler time minus the in-process
    // resolve + compute + render time of the same endpoint,
    // weighted by how often the server saw it.
    let (mut wait, mut count) = (0.0, 0.0);
    for e in ENDPOINTS {
        let n = num(snap, &["endpoints", e, "count"]);
        let handler = num(snap, &["endpoints", e, "p50_us"]);
        let own = med("serve.api", e) * 1e3;
        if n > 0.0 && own > 0.0 {
            wait += n * (handler - own).max(0.0);
            count += n;
        }
    }
    report.set("serve.queue_wait_us", wait / count.max(1.0), "us");
}

fn snapshot(addr: &str) -> Result<serde_json::Value, String> {
    let r = wrm_serve::client::request(addr, "GET", "/metrics/json", None)?;
    serde_json::from_str(&r.text()).map_err(|e| e.to_string())
}

fn num(v: &serde_json::Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for k in path {
        match cur.get(k) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    sort(&mut v);
    v
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let inputs = Inputs::new(ctx.seed);
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 0,
        cache_capacity: CACHE_CAPACITY,
        quiet: true,
    };
    let setup_body = format!("{{\"workflow\":{}}}", json_str(&inputs.setup));

    // Set-up: spawn plus the first (cold) request, several times; the
    // last server stays up for the run.
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        let t = Stopwatch::start();
        let s = wrm_serve::spawn(config.clone()).expect("server spawns");
        let r = wrm_serve::client::request(
            &s.addr().to_string(),
            "POST",
            "/v1/simulate",
            Some(&setup_body),
        );
        setups.push(t.took().cpu_s);
        report.check(matches!(&r, Ok(r) if r.status == 200), || {
            format!("set-up request {i} failed")
        });
        if i + 1 < SETUPS {
            s.shutdown();
        } else {
            server = Some(s);
        }
    }
    report.set("cpu.setup_s", median(&setups), "s");
    let server = server.expect("at least one set-up");
    let addr = server.addr().to_string();

    // Warm service over the wire, one request at a time: the end-to-end
    // figure is the CPU time per request of a cycle's sequential pass
    // over every analysis request the mix can draw, at the best cycle.
    // Client-side latency under load is reported too, but on a shared
    // 2-CPU host its median moved by a third between runs of one seed. Cycling the phases spreads every
    // figure over the run, so drift in machine speed within it evens out.
    let cycle_s = ctx.seconds / CYCLES as f64;
    let (low_s, high_s) = (cycle_s * LOW_SHARE, cycle_s * HIGH_SHARE);
    let cap_s = cycle_s - low_s - high_s;
    let mut rng = Rng::new(ctx.seed);
    let kinds: Vec<Kind> = inputs.bodies.keys().copied().collect();
    let mut sent: Vec<Sent> = Vec::new();
    let mut warm_ms: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    let mut warm_cpu_ms = Vec::new();
    // Per cycle: where its closed-loop requests sit in `sent`, and the
    // phase's CPU seconds.
    let mut capacity: Vec<(std::ops::Range<usize>, f64)> = Vec::new();
    let (mut high_wall, mut cap_wall) = (0.0, 0.0);
    for _ in 0..CYCLES {
        let low_plan = plan(&mut rng, LOW_RPS, low_s);
        let high_plan = plan(&mut rng, HIGH_RPS, high_s);
        // Closed loop: every request is due at the start, so each client
        // sends its next one as soon as the last has been answered.
        let mut cap_plan = plan(&mut rng, CAPACITY_RPS, cap_s);
        for p in &mut cap_plan {
            p.due = 0.0;
        }
        for (phase, plan) in [
            (Phase::Low, &low_plan),
            (Phase::High, &high_plan),
            (Phase::Capacity, &cap_plan),
        ] {
            let base = sent.len() as u64;
            let t = Stopwatch::start();
            let samples = run_phase(&addr, &ctx.tracer, &inputs, plan, ctx.threads, base);
            let cpu_s = t.took().cpu_s;
            // From the phase's start to its last response.
            let wall = plan
                .iter()
                .zip(&samples)
                .map(|(p, s)| p.due + s.lat_ms / 1e3)
                .fold(0.0, f64::max);
            match phase {
                Phase::High => high_wall += wall.max(high_s),
                Phase::Capacity => {
                    cap_wall += wall;
                    capacity.push((sent.len()..sent.len() + plan.len(), cpu_s));
                }
                _ => {}
            }
            sent.extend(plan.iter().zip(samples).map(|(p, sample)| Sent {
                kind: p.kind,
                phase,
                sample,
            }));
        }
        let (pass, times, cpu_s) = sequential(&addr, &inputs, &kinds);
        for (all, t) in warm_ms.iter_mut().zip(times) {
            all.extend(t);
        }
        warm_cpu_ms.push(cpu_s * 1e3 / (kinds.len() * LATENCY_REPEATS) as f64);
        sent.extend(pass.into_iter().map(|(kind, sample)| Sent {
            kind,
            phase: Phase::Warm,
            sample,
        }));
    }
    report.set("cpu.op_ms_min", min(&warm_cpu_ms), "ms");
    let medians: Vec<f64> = warm_ms.iter().map(|t| median(t)).collect();
    report.set("wall.latency_p50_ms", geomean(&medians), "ms");
    let snap = snapshot(&addr);
    report.check(snap.is_ok(), || {
        format!("GET /metrics/json: {:?}", snap.as_ref().err())
    });
    let snap = snap.unwrap_or(serde_json::Value::Null);
    let drain = server.shutdown();
    report.check(drain.abandoned == 0, || {
        format!("{} connections abandoned at shutdown", drain.abandoned)
    });

    // Every response against the in-process replay of its request.
    let mut want: BTreeMap<Kind, u64> = BTreeMap::new();
    let mut replayer = Replayer::new(&inputs, POOL + 2);
    for kind in kinds.iter().copied().chain([Kind::Healthz]) {
        want.insert(kind, hash(&replayer.replay(&ctx.untraced, 0, kind)));
    }
    let ok = |r: &Sent| r.sample.status == 200 && want.get(&r.kind) == Some(&r.sample.hash);
    for (i, r) in sent.iter().enumerate() {
        report.check(ok(r), || {
            format!(
                "request {i} ({}): status {}, body matches replay: {}",
                r.kind.endpoint(),
                r.sample.status,
                want.get(&r.kind) == Some(&r.sample.hash)
            )
        });
    }
    let in_phase = |phase: Phase| sent.iter().filter(move |r| r.phase == phase);
    let open_loop = || {
        sent.iter()
            .filter(|r| matches!(r.phase, Phase::Low | Phase::High))
    };
    // Capacity: answered requests per CPU second of the best cycle's
    // closed-loop phase (per wall second of them all, printed).
    let per_cpu_s: Vec<f64> = capacity
        .iter()
        .map(|(range, cpu_s)| sent[range.clone()].iter().filter(|r| ok(r)).count() as f64 / cpu_s)
        .collect();
    report.set(
        "cpu.throughput_per_s",
        per_cpu_s.iter().copied().fold(0.0, f64::max),
        "1/s",
    );
    let cap_ok = in_phase(Phase::Capacity).filter(|r| ok(r)).count();
    report.set("wall.throughput_per_s", cap_ok as f64 / cap_wall, "1/s");

    // The server's cache counters, checked from outside.
    let (hits, misses, evictions) = (
        num(&snap, &["cache", "hits"]),
        num(&snap, &["cache", "misses"]),
        num(&snap, &["cache", "evictions"]),
    );
    let resolving = 1 + sent
        .iter()
        .filter(|r| inputs.resolves(r.kind).is_some())
        .count();
    let distinct: BTreeSet<&str> = sent
        .iter()
        .filter_map(|r| inputs.resolves(r.kind))
        .chain([inputs.setup.as_str()])
        .collect();
    report.check(misses >= distinct.len() as f64, || {
        format!(
            "{misses} cache misses < {} distinct sources",
            distinct.len()
        )
    });
    report.check((hits + misses) as usize == resolving, || {
        format!("cache hits {hits} + misses {misses} != {resolving} resolving requests")
    });
    report.set("serve.cache.hits", hits, "count");
    report.set("serve.cache.misses", misses, "count");
    report.set("serve.cache.evictions", evictions, "count");
    report.set(
        "serve.cache.miss_ratio",
        misses / (hits + misses).max(1.0),
        "ratio",
    );

    // Open-loop latency, from due time.
    let lat = |phase| sorted(in_phase(phase).map(|r| r.sample.lat_ms).collect());
    let (low_lat, high_lat) = (lat(Phase::Low), lat(Phase::High));
    report.set("serve.low.p50_ms", quantile(&low_lat, 0.5), "ms");
    report.set_tail("serve.low.p99_ms", &low_lat, 0.99, "ms");
    report.set("serve.high.p50_ms", quantile(&high_lat, 0.5), "ms");
    report.set_tail("serve.high.p99_ms", &high_lat, 0.99, "ms");
    // Goodput: requests that succeeded within the limit, per second of
    // the high phases.
    let good = in_phase(Phase::High)
        .filter(|r| ok(r) && r.sample.lat_ms <= LATENCY_LIMIT_MS)
        .count();
    report.set("serve.high.goodput_rps", good as f64 / high_wall, "1/s");
    let lags = sorted(open_loop().map(|r| r.sample.lag_ms).collect());
    report.set_tail("loadgen.lag_p99_ms", &lags, 0.99, "ms");

    // Per endpoint, client side and (from /metrics/json) server side.
    let mut capped = 0.0;
    for e in ENDPOINTS {
        let l = sorted(
            open_loop()
                .filter(|r| r.kind.endpoint() == e)
                .map(|r| r.sample.lat_ms)
                .collect(),
        );
        report.set(format!("serve.client.{e}.p50_ms"), quantile(&l, 0.5), "ms");
        report.set_tail(format!("serve.client.{e}.p99_ms"), &l, 0.99, "ms");
        report.set(
            format!("serve.api.{e}.handler_p50_us"),
            num(&snap, &["endpoints", e, "p50_us"]),
            "us",
        );
        report.set(
            format!("serve.api.{e}.handler_p99_us"),
            num(&snap, &["endpoints", e, "p99_us"]),
            "us",
        );
        if num(&snap, &["endpoints", e, "count"]) >= wrm_serve::metrics::RESERVOIR_CAP as f64 {
            eprintln!("serve.api.{e}.*: reservoir full, server percentiles stopped updating");
            capped += 1.0;
        }
    }
    report.set("serve.api.capped_endpoints", capped, "count");

    // Hit or miss of the open-loop requests, from an LRU of the
    // server's capacity fed the same resolving sequence (requests in the
    // order sent).
    let model: IndexCache<()> = IndexCache::new(CACHE_CAPACITY);
    let key = |src: &str| cache_key(src, None);
    let _ = model.get_or_build(key(&inputs.setup), || Ok(()));
    let (mut hit_lat, mut miss_lat) = (Vec::new(), Vec::new());
    for r in &sent {
        if let Some(src) = inputs.resolves(r.kind) {
            let (_, hit) = model.get_or_build(key(src), || Ok(())).expect("unit entry");
            if matches!(r.phase, Phase::Low | Phase::High) {
                if hit { &mut hit_lat } else { &mut miss_lat }.push(r.sample.lat_ms);
            }
        }
    }
    report.set_tail("serve.hit.p99_ms", &sorted(hit_lat), 0.99, "ms");
    report.set_tail("serve.miss.p99_ms", &sorted(miss_lat), 0.99, "ms");

    // Not divided by a gauged slowdown: the server's CPU time moves less
    // with cache contention than the gauge's reference pass does, and in
    // six runs dividing it out doubled the spread of these figures.
    crate::gate(&mut report, None);

    if ctx.traced() {
        let kinds: Vec<Kind> = open_loop().map(|r| r.kind).collect();
        traced_replay(ctx, &inputs, &kinds, &want, &snap, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_plan_is_a_function_of_the_seed() {
        let a = plan(&mut Rng::new(3), 100.0, 5.0);
        let b = plan(&mut Rng::new(3), 100.0, 5.0);
        let c = plan(&mut Rng::new(4), 100.0, 5.0);
        let key = |p: &[Planned]| {
            p.iter()
                .map(|x| (x.kind, x.due.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        // Every endpoint of the mix shows up.
        for e in ENDPOINTS {
            assert!(a.iter().any(|p| p.kind.endpoint() == e), "{e} missing");
        }
    }
}
