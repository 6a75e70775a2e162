//! The wrm benchmark: one seeded command per workload that times the
//! program end to end, checks every output, and (with `--trace 1`)
//! splits the time into per-layer spans.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <des_scale|whatif_batch|serve_mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. The last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics ([`END_TO_END`]) with `--trace 0`, the per-layer
//! metrics ([`per_layer`]) with `--trace 1`. The lines before it print
//! every metric the run measured, by name and unit. A failed output
//! check makes the exit code 1.
//!
//! The end-to-end metrics keep one meaning across workloads. They are
//! measured in the process's CPU time (every thread, the in-process
//! server's included), and the speed metrics take the best operation of
//! the run. On a shared host the wall time of the same work moved by
//! half between runs with the neighbours' load; CPU time leaves out the
//! time they held the processor, and the best operation leaves out short
//! bursts of their load, but the CPU time of `des_scale` and
//! `whatif_batch` still drifted by a fifth over minutes as neighbours
//! crowded the shared caches. Those two workloads therefore also gauge
//! the machine's speed with a fixed reference pass before each round
//! ([`calib`]) and divide the slowdown out, which puts their figures on
//! a reference machine's clock. The metric table prints the figures
//! before that step (`cpu.*`), the gauge (`calib.*`) and the wall-time
//! figures (`wall.*`, medians and totals).
//!
//! | metric | `des_scale` | `whatif_batch` | `serve_mixed` |
//! |---|---|---|---|
//! | `setup_s` | both index builds | sweep and MC compile + index | spawn + first cold request |
//! | `peak_rss_mb` | process high-water mark | same | same |
//! | `throughput_per_cpu_s` | simulated tasks per CPU second, one best pass of each kind | sweep cells + MC reps per CPU second, best sweep and best MC batch | answered requests per CPU second, closed loop at capacity, best cycle |
//! | `op_cpu_ms_min` | geomean over the four pass kinds of the best pass | geomean of the best sweep and the best MC batch | CPU per request of a sequential pass over every analysis request on one connection, best cycle |
//!
//! `setup_s` is the median CPU time of [`SETUPS`] set-ups in the run, or
//! of more for `serve_mixed`, whose set-up takes tens of milliseconds.

mod calib;
mod des;
mod gen;
mod serve;
mod stats;
mod trace;
mod whatif;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics, as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_cpu_s", "1/s"),
    ("op_cpu_ms_min", "ms"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Endpoints of the server mix.
pub const ENDPOINTS: [&str; 6] = ["sweep", "simulate", "certify", "mc", "lint", "healthz"];

/// Per-layer metrics, as listed in `BENCHMARK.json`: every layer's self
/// time and number of spans (`calls`), then the layer-specific figures. A workload
/// that bypasses a layer reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in trace::LAYERS {
        out.push((format!("{layer}.self_ms"), "ms"));
        out.push((format!("{layer}.calls"), "count"));
    }
    let fixed: &[(&str, &str)] = &[
        ("sim.engine.layered.full_ms", "ms"),
        ("sim.engine.layered.summary_ms", "ms"),
        ("sim.engine.forkjoin.full_ms", "ms"),
        ("sim.engine.forkjoin.summary_ms", "ms"),
        ("sim.engine.materialize_ms", "ms"),
        ("sim.engine.spans_per_s", "1/s"),
        ("sim.engine.tasks", "count"),
        ("sim.engine.spans", "count"),
        ("sim.engine.flows", "count"),
        ("sim.index.build_ms", "ms"),
        ("lang.parse_ms", "ms"),
        ("lang.compile_ms", "ms"),
        ("lint.error_gate_ms", "ms"),
        ("sim.incremental.grid_ms", "ms"),
        ("sim.incremental.column_ms_p50", "ms"),
        ("sim.incremental.column_ms_max", "ms"),
        ("sim.incremental.fastpath", "count"),
        ("sim.incremental.replayed", "count"),
        ("sim.incremental.cold", "count"),
        ("sim.incremental.reused", "count"),
        ("sim.incremental.errors", "count"),
        ("sim.incremental.fastpath_ratio", "ratio"),
        ("sim.mc.batch_ms", "ms"),
        ("sim.mc.per_rep_us", "us"),
        ("sim.mc.t1_batch_ms", "ms"),
        ("sim.mc.fanout_speedup", "ratio"),
        ("sim.bounds.certify_ms", "ms"),
        ("serve.http.read_request_us", "us"),
        ("serve.http.write_response_us", "us"),
        ("serve.render.sweep_csv_us", "us"),
        ("serve.render.simulate_us", "us"),
        ("serve.render.mc_us", "us"),
        ("serve.render.certify_us", "us"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_owned(), u)));
    for e in ENDPOINTS {
        out.push((format!("serve.api.{e}.handler_p50_us"), "us"));
        out.push((format!("serve.api.{e}.handler_p99_us"), "us"));
    }
    out.push(("serve.api.capped_endpoints".into(), "count"));
    for e in ENDPOINTS {
        out.push((format!("serve.client.{e}.p50_ms"), "ms"));
        out.push((format!("serve.client.{e}.p99_ms"), "ms"));
    }
    let fixed: &[(&str, &str)] = &[
        ("serve.queue_wait_us", "us"),
        ("serve.cache.hits", "count"),
        ("serve.cache.misses", "count"),
        ("serve.cache.evictions", "count"),
        ("serve.cache.miss_ratio", "ratio"),
        ("serve.hit.p99_ms", "ms"),
        ("serve.miss.p99_ms", "ms"),
        ("serve.low.p50_ms", "ms"),
        ("serve.low.p99_ms", "ms"),
        ("serve.high.p50_ms", "ms"),
        ("serve.high.p99_ms", "ms"),
        ("serve.high.goodput_rps", "1/s"),
        ("loadgen.lag_p99_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_owned(), u)));
    out
}

/// What one workload run hands back.
#[derive(Default)]
pub struct Report {
    /// Operations run, output checks included.
    pub attempted: u64,
    /// Operations whose output was wrong or that failed outright.
    pub failed: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// The quantile each tail metric actually reports, as printed.
    quantiles: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// A metric's value (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.0)
    }

    /// Sets a tail percentile of a sorted sample under the ten-beyond
    /// rule ([`stats::tail`]); the metric table prints the quantile
    /// used, which is below `q` when the sample is short.
    pub fn set_tail(
        &mut self,
        name: impl Into<String>,
        sorted: &[f64],
        q: f64,
        unit: &'static str,
    ) {
        let name = name.into();
        let (value, used) = stats::tail(sorted, q);
        self.quantiles.insert(name.clone(), used);
        self.set(name, value, unit);
    }

    /// Counts one checked operation; a failed check is reported on
    /// stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// `lo <= x <= hi` up to float rounding, with the tolerances the
/// repository's own bracketing oracle (`crates/sim/tests/bracketing.rs`)
/// allows: certificates and the engine sum the same terms in different
/// orders.
pub fn bracketed(lo: f64, x: f64, hi: f64) -> bool {
    lo * (1.0 - 1e-6) <= x && x <= hi * (1.0 + 1e-9) + 1e-9
}

/// `.wrm` source to compiled spec the way `wrm_serve::resolve` runs it
/// (parse, error-severity lint gate, compile), one span per stage.
pub fn compile(tracer: &Tracer, source: &str) -> wrm_lang::Compiled {
    let ast = tracer.span("lang", "parse", || {
        wrm_lang::parse(source).expect("generated spec parses")
    });
    let errors = tracer.span("lint", "error_gate", || wrm_lint::lint_errors(&ast));
    assert!(errors.is_empty(), "generated spec has lint errors");
    tracer.span("lang", "compile", || {
        wrm_lang::compile(&ast).expect("generated spec compiles")
    })
}

/// The run's settings, shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Worker threads for the program's fan-outs and the client pool.
    pub threads: usize,
    /// Records the traced half of a `--trace 1` run.
    pub tracer: Tracer,
    /// A tracer that records nothing, for untraced operations.
    pub untraced: Tracer,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.on()
    }
}

/// Wall times of a workload's measured rounds.
pub struct Rounds {
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
    /// Gaps between the end of one round and the start of the next.
    pub lag_ms: Vec<f64>,
    /// The machine's speed, gauged before each round.
    pub gauge: calib::Gauge,
}

impl Rounds {
    /// Traced round time over untraced round time (medians).
    pub fn overhead_ratio(&self) -> f64 {
        stats::median(&self.traced_s) / stats::median(&self.untraced_s)
    }

    /// The gaps between rounds, sorted: how late the benchmark loop ran.
    pub fn sorted_lag_ms(&self) -> Vec<f64> {
        let mut lag = self.lag_ms.clone();
        stats::sort(&mut lag);
        lag
    }
}

/// Runs rounds until `ctx.seconds` have elapsed, at least two of each
/// kind, with a speed-gauge pass before each. In a traced run, rounds
/// alternate between untraced and traced. `round(tracer, index)`
/// returns the seconds it measured.
pub fn run_rounds(ctx: &Ctx, mut round: impl FnMut(&Tracer, u64) -> f64) -> Rounds {
    let start = Instant::now();
    let mut rounds = Rounds {
        untraced_s: Vec::new(),
        traced_s: Vec::new(),
        lag_ms: Vec::new(),
        gauge: calib::Gauge::new(),
    };
    let mut last_end: Option<Instant> = None;
    for i in 0u64.. {
        let done = start.elapsed().as_secs_f64() >= ctx.seconds;
        let enough = rounds.untraced_s.len() >= 2 && (!ctx.traced() || rounds.traced_s.len() >= 2);
        if done && enough {
            break;
        }
        let traced = ctx.traced() && i % 2 == 1;
        if let Some(end) = last_end {
            rounds.lag_ms.push(end.elapsed().as_secs_f64() * 1e3);
        }
        let tracer = if traced { &ctx.tracer } else { &ctx.untraced };
        rounds.gauge.pass();
        let secs = round(tracer, i);
        last_end = Some(Instant::now());
        if traced {
            rounds.traced_s.push(secs);
        } else {
            rounds.untraced_s.push(secs);
        }
    }
    rounds
}

/// Sets the gated CPU-time metrics from a workload's `cpu.*` figures:
/// divided by the slowdown `gauge` measured, or as measured without one.
pub fn gate(report: &mut Report, gauge: Option<&calib::Gauge>) {
    let slowdown = gauge.map_or(1.0, |g| {
        report.set("calib.best_ms", g.best_ms(), "ms");
        report.set("calib.slowdown", g.slowdown(), "ratio");
        g.slowdown()
    });
    report.set("setup_s", report.get("cpu.setup_s") / slowdown, "s");
    report.set(
        "throughput_per_cpu_s",
        report.get("cpu.throughput_per_s") * slowdown,
        "1/s",
    );
    report.set(
        "op_cpu_ms_min",
        report.get("cpu.op_ms_min") / slowdown,
        "ms",
    );
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;

/// CPU seconds this process has used so far, every thread included,
/// exited ones too. With steal-time accounting in the kernel, time the
/// host hands the machine's virtual CPUs to other guests is left out;
/// wall time counts it.
pub fn cpu_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and process CPU time of one measured operation. The gated
/// end-to-end metrics use the CPU time: on a shared host the wall time
/// of the same work moves with the neighbours' load.
#[derive(Clone, Copy, Debug)]
pub struct Took {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Starts both clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_now(),
        }
    }

    pub fn took(&self) -> Took {
        Took {
            wall_s: secs(self.wall),
            cpu_s: cpu_now() - self.cpu,
        }
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    Ok(Args {
        workload: get("--workload")?.to_owned(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Where the traced run writes its spans: under the build directory,
/// which the repository ignores.
fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || std::path::PathBuf::from("target"),
        std::path::PathBuf::from,
    );
    dir.join("perfbench-traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        tracer: Tracer::new(args.trace),
        untraced: Tracer::new(false),
    };
    let mut report = match args.workload.as_str() {
        "des_scale" => des::run(&ctx),
        "whatif_batch" => whatif::run(&ctx),
        "serve_mixed" => serve::run(&ctx),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (des_scale, whatif_batch, serve_mixed)"
            );
            return ExitCode::from(2);
        }
    };
    match peak_rss_mb() {
        Ok(mb) => report.set("peak_rss_mb", mb, "MB"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }

    let wanted: Vec<(String, &str)> = if args.trace {
        let spans = ctx.tracer.spans();
        for (layer, (self_ns, count)) in trace::by_layer(&spans) {
            report.set(format!("{layer}.self_ms"), self_ns as f64 / 1e6, "ms");
            report.set(format!("{layer}.calls"), count as f64, "count");
        }
        let path = trace_path(&args.workload, args.seed);
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };

    println!(
        "workload {} seed {} ({} threads, {} s measured)",
        args.workload, args.seed, ctx.threads, args.seconds
    );
    for (name, (value, unit)) in &report.metrics {
        match report.quantiles.get(name) {
            Some(q) => println!("  {name:<40} {value:>16.6} {unit} (p{:.1})", q * 100.0),
            None => println!("  {name:<40} {value:>16.6} {unit}"),
        }
    }
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  {:<40} {failed_ratio:>16.6} ratio ({} of {} failed)",
        "failed_ratio", report.failed, report.attempted
    );

    // Values print with Rust's shortest round-trip formatting: every
    // digit as measured.
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = report.metrics.get(&name).map_or(0.0, |m| m.0);
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        ));
    }
    let correct = report.failed == 0 && report.attempted > 0;
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(",")
    );
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(serde_json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.as_str()).unwrap().to_owned(),
                        m.get("unit").and_then(|v| v.as_str()).unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed("per_layer"), layer);
        let mut names: Vec<String> = layer.into_iter().map(|(n, _)| n).collect();
        names.extend(e2e.into_iter().map(|(n, _)| n));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
    }
}
