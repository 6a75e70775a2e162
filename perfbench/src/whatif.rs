//! `whatif_batch`: the paper's what-if analyses as one-shot batch
//! commands at `threads = nproc`. A seeded sweep spec (1000 tasks plus
//! an archive chain) goes through compile, index, a 16 factors x 16
//! node limits x {fifo, backfill} incremental sweep and CSV render; a
//! 256-replication Monte-Carlo batch over a seeded 10k-task spec,
//! compiled once at set-up, is rendered as the `--reps` report. The incremental engine, the fast
//! path, checkpoint replay and MC sampling do most of the work.

use crate::stats::{median, min, quantile, sort};
use crate::trace::{durations_ms, Tracer};
use crate::{bracketed, gen, run_rounds, Ctx, Report, Stopwatch, Took, SETUPS};
use std::sync::atomic::{AtomicUsize, Ordering};
use wrm_serve::render;
use wrm_sim::{
    BaseIndex, McOptions, Scenario, SchedulerPolicy, SimArena, SimError, SimResult, SweepGrid,
    SweepStats,
};

const MC_REPS: usize = 256;
/// Sweep cells checked against a cold simulation of the same point.
const CHECKED_CELLS: usize = 8;

/// Source text to compiled scenario, one span per front-end stage.
fn compile(tracer: &Tracer, source: &str) -> Scenario {
    let compiled = crate::compile(tracer, source);
    let machine = compiled.machine.expect("spec names its machine");
    Scenario::new(machine, compiled.spec)
}

fn index(tracer: &Tracer, s: &Scenario, name: &'static str) -> BaseIndex {
    tracer.span("sim.index", name, || {
        BaseIndex::build(&s.machine, &s.workflow).expect("generated spec indexes")
    })
}

/// The grid, as `wrm sweep --resource ext --factors .. --nodes ..
/// --policies fifo,backfill` would build it.
fn grid(s: &Scenario) -> SweepGrid {
    let factors: Vec<f64> = (0..16).map(|i| 0.25 + f64::from(i) * 0.05).collect();
    let nodes: Vec<u64> = (0..16).map(|i| 256 + 252 * i).collect();
    let policies = [SchedulerPolicy::Fifo, SchedulerPolicy::Backfill];
    render::build_grid(s, Some("ext".into()), &factors, &nodes, &policies).expect("valid grid")
}

type Cells = Vec<Result<SimResult, SimError>>;

/// The grid through `sweep_column`, one span per column, on `threads`
/// workers with one arena each: the fan-out `sweep_grid_with_base`
/// runs, made visible column by column. The traced run calls it once,
/// outside the timed rounds, for the per-column times only.
fn column_pass(
    tracer: &Tracer,
    s: &Scenario,
    g: &SweepGrid,
    base: &BaseIndex,
    threads: usize,
) -> (Cells, SweepStats) {
    let columns: Vec<(usize, usize)> = (0..g.node_limits.len())
        .flat_map(|ni| (0..g.policies.len()).map(move |pi| (ni, pi)))
        .collect();
    let next = AtomicUsize::new(0);
    let ctx = tracer.current();
    let outputs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    tracer.adopt(ctx, || {
                        let mut arena = SimArena::new();
                        let mut out = Vec::new();
                        loop {
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(ni, pi)) = columns.get(c) else {
                                break;
                            };
                            out.push(tracer.span("sim.incremental", "column", || {
                                wrm_sim::sweep_column(s, g, base, ni, pi, &mut arena)
                            }));
                        }
                        out
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("column worker"))
            .collect()
    });
    let mut slots: Vec<Option<Result<SimResult, SimError>>> = (0..g.len()).map(|_| None).collect();
    let mut stats = SweepStats::default();
    for (results, st) in outputs.into_iter().flatten() {
        stats.fastpath += st.fastpath;
        stats.replayed += st.replayed;
        stats.cold += st.cold;
        stats.reused += st.reused;
        stats.errors += st.errors;
        for (ix, r) in results {
            slots[ix] = Some(r);
        }
    }
    let cells = slots
        .into_iter()
        .map(|r| r.expect("every cell evaluated"))
        .collect();
    (cells, stats)
}

/// One `wrm sweep` batch: compile, index, grid, CSV.
fn sweep_batch(tracer: &Tracer, source: &str, threads: usize) -> (String, Cells, SweepStats) {
    let s = compile(tracer, source);
    let base = index(tracer, &s, "build");
    let g = grid(&s);
    let out = tracer.span("sim.incremental", "grid", || {
        wrm_sim::sweep_grid_with_base(&s, &g, threads, &base)
    });
    let csv = tracer.span("serve.render", "sweep_csv", || {
        sweep_csv(&s, &g, &out.results)
    });
    (csv, out.results, out.stats)
}

/// The `wrm sweep --format csv` output for a grid's cells.
fn sweep_csv(s: &Scenario, g: &SweepGrid, cells: &Cells) -> String {
    let mut csv = String::from(render::SWEEP_CSV_HEADER);
    let resource = g.resource.clone().unwrap_or_default();
    for (cell, r) in render::grid_cells(g).iter().zip(cells) {
        csv.push_str(&render::sweep_row_csv(
            &s.workflow.name,
            &s.machine.name,
            &resource,
            cell,
            r,
        ));
    }
    csv
}

/// One `wrm simulate --reps` batch: replications plus the report.
fn mc_batch(
    tracer: &Tracer,
    s: &Scenario,
    base: &BaseIndex,
    seed: u64,
    threads: usize,
) -> (String, Vec<f64>, (f64, f64)) {
    let name = if threads == 1 { "batch_t1" } else { "batch" };
    let mc = tracer.span("sim.mc", name, || {
        let opts = McOptions {
            reps: MC_REPS,
            seed,
            threads,
        };
        wrm_sim::mc_run_with_base(s, base, &opts).expect("generated spec replicates")
    });
    let text = tracer.span("serve.render", "mc", || {
        render::mc_report(&s.workflow.name, &s.machine.name, &mc, true)
    });
    (text, mc.makespans, (mc.bracket_lo, mc.bracket_hi))
}

fn same_result(a: &SimResult, b: &SimResult) -> bool {
    a.makespan.to_bits() == b.makespan.to_bits()
        && a.task_times == b.task_times
        && a.task_starts == b.task_starts
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let source = gen::sweep_source(ctx.seed);
    let mc_source = gen::mc_source(ctx.seed);

    let mut setups = Vec::new();
    let mut mc = None;
    for _ in 0..SETUPS {
        let t = Stopwatch::start();
        let s = compile(&ctx.tracer, &source);
        std::hint::black_box(index(&ctx.tracer, &s, "build"));
        let s = compile(&ctx.tracer, &mc_source);
        let base = index(&ctx.tracer, &s, "build_mc");
        setups.push(t.took().cpu_s);
        mc = Some((s, base));
    }
    report.set("cpu.setup_s", median(&setups), "s");
    let (mc_scenario, mc_base) = mc.expect("set up at least once");

    // Output checks, outside every timed region.
    let (want_csv, cells, want_stats) = sweep_batch(&ctx.untraced, &source, ctx.threads);
    let sweep_scn = compile(&ctx.untraced, &source);
    let sweep_base = index(&ctx.untraced, &sweep_scn, "build");
    let g = grid(&sweep_scn);
    let mut arena = SimArena::new();
    for k in 0..CHECKED_CELLS {
        let ix = k * g.len() / CHECKED_CELLS;
        let (fi, rest) = (
            ix / (g.node_limits.len() * g.policies.len()),
            ix % (g.node_limits.len() * g.policies.len()),
        );
        let (ni, pi) = (rest / g.policies.len(), rest % g.policies.len());
        let point = sweep_scn
            .clone()
            .with_options(g.point_options(&sweep_scn.options, fi, ni, pi));
        let cold = wrm_sim::simulate_with_base(&point, &sweep_base, &mut arena);
        let ok = matches!((&cells[ix], &cold), (Ok(a), Ok(b)) if same_result(a, b));
        report.check(ok, || {
            format!("sweep cell {ix} differs from a cold simulation")
        });
    }
    drop(cells);
    let cert = ctx.tracer.span("sim.bounds", "certify", || {
        wrm_sim::certify_with_base(&sweep_scn.workflow, &sweep_scn.options, &sweep_base)
            .expect("certifies")
    });
    let mk = wrm_sim::simulate_with_base(&sweep_scn, &sweep_base, &mut arena)
        .expect("simulates")
        .makespan;
    report.check(bracketed(cert.lo, mk, cert.hi), || {
        format!("sweep makespan {mk} outside [{}, {}]", cert.lo, cert.hi)
    });
    let (want_mc, samples, (lo, hi)) =
        mc_batch(&ctx.untraced, &mc_scenario, &mc_base, ctx.seed, ctx.threads);
    let (mc_t1, samples_t1, _) = mc_batch(&ctx.untraced, &mc_scenario, &mc_base, ctx.seed, 1);
    report.check(mc_t1 == want_mc && samples_t1 == samples, || {
        format!("MC result differs between 1 and {} threads", ctx.threads)
    });
    let outside = samples.iter().filter(|&&m| !bracketed(lo, m, hi)).count();
    report.check(outside == 0 && samples.len() == MC_REPS, || {
        format!("{outside} MC samples outside [{lo}, {hi}]")
    });

    let (mut sweep_s, mut mc_s) = (Vec::new(), Vec::new());
    let rounds = run_rounds(ctx, |tracer: &Tracer, round| {
        let t = Stopwatch::start();
        let (csv, _, stats) = tracer.request(round * 3, "loadgen", "sweep", || {
            sweep_batch(tracer, &source, ctx.threads)
        });
        let dt_sweep = t.took();
        let t = Stopwatch::start();
        let (text, _, _) = tracer.request(round * 3 + 1, "loadgen", "mc", || {
            mc_batch(tracer, &mc_scenario, &mc_base, ctx.seed, ctx.threads)
        });
        let dt_mc = t.took();
        if tracer.on() {
            // Single-threaded MC, for the fan-out speed-up only.
            let (t1, _, _) = tracer.request(round * 3 + 2, "loadgen", "mc_t1", || {
                mc_batch(tracer, &mc_scenario, &mc_base, ctx.seed, 1)
            });
            report.check(t1 == want_mc, || {
                format!("round {round}: 1-thread MC report differs")
            });
        } else {
            sweep_s.push(dt_sweep);
            mc_s.push(dt_mc);
        }
        report.check(csv == want_csv && stats == want_stats, || {
            format!("round {round}: sweep CSV or path mix differs")
        });
        report.check(text == want_mc, || {
            format!("round {round}: MC report differs")
        });
        dt_sweep.wall_s + dt_mc.wall_s
    });
    if ctx.traced() {
        let (cells, stats) = ctx.tracer.request(u64::MAX, "loadgen", "columns", || {
            column_pass(&ctx.tracer, &sweep_scn, &g, &sweep_base, ctx.threads)
        });
        report.check(
            sweep_csv(&sweep_scn, &g, &cells) == want_csv && stats == want_stats,
            || "column-by-column sweep differs from sweep_grid_with_base".to_owned(),
        );
    }

    // The best CPU time of each batch kind (both fan-outs' workers
    // included) is gated, wall time printed.
    let cells_n = g.len() as f64;
    let cpu = |v: &[Took]| -> Vec<f64> { v.iter().map(|t| t.cpu_s).collect() };
    let wall = |v: &[Took]| -> Vec<f64> { v.iter().map(|t| t.wall_s).collect() };
    let (best_sweep, best_mc) = (min(&cpu(&sweep_s)), min(&cpu(&mc_s)));
    report.set(
        "cpu.throughput_per_s",
        (cells_n + MC_REPS as f64) / (best_sweep + best_mc),
        "1/s",
    );
    report.set("cpu.op_ms_min", (best_sweep * best_mc).sqrt() * 1e3, "ms");
    let n = sweep_s.len() as f64;
    let (t_sweep, t_mc): (f64, f64) = (wall(&sweep_s).iter().sum(), wall(&mc_s).iter().sum());
    let (m_sweep, m_mc) = (median(&wall(&sweep_s)) * 1e3, median(&wall(&mc_s)) * 1e3);
    report.set(
        "wall.throughput_per_s",
        n * (cells_n + MC_REPS as f64) / (t_sweep + t_mc),
        "1/s",
    );
    report.set("wall.latency_p50_ms", (m_sweep * m_mc).sqrt(), "ms");
    report.set("sweep.cells_per_s", n * cells_n / t_sweep, "1/s");
    report.set("mc.reps_per_s", n * MC_REPS as f64 / t_mc, "1/s");
    report.set("sweep.batch_ms", m_sweep, "ms");
    report.set("mc.batch_ms", m_mc, "ms");

    report.set(
        "sim.incremental.fastpath",
        want_stats.fastpath as f64,
        "count",
    );
    report.set(
        "sim.incremental.replayed",
        want_stats.replayed as f64,
        "count",
    );
    report.set("sim.incremental.cold", want_stats.cold as f64, "count");
    report.set("sim.incremental.reused", want_stats.reused as f64, "count");
    report.set("sim.incremental.errors", want_stats.errors as f64, "count");
    report.set(
        "sim.incremental.fastpath_ratio",
        want_stats.fastpath as f64 / cells_n,
        "ratio",
    );
    if ctx.traced() {
        let spans = ctx.tracer.spans();
        let med = |layer: &str, name: &str| median(&durations_ms(&spans, layer, name));
        report.set("lang.parse_ms", med("lang", "parse"), "ms");
        report.set("lang.compile_ms", med("lang", "compile"), "ms");
        report.set("lint.error_gate_ms", med("lint", "error_gate"), "ms");
        let build = med("sim.index", "build") + med("sim.index", "build_mc");
        report.set("sim.index.build_ms", build, "ms");
        report.set(
            "sim.incremental.grid_ms",
            med("sim.incremental", "grid"),
            "ms",
        );
        let mut cols = durations_ms(&spans, "sim.incremental", "column");
        sort(&mut cols);
        report.set("sim.incremental.column_ms_p50", quantile(&cols, 0.5), "ms");
        report.set(
            "sim.incremental.column_ms_max",
            cols.last().copied().unwrap_or(0.0),
            "ms",
        );
        let batch = med("sim.mc", "batch");
        let t1 = med("sim.mc", "batch_t1");
        report.set("sim.mc.batch_ms", batch, "ms");
        report.set("sim.mc.per_rep_us", batch * 1e3 / MC_REPS as f64, "us");
        report.set("sim.mc.t1_batch_ms", t1, "ms");
        report.set("sim.mc.fanout_speedup", t1 / batch, "ratio");
        report.set("sim.bounds.certify_ms", med("sim.bounds", "certify"), "ms");
        report.set(
            "serve.render.sweep_csv_us",
            med("serve.render", "sweep_csv") * 1e3,
            "us",
        );
        report.set("serve.render.mc_us", med("serve.render", "mc") * 1e3, "us");
        report.set("trace.overhead_ratio", rounds.overhead_ratio(), "ratio");
    }
    crate::gate(&mut report, Some(&rounds.gauge));
    report.set_tail("loadgen.lag_p99_ms", &rounds.sorted_lag_ms(), 0.99, "ms");
    report
}
