//! `des_scale`: the large-DAG case users wait for. A 100k-task layered
//! DAG and a 100k-task fork-join DAG (32 shared channels, shaped like
//! `wrm_bench::generated_scenario` but with fixed widths, so a seed
//! changes durations and edges, not the amount of work) each run in
//! full and in summary mode against a prebuilt `BaseIndex`. The engine
//! does almost all the work; no lang, incremental, MC or serve code
//! runs. Layered spreads completions out; fork-join gates 2048 workers
//! on one barrier per round. Full minus summary isolates result
//! materialization.

use crate::stats::{geomean, median, min};
use crate::trace::{durations_ms, Tracer};
use crate::{bracketed, gen, run_rounds, Ctx, Report, Stopwatch, SETUPS};
use std::hint::black_box;
use wrm_core::{BytesPerSec, Machine};
use wrm_dag::generate::GeneratedTask;
use wrm_sim::{BaseIndex, Phase, Scenario, SimArena, TaskSpec, WorkflowSpec};

const TASKS: usize = 100_000;
const CHANNELS: usize = 32;
const WIDTH: usize = 2048;

/// The generated tasks on an 8192-node machine with `CHANNELS` shared
/// 50 GB/s channels: every task has a fixed overhead phase and every
/// fourth one also moves data over a channel (round-robin, every other
/// one under a stream cap).
fn scenario(name: &str, tasks: &[GeneratedTask]) -> Scenario {
    let mut machine = Machine::builder(name, 8192);
    for c in 0..CHANNELS {
        machine = machine.system(
            format!("ch{c}"),
            format!("Channel {c}"),
            BytesPerSec::gbps(50.0),
        );
    }
    let machine = machine.build().expect("valid machine");
    let mut wf = WorkflowSpec::new(name);
    for (i, gt) in tasks.iter().enumerate() {
        let mut t = TaskSpec::new(&gt.name, gt.nodes).phase(Phase::overhead("work", gt.duration));
        if i % 4 == 0 {
            t = t.phase(Phase::SystemData {
                resource: format!("ch{}", i % CHANNELS),
                bytes: (1.0 + gt.duration) * 2e9,
                stream_cap: (i % 8 == 0).then_some(5e9),
            });
        }
        for &d in &gt.deps {
            t = t.after(&tasks[d].name);
        }
        wf = wf.task(t);
    }
    Scenario::new(machine, wf)
}

/// The four timed pass kinds: `(dag, full mode?, span name)`.
const KINDS: [(usize, bool, &str); 4] = [
    (0, true, "layered.full"),
    (0, false, "layered.summary"),
    (1, true, "forkjoin.full"),
    (1, false, "forkjoin.summary"),
];

/// One simulation pass; returns the makespan.
fn pass(scenario: &Scenario, base: &BaseIndex, full: bool, arena: &mut SimArena) -> f64 {
    if full {
        let r =
            wrm_sim::simulate_with_base(scenario, base, arena).expect("generated DAG simulates");
        black_box(r).makespan
    } else {
        let s = wrm_sim::simulate_summary_with_base(scenario, base, arena)
            .expect("generated DAG simulates");
        black_box(s).makespan
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let widths = (0..TASKS).step_by(WIDTH).map(|i| (TASKS - i).min(WIDTH));
    let dags = [
        scenario("layered", &gen::layered(ctx.seed, widths, 2, 20.0)),
        scenario("forkjoin", &gen::fork_join(ctx.seed, TASKS, WIDTH, 2, 20.0)),
    ];

    let mut setups = Vec::new();
    let mut bases = Vec::new();
    for _ in 0..SETUPS {
        let t = Stopwatch::start();
        bases = dags
            .iter()
            .map(|s| {
                ctx.tracer.span("sim.index", "build", || {
                    BaseIndex::build(&s.machine, &s.workflow).expect("generated DAG indexes")
                })
            })
            .collect();
        setups.push(t.took().cpu_s);
    }
    report.set("cpu.setup_s", median(&setups), "s");

    // Output checks, outside every timed region: summary makespan
    // bit-equal to the full run's, inside the certified bracket.
    let mut arena = SimArena::new();
    let mut want = [0.0f64; 2];
    let (mut tasks, mut n_spans, mut flows) = (0u64, 0u64, 0u64);
    for (i, (s, base)) in dags.iter().zip(&bases).enumerate() {
        let full = wrm_sim::simulate_with_base(s, base, &mut arena).expect("simulates");
        let sum = wrm_sim::simulate_summary_with_base(s, base, &mut arena).expect("simulates");
        let cert = ctx.tracer.span("sim.bounds", "certify", || {
            wrm_sim::certify_with_base(&s.workflow, &s.options, base).expect("certifies")
        });
        let mk = full.makespan;
        report.check(sum.makespan.to_bits() == mk.to_bits(), || {
            format!("dag {i}: summary makespan {} != full {mk}", sum.makespan)
        });
        report.check(bracketed(cert.lo, mk, cert.hi), || {
            format!("dag {i}: makespan {mk} outside [{}, {}]", cert.lo, cert.hi)
        });
        report.check(
            full.task_times.len() == TASKS && sum.n_tasks == TASKS,
            || format!("dag {i}: ran {} tasks", full.task_times.len()),
        );
        want[i] = mk;
        tasks += sum.n_tasks as u64;
        n_spans += sum.n_spans;
        flows += sum.channels.iter().map(|c| c.flows).sum::<u64>();
    }

    // Seconds of each untraced pass, by kind.
    let mut cpu_s: [Vec<f64>; 4] = Default::default();
    let mut wall_s: [Vec<f64>; 4] = Default::default();
    let rounds = run_rounds(ctx, |tracer: &Tracer, round| {
        let mut total = 0.0;
        for (k, &(dag, full, name)) in KINDS.iter().enumerate() {
            let t = Stopwatch::start();
            let mk = tracer.request(round * 4 + k as u64, "loadgen", name, || {
                tracer.span("sim.engine", name, || {
                    pass(&dags[dag], &bases[dag], full, &mut arena)
                })
            });
            let took = t.took();
            total += took.wall_s;
            if !tracer.on() {
                cpu_s[k].push(took.cpu_s);
                wall_s[k].push(took.wall_s);
            }
            report.check(mk.to_bits() == want[dag].to_bits(), || {
                format!("{name} round {round}: makespan {mk} != {}", want[dag])
            });
        }
        total
    });

    // End to end, from untraced passes only: the best CPU time of each
    // pass kind is gated, wall time printed.
    let best_s: Vec<f64> = cpu_s.iter().map(|v| min(v)).collect();
    report.set(
        "cpu.throughput_per_s",
        (4 * TASKS) as f64 / best_s.iter().sum::<f64>(),
        "1/s",
    );
    let best_ms: Vec<f64> = best_s.iter().map(|s| s * 1e3).collect();
    report.set("cpu.op_ms_min", geomean(&best_ms), "ms");
    let wall_ms: Vec<f64> = wall_s.iter().map(|v| median(v) * 1e3).collect();
    let tasks_per_s = |ks: &[usize]| -> f64 {
        let n: usize = ks.iter().map(|&k| wall_s[k].len()).sum();
        let t: f64 = ks.iter().map(|&k| wall_s[k].iter().sum::<f64>()).sum();
        (n * TASKS) as f64 / t
    };
    report.set("wall.throughput_per_s", tasks_per_s(&[0, 1, 2, 3]), "1/s");
    report.set("wall.latency_p50_ms", geomean(&wall_ms), "ms");
    report.set("des.full_tasks_per_s", tasks_per_s(&[0, 2]), "1/s");
    report.set("des.summary_tasks_per_s", tasks_per_s(&[1, 3]), "1/s");
    for (k, m) in wall_ms.iter().enumerate() {
        report.set(format!("des.{}_ms", KINDS[k].2), *m, "ms");
    }

    if ctx.traced() {
        let spans = ctx.tracer.spans();
        let mut engine_ms = 0.0;
        let mut kind_ms = [0.0; 4];
        for (k, &(_, _, name)) in KINDS.iter().enumerate() {
            let d = durations_ms(&spans, "sim.engine", name);
            engine_ms += d.iter().sum::<f64>();
            kind_ms[k] = median(&d);
            report.set(format!("sim.engine.{name}_ms"), kind_ms[k], "ms");
        }
        let materialize = ((kind_ms[0] - kind_ms[1]) + (kind_ms[2] - kind_ms[3])) / 2.0;
        report.set("sim.engine.materialize_ms", materialize, "ms");
        // Each traced round simulates both DAGs twice.
        let simulated = n_spans as f64 * rounds.traced_s.len() as f64 * 2.0;
        report.set(
            "sim.engine.spans_per_s",
            simulated / (engine_ms / 1e3),
            "1/s",
        );
        let builds = durations_ms(&spans, "sim.index", "build");
        let pair: Vec<f64> = builds.chunks(2).map(|c| c.iter().sum()).collect();
        report.set("sim.index.build_ms", median(&pair), "ms");
        report.set(
            "sim.bounds.certify_ms",
            median(&durations_ms(&spans, "sim.bounds", "certify")),
            "ms",
        );
        report.set("trace.overhead_ratio", rounds.overhead_ratio(), "ratio");
    }
    report.set("sim.engine.tasks", tasks as f64, "count");
    report.set("sim.engine.spans", n_spans as f64, "count");
    report.set("sim.engine.flows", flows as f64, "count");
    crate::gate(&mut report, Some(&rounds.gauge));
    report.set_tail("loadgen.lag_p99_ms", &rounds.sorted_lag_ms(), 0.99, "ms");
    report
}
