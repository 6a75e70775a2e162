//! Front-end scale guard: generated layered `.wrm` specs of about 1k,
//! 10k and 100k tasks go through the front end stage by stage (parse,
//! lint error gate, compile, index build) and end to end through
//! [`compile_checked`]. The 100k run must finish within a wall budget
//! that only a front end linear in tasks plus edges meets; the budget
//! is generous, so it guards complexity, not speed.
//!
//! Release builds only; `--nocapture` prints the stage table:
//!
//! ```text
//! cargo test --release -p wrm-serve --test front_end_scale -- --nocapture
//! ```

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use wrm_serve::resolve::compile_checked;

/// Tasks per replica group.
const GROUP: usize = 4;
/// Dependency levels.
const LAYERS: usize = 50;

/// Replica groups in layer `k` of a spec of the given scale.
fn groups(scale: usize, k: usize) -> usize {
    scale * (4 + k % 3)
}

/// A layered spec: layer `k` holds `groups(scale, k)` groups
/// `l{k}g{g}[GROUP]`, and group `g` of layer `k > 0` waits on groups
/// `g` and `g + 1` (modulo the layer's size) of layer `k - 1`, every
/// replica on every replica. Each layer is one dependency level, so
/// the widest level is the largest layer. Returns the source, the task
/// count and the widest level's width.
fn layered_spec(scale: usize) -> (String, usize, usize) {
    let mut src = String::from("workflow scale on pm-cpu {\n");
    for k in 0..LAYERS {
        for g in 0..groups(scale, k) {
            write!(
                src,
                "  task l{k}g{g}[{GROUP}] {{ nodes 1 compute 2TFLOP overhead setup 1s"
            )
            .unwrap();
            if k > 0 {
                let above = groups(scale, k - 1);
                let (a, b) = (g % above, (g + 1) % above);
                write!(src, " after l{}g{a} after l{}g{b}", k - 1, k - 1).unwrap();
            }
            src.push_str(" }\n");
        }
    }
    src.push_str("}\n");
    let widths = (0..LAYERS).map(|k| groups(scale, k) * GROUP);
    (src, widths.clone().sum(), widths.max().unwrap())
}

/// The fastest of `reps` runs of `f`, in milliseconds.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
fn front_end_is_linear_in_tasks() {
    println!("tasks    parse_ms  gate_ms  compile_ms  index_ms  compile_checked_ms");
    for (scale, reps) in [(1, 5), (10, 3), (101, 1)] {
        let (src, tasks, widest) = layered_spec(scale);
        let ast = wrm_lang::parse(&src).expect("the generated spec parses");
        let parse = best_ms(reps, || wrm_lang::parse(&src));
        let gate = best_ms(reps, || wrm_lint::lint_errors(&ast));
        let compile = best_ms(reps, || wrm_lang::compile(&ast));
        let compiled = compile_checked("<scale>", &src).expect("the generated spec is clean");
        let machine = compiled.machine.as_ref().expect("pm-cpu");
        let index = best_ms(reps, || wrm_sim::BaseIndex::build(machine, &compiled.spec));
        let start = Instant::now();
        let checked = compile_checked("<scale>", &src).expect("the generated spec is clean");
        let took = start.elapsed();
        println!(
            "{tasks:<8} {parse:>8.1} {gate:>8.1} {compile:>11.1} {index:>9.1} {:>19.1}",
            took.as_secs_f64() * 1e3
        );

        assert_eq!(checked.total_tasks, tasks as f64);
        assert_eq!(checked.parallel_tasks, widest as f64);
        assert_eq!(checked.spec, compiled.spec);
        if tasks >= 100_000 {
            // About 1 s on a 2-CPU x86-64 host; the front end that built
            // a string-keyed DAG with a linear duplicate-name scan per
            // task took 38 s there.
            let budget = Duration::from_secs(8);
            assert!(
                took < budget,
                "compile_checked took {took:?} at {tasks} tasks (budget {budget:?})"
            );
        }
    }
}
