//! `wrm` — the Workflow Roofline Model command line.
//!
//! ```text
//! wrm machines                          list built-in machine models
//! wrm lint <file.wrm|dir>... [options]  static analysis of workflow specs
//!     --format text|json|sarif          diagnostic output format
//!     --deny-warnings                   non-zero exit on warnings too
//!     --fix [--dry-run]                 apply machine-applicable fixes
//!                                       (--dry-run prints diffs instead)
//! wrm analyze <file.wrm> [options]      compile, (optionally) simulate,
//!                                       classify, advise, render
//!     --machine <name>                  override the file's machine
//!     --simulate                        run the simulator for the dot
//!     --contention <res>=<factor>       scale a shared resource
//!     --svg <out.svg>                   write the roofline figure
//!     --html <out.html>                 write a single-file HTML report
//!     --ascii                           print a terminal roofline
//! wrm simulate <file.wrm> [options]     simulate and print the trace
//!     --gantt                           print a Gantt chart
//!     --jsonl <out.jsonl>               write the trace as JSON lines
//! wrm sweep <file.wrm|builtin>          simulate a parameter grid in parallel
//!     --resource R --factors 1.0,0.5    contention factors on a resource
//!     --nodes 64,128                    scheduler node-pool limits
//!     --policies fifo,backfill          scheduler policies
//!     --threads N                       workers (0 = one per CPU; values
//!                                       above the host core count are capped)
//!     --format json|jsonl|csv           output format
//!     --out <file>                      write rows to a file
//!     --quiet                           suppress the stderr stats line
//! wrm certify <file.wrm>                print the two-sided makespan
//!                                       certificate as JSON
//! wrm serve [--addr host:port]          long-running HTTP server exposing
//!     [--threads N] [--quiet]           simulate/certify/lint/sweep with a
//!     [--cache-capacity N]              compiled-index LRU (see docs/SERVE.md)
//! wrm figures [all|<id>] [--out <dir>]  regenerate paper figures
//! ```
//!
//! `lint` exits 0 when clean, 2 when any error-severity diagnostic
//! fired, and 1 when only warnings fired under `--deny-warnings`; with
//! several files the exit code is the worst across all of them.
//! `analyze`/`simulate` run the error-severity lint subset before
//! compiling, so a broken spec fails with spanned diagnostics instead
//! of a mid-compile error.

mod figures;
mod report;
mod sweep;

use std::io::Write as _;
use std::process::ExitCode;
use wrm_core::{machines, RooflineModel, Seconds};
use wrm_dag::{list_schedule, GanttChart, ParallelismProfile, Policy};
use wrm_sim::{simulate, Scenario, SimOptions};
use wrm_trace::{characterize, Structure};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("wrm: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let ok = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match args.first().map(String::as_str) {
        Some("machines") => ok(cmd_machines()),
        Some("lint") => cmd_lint(&args[1..]).map(ExitCode::from),
        Some("analyze") => ok(cmd_analyze(&args[1..])),
        Some("simulate") => ok(cmd_simulate(&args[1..])),
        Some("sweep") => ok(sweep::cmd_sweep(&args[1..])),
        Some("certify") => ok(cmd_certify(&args[1..])),
        Some("serve") => ok(cmd_serve(&args[1..])),
        Some("figures") => ok(cmd_figures(&args[1..])),
        Some("compare") => ok(cmd_compare(&args[1..])),
        Some("profile") => ok(cmd_profile(&args[1..])),
        Some("import") => ok(cmd_import(&args[1..])),
        Some("help") | None => {
            print!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> &'static str {
    "usage: wrm <command>\n\
     \n\
     commands:\n\
     \x20 machines                         list built-in machine models\n\
     \x20 lint <file.wrm|dir>... [--format text|json|sarif]\n\
     \x20      [--deny-warnings] [--fix [--dry-run]]\n\
     \x20                                    static analysis: undefined\n\
     \x20                                    references, cycles, dead\n\
     \x20                                    ceilings, infeasible targets,\n\
     \x20                                    redundant edges, starved\n\
     \x20                                    channels, critical-path bounds;\n\
     \x20                                    directories lint every .wrm\n\
     \x20 analyze <file.wrm> [--machine M] [--simulate] [--contention r=f]\n\
     \x20         [--svg out.svg] [--html out.html] [--ascii]\n\
     \x20         [--reps N [--seed S] [--percentiles]]\n\
     \x20                                    analyze a workflow file; --reps\n\
     \x20                                    adds Monte-Carlo percentile\n\
     \x20                                    makespans and (with --simulate\n\
     \x20                                    --svg) whiskers the measured\n\
     \x20                                    roofline dot\n\
     \x20 simulate <file.wrm> [--gantt] [--jsonl out.jsonl] [--contention r=f]\n\
     \x20          [--summary]               streaming aggregates only —\n\
     \x20                                    O(channels) result memory, for\n\
     \x20                                    very large (100k+ task) runs\n\
     \x20          [--reps N [--seed S] [--percentiles] [--threads N]]\n\
     \x20                                    Monte-Carlo replication over the\n\
     \x20                                    phase distributions: N seeded\n\
     \x20                                    runs on one compiled index,\n\
     \x20                                    streamed percentile makespans;\n\
     \x20                                    --threads 0 (default) = one per\n\
     \x20                                    CPU, byte-identical output at\n\
     \x20                                    any thread count\n\
     \x20 sweep <file.wrm|builtin> [--resource R --factors 1.0,0.5]\n\
     \x20       [--nodes 64,128] [--policies fifo,backfill] [--threads N]\n\
     \x20       [--format json|jsonl|csv] [--out file]\n\
     \x20       [--quiet]                    simulate a parameter grid in\n\
     \x20                                    parallel (builtins: lcls, bgw,\n\
     \x20                                    cosmoflow, gptune-rci, gptune-spawn);\n\
     \x20                                    the incremental engine shares\n\
     \x20                                    index/prefix work across the\n\
     \x20                                    grid, bit-identically;\n\
     \x20                                    --threads 0 (default) = one per\n\
     \x20                                    CPU, explicit values capped at\n\
     \x20                                    the host core count\n\
     \x20 certify <file.wrm> [--machine M] [--contention r=f]\n\
     \x20                                    print the certified two-sided\n\
     \x20                                    makespan interval as JSON\n\
     \x20 serve [--addr host:port] [--threads N] [--cache-capacity N] [--quiet]\n\
     \x20                                    HTTP server for simulate, certify,\n\
     \x20                                    lint, and sweep over preloaded or\n\
     \x20                                    posted specs (see docs/SERVE.md)\n\
     \x20 figures [all|f1|f2|f3|f4|f5a|f5b|f6|f7a|f7b|f7c|f7d|f8|f9|f10|t1]\n\
     \x20         [--out dir]                 regenerate the paper's figures\n\
     \x20 compare <file.wrm>                 project the workflow onto every\n\
     \x20                                    built-in machine\n\
     \x20 profile <file.wrm> [--svg out.svg] simulate and chart parallelism\n\
     \x20                                    over time\n\
     \x20 import <report.csv> --machine M --structure T,P,N\n\
     \x20         [--svg out.svg]            analyze an external timing report\n\
     \x20 help                               this text\n"
}

fn cmd_machines() -> Result<(), String> {
    for m in machines::all() {
        println!("{} ({} nodes)", m.name, m.total_nodes);
        for r in &m.node_resources {
            println!("  node   {:<8} {:<12} {}", r.id, r.label, r.peak_per_node);
        }
        for r in &m.system_resources {
            println!(
                "  system {:<8} {:<12} {} ({})",
                r.id, r.label, r.peak, r.scaling
            );
        }
    }
    Ok(())
}

struct Flags {
    file: Option<String>,
    files: Vec<String>,
    fix: bool,
    dry_run: bool,
    machine: Option<String>,
    simulate: bool,
    summary: bool,
    contention: Vec<(String, f64)>,
    svg: Option<String>,
    ascii: bool,
    gantt: bool,
    jsonl: Option<String>,
    out_dir: String,
    id: String,
    structure: Option<(f64, f64, u64)>,
    html: Option<String>,
    format: String,
    deny_warnings: bool,
    out: Option<String>,
    resource: Option<String>,
    factors: Vec<f64>,
    nodes: Vec<u64>,
    policies: Vec<wrm_sim::SchedulerPolicy>,
    threads: usize,
    quiet: bool,
    addr: String,
    cache_capacity: usize,
    reps: usize,
    seed: u64,
    percentiles: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        file: None,
        files: Vec::new(),
        fix: false,
        dry_run: false,
        machine: None,
        simulate: false,
        summary: false,
        contention: Vec::new(),
        svg: None,
        ascii: false,
        gantt: false,
        jsonl: None,
        out_dir: "figures".into(),
        id: "all".into(),
        structure: None,
        html: None,
        format: "text".into(),
        deny_warnings: false,
        out: None,
        resource: None,
        factors: Vec::new(),
        nodes: Vec::new(),
        policies: Vec::new(),
        threads: 0,
        quiet: false,
        addr: "127.0.0.1:8080".into(),
        cache_capacity: 32,
        reps: 0,
        seed: 0,
        percentiles: false,
    };
    let mut i = 0;
    let mut positional = 0;
    while i < args.len() {
        let a = &args[i];
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("flag {a} needs a value"))
        };
        match a.as_str() {
            "--machine" => f.machine = Some(value(&mut i)?),
            "--format" => f.format = value(&mut i)?,
            "--deny-warnings" => f.deny_warnings = true,
            "--fix" => f.fix = true,
            "--dry-run" => f.dry_run = true,
            "--simulate" => f.simulate = true,
            "--summary" => f.summary = true,
            "--ascii" => f.ascii = true,
            "--gantt" => f.gantt = true,
            "--svg" => f.svg = Some(value(&mut i)?),
            "--html" => f.html = Some(value(&mut i)?),
            "--jsonl" => f.jsonl = Some(value(&mut i)?),
            "--out" => {
                let v = value(&mut i)?;
                f.out_dir.clone_from(&v);
                f.out = Some(v);
            }
            "--resource" => f.resource = Some(value(&mut i)?),
            "--factors" => {
                let v = value(&mut i)?;
                f.factors = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("bad contention factor `{s}`"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--nodes" => {
                let v = value(&mut i)?;
                f.nodes = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u64>()
                            .map_err(|_| format!("bad node count `{s}`"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--policies" => {
                let v = value(&mut i)?;
                f.policies = v
                    .split(',')
                    .map(|s| match s.trim() {
                        "fifo" => Ok(wrm_sim::SchedulerPolicy::Fifo),
                        "backfill" => Ok(wrm_sim::SchedulerPolicy::Backfill),
                        other => Err(format!(
                            "unknown policy `{other}` (expected fifo or backfill)"
                        )),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--threads" => {
                let v = value(&mut i)?;
                f.threads = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
            }
            "--reps" => {
                let v = value(&mut i)?;
                f.reps = v
                    .parse()
                    .map_err(|_| format!("bad replication count `{v}`"))?;
            }
            "--seed" => {
                let v = value(&mut i)?;
                f.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--percentiles" => f.percentiles = true,
            "--quiet" => f.quiet = true,
            "--addr" => f.addr = value(&mut i)?,
            "--cache-capacity" => {
                let v = value(&mut i)?;
                f.cache_capacity = v.parse().map_err(|_| format!("bad cache capacity `{v}`"))?;
            }
            "--structure" => {
                let v = value(&mut i)?;
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 3 {
                    return Err(format!(
                        "--structure expects total,parallel,nodes_per_task, got `{v}`"
                    ));
                }
                let total: f64 = parts[0]
                    .parse()
                    .map_err(|_| format!("bad total `{}`", parts[0]))?;
                let parallel: f64 = parts[1]
                    .parse()
                    .map_err(|_| format!("bad parallel `{}`", parts[1]))?;
                let nodes: u64 = parts[2]
                    .parse()
                    .map_err(|_| format!("bad nodes `{}`", parts[2]))?;
                f.structure = Some((total, parallel, nodes));
            }
            "--contention" => {
                let v = value(&mut i)?;
                let (res, factor) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--contention expects res=factor, got `{v}`"))?;
                let factor: f64 = factor
                    .parse()
                    .map_err(|_| format!("bad contention factor `{factor}`"))?;
                f.contention.push((res.to_owned(), factor));
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`"));
            }
            other => {
                if positional == 0 {
                    f.file = Some(other.to_owned());
                    f.id = other.to_owned();
                }
                f.files.push(other.to_owned());
                positional += 1;
            }
        }
        i += 1;
    }
    Ok(f)
}

// The lint-errors-first compile pipeline lives in `wrm_serve::resolve`
// so the server resolves posted sources through the identical path.
pub(crate) use wrm_serve::resolve::compile_checked;

fn load(flags: &Flags) -> Result<(wrm_lang::Compiled, wrm_core::Machine), String> {
    let path = flags
        .file
        .as_ref()
        .ok_or_else(|| "missing workflow file argument".to_owned())?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let compiled = compile_checked(path, &source)?;
    let machine = wrm_serve::resolve::resolve_machine(&compiled, flags.machine.as_deref())?;
    Ok((compiled, machine))
}

fn sim_options(flags: &Flags) -> SimOptions {
    let mut opts = SimOptions::default();
    for (res, factor) in &flags.contention {
        opts = opts.with_contention(res.clone(), *factor);
    }
    opts
}

/// Expands lint arguments: a directory becomes every `.wrm` file
/// directly inside it (sorted), a file passes through untouched.
fn expand_wrm_paths(args: &[String]) -> Result<Vec<String>, String> {
    let mut paths = Vec::new();
    for arg in args {
        let meta = std::fs::metadata(arg).map_err(|e| format!("cannot read {arg}: {e}"))?;
        if meta.is_dir() {
            let mut found = Vec::new();
            let entries = std::fs::read_dir(arg).map_err(|e| format!("cannot read {arg}: {e}"))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("cannot read {arg}: {e}"))?;
                let path = entry.path();
                if path.is_file() && path.extension().is_some_and(|e| e == "wrm") {
                    found.push(path.to_string_lossy().into_owned());
                }
            }
            found.sort();
            if found.is_empty() {
                return Err(format!("no .wrm files in directory {arg}"));
            }
            paths.extend(found);
        } else {
            paths.push(arg.clone());
        }
    }
    Ok(paths)
}

fn cmd_lint(args: &[String]) -> Result<u8, String> {
    let flags = parse_flags(args)?;
    if flags.files.is_empty() {
        return Err("missing workflow file argument".to_owned());
    }
    let paths = expand_wrm_paths(&flags.files)?;
    // (path, source, diagnostics) per file; sources are kept so fixes
    // and renders can slice them.
    let mut batch: Vec<(String, String, Vec<wrm_lint::Diagnostic>)> = Vec::new();
    for path in paths {
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let diags = wrm_lint::lint_source(&source);
        batch.push((path, source, diags));
    }

    if flags.fix {
        apply_lint_fixes(&mut batch, flags.dry_run)?;
    }

    // The reports come from `wrm_serve::render` — the same functions the
    // server answers `POST /v1/lint` with, so the bytes match.
    match flags.format.as_str() {
        "json" => print!("{}", wrm_serve::render::lint_json(&batch)?),
        "sarif" => print!("{}", wrm_serve::render::lint_sarif(&batch)?),
        "text" => print!("{}", wrm_serve::render::lint_text(&batch)),
        other => {
            return Err(format!(
                "unknown --format `{other}` (expected text, json, or sarif)"
            ))
        }
    }

    // The exit code aggregates the worst severity across every file.
    let worst = batch
        .iter()
        .filter_map(|(_, _, diags)| wrm_lint::max_severity(diags))
        .max();
    Ok(match worst {
        Some(wrm_lint::Severity::Error) => 2,
        Some(wrm_lint::Severity::Warning) if flags.deny_warnings => 1,
        _ => 0,
    })
}

/// `--fix`: applies every machine-applicable edit. With `--dry-run` the
/// would-be changes are printed as diffs and nothing is written;
/// otherwise files are rewritten in place and re-linted so the report
/// and exit code reflect the fixed sources.
fn apply_lint_fixes(
    batch: &mut [(String, String, Vec<wrm_lint::Diagnostic>)],
    dry_run: bool,
) -> Result<(), String> {
    for (path, source, diags) in batch.iter_mut() {
        let edits = wrm_lint::collect_edits(diags);
        if edits.is_empty() {
            continue;
        }
        let outcome = wrm_lint::apply_fixes(source, &edits);
        if dry_run {
            print!("{}", wrm_lint::fixit::diff(path, source, &outcome.fixed));
            continue;
        }
        std::fs::write(&*path, &outcome.fixed).map_err(|e| format!("cannot write {path}: {e}"))?;
        let skipped = if outcome.skipped.is_empty() {
            String::new()
        } else {
            format!(
                " ({} overlapping edit(s) skipped; rerun --fix to apply)",
                outcome.skipped.len()
            )
        };
        println!("{path}: applied {} fix(es){skipped}", outcome.applied.len());
        *source = outcome.fixed;
        *diags = wrm_lint::lint_source(source);
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let (compiled, machine) = load(&flags)?;
    let mut wf = compiled.characterization().map_err(|e| e.to_string())?;

    if flags.simulate {
        let scenario =
            Scenario::new(machine.clone(), compiled.spec.clone()).with_options(sim_options(&flags));
        let result = simulate(&scenario).map_err(|e| e.to_string())?;
        wf.makespan = Some(Seconds(result.makespan));
        println!("simulated makespan: {:.2} s", result.makespan);
    }

    // The certified two-sided bound prints alongside the roofline:
    // whatever the schedule, the makespan provably lands in [lo, hi].
    if let Ok(cert) = wrm_sim::certify(&machine, &compiled.spec, &sim_options(&flags)) {
        println!(
            "certified makespan interval: [{:.2} s, {:.2} s]",
            cert.lo, cert.hi
        );
    }

    // --reps runs the Monte-Carlo engine over the distributional phases;
    // the extreme percentile makespans become a throughput whisker on
    // the roofline dot.
    let mut whisker = None;
    if flags.reps > 0 {
        let scenario =
            Scenario::new(machine.clone(), compiled.spec.clone()).with_options(sim_options(&flags));
        let mc = wrm_sim::mc_run(
            &scenario,
            &wrm_sim::McOptions {
                reps: flags.reps,
                seed: flags.seed,
                threads: flags.threads,
            },
        )
        .map_err(|e| e.to_string())?;
        print!(
            "{}",
            wrm_serve::render::mc_report(
                &compiled.spec.name,
                &machine.name,
                &mc,
                flags.percentiles
            )
        );
        if let (Some(first), Some(last)) = (mc.percentiles.first(), mc.percentiles.last()) {
            if first.value > 0.0 && last.value > 0.0 {
                whisker = Some((
                    wrm_core::TasksPerSec(wf.total_tasks / last.value),
                    wrm_core::TasksPerSec(wf.total_tasks / first.value),
                ));
            }
        }
    }

    let model = RooflineModel::build_lenient(&machine, &wf).map_err(|e| e.to_string())?;
    print!("{}", report::render(&model));

    if flags.ascii {
        println!("\n{}", wrm_plot::ascii::roofline(&model, 84, 24));
    }
    if let Some(path) = &flags.svg {
        let mut plot =
            wrm_plot::RooflinePlot::new(format!("{} on {}", wf.name, machine.name)).model(&model);
        if let Some((lo, hi)) = whisker {
            plot = plot.whisker(lo, hi);
        }
        let svg = plot
            .render_svg()
            .ok_or_else(|| "nothing to render".to_owned())?;
        std::fs::write(path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = &flags.html {
        let html = build_html_report(&flags, &compiled, &machine, &model)?;
        std::fs::write(path, html).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Assembles the single-file HTML report: analysis text, the roofline,
/// and (when --simulate ran) the Gantt chart, time breakdown, and
/// parallelism profile from the simulated run.
fn build_html_report(
    flags: &Flags,
    compiled: &wrm_lang::Compiled,
    machine: &wrm_core::Machine,
    model: &RooflineModel,
) -> Result<String, String> {
    use wrm_plot::Section;
    let mut sections = vec![
        Section::Heading("Analysis".into()),
        Section::Pre(report::render(model)),
        Section::Heading("Workflow Roofline".into()),
    ];
    if let Some(svg) =
        wrm_plot::RooflinePlot::new(format!("{} on {}", model.workflow.name, machine.name))
            .model(model)
            .render_svg()
    {
        sections.push(Section::Svg(svg));
    }
    if let Ok(dag0) = compiled.dag(machine) {
        if let Some(svg) = wrm_plot::skeleton::render_svg(&dag0, 860.0) {
            sections.push(Section::Heading("Skeleton".into()));
            sections.push(Section::Svg(svg));
        }
    }
    if flags.simulate {
        let scenario =
            Scenario::new(machine.clone(), compiled.spec.clone()).with_options(sim_options(flags));
        let result = simulate(&scenario).map_err(|e| e.to_string())?;
        let mut dag = compiled.dag(machine).map_err(|e| e.to_string())?;
        for id in dag.task_ids().collect::<Vec<_>>() {
            let name = dag.task(id).name.clone();
            if let Some(t) = result.trace.task_time(&name) {
                dag.task_mut(id).duration = t;
            }
        }
        let sched =
            list_schedule(&dag, machine.total_nodes, Policy::Fifo).map_err(|e| e.to_string())?;
        if let Ok(chart) = GanttChart::build(&dag, &sched) {
            sections.push(Section::Heading("Gantt chart".into()));
            sections.push(Section::Svg(wrm_plot::gantt_plot::render_svg(
                &[&chart],
                860.0,
            )));
        }
        sections.push(Section::Heading("Time breakdown".into()));
        sections.push(Section::Svg(wrm_plot::breakdown_plot::render_svg(
            "phase time by category",
            &[result.trace.breakdown()],
            680.0,
            420.0,
        )));
        let profile = ParallelismProfile::from_schedule(&sched);
        sections.push(Section::Heading("Parallelism profile".into()));
        sections.push(Section::Svg(wrm_plot::profile_plot::render_svg(
            "concurrency over time",
            &profile,
            760.0,
        )));
    }
    Ok(wrm_plot::html::render(
        &format!("{} on {}", model.workflow.name, machine.name),
        &sections,
    ))
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let (compiled, machine) = load(&flags)?;
    let scenario =
        Scenario::new(machine.clone(), compiled.spec.clone()).with_options(sim_options(&flags));
    if flags.reps > 0 {
        if flags.gantt || flags.jsonl.is_some() {
            return Err(
                "--reps keeps no per-replication trace; it cannot be combined with \
                        --gantt or --jsonl"
                    .into(),
            );
        }
        let mc = wrm_sim::mc_run(
            &scenario,
            &wrm_sim::McOptions {
                reps: flags.reps,
                seed: flags.seed,
                threads: flags.threads,
            },
        )
        .map_err(|e| e.to_string())?;
        print!(
            "{}",
            wrm_serve::render::mc_report(
                &compiled.spec.name,
                &machine.name,
                &mc,
                flags.percentiles
            )
        );
        return Ok(());
    }
    if flags.summary {
        if flags.gantt || flags.jsonl.is_some() {
            return Err(
                "--summary keeps no trace; it cannot be combined with --gantt or --jsonl".into(),
            );
        }
        let sum = wrm_sim::simulate_summary(&scenario).map_err(|e| e.to_string())?;
        print!(
            "{}",
            wrm_serve::render::summary_report(&compiled.spec.name, &machine.name, &sum)
        );
        return Ok(());
    }
    let result = simulate(&scenario).map_err(|e| e.to_string())?;
    let structure = Structure::new(
        compiled.total_tasks,
        compiled.parallel_tasks,
        compiled.nodes_per_task,
    );
    print!(
        "{}",
        wrm_serve::render::simulate_report(
            &compiled.spec.name,
            &machine.name,
            &result,
            &structure
        )?
    );

    if flags.gantt {
        let mut dag = compiled.dag(&machine).map_err(|e| e.to_string())?;
        for id in dag.task_ids().collect::<Vec<_>>() {
            let name = dag.task(id).name.clone();
            if let Some(t) = result.trace.task_time(&name) {
                dag.task_mut(id).duration = t;
            }
        }
        let sched =
            list_schedule(&dag, machine.total_nodes, Policy::Fifo).map_err(|e| e.to_string())?;
        let chart = GanttChart::build(&dag, &sched).map_err(|e| e.to_string())?;
        println!("\n{}", wrm_plot::ascii::gantt(&chart, 72));
    }
    if let Some(path) = &flags.jsonl {
        std::fs::write(path, result.trace.to_jsonl())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `wrm certify` — the two-sided makespan certificate as JSON, byte-
/// identical to the server's `POST /v1/certify` response for the same
/// spec.
fn cmd_certify(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let (compiled, machine) = load(&flags)?;
    let cert = wrm_sim::certify(&machine, &compiled.spec, &sim_options(&flags))
        .map_err(|e| e.to_string())?;
    print!("{}", wrm_serve::render::certificate_json(&cert)?);
    Ok(())
}

/// `wrm serve` — block on the HTTP server until SIGTERM, SIGINT, or
/// `POST /admin/shutdown`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    wrm_serve::run(wrm_serve::ServerConfig {
        addr: flags.addr.clone(),
        workers: flags.threads,
        cache_capacity: flags.cache_capacity,
        quiet: flags.quiet,
    })
}

fn cmd_figures(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let figures = if flags.id == "all" {
        figures::build_all()
    } else {
        vec![figures::build(&flags.id)
            .ok_or_else(|| format!("unknown figure id `{}` (try `all`)", flags.id))?]
    };
    std::fs::create_dir_all(&flags.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", flags.out_dir))?;
    let mut stdout = std::io::stdout().lock();
    for fig in &figures {
        for (name, content) in &fig.files {
            let path = format!("{}/{name}", flags.out_dir);
            std::fs::write(&path, content)
                .map_err(|e| format!("[{}] cannot write {path}: {e}", fig.id))?;
        }
        writeln!(stdout, "{}", fig.summary).map_err(|e| e.to_string())?;
    }
    writeln!(
        stdout,
        "\nwrote {} file(s) to {}/",
        figures.iter().map(|f| f.files.len()).sum::<usize>(),
        flags.out_dir
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let path = flags
        .file
        .as_ref()
        .ok_or_else(|| "missing workflow file argument".to_owned())?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let compiled = compile_checked(path, &source)?;
    let mut wf = compiled.characterization().map_err(|e| e.to_string())?;

    // Simulate on each machine to give every projection a measured dot.
    let all = machines::all();
    println!(
        "projecting `{}` ({} tasks, {} parallel, {} nodes/task) onto {} machines:\n",
        wf.name,
        wf.total_tasks,
        wf.parallel_tasks,
        wf.nodes_per_task,
        all.len()
    );
    let projections = wrm_core::across_machines(&wf, &all).map_err(|e| e.to_string())?;
    print!("{}", wrm_core::projection::render_table(&projections));

    // If a throughput target exists, answer the architect's question per
    // machine: what external/file-system peak would meet it?
    if wf.targets.throughput.is_some() {
        println!("\nrequired peaks to reach the throughput target:");
        for machine in &all {
            for res in [wrm_core::ids::EXTERNAL, wrm_core::ids::FILE_SYSTEM] {
                match wrm_core::required_peak(machine, &wf, res) {
                    Ok(Some(peak)) if peak.is_finite() => {
                        println!("  {:<18} {res:<4} -> {:.3e} B/s", machine.name, peak);
                    }
                    Ok(Some(_)) => println!(
                        "  {:<18} {res:<4} -> unattainable by scaling this resource",
                        machine.name
                    ),
                    Ok(None) => println!("  {:<18} {res:<4} -> already attainable", machine.name),
                    Err(_) => {}
                }
            }
        }
    }
    let _ = &mut wf;
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let (compiled, machine) = load(&flags)?;
    let scenario =
        Scenario::new(machine.clone(), compiled.spec.clone()).with_options(sim_options(&flags));
    let result = simulate(&scenario).map_err(|e| e.to_string())?;

    // Build the profile from the simulated task times.
    let mut dag = compiled.dag(&machine).map_err(|e| e.to_string())?;
    for id in dag.task_ids().collect::<Vec<_>>() {
        let name = dag.task(id).name.clone();
        if let Some(t) = result.trace.task_time(&name) {
            dag.task_mut(id).duration = t;
        }
    }
    let sched =
        list_schedule(&dag, machine.total_nodes, Policy::Fifo).map_err(|e| e.to_string())?;
    let profile = ParallelismProfile::from_schedule(&sched);
    println!(
        "{} on {}: makespan {:.2} s",
        compiled.spec.name, machine.name, result.makespan
    );
    println!(
        "  peak concurrency: {} tasks / {} nodes",
        profile.peak_tasks(),
        profile.peak_nodes()
    );
    println!("  mean concurrency: {:.2} tasks", profile.mean_tasks());
    println!(
        "  serial fraction:  {:.0}% of the makespan at <= 1 running task",
        profile.serial_fraction() * 100.0
    );
    if let Some(path) = &flags.svg {
        let svg = wrm_plot::profile_plot::render_svg(
            &format!("{} parallelism profile", compiled.spec.name),
            &profile,
            760.0,
        );
        std::fs::write(path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_import(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let path = flags
        .file
        .as_ref()
        .ok_or_else(|| "missing report file argument".to_owned())?;
    let machine_name = flags
        .machine
        .as_ref()
        .ok_or_else(|| "import needs --machine".to_owned())?;
    let machine = machines::by_name(machine_name)
        .ok_or_else(|| format!("unknown machine `{machine_name}`"))?;
    let csv = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = wrm_trace::trace_from_csv(
        path.rsplit('/')
            .next()
            .unwrap_or(path)
            .trim_end_matches(".csv"),
        machine.name.clone(),
        &csv,
    )
    .map_err(|e| format!("{path}: {e}"))?;

    let structure = match &flags.structure {
        Some((t, p, n)) => Structure::new(*t, *p, *n),
        None => {
            // Infer: every task is one unit; assume all run in parallel
            // on the max node count seen.
            let tasks = trace.task_names().len().max(1) as f64;
            let nodes = trace.spans.iter().map(|s| s.nodes).max().unwrap_or(1);
            println!(
                "(no --structure given: assuming {tasks} tasks all parallel on {nodes} \
                 nodes each)"
            );
            Structure::new(tasks, tasks, nodes)
        }
    };
    let wf = characterize(&trace, &structure).map_err(|e| e.to_string())?;
    let model = RooflineModel::build_lenient(&machine, &wf).map_err(|e| e.to_string())?;
    print!("{}", report::render(&model));
    if let Some(path) = &flags.svg {
        let svg = wrm_plot::RooflinePlot::new(format!("{} on {}", wf.name, machine.name))
            .model(&model)
            .render_svg()
            .ok_or_else(|| "nothing to render".to_owned())?;
        std::fs::write(path, svg).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}
