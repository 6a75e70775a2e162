//! The differential-oracle harness over the whole corpus.
//!
//! Builds one corpus — the simulator-level families of
//! `wrm_sim::oracle::corpus` plus the paper workflows with their option
//! variants, the archetypes, and every `.wrm` spec in the repository —
//! and runs every applicable pair of `wrm_sim::oracle::PAIRS`, plus the
//! front-end `lint-gate` pair, on every entry. All failures are
//! collected before the test fails, a pair x family table shows what
//! each pair covered, and each pair must pass on at least its floor of
//! entries, so coverage cannot silently vanish.
//!
//! The 100k-task entry runs only in optimized builds (the DES alone
//! takes minutes unoptimized); CI runs this suite with `--release`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use wrm_core::{ids, machines};
use wrm_sim::oracle::{corpus, generated_workflow, two_channel_machine, Check, Entry, Verdict};
use wrm_sim::{Jitter, McOptions, Scenario, SchedulerPolicy, SweepGrid};
use wrm_workflows::archetypes::{self, TaskShape};
use wrm_workflows::{Bgw, CosmoFlow, Day, GpTune, Lcls, Mode};

/// Pair 9: the lint error gate equals the full lint filtered to errors.
fn lint_gate(e: &Entry) -> Verdict {
    let Some(ast) = e.source.as_deref().and_then(|s| wrm_lang::parse(s).ok()) else {
        return Verdict::Skipped;
    };
    let mut full = wrm_lint::lint_ast(&ast);
    full.retain(|d| d.severity == wrm_lint::Severity::Error);
    let gate = wrm_lint::lint_errors(&ast);
    if gate == full {
        Verdict::Passed
    } else {
        Verdict::Failed(format!("lint_errors {gate:?} vs lint_ast errors {full:?}"))
    }
}

/// Minimum number of entries each pair must pass on.
const FLOORS: [(&str, usize); 9] = [
    ("reference", 595),
    ("calendar", 595),
    ("summary", 595),
    ("with-base", 595),
    ("fastpath", 201),
    ("sweep", 595),
    ("mc", 494),
    ("certify", 595),
    ("lint-gate", 29),
];

const BOTH: [SchedulerPolicy; 2] = [SchedulerPolicy::Fifo, SchedulerPolicy::Backfill];

fn grid(resource: &str, factors: &[f64], node_limits: &[Option<u64>]) -> SweepGrid {
    SweepGrid {
        resource: Some(resource.to_owned()),
        factors: factors.to_vec(),
        node_limits: node_limits.to_vec(),
        policies: BOTH.to_vec(),
    }
}

fn jittered(s: &Scenario, seed: u64, amplitude: f64, policy: SchedulerPolicy) -> Scenario {
    let mut opts = s.options.clone();
    opts.jitter = Some(Jitter { seed, amplitude });
    opts.scheduler = policy;
    s.clone().with_options(opts)
}

/// The paper's workflows: LCLS on both facility generations and both
/// beamtime days, BerkeleyGW at both scales, CosmoFlow, GPTune in every
/// orchestration mode, jittered and backfilled variants, and the
/// contention x node-limit grids of each — including the LCLS grid of
/// `wrm sweep lcls --resource ext --factors 0.2,0.5,1.0 --nodes 64,161
/// --policies fifo,backfill`.
fn paper() -> Vec<Entry> {
    let (cori, pm) = (machines::cori_haswell, machines::perlmutter_cpu);
    let lcls = Lcls::year_2020_on_cori().scenario(cori(), Day::Good);
    let bgw = Bgw::si998_64().scenario();
    let cosmo = CosmoFlow::default().scenario();
    let (ext, fs) = (ids::EXTERNAL, ids::FILE_SYSTEM);
    let factors = [0.2, 0.5, 1.0];
    let mut out = vec![
        Entry::new("paper", "lcls-2020-good", lcls.clone()).with_grid(grid(
            ext,
            &factors,
            &[None, Some(96)],
        )),
        Entry::new("paper", "lcls-2020-good/cli", lcls.clone()).with_grid(grid(
            ext,
            &factors,
            &[Some(64), Some(161)],
        )),
        Entry::new("paper", "bgw-64", bgw.clone()).with_grid(grid(
            fs,
            &[0.25, 1.0, 1.5],
            &[None, Some(128)],
        )),
        Entry::new("paper", "bgw-64/jitter", jittered(&bgw, 7, 0.25, BOTH[1])),
        Entry::new("paper", "bgw-1024", Bgw::si998_1024().scenario()),
        Entry::new("paper", "cosmoflow", cosmo.clone()).with_grid(grid(fs, &[0.5, 1.0], &[None])),
        // A 64-node limit rejects the 128-node training tasks at every
        // point: the paths must reject them alike.
        Entry::new("paper", "cosmoflow/limit-64", cosmo)
            .with_grid(grid(fs, &[0.5, 1.0], &[Some(64)]))
            .may_fail(),
    ];
    for day in [Day::Good, Day::Bad] {
        let s = Lcls::year_2024_on_pm().scenario(pm(), day);
        out.push(Entry::new("paper", format!("lcls-2024-{day:?}"), s));
    }
    let bad = Lcls::year_2020_on_cori().scenario(cori(), Day::Bad);
    out.push(Entry::new("paper", "lcls-2020-bad", bad));
    for seed in 0..8u64 {
        let s = jittered(&lcls, seed, 0.3, BOTH[(seed % 2) as usize]);
        out.push(Entry::new(
            "paper",
            format!("lcls-2020-good/jitter-{seed}"),
            s,
        ));
    }
    for mode in [Mode::Rci, Mode::Spawn, Mode::Projected] {
        let s = GpTune::default().scenario(mode);
        let g = grid(fs, &[0.5, 1.0], &[None, Some(32)]);
        out.push(Entry::new("paper", format!("gptune-{mode:?}"), s).with_grid(g));
    }
    out
}

/// The parameterized archetypes of `wrm_workflows::archetypes`, small
/// and contended.
fn archetypes() -> Vec<Entry> {
    let shape = |nodes, flops| TaskShape {
        nodes,
        flops,
        efficiency: 0.5,
        fs_in: 1e9,
        fs_out: 1e9,
    };
    let mut io = shape(2, 1e15);
    (io.fs_in, io.fs_out) = (2e12, 5e11);
    let wide = TaskShape {
        nodes: 32,
        ..TaskShape::default()
    };
    let (gpu, cpu) = (machines::perlmutter_gpu, machines::perlmutter_cpu);
    let hbm = ids::HBM;
    let specs = [
        ("ensemble-8", gpu(), archetypes::ensemble(8, shape(4, 1e15))),
        ("ensemble-64-io", cpu(), archetypes::ensemble(64, io)),
        (
            "ensemble-empty",
            gpu(),
            archetypes::ensemble(2, TaskShape::default()),
        ),
        ("pipeline-6", gpu(), archetypes::pipeline(6, shape(4, 1e15))),
        (
            "map-reduce-3x4",
            gpu(),
            archetypes::map_reduce(3, 4, shape(2, 1e14), shape(1, 1e12)),
        ),
        (
            "map-reduce-4x16",
            gpu(),
            archetypes::map_reduce(4, 16, io, shape(8, 1e15)),
        ),
        (
            "cross-facility-5",
            machines::cori_haswell(),
            archetypes::cross_facility(5, 1e12, 1e9, wide),
        ),
        (
            "cross-facility-12",
            cpu(),
            archetypes::cross_facility(12, 5e11, 2e9, shape(4, 1e15)),
        ),
        (
            "training-3x4",
            gpu(),
            archetypes::training_throughput(3, 4, 2, 1e9, hbm, 1e12, 0.5),
        ),
        (
            "training-8x6",
            gpu(),
            archetypes::training_throughput(8, 6, 4, 2e11, hbm, 5e12, 0.8),
        ),
    ];
    let entry = |(name, machine, wf)| Entry::new("archetypes", name, Scenario::new(machine, wf));
    specs.into_iter().map(entry).collect()
}

/// Every `.wrm` spec under `workflows/` and `workflows/bad/`, with its
/// source; specs that compile onto no machine get only front-end pairs.
/// Every spec outside `bad/` that compiles onto a machine must simulate.
fn wrm_files() -> Vec<Entry> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("workflows");
    let dirs = [root.clone(), root.join("bad")];
    let mut paths: Vec<_> = dirs
        .iter()
        .flat_map(|d| std::fs::read_dir(d).expect("spec dir"))
        .collect();
    paths.sort_by_key(|p| p.as_ref().map(std::fs::DirEntry::path).ok());
    let mut out = Vec::new();
    for path in paths.into_iter().map(|p| p.expect("dir entry").path()) {
        if path.extension().and_then(|x| x.to_str()) != Some("wrm") {
            continue;
        }
        let name = path.strip_prefix(&root).unwrap().display().to_string();
        let source = std::fs::read_to_string(&path).expect("readable spec");
        let compiled = wrm_lang::compile_source(&source).ok();
        let bad = name.starts_with("bad");
        let mut e = match compiled.and_then(|c| Some(Scenario::new(c.machine?, c.spec))) {
            Some(s) if bad => Entry::new("wrm", name, s).may_fail(),
            Some(s) => Entry::new("wrm", name, s),
            None => Entry {
                family: "wrm",
                name,
                scenario: None,
                grid: None,
                source: None,
                only: None,
                must_run: false,
                mc: McOptions::default(),
                mc_slack: 0.0,
            },
        };
        e.source = Some(source);
        out.push(e);
    }
    out
}

#[test]
fn every_pair_on_every_entry() {
    let mut entries = corpus();
    entries.extend(paper());
    entries.extend(archetypes());
    entries.extend(wrm_files());
    if !cfg!(debug_assertions) {
        let wf = generated_workflow(7, 100_000, 64, false, 1e10);
        let s = Scenario::new(two_channel_machine(4096, 50.0), wf);
        let mut e = Entry::new("scale", "layered-100k", s).only(&["summary", "certify"]);
        e.grid = None;
        entries.push(e);
    }
    let mut pairs: Vec<(&str, Check)> = wrm_sim::oracle::PAIRS.to_vec();
    pairs.push(("lint-gate", lint_gate));

    let mut passed: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let mut failures = Vec::new();
    for e in &entries {
        for &(pair, check) in &pairs {
            if e.only.is_some_and(|only| !only.contains(&pair)) {
                continue;
            }
            let verdict = catch_unwind(AssertUnwindSafe(|| check(e))).unwrap_or_else(|panic| {
                let msg = panic.downcast_ref::<String>().map(String::as_str);
                let msg = msg.or_else(|| panic.downcast_ref::<&str>().copied());
                Verdict::Failed(format!("panicked: {}", msg.unwrap_or_default()))
            });
            match verdict {
                Verdict::Skipped => {}
                Verdict::Passed => *passed.entry((pair, e.family)).or_default() += 1,
                Verdict::Failed(msg) => {
                    failures.push(format!("{pair} on {}/{}: {msg}", e.family, e.name));
                }
            }
        }
    }

    let mut families: Vec<&str> = entries.iter().map(|e| e.family).collect();
    families.dedup();
    let row = |cells: Vec<String>| cells.iter().map(|c| format!("{c:>11}")).collect::<String>();
    println!("{} entries; passes per pair and family:", entries.len());
    let header = families
        .iter()
        .map(ToString::to_string)
        .chain(["total".into()]);
    println!("{:<10}{}", "pair", row(header.collect()));
    for (pair, floor) in FLOORS {
        let count = |f: &&str| passed.get(&(pair, *f)).copied().unwrap_or(0);
        let counts: Vec<usize> = families.iter().map(count).collect();
        let total: usize = counts.iter().sum();
        let cells = counts.iter().chain([&total]).map(ToString::to_string);
        println!("{pair:<10}{}", row(cells.collect()));
        if total < floor {
            failures.push(format!(
                "{pair} passed on {total} entries, below its floor {floor}"
            ));
        }
    }
    let n = failures.len();
    assert!(n == 0, "{n} oracle failure(s):\n{}", failures.join("\n"));
}
