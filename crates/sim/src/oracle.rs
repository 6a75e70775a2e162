//! The differential-oracle harness: one table of oracle pairs, run over
//! one generated corpus.
//!
//! Every optimization in this crate is pinned to a slower or simpler
//! path that must agree with it exactly. [`PAIRS`] lists those
//! agreements, each a check from one corpus [`Entry`] to a [`Verdict`]:
//!
//! 1. `reference` — [`crate::simulate`] == the string-keyed reference
//!    engine, bit for bit, errors included, on the entry's scenario and
//!    on every point of its sweep grid;
//! 2. `calendar` — the bucketed calendar queue == the binary heap;
//! 3. `summary` — summary mode == folds of the full result (makespan
//!    bits, span count, node-seconds, per-channel flows/bytes/busy);
//! 4. `with-base` — the `_with_base` entry points on one warm arena ==
//!    a cold build, in both modes, errors included;
//! 5. `fastpath` — the analytic fast path == the DES wherever it
//!    engages;
//! 6. `sweep` — [`crate::sweep_grid`] == per-point `simulate` at one and
//!    two threads, with identical [`crate::SweepStats`];
//! 7. `mc` — point-mass entries collapse bit-equal to the deterministic
//!    run; distributional entries are identical at one and two threads
//!    and every sample lies inside the analytic bracket;
//! 8. `certify` — `lo <= makespan <= hi`, and the certificate fails
//!    exactly where the simulator fails, with the same error, on the
//!    scenario and every point of its grid.
//!
//! [`corpus`] generates the simulator-level part of the corpus from
//! fixed seeds. The root `tests/oracle.rs` adds the paper workflows,
//! the archetypes, every `.wrm` file in the repository and a front-end
//! pair, runs every applicable pair on every entry and asserts a
//! per-pair coverage floor.
//!
//! Spans are compared after [`canonicalize`] wherever two paths may
//! order spans that share a completion instant differently (the `Trace`
//! contract leaves that order unspecified); every scalar stays under
//! exact comparison.

use crate::bounds::certify_scenario;
use crate::calendar::CalendarKind;
use crate::channel::Sharing;
use crate::engine::{
    simulate, simulate_summary, simulate_summary_with_base, simulate_with_base,
    simulate_with_calendar, Jitter, Scenario, SchedulerPolicy, SimArena, SimError, SimOptions,
    SimResult, SimSummary,
};
use crate::fastpath::try_fastpath;
use crate::incremental::{sweep_grid, SweepGrid};
use crate::index::BaseIndex;
use crate::mc::{mc_run, McOptions};
use crate::overlay::IndexOverlay;
use crate::reference::simulate_reference;
use crate::spec::{Phase, TaskSpec, WorkflowSpec};
use std::cell::RefCell;
use std::fmt::Debug;
use wrm_core::{ids, machines, BytesPerSec, Dist, FlopsPerSec, Machine, Rate};
use wrm_dag::generate::{fork_join_tasks, random_layered_tasks};
use wrm_trace::SpanKind;

/// The outcome of one pair on one entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The pair does not apply to this entry.
    Skipped,
    /// Both sides agreed.
    Passed,
    /// The sides disagreed; the message says where.
    Failed(String),
}

impl From<Result<(), String>> for Verdict {
    fn from(r: Result<(), String>) -> Self {
        r.map_or_else(Verdict::Failed, |()| Verdict::Passed)
    }
}

/// A pair's check of one entry.
pub type Check = fn(&Entry) -> Verdict;

/// One corpus entry.
pub struct Entry {
    /// The family it belongs to (a column of the coverage table).
    pub family: &'static str,
    /// Unique name within the family.
    pub name: String,
    /// The scenario; `None` for a spec that compiles onto no machine.
    pub scenario: Option<Scenario>,
    /// The grid the `sweep` pair evaluates.
    pub grid: Option<SweepGrid>,
    /// The `.wrm` source the entry was compiled from, if any.
    pub source: Option<String>,
    /// When set, only these pairs apply (entries too large for the rest).
    pub only: Option<&'static [&'static str]>,
    /// Whether the scenario and every point of its grid must simulate.
    /// When false the paths only have to fail alike.
    pub must_run: bool,
    /// The batch the `mc` pair draws; it runs it at one and two threads,
    /// whatever `threads` says.
    pub mc: McOptions,
    /// Relative slack the `mc` pair allows around the analytic bracket.
    pub mc_slack: f64,
}

impl Entry {
    /// An entry over `scenario`, swept over [`default_grid`].
    pub fn new(family: &'static str, name: impl Into<String>, scenario: Scenario) -> Self {
        Self {
            family,
            name: name.into(),
            grid: Some(default_grid(&scenario)),
            scenario: Some(scenario),
            source: None,
            only: None,
            must_run: true,
            mc: McOptions {
                reps: 16,
                seed: 42,
                threads: 1,
            },
            mc_slack: 0.0,
        }
    }

    /// Marks the entry as one whose paths only have to fail alike.
    #[must_use]
    pub fn may_fail(mut self) -> Self {
        self.must_run = false;
        self
    }

    /// Replaces the `mc` pair's batch size, seed and bracket slack.
    #[must_use]
    pub fn with_mc(mut self, reps: usize, seed: u64, slack: f64) -> Self {
        self.mc = McOptions {
            reps,
            seed,
            threads: 1,
        };
        self.mc_slack = slack;
        self
    }

    /// Replaces the swept grid.
    #[must_use]
    pub fn with_grid(mut self, grid: SweepGrid) -> Self {
        self.grid = Some(grid);
        self
    }

    /// Restricts the entry to the named pairs.
    #[must_use]
    pub fn only(mut self, pairs: &'static [&'static str]) -> Self {
        self.only = Some(pairs);
        self
    }
}

/// Every simulator-level oracle pair, by name.
pub const PAIRS: [(&str, Check); 8] = [
    ("reference", engine_vs_reference),
    ("calendar", buckets_vs_heap),
    ("summary", summary_vs_full),
    ("with-base", with_base_vs_cold),
    ("fastpath", fastpath_vs_des),
    ("sweep", sweep_vs_points),
    ("mc", mc_vs_simulate),
    ("certify", certify_brackets),
];

/// Sorts a result's spans by `(task, start, end)`, the one detail the
/// evaluation paths may legitimately order differently.
#[must_use]
pub fn canonicalize(mut r: SimResult) -> SimResult {
    r.trace.spans.sort_by(|a, b| {
        (a.task.as_str(), a.start, a.end)
            .partial_cmp(&(b.task.as_str(), b.start, b.end))
            .expect("span times are not NaN")
    });
    r
}

type Run = Result<SimResult, SimError>;

fn canonical(r: &Run) -> Run {
    r.clone().map(canonicalize)
}

fn same<T: PartialEq + Debug>(what: &str, got: &T, want: &T) -> Result<(), String> {
    let brief = |v: &T| format!("{v:?}").chars().take(240).collect::<String>();
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {} vs {}", brief(got), brief(want)))
    }
}

/// [`same`] for runs, naming the makespans and the first differing span.
fn same_run(what: &str, got: &Run, want: &Run) -> Result<(), String> {
    match (got, want) {
        (Ok(a), Ok(b)) if a != b => {
            let first = a
                .trace
                .spans
                .iter()
                .zip(&b.trace.spans)
                .position(|(x, y)| x != y);
            Err(format!(
                "{what}: makespan {} vs {}, first differing span {first:?}",
                a.makespan, b.makespan
            ))
        }
        _ => same(what, got, want),
    }
}

fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    cond.then_some(()).ok_or_else(msg)
}

/// Two paths that failed (or one that failed) on `e`: they must fail
/// alike, and only where the entry may fail at all.
fn same_error(e: &Entry, got: &Option<SimError>, want: &Option<SimError>) -> Result<(), String> {
    ensure(!e.must_run, || format!("fails: {got:?} vs {want:?}"))?;
    same("errors", got, want)
}

/// The scenario of every point of `grid`, in [`SweepGrid::index_of`]
/// order.
fn grid_points(s: &Scenario, grid: &SweepGrid) -> Vec<Scenario> {
    let mut points = Vec::with_capacity(grid.len());
    for fi in 0..grid.factors.len() {
        for ni in 0..grid.node_limits.len() {
            for pi in 0..grid.policies.len() {
                let opts = grid.point_options(&s.options, fi, ni, pi);
                points.push(s.clone().with_options(opts));
            }
        }
    }
    points
}

/// Runs `check` on the entry's scenario and then on every point of its
/// grid, naming the first failing variant (0 = the scenario itself).
fn each_variant(e: &Entry, check: impl Fn(&Scenario) -> Result<(), String>) -> Verdict {
    let Some(s) = &e.scenario else {
        return Verdict::Skipped;
    };
    let points = e.grid.iter().flat_map(|g| grid_points(s, g));
    let mut variants = std::iter::once(s.clone()).chain(points).enumerate();
    match variants.find_map(|(i, v)| check(&v).err().map(|m| (i, m))) {
        Some((i, msg)) => Verdict::Failed(format!("variant {i}: {msg}")),
        None => Verdict::Passed,
    }
}

fn engine_vs_reference(e: &Entry) -> Verdict {
    each_variant(e, |s| {
        same_run(
            "simulate vs reference",
            &simulate(s),
            &simulate_reference(s),
        )
    })
}

fn buckets_vs_heap(e: &Entry) -> Verdict {
    let Some(s) = &e.scenario else {
        return Verdict::Skipped;
    };
    let heap = simulate_with_calendar(s, CalendarKind::Heap);
    same_run("buckets vs heap", &simulate(s), &heap).into()
}

fn summary_vs_full(e: &Entry) -> Verdict {
    let Some(s) = &e.scenario else {
        return Verdict::Skipped;
    };
    match (simulate(s), simulate_summary(s)) {
        (Ok(full), Ok(sum)) => summary_folds(s, &full, &sum).into(),
        (full, sum) => same_error(e, &sum.err(), &full.err()).into(),
    }
}

/// Recomputes every summary statistic from the full result. Makespan,
/// span count and node-seconds replicate the engine's folds and must
/// match bit for bit; busy time and bytes are re-derived by interval
/// merging, which may differ in the last ulp at touching boundaries.
fn summary_folds(s: &Scenario, full: &SimResult, sum: &SimSummary) -> Result<(), String> {
    let mut node_seconds = 0.0;
    for t in &s.workflow.tasks {
        node_seconds += t.nodes as f64 * full.task_times[&t.name];
    }
    let bits = |v: f64| v.to_bits();
    same(
        "makespan bits, spans, tasks, pool, node-seconds bits",
        &(
            bits(sum.makespan),
            sum.n_spans as usize,
            sum.n_tasks,
            sum.pool_nodes,
            bits(sum.node_seconds),
        ),
        &(
            bits(full.makespan),
            full.trace.spans.len(),
            s.workflow.tasks.len(),
            full.pool_nodes,
            bits(node_seconds),
        ),
    )?;
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.max(1.0);
    for ch in &sum.channels {
        let mut iv: Vec<(f64, f64)> = Vec::new();
        let mut bytes = 0.0;
        for sp in &full.trace.spans {
            if let SpanKind::SystemData { resource, bytes: b } = &sp.kind {
                if *resource == ch.resource {
                    iv.push((sp.start, sp.end));
                    bytes += b;
                }
            }
        }
        same(
            &format!("flows on {}", ch.resource),
            &ch.flows,
            &(iv.len() as u64),
        )?;
        iv.sort_by(|a, b| a.partial_cmp(b).expect("span times are not NaN"));
        let (mut busy, mut cur) = (0.0, None::<(f64, f64)>);
        for (a, b) in iv {
            match &mut cur {
                Some((_, end)) if a <= *end => *end = end.max(b),
                _ => busy += cur.replace((a, b)).map_or(0.0, |(cs, ce)| ce - cs),
            }
        }
        busy += cur.map_or(0.0, |(cs, ce)| ce - cs);
        ensure(close(ch.bytes, bytes) && close(ch.busy, busy), || {
            format!("{ch:?} vs bytes {bytes}, busy {busy}")
        })?;
        ensure(ch.busy <= sum.makespan * (1.0 + 1e-9) + 1e-9, || {
            format!("busy on {} exceeds the makespan", ch.resource)
        })?;
    }
    let tail = &sum.critical_tail;
    let tail_ok = if sum.n_tasks == 0 {
        sum.critical_tail_len == 0 && tail.is_empty()
    } else {
        sum.critical_tail_len >= 1
            && tail.len() == sum.critical_tail_len.min(32)
            && tail.iter().all(|n| full.task_times.contains_key(n))
    };
    ensure(tail_ok, || {
        format!("critical tail {} {tail:?}", sum.critical_tail_len)
    })
}

thread_local! {
    /// One arena per harness thread, reused by every entry the thread
    /// checks, so engine state a run fails to reset leaks into the next
    /// entry and shows up as a `with-base` failure.
    static ARENA: RefCell<SimArena> = RefCell::new(SimArena::new());
}

fn with_base_vs_cold(e: &Entry) -> Verdict {
    let Some(s) = &e.scenario else {
        return Verdict::Skipped;
    };
    let (full, sum) = match BaseIndex::build(&s.machine, &s.workflow) {
        Err(err) => (Err(err.clone()), Err(err)),
        Ok(base) => ARENA.with_borrow_mut(|arena| {
            let full = simulate_with_base(s, &base, arena);
            (full, simulate_summary_with_base(s, &base, arena))
        }),
    };
    same_run("warm full vs cold", &full, &simulate(s))
        .and_then(|()| same("warm summary vs cold", &sum, &simulate_summary(s)))
        .into()
}

fn fastpath_vs_des(e: &Entry) -> Verdict {
    let Some(s) = &e.scenario else {
        return Verdict::Skipped;
    };
    let fast = BaseIndex::build(&s.machine, &s.workflow)
        .ok()
        .and_then(|base| {
            let overlay = IndexOverlay::build(&base, &s.workflow, &s.options).ok()?;
            try_fastpath(&s.workflow, &s.machine.name, &s.options, &base, &overlay)
        });
    let Some(fast) = fast else {
        return Verdict::Skipped;
    };
    same_run(
        "fastpath vs DES",
        &Ok(canonicalize(fast)),
        &canonical(&simulate(s)),
    )
    .into()
}

fn sweep_vs_points(e: &Entry) -> Verdict {
    let (Some(s), Some(grid)) = (&e.scenario, &e.grid) else {
        return Verdict::Skipped;
    };
    let check = || {
        let (one, two) = (sweep_grid(s, grid, 1), sweep_grid(s, grid, 2));
        let st = one.stats;
        same("stats at 2 threads", &two.stats, &st)?;
        let counted = st.fastpath + st.replayed + st.cold + st.reused + st.errors;
        let covered = (counted, one.results.len(), two.results.len());
        same(
            "stats and results cover the grid",
            &covered,
            &(grid.len(), grid.len(), grid.len()),
        )?;
        for (ix, point) in grid_points(s, grid).iter().enumerate() {
            let want = canonical(&simulate(point));
            for (threads, got) in [(1, &one), (2, &two)] {
                let what = format!("point {ix} at {threads} thread(s)");
                same_run(&what, &canonical(&got.results[ix]), &want)?;
            }
        }
        Ok(())
    };
    check().into()
}

fn mc_vs_simulate(e: &Entry) -> Verdict {
    let Some(s) = &e.scenario else {
        return Verdict::Skipped;
    };
    if s.options.jitter.is_some() {
        return Verdict::Skipped; // replication replaces jitter
    }
    let reps = e.mc.reps;
    let run = |threads| {
        mc_run(
            s,
            &McOptions {
                threads,
                ..e.mc.clone()
            },
        )
    };
    let check = || match (run(1), simulate_summary(s)) {
        (Ok(mc), Ok(sum)) if mc.degenerate => {
            let values = mc.percentiles.iter().map(|p| p.value);
            let got = [mc.mean]
                .into_iter()
                .chain(mc.makespans.iter().copied())
                .chain(values);
            let got: Vec<u64> = got.map(f64::to_bits).collect();
            let want = vec![sum.makespan.to_bits(); 2 + mc.percentiles.len()];
            same("collapsed mean, makespans, percentiles", &got, &want)
        }
        (Ok(mc), Ok(_)) => {
            same("threads 2 vs 1", &run(2), &Ok(mc.clone()))?;
            same("rep count", &mc.makespans.len(), &reps)?;
            let (lo, hi, k) = (mc.bracket_lo, mc.bracket_hi, 1.0 + e.mc_slack);
            let outside = mc.makespans.iter().find(|&&m| m * k < lo || m > hi * k);
            ensure(outside.is_none(), || {
                format!("sample {outside:?} outside [{lo}, {hi}]")
            })
        }
        (mc, sim) => same_error(e, &mc.err(), &sim.err()),
    };
    check().into()
}

/// The engine finishes flows up to 1e-9 relative early (event-horizon
/// rounding), so the lower check allows `lo * (1 - 1e-6)`; the upper
/// check allows the same hair above `hi`.
fn certify_brackets(e: &Entry) -> Verdict {
    each_variant(e, |s| match (certify_scenario(s), simulate_summary(s)) {
        (Ok(c), Ok(sum)) => {
            let m = sum.makespan;
            let inside = c.lo * (1.0 - 1e-6) <= m && m <= c.hi * (1.0 + 1e-9) + 1e-9;
            ensure(inside && c.hi.is_finite(), || {
                format!("{} <= {m} <= {} violated", c.lo, c.hi)
            })
        }
        (cert, sim) => same_error(e, &cert.err(), &sim.err()),
    })
}

/// The grid an entry is swept over unless it names its own: the first
/// channel a flow phase uses at factors 0.5 and 1, the full pool and
/// half of it (at least the widest task), under both policies.
fn default_grid(s: &Scenario) -> SweepGrid {
    let tasks = &s.workflow.tasks;
    let resource = tasks.iter().flat_map(|t| &t.phases).find_map(|p| match p {
        Phase::SystemData { resource, .. } => Some(resource.as_str()),
        _ => None,
    });
    let half = tasks
        .iter()
        .map(|t| t.nodes)
        .max()
        .unwrap_or(1)
        .max(s.machine.total_nodes / 2);
    grid(resource, &[0.5, 1.0], &[None, Some(half)], &BOTH)
}

/// A seeded SplitMix64 stream: the corpus's only source of variation.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `1 + below(n)`, as a float.
    fn step(&mut self, n: u64) -> f64 {
        (1 + self.below(n)) as f64
    }

    /// Uniform in `[lo, hi)`.
    fn unit(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn policy(&mut self) -> SchedulerPolicy {
        BOTH[usize::from(self.coin())]
    }

    fn paper_machine(&mut self) -> Machine {
        if self.coin() {
            machines::cori_haswell()
        } else {
            machines::perlmutter_cpu()
        }
    }
}

const BOTH: [SchedulerPolicy; 2] = [SchedulerPolicy::Fifo, SchedulerPolicy::Backfill];

/// Seeds per generated family: the case count of the property tests the
/// families replace.
const SEEDS: u64 = 64;

fn grid(
    resource: Option<&str>,
    factors: &[f64],
    node_limits: &[Option<u64>],
    policies: &[SchedulerPolicy],
) -> SweepGrid {
    SweepGrid {
        resource: resource.map(str::to_owned),
        factors: factors.to_vec(),
        node_limits: node_limits.to_vec(),
        policies: policies.to_vec(),
    }
}

fn flow(resource: &str, bytes: f64, stream_cap: Option<f64>) -> Phase {
    Phase::SystemData {
        resource: resource.into(),
        bytes,
        stream_cap,
    }
}

fn compute(flops: f64, efficiency: f64) -> Phase {
    Phase::Compute { flops, efficiency }
}

fn options(f: impl FnOnce(&mut SimOptions)) -> SimOptions {
    let mut o = SimOptions::default();
    f(&mut o);
    o
}

/// A pool of CPU nodes with a file system of `fs_gbps` and a 5 GB/s
/// external link.
#[must_use]
pub fn two_channel_machine(pool: u64, fs_gbps: f64) -> Machine {
    Machine::builder("oracle", pool)
        .node(
            ids::COMPUTE,
            "CPU",
            Rate::FlopsPerSec(FlopsPerSec::tflops(1.0)),
        )
        .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(fs_gbps))
        .system(ids::EXTERNAL, "ext", BytesPerSec::gbps(5.0))
        .build()
        .expect("valid machine")
}

/// A `wrm_dag::generate` layered (or fork-join) DAG with a mix of
/// overhead, compute, and flows of about `bytes` each: capped and
/// uncapped on the file system, which they contend for, and on the
/// external link.
#[must_use]
pub fn generated_workflow(
    seed: u64,
    n: usize,
    width: usize,
    fork_join: bool,
    bytes: f64,
) -> WorkflowSpec {
    let tasks = if fork_join {
        fork_join_tasks(seed, n, width, 8, 30.0)
    } else {
        random_layered_tasks(seed, n, width, 8, 30.0)
    };
    let (fs, ext) = (ids::FILE_SYSTEM, ids::EXTERNAL);
    let mut wf = WorkflowSpec::new(format!("gen[{seed}]"));
    for (i, t) in tasks.iter().enumerate() {
        let mut spec = TaskSpec::new(&t.name, t.nodes);
        spec.phases = match i % 5 {
            0 => vec![
                Phase::overhead("setup", t.duration),
                Phase::system_data(fs, bytes),
            ],
            1 => vec![flow(fs, bytes, Some(1e9 * (1 + i % 3) as f64))],
            2 => vec![
                Phase::compute(t.duration * 1e12),
                Phase::overhead("teardown", 1.0),
            ],
            3 => vec![
                Phase::system_data(fs, bytes / 5.0),
                flow(ext, bytes / 10.0, (i % 2 == 0).then_some(1e9)),
            ],
            _ => vec![Phase::overhead("work", t.duration)],
        };
        spec.after = t.deps.iter().map(|&d| tasks[d].name.clone()).collect();
        wf = wf.task(spec);
    }
    wf
}

/// Seeded tasks `t0..` of up to `max_nodes` nodes with up to three
/// phases drawn by `phase`, and random backward edges.
fn random_workflow(
    seed: u64,
    n_tasks: u64,
    max_nodes: u64,
    mut phase: impl FnMut(&mut Mix) -> Phase,
) -> WorkflowSpec {
    let mut r = Mix(seed);
    let mut wf = WorkflowSpec::new(format!("rand[{seed}]"));
    for i in 0..n_tasks {
        let mut t = TaskSpec::new(format!("t{i}"), 1 + r.below(max_nodes));
        for _ in 0..r.below(4) {
            t = t.phase(phase(&mut r));
        }
        for _ in 0..r.below(3).min(i) {
            t = t.after(format!("t{}", r.below(i)));
        }
        wf = wf.task(t);
    }
    wf
}

/// Every phase kind on every channel of `machine`, with the engine's
/// corner cases: zero-phase tasks, zero-byte flows, zero-second
/// overheads and stream caps.
fn arbitrary_workflow(seed: u64, n_tasks: u64, machine: &Machine) -> WorkflowSpec {
    let channels: Vec<String> = machine
        .system_resources
        .iter()
        .map(|r| r.id.to_string())
        .collect();
    random_workflow(seed, n_tasks, 6, |r| match r.below(6) {
        0 => compute(r.step(1000) * 1e9, 0.25 + r.below(100) as f64 / 200.0),
        1 => Phase::node_data(ids::DRAM, r.below(1000) as f64 * 1e8),
        2 => {
            let zero = r.below(4) == 0;
            Phase::overhead(
                "o",
                if zero {
                    0.0
                } else {
                    r.below(100) as f64 / 10.0
                },
            )
        }
        _ => {
            let ch = &channels[r.below(channels.len() as u64) as usize];
            let bytes = if r.below(5) == 0 {
                0.0
            } else {
                r.step(1000) * 1e8
            };
            flow(ch, bytes, (r.below(3) == 0).then(|| r.step(20) * 1e8))
        }
    })
}

/// A compute stage feeding five unbounded flows on the external link: a
/// factor sweep over it takes the fast path, replay and reuse.
#[must_use]
pub fn mixed_workflow() -> WorkflowSpec {
    let mut wf = WorkflowSpec::new("mixed");
    for i in 0..6 {
        let setup = Phase::overhead("setup", 5.0 + f64::from(i));
        wf = wf.task(
            TaskSpec::new(format!("sim{i}"), 16)
                .phase(setup)
                .phase(compute(2e13, 0.4)),
        );
    }
    for i in 0..5 {
        let push = TaskSpec::new(format!("push{i}"), 4).after(format!("sim{i}"));
        wf = wf.task(push.phase(flow(ids::EXTERNAL, 2e11, None)));
    }
    wf
}

/// Six uniform-duration tasks, two of which feed a triangular-duration
/// merge.
#[must_use]
pub fn dist_scenario() -> Scenario {
    let mut wf = WorkflowSpec::new("mc-test");
    for i in 0..6 {
        let work = TaskSpec::new(format!("t{i}"), 2).phase(Phase::overhead("work", 10.0));
        wf = wf.task(work.dist(0, Dist::Uniform { lo: 8.0, hi: 12.0 }));
    }
    let tri = Dist::Triangular {
        lo: 2.0,
        mode: 3.0,
        hi: 4.0,
    };
    let merge = TaskSpec::new("merge", 1)
        .phase(Phase::overhead("merge", 3.0))
        .dist(0, tri);
    Scenario::new(
        machines::perlmutter_cpu(),
        wf.task(merge.after("t0").after("t1")),
    )
}

/// A layered DAG with distributional phase quantities: every task in
/// layer `l > 0` depends on all of layer `l - 1`.
#[must_use]
pub fn layered_mc_scenario(layers: usize, width: usize, bytes: f64, spread: f64) -> Scenario {
    let machine = Machine::builder("mc-pool", 64)
        .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(10.0))
        .build()
        .expect("valid machine");
    let (lo, hi) = (bytes * (1.0 - spread), bytes * (1.0 + spread));
    let setup = Dist::Triangular {
        lo: 2.0,
        mode: 5.0,
        hi: 9.0,
    };
    let mut wf = WorkflowSpec::new("mc");
    for l in 0..layers {
        for i in 0..width {
            let mut t = TaskSpec::new(format!("l{l}t{i}"), 1)
                .phase(Phase::overhead("setup", 5.0))
                .dist(0, setup.clone())
                .phase(Phase::system_data(ids::FILE_SYSTEM, bytes))
                .dist(1, Dist::Uniform { lo, hi });
            if l > 0 {
                t.after = (0..width).map(|j| format!("l{}t{j}", l - 1)).collect();
            }
            wf = wf.task(t);
        }
    }
    Scenario::new(machine, wf)
}

/// The simulator-level corpus, from fixed seeds.
#[must_use]
pub fn corpus() -> Vec<Entry> {
    let mut out = generated();
    out.extend(knobs());
    out.extend(units());
    out.extend(errors());
    out.extend(monte_carlo());
    out.extend(shapes());
    out
}

/// Layered and fork-join DAGs, 64 of each, with per-task bytes from
/// 1e8 to 1e12 on file systems of 0.5 to 50 GB/s, under contention,
/// node limits and both schedulers; two 2000-task DAGs drive the
/// calendar queue through several resizes and wide same-instant barrier
/// drains.
fn generated() -> Vec<Entry> {
    let kind = |fork_join: bool| ["layered", "fork-join"][usize::from(fork_join)];
    let mut out: Vec<Entry> = (0..2 * SEEDS)
        .map(|seed| {
            let mut r = Mix(seed);
            let (n, width) = (1 + r.below(40) as usize, 1 + r.below(8) as usize);
            let bytes = 10f64.powf(r.unit(8.0, 12.0));
            let wf = generated_workflow(r.next(), n, width, seed % 2 == 1, bytes);
            let opts = options(|o| {
                o.scheduler = r.policy();
                o.node_limit = r.coin().then_some(8);
            });
            let opts = opts.with_contention(ids::FILE_SYSTEM, r.unit(0.05, 2.0));
            let machine = two_channel_machine(8 + r.below(56), r.unit(0.5, 50.0));
            Entry::new(
                "generated",
                format!("{}/{seed}", kind(seed % 2 == 1)),
                Scenario::new(machine, wf).with_options(opts),
            )
        })
        .collect();
    // An 8 x 8 contention x node-limit grid under both policies.
    let s = Scenario::new(
        two_channel_machine(32, 10.0),
        generated_workflow(42, 16, 4, false, 2e10),
    );
    let factors = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0];
    let limits = [8, 12, 16, 20, 24, 28, 30].map(Some);
    let g = grid(
        Some(ids::FILE_SYSTEM),
        &factors,
        &[&limits[..], &[None]].concat(),
        &BOTH,
    );
    out.push(Entry::new("generated", "grid-8x8", s).with_grid(g));
    for fork_join in [false, true] {
        let wf = generated_workflow(42, 2_000, 64, fork_join, 1e10);
        let s = Scenario::new(two_channel_machine(512, 40.0), wf);
        out.push(Entry::new(
            "generated",
            format!("{}-2000", kind(fork_join)),
            s,
        ));
    }
    out
}

/// Option knobs — equal-split sharing, background flows, jitter, node
/// limits, contention — on generated DAGs and on arbitrary workflows
/// over the paper machines; and zero-phase chains and fan-outs, which
/// complete tasks mid-scan.
fn knobs() -> Vec<Entry> {
    let sharing = |equal_split| [Sharing::MaxMin, Sharing::EqualSplit][usize::from(equal_split)];
    let mut out = Vec::new();
    for seed in 0..SEEDS {
        let mut r = Mix(seed ^ 0x6b6e_6f62);
        let wf = generated_workflow(r.next(), 1 + r.below(14) as usize, 4, false, 1e10);
        let mut opts = options(|o| {
            o.sharing = sharing(r.coin());
            o.scheduler = r.policy();
            o.jitter = Some(Jitter {
                seed: r.next(),
                amplitude: r.unit(0.0, 0.4),
            });
            o.node_limit = r.coin().then_some(8);
        })
        .with_contention(ids::FILE_SYSTEM, r.unit(0.05, 1.0));
        if r.coin() {
            opts = opts.with_background(ids::FILE_SYSTEM, r.unit(0.0, 5e9));
        }
        let s = Scenario::new(two_channel_machine(8 + r.below(32), 10.0), wf).with_options(opts);
        out.push(Entry::new("knobs", format!("generated/{seed}"), s));

        let mut r = Mix(seed ^ 0x6172_6269);
        let machine = r.paper_machine();
        let wf = arbitrary_workflow(r.next(), 1 + r.below(16), &machine);
        let mut opts = options(|o| {
            o.node_limit = r.coin().then(|| 1 + r.below(31));
            o.scheduler = r.policy();
            o.sharing = sharing(seed % 4 == 3);
            if r.coin() {
                o.jitter = Some(Jitter {
                    seed: r.next(),
                    amplitude: r.unit(0.0, 0.9),
                });
            }
        });
        if r.coin() {
            opts = opts.with_contention(ids::EXTERNAL, r.unit(0.1, 1.5));
        }
        if r.coin() {
            opts = opts.with_background(ids::EXTERNAL, 2e9);
        }
        // A node limit below the widest task is one of the rejections
        // the paths must agree on.
        let narrow = opts
            .node_limit
            .is_some_and(|l| wf.tasks.iter().any(|t| t.nodes > l));
        let e = Entry::new(
            "knobs",
            format!("arbitrary/{seed}"),
            Scenario::new(machine, wf).with_options(opts),
        );
        out.push(if narrow { e.may_fail() } else { e });
    }
    let (mut chain, mut fanout) = (WorkflowSpec::new("zero-chain"), WorkflowSpec::new("fanout"));
    for i in 0..5000 {
        let t = TaskSpec::new(format!("t{i}"), 1);
        chain = chain.task(if i > 0 {
            t.after(format!("t{}", i - 1))
        } else {
            t
        });
    }
    for i in 0..40 {
        let gate = TaskSpec::new(format!("gate{i}"), 1);
        let gate = if i > 0 {
            gate.after(format!("gate{}", i - 1))
        } else {
            gate
        };
        let work = TaskSpec::new(format!("work{i}"), 3).after(format!("gate{i}"));
        fanout = fanout
            .task(gate)
            .task(work.phase(Phase::overhead("o", 1.0 + f64::from(i))));
    }
    let s = Scenario::new(machines::perlmutter_cpu(), chain);
    out.push(Entry::new("knobs", "zero-phase-chain-5000", s));
    for policy in BOTH {
        let opts = options(|o| (o.node_limit, o.scheduler) = (Some(16), policy));
        let s = Scenario::new(machines::cori_haswell(), fanout.clone()).with_options(opts);
        out.push(Entry::new(
            "knobs",
            format!("zero-phase-fanout/{policy:?}"),
            s,
        ));
    }
    out
}

/// The shapes the engine's unit tests pinned: uncontended workflows the
/// fast path must take, the sweep engine's workflows with their grids,
/// and overlay knobs on a shared base.
fn units() -> Vec<Entry> {
    let ext = ids::EXTERNAL;
    let mut out = Vec::new();
    for seed in 0..SEEDS {
        // Tiny stream caps: 12 tasks x 1e8 B/s stays far below either
        // machine's external capacity.
        let mut r = Mix(seed ^ 0x0075_6e63);
        let machine = r.paper_machine();
        let wf = random_workflow(r.next(), 1 + r.below(12), 4, |r| match r.below(3) {
            0 => Phase::overhead("o", r.step(400) / 10.0),
            1 => compute(r.step(1000) * 1e9, 0.25 + r.below(100) as f64 / 200.0),
            _ => flow(ext, r.step(500) * 1e8, Some(1e8)),
        });
        let s = Scenario::new(machine, wf).with_options(options(|o| o.scheduler = r.policy()));
        out.push(Entry::new("units", format!("uncontended/{seed}"), s));
    }
    for seed in 0..SEEDS {
        let mut r = Mix(seed ^ 0x7377_6570);
        let machine = r.paper_machine();
        let wf = random_workflow(r.next(), 1 + r.below(8), 48, |r| match r.below(4) {
            0 => Phase::overhead("o", r.step(300) / 10.0),
            1 => compute(r.step(500) * 1e12, 0.2 + r.below(100) as f64 / 150.0),
            k => flow(ext, r.step(300) * 1e9, (k == 2).then(|| r.step(20) * 1e8)),
        });
        let limits = [None, r.coin().then_some(64)];
        let g = grid(Some(ext), &[0.5, 1.0, 1.7], &limits, &BOTH);
        let s = Scenario::new(machine, wf);
        out.push(Entry::new("units", format!("sweep/{seed}"), s).with_grid(g));
    }
    // A capped pipeline, and 8 x 0.5 GB/s below Cori's 5 GB/s link.
    let (mut pipeline, mut parallel) = (WorkflowSpec::new("chain"), WorkflowSpec::new("par"));
    let mut no_ext = WorkflowSpec::new("no-ext");
    for i in 0..8 {
        let t = TaskSpec::new(format!("t{i}"), 4).phase(Phase::overhead("o", 3.0 + f64::from(i)));
        let t = if i > 0 {
            t.after(format!("t{}", i - 1))
        } else {
            t
        };
        pipeline = pipeline.task(t.phase(flow(ext, 7e9 + f64::from(i) * 1e9, Some(1e9))));
        let w = TaskSpec::new(format!("w{i}"), 2);
        parallel = parallel.task(w.phase(flow(ext, 5e9 + f64::from(i) * 1e9, Some(5e8))));
        no_ext = no_ext.task(TaskSpec::new(format!("n{i}"), 512).phase(Phase::overhead("o", 10.0)));
    }
    let (cori, pm) = (machines::cori_haswell, machines::perlmutter_cpu);
    let mixed = |machine: Machine| Scenario::new(machine, mixed_workflow());
    let ext = Some(ext);
    out.extend([
        Entry::new("units", "capped-pipeline", Scenario::new(cori(), pipeline)),
        Entry::new("units", "capped-parallel", Scenario::new(cori(), parallel)),
        Entry::new("units", "mixed/grid", mixed(cori())).with_grid(grid(
            ext,
            &[0.2, 0.5, 1.0, 2.0],
            &[None, Some(64), Some(24)],
            &BOTH,
        )),
        Entry::new("units", "mixed/replay", mixed(cori())).with_grid(grid(
            ext,
            &[0.25, 0.5, 0.75, 1.0, 1.5],
            &[None],
            &BOTH[..1],
        )),
        Entry::new("units", "mixed/pm", mixed(pm())).with_grid(grid(
            ext,
            &[0.3, 1.0, 1.3],
            &[None, Some(40)],
            &BOTH,
        )),
        Entry::new("units", "no-ext/reuse", Scenario::new(cori(), no_ext)).with_grid(grid(
            ext,
            &[0.1, 0.5, 1.0, 5.0],
            &[Some(2048)],
            &BOTH[..1],
        )),
    ]);
    for f in [0.2, 0.5, 1.0, 1.7] {
        let opts = SimOptions::default().with_contention(ids::EXTERNAL, f);
        let opts = opts.with_background(ids::EXTERNAL, 2e9);
        let s = Scenario::new(pm(), overlay_workflow()).with_options(opts);
        out.push(Entry::new("units", format!("overlay/{f}"), s));
    }
    out
}

fn overlay_workflow() -> WorkflowSpec {
    let a = TaskSpec::new("a", 4).phase(Phase::overhead("o", 5.0));
    let b = TaskSpec::new("b", 64).after("a").phase(compute(1e12, 0.5));
    WorkflowSpec::new("ov")
        .task(a.phase(Phase::system_data(ids::EXTERNAL, 1e9)))
        .task(b)
}

/// Scenarios every engine must reject with the same first error: spec
/// errors, invalid options, and the validation-order cases (an earlier
/// too-large task wins over a later unknown resource only when the node
/// limit makes it too large).
fn errors() -> Vec<Entry> {
    let task = |name: &str, nodes| TaskSpec::new(name, nodes).phase(Phase::overhead("o", 1.0));
    let unknown = TaskSpec::new("bad", 1).phase(flow("nope", 1e9, None));
    let wf = |tasks: Vec<TaskSpec>| {
        tasks
            .into_iter()
            .fold(WorkflowSpec::new("e"), WorkflowSpec::task)
    };
    let specs = [
        ("unknown-resource", wf(vec![unknown.clone()])),
        ("too-large", wf(vec![task("t", 1_000_000)])),
        (
            "cycle",
            wf(vec![task("a", 1).after("b"), task("b", 1).after("a")]),
        ),
        (
            "dangling-dependency",
            wf(vec![task("t", 1).after("missing")]),
        ),
        ("empty-workflow", wf(vec![])),
    ];
    let mut out: Vec<Entry> = specs
        .into_iter()
        .map(|(name, wf)| {
            let g = grid(None, &[1.0, 2.0], &[None], &BOTH[..1]);
            Entry::new(
                "errors",
                name,
                Scenario::new(two_channel_machine(8, 1.0), wf),
            )
            .with_grid(g)
            .may_fail()
        })
        .collect();
    let ext = ids::EXTERNAL;
    let option_cases = [
        (
            "zero-contention",
            SimOptions::default().with_contention(ext, 0.0),
        ),
        (
            "nan-contention",
            SimOptions::default().with_contention(ext, f64::NAN),
        ),
        (
            "background-unknown",
            SimOptions::default().with_background("nope", 1e9),
        ),
        (
            "negative-background",
            SimOptions::default().with_background(ext, -1.0),
        ),
        ("node-limit-8", options(|o| o.node_limit = Some(8))),
        ("node-limit-2", options(|o| o.node_limit = Some(2))),
    ];
    for (name, opts) in option_cases {
        let s = Scenario::new(machines::cori_haswell(), overlay_workflow()).with_options(opts);
        out.push(Entry::new("errors", format!("overlay/{name}"), s).may_fail());
    }
    for limit in [Some(16), None] {
        let s = Scenario::new(
            machines::cori_haswell(),
            wf(vec![task("big", 32), unknown.clone()]),
        );
        let s = s.with_options(options(|o| o.node_limit = limit));
        out.push(Entry::new("errors", format!("too-large-vs-unknown/{limit:?}"), s).may_fail());
    }
    out
}

/// Distributional specs (non-degenerate batches) and point-mass specs
/// (which must collapse to the deterministic run), each drawn under its
/// own seed. Only the layered specs get the 1e-9 bracket slack of the
/// engine's event-horizon rounding; the rest are bracketed exactly.
fn monte_carlo() -> Vec<Entry> {
    let point = |v| Dist::Point { value: v };
    let one = TaskSpec::new("a", 1)
        .phase(Phase::overhead("x", 7.0))
        .dist(0, point(7.0));
    let one = Scenario::new(machines::perlmutter_cpu(), WorkflowSpec::new("p").task(one));
    let mut out = vec![
        Entry::new("mc", "uniform-triangular", dist_scenario()).with_mc(128, 7, 0.0),
        Entry::new("mc", "point-overhead", one).with_mc(64, 9, 0.0),
    ];
    for seed in 0..SEEDS {
        let mut r = Mix(seed ^ 0x6d63);
        let (layers, width) = (1 + r.below(3) as usize, 1 + r.below(3) as usize);
        let (bytes, spread) = (10f64.powf(r.unit(8.0, 11.0)), r.unit(0.05, 0.5));
        let s = layered_mc_scenario(layers, width, bytes, spread);
        let e = Entry::new("mc", format!("layered/{seed}"), s);
        out.push(e.with_mc(24, r.next(), 1e-9));
        let bytes = 10f64.powf(r.unit(8.0, 12.0));
        let mut wf = WorkflowSpec::new("w");
        for i in 0..1 + r.below(7) {
            let t = TaskSpec::new(format!("t{i}"), 2).dist(0, point(bytes));
            wf = wf.task(t.phase(Phase::system_data(ids::FILE_SYSTEM, bytes)));
        }
        let machine =
            Machine::builder("m", 16).system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(5.0));
        let s = Scenario::new(machine.build().expect("valid machine"), wf);
        let e = Entry::new("mc", format!("point-flows/{seed}"), s);
        out.push(e.with_mc(32, r.next(), 0.0));
    }
    out
}

/// Large shapes: skewed fan-in on one hot file-system channel, a deep
/// chain, and a wide external stage-in.
fn shapes() -> Vec<Entry> {
    let fs = ids::FILE_SYSTEM;
    let mut fan_in = WorkflowSpec::new("skewed-fan-in");
    let mut gather = TaskSpec::new("gather", 4).phase(Phase::system_data(fs, 5e10));
    for i in 0..256u32 {
        let produce = Phase::overhead("produce", 1.0 + f64::from(i % 7));
        let write = TaskSpec::new(format!("write{i}"), 1).phase(produce);
        fan_in = fan_in.task(write.phase(Phase::system_data(fs, 4e11 / f64::from(i + 1))));
        gather = gather.after(format!("write{i}"));
    }
    let mut chain = WorkflowSpec::new("deep-chain");
    for i in 0..1200u32 {
        let phase = match i % 3 {
            0 => Phase::overhead("step", 0.5 + f64::from(i % 11) / 8.0),
            1 => Phase::compute(1e12 + f64::from(i) * 1e9),
            _ => flow(fs, 1e9 + f64::from(i) * 1e6, Some(2e9)),
        };
        let t = TaskSpec::new(format!("c{i}"), 1 + u64::from(i % 4)).phase(phase);
        chain = chain.task(if i > 0 {
            t.after(format!("c{}", i - 1))
        } else {
            t
        });
    }
    let mut stage_in = WorkflowSpec::new("wide-stage-in");
    for i in 0..1024u32 {
        let cap = 1e8 * f64::from(1 + i % 5);
        let pull = TaskSpec::new(format!("pull{i}"), 1).phase(flow(
            ids::EXTERNAL,
            2e9 + f64::from(i % 13) * 1e8,
            Some(cap),
        ));
        stage_in = stage_in.task(pull.phase(Phase::compute(5e11)));
    }
    let machine = two_channel_machine(2048, 20.0);
    let shapes = [
        ("skewed-fan-in-256", fan_in.task(gather)),
        ("deep-chain-1200", chain),
        ("wide-stage-in-1024", stage_in),
    ];
    shapes
        .into_iter()
        .map(|(name, wf)| Entry::new("shapes", name, Scenario::new(machine.clone(), wf)))
        .collect()
}
