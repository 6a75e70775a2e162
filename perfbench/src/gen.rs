//! Seeded input generators: `.wrm` sources, request popularity, and the
//! open-loop arrival schedule. Everything here is a pure function of
//! its seed.

use std::fmt::Write as _;

/// splitmix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Arrival offsets (seconds from the phase start) of a Poisson process
/// at `rate` per second, up to `duration` seconds.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

/// Zipf popularity over `n` items with exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Tasks in layers of the given widths, named `t<index>`: each task
/// of a layer after the first depends on one to three tasks of the
/// layer before, takes 1..=`max_nodes` nodes, and runs for up to
/// `max_duration` seconds. Fixed widths keep a spec's cost a function
/// of its shape; the seed draws durations, node counts and
/// dependencies.
pub fn layered(
    seed: u64,
    widths: impl IntoIterator<Item = usize>,
    max_nodes: u64,
    max_duration: f64,
) -> Vec<wrm_dag::generate::GeneratedTask> {
    let mut rng = Rng::new(seed);
    let mut tasks = Vec::new();
    let mut prev = 0..0;
    for width in widths {
        let start = tasks.len();
        for _ in 0..width {
            let mut deps = Vec::new();
            if !prev.is_empty() {
                for _ in 0..1 + rng.below(3) {
                    let d = prev.start + rng.below(prev.len());
                    if !deps.contains(&d) {
                        deps.push(d);
                    }
                }
            }
            tasks.push(wrm_dag::generate::GeneratedTask {
                name: format!("t{}", tasks.len()),
                nodes: 1 + rng.next_u64() % max_nodes,
                duration: rng.unit() * max_duration,
                deps,
            });
        }
        prev = start..tasks.len();
    }
    tasks
}

/// Repeated fork-join rounds of `n_tasks` tasks in all: a one-node
/// fork, `width` workers gated on it, and a one-node join gated on
/// every worker; each round's fork waits for the previous join. Wide
/// barriers land all of a round's completions on one instant.
pub fn fork_join(
    seed: u64,
    n_tasks: usize,
    width: usize,
    max_nodes: u64,
    max_duration: f64,
) -> Vec<wrm_dag::generate::GeneratedTask> {
    let mut rng = Rng::new(seed);
    let mut tasks: Vec<wrm_dag::generate::GeneratedTask> = Vec::with_capacity(n_tasks);
    let push = |tasks: &mut Vec<_>, rng: &mut Rng, nodes: u64, deps: Vec<usize>| {
        tasks.push(wrm_dag::generate::GeneratedTask {
            name: format!("t{}", tasks.len()),
            nodes,
            duration: rng.unit() * max_duration,
            deps,
        });
        tasks.len() - 1
    };
    let mut join = None;
    while tasks.len() < n_tasks {
        let fork = push(&mut tasks, &mut rng, 1, join.into_iter().collect());
        let workers = width.min(n_tasks - tasks.len());
        let mut ids = Vec::with_capacity(workers);
        for _ in 0..workers {
            let nodes = 1 + rng.next_u64() % max_nodes;
            ids.push(push(&mut tasks, &mut rng, nodes, vec![fork]));
        }
        if tasks.len() < n_tasks {
            join = Some(push(&mut tasks, &mut rng, 1, ids));
        }
    }
    tasks
}

/// Writes one task per generated record as `.wrm` source: its node
/// count, the phases `phases` writes, and one `after` per dependency.
fn write_tasks(
    src: &mut String,
    tasks: &[wrm_dag::generate::GeneratedTask],
    mut phases: impl FnMut(&mut String, usize, f64),
) {
    for (i, t) in tasks.iter().enumerate() {
        let _ = write!(src, "  task t{i} {{ nodes {}", t.nodes);
        // The language rejects zero durations; the generator can draw 0.
        phases(src, i, t.duration.max(1e-3));
        for &p in &t.deps {
            let _ = write!(src, " after t{p}");
        }
        src.push_str(" }\n");
    }
}

/// The what-if sweep input: a `wrm_bench::sweep_scenario`-style
/// pipeline (1000 layered tasks, each with four sequential 0.5 GB/s
/// capped reads from a 1 TB/s file system) feeding a 16-task chained
/// archive stage over a 10 GB/s external link, drawn from `seed`. The
/// layer widths are fixed, so every seed sees the same node-pool
/// pressure and the sweep's path mix hardly moves between seeds.
pub fn sweep_source(seed: u64) -> String {
    let tasks = layered(seed, [100, 800, 100], 2, 20.0);
    let mut src = String::from(
        "machine bench-sweep {\n  nodes 4096\n  system fs 1000GB/s\n  system ext 10GB/s\n}\n\
         workflow sweep on bench-sweep {\n",
    );
    // Every phase lasts a whole number of 1/64 s (a read of `s` seconds
    // moves s * 5e8 bytes at its 0.5 GB/s cap), so event times are exact
    // sums and distinct ones lie at least 1/64 s apart. The analytic fast
    // path leaves a point to the DES when two distinct event times fall
    // within its rounding tolerance; with unrounded durations seed 1 lost
    // the fast path in every column (0 fast-path, 480 replayed, 32 cold
    // cells) and its sweep took 40% longer.
    let grid = |secs: f64| (secs * 64.0).ceil() / 64.0;
    write_tasks(&mut src, &tasks, |src, _, d| {
        let _ = write!(src, " overhead work {:.6}s", grid(d));
        for j in 1..=4u32 {
            let bytes = grid((1.0 + d) / f64::from(j)) * 5e8;
            let _ = write!(src, " system_bytes fs {bytes:.0}B cap 0.5GB/s");
        }
    });
    let _ = writeln!(
        src,
        "  task archive[16] chain {{ nodes 1 overhead stage 2s \
         system_bytes ext 20GB cap 0.5GB/s after t{} }}\n}}",
        tasks.len() - 1
    );
    src
}

/// One mid-size spec of the server's source pool: `n_tasks` tasks in
/// layers 32 wide on a 1024-node machine, every task reading from a
/// shared file system and every eighth one also pushing data over a
/// capped external link.
pub fn pool_source(seed: u64, n_tasks: usize) -> String {
    let widths = (0..n_tasks).step_by(32).map(|i| (n_tasks - i).min(32));
    let tasks = layered(seed, widths, 4, 30.0);
    let mut src = format!(
        "machine pool-m {{\n  nodes 1024\n  system fs 200GB/s\n  system ext 5GB/s\n}}\n\
         workflow pool{seed} on pool-m {{\n"
    );
    write_tasks(&mut src, &tasks, |src, i, d| {
        let _ = write!(
            src,
            " overhead work {d:.6}s system_bytes fs {:.0}B",
            (1.0 + d) * 4e9
        );
        if i % 8 == 0 {
            let _ = write!(src, " system_bytes ext {:.0}B cap 1GB/s", (1.0 + d) * 1e9);
        }
    });
    src.push_str("}\n");
    src
}

/// The Monte-Carlo input, `wrm_bench::mc_scenario`-style: 10 000
/// tasks in ten layers of 1000 on an 8192-node machine, each task's
/// duration drawn from a distribution (uniform, lognormal, triangular,
/// empirical in turn) and every 64th task also streaming a uniformly
/// distributed volume over one shared 50 GB/s channel under a cap.
pub fn mc_source(seed: u64) -> String {
    let tasks = layered(seed, [1000; 10], 2, 20.0);
    let mut src = String::from(
        "machine bench-mc {\n  nodes 8192\n  system ch0 50GB/s\n}\nworkflow mc on bench-mc {\n",
    );
    write_tasks(&mut src, &tasks, |src, i, d| {
        let _ = match i % 4 {
            0 => write!(
                src,
                " overhead work uniform({:.6}s, {:.6}s)",
                0.8 * d,
                1.2 * d
            ),
            1 => write!(src, " overhead work lognormal({d:.6}s, 0.25)"),
            2 => write!(
                src,
                " overhead work triangular({:.6}s, {d:.6}s, {:.6}s)",
                0.7 * d,
                1.6 * d
            ),
            _ => write!(
                src,
                " overhead work empirical({:.6}s 1, {d:.6}s 2, {:.6}s 1)",
                0.9 * d,
                1.3 * d
            ),
        };
        if i % 64 == 0 {
            let bytes = (1.0 + d) * 2e9;
            let (lo, hi) = (0.8 * bytes, 1.2 * bytes);
            let _ = write!(
                src,
                " system_bytes ch0 uniform({lo:.0}B, {hi:.0}B) cap 5GB/s"
            );
        }
    });
    src.push_str("}\n");
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(&mut Rng::new(5), 40.0, 10.0);
        let b = poisson_schedule(&mut Rng::new(5), 40.0, 10.0);
        let c = poisson_schedule(&mut Rng::new(6), 40.0, 10.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        // About rate x duration arrivals (400 +- 4 sigma).
        assert!((320..=480).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn zipf_prefers_low_ranks_and_covers_all() {
        let z = Zipf::new(8, 1.0);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 8];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn generated_sources_compile() {
        for src in [sweep_source(3), pool_source(3, 200), mc_source(3)] {
            let ast = wrm_lang::parse(&src).expect("parses");
            assert!(wrm_lint::lint_errors(&ast).is_empty());
            wrm_lang::compile(&ast).expect("compiles");
        }
        assert_eq!(sweep_source(9), sweep_source(9));
        let fj = fork_join(1, 1000, 100, 2, 1.0);
        assert_eq!(fj.len(), 1000);
        assert!(fj
            .iter()
            .enumerate()
            .all(|(i, t)| t.deps.iter().all(|&d| d < i)));
        assert_ne!(sweep_source(9), sweep_source(10));
    }
}
