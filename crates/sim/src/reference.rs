//! The straightforward string-keyed discrete-event engine, kept as a
//! test oracle for the optimized engine in [`crate::engine`].
//!
//! This is the original event loop: per-event queue sort, linear
//! earliest-event scans, and full fair-share recomputation on every
//! event. Flow progress is materialized on rate change (see
//! [`crate::engine`]'s module docs), the same accounting the optimized
//! engine uses. It is compiled only for tests and under the
//! `reference-engine` feature, and [`simulate_reference`] must stay
//! bit-identical to [`crate::simulate`] — makespan, trace spans, and
//! task times are compared exactly by the equivalence proptests below
//! and by the paper-workflow tests in `wrm-workflows`.

use crate::channel::{FlowDemand, Sharing};
use crate::engine::{
    flow_finished, span_kind, time_eps, Scenario, SchedulerPolicy, SimError, SimResult,
};
use crate::spec::{Phase, TaskSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use wrm_core::SystemScaling;
use wrm_trace::{Trace, TraceSpan};

enum Activity {
    /// Fixed-duration phase: ends at a known time.
    Fixed { end: f64 },
    /// A flow on a shared channel. Progress is materialized on rate
    /// change: `remaining` is exact as of `last_set` and untouched until
    /// a fair-share solve assigns a different rate, at which point the
    /// completion time `end` is recomputed once and cached
    /// (`f64::INFINITY` while starved).
    Flow {
        channel: usize,
        remaining: f64,
        cap: f64,
        rate: f64,
        last_set: f64,
        end: f64,
    },
}

struct RunningTask {
    spec_idx: usize,
    phase_idx: usize,
    phase_start: f64,
    activity: Activity,
}

struct Channel {
    capacity: f64,
}

/// Runs the simulation with the original straightforward engine.
#[allow(clippy::too_many_lines)]
pub fn simulate_reference(scenario: &Scenario) -> Result<SimResult, SimError> {
    scenario.workflow.validate()?;
    let machine = &scenario.machine;
    let opts = &scenario.options;
    for (res, f) in &opts.contention {
        if !(f.is_finite() && *f > 0.0) {
            return Err(SimError::InvalidOption(format!(
                "contention factor for {res} must be positive, got {f}"
            )));
        }
    }
    if let Some(j) = &opts.jitter {
        if !(j.amplitude.is_finite() && (0.0..1.0).contains(&j.amplitude)) {
            return Err(SimError::InvalidOption(format!(
                "jitter amplitude must be in [0,1), got {}",
                j.amplitude
            )));
        }
    }
    for bg in &opts.background {
        if bg.rate.is_nan() || bg.rate <= 0.0 {
            return Err(SimError::InvalidOption(format!(
                "background flow on {} must have a positive rate, got {}",
                bg.resource, bg.rate
            )));
        }
        if machine.system_resource(&bg.resource).is_none() {
            return Err(SimError::UnknownResource {
                task: "<background>".into(),
                resource: bg.resource.clone(),
            });
        }
    }

    let pool_total = opts
        .node_limit
        .unwrap_or(machine.total_nodes)
        .min(machine.total_nodes);
    let tasks = &scenario.workflow.tasks;
    for t in tasks {
        if t.nodes > pool_total {
            return Err(SimError::TaskTooLarge {
                task: t.name.clone(),
                needs: t.nodes,
                pool: pool_total,
            });
        }
        // Resolve every referenced resource up front.
        for p in &t.phases {
            match p {
                Phase::Compute { .. } => {
                    if machine.node_resource(wrm_core::ids::COMPUTE).is_none() {
                        return Err(SimError::UnknownResource {
                            task: t.name.clone(),
                            resource: wrm_core::ids::COMPUTE.into(),
                        });
                    }
                }
                Phase::NodeData { resource, .. } => {
                    if machine.node_resource(resource).is_none() {
                        return Err(SimError::UnknownResource {
                            task: t.name.clone(),
                            resource: resource.clone(),
                        });
                    }
                }
                Phase::SystemData { resource, .. } => {
                    if machine.system_resource(resource).is_none() {
                        return Err(SimError::UnknownResource {
                            task: t.name.clone(),
                            resource: resource.clone(),
                        });
                    }
                }
                Phase::Overhead { .. } => {}
            }
        }
    }

    // Channels: one per system resource the machine defines.
    let mut channels: Vec<Channel> = Vec::new();
    let mut channel_idx: BTreeMap<String, usize> = BTreeMap::new();
    for sr in &machine.system_resources {
        let factor = opts.contention.get(sr.id.as_str()).copied().unwrap_or(1.0);
        let capacity = match sr.scaling {
            SystemScaling::Aggregate => sr.peak.get() * factor,
            // The interconnect's backbone: every node can inject at once.
            SystemScaling::PerNodeInUse => sr.peak.get() * machine.total_nodes as f64 * factor,
        };
        channel_idx.insert(sr.id.to_string(), channels.len());
        channels.push(Channel { capacity });
    }

    let mut rng = opts.jitter.map(|j| StdRng::seed_from_u64(j.seed));
    let amplitude = opts.jitter.map_or(0.0, |j| j.amplitude);
    let mut jitter_factor = move || -> f64 {
        match rng.as_mut() {
            Some(r) => 1.0 + amplitude * r.random_range(-1.0..=1.0),
            None => 1.0,
        }
    };

    // Fixed-phase duration for a task on this machine.
    let fixed_duration = |task: &TaskSpec, phase: &Phase| -> Option<f64> {
        match phase {
            Phase::Compute { flops, efficiency } => {
                let peak = machine
                    .node_resource(wrm_core::ids::COMPUTE)
                    .expect("checked above")
                    .peak_per_node
                    .magnitude();
                Some(flops / (peak * task.nodes as f64 * efficiency))
            }
            Phase::NodeData {
                resource,
                bytes,
                efficiency,
            } => {
                let peak = machine
                    .node_resource(resource)
                    .expect("checked above")
                    .peak_per_node
                    .magnitude();
                Some(bytes / (peak * task.nodes as f64 * efficiency))
            }
            Phase::Overhead { seconds, .. } => Some(*seconds),
            Phase::SystemData { .. } => None,
        }
    };

    // Dependency bookkeeping.
    let name_to_idx: BTreeMap<&str, usize> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| (t.name.as_str(), i))
        .collect();
    let mut remaining_deps: Vec<usize> = tasks.iter().map(|t| t.after.len()).collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
    for (i, t) in tasks.iter().enumerate() {
        for dep in &t.after {
            dependents[name_to_idx[dep.as_str()]].push(i);
        }
    }

    let mut queue: Vec<usize> = (0..tasks.len())
        .filter(|&i| remaining_deps[i] == 0)
        .collect();
    let mut running: Vec<RunningTask> = Vec::new();
    let mut free = pool_total;
    let mut now = 0.0f64;
    let mut done = 0usize;
    let mut trace = Trace::new(scenario.workflow.name.clone(), machine.name.clone());
    let mut task_starts: BTreeMap<String, f64> = BTreeMap::new();
    let mut task_ends: BTreeMap<String, f64> = BTreeMap::new();

    // Begins a task's phase `phase_idx` at time `at`, producing the
    // Activity.
    let make_activity = |task: &TaskSpec, phase_idx: usize, jf: f64, at: f64| -> Activity {
        let phase = &task.phases[phase_idx];
        match phase {
            Phase::SystemData {
                resource,
                bytes,
                stream_cap,
            } => {
                let sr = machine.system_resource(resource).expect("checked");
                let factor = opts
                    .contention
                    .get(resource.as_str())
                    .copied()
                    .unwrap_or(1.0);
                // The task's own injection limit: for per-node-scaled
                // resources it is its allocation's aggregate NIC rate.
                let alloc_cap = match sr.scaling {
                    SystemScaling::Aggregate => f64::INFINITY,
                    SystemScaling::PerNodeInUse => sr.peak.get() * task.nodes as f64 * factor,
                };
                let stream = stream_cap.unwrap_or(f64::INFINITY) * factor;
                Activity::Flow {
                    channel: channel_idx[resource.as_str()],
                    remaining: *bytes,
                    cap: alloc_cap.min(stream),
                    rate: 0.0,
                    last_set: at,
                    // A zero-byte flow is finished at birth; everything
                    // else waits for its first rate assignment.
                    end: if flow_finished(*bytes, 0.0, at) {
                        at
                    } else {
                        f64::INFINITY
                    },
                }
            }
            _ => Activity::Fixed {
                end: at + fixed_duration(task, phase).expect("fixed phase") * jf,
            },
        }
    };

    // Background demands per channel (persistent pseudo-flows with ids
    // past the running-task range).
    let mut background_per_channel: Vec<Vec<f64>> = vec![Vec::new(); channels.len()];
    for bg in &opts.background {
        background_per_channel[channel_idx[bg.resource.as_str()]].push(bg.rate);
    }

    // Recomputes all flow rates per channel. A flow whose rate actually
    // changes has its progress materialized (`remaining` brought up to
    // date for the time spent at the old rate) and its completion time
    // recomputed and cached; unchanged rates touch nothing.
    let recompute =
        |running: &mut [RunningTask], channels: &[Channel], sharing: Sharing, now: f64| {
            for (ci, ch) in channels.iter().enumerate() {
                let mut demands: Vec<FlowDemand> = running
                    .iter()
                    .enumerate()
                    .filter_map(|(i, r)| match &r.activity {
                        Activity::Flow { channel, cap, .. } if *channel == ci => {
                            Some(FlowDemand { id: i, cap: *cap })
                        }
                        _ => None,
                    })
                    .collect();
                if demands.is_empty() {
                    continue;
                }
                let first_bg = demands.len();
                for (k, &rate) in background_per_channel[ci].iter().enumerate() {
                    demands.push(FlowDemand {
                        id: usize::MAX - k,
                        cap: rate,
                    });
                }
                let rates = sharing.rates(ch.capacity, &demands);
                for fr in rates.into_iter().take(first_bg) {
                    if let Activity::Flow {
                        remaining,
                        rate,
                        last_set,
                        end,
                        ..
                    } = &mut running[fr.id].activity
                    {
                        if fr.rate != *rate {
                            *remaining = (*remaining - *rate * (now - *last_set)).max(0.0);
                            *last_set = now;
                            *rate = fr.rate;
                            *end = if flow_finished(*remaining, *rate, now) {
                                now
                            } else if *rate > 0.0 {
                                now + *remaining / *rate
                            } else {
                                f64::INFINITY
                            };
                        }
                    }
                }
            }
        };

    loop {
        // Start ready tasks per policy.
        queue.sort_unstable();
        let mut qi = 0;
        while qi < queue.len() {
            let ti = queue[qi];
            let need = tasks[ti].nodes;
            if need <= free {
                free -= need;
                queue.remove(qi);
                task_starts.insert(tasks[ti].name.clone(), now);
                if tasks[ti].phases.is_empty() {
                    // Zero-phase task completes instantly.
                    task_ends.insert(tasks[ti].name.clone(), now);
                    free += need;
                    done += 1;
                    for &d in &dependents[ti] {
                        remaining_deps[d] -= 1;
                        if remaining_deps[d] == 0 {
                            queue.push(d);
                        }
                    }
                    // Restart the scan: new tasks may be ready.
                    qi = 0;
                    continue;
                }
                let jf = jitter_factor();
                running.push(RunningTask {
                    spec_idx: ti,
                    phase_idx: 0,
                    phase_start: now,
                    activity: make_activity(&tasks[ti], 0, jf, now),
                });
            } else if opts.scheduler == SchedulerPolicy::Fifo {
                break; // head blocks
            } else {
                qi += 1; // backfill: try the next
            }
        }
        if done == tasks.len() {
            break;
        }
        if running.is_empty() {
            // Tasks remain but nothing runs and nothing can start.
            debug_assert!(!queue.is_empty() || done < tasks.len());
            return Err(SimError::Stalled { at: now });
        }

        recompute(&mut running, &channels, opts.sharing, now);

        // Earliest completion among running activities (flow ends are
        // cached by `recompute`).
        let mut next = f64::INFINITY;
        for r in &running {
            let t = match &r.activity {
                Activity::Fixed { end } | Activity::Flow { end, .. } => *end,
            };
            next = next.min(t);
        }
        if !next.is_finite() {
            return Err(SimError::Stalled { at: now });
        }
        now = next;

        // Complete activities that finished (within EPS).
        let mut i = 0;
        while i < running.len() {
            let finished = match &running[i].activity {
                Activity::Fixed { end } | Activity::Flow { end, .. } => *end <= now + time_eps(now),
            };
            if !finished {
                i += 1;
                continue;
            }
            let r = running.swap_remove(i);
            let task = &tasks[r.spec_idx];
            let phase = &task.phases[r.phase_idx];
            trace.push(TraceSpan::new(
                task.name.clone(),
                span_kind(phase),
                r.phase_start,
                now,
                task.nodes,
            ));
            let next_phase = r.phase_idx + 1;
            if next_phase < task.phases.len() {
                let jf = jitter_factor();
                running.push(RunningTask {
                    spec_idx: r.spec_idx,
                    phase_idx: next_phase,
                    phase_start: now,
                    activity: make_activity(task, next_phase, jf, now),
                });
                // The pushed activity lands at the end; do not advance i
                // past the element swapped into position i.
            } else {
                task_ends.insert(task.name.clone(), now);
                free += task.nodes;
                done += 1;
                for &d in &dependents[r.spec_idx] {
                    remaining_deps[d] -= 1;
                    if remaining_deps[d] == 0 {
                        queue.push(d);
                    }
                }
            }
        }
    }

    let makespan = trace.makespan();
    let task_times = task_starts
        .iter()
        .filter_map(|(name, start)| task_ends.get(name).map(|end| (name.clone(), end - start)))
        .collect();
    let task_nodes = tasks.iter().map(|t| (t.name.clone(), t.nodes)).collect();
    Ok(SimResult {
        trace,
        makespan,
        task_times,
        task_starts,
        task_nodes,
        pool_nodes: pool_total,
    })
}
