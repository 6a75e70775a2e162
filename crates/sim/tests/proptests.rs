//! Property-based tests for the simulator's conservation laws and the
//! Monte-Carlo replication engine's percentile invariants. (Agreement
//! between evaluation paths lives in the oracle harness,
//! `wrm_sim::oracle`.)

use proptest::prelude::*;
use wrm_core::{ids, BytesPerSec, Machine};
use wrm_sim::oracle::layered_mc_scenario;
use wrm_sim::{
    max_min_rates, mc_run, simulate, FlowDemand, McOptions, Phase, Scenario, SimOptions, TaskSpec,
    WorkflowSpec,
};

prop_compose! {
    fn flows()(caps in prop::collection::vec(
        prop_oneof![
            0.1f64..1e12,
            Just(f64::INFINITY),
        ],
        1..20,
    )) -> Vec<FlowDemand> {
        caps.into_iter()
            .enumerate()
            .map(|(id, cap)| FlowDemand { id, cap })
            .collect()
    }
}

proptest! {
    #[test]
    fn max_min_is_feasible_and_work_conserving(
        capacity in 0.0f64..1e13,
        flows in flows(),
    ) {
        let rates = max_min_rates(capacity, &flows);
        prop_assert_eq!(rates.len(), flows.len());
        let mut total = 0.0;
        for (r, f) in rates.iter().zip(flows.iter()) {
            // Feasibility: no flow exceeds its cap; no negative rates.
            prop_assert!(r.rate >= 0.0);
            prop_assert!(r.rate <= f.cap * (1.0 + 1e-12) || r.rate <= f.cap + 1e-9);
            total += r.rate;
        }
        // Link feasibility.
        prop_assert!(total <= capacity * (1.0 + 1e-9) + 1e-9);
        // Work conservation: the link saturates unless every flow is at
        // its cap.
        let all_capped = rates
            .iter()
            .zip(flows.iter())
            .all(|(r, f)| f.cap.is_finite() && (r.rate - f.cap).abs() <= 1e-9 * f.cap.max(1.0));
        if !all_capped {
            prop_assert!(
                total >= capacity * (1.0 - 1e-9) - 1e-9,
                "total {} < capacity {}", total, capacity
            );
        }
        // Fairness: uncapped flows all get the same rate.
        let uncapped: Vec<f64> = rates
            .iter()
            .zip(flows.iter())
            .filter(|(_, f)| f.cap.is_infinite())
            .map(|(r, _)| r.rate)
            .collect();
        for w in uncapped.windows(2) {
            prop_assert!((w[0] - w[1]).abs() <= 1e-9 * w[0].max(1.0));
        }
    }

    #[test]
    fn makespan_respects_lower_bounds(
        n_tasks in 1usize..12,
        bytes in 1e6f64..1e13,
        overhead in 0.0f64..100.0,
        capacity_gbps in 0.5f64..1000.0,
    ) {
        let machine = Machine::builder("pool", 64)
            .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(capacity_gbps))
            .build()
            .unwrap();
        let mut wf = WorkflowSpec::new("w");
        for i in 0..n_tasks {
            wf = wf.task(
                TaskSpec::new(format!("t{i}"), 1)
                    .phase(Phase::overhead("setup", overhead))
                    .phase(Phase::system_data(ids::FILE_SYSTEM, bytes)),
            );
        }
        let r = simulate(&Scenario::new(machine, wf)).unwrap();
        // Aggregate-bandwidth bound: all bytes through the channel.
        let channel_bound = n_tasks as f64 * bytes / (capacity_gbps * 1e9);
        // Critical-path bound: one task's serial work at full channel.
        let task_bound = overhead + bytes / (capacity_gbps * 1e9);
        let lower = channel_bound.max(task_bound);
        prop_assert!(
            r.makespan >= lower * (1.0 - 1e-6),
            "makespan {} < bound {}", r.makespan, lower
        );
        // And the fluid model is tight here: overhead phases overlap
        // while flows share the channel fairly, so the makespan cannot
        // exceed overhead + channel time.
        prop_assert!(r.makespan <= (overhead + channel_bound) * (1.0 + 1e-6) + 1e-6);
    }

    #[test]
    fn more_bandwidth_never_hurts(
        n_tasks in 1usize..8,
        bytes in 1e6f64..1e12,
        cap1 in 1.0f64..100.0,
        cap2 in 1.0f64..100.0,
    ) {
        let build = |gbps: f64| {
            let machine = Machine::builder("pool", 64)
                .system(ids::EXTERNAL, "ext", BytesPerSec::gbps(gbps))
                .build()
                .unwrap();
            let mut wf = WorkflowSpec::new("w");
            for i in 0..n_tasks {
                wf = wf.task(
                    TaskSpec::new(format!("t{i}"), 1)
                        .phase(Phase::system_data(ids::EXTERNAL, bytes)),
                );
            }
            simulate(&Scenario::new(machine, wf)).unwrap().makespan
        };
        let slow = build(cap1.min(cap2));
        let fast = build(cap1.max(cap2));
        prop_assert!(fast <= slow * (1.0 + 1e-9));
    }

    #[test]
    fn contention_factor_scales_flow_time(
        bytes in 1e6f64..1e12,
        factor in 0.05f64..1.0,
    ) {
        let machine = Machine::builder("m", 4)
            .system(ids::EXTERNAL, "ext", BytesPerSec::gbps(10.0))
            .build()
            .unwrap();
        let wf = WorkflowSpec::new("w")
            .task(TaskSpec::new("t", 1).phase(Phase::system_data(ids::EXTERNAL, bytes)));
        let base = simulate(&Scenario::new(machine.clone(), wf.clone()))
            .unwrap()
            .makespan;
        let contended = simulate(
            &Scenario::new(machine, wf)
                .with_options(SimOptions::default().with_contention(ids::EXTERNAL, factor)),
        )
        .unwrap()
        .makespan;
        // A single flow slows by exactly 1/factor.
        prop_assert!(
            (contended - base / factor).abs() <= 1e-6 * contended.max(1.0),
            "base {}, contended {}, factor {}", base, contended, factor
        );
    }

    #[test]
    fn simulation_is_deterministic(
        n_tasks in 1usize..8,
        bytes in 1e6f64..1e11,
        seed in any::<u64>(),
    ) {
        let machine = Machine::builder("m", 16)
            .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(5.0))
            .build()
            .unwrap();
        let mut wf = WorkflowSpec::new("w");
        for i in 0..n_tasks {
            wf = wf.task(
                TaskSpec::new(format!("t{i}"), 2)
                    .phase(Phase::overhead("o", (i as f64) + 1.0))
                    .phase(Phase::system_data(ids::FILE_SYSTEM, bytes)),
            );
        }
        let opts = SimOptions {
            jitter: Some(wrm_sim::Jitter { seed, amplitude: 0.2 }),
            ..SimOptions::default()
        };
        let a = simulate(&Scenario::new(machine.clone(), wf.clone()).with_options(opts.clone()))
            .unwrap();
        let b = simulate(&Scenario::new(machine, wf).with_options(opts)).unwrap();
        prop_assert_eq!(a.trace, b.trace);
        prop_assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn every_phase_produces_exactly_one_span(
        n_tasks in 1usize..10,
        n_phases in 1usize..6,
    ) {
        let machine = Machine::builder("m", 32)
            .system(ids::FILE_SYSTEM, "fs", BytesPerSec::gbps(50.0))
            .build()
            .unwrap();
        let mut wf = WorkflowSpec::new("w");
        for i in 0..n_tasks {
            let mut t = TaskSpec::new(format!("t{i}"), 1);
            for p in 0..n_phases {
                t = if p % 2 == 0 {
                    t.phase(Phase::overhead("o", 1.0))
                } else {
                    t.phase(Phase::system_data(ids::FILE_SYSTEM, 1e9))
                };
            }
            wf = wf.task(t);
        }
        let r = simulate(&Scenario::new(machine, wf)).unwrap();
        prop_assert_eq!(r.trace.spans.len(), n_tasks * n_phases);
        // Span times are well-formed and within the makespan.
        for s in &r.trace.spans {
            prop_assert!(s.start >= 0.0);
            prop_assert!(s.end >= s.start);
            prop_assert!(s.end <= r.makespan * (1.0 + 1e-9) + 1e-9);
        }
    }

    #[test]
    fn mc_percentiles_are_ordered(
        layers in 1usize..4,
        width in 1usize..4,
        bytes in 1e8f64..1e11,
        spread in 0.05f64..0.5,
        seed in any::<u64>(),
    ) {
        let scenario = layered_mc_scenario(layers, width, bytes, spread);
        let mc = mc_run(&scenario, &McOptions { reps: 24, seed, threads: 1 }).unwrap();
        prop_assert_eq!(mc.makespans.len(), 24);
        // Percentiles are monotone in q: p50 <= p90 <= p99, each inside
        // its own confidence interval and the sampled range.
        for w in mc.percentiles.windows(2) {
            prop_assert!(w[0].q < w[1].q);
            prop_assert!(w[0].value <= w[1].value);
        }
        for p in &mc.percentiles {
            prop_assert!(p.ci_lo <= p.value && p.value <= p.ci_hi);
            prop_assert!(mc.min <= p.value && p.value <= mc.max);
        }
        prop_assert!(mc.min <= mc.mean && mc.mean <= mc.max);
    }
}
