//! Per-grid-point deltas over a shared [`BaseIndex`].
//!
//! An [`IndexOverlay`] is everything about a scenario that the sweep
//! knobs can change: the usable node pool (`node_limit`), the
//! contention-scaled channel capacities and cap factors, and background
//! demands. Building one is `O(channels + background + log tasks)` —
//! against the `O(workflow)` cost of a full index build — which is what
//! makes a 4,096-point sweep do one base build instead of 4,096.
//!
//! Validation here reproduces the reference engine's error *order*
//! exactly (option checks first, then one forward scan over tasks that
//! interleaves `TaskTooLarge` with `UnknownResource`): the base records
//! the first resource error and a prefix-maximum of node counts, and
//! [`IndexOverlay::build`] picks whichever error the reference scan
//! would have hit first for this point's pool.

use crate::engine::{SimError, SimOptions};
use crate::index::BaseIndex;
use crate::spec::WorkflowSpec;

/// The option-dependent part of a lowered scenario. Cheap to build per
/// sweep point; the engine reads capacities and cap factors through it.
#[derive(Debug, Clone)]
pub(crate) struct IndexOverlay {
    /// Usable node pool (node_limit-capped machine total).
    pub pool_total: u64,
    /// Effective capacity per channel (contention-scaled).
    pub channel_capacity: Vec<f64>,
    /// Contention factor per channel (applied to flow caps at spawn).
    pub channel_factor: Vec<f64>,
    /// Background demand rates per channel.
    pub background: Vec<Vec<f64>>,
}

impl IndexOverlay {
    /// Validates the option-dependent parts of a scenario against a
    /// prebuilt base and lowers them. Error kinds and ordering mirror
    /// the reference engine exactly.
    pub(crate) fn build(
        base: &BaseIndex,
        workflow: &WorkflowSpec,
        opts: &SimOptions,
    ) -> Result<Self, SimError> {
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
            if !base.channel_idx.contains_key(&bg.resource) {
                return Err(SimError::UnknownResource {
                    task: "<background>".into(),
                    resource: bg.resource.clone(),
                });
            }
        }

        let pool_total = opts
            .node_limit
            .unwrap_or(base.total_nodes)
            .min(base.total_nodes);

        // The reference scans tasks forward, checking TaskTooLarge
        // before that task's resource references. The first too-large
        // task is the first index whose nodes prefix-maximum exceeds the
        // pool; it wins over a recorded resource error at the same or a
        // later task index (the reference checks size first per task).
        let k = base.nodes_prefix_max.partition_point(|&m| m <= pool_total);
        let too_large = (k < base.nodes_prefix_max.len()).then_some(k);
        match (too_large, &base.first_resource_error) {
            (Some(tl), Some((ri, e))) if tl > *ri => return Err(e.clone()),
            (Some(tl), _) => {
                return Err(SimError::TaskTooLarge {
                    task: workflow.tasks[tl].name.clone(),
                    needs: base.nodes[tl],
                    pool: pool_total,
                });
            }
            (None, Some((_, e))) => return Err(e.clone()),
            (None, None) => {}
        }

        let mut channel_capacity = Vec::with_capacity(base.capacity_base.len());
        let mut channel_factor = Vec::with_capacity(base.capacity_base.len());
        for (ci, id) in base.channel_ids.iter().enumerate() {
            let factor = opts.contention.get(id.as_str()).copied().unwrap_or(1.0);
            channel_factor.push(factor);
            channel_capacity.push(base.capacity_base[ci] * factor);
        }

        let mut background = vec![Vec::new(); base.capacity_base.len()];
        for bg in &opts.background {
            background[base.channel_idx[bg.resource.as_str()] as usize].push(bg.rate);
        }

        Ok(IndexOverlay {
            pool_total,
            channel_capacity,
            channel_factor,
            background,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::IndexOverlay;
    use crate::engine::{SimError, SimOptions};
    use crate::index::BaseIndex;
    use crate::spec::{Phase, TaskSpec, WorkflowSpec};
    use wrm_core::machines;

    /// A task referencing an unknown resource loses to an *earlier*
    /// too-large task and wins over a *later* one, per the reference's
    /// forward scan; node_limit decides which. (The oracle corpus checks
    /// both cases against the reference engine.)
    #[test]
    fn too_large_vs_unknown_resource_ordering() {
        let machine = machines::cori_haswell();
        let wf = WorkflowSpec::new("order")
            .task(TaskSpec::new("big", 32).phase(Phase::overhead("o", 1.0)))
            .task(TaskSpec::new("bad", 1).phase(Phase::system_data("nope", 1e9)));
        let base = BaseIndex::build(&machine, &wf).expect("spec-valid workflow");
        // Pool below 32: `big` (task 0) is too large and is reported.
        let tight = SimOptions {
            node_limit: Some(16),
            ..SimOptions::default()
        };
        let err = IndexOverlay::build(&base, &wf, &tight).unwrap_err();
        assert!(matches!(err, SimError::TaskTooLarge { .. }), "{err:?}");
        // Pool fits `big`: the scan reaches `bad` first.
        let loose = SimOptions::default();
        let err = IndexOverlay::build(&base, &wf, &loose).unwrap_err();
        assert!(matches!(err, SimError::UnknownResource { .. }), "{err:?}");
    }
}
