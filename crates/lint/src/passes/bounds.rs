//! The certification pass: W010/W011/W012/E010 over the simulator-exact
//! two-sided makespan certificate ([`wrm_sim::certify`]).
//!
//! Where [`super::makespan`] (W009) reasons on the linter's own interval
//! dataflow, this pass certifies against the *simulator's* lowered form:
//! the same validation, the same per-phase semantics, and — new with the
//! certificate — a finite contention-aware upper bound. That buys three
//! kinds of statement the one-sided analysis cannot make:
//!
//! * **W010** — the declared makespan target falls *inside* the
//!   certified interval `[lo, hi)`: neither provably met nor provably
//!   missed. The report carries the full witness decomposition (chain,
//!   channel floors, pool floor, binding strengths) so the reader can
//!   see exactly which term to attack. The rendering is deterministic
//!   byte-for-byte across runs.
//! * **E010** — the target is below the certified lower bound *with
//!   every channel priced at zero*: no channel provisioning, however
//!   generous, can meet it. Strictly stronger than W009, which it
//!   suppresses.
//! * **W011** — an aggregate channel whose capacity can provably be
//!   reduced to the sum of its stream caps without moving either end of
//!   the certified interval: the provisioned headroom is dead. Proved by
//!   re-certifying on the reduced machine, not by heuristics.
//! * **W012** — zeroing every channel leaves the certified lower bound
//!   unchanged: the fixed-phase chain and node-pool occupancy alone
//!   force it, so channel capacity sweeps provably cannot help.

use super::{fmt_rate, AnalysisContext};
use crate::diagnostics::{Diagnostic, Span, SuggestedEdit};
use wrm_sim::{certify, Certificate, SimOptions};

/// Matches the engine-parity tolerance used by W007/W009.
const TOL: f64 = 1e-9;

/// The certificate every rule of this pass reads. `None` without a
/// compiled spec on a machine, and for scenarios the simulator rejects
/// (e.g. unknown resources, already surfaced as W001): those stay quiet.
pub(crate) fn certificate(ctx: &AnalysisContext) -> Option<Certificate> {
    let (machine, compiled) = (ctx.machine.as_ref()?, ctx.compiled.as_ref()?);
    certify(machine, &compiled.spec, &SimOptions::default()).ok()
}

/// W011 and W012, the warning-only rules over `cert`.
pub(crate) fn channel_rules(ctx: &AnalysisContext, cert: &Certificate, out: &mut Vec<Diagnostic>) {
    channel_independent(ctx, cert, out);
    if let (Some(machine), Some(compiled)) = (ctx.machine.as_ref(), ctx.compiled.as_ref()) {
        overprovisioned(ctx, machine, compiled, &SimOptions::default(), cert, out);
    }
}

/// W012: the certified lower bound survives zeroing every channel.
fn channel_independent(ctx: &AnalysisContext, cert: &Certificate, out: &mut Vec<Diagnostic>) {
    let Some(anchor) = first_flow_span(ctx) else {
        return; // no channel traffic: nothing to declare futile
    };
    if !(cert.lo.is_finite() && cert.lo > 0.0) {
        return;
    }
    if cert.lo_zero_channel < cert.lo * (1.0 - TOL) {
        return;
    }
    out.push(
        Diagnostic::warning(
            "W012",
            anchor,
            format!(
                "workflow is node-pool/chain-bound: with every channel infinitely fast the \
                 certified makespan lower bound is still {:.3}s (currently {:.3}s); channel \
                 capacity sweeps provably cannot help",
                cert.lo_zero_channel, cert.lo
            ),
        )
        .with_help(format!(
            "fixed phases force {:.3}s through the dependency chain and {:.3}s through \
             node-pool occupancy ({} nodes); cut compute/overhead volume or add nodes \
             instead of tuning bandwidth",
            cert.lo_zero_channel, cert.pool_floor_fixed, cert.pool_nodes
        )),
    );
}

/// W011: per aggregate channel, all streams capped and the caps sum
/// below capacity — and re-certifying on a machine scaled down to that
/// sum provably leaves both ends of the interval in place.
fn overprovisioned(
    ctx: &AnalysisContext,
    machine: &wrm_core::Machine,
    compiled: &wrm_lang::Compiled,
    options: &SimOptions,
    cert: &Certificate,
    out: &mut Vec<Diagnostic>,
) {
    let ir = &ctx.ir;
    for (ci, ch) in ir.channels.iter().enumerate() {
        if !ch.shared || ch.capacity <= 0.0 || !ch.capacity.is_finite() {
            continue;
        }
        let flows = ir.flows_on(ci);
        if flows.is_empty() || flows.iter().any(|(_, f)| !f.cap.is_finite()) {
            continue;
        }
        let cap_sum: f64 = flows
            .iter()
            .map(|&(ti, f)| f.cap * ir.tasks[ti].concurrent as f64)
            .sum();
        if cap_sum.is_nan() || cap_sum <= 0.0 || cap_sum >= ch.capacity * (1.0 - TOL) {
            continue;
        }
        let Ok(reduced) = machine.with_scaled_resource(&ch.id, cap_sum / ch.capacity) else {
            continue;
        };
        let Ok(again) = certify(&reduced, &compiled.spec, options) else {
            continue;
        };
        let unmoved = |a: f64, b: f64| (a - b).abs() <= a.abs() * TOL;
        if !(unmoved(cert.lo, again.lo) && unmoved(cert.hi, again.hi)) {
            continue;
        }
        let anchor = flows
            .iter()
            .map(|(_, f)| f.span)
            .min()
            .expect("non-empty flows");
        out.push(
            Diagnostic::warning(
                "W011",
                anchor,
                format!(
                    "channel `{}` is over-provisioned: reducing its capacity from {} to {} \
                     provably leaves the certified makespan interval [{:.3}s, {:.3}s] unchanged",
                    ch.id,
                    fmt_rate(ch.capacity),
                    fmt_rate(cap_sum),
                    cert.lo,
                    cert.hi
                ),
            )
            .with_help(format!(
                "every stream on `{}` is capped; the spare {} of bandwidth cannot be used \
                 by this workflow, so budget or procure against {} instead",
                ch.label,
                fmt_rate(ch.capacity - cap_sum),
                fmt_rate(cap_sum)
            )),
        );
    }
}

/// W010/E010 against the declared makespan target. Returns `true` when
/// E010 fired.
pub(crate) fn target_interval(
    ctx: &AnalysisContext,
    cert: &Certificate,
    out: &mut Vec<Diagnostic>,
) -> bool {
    let Some((target, target_span)) = ctx.ir.makespan else {
        return false;
    };
    if target <= 0.0 || target.is_nan() {
        return false;
    }

    // E010: below the zero-channel bound — infeasible under ANY channel
    // provisioning. Strictly stronger than W009's chain bound.
    if cert.lo_zero_channel.is_finite() && target < cert.lo_zero_channel * (1.0 - TOL) {
        let mut diag = Diagnostic::error(
            "E010",
            target_span,
            format!(
                "makespan target {target}s is infeasible under any channel provisioning: \
                 with every channel infinitely fast, fixed phases alone still need {:.3}s",
                cert.lo_zero_channel
            ),
        )
        .with_help(format!(
            "the zero-channel bound is max(fixed-phase chain, node-pool floor {:.3}s); \
             the full certified interval is [{:.3}s, {:.3}s]",
            cert.pool_floor_fixed, cert.lo, cert.hi
        ));
        if target_span.has_range() && cert.lo.is_finite() {
            let raised = format!("{}s", cert.lo.ceil());
            diag = diag.with_fix(SuggestedEdit::replace_span(
                target_span,
                raised.clone(),
                format!("raise the makespan target to {raised}"),
            ));
        }
        out.push(diag);
        return true;
    }

    // W010: inside the certified interval — undetermined. Below `lo` is
    // W009/E010 territory; at or above `hi` the target is certified met
    // and needs no diagnostic.
    if cert.lo.is_finite() && target >= cert.lo * (1.0 - TOL) && target < cert.hi * (1.0 - TOL) {
        let witness = cert.cp_witness.join(" -> ");
        let mut floors: Vec<String> = cert
            .channel_floors
            .iter()
            .map(|c| format!("`{}` {:.3}s", c.resource, c.floor))
            .collect();
        floors.push(format!("node pool {:.3}s", cert.pool_floor));
        let binding: Vec<String> = cert
            .terms
            .iter()
            .filter(|t| t.binds != "no")
            .map(|t| match &t.resource {
                Some(r) => format!("{} `{r}`={}", t.class, t.binds),
                None => format!("{}={}", t.class, t.binds),
            })
            .collect();
        out.push(
            Diagnostic::warning(
                "W010",
                target_span,
                format!(
                    "makespan target {target}s is undetermined: it falls inside the certified \
                     interval [{:.3}s, {:.3}s]",
                    cert.lo, cert.hi
                ),
            )
            .with_help(format!(
                "lower bound {:.3}s = max(chain {} = {:.3}s; floors: {}); upper bound {:.3}s \
                 = min(serial {:.3}s, chain {:.3}s + {:.3} node-s of contended work over \
                 {} nodes); binding terms: {}; raise the target to {:.3}s to certify it, or \
                 tighten the must-binding term",
                cert.lo,
                witness,
                cert.cp_lo,
                floors.join(", "),
                cert.hi,
                cert.serial_hi,
                cert.cp_hi,
                cert.work_hi,
                cert.pool_nodes - cert.max_task_nodes + 1,
                binding.join(", "),
                cert.hi
            )),
        );
    }
    false
}

/// Span of the lexically first `system_bytes` phase in the file.
fn first_flow_span(ctx: &AnalysisContext) -> Option<Span> {
    ctx.ir
        .tasks
        .iter()
        .flat_map(|t| t.flows.iter())
        .filter(|f| f.bytes > 0.0)
        .map(|f| f.span)
        .min()
}
