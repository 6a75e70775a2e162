//! The analyzer pass pipeline.
//!
//! [`AnalysisContext::build`] lowers the parsed workflow once (AST ->
//! [`AnalysisIr`], plus the compiled spec and roofline model when the
//! spec is error-free), and [`run`] feeds it to every pass:
//!
//! * [`structure`] — DAG shape: unreachable tasks (E009), redundant
//!   transitive `after` edges (W006);
//! * [`channels`] — shared-bandwidth reasoning: channels that can
//!   never saturate (W007), max-min starvation against the makespan
//!   target (W008);
//! * [`bounds`] — the simulator-exact two-sided certificate: targets
//!   inside the certified interval (W010), provably reducible channel
//!   capacity (W011), channel-independent lower bounds (W012), and
//!   targets infeasible under any channel provisioning (E010);
//! * [`makespan`] — interval abstract interpretation: a certified
//!   critical-path lower bound vs. the declared target (W009,
//!   suppressed when E010 makes the stronger statement).

pub mod bounds;
pub mod channels;
pub mod makespan;
pub mod structure;

use crate::diagnostics::Diagnostic;
use crate::ir::AnalysisIr;
use wrm_core::{Machine, RooflineModel};
use wrm_lang::ast::WorkflowAst;
use wrm_lang::Compiled;
use wrm_sim::Certificate;

/// Everything the passes share, built once per lint run.
pub struct AnalysisContext {
    /// The resolved target machine, when `on <machine>` names one.
    pub machine: Option<Machine>,
    /// The lowered workflow (always available post-parse).
    pub ir: AnalysisIr,
    /// The compiled spec with the fully expanded replica graph. `None`
    /// when the spec has error-severity diagnostics or fails to
    /// compile; semantic passes that need trustworthy structure gate
    /// on this.
    pub compiled: Option<Compiled>,
    /// The workflow's roofline model on `machine`, when it builds.
    pub model: Option<RooflineModel>,
}

impl AnalysisContext {
    /// Lowers `ast` and, when `has_errors` is false, compiles it and
    /// builds the roofline model.
    pub fn build(ast: &WorkflowAst, machine: Option<Machine>, has_errors: bool) -> Self {
        let ir = AnalysisIr::lower(ast, machine.as_ref());
        let compiled = if has_errors {
            None
        } else {
            wrm_lang::compile(ast).ok()
        };
        let model = match (&compiled, &machine) {
            (Some(c), Some(m)) => c
                .characterization()
                .ok()
                .and_then(|wf| RooflineModel::build_lenient(m, &wf).ok()),
            _ => None,
        };
        Self {
            machine,
            ir,
            compiled,
            model,
        }
    }
}

/// Runs every analyzer pass: [`run_errors`], then the warning-only
/// passes, which reuse its certificate.
pub fn run(ast: &WorkflowAst, ctx: &AnalysisContext, out: &mut Vec<Diagnostic>) {
    let (cert, e010_fired) = run_errors(ctx, out);
    structure::redundant_edges(ast, ctx, out);
    channels::unsaturable(ctx, out);
    channels::starved(ctx, out);
    if let Some(cert) = &cert {
        bounds::channel_rules(ctx, cert, out);
    }
    makespan::interval_bound(ctx, out, e010_fired);
}

/// Runs the passes that can emit an error code — E009 and E010 (with
/// its sibling W010) — and nothing else; the lint error gate stops
/// here. Returns the certificate, when the spec has one, and whether
/// E010 fired.
pub(crate) fn run_errors(
    ctx: &AnalysisContext,
    out: &mut Vec<Diagnostic>,
) -> (Option<Certificate>, bool) {
    structure::unreachable_tasks(ctx, out);
    let cert = bounds::certificate(ctx);
    let e010_fired = cert
        .as_ref()
        .is_some_and(|c| bounds::target_interval(ctx, c, out));
    (cert, e010_fired)
}

/// Human-readable bytes/s for diagnostics ("1.50 GB/s").
pub(crate) fn fmt_rate(v: f64) -> String {
    format!("{}/s", fmt_bytes(v))
}

/// Human-readable bytes for diagnostics ("1.00 TB").
pub(crate) fn fmt_bytes(v: f64) -> String {
    if !v.is_finite() {
        return "unbounded B".to_owned();
    }
    const STEPS: &[(f64, &str)] = &[
        (1e15, "PB"),
        (1e12, "TB"),
        (1e9, "GB"),
        (1e6, "MB"),
        (1e3, "KB"),
    ];
    for &(scale, unit) in STEPS {
        if v >= scale {
            return format!("{:.2} {unit}", v / scale);
        }
    }
    format!("{v:.0} B")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_format_with_si_prefixes() {
        assert_eq!(fmt_rate(1.5e9), "1.50 GB/s");
        assert_eq!(fmt_rate(1e12), "1.00 TB/s");
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(2.5e6), "2.50 MB");
        assert_eq!(fmt_bytes(f64::INFINITY), "unbounded B");
    }
}
