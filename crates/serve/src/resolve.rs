//! Workflow resolution shared by the CLI and the server: builtin paper
//! workflows by name, or `.wrm` source text through the
//! lint-errors-first compile pipeline.

use wrm_core::machines;
use wrm_sim::Scenario;
use wrm_trace::Structure;
use wrm_workflows::{Bgw, CosmoFlow, Day, GpTune, Lcls, Mode};

/// The builtin workflow names [`builtin_scenario`] accepts.
pub const BUILTINS: [&str; 5] = ["lcls", "bgw", "cosmoflow", "gptune-rci", "gptune-spawn"];

/// Parses and compiles a workflow source, running the error-severity
/// lint subset first so a broken spec fails with spanned diagnostics
/// instead of whatever the compiler trips over first. `path` labels
/// the diagnostics (a file path in the CLI, a client-provided label on
/// the server). The spec is compiled once, inside the gate.
pub fn compile_checked(path: &str, source: &str) -> Result<wrm_lang::Compiled, String> {
    let ast = wrm_lang::parse(source).map_err(|e| format!("{path}:{e}"))?;
    let (errors, compiled) = wrm_lint::lint_gate(&ast);
    if !errors.is_empty() {
        let mut msg = String::new();
        for d in &errors {
            msg.push_str(&format!("{path}: {}\n", d.render(source)));
        }
        msg.push_str(&format!(
            "{} error(s); see `wrm lint {path}` for the full report",
            errors.len()
        ));
        return Err(msg);
    }
    match compiled {
        Some(compiled) => Ok(compiled),
        // A clean gate over a spec that does not compile: compile again
        // for the compiler's own error text.
        None => wrm_lang::compile(&ast).map_err(|e| format!("{path}:{e}")),
    }
}

/// Resolves the machine for a compiled spec: an explicit override wins,
/// then the file's `on <machine>` clause.
pub fn resolve_machine(
    compiled: &wrm_lang::Compiled,
    machine: Option<&str>,
) -> Result<wrm_core::Machine, String> {
    match machine {
        Some(name) => machines::by_name(name)
            .ok_or_else(|| format!("unknown machine `{name}` (try: pm-gpu, pm-cpu, cori-hsw)")),
        None => compiled.machine.clone().ok_or_else(|| {
            "no machine: add `on <machine>` to the file or pass --machine".to_owned()
        }),
    }
}

/// The builtin paper workflows, ready to simulate.
#[must_use]
pub fn builtin_scenario(name: &str) -> Option<Scenario> {
    match name {
        "lcls" => Some(Lcls::year_2020_on_cori().scenario(machines::cori_haswell(), Day::Good)),
        "bgw" => Some(Bgw::si998_64().scenario()),
        "cosmoflow" => Some(CosmoFlow::default().scenario()),
        "gptune-rci" => Some(GpTune::default().scenario(Mode::Rci)),
        "gptune-spawn" => Some(GpTune::default().scenario(Mode::Spawn)),
        _ => None,
    }
}

/// A resolved workflow: the scenario to simulate plus, when it came
/// from compiled source, the DAG structure the roofline
/// characterization needs.
pub struct Resolved {
    /// Machine + workflow + base options.
    pub scenario: Scenario,
    /// Task structure from the compiler (`None` for builtins).
    pub structure: Option<Structure>,
}

/// Resolves `.wrm` source text into a scenario with default options.
pub fn from_source(path: &str, source: &str, machine: Option<&str>) -> Result<Resolved, String> {
    let compiled = compile_checked(path, source)?;
    let machine = resolve_machine(&compiled, machine)?;
    let structure = Structure::new(
        compiled.total_tasks,
        compiled.parallel_tasks,
        compiled.nodes_per_task,
    );
    Ok(Resolved {
        scenario: Scenario::new(machine, compiled.spec),
        structure: Some(structure),
    })
}

/// Resolves a server request's workflow field: an exact builtin name,
/// or `.wrm` source text.
pub fn resolve_request(
    workflow: &str,
    machine: Option<&str>,
    path_label: &str,
) -> Result<Resolved, String> {
    if let Some(scenario) = builtin_scenario(workflow) {
        return Ok(Resolved {
            scenario,
            structure: None,
        });
    }
    from_source(path_label, workflow, machine)
}
