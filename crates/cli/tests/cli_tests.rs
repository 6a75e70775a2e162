//! Black-box tests of the `wrm` binary.

use std::path::PathBuf;
use std::process::Command;

fn wrm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wrm"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wrm_cli_{name}"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

const LCLS_WRM: &str = r#"
workflow lcls on cori-hsw {
  targets { makespan 10min  throughput 6 per 600s }
  task analyze[5] {
    nodes 32
    system_bytes ext 1TB cap 1GB/s
    node_bytes dram 1024GB
  }
  task merge { nodes 1 system_bytes bb 5GB after analyze }
}
"#;

#[test]
fn help_and_machines() {
    let out = wrm().output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: wrm"));

    let out = wrm().arg("machines").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Perlmutter GPU (1792 nodes)"));
    assert!(text.contains("Cori Haswell (2388 nodes)"));
    assert!(text.contains("5.6 TB/s"));
}

#[test]
fn analyze_simulate_figures_pipeline() {
    let dir = tmpdir("pipeline");
    let wf_path = dir.join("lcls.wrm");
    std::fs::write(&wf_path, LCLS_WRM).expect("write");

    // analyze --simulate --ascii --svg
    let svg_path = dir.join("lcls.svg");
    let out = wrm()
        .args([
            "analyze",
            wf_path.to_str().expect("utf8"),
            "--simulate",
            "--ascii",
            "--svg",
            svg_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("simulated makespan: 10"), "{text}");
    assert!(text.contains("system-bound on `ext`"), "{text}");
    assert!(text.contains("Advice:"), "{text}");
    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(svg.contains("<svg"));

    // simulate --gantt --jsonl --contention
    let jsonl_path = dir.join("trace.jsonl");
    let out = wrm()
        .args([
            "simulate",
            wf_path.to_str().expect("utf8"),
            "--gantt",
            "--jsonl",
            jsonl_path.to_str().expect("utf8"),
            "--contention",
            "ext=0.2",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("makespan 50"), "bad-day makespan: {text}");
    assert!(text.contains("time breakdown"), "{text}");
    assert!(text.contains("analyze[0]"), "{text}");
    let trace = std::fs::read_to_string(&jsonl_path).expect("jsonl written");
    assert!(trace.lines().count() > 10);

    // figures: one specific figure into the tmp dir.
    let figdir = dir.join("figs");
    let out = wrm()
        .args(["figures", "f4", "--out", figdir.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(figdir.join("fig4_lcls_skeleton.svg").exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_paths_are_reported() {
    // Unknown command.
    let out = wrm().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing file.
    let out = wrm()
        .args(["analyze", "/nonexistent.wrm"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Parse error with position.
    let dir = tmpdir("errors");
    let bad = dir.join("bad.wrm");
    std::fs::write(&bad, "workflow w { task a { nodes } }").expect("write");
    let out = wrm()
        .args([
            "analyze",
            bad.to_str().expect("utf8"),
            "--machine",
            "pm-gpu",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("expected a number"), "{err}");

    // Unknown machine.
    std::fs::write(&bad, "workflow w { task a { } }").expect("write");
    let out = wrm()
        .args([
            "analyze",
            bad.to_str().expect("utf8"),
            "--machine",
            "summit",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown machine"));

    // Unknown figure id.
    let out = wrm().args(["figures", "f99"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown figure id"));

    // Bad flag and bad contention syntax.
    let out = wrm().args(["analyze", "--bogus"]).output().expect("runs");
    assert!(!out.status.success());
    let out = wrm()
        .args(["simulate", "x.wrm", "--contention", "ext"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("res=factor"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_grid_json_and_csv() {
    let dir = tmpdir("sweep");
    let wf_path = dir.join("lcls.wrm");
    std::fs::write(&wf_path, LCLS_WRM).expect("write");

    // CSV to stdout: 2 factors x 2 policies = 4 rows + header, and the
    // halved external bandwidth doubles the makespan.
    let out = wrm()
        .args([
            "sweep",
            wf_path.to_str().expect("utf8"),
            "--resource",
            "ext",
            "--factors",
            "1.0,0.5",
            "--policies",
            "fifo,backfill",
            "--threads",
            "2",
            "--format",
            "csv",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 5, "{text}");
    assert!(
        text.starts_with("workflow,machine,resource,factor,node_limit,policy"),
        "{text}"
    );
    assert!(text.contains(",ext,1,,fifo,1000."), "{text}");
    assert!(text.contains(",ext,0.5,,backfill,2000."), "{text}");

    // JSON to a file, sweeping node limits.
    let json_path = dir.join("sweep.json");
    let out = wrm()
        .args([
            "sweep",
            wf_path.to_str().expect("utf8"),
            "--nodes",
            "64,161",
            "--format",
            "json",
            "--out",
            json_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&json_path).expect("json written");
    assert!(json.trim_start().starts_with('['), "{json}");
    assert_eq!(json.matches("\"makespan_s\"").count(), 2, "{json}");
    assert!(json.contains("\"node_limit\": 64"), "{json}");
    assert!(json.contains("\"error\": null"), "{json}");

    // Builtin workflows resolve by name.
    let out = wrm()
        .args(["sweep", "bgw", "--format", "csv"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("BerkeleyGW"),
        "builtin sweep output"
    );

    // Error paths: unknown workflow name, --factors without --resource.
    let out = wrm().args(["sweep", "nope"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workflow"));
    let out = wrm()
        .args(["sweep", wf_path.to_str().expect("utf8"), "--factors", "0.5"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resource"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn custom_machine_file_end_to_end() {
    let dir = tmpdir("custom");
    let path = dir.join("custom.wrm");
    std::fs::write(
        &path,
        r#"
machine minicluster {
  nodes 16
  node compute 10TFLOPS
  system fs 100GB/s
}
workflow demo on minicluster {
  task work[4] { nodes 2 compute 10TFLOPS eff 0.5 system_bytes fs 100GB }
}
"#,
    )
    .expect("write");
    let out = wrm()
        .args(["simulate", path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("demo on minicluster"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_profile_and_import() {
    let dir = tmpdir("compare");
    let wf_path = dir.join("lcls.wrm");
    std::fs::write(&wf_path, LCLS_WRM).expect("write");

    // compare: a table over all three machines plus required peaks.
    let out = wrm()
        .args(["compare", wf_path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Perlmutter GPU"), "{text}");
    assert!(text.contains("Cori Haswell"), "{text}");
    assert!(text.contains("required peaks"), "{text}");

    // profile: concurrency summary and an SVG.
    let svg_path = dir.join("profile.svg");
    let out = wrm()
        .args([
            "profile",
            wf_path.to_str().expect("utf8"),
            "--svg",
            svg_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("peak concurrency: 5 tasks"), "{text}");
    assert!(text.contains("serial fraction"), "{text}");
    assert!(svg_path.exists());

    // import: CSV timing report -> roofline report.
    let csv_path = dir.join("report.csv");
    std::fs::write(
        &csv_path,
        "analyze0, system_data, 0, 1000, 32, ext, 1e12\n\
         analyze0, node_data, 1000, 1012, 32, dram, 1.024e12\n",
    )
    .expect("write");
    let out = wrm()
        .args([
            "import",
            csv_path.to_str().expect("utf8"),
            "--machine",
            "cori-hsw",
            "--structure",
            "6,5,32",
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("system-bound on `ext`"), "{text}");

    // import without --machine fails clearly.
    let out = wrm()
        .args(["import", csv_path.to_str().expect("utf8")])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--machine"));

    // bad --structure is reported.
    let out = wrm()
        .args([
            "import",
            csv_path.to_str().expect("utf8"),
            "--machine",
            "cori-hsw",
            "--structure",
            "6,5",
        ])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("total,parallel"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn html_report_contains_every_section() {
    let dir = tmpdir("html");
    let wf_path = dir.join("lcls.wrm");
    std::fs::write(&wf_path, LCLS_WRM).expect("write");
    let html_path = dir.join("report.html");
    let out = wrm()
        .args([
            "analyze",
            wf_path.to_str().expect("utf8"),
            "--simulate",
            "--html",
            html_path.to_str().expect("utf8"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let html = std::fs::read_to_string(&html_path).expect("html written");
    assert!(html.starts_with("<!DOCTYPE html>"));
    for section in [
        "Analysis",
        "Workflow Roofline",
        "Skeleton",
        "Gantt chart",
        "Time breakdown",
        "Parallelism profile",
    ] {
        assert!(html.contains(section), "missing section {section}");
    }
    // Inline SVGs, no external assets.
    assert!(html.matches("<svg").count() >= 5);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_output_order_is_deterministic() {
    let dir = tmpdir("sweep_order");
    let wf_path = dir.join("lcls.wrm");
    std::fs::write(&wf_path, LCLS_WRM).expect("write");
    let wf = wf_path.to_str().expect("utf8");

    // The same grid under different thread counts (auto, explicit,
    // above the host core count) and axis input orders must produce
    // byte-identical output: rows are sorted by grid coordinates before
    // serializing.
    let run = |factors: &str, extra: &[&str]| -> String {
        let mut args = vec![
            "sweep",
            wf,
            "--resource",
            "ext",
            "--factors",
            factors,
            "--nodes",
            "161,64",
            "--policies",
            "backfill,fifo",
            "--format",
            "csv",
        ];
        args.extend_from_slice(extra);
        let out = wrm().args(&args).output().expect("runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8 output")
    };

    let golden = run("0.25,0.5,1.0", &["--threads", "1"]);
    // 3 factors x 2 node limits x 2 policies + header.
    assert_eq!(golden.lines().count(), 13, "{golden}");
    // Coordinates ascend: factor major, node limit next, fifo first.
    let second_field = |line: &str, n: usize| line.split(',').nth(n).map(str::to_owned);
    let rows: Vec<&str> = golden.lines().skip(1).collect();
    assert_eq!(second_field(rows[0], 3).as_deref(), Some("0.25"));
    assert_eq!(second_field(rows[0], 4).as_deref(), Some("64"));
    assert_eq!(second_field(rows[0], 5).as_deref(), Some("fifo"));
    assert_eq!(second_field(rows[1], 5).as_deref(), Some("backfill"));
    assert_eq!(second_field(rows[2], 4).as_deref(), Some("161"));
    assert_eq!(second_field(rows[4], 3).as_deref(), Some("0.5"));
    assert_eq!(second_field(rows[12 - 4], 3).as_deref(), Some("1"));

    for (factors, extra) in [
        ("0.25,0.5,1.0", &["--threads", "4"][..]),
        ("1.0,0.25,0.5", &["--threads", "2"][..]),
        ("0.5,1.0,0.25", &["--threads", "0"][..]),
        ("1.0,0.5,0.25", &["--threads", "3"][..]),
        ("0.5,0.25,1.0", &[][..]),
    ] {
        assert_eq!(run(factors, extra), golden, "variant {factors} {extra:?}");
    }

    std::fs::remove_dir_all(&dir).ok();
}
