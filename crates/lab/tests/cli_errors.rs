//! `ctlm-lab` turns bad input into exit status 2 and one stderr line,
//! never a panic and backtrace.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str, text: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_errors");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write input");
    path
}

fn ctlm_lab(args: &[&std::ffi::OsStr]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ctlm-lab"))
        .args(args)
        .output()
        .expect("ctlm-lab starts")
}

/// Exit status 2, and stderr is exactly one `ctlm-lab: …` line.
fn assert_one_line_failure(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one line, got: {stderr}");
    assert!(stderr.starts_with("ctlm-lab: "), "{stderr}");
    stderr
}

const SPEC: &str = r#"{
    "name": "cli_errors",
    "sim": {"cycle": 500000, "attempts_per_cycle": 3,
             "mean_runtime": 5000000, "horizon": 20000000, "seed": 7},
    "schedulers": ["SCHEDULER"],
    "workload": {"Synthetic": {
        "machines": [{"count": 4, "cpu": 1.0, "memory": 1.0}],
        "tasks": 20,
        "arrival": {"Uniform": {"gap": 30000}}
    }}
}"#;

#[test]
fn unknown_scheduler_exits_2_with_one_line() {
    let spec = scratch(
        "unknown.json",
        &SPEC.replace("SCHEDULER", "no_such_scheduler"),
    );
    let out = ctlm_lab(&[spec.as_os_str()]);
    let stderr = assert_one_line_failure(&out);
    assert!(stderr.contains("no_such_scheduler"), "{stderr}");
}

#[test]
fn unreadable_and_invalid_specs_exit_2() {
    let missing = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_errors/missing.json");
    let stderr = assert_one_line_failure(&ctlm_lab(&[missing.as_os_str()]));
    assert!(stderr.contains("cannot read spec"), "{stderr}");
    let broken = scratch("broken.json", "{");
    assert_one_line_failure(&ctlm_lab(&[broken.as_os_str()]));
}

#[test]
fn unwritable_output_exits_2() {
    let spec = scratch("ok.json", &SPEC.replace("SCHEDULER", "main_only"));
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_errors/no/such/dir/report.json");
    let run = ctlm_lab(&[
        spec.as_os_str(),
        "--no-meta".as_ref(),
        "--json".as_ref(),
        "--out".as_ref(),
        out.as_os_str(),
    ]);
    let stderr = assert_one_line_failure(&run);
    assert!(stderr.contains("cannot write"), "{stderr}");
}

#[test]
fn explain_of_a_non_spans_file_exits_2() {
    let not_spans = scratch("not_spans.json", r#"{"name": "a report"}"#);
    let run = ctlm_lab(&["explain".as_ref(), not_spans.as_os_str()]);
    let stderr = assert_one_line_failure(&run);
    assert!(stderr.contains("traceEvents"), "{stderr}");
}

/// Runs `SPEC` (with `main_only`) after replacing `from` by `to`, and
/// asserts a one-line exit-2 rejection that mentions `needle`.
fn assert_spec_rejected(name: &str, from: &str, to: &str, needle: &str) {
    let text = SPEC.replace("SCHEDULER", "main_only");
    assert!(text.contains(from), "template lacks {from:?}");
    let spec = scratch(name, &text.replace(from, to));
    let stderr = assert_one_line_failure(&ctlm_lab(&[spec.as_os_str()]));
    assert!(stderr.contains(needle), "{stderr}");
}

#[test]
fn zero_cycle_exits_2_instead_of_hanging() {
    assert_spec_rejected(
        "cycle0.json",
        r#""cycle": 500000"#,
        r#""cycle": 0"#,
        "sim.cycle",
    );
}

#[test]
fn zero_exponential_mean_exits_2_instead_of_panicking() {
    assert_spec_rejected(
        "exp0.json",
        r#"{"Uniform": {"gap": 30000}}"#,
        r#"{"Exponential": {"mean_gap": 0}}"#,
        "mean_gap",
    );
}

#[test]
fn malformed_pareto_exits_2() {
    for (i, params) in [
        r#""lo": 0.0, "hi": 10.0, "alpha": 1.5"#,
        r#""lo": 5.0, "hi": 1.0, "alpha": 1.5"#,
        r#""lo": 1.0, "hi": 10.0, "alpha": 0.0"#,
    ]
    .into_iter()
    .enumerate()
    {
        assert_spec_rejected(
            &format!("pareto{i}.json"),
            r#"{"Uniform": {"gap": 30000}}"#,
            &format!(r#"{{"Pareto": {{{params}}}}}"#),
            "Pareto",
        );
    }
}

#[test]
fn non_positive_fixed_size_exits_2() {
    assert_spec_rejected(
        "fixed_neg.json",
        r#""tasks": 20,"#,
        r#""tasks": 20, "cpu": {"Fixed": -1.0},"#,
        "task cpu",
    );
}

#[test]
fn non_positive_machine_capacity_exits_2() {
    assert_spec_rejected(
        "mem_neg.json",
        r#""memory": 1.0"#,
        r#""memory": -1.0"#,
        "machine memory",
    );
    assert_spec_rejected("cpu0.json", r#""cpu": 1.0"#, r#""cpu": 0.0"#, "machine cpu");
}
