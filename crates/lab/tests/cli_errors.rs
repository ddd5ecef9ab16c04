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
