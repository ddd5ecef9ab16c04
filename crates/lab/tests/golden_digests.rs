//! Golden digests of every checked-in spec's exports.
//!
//! Each spec under `experiments/` (except the `scale/` specs, which take
//! minutes) runs through the `ctlm-lab` binary as
//!
//! ```text
//! ctlm-lab <spec> --no-meta --out report.json --metrics metrics.json --spans spans.json
//! ```
//!
//! and the 64-bit FNV-1a digest of each written file must equal the one
//! recorded in [`GOLDEN`]. Reports, metrics and spans are pure functions
//! of the spec, so the identity tests elsewhere (threads 4 vs 1, spans
//! on vs off, stream vs materialised) only show that two paths agree;
//! these digests show that neither path moved.
//!
//! A change that moves a digest on purpose re-records it here and adds a
//! CHANGES.md line naming the behaviour that moved and why. A digest
//! that moves without such a line is a regression.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(spec file, report, metrics, spans)` digests.
const GOLDEN: &[(&str, &str, &str, &str)] = &[
    (
        "chaos_spillover.json",
        "3e2dc35c61dd71be",
        "a8370681211c9177",
        "442094515c291437",
    ),
    (
        "churn_sweep.json",
        "b36d244a1c631876",
        "827554a57e6519ed",
        "0ecac8b8a3b0dbef",
    ),
    (
        "elastic_burst.json",
        "6c6b63dc69b59035",
        "d959eb9797ec18f1",
        "5731c93fb7b571a7",
    ),
    (
        "fig3_ab.json",
        "55cba51a4d0b3e6c",
        "8aef86475e62da51",
        "2371486c460891f5",
    ),
    (
        "streaming_smoke.json",
        "6bb76c92285cc809",
        "12c13e38c33b607d",
        "ac34d17c6568ca80",
    ),
    (
        "three_cell_spillover.json",
        "58e4b10fb663327f",
        "94067103f10e5ba8",
        "40b82aceca50c52c",
    ),
];

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn experiments_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

#[test]
fn every_checked_in_spec_has_golden_digests() {
    let mut specs: Vec<String> = std::fs::read_dir(experiments_dir())
        .expect("experiments/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    specs.sort();
    let recorded: Vec<&str> = GOLDEN.iter().map(|g| g.0).collect();
    assert_eq!(specs, recorded, "record digests for every spec (sorted)");
}

#[test]
fn exports_match_golden_digests() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_digests");
    std::fs::create_dir_all(&out).expect("temp dir");
    let mut moved = Vec::new();
    for &(spec, report, metrics, spans) in GOLDEN {
        let stem = spec.trim_end_matches(".json");
        let path = |kind: &str| out.join(format!("{stem}.{kind}.json"));
        let run = Command::new(env!("CARGO_BIN_EXE_ctlm-lab"))
            .arg(experiments_dir().join(spec))
            .arg("--no-meta")
            .arg("--out")
            .arg(path("report"))
            .arg("--metrics")
            .arg(path("metrics"))
            .arg("--spans")
            .arg(path("spans"))
            .output()
            .expect("ctlm-lab starts");
        assert!(
            run.status.success(),
            "{spec}: ctlm-lab exited with {}: {}",
            run.status,
            String::from_utf8_lossy(&run.stderr)
        );
        for (kind, want) in [("report", report), ("metrics", metrics), ("spans", spans)] {
            let got = fnv1a(&std::fs::read(path(kind)).expect("export written"));
            if got != want {
                moved.push(format!("{spec} {kind}: {got} != recorded {want}"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "golden digests moved:\n{}",
        moved.join("\n")
    );
}
