//! Benchmark of record for `ctlm-lab`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --compare <result-a.json> <result-b.json>
//! perfbench --record-digests
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics: it
//! runs set-up iterations (the workload with its horizon cut to 1 µs)
//! and full iterations, each in a child process of its own so every
//! iteration's peak RSS and allocator high-water are its own, for about
//! `--seconds` of full iterations, and reports each metric's median. A
//! traced run (`--trace 1`) runs untraced baseline iterations and one
//! traced iteration that also splits the run by layer, and reports the
//! per-layer metrics plus the tracing overhead. Every
//! iteration checks its outputs (task conservation, golden digests,
//! thread-count identity); an iteration whose checks fail counts as
//! failed. The last stdout line is the result as one JSON object.

mod digest;
mod layers;
mod pipeline;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use ctlm_lab::memtrack::{self, TrackingAlloc};
use ctlm_lab::report::to_pretty_json;
use ctlm_telemetry::HostFingerprint;
use serde_json::Value;

use crate::layers::{obj, st, Recorder};
use crate::pipeline::{execute, Tweaks};
use crate::workload::{iteration_seed, Workload, WORKLOADS};

/// Counting allocator, so `alloc_peak_mb` reflects each iteration.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

const MB: f64 = 1024.0 * 1024.0;

/// End-to-end metrics (`--trace 0`): name, unit.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("alloc_peak_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name, unit.
const PER_LAYER: [(&str, &str); 39] = [
    ("spec.parse_ms", "ms"),
    ("build.s", "s"),
    ("build.machines_per_s", "1/s"),
    ("build.alloc_mb", "MB"),
    ("train.full_s", "s"),
    ("train.rows_per_s", "1/s"),
    ("train.accuracy", "ratio"),
    ("train.retrain_s", "s"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.wheel_share", "ratio"),
    ("sim.heap_share", "ratio"),
    ("parallel.rounds", "count"),
    ("parallel.shard_run_s", "s"),
    ("parallel.barrier_wait_s", "s"),
    ("parallel.drain_ms", "ms"),
    ("parallel.speedup_t2", "ratio"),
    ("sched.placed", "count"),
    ("sched.no_capacity", "count"),
    ("sched.place_yield", "ratio"),
    ("sched.preempted", "count"),
    ("sched.spill_requests", "count"),
    ("sched.g0_latency_p50_s", "sim_s"),
    ("sched.unplaced_frac", "ratio"),
    ("faults.lost", "count"),
    ("faults.retries", "count"),
    ("faults.dead_lettered", "count"),
    ("autoscale.fleet_peak", "count"),
    ("stream.slab_retired", "count"),
    ("stream.slab_resident", "count"),
    ("obs.spans", "count"),
    ("obs.record_s", "s"),
    ("export.spans_s", "s"),
    ("export.spans_mb", "MB"),
    ("export.metrics_s", "s"),
    ("report.s", "s"),
    ("report.kb", "KB"),
    ("trace.overhead_s", "s"),
];

/// Set-up iterations per untraced run: at least `MIN`, then more while
/// they have taken under a fifth of `--seconds`, at most `MAX`.
const SETUP_ITERATIONS: (usize, usize) = (2, 9);
/// Full iterations per untraced run: at least `MIN`, then more until
/// `--seconds` have passed, at most `MAX`.
const FULL_ITERATIONS: (usize, usize) = (2, 60);
/// Untraced baseline iterations per traced run: at least one, more
/// while they have taken under a quarter of `--seconds`.
const BASELINE_ITERATIONS: (usize, usize) = (1, 9);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// The repository root: the benchmark reads specs and writes outputs
/// only below it.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

fn out_dir(w: &Workload) -> PathBuf {
    root().join(".bench_out").join(w.name)
}

fn option<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = option(args, name).ok_or_else(|| format!("missing {name}"))?;
    v.parse().map_err(|_| format!("{name}: cannot parse {v:?}"))
}

fn dispatch(args: &[String]) -> Result<(), String> {
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err("usage: perfbench --compare <a.json> <b.json>".into());
        };
        return compare(Path::new(a), Path::new(b));
    }
    if args.iter().any(|a| a == "--record-digests") {
        return record_digests();
    }
    let name: String = parse(args, "--workload")?;
    let w = workload::find(&name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {names:?})")
    })?;
    let seed: u64 = parse(args, "--seed")?;
    if let Some(mode) = option(args, "--child") {
        return child(w, seed, mode);
    }
    let seconds: u64 = parse(args, "--seconds")?;
    let trace: u8 = parse(args, "--trace")?;
    let host = HostFingerprint::detect();
    let threads = w.threads;
    eprintln!(
        "perfbench: {} seed {seed} on {}, threads {threads}",
        w.name,
        host.label()
    );
    if threads > host.cores {
        eprintln!(
            "warning: {} runs {threads} threads on {} core(s); wall times are not comparable \
             with a wider host",
            w.name, host.cores
        );
    }
    let result = match trace {
        0 => untraced(w, seed, Duration::from_secs(seconds))?,
        1 => traced_run(w, seed, Duration::from_secs(seconds))?,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let path = out_dir(w).join(format!("result-seed{seed}-trace{trace}.json"));
    let stamped = result.stamped(w, seed, trace, &host, threads);
    std::fs::create_dir_all(out_dir(w)).map_err(|e| e.to_string())?;
    std::fs::write(&path, format!("{}\n", to_pretty_json(&stamped))).map_err(|e| e.to_string())?;
    eprintln!("result written to {}", path.display());
    println!(
        "{}",
        serde_json::to_string(&result.line()).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// A finished run: metric values in declaration order, plus the checks.
struct RunResult {
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: usize,
    failed: usize,
    /// Sim outputs of the run's own seed, stamped into the result file.
    sim: Vec<(&'static str, Value)>,
}

impl RunResult {
    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    fn line(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    obj(vec![("value", Value::Num(*value)), ("unit", st(unit))]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Object(metrics)),
        ])
    }

    /// The line plus what it was measured on, for `--compare`.
    fn stamped(
        &self,
        w: &Workload,
        seed: u64,
        trace: u8,
        host: &HostFingerprint,
        threads: usize,
    ) -> Value {
        let Value::Object(mut fields) = self.line() else {
            unreachable!("line() builds an object")
        };
        fields.extend(
            [
                ("workload", st(w.name)),
                ("seed", Value::Num(seed as f64)),
                ("trace", Value::Num(trace as f64)),
                (
                    "host",
                    obj(vec![
                        ("cpu_model", st(&host.cpu_model)),
                        ("cores", Value::Num(host.cores as f64)),
                    ]),
                ),
                ("threads", Value::Num(threads as f64)),
                ("sim", obj(self.sim.clone())),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v)),
        );
        Value::Object(fields)
    }
}

/// Runs one child iteration and returns its result line, or why the
/// process gave none.
fn run_child(w: &Workload, seed: u64, mode: &str) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--child",
            mode,
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {mode} iteration: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{mode} iteration at seed {seed} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    serde_json::from_str(last)
        .map_err(|e| format!("{mode} iteration at seed {seed}: bad result line: {e}"))
}

/// The failed checks a child reported.
fn child_errors(v: &Value) -> Vec<String> {
    match v.get_field("errors") {
        Value::Array(errors) => errors
            .iter()
            .filter_map(|e| e.as_str().map(String::from))
            .collect(),
        _ => vec!["result line has no errors list".into()],
    }
}

/// One child iteration: its result line, when the process gave one, and
/// every failure — the process's, its own checks', and for full and
/// traced iterations the golden digests'.
fn spawn(w: &Workload, seed: u64, mode: &str) -> (Option<Value>, Vec<String>) {
    let v = match run_child(w, seed, mode) {
        Ok(v) => v,
        Err(e) => return (None, vec![e]),
    };
    let mut errors = child_errors(&v);
    if mode != "setup" {
        match digest::Table::load(&root()) {
            Ok(table) => errors.extend(table.check(w.name, seed, &digests_of(&v))),
            Err(e) => errors.push(e),
        }
    }
    (Some(v), errors)
}

fn digests_of(v: &Value) -> digest::Digests {
    match v.get_field("digests") {
        Value::Object(fields) => fields
            .iter()
            .filter_map(|(k, d)| d.as_str().map(|d| (k.clone(), d.to_string())))
            .collect(),
        _ => Vec::new(),
    }
}

fn field(v: &Value, name: &str) -> f64 {
    v.get_field(name).as_f64().unwrap_or(f64::NAN)
}

/// Runs iterations of `mode` at successive iteration seeds, at least
/// `min` and then while `more(elapsed)` holds, up to `max`.
fn iterate(
    w: &Workload,
    seed: u64,
    mode: &str,
    (min, max): (usize, usize),
    more: impl Fn(Duration) -> bool,
    tally: &mut (usize, usize),
) -> Vec<Value> {
    let start = Instant::now();
    let mut ok = Vec::new();
    let mut i = 0;
    while i < max && (i < min || more(start.elapsed())) {
        tally.0 += 1;
        match spawn(w, iteration_seed(seed, i), mode) {
            (Some(v), errors) if errors.is_empty() => ok.push(v),
            (_, errors) => {
                eprintln!("FAILED: {}", errors.join("; "));
                tally.1 += 1;
            }
        }
        i += 1;
    }
    ok
}

fn untraced(w: &Workload, seed: u64, seconds: Duration) -> Result<RunResult, String> {
    let mut tally = (0, 0);
    let setups = iterate(
        w,
        seed,
        "setup",
        SETUP_ITERATIONS,
        |t| t < seconds / 5,
        &mut tally,
    );
    let fulls = iterate(
        w,
        seed,
        "full",
        FULL_ITERATIONS,
        |t| t < seconds,
        &mut tally,
    );
    let (Some(first), false) = (fulls.first(), setups.is_empty()) else {
        return Err(format!("{}: no iteration succeeded", w.name));
    };
    let column = |vs: &[Value], name: &str| vs.iter().map(|v| field(v, name)).collect::<Vec<_>>();
    let samples = [
        column(&fulls, "wall_s"),
        column(&setups, "wall_s"),
        column(&fulls, "peak_rss_mb"),
        column(&fulls, "alloc_peak_mb"),
    ];
    let mut metrics = Vec::new();
    for ((name, unit), values) in END_TO_END.iter().zip(&samples) {
        let (q1, med, q3) = quartiles(values);
        println!(
            "  {name:<18} {med:>12.4} {unit:<6} (q1 {q1:.4}, q3 {q3:.4}, n={})",
            values.len()
        );
        metrics.push((*name, *unit, med));
    }
    // Sim outputs of the first passing iteration (iteration 0 runs the
    // run's own seed): exact per seed.
    let sim_seed = field(first, "seed");
    let g0 = first.get_field("g0_latency_p50_s").clone();
    let unplaced = first.get_field("unplaced_frac").clone();
    println!(
        "  {:<18} {:>12} sim_s  ({}, seed {sim_seed}; sim output)",
        "g0_latency_p50_s",
        g0.as_f64()
            .map_or("none".to_string(), |v| format!("{v:.4}")),
        w.headline
    );
    println!(
        "  {:<18} {:>12.6} ratio  ({}, seed {sim_seed}; sim output)",
        "unplaced_frac",
        unplaced.as_f64().unwrap_or(f64::NAN),
        w.headline
    );
    println!("  attempted {}, failed {}", tally.0, tally.1);
    Ok(RunResult {
        metrics,
        attempted: tally.0,
        failed: tally.1,
        sim: vec![
            ("seed", Value::Num(sim_seed)),
            ("g0_latency_p50_s", g0),
            ("unplaced_frac", unplaced),
        ],
    })
}

fn traced_run(w: &Workload, seed: u64, seconds: Duration) -> Result<RunResult, String> {
    let mut tally = (0, 0);
    let baseline = iterate(
        w,
        seed,
        "full",
        BASELINE_ITERATIONS,
        |t| t < seconds / 4,
        &mut tally,
    );
    tally.0 += 1;
    let (traced, errors) = spawn(w, seed, "traced");
    if !errors.is_empty() {
        eprintln!("FAILED: {}", errors.join("; "));
        tally.1 += 1;
    }
    let traced = traced.ok_or_else(|| format!("{}: no traced result", w.name))?;
    let walls: Vec<f64> = baseline.iter().map(|b| field(b, "wall_s")).collect();
    if walls.is_empty() {
        return Err(format!("{}: no baseline iteration succeeded", w.name));
    }
    let overhead = field(&traced, "wall_s") - quartiles(&walls).1;
    let mut metrics = Vec::new();
    println!("  {:<26} {:>16}  unit", "layer metric", "value");
    for (name, unit) in PER_LAYER {
        let value = match name {
            "trace.overhead_s" => overhead,
            _ => traced
                .get_field("metrics")
                .get_field(name)
                .as_f64()
                .unwrap_or(f64::NAN),
        };
        println!("  {name:<26} {value:>16.6}  {unit}");
        metrics.push((name, unit, value));
    }
    Ok(RunResult {
        metrics,
        attempted: tally.0,
        failed: tally.1,
        sim: Vec::new(),
    })
}

/// `(q1, median, q3)` of `values` (inclusive method; the median alone
/// for fewer than two values).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// A child iteration: runs in-process and prints one JSON line.
fn child(w: &Workload, seed: u64, mode: &str) -> Result<(), String> {
    let root = root();
    let out = out_dir(w);
    let line = match mode {
        "setup" | "full" => {
            let tweaks = Tweaks {
                setup: mode == "setup",
                ..Tweaks::default()
            };
            let exe = execute(
                w,
                &root,
                seed,
                tweaks,
                &mut Recorder::off(),
                &out.join(mode),
            )?;
            let peak_rss = memtrack::peak_rss_bytes().unwrap_or(0) as f64 / MB;
            let alloc_peak = memtrack::alloc_peak_bytes() as f64 / MB;
            let head = exe.headline(w).ok_or("no headline scheduler run")?;
            obj(vec![
                ("seed", Value::Num(seed as f64)),
                ("wall_s", Value::Num(exe.wall_s)),
                ("peak_rss_mb", Value::Num(peak_rss)),
                ("alloc_peak_mb", Value::Num(alloc_peak)),
                (
                    "g0_latency_p50_s",
                    head.g0_p50_us
                        .map_or(Value::Null, |us| Value::Num(us as f64 / 1e6)),
                ),
                ("unplaced_frac", Value::Num(head.unplaced_frac())),
                ("digests", digests(&exe)),
                ("errors", errors(&exe.errors)),
            ])
        }
        "traced" => {
            let t = traced::run(w, &root, seed, &out.join("traced"))?;
            obj(vec![
                ("seed", Value::Num(seed as f64)),
                ("wall_s", Value::Num(t.wall_s)),
                (
                    "metrics",
                    Value::Object(
                        t.metrics
                            .iter()
                            .map(|(k, v)| (k.to_string(), Value::Num(*v)))
                            .collect(),
                    ),
                ),
                ("digests", digests(&t.main)),
                ("errors", errors(&t.errors)),
            ])
        }
        other => return Err(format!("unknown child mode {other:?}")),
    };
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn digests(exe: &pipeline::Executed) -> Value {
    Value::Object(
        exe.exports
            .iter()
            .map(|e| (e.name.to_string(), st(&digest::fnv1a(e.text.as_bytes()))))
            .collect(),
    )
}

fn errors(errors: &[String]) -> Value {
    Value::Array(errors.iter().map(|e| st(e)).collect())
}

/// Rebuilds `perfbench/digests.json` from full iterations at every
/// recorded seed. Run it when a change moves behaviour on purpose, and
/// say in the change which behaviour moved.
fn record_digests() -> Result<(), String> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let mut seeds: Vec<u64> = digest::RECORDED_SEEDS.collect();
        if !seeds.contains(&w.default_seed) {
            seeds.push(w.default_seed);
        }
        for seed in seeds {
            let v =
                run_child(w, seed, "full").map_err(|e| format!("{} seed {seed}: {e}", w.name))?;
            let errors = child_errors(&v);
            if !errors.is_empty() {
                return Err(format!("{} seed {seed}: {}", w.name, errors.join("; ")));
            }
            eprintln!("{} seed {seed}: {:?}", w.name, digests_of(&v));
            rows.push((w.name.to_string(), seed, digests_of(&v)));
        }
    }
    let path = digest::Table::path(&root());
    std::fs::write(
        &path,
        format!("{}\n", to_pretty_json(&digest::Table::from_rows(&rows))),
    )
    .map_err(|e| e.to_string())?;
    eprintln!("digests written to {}", path.display());
    Ok(())
}

/// Prints metric ratios between two result files, warning when they
/// come from different hosts or thread widths.
fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (va, vb) = (load(a)?, load(b)?);
    let host = |v: &Value| {
        format!(
            "{} ({} cores)",
            v.get_field("host")
                .get_field("cpu_model")
                .as_str()
                .unwrap_or("unknown"),
            field(v.get_field("host"), "cores")
        )
    };
    if host(&va) != host(&vb) {
        eprintln!(
            "warning: results come from different hosts: {} vs {}; ratios mix host and code",
            host(&va),
            host(&vb)
        );
    }
    for v in [&va, &vb] {
        if field(v, "threads") > field(v.get_field("host"), "cores") {
            eprintln!("warning: {} ran more threads than cores", host(v));
        }
    }
    if field(&va, "threads") != field(&vb, "threads") {
        eprintln!("warning: results ran at different thread widths");
    }
    let Value::Object(metrics) = va.get_field("metrics") else {
        return Err(format!("{}: no metrics", a.display()));
    };
    println!("{:<26} {:>14} {:>14} {:>8}", "metric", "a", "b", "b/a");
    for (name, m) in metrics {
        let x = field(m, "value");
        let y = field(vb.get_field("metrics").get_field(name), "value");
        println!("{name:<26} {x:>14.6} {y:>14.6} {:>8.3}", y / x);
    }
    Ok(())
}
