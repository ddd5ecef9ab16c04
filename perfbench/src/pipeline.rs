//! One workload iteration, driven through `ctlm-lab`'s public calls
//! and timed from outside: spec parse and validation, one
//! `run_scheduler_observed` per scheduler, report assembly and the
//! metrics/spans exports — the same sequence `ctlm-lab --no-meta`
//! performs, so the report written here is byte-identical to the CLI's.

use std::path::Path;
use std::time::Instant;

use ctlm_lab::flight::trace_document;
use ctlm_lab::observe::Observations;
use ctlm_lab::report::{summarize, to_pretty_json, CellRun, LabReport, RunReport, SchedulerRun};
use ctlm_lab::run::{run_scheduler_observed, ArrivalMode, CellOutcome};
use ctlm_lab::ExperimentSpec;
use ctlm_sim::ParallelPerf;
use serde_json::Value;

use crate::layers::Recorder;
use crate::workload::Workload;

/// How the spec is altered after parsing, before it runs.
#[derive(Clone, Copy, Default)]
pub struct Tweaks {
    /// Cut `sim.horizon` to 1 µs: parse, build, up-front training and
    /// teardown with no simulated traffic (the `setup_s` measurement).
    pub setup: bool,
    /// Turn `observability.profile` on (per-shard wall-clock profile).
    pub profile: bool,
    /// Override `execution.threads`.
    pub threads: Option<usize>,
    /// Turn every sim-plane recorder off (metrics, trace ring, spans).
    pub recorders_off: bool,
}

impl Tweaks {
    fn apply(&self, spec: &mut ExperimentSpec) {
        if self.setup {
            spec.sim.horizon = 1;
        }
        spec.observability.profile = self.profile;
        if let Some(t) = self.threads {
            spec.execution.threads = t;
        }
        if self.recorders_off {
            spec.observability.metrics = false;
            spec.observability.trace_events = 0;
            spec.observability.spans = false;
        }
    }
}

/// One scheduler's run, reduced to the numbers the benchmark reports.
#[derive(Clone, Debug, Default)]
pub struct SchedSummary {
    pub name: String,
    /// Wall time of the `run_scheduler_observed` call.
    pub run_s: f64,
    pub admitted: u64,
    pub unplaced: u64,
    pub dead_lettered: u64,
    /// Largest per-cell Group-0 p50 latency (µs of simulated time);
    /// `None` when no cell placed a Group-0 task.
    pub g0_p50_us: Option<u64>,
    pub placed: u64,
    pub no_capacity: u64,
    pub infeasible: u64,
    pub preempted: u64,
    pub spill_requests: u64,
    pub events: u64,
    pub pop_wheel: u64,
    pub pop_heap: u64,
    pub faults_lost: u64,
    pub faults_retries: u64,
    pub fleet_peak: u64,
    pub slab_retired: u64,
    pub slab_resident: u64,
    pub spans: u64,
    pub perf: Option<ParallelPerf>,
}

impl SchedSummary {
    fn new(name: &str, run_s: f64, outcomes: &[CellOutcome], perf: Option<ParallelPerf>) -> Self {
        let mut s = SchedSummary {
            name: name.to_string(),
            run_s,
            perf,
            ..Default::default()
        };
        for o in outcomes {
            let st = &o.telemetry.stats;
            let lanes = &o.telemetry.lanes;
            s.admitted += st.admitted_arrivals + st.admitted_dynamic + st.admitted_gang_members;
            s.unplaced += o.result.unplaced as u64;
            s.dead_lettered += o.result.failed_permanently as u64;
            if let Some(g0) = o.result.group0_latency() {
                s.g0_p50_us = Some(s.g0_p50_us.map_or(g0.p50, |m| m.max(g0.p50)));
            }
            s.placed += st.placed + st.placed_with_preemption;
            s.no_capacity += st.no_capacity;
            s.infeasible += st.infeasible;
            s.preempted += o.result.preemptions as u64;
            s.spill_requests += st.spill_requests;
            s.pop_wheel += lanes.pop_wheel;
            s.pop_heap += lanes.pop_heap;
            s.events += lanes.pop_wheel + lanes.pop_sorted + lanes.pop_heap;
            if let Some(f) = &o.telemetry.faults {
                s.faults_lost += f.tasks_lost;
                s.faults_retries += f.retries_scheduled;
            }
            if let Some(a) = &o.autoscale {
                s.fleet_peak = s.fleet_peak.max(a.peak_active() as u64);
            }
            s.slab_retired += o.telemetry.slab_retired;
            s.slab_resident += o.telemetry.slab_resident as u64;
            s.spans += o.telemetry.spans.as_ref().map_or(0, |l| l.len() as u64);
        }
        s
    }

    /// `(unplaced + dead-lettered) / admitted`.
    pub fn unplaced_frac(&self) -> f64 {
        if self.admitted == 0 {
            return 0.0;
        }
        (self.unplaced + self.dead_lettered) as f64 / self.admitted as f64
    }

    fn span_args(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("scheduler", Value::Str(self.name.clone())),
            ("admitted", num(self.admitted)),
            ("placed", num(self.placed)),
            ("no_capacity", num(self.no_capacity)),
            ("events", num(self.events)),
            ("spans", num(self.spans)),
        ]
    }
}

/// Task conservation per cell — the identity the fault plane asserts:
/// every admitted task ends placed, unplaced or dead-lettered (a
/// dead-lettered task keeps the placed record of the run it lost, so
/// `admitted == placed + unplaced` with `dead-lettered <= placed`), and
/// every crash loss was retried or dead-lettered.
fn conservation(sched: &str, outcomes: &[CellOutcome]) -> Vec<String> {
    let mut errors = Vec::new();
    for o in outcomes {
        let st = &o.telemetry.stats;
        let admitted = st.admitted_arrivals + st.admitted_dynamic + st.admitted_gang_members;
        let placed = o.result.placed.len() as u64;
        let unplaced = o.result.unplaced as u64;
        let dead = o.result.failed_permanently as u64;
        let cell = format!("{sched}.{}", o.cell);
        if admitted != placed + unplaced {
            errors.push(format!(
                "{cell}: admitted {admitted} != placed {placed} + unplaced {unplaced}"
            ));
        }
        if dead > placed {
            errors.push(format!("{cell}: dead-lettered {dead} > placed {placed}"));
        }
        if let Some(f) = &o.telemetry.faults {
            if f.dead_lettered != dead {
                errors.push(format!(
                    "{cell}: fault stats dead-lettered {} != result {dead}",
                    f.dead_lettered
                ));
            }
            if f.retries_scheduled + f.dead_lettered < f.tasks_lost {
                errors.push(format!(
                    "{cell}: lost {} > retried {} + dead-lettered {}",
                    f.tasks_lost, f.retries_scheduled, f.dead_lettered
                ));
            }
        }
    }
    errors
}

/// An export written by the iteration: its name, the time spent
/// rendering and writing it, and its bytes (kept for the digest, which
/// is taken after the clock stops).
pub struct Export {
    pub name: &'static str,
    pub seconds: f64,
    pub text: String,
}

/// What one iteration measured and checked.
pub struct Executed {
    /// Spec read to last export written.
    pub wall_s: f64,
    pub parse_s: f64,
    pub schedulers: Vec<SchedSummary>,
    /// Report first, then the metrics and spans exports when the spec
    /// turned those recorders on.
    pub exports: Vec<Export>,
    /// Failed output checks.
    pub errors: Vec<String>,
}

impl Executed {
    /// The headline scheduler's summary.
    pub fn headline(&self, w: &Workload) -> Option<&SchedSummary> {
        self.schedulers.iter().find(|s| s.name == w.headline)
    }

    pub fn export(&self, name: &str) -> Option<&Export> {
        self.exports.iter().find(|e| e.name == name)
    }
}

/// Runs one iteration of `w` at `seed`, writing the report and exports
/// under `out`.
pub fn execute(
    w: &Workload,
    root: &Path,
    seed: u64,
    tweaks: Tweaks,
    rec: &mut Recorder,
    out: &Path,
) -> Result<Executed, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let t0 = Instant::now();
    let run = rec.begin("run", None);
    let span = rec.begin("lab.spec", Some(run));
    let mut spec = w.parse(&w.spec_text(root)?, seed)?;
    tweaks.apply(&mut spec);
    let parse_s = t0.elapsed().as_secs_f64();
    rec.end(span, vec![("cells", num(spec.cell_specs().len() as u64))]);

    let threads = spec.execution.threads.max(1);
    let mut obs = Observations::default();
    let mut runs = Vec::new();
    let mut schedulers = Vec::new();
    let mut errors = Vec::new();
    for name in spec.scheduler_names() {
        let span = rec.begin("sim", Some(run));
        let t = Instant::now();
        let (outcomes, perf) = run_scheduler_observed(&spec, &name, ArrivalMode::Streaming)
            .map_err(|e| e.to_string())?;
        let summary = SchedSummary::new(&name, t.elapsed().as_secs_f64(), &outcomes, perf.clone());
        errors.extend(conservation(&name, &outcomes));
        obs.record_run(&name, &outcomes, perf.as_ref(), threads);
        runs.push(SchedulerRun {
            scheduler: name,
            cells: outcomes.iter().map(CellRun::from_outcome).collect(),
        });
        rec.end(span, summary.span_args());
        schedulers.push(summary);
    }

    let mut exports = Vec::new();
    let span = rec.begin("lab.report", Some(run));
    let t = Instant::now();
    let runs = vec![RunReport {
        knobs: Vec::new(),
        seed: spec.sim.seed,
        repeat: 0,
        schedulers: runs,
    }];
    let summary = summarize(&runs);
    let report = LabReport {
        name: spec.name.clone(),
        runs,
        summary,
        _meta: None,
    };
    exports.push(write_export("report", &report, out, t)?);
    rec.end(span, vec![("bytes", num(exports[0].text.len() as u64))]);
    if spec.observability.metrics {
        let span = rec.begin("lab.observe", Some(run));
        let t = Instant::now();
        exports.push(write_export("metrics", &metrics_document(&obs), out, t)?);
        rec.end(
            span,
            vec![(
                "bytes",
                num(exports.last().map_or(0, |e| e.text.len()) as u64),
            )],
        );
    }
    if spec.observability.spans {
        let span = rec.begin("lab.flight", Some(run));
        let t = Instant::now();
        exports.push(write_export("spans", &trace_document(&obs, false), out, t)?);
        rec.end(
            span,
            vec![(
                "bytes",
                num(exports.last().map_or(0, |e| e.text.len()) as u64),
            )],
        );
    }
    let wall_s = t0.elapsed().as_secs_f64();
    rec.end(run, vec![("seed", num(seed))]);
    Ok(Executed {
        wall_s,
        parse_s,
        schedulers,
        exports,
        errors,
    })
}

/// Renders `value` as `ctlm-lab` does (pretty JSON plus a newline) and
/// writes it to `<out>/<name>.json`; `t` is when rendering started.
fn write_export<T: serde::Serialize + ?Sized>(
    name: &'static str,
    value: &T,
    out: &Path,
    t: Instant,
) -> Result<Export, String> {
    let text = format!("{}\n", to_pretty_json(value));
    let path = out.join(format!("{name}.json"));
    std::fs::write(&path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(Export {
        name,
        seconds: t.elapsed().as_secs_f64(),
        text,
    })
}

/// The document `ctlm-lab --metrics` writes: a schema stamp, the
/// registry, and the per-cell event traces sorted by key.
fn metrics_document(obs: &Observations) -> Value {
    let mut fields = vec![
        (
            "schema_version".to_string(),
            Value::Num(ctlm_telemetry::SCHEMA_VERSION as f64),
        ),
        (
            "metrics".to_string(),
            serde::Serialize::to_value(&obs.metrics),
        ),
    ];
    if !obs.traces.is_empty() {
        let mut traces: Vec<_> = obs.traces.iter().collect();
        traces.sort_by(|(a, _), (b, _)| a.cmp(b));
        fields.push((
            "traces".to_string(),
            Value::Object(
                traces
                    .into_iter()
                    .map(|(k, ring)| (k.clone(), serde::Serialize::to_value(ring)))
                    .collect(),
            ),
        ));
    }
    Value::Object(fields)
}

pub fn num(n: u64) -> Value {
    Value::Num(n as f64)
}
