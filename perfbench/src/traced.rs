//! The traced run: the same pipeline with layer spans on, plus the
//! sibling passes that split it by layer — a `build_cell` +
//! `build_scheduler` pass per scheduler (so `sim.run_s` can be taken as
//! the run minus its set-up), the up-front training alone (time, rate,
//! in-sample accuracy), a rerun of multi-cell workloads at the other
//! thread width (byte identity and `parallel.speedup_t2`), and a recorders-off rerun when
//! the spec records (`obs.record_s`).

use std::path::Path;
use std::time::Instant;

use ctlm_data::encode::co_vv::CoVvEncoder;
use ctlm_lab::build::{build_cell, BuiltCell};
use ctlm_lab::memtrack;
use ctlm_lab::registry::{build_scheduler, train_analyzer};
use ctlm_lab::report::to_pretty_json;
use ctlm_lab::spec::WorkloadSpec;
use ctlm_tensor::CsrBuilder;

use crate::layers::Recorder;
use crate::pipeline::{execute, num, Executed, Tweaks};
use crate::workload::Workload;

const MB: f64 = 1024.0 * 1024.0;

/// What the traced run measured.
pub struct Traced {
    /// Wall time of the traced pipeline (the untraced sequence with
    /// spans and the shard profile on).
    pub wall_s: f64,
    /// Per-layer metrics by name (`trace.overhead_s` is left to the
    /// caller, which holds the untraced baseline).
    pub metrics: Vec<(&'static str, f64)>,
    /// The traced pipeline, for its digests.
    pub main: Executed,
    /// Failed output checks beyond the pipeline's own.
    pub errors: Vec<String>,
}

/// Set-up cost of one scheduler, measured beside its run.
struct Sibling {
    scheduler: String,
    build_s: f64,
    registry_s: f64,
}

/// Up-front training, measured alone.
struct Training {
    seconds: f64,
    rows: usize,
    accuracy: f64,
}

pub fn run(w: &Workload, root: &Path, seed: u64, out: &Path) -> Result<Traced, String> {
    let mut rec = Recorder::on(format!("{}-seed{seed}", w.name));
    let spec = w.parse(&w.spec_text(root)?, seed)?;
    let mut names = spec.scheduler_names();
    // Headline first, so the build's allocator high-water is its own.
    names.sort_by_key(|n| n != w.headline);

    let sib = rec.begin("sibling", None);
    let alloc_before = memtrack::alloc_peak_bytes();
    let mut siblings = Vec::new();
    let mut build = (0.0, 0u64, 0.0);
    let mut training: Option<Training> = None;
    for name in &names {
        let span = rec.begin("lab.build", Some(sib));
        let t = Instant::now();
        let cells: Vec<BuiltCell> = spec
            .cell_specs()
            .iter()
            .enumerate()
            .map(|(i, cs)| {
                // The streaming rule `run_scheduler_observed` applies.
                let streaming = matches!(cs.workload, WorkloadSpec::Synthetic(_))
                    && !matches!(name.as_str(), "enhanced" | "live_registry")
                    && cs.scenario.retrain.is_none();
                build_cell(cs, &spec.sim, i, streaming)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let build_s = t.elapsed().as_secs_f64();
        let machines: u64 = cells.iter().map(|c| c.machine_ids.len() as u64).sum();
        rec.end(
            span,
            vec![
                ("scheduler", serde_json::Value::Str(name.clone())),
                ("machines", num(machines)),
            ],
        );
        if name == w.headline {
            let alloc = memtrack::alloc_peak_bytes().saturating_sub(alloc_before);
            build = (build_s, machines, alloc as f64 / MB);
        }
        let span = rec.begin("lab.registry", Some(sib));
        let t = Instant::now();
        for cell in &cells {
            build_scheduler(name, cell, &spec.train, spec.sim.seed).map_err(|e| e.to_string())?;
        }
        let registry_s = t.elapsed().as_secs_f64();
        rec.end(
            span,
            vec![("scheduler", serde_json::Value::Str(name.clone()))],
        );
        if name == "enhanced" && training.is_none() {
            let span = rec.begin("lab.registry.train", Some(sib));
            let tr = train(&cells[0], &spec);
            rec.end(span, vec![("rows", num(tr.rows as u64))]);
            training = Some(tr);
        }
        siblings.push(Sibling {
            scheduler: name.clone(),
            build_s,
            registry_s,
        });
    }
    rec.end(sib, Vec::new());

    let profiled = Tweaks {
        profile: true,
        ..Tweaks::default()
    };
    let main = execute(w, root, seed, profiled, &mut rec, out)?;
    let mut errors = main.errors.clone();
    let head = main
        .headline(w)
        .ok_or_else(|| format!("{}: no {} run", w.name, w.headline))?
        .clone();

    // Multi-cell runs must not depend on the thread count: rerun at
    // the other width of 1 and 2, which also gives the speed-up.
    let mut speedup = 0.0;
    // The shard profile reported is the threads-2 run's.
    let mut perf = head.perf.clone();
    if spec.cell_specs().len() > 1 {
        let other = if w.threads == 1 { 2 } else { 1 };
        let span = rec.begin("rerun.threads", None);
        let rerun = execute(
            w,
            root,
            seed,
            Tweaks {
                threads: Some(other),
                ..profiled
            },
            &mut Recorder::off(),
            &out.join(format!("threads{other}")),
        )?;
        rec.end(span, vec![("threads", num(other as u64))]);
        errors.extend(rerun.errors.iter().cloned());
        for (a, b) in main.exports.iter().zip(&rerun.exports) {
            if a.text != b.text {
                errors.push(format!(
                    "{}: {} differs at threads {} and {other}",
                    w.name, a.name, w.threads
                ));
            }
        }
        if let Some(h) = rerun.headline(w) {
            speedup = if other == 2 {
                perf = h.perf.clone();
                head.run_s / h.run_s
            } else {
                h.run_s / head.run_s
            };
        }
    }

    // The price of the sim-plane recorders: the same run with them off.
    let mut record_s = 0.0;
    if spec.observability.metrics || spec.observability.spans || spec.observability.trace_events > 0
    {
        let span = rec.begin("rerun.recorders_off", None);
        let off = execute(
            w,
            root,
            seed,
            Tweaks {
                recorders_off: true,
                ..profiled
            },
            &mut Recorder::off(),
            &out.join("recorders_off"),
        )?;
        rec.end(span, Vec::new());
        errors.extend(off.errors.iter().cloned());
        if let Some(h) = off.headline(w) {
            record_s = head.run_s - h.run_s;
        }
    }

    let run_of = |name: &str| {
        main.schedulers
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.run_s)
    };
    let retrain_s = match (run_of("live_registry"), run_of("main_only")) {
        (Some(live), Some(base)) => live - base,
        _ => 0.0,
    };
    let sim_s: f64 = main
        .schedulers
        .iter()
        .map(|s| {
            let setup = siblings
                .iter()
                .find(|b| b.scheduler == s.name)
                .map_or(0.0, |b| b.build_s + b.registry_s);
            s.run_s - setup
        })
        .sum::<f64>()
        - retrain_s;
    let events: u64 = main.schedulers.iter().map(|s| s.events).sum();
    let wheel: u64 = main.schedulers.iter().map(|s| s.pop_wheel).sum();
    let heap: u64 = main.schedulers.iter().map(|s| s.pop_heap).sum();
    let perf = perf.unwrap_or_default();
    let attempts = head.placed + head.no_capacity + head.infeasible;
    let export = |name: &str| {
        main.export(name)
            .map_or((0.0, 0.0), |e| (e.seconds, e.text.len() as f64))
    };
    let (report_s, report_bytes) = export("report");
    let (spans_s, spans_bytes) = export("spans");
    let (metrics_s, _) = export("metrics");
    let tr = training.unwrap_or(Training {
        seconds: 0.0,
        rows: 0,
        accuracy: 0.0,
    });

    let metrics = vec![
        ("spec.parse_ms", main.parse_s * 1e3),
        ("build.s", build.0),
        ("build.machines_per_s", ratio(build.1 as f64, build.0)),
        ("build.alloc_mb", build.2),
        ("train.full_s", tr.seconds),
        ("train.rows_per_s", ratio(tr.rows as f64, tr.seconds)),
        ("train.accuracy", tr.accuracy),
        ("train.retrain_s", retrain_s),
        ("sim.run_s", sim_s),
        ("sim.events", events as f64),
        ("sim.events_per_s", ratio(events as f64, sim_s)),
        ("sim.wheel_share", ratio(wheel as f64, events as f64)),
        ("sim.heap_share", ratio(heap as f64, events as f64)),
        ("parallel.rounds", perf.rounds as f64),
        (
            "parallel.shard_run_s",
            perf.shard_run_ns.iter().sum::<u64>() as f64 / 1e9,
        ),
        (
            "parallel.barrier_wait_s",
            perf.shard_barrier_ns.iter().sum::<u64>() as f64 / 1e9,
        ),
        ("parallel.drain_ms", perf.drain_ns as f64 / 1e6),
        ("parallel.speedup_t2", speedup),
        ("sched.placed", head.placed as f64),
        ("sched.no_capacity", head.no_capacity as f64),
        (
            "sched.place_yield",
            ratio(head.placed as f64, attempts as f64),
        ),
        ("sched.preempted", head.preempted as f64),
        ("sched.spill_requests", head.spill_requests as f64),
        (
            "sched.g0_latency_p50_s",
            head.g0_p50_us.map_or(0.0, |us| us as f64 / 1e6),
        ),
        ("sched.unplaced_frac", head.unplaced_frac()),
        ("faults.lost", head.faults_lost as f64),
        ("faults.retries", head.faults_retries as f64),
        ("faults.dead_lettered", head.dead_lettered as f64),
        ("autoscale.fleet_peak", head.fleet_peak as f64),
        ("stream.slab_retired", head.slab_retired as f64),
        ("stream.slab_resident", head.slab_resident as f64),
        ("obs.spans", head.spans as f64),
        ("obs.record_s", record_s),
        ("export.spans_s", spans_s),
        ("export.spans_mb", spans_bytes / MB),
        ("export.metrics_s", metrics_s),
        ("report.s", report_s),
        ("report.kb", report_bytes / 1024.0),
    ];

    let doc = rec.trace_document();
    let path = out.join("layers.trace.json");
    std::fs::write(&path, format!("{}\n", to_pretty_json(&doc)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("layer spans written to {}", path.display());

    Ok(Traced {
        wall_s: main.wall_s,
        metrics,
        main,
        errors,
    })
}

/// Trains the analyzer `enhanced` builds, alone, and scores it on the
/// cell's own arrivals (in-sample `predict_group` vs `truth_group`).
fn train(cell: &BuiltCell, spec: &ctlm_lab::ExperimentSpec) -> Training {
    let t = Instant::now();
    let analyzer = train_analyzer(cell, &spec.train, spec.sim.seed);
    let seconds = t.elapsed().as_secs_f64();
    let arrivals = cell.arrivals.list().unwrap_or(&[]);
    let mut rows = CsrBuilder::new(analyzer.features());
    for task in arrivals {
        rows.push_row(CoVvEncoder.encode_requirements(&task.reqs, analyzer.vocab()));
    }
    let predicted = analyzer.net().predict(&rows.finish());
    let hits = predicted
        .iter()
        .zip(arrivals)
        .filter(|(p, task)| **p == task.truth_group)
        .count();
    Training {
        seconds,
        rows: arrivals.len(),
        accuracy: ratio(hits as f64, arrivals.len() as f64),
    }
}

/// `part / whole`, or 0 when there is no whole (a layer that did not run).
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
