//! Property tests: capacity-indexed best-fit equals the retained linear
//! reference scan — over randomized clusters, task shapes, and
//! admit/complete/drain/restore churn sequences that exercise the
//! incremental maintenance of the free-capacity ordering.

use proptest::prelude::*;

use ctlm_data::compaction::collapse;
use ctlm_sched::placement::{best_fit, best_fit_linear, Placement};
use ctlm_sched::{CapacityFit, PendingTask, SchedCluster};
use ctlm_trace::{AttrValue, ConstraintOp as Op, Machine, MachineId, TaskConstraint};

/// One churn step applied between placement queries.
#[derive(Clone, Debug)]
enum ChurnOp {
    /// Place a task (cpu, mem quantized) on the tightest machine, if any.
    Admit { cpu: f64, mem: f64, priority: u8 },
    /// Complete (release) the k-th oldest live task, if any.
    Complete(usize),
    /// Drain the machine `k % fleet` (tasks evaporate for this test —
    /// the engine requeues them; here only index consistency matters).
    Drain(usize),
    /// Restore the k-th drained machine, if any.
    Restore(usize),
}

fn arb_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        (1u32..8, 1u32..8, 0u8..10).prop_map(|(c, m, p)| ChurnOp::Admit {
            cpu: c as f64 / 8.0,
            mem: m as f64 / 8.0,
            priority: p,
        }),
        (1u32..8, 1u32..8, 0u8..10).prop_map(|(c, m, p)| ChurnOp::Admit {
            cpu: c as f64 / 8.0,
            mem: m as f64 / 8.0,
            priority: p,
        }),
        (0usize..64).prop_map(ChurnOp::Complete),
        (0usize..64).prop_map(ChurnOp::Complete),
        (0usize..64).prop_map(ChurnOp::Drain),
        (0usize..64).prop_map(ChurnOp::Restore),
    ]
}

fn arb_reqs() -> impl Strategy<Value = Vec<TaskConstraint>> {
    prop_oneof![
        Just(vec![]),
        (0i64..24).prop_map(|v| vec![TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(v))))]),
        (0i64..24, 1i64..12).prop_map(|(lo, w)| vec![
            TaskConstraint::new(0, Op::GreaterThanEqual(lo)),
            TaskConstraint::new(0, Op::LessThan(lo + w)),
        ]),
        Just(vec![TaskConstraint::new(1, Op::Present)]),
        Just(vec![TaskConstraint::new(1, Op::NotPresent)]),
    ]
}

fn fleet(n: usize) -> SchedCluster {
    let mut ms = Vec::new();
    for i in 0..n as u64 {
        let mut m = Machine::new(i, 1.0, 1.0);
        m.set_attr(0, AttrValue::Int(i as i64));
        if i % 3 == 0 {
            m.set_attr(1, AttrValue::Int(1));
        }
        ms.push(m);
    }
    SchedCluster::from_machines(ms)
}

/// A fleet over `n` sparse, shuffled ids: half small, half at or above
/// `1 << 48` (the autoscaler's joiner range), listed in a seeded random
/// order so the slot table sorts them itself. Returns the ids too.
fn sparse_fleet(n: usize, shuffle: u64) -> (SchedCluster, Vec<MachineId>) {
    let mut ids: Vec<MachineId> = (0..n as u64)
        .map(|i| {
            if i % 2 == 0 {
                1000 + 7 * i
            } else {
                (1 << 48) + 13 * i
            }
        })
        .collect();
    let mut state = shuffle | 1;
    for i in (1..ids.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ids.swap(i, (state >> 33) as usize % (i + 1));
    }
    let ms = ids
        .iter()
        .enumerate()
        .map(|(k, &id)| sparse_machine(id, k as i64));
    (SchedCluster::from_machines(ms), ids)
}

fn sparse_machine(id: MachineId, value: i64) -> Machine {
    let mut m = Machine::new(id, 1.0, 1.0);
    m.set_attr(0, AttrValue::Int(value));
    if value % 3 == 0 {
        m.set_attr(1, AttrValue::Int(1));
    }
    m
}

fn probe(reqs: &[TaskConstraint], cpu: f64, mem: f64) -> PendingTask {
    PendingTask {
        id: u64::MAX,
        collection: 0,
        cpu,
        memory: mem,
        priority: 5,
        reqs: collapse(reqs).unwrap(),
        arrival: 0,
        truth_group: 25,
    }
}

/// Asserts the indexed path and the linear reference agree for a probe.
fn assert_equivalent(cluster: &SchedCluster, task: &PendingTask) {
    let indexed = best_fit(cluster, task);
    let linear = best_fit_linear(cluster, task);
    assert_eq!(
        indexed, linear,
        "indexed best-fit diverged from the linear reference"
    );
    // `tightest_fit` (the engine's can_admit probe) tells the same story.
    let fit = cluster.tightest_fit(&task.reqs, task.cpu, task.memory);
    match (&indexed, fit) {
        (Placement::Placed(m), CapacityFit::Fit(f)) => assert_eq!(*m, f),
        (Placement::NoCapacity, CapacityFit::NoCapacity) => {}
        (Placement::Infeasible, CapacityFit::Infeasible) => {}
        other => panic!("best_fit and tightest_fit disagree: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The capacity index stays equivalent to the linear scan across
    /// random admit/complete/drain/restore sequences, for every probe
    /// shape, at every step.
    #[test]
    fn indexed_best_fit_tracks_linear_reference_under_churn(
        machines in 2usize..24,
        ops in prop::collection::vec(arb_op(), 0..60),
        probes in prop::collection::vec((arb_reqs(), 1u32..8), 1..6),
    ) {
        let mut cluster = fleet(machines);
        let mut live: Vec<(u64, MachineId)> = Vec::new();
        let mut drained: Vec<MachineId> = Vec::new();
        let mut next_task = 0u64;
        for op in ops {
            match op {
                ChurnOp::Admit { cpu, mem, priority } => {
                    let t = probe(&[], cpu, mem);
                    if let Placement::Placed(m) = best_fit(&cluster, &t) {
                        cluster.place(m, next_task, cpu, mem, priority);
                        live.push((next_task, m));
                        next_task += 1;
                    }
                }
                ChurnOp::Complete(k) => {
                    if !live.is_empty() {
                        let (task, m) = live.remove(k % live.len());
                        prop_assert!(cluster.release(m, task));
                    }
                }
                ChurnOp::Drain(k) => {
                    let id = (k % machines) as MachineId;
                    if cluster.remove_machine(id).is_some() {
                        live.retain(|&(_, m)| m != id);
                        drained.push(id);
                    }
                }
                ChurnOp::Restore(k) => {
                    if !drained.is_empty() {
                        let id = drained.remove(k % drained.len());
                        prop_assert!(cluster.restore_machine(id));
                    }
                }
            }
            for (reqs, cpu) in &probes {
                let t = probe(reqs, *cpu as f64 / 8.0, *cpu as f64 / 8.0);
                assert_equivalent(&cluster, &t);
            }
        }
        // And after a reset, the rebuilt index still agrees.
        cluster.reset();
        for (reqs, cpu) in &probes {
            let t = probe(reqs, *cpu as f64 / 8.0, *cpu as f64 / 8.0);
            assert_equivalent(&cluster, &t);
        }
    }

    /// Slot order is id order whatever order machines arrive in: a
    /// fleet of shuffled sparse ids (some above `1 << 48`), with new ids
    /// landing below the maximum mid-run (the slot table renumbers),
    /// still agrees with the linear scan under churn.
    #[test]
    fn shuffled_sparse_ids_track_linear_reference_under_churn(
        machines in 2usize..24,
        shuffle in 0u64..u64::MAX,
        ops in prop::collection::vec(arb_op(), 0..60),
        late_adds in (0usize..60, 0usize..60),
        probes in prop::collection::vec((arb_reqs(), 1u32..8), 1..6),
    ) {
        let (mut cluster, mut ids) = sparse_fleet(machines, shuffle);
        let mut live: Vec<(u64, MachineId)> = Vec::new();
        let mut drained: Vec<MachineId> = Vec::new();
        let mut next_task = 0u64;
        for (step, op) in ops.into_iter().enumerate() {
            // Below every id, then between the small and the large ids.
            for (at, id, value) in [(late_adds.0, 3, 2), (late_adds.1, 1 << 47, 7)] {
                if step == at && !ids.contains(&id) {
                    cluster.add_machine(sparse_machine(id, value));
                    ids.push(id);
                }
            }
            match op {
                ChurnOp::Admit { cpu, mem, priority } => {
                    let t = probe(&[], cpu, mem);
                    if let Placement::Placed(m) = best_fit(&cluster, &t) {
                        cluster.place(m, next_task, cpu, mem, priority);
                        live.push((next_task, m));
                        next_task += 1;
                    }
                }
                ChurnOp::Complete(k) => {
                    if !live.is_empty() {
                        let (task, m) = live.remove(k % live.len());
                        prop_assert!(cluster.release(m, task));
                    }
                }
                ChurnOp::Drain(k) => {
                    let id = ids[k % ids.len()];
                    if cluster.remove_machine(id).is_some() {
                        live.retain(|&(_, m)| m != id);
                        drained.push(id);
                    }
                }
                ChurnOp::Restore(k) => {
                    if !drained.is_empty() {
                        let id = drained.remove(k % drained.len());
                        prop_assert!(cluster.restore_machine(id));
                    }
                }
            }
            for (reqs, cpu) in &probes {
                let t = probe(reqs, *cpu as f64 / 8.0, *cpu as f64 / 8.0);
                assert_equivalent(&cluster, &t);
            }
        }
        cluster.reset();
        prop_assert_eq!(cluster.len(), ids.len());
        for (reqs, cpu) in &probes {
            let t = probe(reqs, *cpu as f64 / 8.0, *cpu as f64 / 8.0);
            assert_equivalent(&cluster, &t);
        }
    }

    /// Saturation boundary: filling the fleet flips probes from Placed to
    /// NoCapacity identically on both paths.
    #[test]
    fn saturation_agrees_on_both_paths(
        machines in 1usize..10,
        load in 1u32..8,
    ) {
        let mut cluster = fleet(machines);
        let chunk = load as f64 / 8.0;
        let mut id = 0u64;
        loop {
            let t = probe(&[], chunk, chunk);
            assert_equivalent(&cluster, &t);
            match best_fit(&cluster, &t) {
                Placement::Placed(m) => {
                    cluster.place(m, id, chunk, chunk, 1);
                    id += 1;
                }
                Placement::NoCapacity => break,
                other => prop_assert!(false, "unexpected {other:?}"),
            }
            prop_assert!(id < 10_000, "saturation must terminate");
        }
    }
}
