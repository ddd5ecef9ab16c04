//! Machine capacity accounting for the scheduler.

use std::collections::HashMap;

use ctlm_agocs::AttrIndex;
use ctlm_data::compaction::AttrRequirement;
use ctlm_trace::{Machine, MachineId, TaskId};

/// A machine's live allocation state.
#[derive(Clone, Debug, Default)]
struct Alloc {
    cpu_used: f64,
    mem_used: f64,
    /// Tasks placed here as `(task, cpu, memory, priority)`, in no
    /// particular order (release swap-removes; readers sort).
    tasks: Vec<(TaskId, f64, f64, u8)>,
}

/// One entry of the id-ordered slot table. A machine keeps its slot
/// for life: draining parks it, decommissioning leaves the slot `Gone`,
/// and a re-add under the same id moves back in.
#[derive(Clone, Debug)]
enum Slot {
    Online(Machine, Alloc),
    /// Drained by churn, kept so [`SchedCluster::reset`] can restore
    /// the fleet without a deep copy of the whole cluster.
    Parked(Machine),
    /// Taken out for good by [`SchedCluster::take_offline`].
    Gone,
}

/// Free-CPU quantization: capacity buckets of 1/1024 core. Best-fit
/// tie-breaks are defined over `(capacity_bucket(free_cpu), id)`, so the
/// incrementally maintained capacity index and the retained linear
/// reference scan agree bit-for-bit (quantized keys sidestep the
/// float-rounding ties an exact `free − request` comparison can produce).
pub fn capacity_bucket(free_cpu: f64) -> usize {
    (free_cpu.max(0.0) * 1024.0) as usize
}

/// A set of slot numbers as a two-level bitset: one leaf bit per slot,
/// one summary bit per non-empty leaf word, so a scan skips 4096 empty
/// slots per summary word read. Sized lazily to the leaf word of the
/// highest slot ever inserted; insert and remove are O(1) and
/// allocation-free once the set has grown to cover its slots.
#[derive(Clone, Debug, Default)]
struct SlotSet {
    /// `ceil(L / 64)` summary words, then `L` leaf words. A boxed slice
    /// plus `len` keeps the header as small as a `Vec`.
    words: Box<[u64]>,
    len: u32,
}

// A cell carries ~1k buckets (1/1024-core quantization), most of them
// empty: a bucket's inline header stays no larger than a `Vec`.
const _: () = assert!(std::mem::size_of::<SlotSet>() <= std::mem::size_of::<Vec<MachineId>>());

impl SlotSet {
    /// Summary words in front of the leaves. `L` leaves need
    /// `ceil(L / 64)` summaries, so a total of `T = L + ceil(L / 64)`
    /// words holds exactly `ceil(T / 65)` of them.
    fn summary_len(&self) -> usize {
        self.words.len().div_ceil(65)
    }

    /// Adds `slot`, growing to cover it (doubling, but never past
    /// `limit` slots unless `slot` itself lies beyond).
    fn insert(&mut self, slot: usize, limit: usize) {
        let word = slot / 64;
        let leaves = self.words.len() - self.summary_len();
        if word >= leaves {
            self.grow((2 * leaves).clamp(word + 1, limit.div_ceil(64).max(word + 1)));
        }
        let leaf = &mut self.words[self.summary_len() + word];
        debug_assert_eq!(*leaf & (1 << (slot % 64)), 0, "slot already set");
        *leaf |= 1 << (slot % 64);
        self.words[word / 64] |= 1 << (word % 64);
        self.len += 1;
    }

    /// Removes `slot`; returns true when the set became empty.
    fn remove(&mut self, slot: usize) -> bool {
        let word = slot / 64;
        let leaf = &mut self.words[self.summary_len() + word];
        debug_assert_ne!(*leaf & (1 << (slot % 64)), 0, "slot indexed in bucket");
        *leaf &= !(1 << (slot % 64));
        if *leaf == 0 {
            self.words[word / 64] &= !(1 << (word % 64));
        }
        self.len -= 1;
        self.len == 0
    }

    fn grow(&mut self, leaves: usize) {
        let (summary, old) = self.words.split_at(self.summary_len());
        let s = leaves.div_ceil(64);
        let mut words = vec![0u64; s + leaves];
        words[..summary.len()].copy_from_slice(summary);
        words[s..s + old.len()].copy_from_slice(old);
        self.words = words.into_boxed_slice();
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// The set's slots in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (summary, leaves) = self.words.split_at(self.summary_len());
        summary.iter().enumerate().flat_map(move |(b, &s)| {
            Bits(s).flat_map(move |j| {
                let word = b * 64 + j;
                Bits(leaves[word]).map(move |k| word * 64 + k)
            })
        })
    }
}

/// The set bits of a word, lowest first.
struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// The maintained free-capacity ordering: online machines' slots
/// bucketed by quantized free CPU ([`capacity_bucket`]), each bucket a
/// [`SlotSet`], plus an occupancy bitmap so a query can skip empty
/// buckets a word at a time. Slots are id-ordered, so a bucket's slots
/// ascend by machine id. Best-fit resolves the tightest feasible machine
/// by walking occupied buckets upward from the request size instead of
/// scanning every suitable candidate; a place or release flips two bits,
/// with **zero heap allocations** once buckets have grown to the fleet
/// (the steady-state scheduling-pass guarantee).
#[derive(Clone, Debug, Default)]
struct CapacityIndex {
    buckets: Vec<SlotSet>,
    /// One bit per bucket: set when the bucket is non-empty.
    occupied: Vec<u64>,
}

impl CapacityIndex {
    /// Adds `slot` to `bucket`; `slots` is the slot table's length.
    fn insert(&mut self, bucket: usize, slot: usize, slots: usize) {
        if bucket >= self.buckets.len() {
            self.buckets.resize_with(bucket + 1, SlotSet::default);
            self.occupied.resize(self.buckets.len().div_ceil(64), 0);
        }
        self.buckets[bucket].insert(slot, slots);
        self.occupied[bucket / 64] |= 1u64 << (bucket % 64);
    }

    fn remove(&mut self, bucket: usize, slot: usize) {
        if self.buckets[bucket].remove(slot) {
            self.occupied[bucket / 64] &= !(1u64 << (bucket % 64));
        }
    }

    /// The first occupied bucket at or above `from`.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= self.buckets.len() {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= self.occupied.len() {
                return None;
            }
            bits = self.occupied[word];
        }
    }

    /// Empties every bucket, keeping their storage.
    fn clear(&mut self) {
        for b in &mut self.buckets {
            if b.len > 0 {
                b.clear();
            }
        }
        self.occupied.fill(0);
    }
}

/// Outcome of a [`SchedCluster::tightest_fit`] capacity query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapacityFit {
    /// The feasible machine minimising `(capacity_bucket(free_cpu), id)`.
    Fit(MachineId),
    /// Constraint-suitable machines exist, but none has room right now.
    NoCapacity,
    /// No machine satisfies the constraints at all.
    Infeasible,
}

/// The scheduler's view of the cluster: trace machines plus usage. An
/// inverted [`AttrIndex`] mirrors the fleet so per-task suitability
/// queries in the placement loop scale with the candidate set instead of
/// the cluster size, and a bucketed capacity index keeps machines ordered by
/// free capacity so best-fit resolves without scanning every suitable
/// candidate (the Fig. 3 simulation at 100k+ machines).
///
/// Machines live in a dense slot table ordered by id: `ids[s]` is slot
/// `s`'s machine, `slot_of` maps back. Every machine ever added keeps its
/// slot, so the capacity index can hold slot numbers in bitsets.
#[derive(Clone, Debug, Default)]
pub struct SchedCluster {
    /// Machine id per slot, strictly ascending.
    ids: Vec<MachineId>,
    slot_of: HashMap<MachineId, u32>,
    slots: Vec<Slot>,
    /// Number of `Online` slots.
    online: usize,
    index: AttrIndex,
    cap: CapacityIndex,
    /// Fleet-wide CPU capacity / usage, maintained incrementally so
    /// [`SchedCluster::cpu_utilisation`] is O(1) **and deterministic**:
    /// the totals are a pure function of the operation history, and near-
    /// tied load comparisons (the least-loaded spillover router) never
    /// depend on a fold order.
    cpu_capacity_total: f64,
    cpu_used_total: f64,
}

impl SchedCluster {
    /// Empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from a machine list (any order; a repeated id supersedes
    /// the earlier entry, as [`SchedCluster::add_machine`] does).
    pub fn from_machines(machines: impl IntoIterator<Item = Machine>) -> Self {
        let mut machines: Vec<Machine> = machines.into_iter().collect();
        machines.sort_by_key(|m| m.id);
        let mut c = Self::new();
        c.ids.reserve(machines.len());
        c.slots.reserve(machines.len());
        c.slot_of.reserve(machines.len());
        for m in machines {
            c.add_machine(m);
        }
        c
    }

    /// The slot of an online machine, with its state.
    fn online_slot(&self, id: MachineId) -> Option<(usize, &Machine, &Alloc)> {
        let s = *self.slot_of.get(&id)? as usize;
        match &self.slots[s] {
            Slot::Online(m, a) => Some((s, m, a)),
            _ => None,
        }
    }

    /// The slot for `id`, appending (or, for an id below the current
    /// maximum, inserting and renumbering) a `Gone` slot when new.
    fn slot_for(&mut self, id: MachineId) -> usize {
        if let Some(&s) = self.slot_of.get(&id) {
            return s as usize;
        }
        assert!(
            self.ids.len() < u32::MAX as usize,
            "slot numbers fit in u32"
        );
        if self.ids.last().is_none_or(|&last| last < id) {
            let s = self.ids.len();
            self.ids.push(id);
            self.slots.push(Slot::Gone);
            self.slot_of.insert(id, s as u32);
            return s;
        }
        // A new id below the maximum: every later slot shifts up by one,
        // so the bitsets are rebuilt. Rare (fleets are built id-sorted
        // and joiners carry fresh, higher ids).
        let pos = self.ids.partition_point(|&x| x < id);
        self.ids.insert(pos, id);
        self.slots.insert(pos, Slot::Gone);
        for (s, &m) in self.ids.iter().enumerate().skip(pos) {
            self.slot_of.insert(m, s as u32);
        }
        self.cap.clear();
        let n = self.slots.len();
        for (s, slot) in self.slots.iter().enumerate() {
            if let Slot::Online(m, a) = slot {
                self.cap.insert(capacity_bucket(m.cpu - a.cpu_used), s, n);
            }
        }
        pos
    }

    /// Adds a machine. A re-add under a known id supersedes the online
    /// or parked copy (and drops any load the online copy carried).
    pub fn add_machine(&mut self, m: Machine) {
        let s = self.slot_for(m.id);
        if let Slot::Online(old, a) = &self.slots[s] {
            self.index.remove_machine(m.id);
            self.cap.remove(capacity_bucket(old.cpu - a.cpu_used), s);
            self.cpu_capacity_total -= old.cpu;
            self.cpu_used_total -= a.cpu_used;
        } else {
            self.online += 1;
        }
        self.index.add_machine(&m);
        self.cap.insert(capacity_bucket(m.cpu), s, self.slots.len());
        self.cpu_capacity_total += m.cpu;
        self.slots[s] = Slot::Online(m, Alloc::default());
    }

    /// Takes a machine offline (churn / failure). The machine's running
    /// tasks are returned as `(task, cpu, memory, priority)`, sorted by
    /// task id, so the engine can requeue them; the machine itself is
    /// parked for [`SchedCluster::reset`] to restore. Returns `None` for
    /// machines not online.
    pub fn remove_machine(&mut self, id: MachineId) -> Option<Vec<(TaskId, f64, f64, u8)>> {
        let (s, ..) = self.online_slot(id)?;
        let Slot::Online(m, alloc) = std::mem::replace(&mut self.slots[s], Slot::Gone) else {
            unreachable!("online slot");
        };
        self.index.remove_machine(id);
        self.cap.remove(capacity_bucket(m.cpu - alloc.cpu_used), s);
        self.cpu_capacity_total -= m.cpu;
        self.cpu_used_total -= alloc.cpu_used;
        self.online -= 1;
        self.slots[s] = Slot::Parked(m);
        let mut evicted = alloc.tasks;
        evicted.sort_by_key(|&(t, ..)| t);
        Some(evicted)
    }

    /// Takes a *parked* (drained) machine out of the cluster entirely —
    /// the decommission half of the autoscaler's scale-down path: after
    /// [`SchedCluster::remove_machine`] requeued its tasks, the owner
    /// takes the machine value and decides whether it re-enters as warm
    /// standby or is gone for good. A taken machine is no longer
    /// restored by [`SchedCluster::reset`]. Returns `None` when the
    /// machine is not parked.
    pub fn take_offline(&mut self, id: MachineId) -> Option<Machine> {
        let s = *self.slot_of.get(&id)? as usize;
        match std::mem::replace(&mut self.slots[s], Slot::Gone) {
            Slot::Parked(m) => Some(m),
            other => {
                self.slots[s] = other;
                None
            }
        }
    }

    /// Online machine ids ordered by free CPU, emptiest first
    /// (descending capacity bucket; ascending id within a bucket) —
    /// answered from the maintained capacity ordering. The autoscaler's
    /// scale-down victim order: draining the emptiest machine requeues
    /// the fewest tasks, deterministically.
    pub fn machines_by_free_cpu_desc(&self, out: &mut Vec<MachineId>) {
        out.clear();
        for b in self.cap.buckets.iter().rev() {
            out.extend(b.iter().map(|s| self.ids[s]));
        }
    }

    /// Brings a previously drained machine back online (with no load).
    /// Returns true if it was parked.
    pub fn restore_machine(&mut self, id: MachineId) -> bool {
        match self.take_offline(id) {
            Some(m) => {
                self.add_machine(m);
                true
            }
            None => false,
        }
    }

    /// Updates one machine attribute in place (None clears it), keeping
    /// the inverted index consistent. Machines currently drained by
    /// churn receive the update on their parked copy, so a rollout that
    /// lands mid-outage is present when they rejoin. Returns true when
    /// the machine is known (online or parked).
    pub fn update_attr(
        &mut self,
        id: MachineId,
        attr: ctlm_trace::AttrId,
        value: Option<ctlm_trace::AttrValue>,
    ) -> bool {
        let Some(&s) = self.slot_of.get(&id) else {
            return false;
        };
        let m = match &mut self.slots[s as usize] {
            Slot::Online(m, _) => {
                self.index.update_attr(id, attr, value.as_ref());
                m
            }
            Slot::Parked(m) => m, // parked: no index entry to maintain
            Slot::Gone => return false,
        };
        match value {
            Some(v) => {
                m.set_attr(attr, v);
            }
            None => {
                m.remove_attr(attr);
            }
        }
        true
    }

    /// Returns the cluster to its pristine state: every reservation is
    /// dropped and every churned machine rejoins. This is the cheap
    /// alternative to deep-copying the cluster per policy run: one pass
    /// over the slot table, no reallocation.
    pub fn reset(&mut self) {
        self.cap.clear();
        self.cpu_used_total = 0.0;
        let n = self.slots.len();
        for s in 0..n {
            match &mut self.slots[s] {
                Slot::Online(m, a) => {
                    a.cpu_used = 0.0;
                    a.mem_used = 0.0;
                    a.tasks.clear();
                    self.cap.insert(capacity_bucket(m.cpu), s, n);
                }
                Slot::Parked(_) => {
                    self.restore_machine(self.ids[s]);
                }
                Slot::Gone => {}
            }
        }
    }

    /// Number of online machines.
    pub fn len(&self) -> usize {
        self.online
    }

    /// True when the cluster has no online machines.
    pub fn is_empty(&self) -> bool {
        self.online == 0
    }

    fn expect_online(&self, id: MachineId) -> (usize, &Machine, &Alloc) {
        self.online_slot(id).expect("machine is online")
    }

    /// Free CPU on an online machine.
    pub fn free_cpu(&self, id: MachineId) -> f64 {
        let (_, m, a) = self.expect_online(id);
        m.cpu - a.cpu_used
    }

    /// Free memory on an online machine.
    pub fn free_mem(&self, id: MachineId) -> f64 {
        let (_, m, a) = self.expect_online(id);
        m.memory - a.mem_used
    }

    /// Machines satisfying the requirements (constraint feasibility only,
    /// not capacity), in ascending id order — answered by the inverted
    /// index.
    pub fn suitable(&self, reqs: &[AttrRequirement]) -> Vec<MachineId> {
        self.index.matching(reqs)
    }

    /// [`SchedCluster::suitable`] into a caller-provided buffer — the
    /// placement loop's allocation-free form.
    pub fn suitable_into(&self, reqs: &[AttrRequirement], out: &mut Vec<MachineId>) {
        self.index.matching_into(reqs, out);
    }

    /// Streams every suitable machine to `f` without materialising a
    /// candidate list (visit order unspecified — callers needing an
    /// order track their own min key). `f` returns false to stop early;
    /// the call returns false when stopped.
    pub fn suitable_visit(
        &self,
        reqs: &[AttrRequirement],
        f: impl FnMut(MachineId) -> bool,
    ) -> bool {
        self.index.matching_visit(reqs, f)
    }

    /// True when the online machine can hold the request right now.
    pub fn fits(&self, id: MachineId, cpu: f64, mem: f64) -> bool {
        let (_, m, a) = self.expect_online(id);
        alloc_fits(m, a, cpu, mem)
    }

    /// Candidate-driven queries win when the constraint set is selective
    /// relative to the fleet; beyond this share of the fleet the
    /// capacity-ordered walk is cheaper.
    const CANDIDATE_DRIVEN_SHARE: usize = 4;

    /// The feasible machine minimising `(capacity_bucket(free_cpu), id)`
    /// — tightest-fit placement answered from the maintained capacity
    /// ordering, without scanning every suitable candidate and without
    /// allocating.
    ///
    /// Two strategies, picked by the attribute index's selectivity
    /// estimate: selective constraint sets stream their (few) suitable
    /// candidates and track the min capacity key; loose ones walk the
    /// capacity order upward from the request size and stop at the first
    /// machine that fits and matches. Both compute the same argmin, so
    /// the choice never changes the answer (property-tested against the
    /// retained linear scan in `tests/placement_equivalence.rs`).
    pub fn tightest_fit(&self, reqs: &[AttrRequirement], cpu: f64, mem: f64) -> CapacityFit {
        if self.online == 0 {
            return CapacityFit::Infeasible;
        }
        if !reqs.is_empty() {
            let hint = self.index.selectivity_hint(reqs);
            if hint * Self::CANDIDATE_DRIVEN_SHARE <= self.online {
                return self.tightest_fit_candidates(reqs, cpu, mem);
            }
        }
        // Capacity-driven: first occupied bucket at or above the request
        // holds the tightest candidates; slots (hence ids) ascend within
        // a bucket, so the first hit is the argmin.
        let mut from = capacity_bucket(cpu);
        while let Some(b) = self.cap.next_occupied(from) {
            for s in self.cap.buckets[b].iter() {
                let Slot::Online(m, a) = &self.slots[s] else {
                    unreachable!("capacity index holds online slots only");
                };
                if alloc_fits(m, a, cpu, mem) && self.index.matches(m.id, reqs) {
                    return CapacityFit::Fit(m.id);
                }
            }
            from = b + 1;
        }
        if reqs.is_empty() || self.index.matches_any(reqs) {
            CapacityFit::NoCapacity
        } else {
            CapacityFit::Infeasible
        }
    }

    /// The attribute index's candidate-count estimate for a constraint
    /// set — the upper bound on suitable machines the placer's
    /// candidate-driven arm would stream (fleet size for unconstrained
    /// tasks). Cheap and deterministic; the flight recorder stamps it
    /// into placement decision records.
    pub fn candidate_estimate(&self, reqs: &[AttrRequirement]) -> usize {
        if reqs.is_empty() {
            self.online
        } else {
            self.index.selectivity_hint(reqs).min(self.online)
        }
    }

    /// Which [`SchedCluster::tightest_fit`] arm the selectivity estimate
    /// picks for this constraint set — the plan tag recorded in
    /// placement decision audits.
    pub fn plan_hint(&self, reqs: &[AttrRequirement]) -> &'static str {
        if !reqs.is_empty()
            && self.index.selectivity_hint(reqs) * Self::CANDIDATE_DRIVEN_SHARE <= self.online
        {
            "candidate_driven"
        } else {
            "capacity_driven"
        }
    }

    /// Candidate-driven arm of [`SchedCluster::tightest_fit`].
    fn tightest_fit_candidates(&self, reqs: &[AttrRequirement], cpu: f64, mem: f64) -> CapacityFit {
        let mut best: Option<(usize, MachineId)> = None;
        let mut suitable_any = false;
        self.index.matching_visit(reqs, |id| {
            suitable_any = true;
            let (_, m, a) = self.expect_online(id);
            if alloc_fits(m, a, cpu, mem) {
                let key = (capacity_bucket(m.cpu - a.cpu_used), id);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            true
        });
        match best {
            Some((_, id)) => CapacityFit::Fit(id),
            None if suitable_any => CapacityFit::NoCapacity,
            None => CapacityFit::Infeasible,
        }
    }

    /// The online slot of `id` and its state, mutably.
    fn online_slot_mut(&mut self, id: MachineId) -> Option<(usize, &mut Machine, &mut Alloc)> {
        let s = *self.slot_of.get(&id)? as usize;
        match &mut self.slots[s] {
            Slot::Online(m, a) => Some((s, m, a)),
            _ => None,
        }
    }

    /// Reserves capacity for a task.
    ///
    /// # Panics
    /// Panics if the reservation does not fit (callers check `fits`).
    pub fn place(&mut self, id: MachineId, task: TaskId, cpu: f64, mem: f64, priority: u8) {
        let (s, m, a) = self.online_slot_mut(id).expect("machine is online");
        assert!(alloc_fits(m, a, cpu, mem), "placement must fit");
        let old = capacity_bucket(m.cpu - a.cpu_used);
        a.cpu_used += cpu;
        a.mem_used += mem;
        let new = capacity_bucket(m.cpu - a.cpu_used);
        a.tasks.push((task, cpu, mem, priority));
        if old != new {
            self.cap.remove(old, s);
            self.cap.insert(new, s, self.slots.len());
        }
        self.cpu_used_total += cpu;
    }

    /// Releases a task's reservation. Returns true if it was present.
    pub fn release(&mut self, id: MachineId, task: TaskId) -> bool {
        let Some((s, m, a)) = self.online_slot_mut(id) else {
            return false;
        };
        let Some(pos) = a.tasks.iter().position(|&(t, ..)| t == task) else {
            return false;
        };
        let (_, cpu, mem, _) = a.tasks.swap_remove(pos);
        let old = capacity_bucket(m.cpu - a.cpu_used);
        a.cpu_used -= cpu;
        a.mem_used -= mem;
        let new = capacity_bucket(m.cpu - a.cpu_used);
        if old != new {
            self.cap.remove(old, s);
            self.cap.insert(new, s, self.slots.len());
        }
        self.cpu_used_total -= cpu;
        true
    }

    /// Tasks on a machine with priority strictly below `priority`, sorted
    /// lowest-priority first — the Kubernetes preemption candidate order.
    pub fn preemption_candidates(
        &self,
        id: MachineId,
        priority: u8,
    ) -> Vec<(TaskId, f64, f64, u8)> {
        let mut out = Vec::new();
        self.preemption_candidates_into(id, priority, &mut out);
        out
    }

    /// [`SchedCluster::preemption_candidates`] into a caller-provided
    /// buffer (the preemptive placer's scratch-threaded form).
    pub fn preemption_candidates_into(
        &self,
        id: MachineId,
        priority: u8,
        out: &mut Vec<(TaskId, f64, f64, u8)>,
    ) {
        out.clear();
        let (_, _, a) = self.expect_online(id);
        out.extend(a.tasks.iter().filter(|&&(.., p)| p < priority));
        out.sort_by_key(|&(t, _, _, p)| (p, t));
    }

    /// One machine's attribute value (soft-affinity scoring needs direct
    /// attribute access). `None` for machines not online.
    pub fn machine_attr(
        &self,
        id: MachineId,
        attr: ctlm_trace::AttrId,
    ) -> Option<&ctlm_trace::AttrValue> {
        self.online_slot(id).and_then(|(_, m, _)| m.attr(attr))
    }

    /// Total CPU utilisation across the cluster (0..1) — answered from
    /// the incrementally maintained fleet totals: O(1), and a pure
    /// function of the operation history.
    pub fn cpu_utilisation(&self) -> f64 {
        if self.cpu_capacity_total == 0.0 {
            0.0
        } else {
            (self.cpu_used_total / self.cpu_capacity_total).max(0.0)
        }
    }
}

/// True when `m` under allocation `a` has room for the request.
fn alloc_fits(m: &Machine, a: &Alloc, cpu: f64, mem: f64) -> bool {
    m.cpu - a.cpu_used >= cpu && m.memory - a.mem_used >= mem
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctlm_trace::AttrValue;

    fn cluster3() -> SchedCluster {
        let mut ms = Vec::new();
        for i in 0..3u64 {
            let mut m = Machine::new(i, 1.0, 1.0);
            m.set_attr(0, AttrValue::Int(i as i64));
            ms.push(m);
        }
        SchedCluster::from_machines(ms)
    }

    #[test]
    fn place_and_release_roundtrip() {
        let mut c = cluster3();
        assert!(c.fits(0, 0.6, 0.6));
        c.place(0, 100, 0.6, 0.6, 5);
        assert!(!c.fits(0, 0.6, 0.6));
        assert!((c.free_cpu(0) - 0.4).abs() < 1e-9);
        assert!(c.release(0, 100));
        assert!(!c.release(0, 100));
        assert!(c.fits(0, 0.6, 0.6));
    }

    #[test]
    fn suitable_filters_by_requirements() {
        use ctlm_data::compaction::collapse;
        use ctlm_trace::{ConstraintOp as Op, TaskConstraint};
        let c = cluster3();
        let reqs = collapse(&[TaskConstraint::new(0, Op::LessThan(2))]).unwrap();
        assert_eq!(c.suitable(&reqs), vec![0, 1]);
    }

    #[test]
    fn preemption_candidates_sorted_by_priority() {
        let mut c = cluster3();
        c.place(1, 10, 0.2, 0.2, 3);
        c.place(1, 11, 0.2, 0.2, 1);
        c.place(1, 12, 0.2, 0.2, 9);
        let cands = c.preemption_candidates(1, 5);
        assert_eq!(
            cands.iter().map(|&(t, ..)| t).collect::<Vec<_>>(),
            vec![11, 10]
        );
    }

    #[test]
    fn utilisation_tracks_placements() {
        let mut c = cluster3();
        assert_eq!(c.cpu_utilisation(), 0.0);
        c.place(0, 1, 1.0, 0.5, 0);
        assert!((c.cpu_utilisation() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn parked_machines_receive_attr_updates() {
        let mut c = cluster3();
        assert!(c.remove_machine(1).is_some());
        // A rollout landing mid-outage must stick.
        assert!(c.update_attr(1, 0, Some(AttrValue::Int(99))));
        assert!(c.restore_machine(1));
        assert_eq!(c.machine_attr(1, 0), Some(&AttrValue::Int(99)));
        use ctlm_data::compaction::collapse;
        use ctlm_trace::{ConstraintOp as Op, TaskConstraint};
        let reqs =
            collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(99))))]).unwrap();
        assert_eq!(c.suitable(&reqs), vec![1]);
    }

    #[test]
    fn re_add_supersedes_parked_copy() {
        let mut c = cluster3();
        c.remove_machine(2);
        // The machine rejoins via a fresh add (trace MachineAdd), takes
        // load — a later reset must not clobber it with the stale copy.
        let mut m = Machine::new(2, 1.0, 1.0);
        m.set_attr(0, AttrValue::Int(42));
        c.add_machine(m);
        c.place(2, 7, 0.5, 0.5, 1);
        assert!(!c.restore_machine(2), "no parked copy may remain");
        c.reset();
        assert_eq!(c.len(), 3);
        assert_eq!(c.machine_attr(2, 0), Some(&AttrValue::Int(42)));
    }

    #[test]
    #[should_panic(expected = "placement must fit")]
    fn oversized_placement_panics() {
        let mut c = cluster3();
        c.place(0, 1, 1.5, 0.1, 0);
    }

    #[test]
    fn tightest_fit_tracks_load_incrementally() {
        let mut c = cluster3();
        // All machines empty: lowest id wins the full-capacity bucket.
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(0));
        // Load machine 2 to the tightest still-feasible level.
        c.place(2, 10, 0.7, 0.1, 1);
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(2));
        // Memory still gates: machine 2 has CPU room but no memory room.
        c.place(2, 11, 0.0, 0.85, 1);
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(0));
        // Release restores the ordering.
        assert!(c.release(2, 11));
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(2));
    }

    #[test]
    fn tightest_fit_distinguishes_infeasible_from_no_capacity() {
        use ctlm_data::compaction::collapse;
        use ctlm_trace::{ConstraintOp as Op, TaskConstraint};
        let mut c = cluster3();
        let pin = collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(1))))]).unwrap();
        assert_eq!(c.tightest_fit(&pin, 0.2, 0.2), CapacityFit::Fit(1));
        c.place(1, 10, 0.95, 0.95, 1);
        assert_eq!(c.tightest_fit(&pin, 0.2, 0.2), CapacityFit::NoCapacity);
        let nowhere =
            collapse(&[TaskConstraint::new(0, Op::Equal(Some(AttrValue::Int(99))))]).unwrap();
        assert_eq!(c.tightest_fit(&nowhere, 0.2, 0.2), CapacityFit::Infeasible);
        for i in 0..3u64 {
            if i != 1 {
                c.place(i, 100 + i, 0.95, 0.95, 1);
            }
        }
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::NoCapacity);
    }

    #[test]
    fn capacity_index_survives_churn_and_reset() {
        let mut c = cluster3();
        c.place(0, 10, 0.5, 0.5, 1);
        c.remove_machine(0);
        assert_eq!(c.tightest_fit(&[], 0.9, 0.9), CapacityFit::Fit(1));
        c.restore_machine(0);
        // Restored machines rejoin empty, back in the full bucket.
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(0));
        c.place(1, 11, 0.6, 0.6, 1);
        c.reset();
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(0));
        assert_eq!(c.cpu_utilisation(), 0.0);
    }

    #[test]
    fn take_offline_removes_the_parked_copy_for_good() {
        let mut c = cluster3();
        c.remove_machine(1);
        let m = c.take_offline(1).expect("parked machine taken");
        assert_eq!(m.id, 1);
        assert!(!c.restore_machine(1), "taken machines cannot be restored");
        c.reset();
        assert_eq!(c.len(), 2, "reset must not resurrect a taken machine");
        assert!(
            c.take_offline(0).is_none(),
            "online machines are not parked"
        );
    }

    #[test]
    fn machines_by_free_cpu_desc_orders_emptiest_first() {
        let mut c = cluster3();
        c.place(0, 10, 0.5, 0.5, 1);
        c.place(2, 11, 0.2, 0.2, 1);
        let mut out = Vec::new();
        c.machines_by_free_cpu_desc(&mut out);
        assert_eq!(out, vec![1, 2, 0], "emptiest first, id-ordered in ties");
        assert!(c.release(0, 10));
        c.machines_by_free_cpu_desc(&mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn suitable_visit_streams_the_materialised_set() {
        use ctlm_data::compaction::collapse;
        use ctlm_trace::{ConstraintOp as Op, TaskConstraint};
        let c = cluster3();
        let reqs = collapse(&[TaskConstraint::new(0, Op::LessThan(2))]).unwrap();
        let mut seen = Vec::new();
        assert!(c.suitable_visit(&reqs, |id| {
            seen.push(id);
            true
        }));
        seen.sort_unstable();
        assert_eq!(seen, c.suitable(&reqs));
    }

    #[test]
    fn out_of_order_adds_still_tie_break_by_lowest_id() {
        let built = SchedCluster::from_machines([5u64, 1, 3].map(|i| Machine::new(i, 1.0, 1.0)));
        let mut added = SchedCluster::new();
        for i in [5u64, 1, 3] {
            // 1 and 3 land below the maximum: the slot table renumbers.
            added.add_machine(Machine::new(i, 1.0, 1.0));
        }
        for mut c in [built, added] {
            assert_eq!(c.ids, vec![1, 3, 5]);
            assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(1));
            c.place(5, 10, 0.5, 0.5, 1);
            c.place(3, 11, 0.5, 0.5, 1);
            assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(3));
            // A mid-run add of a lower id keeps the loaded machines' buckets.
            c.add_machine(Machine::new(0, 1.0, 1.0));
            assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(3));
            assert_eq!(c.tightest_fit(&[], 0.6, 0.6), CapacityFit::Fit(0));
            let mut out = Vec::new();
            c.machines_by_free_cpu_desc(&mut out);
            assert_eq!(out, vec![0, 1, 3, 5]);
            assert!(c.release(5, 10));
            assert_eq!(c.free_cpu(5), 1.0);
        }
    }

    #[test]
    fn slot_set_scans_across_word_and_block_boundaries() {
        let slots = [0usize, 63, 64, 127, 4095, 4096, 4097, 8191, 12_288];
        let mut set = SlotSet::default();
        for &s in slots.iter().rev() {
            set.insert(s, 0);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), slots);
        assert_eq!(set.summary_len(), 4);
        assert_eq!(
            set.words.len() - 4,
            12_288 / 64 + 1,
            "sized to the highest slot's word"
        );
        for &s in &[63usize, 4096] {
            assert!(!set.remove(s));
        }
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            [0, 64, 127, 4095, 4097, 8191, 12_288]
        );
        for &s in &[0usize, 64, 127, 4095, 4097, 8191] {
            assert!(!set.remove(s));
        }
        assert!(set.remove(12_288), "last removal empties the set");
        assert_eq!(set.iter().next(), None);
        assert!(set.words.iter().all(|&w| w == 0), "summaries cleared too");
        // Ascending inserts grow the set many times, moving the leaves
        // whenever the summary gains a word.
        let mut grown = SlotSet::default();
        let want: Vec<usize> = (0..20_000).step_by(61).collect();
        for &s in &want {
            grown.insert(s, 0);
        }
        assert_eq!(grown.iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn take_offline_then_re_add_reuses_the_slot() {
        let mut c = cluster3();
        c.remove_machine(1);
        c.take_offline(1).expect("parked");
        assert_eq!(c.tightest_fit(&[], 0.2, 0.2), CapacityFit::Fit(0));
        c.add_machine(Machine::new(1, 1.0, 1.0));
        assert_eq!(c.ids, vec![0, 1, 2], "no second slot for a known id");
        assert_eq!(c.len(), 3);
        c.place(0, 10, 0.5, 0.5, 1);
        assert_eq!(c.tightest_fit(&[], 0.6, 0.6), CapacityFit::Fit(1));
    }

    #[test]
    fn reset_restores_parked_machines() {
        let mut c = cluster3();
        c.place(0, 10, 0.5, 0.5, 1);
        assert_eq!(c.remove_machine(0), Some(vec![(10, 0.5, 0.5, 1)]));
        c.remove_machine(2);
        assert_eq!(c.len(), 1);
        c.reset();
        assert_eq!(c.len(), 3);
        assert_eq!(c.cpu_utilisation(), 0.0);
        assert_eq!(c.free_cpu(0), 1.0);
        assert_eq!(c.tightest_fit(&[], 1.0, 1.0), CapacityFit::Fit(0));
        let mut out = Vec::new();
        c.machines_by_free_cpu_desc(&mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }
}
