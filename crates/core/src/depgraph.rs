//! Subjob dependency graph and evaluation order.
//!
//! Computing the service function of a subjob needs:
//!
//! 1. its own arrival function — the departure function of its predecessor
//!    hop (chain edge);
//! 2. on [`crate::policy::PeerInputs::HigherPriorityServices`] processors
//!    (SPP/SPNP): the service functions of all strictly higher-priority
//!    subjobs on the same processor (the summations of Theorems 3, 5, 6);
//! 3. on [`crate::policy::PeerInputs::SharedWorkloads`] processors
//!    (FCFS, IWRR): the *arrival* functions of every subjob sharing the
//!    processor (the total workload `G` of Theorem 7; IWRR's round
//!    length) — i.e. the departures of those subjobs' predecessor hops,
//!    not the subjobs themselves.
//!
//! When this relation is acyclic, one topological pass computes everything.
//! A cycle is the paper's Section 6 "physical/logical loop"; it is reported
//! as [`AnalysisError::CyclicDependency`] and handled by [`crate::fixpoint`].

use crate::error::AnalysisError;
use crate::policy::{policy_for, PeerInputs};
use rta_model::{JobId, ProcessorId, SubjobRef, TaskSystem};

/// Dense index for subjobs within one analysis run: subjobs enumerated job
/// by job, hop by hop, with each processor's subjob list — the one
/// structure the dependency edges, the evaluation order and the drivers'
/// peer tables are read from.
#[derive(Debug)]
pub struct SubjobIndex {
    refs: Vec<SubjobRef>,
    /// Dense index of each job's first subjob.
    job_start: Vec<usize>,
    /// Per processor, the dense indices of its subjobs in enumeration
    /// order.
    on: Vec<Vec<usize>>,
}

impl SubjobIndex {
    /// Enumerate all subjobs of a system.
    pub fn new(sys: &TaskSystem) -> SubjobIndex {
        let mut refs = Vec::new();
        let mut job_start = Vec::with_capacity(sys.jobs().len());
        let mut on: Vec<Vec<usize>> = vec![Vec::new(); sys.processors().len()];
        for (k, job) in sys.jobs().iter().enumerate() {
            job_start.push(refs.len());
            for (j, s) in job.subjobs.iter().enumerate() {
                let p = s.processor.0;
                if p >= on.len() {
                    on.resize_with(p + 1, Vec::new);
                }
                on[p].push(refs.len());
                refs.push(SubjobRef {
                    job: JobId(k),
                    index: j,
                });
            }
        }
        SubjobIndex {
            refs,
            job_start,
            on,
        }
    }

    /// Number of subjobs.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// `true` when the system has no subjobs.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Subjob at a dense index.
    pub fn subjob(&self, i: usize) -> SubjobRef {
        self.refs[i]
    }

    /// Dense index of a subjob.
    pub fn index(&self, r: SubjobRef) -> usize {
        let i = self.job_start[r.job.0] + r.index;
        debug_assert_eq!(self.refs[i], r, "subjob outside the indexed system");
        i
    }

    /// All subjob references in enumeration order.
    pub fn refs(&self) -> &[SubjobRef] {
        &self.refs
    }

    /// Dense index of each job's first subjob.
    pub(crate) fn job_starts(&self) -> &[usize] {
        &self.job_start
    }

    /// Dense indices of the subjobs on processor `p`, in enumeration order.
    pub(crate) fn on(&self, p: ProcessorId) -> &[usize] {
        self.on.get(p.0).map_or(&[], Vec::as_slice)
    }

    /// Dense indices of subjob `i`'s strictly-higher-priority peers on its
    /// processor (the summations of Theorems 3, 5 and 6), in enumeration
    /// order — [`TaskSystem::higher_priority_peers`] read from the
    /// processor's subjob list.
    pub(crate) fn higher_priority_peers<'a>(
        &'a self,
        sys: &'a TaskSystem,
        i: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        let s = sys.subjob(self.refs[i]);
        let phi = s.priority.expect("priorities must be assigned");
        self.on(s.processor)
            .iter()
            .copied()
            .filter(move |&h| h != i && sys.subjob(self.refs[h]).priority.expect("assigned") < phi)
    }
}

/// Build the dependency edge list (`from → to` as dense indices), sorted
/// and deduplicated.
pub fn dependency_edges(sys: &TaskSystem, idx: &SubjobIndex) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for (i, &r) in idx.refs().iter().enumerate() {
        // Chain edge from the predecessor hop, the previous dense index.
        if r.index > 0 {
            edges.push((i - 1, i));
        }
        let p = sys.subjob(r).processor;
        match policy_for(sys.processor(p).scheduler).peer_inputs() {
            PeerInputs::HigherPriorityServices => {
                edges.extend(idx.higher_priority_peers(sys, i).map(|h| (h, i)));
            }
            PeerInputs::SharedWorkloads => {
                // Need every sharing subjob's arrival, i.e. its predecessor's
                // departure (first hops have primary arrivals — no edge).
                // When that predecessor is this subjob itself (its own next
                // hop shares the processor), the edge is a self-loop: the
                // subjob's context would read its own departure, a physical
                // loop (Section 6) that the one-pass analyses must refuse.
                for &o in idx.on(p) {
                    if o != i && idx.subjob(o).index > 0 {
                        edges.push((o - 1, i));
                    }
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Dependency edges with forward **and** reverse adjacency, the substrate of
/// incremental invalidation: forward edges give "who must be recomputed
/// after me", reverse edges give "whose outputs I read". Both directions
/// are flat (compressed-row) tables over the one edge list.
#[derive(Debug)]
pub struct DepGraph {
    out_start: Vec<usize>,
    out: Vec<usize>,
    in_start: Vec<usize>,
    input: Vec<usize>,
}

impl DepGraph {
    /// Build both adjacency directions from [`dependency_edges`].
    pub fn new(sys: &TaskSystem, idx: &SubjobIndex) -> DepGraph {
        let edges = dependency_edges(sys, idx);
        let n = idx.len();
        let (mut out_start, mut in_start) = (vec![0usize; n + 1], vec![0usize; n + 1]);
        for &(a, b) in &edges {
            out_start[a + 1] += 1;
            in_start[b + 1] += 1;
        }
        for i in 0..n {
            out_start[i + 1] += out_start[i];
            in_start[i + 1] += in_start[i];
        }
        // The edges are sorted by source, then target: the targets in
        // order are the forward table, and a counting pass by target keeps
        // each node's sources ascending.
        let out = edges.iter().map(|&(_, b)| b).collect();
        let mut input = vec![0usize; edges.len()];
        let mut fill = in_start[..n].to_vec();
        for &(a, b) in &edges {
            input[fill[b]] = a;
            fill[b] += 1;
        }
        DepGraph {
            out_start,
            out,
            in_start,
            input,
        }
    }

    /// Number of subjobs (nodes).
    pub fn len(&self) -> usize {
        self.out_start.len() - 1
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Subjobs whose curves must be recomputed when `i` changes.
    pub fn dependents(&self, i: usize) -> &[usize] {
        &self.out[self.out_start[i]..self.out_start[i + 1]]
    }

    /// Subjobs whose curves `i` reads.
    pub fn inputs(&self, i: usize) -> &[usize] {
        &self.input[self.in_start[i]..self.in_start[i + 1]]
    }

    /// Topologically order the subjobs (Kahn's algorithm, ties in index
    /// order); errors with the residual node set on a cycle.
    pub(crate) fn evaluation_order(&self, idx: &SubjobIndex) -> Result<Vec<usize>, AnalysisError> {
        let n = self.len();
        let mut indegree: Vec<usize> = (0..n).map(|i| self.inputs(i).len()).collect();
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &j in self.dependents(i) {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    queue.push_back(j);
                }
            }
        }
        if order.len() < n {
            let cycle = (0..n)
                .filter(|&i| indegree[i] > 0)
                .map(|i| idx.subjob(i))
                .collect();
            return Err(AnalysisError::CyclicDependency { cycle });
        }
        Ok(order)
    }
}

/// The downstream closure of a set of directly-invalidated subjobs.
///
/// After a delta (execution-time change, priority move, job added/removed),
/// the subjobs whose inputs changed are marked with [`DirtyCone::mark`];
/// [`DirtyCone::propagate`] closes the set over the forward edges of a
/// [`DepGraph`]. Everything outside the cone may reuse its previous curves
/// verbatim — its inputs are bit-identical to the previous run.
#[derive(Debug, Clone)]
pub struct DirtyCone {
    dirty: Vec<bool>,
}

impl DirtyCone {
    /// An all-clean cone over `n` subjobs.
    pub fn clean(n: usize) -> DirtyCone {
        DirtyCone {
            dirty: vec![false; n],
        }
    }

    /// An all-dirty cone over `n` subjobs (full recompute).
    pub fn all(n: usize) -> DirtyCone {
        DirtyCone {
            dirty: vec![true; n],
        }
    }

    /// Mark one subjob as directly invalidated.
    pub fn mark(&mut self, i: usize) {
        self.dirty[i] = true;
    }

    /// Close the dirty set over the forward dependency edges (BFS).
    pub fn propagate(&mut self, graph: &DepGraph) {
        assert_eq!(graph.len(), self.dirty.len());
        let mut frontier: std::collections::VecDeque<usize> =
            (0..self.dirty.len()).filter(|&i| self.dirty[i]).collect();
        while let Some(i) = frontier.pop_front() {
            for &j in graph.dependents(i) {
                if !self.dirty[j] {
                    self.dirty[j] = true;
                    frontier.push_back(j);
                }
            }
        }
    }

    /// Whether subjob `i` must be recomputed.
    pub fn is_dirty(&self, i: usize) -> bool {
        self.dirty[i]
    }

    /// Number of subjobs in the cone.
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// Total number of subjobs tracked.
    pub fn len(&self) -> usize {
        self.dirty.len()
    }

    /// `true` when the cone tracks no subjobs.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }
}

/// Topologically order the subjobs; errors with the residual node set on a
/// cycle. Callers that also need the graph build it once and ask it
/// ([`DepGraph::evaluation_order`]).
pub fn evaluation_order(sys: &TaskSystem, idx: &SubjobIndex) -> Result<Vec<usize>, AnalysisError> {
    DepGraph::new(sys, idx).evaluation_order(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_curves::Time;
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{ArrivalPattern, JobId, SchedulerKind, SystemBuilder};

    fn periodic(p: i64) -> ArrivalPattern {
        ArrivalPattern::Periodic {
            period: Time(p),
            offset: Time::ZERO,
        }
    }

    #[test]
    fn chain_and_priority_edges() {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(50),
            periodic(50),
            vec![(p1, Time(5)), (p2, Time(5))],
        );
        let t2 = b.add_job("T2", Time(90), periodic(90), vec![(p1, Time(9))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let idx = SubjobIndex::new(&sys);
        let order = evaluation_order(&sys, &idx).unwrap();
        let pos = |r: SubjobRef| order.iter().position(|&i| idx.subjob(i) == r).unwrap();
        // T1 hop 0 before hop 1 (chain) and before T2 hop 0 (priority).
        let t1h0 = SubjobRef { job: t1, index: 0 };
        let t1h1 = SubjobRef { job: t1, index: 1 };
        let t2h0 = SubjobRef { job: t2, index: 0 };
        assert!(pos(t1h0) < pos(t1h1));
        assert!(pos(t1h0) < pos(t2h0));
        let _ = JobId(0);
    }

    #[test]
    fn fcfs_needs_peer_predecessors() {
        // T1: P1 → P2 (FCFS). T2: single hop on P2. Computing T2's FCFS
        // bound needs T1 hop 0's departure (arrival of T1 hop 1 on P2).
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Fcfs);
        let p2 = b.add_processor("P2", SchedulerKind::Fcfs);
        let t1 = b.add_job(
            "T1",
            Time(50),
            periodic(50),
            vec![(p1, Time(5)), (p2, Time(5))],
        );
        let t2 = b.add_job("T2", Time(90), periodic(90), vec![(p2, Time(9))]);
        let sys = b.build().unwrap();
        let idx = SubjobIndex::new(&sys);
        let edges = dependency_edges(&sys, &idx);
        let t1h0 = idx.index(SubjobRef { job: t1, index: 0 });
        let t2h0 = idx.index(SubjobRef { job: t2, index: 0 });
        assert!(edges.contains(&(t1h0, t2h0)));
        assert!(evaluation_order(&sys, &idx).is_ok());
    }

    #[test]
    fn consecutive_hops_on_one_fcfs_processor_are_a_loop() {
        // T1 visits the FCFS processor P1 twice in a row: its first hop's
        // context needs the second hop's arrival, i.e. its own departure.
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Fcfs);
        let t1 = b.add_job(
            "T1",
            Time(50),
            periodic(50),
            vec![(p1, Time(5)), (p1, Time(5))],
        );
        let sys = b.build().unwrap();
        let idx = SubjobIndex::new(&sys);
        let first = idx.index(SubjobRef { job: t1, index: 0 });
        assert!(dependency_edges(&sys, &idx).contains(&(first, first)));
        assert!(matches!(
            evaluation_order(&sys, &idx),
            Err(AnalysisError::CyclicDependency { .. })
        ));
    }

    #[test]
    fn physical_loop_is_detected() {
        // A job visiting the same processor twice with interleaved
        // priorities creates the Section 6 cycle: T1 hop 1 depends on T2
        // hop 0 (higher priority on P2), which depends on T2's... build the
        // classic two-job figure-eight.
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        // T1: P1 then P2; T2: P2 then P1.
        let t1 = b.add_job(
            "T1",
            Time(50),
            periodic(50),
            vec![(p1, Time(5)), (p2, Time(5))],
        );
        let t2 = b.add_job(
            "T2",
            Time(50),
            periodic(50),
            vec![(p2, Time(5)), (p1, Time(5))],
        );
        // Priorities chosen to close the loop: on P1, T2's hop 1 outranks
        // T1's hop 0; on P2, T1's hop 1 outranks T2's hop 0.
        b.set_priority(SubjobRef { job: t1, index: 0 }, 2);
        b.set_priority(SubjobRef { job: t2, index: 1 }, 1);
        b.set_priority(SubjobRef { job: t1, index: 1 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        let sys = b.build().unwrap();
        let idx = SubjobIndex::new(&sys);
        match evaluation_order(&sys, &idx) {
            Err(AnalysisError::CyclicDependency { cycle }) => {
                assert!(cycle.len() >= 2, "cycle must name participants");
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn dirty_cone_closes_downstream_only() {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(50),
            periodic(50),
            vec![(p1, Time(5)), (p2, Time(5))],
        );
        let t2 = b.add_job("T2", Time(90), periodic(90), vec![(p1, Time(9))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let idx = SubjobIndex::new(&sys);
        let graph = DepGraph::new(&sys, &idx);
        let t1h0 = idx.index(SubjobRef { job: t1, index: 0 });
        let t1h1 = idx.index(SubjobRef { job: t1, index: 1 });
        let t2h0 = idx.index(SubjobRef { job: t2, index: 0 });
        // Reverse edges mirror the forward ones.
        assert!(graph.dependents(t1h0).contains(&t1h1));
        assert!(graph.inputs(t2h0).contains(&t1h0));
        // Dirtying the root pulls in the chain successor and the
        // lower-priority peer; dirtying a leaf pulls in nothing else.
        let mut cone = DirtyCone::clean(idx.len());
        cone.mark(t1h0);
        cone.propagate(&graph);
        assert!(cone.is_dirty(t1h0) && cone.is_dirty(t1h1) && cone.is_dirty(t2h0));
        assert_eq!(cone.dirty_count(), 3);
        let mut leaf = DirtyCone::clean(idx.len());
        leaf.mark(t1h1);
        leaf.propagate(&graph);
        assert_eq!(leaf.dirty_count(), 1);
        assert!(!leaf.is_dirty(t2h0));
        assert_eq!(DirtyCone::all(idx.len()).dirty_count(), idx.len());
    }

    #[test]
    fn independent_jobs_any_order() {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        let t1 = b.add_job("T1", Time(50), periodic(50), vec![(p1, Time(5))]);
        let t2 = b.add_job("T2", Time(50), periodic(50), vec![(p2, Time(5))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let idx = SubjobIndex::new(&sys);
        assert!(dependency_edges(&sys, &idx).is_empty());
        assert_eq!(evaluation_order(&sys, &idx).unwrap().len(), 2);
        let _ = (t1, t2);
    }
}
