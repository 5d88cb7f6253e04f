//! The single-threaded Thorup engine behind every one-thread solve.
//!
//! The paper benchmarks a *serial* Thorup build on a Linux workstation
//! (its Table 1) separately from the MTA-2 code. This module is that
//! engine: the same Component Hierarchy traversal as
//! [`crate::solver::ThorupSolver`], but over plain arrays — no atomics, no
//! settled bitset CAS, no pull-refresh CAS loop — and with one shared
//! visit stack instead of a `toVisit` buffer per visit frame.
//!
//! It serves every solve that runs on one thread: the pooled
//! [`BatchSolver`](crate::BatchSolver) (and through it the service's solo,
//! point-to-point and coalesced paths, `QueryEngine`'s simultaneous mode,
//! hub tables and [`LayoutSolver`](crate::LayoutSolver)). The concurrent
//! solver keeps the multi-threaded role and stays the independent second
//! implementation: the two give identical distances, and identical
//! `settled`, `arcs_scanned`, `relaxations`, `improvements` and
//! `mind_propagation_hops` counts on full solves.
//!
//! `bucket_expansions` counts differently. The concurrent loop counts
//! every iteration that passes its bucket checks, including the one that
//! only discovers a stale `mind` and re-scans. This engine folds that
//! re-scan into the expansion it precedes whenever the fresh minimum
//! stays in the same child bucket, and counts one per `toVisit` set
//! actually expanded — about half the concurrent count on the workload
//! grid. `serial_loops` and `parallel_loop_setups` stay 0: no `toVisit`
//! strategy is chosen here.

use crate::analysis::QueryTrace;
use mmt_ch::ComponentHierarchy;
use mmt_graph::types::{Dist, VertexId, INF};
use mmt_graph::CsrGraph;
use mmt_platform::atomic::saturating_shr;
use mmt_platform::{CancelToken, EventCounters};

/// Single-threaded Thorup SSSP over a (shared, read-only) hierarchy: a
/// reusable plain-array query state, re-armed by every solve.
///
/// ```
/// use mmt_ch::build_parallel;
/// use mmt_graph::{gen::shapes, CsrGraph};
/// use mmt_platform::CancelToken;
/// use mmt_thorup::SerialThorup;
///
/// let el = shapes::figure_one();
/// let g = CsrGraph::from_edge_list(&el);
/// let ch = build_parallel(&el);
/// let mut engine = SerialThorup::new(&g, &ch);
/// assert_eq!(engine.solve(0), vec![0, 1, 1, 9, 10, 10]);
/// let token = CancelToken::new();
/// assert_eq!(engine.solve_target_with_cancel(0, 2, &token), Some(1));
/// ```
#[derive(Debug)]
pub struct SerialThorup<'a> {
    graph: &'a CsrGraph,
    ch: &'a ComponentHierarchy,
    counters: Option<&'a EventCounters>,
    dist: Vec<Dist>,
    mind: Vec<Dist>,
    settled: Vec<bool>,
    /// The `toVisit` sets of every live visit frame, innermost last; a
    /// frame truncates back to its own base when it returns.
    stack: Vec<u32>,
    /// Raised by a settled target or an observed cancellation; every
    /// visit frame unwinds once it is set.
    stop: bool,
    trace: Option<Box<QueryTrace>>,
}

impl<'a> SerialThorup<'a> {
    /// Creates an engine; reusable across queries (state re-armed per
    /// solve).
    ///
    /// # Panics
    ///
    /// Panics when the hierarchy was built for a different graph.
    pub fn new(graph: &'a CsrGraph, ch: &'a ComponentHierarchy) -> Self {
        assert_eq!(
            graph.n(),
            ch.n(),
            "hierarchy was built for a different graph"
        );
        Self {
            graph,
            ch,
            counters: None,
            dist: vec![INF; graph.n()],
            mind: vec![INF; ch.num_nodes()],
            settled: vec![false; graph.n()],
            stack: Vec::new(),
            stop: false,
            trace: None,
        }
    }

    /// Attaches event counters (instrumented runs).
    pub fn with_counters(mut self, counters: &'a EventCounters) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Solves SSSP from `source`, returning the distance vector.
    pub fn solve(&mut self, source: VertexId) -> Vec<Dist> {
        self.run(source, None, &|| false);
        self.dist.clone()
    }

    /// As [`solve`](Self::solve), additionally recording a
    /// [`QueryTrace`] of the traversal's behaviour.
    pub fn solve_traced(&mut self, source: VertexId) -> (Vec<Dist>, QueryTrace) {
        self.trace = Some(Box::new(QueryTrace::new()));
        let dist = self.solve(source);
        let trace = *self.trace.take().expect("installed above");
        (dist, trace)
    }

    /// Solves SSSP from `source` into this state, polling `cancel` at
    /// every bucket expansion. Returns `true` when the solve ran to
    /// completion — [`distances`](Self::distances) then holds exact
    /// distances — and `false` when the token fired first.
    pub fn solve_with_cancel(&mut self, source: VertexId, cancel: &CancelToken) -> bool {
        if cancel.is_cancelled() {
            return false;
        }
        self.run(source, None, &|| cancel.is_cancelled());
        !self.stop
    }

    /// Point-to-point query: runs from `source` and stops as soon as
    /// `target` settles, polling `cancel` at every bucket expansion.
    /// Returns `δ(source, target)` (`INF` when unreachable), or `None`
    /// when `cancel` fired before the answer was known. Only the target's
    /// and already-settled vertices' distances are final afterwards.
    pub fn solve_target_with_cancel(
        &mut self,
        source: VertexId,
        target: VertexId,
        cancel: &CancelToken,
    ) -> Option<Dist> {
        assert!((target as usize) < self.graph.n(), "target out of range");
        if cancel.is_cancelled() {
            return None;
        }
        self.run(source, Some(target), &|| cancel.is_cancelled());
        if self.settled[target as usize] {
            Some(self.dist[target as usize])
        } else if self.stop {
            None
        } else {
            Some(INF)
        }
    }

    /// The distances of the last solve (exact after a completed full
    /// solve).
    pub fn distances(&self) -> &[Dist] {
        &self.dist
    }

    /// Re-arms the state and runs one traversal. `interrupted` is polled
    /// at every bucket expansion; once it reads true the solve unwinds
    /// with `stop` raised (as a settled target also raises it).
    pub(crate) fn run(
        &mut self,
        source: VertexId,
        target: Option<VertexId>,
        interrupted: &dyn Fn() -> bool,
    ) {
        assert!((source as usize) < self.graph.n(), "source out of range");
        self.dist.fill(INF);
        self.mind.fill(INF);
        self.settled.fill(false);
        self.stop = false;
        self.dist[source as usize] = 0;
        self.bubble_mind(source, 0);
        // The root is visited under a sentinel parent: shift 64 saturates
        // every finite mind into "bucket 0", so the root only returns when
        // its subtree is exhausted (all settled or remainder unreachable).
        self.visit(self.ch.root(), 64, 0, target, interrupted);
    }

    /// Lowers `mind` from `vertex`'s leaf upward, stopping at the first
    /// ancestor that already knows something at least as small.
    fn bubble_mind(&mut self, vertex: VertexId, value: Dist) {
        let mut x = self.ch.leaf_of_vertex(vertex);
        let mut hops = 0u64;
        loop {
            if self.mind[x as usize] <= value {
                break;
            }
            self.mind[x as usize] = value;
            hops += 1;
            let p = self.ch.parent(x);
            if p == x {
                break;
            }
            x = p;
        }
        if let Some(ev) = self.counters {
            ev.mind_propagation_hops.add(hops);
        }
        if let Some(t) = self.trace.as_mut() {
            t.mind_hops.record(hops);
        }
    }

    /// Recursive component visit. Invariant on entry: the parent observed
    /// `mind(node) >> parent_alpha == bucket` (or the sentinel for the
    /// root). Returns when the component is done, its `mind` leaves that
    /// bucket, or `stop` is raised.
    fn visit(
        &mut self,
        node: u32,
        parent_alpha: u8,
        bucket: u64,
        target: Option<VertexId>,
        interrupted: &dyn Fn() -> bool,
    ) {
        let ch = self.ch;
        if ch.is_leaf(node) {
            self.settle(node, target);
            return;
        }
        let alpha = ch.alpha(node);
        let children = ch.children(node);
        let base = self.stack.len();
        // `mind[node]` never exceeds its children's minimum; it only lags
        // below it after this frame's own expansions settle vertices.
        let mut m = self.mind[node as usize];
        while !self.stop {
            if interrupted() {
                self.stop = true;
                break;
            }
            if m == INF || saturating_shr(m, parent_alpha as u32) != bucket {
                // Done, or moved past the parent's bucket: hand control
                // back (a lagging `m` is a lower bound, so both exits are
                // already certain).
                break;
            }
            // One fused pass: the fresh minimum and the members of the
            // bucket `m` names.
            let own_bucket = saturating_shr(m, alpha as u32);
            let mut fresh = INF;
            for &c in children {
                let cm = self.mind[c as usize];
                fresh = fresh.min(cm);
                if cm != INF && saturating_shr(cm, alpha as u32) == own_bucket {
                    self.stack.push(c);
                }
            }
            if fresh != m {
                self.mind[node as usize] = fresh;
                m = fresh;
                if fresh == INF
                    || saturating_shr(fresh, parent_alpha as u32) != bucket
                    || saturating_shr(fresh, alpha as u32) != own_bucket
                {
                    // `m` lagged: re-check, and re-scan for the bucket the
                    // fresh minimum names.
                    self.stack.truncate(base);
                    continue;
                }
            }
            let end = self.stack.len();
            debug_assert!(end > base, "the minimum child is in its own bucket");
            if let Some(ev) = self.counters {
                ev.bucket_expansions.bump();
            }
            if let Some(t) = self.trace.as_mut() {
                t.tovisit_sizes.record((end - base) as u64);
                t.expansions_by_alpha[(alpha as usize).min(64)] += 1;
            }
            for i in base..end {
                if self.stop {
                    break;
                }
                let c = self.stack[i];
                self.visit(c, alpha, own_bucket, target, interrupted);
            }
            self.stack.truncate(base);
            m = self.mind[node as usize];
        }
        self.stack.truncate(base);
    }

    /// Settles the vertex of `leaf` and relaxes its edges.
    fn settle(&mut self, leaf: u32, target: Option<VertexId>) {
        let v = self.ch.vertex_of_leaf(leaf);
        // Clear before relaxing so parents stop re-bucketing this leaf.
        self.mind[leaf as usize] = INF;
        if std::mem::replace(&mut self.settled[v as usize], true) {
            return;
        }
        if target == Some(v) {
            self.stop = true;
        }
        // Thorup's lemma guarantees d(v) = δ(v) here.
        let d = self.dist[v as usize];
        debug_assert_ne!(d, INF, "settling an unreached vertex");
        let graph = self.graph;
        let (targets, weights) = graph.neighbors(v);
        let mut improved = 0u64;
        for (&u, &w) in targets.iter().zip(weights) {
            let nd = d + w as Dist;
            if nd < self.dist[u as usize] {
                self.dist[u as usize] = nd;
                if !self.settled[u as usize] {
                    improved += 1;
                    self.bubble_mind(u, nd);
                }
            }
        }
        let arcs = targets.len() as u64;
        if let Some(ev) = self.counters {
            ev.settled.bump();
            ev.arcs_scanned.add(arcs);
            ev.relaxations.add(arcs);
            ev.improvements.add(improved);
        }
        if let Some(t) = self.trace.as_mut() {
            t.settled += 1;
            t.relaxations += arcs;
            t.improvements += improved;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::ThorupInstance;
    use crate::solver::{ThorupConfig, ThorupSolver};
    use mmt_baselines::dijkstra;
    use mmt_ch::{build_serial, ChMode};
    use mmt_graph::gen::shapes;
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::types::EdgeList;
    use std::cell::Cell;

    fn check(el: &EdgeList, sources: &[u32]) {
        let g = CsrGraph::from_edge_list(el);
        let ch = build_serial(el, ChMode::Collapsed);
        let concurrent = ThorupSolver::new(&g, &ch);
        let mut serial = SerialThorup::new(&g, &ch);
        for &s in sources {
            assert_eq!(serial.solve(s), concurrent.solve(s), "source {s}");
        }
    }

    fn grid() -> Vec<EdgeList> {
        let mut out = Vec::new();
        for class in [GraphClass::Random, GraphClass::Rmat] {
            for dist in [WeightDist::Uniform, WeightDist::PolyLog] {
                let mut spec = WorkloadSpec::new(class, dist, 8, 9);
                spec.seed = 13;
                out.push(spec.generate());
            }
        }
        out
    }

    #[test]
    fn matches_concurrent_on_shapes() {
        check(&shapes::figure_one(), &[0, 3, 5]);
        check(&shapes::path(12, 3), &[0, 6]);
        check(&shapes::star(9, 5), &[0, 4]);
        check(&EdgeList::from_triples(4, [(0, 1, 2)]), &[0, 3]);
        check(&EdgeList::new(1), &[0]);
    }

    #[test]
    fn matches_concurrent_on_workload_grid() {
        for el in grid() {
            check(&el, &[0, 50, 200]);
        }
    }

    #[test]
    fn engine_is_reusable() {
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let mut engine = SerialThorup::new(&g, &ch);
        let a = engine.solve(0);
        let b = engine.solve(5);
        let a2 = engine.solve(0);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a, vec![0, 1, 1, 9, 10, 10]);
    }

    /// Per-solve work equals the atomic solver's on every grid cell, so
    /// switching engines leaves arcs-per-query figures unchanged.
    #[test]
    fn work_counters_match_the_concurrent_solver() {
        for el in grid() {
            let g = CsrGraph::from_edge_list(&el);
            let ch = build_serial(&el, ChMode::Collapsed);
            for s in [0u32, 50, 200] {
                let (a, b) = (EventCounters::new(), EventCounters::new());
                let atomic = ThorupSolver::new(&g, &ch)
                    .with_config(ThorupConfig::serial())
                    .with_counters(&a);
                let inst = ThorupInstance::new(&ch);
                atomic.solve_into(&inst, s);
                let mut plain = SerialThorup::new(&g, &ch).with_counters(&b);
                assert_eq!(plain.solve(s), inst.distances(), "source {s}");
                let (a, b) = (a.snapshot(), b.snapshot());
                assert!(a.settled > 0);
                assert_eq!(a.settled, b.settled, "settled, source {s}");
                assert_eq!(a.arcs_scanned, b.arcs_scanned, "arcs, source {s}");
                assert_eq!(a.relaxations, b.relaxations, "relaxations, source {s}");
                assert_eq!(a.improvements, b.improvements, "improvements, source {s}");
                assert_eq!(
                    a.mind_propagation_hops, b.mind_propagation_hops,
                    "mind hops, source {s}"
                );
                // Folded stale re-scans: never more expansions, never none.
                assert!(b.bucket_expansions > 0);
                assert!(b.bucket_expansions <= a.bucket_expansions);
            }
        }
    }

    #[test]
    fn token_fired_mid_traversal_cancels_and_state_stays_reusable() {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 9, 6);
        spec.seed = 31;
        let el = spec.generate();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let counters = EventCounters::new();
        let mut engine = SerialThorup::new(&g, &ch).with_counters(&counters);
        // Fire on the 20th expansion poll: well inside the traversal.
        let token = CancelToken::new();
        let polls = Cell::new(0u32);
        let poll = || {
            polls.set(polls.get() + 1);
            if polls.get() == 20 {
                token.cancel();
            }
            token.is_cancelled()
        };
        engine.run(0, None, &poll);
        assert!(engine.stop, "the interruption reads as cancelled");
        assert_eq!(polls.get(), 20, "no poll after the token fired");
        let partial = counters.snapshot().settled;
        assert!(partial > 0 && (partial as usize) < g.n(), "{partial}");
        // The public form sees the fired token and refuses up front.
        assert!(!engine.solve_with_cancel(0, &token));
        assert_eq!(engine.solve_target_with_cancel(0, 5, &token), None);
        // The same state answers the next source exactly.
        for s in [7u32, 0] {
            assert!(engine.solve_with_cancel(s, &CancelToken::new()));
            assert_eq!(engine.distances(), &dijkstra(&g, s)[..], "source {s}");
        }
    }

    #[test]
    fn expired_deadline_interrupts_solve() {
        let el = shapes::path(256, 1);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let mut engine = SerialThorup::new(&g, &ch);
        let token = CancelToken::with_deadline(std::time::Instant::now());
        assert!(!engine.solve_with_cancel(0, &token));
        assert_eq!(engine.solve_target_with_cancel(0, 255, &token), None);
    }

    #[test]
    fn target_solve_equals_full_solve_at_target() {
        for el in grid() {
            let g = CsrGraph::from_edge_list(&el);
            let ch = build_serial(&el, ChMode::Collapsed);
            let mut engine = SerialThorup::new(&g, &ch);
            for s in [0u32, 50] {
                let full = engine.solve(s);
                for t in [s, 1, 77, 200, 255] {
                    assert_eq!(
                        engine.solve_target_with_cancel(s, t, &CancelToken::new()),
                        Some(full[t as usize]),
                        "{s}->{t}"
                    );
                }
            }
        }
    }

    #[test]
    fn target_solve_stops_early_and_reports_unreachable() {
        let live = CancelToken::new();
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let counters = EventCounters::new();
        let mut engine = SerialThorup::new(&g, &ch).with_counters(&counters);
        // Target inside the source triangle: the far triangle is skipped.
        assert_eq!(engine.solve_target_with_cancel(0, 2, &live), Some(1));
        assert!(counters.snapshot().settled < 6, "early exit skipped work");
        let el = EdgeList::from_triples(3, [(0, 1, 2)]);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let mut engine = SerialThorup::new(&g, &ch);
        assert_eq!(engine.solve_target_with_cancel(0, 2, &live), Some(INF));
        assert_eq!(engine.solve_target_with_cancel(0, 1, &live), Some(2));
    }
}
