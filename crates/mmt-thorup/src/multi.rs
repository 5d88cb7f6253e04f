//! Simultaneous SSSP queries over one shared Component Hierarchy — the
//! paper's Section 5.5 / Figure 5 experiment, and the reason Thorup's
//! algorithm wins at batch workloads even though Δ-stepping wins single
//! queries.
//!
//! A Δ-stepping batch must run its (internally parallel) queries one after
//! another; the CH lets `k` Thorup queries run *concurrently in one
//! process*, each carrying only a lightweight per-query instance (Table 2's
//! "Instance" column) instead of a full copy of the graph.

use crate::batch::{BatchSolver, PooledDistances};
use crate::instance::ThorupInstance;
use crate::solver::ThorupSolver;
use mmt_graph::types::{Dist, VertexId};

/// How a batch of sources is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// All queries run concurrently, each internally serial (query-level
    /// parallelism; the paper's "simultaneous Thorup runs").
    Simultaneous,
    /// Queries run one after another, each internally parallel (the
    /// baseline the paper compares against).
    Sequential,
}

/// A batch engine over a shared solver.
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine<'a> {
    solver: ThorupSolver<'a>,
}

impl<'a> QueryEngine<'a> {
    /// Wraps a solver for batch execution.
    pub fn new(solver: ThorupSolver<'a>) -> Self {
        Self { solver }
    }

    /// Runs one query per source, returning the distance vectors in input
    /// order.
    pub fn solve_batch(&self, sources: &[VertexId], mode: BatchMode) -> Vec<Vec<Dist>> {
        match mode {
            // Inner solves run on one thread each: the pool's parallelism
            // is spent across queries, which is where a batch has the most
            // independent work (the paper's small-graph lesson: one query
            // cannot keep the whole machine busy).
            BatchMode::Simultaneous => BatchSolver::new(&self.solver)
                .solve_batch(sources)
                .into_iter()
                .map(PooledDistances::detach)
                .collect(),
            BatchMode::Sequential => sources
                .iter()
                .map(|&s| {
                    let inst = ThorupInstance::new(self.solver.hierarchy());
                    self.solver.solve_into(&inst, s);
                    inst.distances()
                })
                .collect(),
        }
    }

    /// Total instance bytes a `k`-source simultaneous batch keeps alive —
    /// the memory argument of the paper's Section 5.2.
    pub fn batch_instance_bytes(&self, k: usize) -> usize {
        k * mmt_ch::stats::instance_bytes(self.solver.hierarchy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_ch::{build_serial, ChMode};
    use mmt_graph::gen::shapes;
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::CsrGraph;

    #[test]
    fn modes_agree_on_figure_one() {
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let engine = QueryEngine::new(ThorupSolver::new(&g, &ch));
        let sources: Vec<u32> = (0..6).collect();
        let sim = engine.solve_batch(&sources, BatchMode::Simultaneous);
        let seq = engine.solve_batch(&sources, BatchMode::Sequential);
        assert_eq!(sim, seq);
        assert_eq!(sim[0], vec![0, 1, 1, 9, 10, 10]);
    }

    #[test]
    fn batch_matches_dijkstra_on_random_graph() {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 7, 6);
        spec.seed = 77;
        let el = spec.generate();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let engine = QueryEngine::new(ThorupSolver::new(&g, &ch));
        let sources = vec![0u32, 11, 42, 99, 3];
        let got = engine.solve_batch(&sources, BatchMode::Simultaneous);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(got[i], mmt_baselines::dijkstra(&g, s), "source {s}");
        }
    }

    #[test]
    fn batch_memory_scales_with_k() {
        let el = shapes::path(100, 2);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let engine = QueryEngine::new(ThorupSolver::new(&g, &ch));
        assert_eq!(
            engine.batch_instance_bytes(4),
            4 * engine.batch_instance_bytes(1)
        );
    }

    #[test]
    fn empty_batch() {
        let el = shapes::path(3, 1);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let engine = QueryEngine::new(ThorupSolver::new(&g, &ch));
        assert!(engine.solve_batch(&[], BatchMode::Simultaneous).is_empty());
    }
}
