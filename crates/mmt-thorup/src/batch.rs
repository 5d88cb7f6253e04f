//! Batched simultaneous SSSP with pooled per-query memory.
//!
//! [`multi::QueryEngine`](crate::QueryEngine) proves the paper's point that
//! `k` Thorup queries can share one Component Hierarchy. This module is the
//! allocation-free form of the same idea, and the home of every
//! single-threaded Thorup solve:
//!
//! * [`BatchSolver`] — a reusable batch engine that pools plain-array
//!   [`SerialThorup`] states (peak-concurrency many, not batch-size many;
//!   each query runs on one thread, so it needs no atomics) and takes its
//!   result vectors from a [`DistancePool`]. The atomic
//!   [`ThorupInstance`](crate::ThorupInstance) and its
//!   [`InstancePool`](crate::InstancePool) serve the multi-threaded
//!   [`ThorupSolver`] only;
//! * [`DistancePool`] / [`PooledDistances`] — result buffers that return
//!   to the pool when the caller drops them, so a steady stream of batches
//!   reaches a fixed point where no query allocates at all. The pools'
//!   `created` counters make that a testable property rather than a hope.

use crate::serial::SerialThorup;
use crate::solver::ThorupSolver;
use mmt_ch::ComponentHierarchy;
use mmt_graph::types::{Dist, VertexId};
use mmt_graph::CsrGraph;
use mmt_platform::scratch::BufferPool;
use mmt_platform::{CancelToken, EventCounters};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A shareable pool of result-distance vectors.
///
/// Cloning is cheap (the clones share one pool). Buffers handed out as
/// [`PooledDistances`] come back automatically on drop.
#[derive(Debug, Clone, Default)]
pub struct DistancePool {
    inner: Arc<BufferPool<Dist>>,
}

impl DistancePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer (allocating only when the pool is dry).
    pub fn acquire(&self) -> Vec<Dist> {
        self.inner.acquire()
    }

    /// Wraps a filled buffer so it returns here when dropped.
    pub fn wrap(&self, buf: Vec<Dist>) -> PooledDistances {
        PooledDistances {
            pool: Arc::clone(&self.inner),
            buf: Some(buf),
        }
    }

    /// Buffers ever allocated. Flat across a window of batches ⇒ the
    /// window ran without a single result-vector allocation.
    pub fn created(&self) -> usize {
        self.inner.created()
    }

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.inner.idle()
    }
}

/// A query's distance vector, on loan from a [`DistancePool`].
///
/// Dereferences to `[Dist]`; dropping it returns the buffer to the pool
/// for the next query. Use [`detach`](Self::detach) to keep the vector
/// permanently (long-lived tables).
#[derive(Debug)]
pub struct PooledDistances {
    pool: Arc<BufferPool<Dist>>,
    buf: Option<Vec<Dist>>,
}

impl PooledDistances {
    /// Takes the vector out of pool circulation (for results that outlive
    /// the batch, e.g. a precomputed hub table).
    pub fn detach(mut self) -> Vec<Dist> {
        self.buf.take().expect("buffer present until drop")
    }
}

impl Deref for PooledDistances {
    type Target = [Dist];

    fn deref(&self) -> &[Dist] {
        self.buf.as_deref().expect("buffer present until drop")
    }
}

impl PartialEq for PooledDistances {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for PooledDistances {}

impl Drop for PooledDistances {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.release(buf);
        }
    }
}

/// A reusable engine for simultaneous batches over one shared hierarchy.
///
/// Queries run concurrently, each on one thread (the batch's parallelism
/// is across queries, as in [`BatchMode::Simultaneous`](crate::BatchMode))
/// over a pooled [`SerialThorup`] state; states and result vectors are
/// pooled, so repeated batches settle into a zero per-query-allocation
/// steady state.
///
/// ```
/// use mmt_ch::build_parallel;
/// use mmt_graph::{gen::shapes, CsrGraph};
/// use mmt_thorup::{BatchSolver, ThorupSolver};
///
/// let el = shapes::figure_one();
/// let g = CsrGraph::from_edge_list(&el);
/// let ch = build_parallel(&el);
/// let solver = ThorupSolver::new(&g, &ch);
/// let batch = BatchSolver::new(&solver);
/// let rows = batch.solve_batch(&[0, 3]);
/// assert_eq!(&rows[0][..], &[0, 1, 1, 9, 10, 10]);
/// ```
#[derive(Debug)]
pub struct BatchSolver<'a> {
    graph: &'a CsrGraph,
    ch: &'a ComponentHierarchy,
    counters: Option<&'a EventCounters>,
    states: Mutex<Vec<SerialThorup<'a>>>,
    created: AtomicUsize,
    distances: DistancePool,
}

impl<'a> BatchSolver<'a> {
    /// Wraps a solver's graph, hierarchy and counters for pooled batch
    /// execution on the serial engine (the solver's strategy settings do
    /// not apply: every query runs on one thread).
    pub fn new(solver: &ThorupSolver<'a>) -> Self {
        let (graph, ch, counters) = solver.parts();
        Self::over(graph, ch, counters)
    }

    /// A batch engine over `graph` and its hierarchy `ch`.
    pub(crate) fn over(
        graph: &'a CsrGraph,
        ch: &'a ComponentHierarchy,
        counters: Option<&'a EventCounters>,
    ) -> Self {
        Self {
            graph,
            ch,
            counters,
            states: Mutex::new(Vec::new()),
            created: AtomicUsize::new(0),
            distances: DistancePool::new(),
        }
    }

    /// Allocates a fresh state (counted in `instances_created`).
    fn new_state(&self) -> SerialThorup<'a> {
        self.created.fetch_add(1, Ordering::Relaxed);
        let state = SerialThorup::new(self.graph, self.ch);
        match self.counters {
            Some(c) => state.with_counters(c),
            None => state,
        }
    }

    /// Runs `f` on a pooled serial state (allocating one only when the
    /// pool is dry) and returns the state afterwards. A panic inside `f`
    /// drops the state instead; the next call allocates a fresh one.
    pub(crate) fn with_state<R>(&self, f: impl FnOnce(&mut SerialThorup<'a>) -> R) -> R {
        let pooled = self.states.lock().pop();
        let mut state = pooled.unwrap_or_else(|| self.new_state());
        let out = f(&mut state);
        self.states.lock().push(state);
        out
    }

    /// One query on `state` into a pooled result buffer; `None` when
    /// `cancel` fired.
    fn solve_on(
        &self,
        state: &mut SerialThorup<'a>,
        source: VertexId,
        cancel: Option<&CancelToken>,
    ) -> Option<PooledDistances> {
        match cancel {
            Some(token) if !state.solve_with_cancel(source, token) => return None,
            Some(_) => {}
            None => state.run(source, None, &|| false),
        }
        let mut buf = self.distances.acquire();
        buf.extend_from_slice(state.distances());
        Some(self.distances.wrap(buf))
    }

    /// Runs one SSSP per source simultaneously, returning pooled distance
    /// vectors in input order. Dropping a result recycles its buffer for
    /// the next batch.
    pub fn solve_batch(&self, sources: &[VertexId]) -> Vec<PooledDistances> {
        sources.par_iter().map(|&s| self.solve_one(s)).collect()
    }

    /// The cancellable form of [`solve_batch`](Self::solve_batch), for
    /// serving-layer coalescing where each member carries its own
    /// deadline/cancellation token. `tokens` pairs with `sources` by
    /// index; a member whose token fires mid-solve yields `None` while its
    /// batch-mates complete normally.
    ///
    /// # Panics
    ///
    /// Panics when `sources` and `tokens` disagree in length.
    pub fn solve_batch_with_cancel(
        &self,
        sources: &[VertexId],
        tokens: &[CancelToken],
    ) -> Vec<Option<PooledDistances>> {
        assert_eq!(
            sources.len(),
            tokens.len(),
            "one cancellation token per source"
        );
        (0..sources.len())
            .into_par_iter()
            .map(|i| self.with_state(|state| self.solve_on(state, sources[i], Some(&tokens[i]))))
            .collect()
    }

    /// One pooled query (convenience for interleaving single sources with
    /// batches on the same warm pools).
    pub fn solve_one(&self, source: VertexId) -> PooledDistances {
        self.with_state(|state| self.solve_on(state, source, None))
            .expect("an uncancellable solve always completes")
    }

    /// Serial states ever allocated — tracks peak concurrency, not query
    /// count.
    pub fn instances_created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Result vectors ever allocated — tracks peak in-flight results, not
    /// query count.
    pub fn distance_buffers_created(&self) -> usize {
        self.distances.created()
    }

    /// The shared result-buffer pool (shareable with other consumers).
    pub fn distance_pool(&self) -> &DistancePool {
        &self.distances
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_baselines::dijkstra;
    use mmt_ch::{build_serial, ChMode};
    use mmt_graph::gen::shapes;
    use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
    use mmt_graph::CsrGraph;

    #[test]
    fn batch_matches_dijkstra() {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::PolyLog, 7, 6);
        spec.seed = 21;
        let el = spec.generate();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let batch = BatchSolver::new(&solver);
        let sources = vec![0u32, 9, 55, 100];
        let rows = batch.solve_batch(&sources);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(&rows[i][..], &dijkstra(&g, s)[..], "source {s}");
        }
    }

    #[test]
    fn steady_state_batches_allocate_nothing() {
        let el = shapes::complete(24, 3);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let batch = BatchSolver::new(&solver);
        let sources: Vec<u32> = (0..12).collect();
        let want: Vec<Vec<u64>> = sources.iter().map(|&s| dijkstra(&g, s)).collect();
        // Warm-up batch populates both pools.
        let rows = batch.solve_batch(&sources);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&row[..], &want[i][..]);
        }
        // Dropping the rows returns their buffers to the pool.
        drop(rows);
        // States track peak concurrency: at most one per lane, however
        // many queries run. Which lanes overlap varies from run to run,
        // so the count is bounded, not pinned, across batches.
        let lanes = rayon::current_num_threads();
        assert!(batch.instances_created() >= 1 && batch.instances_created() <= lanes);
        let warm_buffers = batch.distance_buffers_created();
        assert!(warm_buffers >= 1 && warm_buffers <= sources.len());
        for _ in 0..4 {
            let rows = batch.solve_batch(&sources);
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(&row[..], &want[i][..]);
            }
        }
        assert!(
            batch.instances_created() <= lanes,
            "60 queries must run on at most one serial state per lane"
        );
        assert_eq!(
            batch.distance_buffers_created(),
            warm_buffers,
            "steady-state batches must reuse result buffers"
        );
        // One query at a time runs on one warm state: none is created.
        let warm_instances = batch.instances_created();
        for &s in &sources {
            assert_eq!(&batch.solve_one(s)[..], &want[s as usize][..]);
        }
        assert_eq!(
            batch.instances_created(),
            warm_instances,
            "sequential queries must reuse a pooled serial state"
        );
    }

    #[test]
    fn cancelled_members_yield_none_while_batchmates_complete() {
        let mut spec = WorkloadSpec::new(GraphClass::Random, WeightDist::Uniform, 7, 6);
        spec.seed = 22;
        let el = spec.generate();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let batch = BatchSolver::new(&solver);
        let sources = vec![0u32, 17, 40, 99];
        let tokens: Vec<CancelToken> = (0..4).map(|_| CancelToken::new()).collect();
        tokens[1].cancel();
        tokens[3].cancel();
        let rows = batch.solve_batch_with_cancel(&sources, &tokens);
        for (i, &s) in sources.iter().enumerate() {
            match &rows[i] {
                Some(row) => {
                    assert!(i == 0 || i == 2, "source {s} was cancelled");
                    assert_eq!(&row[..], &dijkstra(&g, s)[..], "source {s}");
                }
                None => assert!(i == 1 || i == 3, "source {s} was live"),
            }
        }
    }

    #[test]
    fn a_panicking_solve_drops_its_state_and_the_pool_recovers() {
        let el = shapes::path(16, 2);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let batch = BatchSolver::new(&solver);
        // An out-of-range source panics inside one lane's serial solve.
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batch.solve_batch(&[0, 99, 5])
        }));
        assert!(hit.is_err());
        let rows = batch.solve_batch(&[0, 5, 15]);
        for (row, s) in rows.iter().zip([0u32, 5, 15]) {
            assert_eq!(&row[..], &dijkstra(&g, s)[..], "source {s}");
        }
    }

    #[test]
    fn detach_keeps_the_vector_out_of_the_pool() {
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let batch = BatchSolver::new(&solver);
        let kept = batch.solve_one(0).detach();
        assert_eq!(kept, vec![0, 1, 1, 9, 10, 10]);
        assert_eq!(batch.distance_pool().idle(), 0, "detached buffer stays out");
        // The next query allocates a second buffer; dropping it returns it.
        drop(batch.solve_one(1));
        assert_eq!(batch.distance_buffers_created(), 2);
        assert_eq!(batch.distance_pool().idle(), 1);
    }

    #[test]
    fn empty_batch_is_empty() {
        let el = shapes::path(3, 1);
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let batch = BatchSolver::new(&solver);
        assert!(batch.solve_batch(&[]).is_empty());
        assert_eq!(batch.distance_buffers_created(), 0);
    }

    #[test]
    fn pooled_distances_compare_by_contents() {
        let el = shapes::figure_one();
        let g = CsrGraph::from_edge_list(&el);
        let ch = build_serial(&el, ChMode::Collapsed);
        let solver = ThorupSolver::new(&g, &ch);
        let batch = BatchSolver::new(&solver);
        let a = batch.solve_one(0);
        let b = batch.solve_one(0);
        let c = batch.solve_one(4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
