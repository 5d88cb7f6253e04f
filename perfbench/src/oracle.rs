//! The Dijkstra oracle every answer is checked against.
//!
//! Full-SSSP answers are checked by a checksum of the whole distance
//! vector, so the oracle keeps 8 bytes per source instead of a vector
//! and `peak_rss_mb` stays the program's. Point-to-point answers are
//! checked against the exact distance.

use mmt_baselines::dijkstra;
use mmt_graph::types::{Dist, VertexId, INF};
use mmt_graph::CsrGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over every distance, `INF` included: any wrong entry changes it
/// except with probability about 2^-64.
pub fn checksum(dist: &[Dist]) -> u64 {
    dist.iter().fold(0xcbf2_9ce4_8422_2325, |h, &d| {
        (h ^ d).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One request of a workload's pool, with the answer it must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Source vertex.
    pub source: VertexId,
    /// Target vertex for a point-to-point request.
    pub target: Option<VertexId>,
    /// [`checksum`] of the full distance vector, or the s–t distance.
    pub expect: u64,
}

impl Job {
    /// Whether `answer` (a checksum or a distance, as for `expect`) is
    /// right.
    pub fn accepts(&self, answer: u64) -> bool {
        answer == self.expect
    }
}

/// `k` seeded sources.
pub fn sources(g: &CsrGraph, k: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0F50_u64);
    (0..k)
        .map(|_| rng.gen_range(0..g.n()) as VertexId)
        .collect()
}

/// Full-SSSP jobs for `k` seeded sources, checksummed by Dijkstra.
///
/// A source must reach at least a quarter of the graph: on R-MAT a
/// seeded vertex is often isolated, and a pool that happened to hold one
/// would make a seed's throughput a property of that vertex. The seeded
/// stream is long enough that the filter only gives up on graphs without
/// such a component, and then keeps the sources as drawn.
pub fn full_jobs(g: &CsrGraph, k: usize, seed: u64) -> Vec<Job> {
    let min_reach = g.n() / 4;
    let mut jobs = Vec::with_capacity(k);
    let mut fallback = Vec::with_capacity(k);
    for s in sources(g, 64 * k, seed) {
        let dist = dijkstra(g, s);
        let job = Job {
            source: s,
            target: None,
            expect: checksum(&dist),
        };
        if fallback.len() < k {
            fallback.push(job);
        }
        if dist.iter().filter(|&&d| d != INF).count() >= min_reach {
            jobs.push(job);
            if jobs.len() == k {
                return jobs;
            }
        }
    }
    fallback
}

/// `sources × targets_per_source` seeded s–t jobs; one Dijkstra per source
/// gives every pair's exact distance.
pub fn pair_jobs(g: &CsrGraph, sources_k: usize, targets_per_source: usize, seed: u64) -> Vec<Job> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x007A_26E7);
    let mut jobs = Vec::with_capacity(sources_k * targets_per_source);
    for s in sources(g, sources_k, seed) {
        let dist = dijkstra(g, s);
        for _ in 0..targets_per_source {
            let t = rng.gen_range(0..g.n()) as VertexId;
            jobs.push(Job {
                source: s,
                target: Some(t),
                expect: dist[t as usize],
            });
        }
    }
    jobs
}

/// Falsifies the first `k` jobs' expected answers (tests use this to show
/// that a wrong oracle entry, like a wrong answer, is caught).
pub fn corrupt(jobs: &mut [Job], k: usize) {
    for job in jobs.iter_mut().take(k) {
        job.expect ^= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmt_graph::types::EdgeList;

    #[test]
    fn checksum_sees_every_entry() {
        let a = checksum(&[0, 4, 8, INF]);
        assert_ne!(a, checksum(&[0, 4, 9, INF]));
        assert_ne!(a, checksum(&[0, 4, 8, 12]));
        assert_ne!(a, checksum(&[4, 0, 8, INF]));
        assert_eq!(a, checksum(&[0, 4, 8, INF]));
    }

    #[test]
    fn pair_jobs_carry_exact_distances() {
        let g = CsrGraph::from_edge_list(&EdgeList::from_triples(
            3,
            [(0, 1, 4), (1, 2, 4), (0, 2, 9)],
        ));
        for job in pair_jobs(&g, 4, 3, 7) {
            let t = job.target.unwrap();
            assert_eq!(job.expect, dijkstra(&g, job.source)[t as usize]);
        }
    }
}
