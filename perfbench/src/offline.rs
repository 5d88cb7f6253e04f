//! The `offline-rmat` workload: library calls with no service.
//!
//! Every round runs each engine — Δ-stepping (presplit), ρ-stepping,
//! Δ*-stepping, Thorup's `BatchSolver::solve_one` and serial Dijkstra — on
//! every source of the round. The engine order rotates per source, so
//! drift of the shared host hits every engine alike. Throughput comes from
//! the median round, so one descheduled round cannot move it.
//!
//! The end-to-end run uses a 1-thread pool. At 2 threads every stepping
//! phase waits for both vCPUs of the shared host, and ten seeds spread
//! the pooled throughput by 22% and the p95 by 62% of their medians. The
//! traced run measures the 2-thread kernels as layers (`solve_ms`,
//! `speedup_2t`, allocations).

use crate::oracle::{self, checksum, Job};
use crate::report::{self, Outcome, RunError, Samples, ENGINES};
use crate::spans::SpanLog;
use crate::{more_setups, RunConfig, THREADS};

/// Pool size of the end-to-end run (see the module docs).
const E2E_THREADS: usize = 1;
use mmt_baselines::{
    adaptive_delta, default_rho, delta_star_presplit, delta_stepping_presplit, dijkstra,
    rho_stepping_presplit, DeltaScratch, StepScratch,
};
use mmt_ch::ComponentHierarchy;
use mmt_graph::types::{Dist, EdgeList, VertexId, Weight};
use mmt_graph::{CsrGraph, SplitCsr};
use mmt_platform::{with_pool, EventCounters};
use mmt_thorup::{BatchSolver, ThorupSolver};
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Sources in the pool; a round runs every engine on each of them. The
/// p95 falls among the slowest few (source, engine) pairs, so the pool is
/// large enough that no single heavy source sets it.
const SOURCES: usize = 32;

/// Index of `mmt-thorup.batch` in [`ENGINES`].
const THORUP: usize = 3;

/// The graph and everything the engines read, owned.
struct Graph {
    g: CsrGraph,
    ch: ComponentHierarchy,
    split: SplitCsr,
    rho: usize,
}

/// Per-engine scratch, sized to the pool it was built in.
struct Scratch {
    delta: DeltaScratch,
    rho: StepScratch,
    star: StepScratch,
    buf: Vec<Dist>,
}

impl Scratch {
    fn new(split: &SplitCsr) -> Self {
        Self {
            delta: DeltaScratch::new(split),
            rho: StepScratch::new(split),
            star: StepScratch::new(split),
            buf: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    csr: f64,
    ch: f64,
    split: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.csr + self.ch + self.split
    }
}

fn setup_total(setups: &[SetupTimes]) -> f64 {
    setups.iter().map(SetupTimes::total).sum()
}

/// From the edge list to ready-to-solve: CSR, hierarchy, Δ split and the
/// engines' scratch.
fn build(edges: &EdgeList) -> (Graph, Scratch, SetupTimes) {
    let t0 = Instant::now();
    let g = CsrGraph::from_edge_list(edges);
    let t1 = Instant::now();
    let ch = mmt_ch::build_parallel(edges);
    let t2 = Instant::now();
    let delta = adaptive_delta(&g).clamp(1, Weight::MAX as u64) as Weight;
    let split = SplitCsr::new(&g, delta);
    let scratch = Scratch::new(&split);
    let t3 = Instant::now();
    let rho = default_rho(g.n());
    let times = SetupTimes {
        csr: (t1 - t0).as_secs_f64(),
        ch: (t2 - t1).as_secs_f64(),
        split: (t3 - t2).as_secs_f64(),
    };
    (Graph { g, ch, split, rho }, scratch, times)
}

/// [`build`], recording its steps as spans of request `setup<rep>`.
fn timed_build(
    edges: &EdgeList,
    rep: usize,
    spans: Option<&mut SpanLog>,
) -> (Graph, Scratch, SetupTimes) {
    let started = Instant::now();
    let built = build(edges);
    if let Some(spans) = spans {
        let t = &built.2;
        let request = format!("setup{rep}");
        let root = spans.push(None, &request, "setup", started, Instant::now());
        let mut at = spans.us(started);
        for (name, secs) in [
            ("mmt-graph.csr_build", t.csr),
            ("mmt-ch.build", t.ch),
            ("mmt-graph.split_build", t.split),
        ] {
            spans.push_us(Some(root), &request, name, at, at + secs * 1e6);
            at += secs * 1e6;
        }
    }
    built
}

/// Runs engine `e` (an index into [`ENGINES`]) from `s`; returns the
/// solve's seconds and the answer's checksum. Every engine is timed from
/// the call to a finished distance vector: the stepping engines' copy out
/// of their scratch counts, as Thorup's pooled buffer and Dijkstra's
/// allocation do.
fn solve(
    e: usize,
    s: VertexId,
    gr: &Graph,
    sc: &mut Scratch,
    batch: &BatchSolver<'_>,
    counters: Option<&EventCounters>,
) -> (f64, u64) {
    let t0 = Instant::now();
    let secs = |t0: Instant| t0.elapsed().as_secs_f64();
    match e {
        0 => {
            delta_stepping_presplit(&gr.split, s, &mut sc.delta, counters);
            sc.delta.copy_distances_into(&mut sc.buf);
            (secs(t0), checksum(&sc.buf))
        }
        1 => {
            rho_stepping_presplit(&gr.split, s, gr.rho, &mut sc.rho, counters);
            sc.rho.copy_distances_into(&mut sc.buf);
            (secs(t0), checksum(&sc.buf))
        }
        2 => {
            delta_star_presplit(&gr.split, s, &mut sc.star, counters);
            sc.star.copy_distances_into(&mut sc.buf);
            (secs(t0), checksum(&sc.buf))
        }
        THORUP => {
            let d = batch.solve_one(s);
            (secs(t0), checksum(&d))
        }
        _ => {
            let d = dijkstra(&gr.g, s);
            (secs(t0), checksum(&d))
        }
    }
}

/// One solve as a round saw it.
struct Solve {
    secs: f64,
    ok: bool,
}

/// Runs every engine on every job, rotating the engine order per job.
/// `visit` sees each solve right after it (the traced run reads counters
/// there).
fn round(
    r: usize,
    jobs: &[Job],
    gr: &Graph,
    sc: &mut Scratch,
    batch: &BatchSolver<'_>,
    counters: Option<&EventCounters>,
    mut visit: impl FnMut(usize, usize, &Solve),
) -> (f64, Vec<Solve>) {
    let t0 = Instant::now();
    let mut solves = Vec::with_capacity(jobs.len() * ENGINES.len());
    for (k, job) in jobs.iter().enumerate() {
        for step in 0..ENGINES.len() {
            let engine = (step + r * jobs.len() + k) % ENGINES.len();
            if let Some(c) = counters {
                c.reset();
            }
            let (secs, answer) = solve(engine, job.source, gr, sc, batch, counters);
            let s = Solve {
                secs,
                ok: job.accepts(answer),
            };
            visit(k, engine, &s);
            solves.push(s);
        }
    }
    (t0.elapsed().as_secs_f64(), solves)
}

/// Peak resident set of this process, MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, RunError> {
    mmt_platform::mem::peak_rss_bytes()
        .map(|b| b as f64 / 1e6)
        .ok_or_else(|| RunError("peak RSS is unavailable on this platform".into()))
}

/// Median cost of one empty parallel call through the rayon shim in a
/// [`THREADS`]-thread pool, µs.
pub fn par_call_us() -> f64 {
    with_pool(THREADS, || {
        let mut us = Vec::with_capacity(2000);
        for _ in 0..2000 {
            let t0 = Instant::now();
            (0..THREADS).into_par_iter().for_each(|i| {
                std::hint::black_box(i);
            });
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        Samples::new(us).median()
    })
}

/// Writes 0 for every per-engine kernel metric (the service workloads do
/// not call the kernels directly). `mmt-thorup.batch.par_loops` is left
/// to the caller, which measures it.
pub fn zero_kernel_layers(o: &mut Outcome) {
    for (name, unit) in report::per_layer() {
        if name != "mmt-thorup.batch.par_loops"
            && ENGINES.iter().any(|e| name.starts_with(&format!("{e}.")))
        {
            o.metric(&name, 0.0, unit);
        }
    }
}

/// Runs `offline-rmat`.
pub fn run(cfg: &RunConfig) -> Result<Outcome, RunError> {
    let spec = cfg.workload.spec(cfg.log_n, cfg.seed);
    let edges = spec.generate();
    let mut jobs = {
        let g = CsrGraph::from_edge_list(&edges);
        oracle::full_jobs(&g, SOURCES, cfg.seed)
    };
    oracle::corrupt(&mut jobs, cfg.corrupt_oracle);
    with_pool(E2E_THREADS, || run_in_pool(cfg, &edges, &jobs))
}

fn run_in_pool(cfg: &RunConfig, edges: &EdgeList, jobs: &[Job]) -> Result<Outcome, RunError> {
    // The measured graph comes from the first set-up; the others only time
    // set-up and run after the window (see `serve::run`).
    let mut spans = SpanLog::new();
    let (gr, mut sc, first) = timed_build(edges, 0, cfg.trace.then_some(&mut spans));
    let mut setups = vec![first];
    let solver = ThorupSolver::new(&gr.g, &gr.ch);
    let batch = BatchSolver::new(&solver);

    let mut o = Outcome::new(cfg);
    o.text("graph", &spec_name(cfg));
    o.num("n", gr.g.n() as f64);
    o.num("m", edges.edges.len() as f64);
    o.num(
        "resident_bytes",
        (gr.g.heap_bytes() + gr.ch.heap_bytes() + gr.split.heap_bytes()) as f64,
    );
    o.num("pool_threads", rayon::current_num_threads() as f64);
    o.num("sources_per_round", jobs.len() as f64);
    o.num("engines", ENGINES.len() as f64);
    o.num("delta", f64::from(gr.split.delta()));
    o.num("rho", gr.rho as f64);
    // Warm-up: first touch of every engine's scratch and pools.
    round(0, &jobs[..1], &gr, &mut sc, &batch, None, |_, _, _| {});

    if cfg.trace {
        while more_setups(setups.len(), setup_total(&setups)) {
            setups.push(timed_build(edges, setups.len(), Some(&mut spans)).2);
        }
        o.num("setup_repeats", setups.len() as f64);
        traced(cfg, &mut o, &gr, &mut sc, &batch, jobs, &setups, spans)?;
        return Ok(o);
    }

    let deadline = Instant::now() + cfg.window;
    let mut rounds = Vec::new();
    let mut latency = Vec::new();
    let mut r = 0;
    while Instant::now() < deadline {
        let (wall, solves) = round(r, jobs, &gr, &mut sc, &batch, None, |_, _, _| {});
        for s in &solves {
            o.attempted += 1;
            if s.ok {
                latency.push(s.secs * 1e3);
            } else {
                o.failed += 1;
            }
        }
        rounds.push(wall);
        r += 1;
    }
    let peak_rss_mb = peak_rss_mb()?;
    while more_setups(setups.len(), setup_total(&setups)) {
        setups.push(timed_build(edges, setups.len(), None).2);
    }
    o.num("setup_repeats", setups.len() as f64);
    o.num("rounds", rounds.len() as f64);
    let setup = Samples::new(setups.iter().map(SetupTimes::total).collect());
    let per_round = (jobs.len() * ENGINES.len()) as f64;
    let ok_share = latency.len() as f64 / o.attempted as f64;
    o.metric("setup_s", setup.median(), "s");
    o.metric("peak_rss_mb", peak_rss_mb, "MB");
    o.metric(
        "qps",
        ok_share * per_round / Samples::new(rounds).median(),
        "1/s",
    );
    let latency = Samples::new(latency);
    o.latency(&latency)?;
    Ok(o)
}

fn spec_name(cfg: &RunConfig) -> String {
    cfg.workload.spec(cfg.log_n, cfg.seed).name()
}

/// Per-engine sums over the traced solves.
#[derive(Default, Clone)]
struct EngineAcc {
    ms_2t: Vec<f64>,
    ms_1t: Vec<f64>,
    phases: u64,
    relaxations: u64,
    arcs: u64,
    allocs: u64,
    par_loops: u64,
    solves: u64,
}

/// The traced run: rounds cycle untraced 1-thread, traced 2-thread and
/// traced 1-thread. Untraced vs traced 1-thread throughput is the tracing
/// overhead; traced 1- vs 2-thread medians give each engine's speed-up.
/// Counters, allocations and spans come from the 2-thread rounds.
#[allow(clippy::too_many_arguments)]
fn traced(
    cfg: &RunConfig,
    o: &mut Outcome,
    gr: &Graph,
    sc: &mut Scratch,
    batch: &BatchSolver<'_>,
    jobs: &[Job],
    setups: &[SetupTimes],
    mut spans: SpanLog,
) -> Result<(), RunError> {
    let counters = EventCounters::new();
    let counted_solver = ThorupSolver::new(&gr.g, &gr.ch).with_counters(&counters);
    let counted = BatchSolver::new(&counted_solver);
    let warm = |sc: &mut Scratch, b: &BatchSolver<'_>| {
        round(0, &jobs[..1], gr, sc, b, Some(&counters), |_, _, _| {});
    };
    warm(sc, &counted);
    let (mut sc2, counted2) = with_pool(THREADS, || {
        let mut s = Scratch::new(&gr.split);
        let b = BatchSolver::new(&counted_solver);
        warm(&mut s, &b);
        (s, b)
    });

    let mut acc = vec![EngineAcc::default(); ENGINES.len()];
    let (mut plain_rounds, mut traced_rounds) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + cfg.window;
    let mut r = 0;
    while Instant::now() < deadline || traced_rounds.is_empty() {
        match r % 3 {
            0 => {
                let (wall, solves) = round(r, jobs, gr, sc, batch, None, |_, _, _| {});
                count(o, &solves);
                plain_rounds.push(wall);
            }
            1 => {
                let mut allocs_at = crate::alloc::allocations();
                let (_, solves) = with_pool(THREADS, || {
                    round(
                        r,
                        jobs,
                        gr,
                        &mut sc2,
                        &counted2,
                        Some(&counters),
                        |k, e, s| {
                            let snap = counters.snapshot();
                            let a = &mut acc[e];
                            a.ms_2t.push(s.secs * 1e3);
                            a.phases += snap.bucket_expansions;
                            a.relaxations += snap.relaxations;
                            a.arcs += snap.arcs_scanned;
                            a.par_loops += snap.parallel_loop_setups;
                            a.allocs += crate::alloc::allocations() - allocs_at;
                            a.solves += 1;
                            let now = Instant::now();
                            spans.push(
                                None,
                                &format!("r{r}s{k}"),
                                ENGINES[e],
                                now - Duration::from_secs_f64(s.secs),
                                now,
                            );
                            // Counter reads and span pushes allocate too; start
                            // the next solve's count after them.
                            allocs_at = crate::alloc::allocations();
                        },
                    )
                });
                count(o, &solves);
            }
            _ => {
                let (wall, solves) =
                    round(r, jobs, gr, sc, &counted, Some(&counters), |_, e, s| {
                        acc[e].ms_1t.push(s.secs * 1e3);
                    });
                count(o, &solves);
                traced_rounds.push(wall);
            }
        }
        r += 1;
    }

    let median = |f: fn(&SetupTimes) -> f64| Samples::new(setups.iter().map(f).collect()).median();
    o.metric("mmt-graph.csr_build_s", median(|t| t.csr), "s");
    o.metric("mmt-ch.build_s", median(|t| t.ch), "s");
    o.metric("mmt-thorup.registry.register_s", 0.0, "s");
    o.metric("mmt-thorup.service.start_s", 0.0, "s");
    o.metric("mmt-graph.split_build_s", median(|t| t.split), "s");
    o.metric("mmt-thorup.registry.resident_mb", 0.0, "MB");
    for (name, unit) in report::per_layer() {
        if name.starts_with("mmt-thorup.service.") && !name.ends_with("start_s") {
            o.metric(&name, 0.0, unit);
        }
    }
    for (e, engine) in ENGINES.iter().enumerate() {
        let a = &acc[e];
        let per = |v: u64| v as f64 / a.solves.max(1) as f64;
        let ms_2t = Samples::new(a.ms_2t.clone()).median();
        let ms_1t = Samples::new(a.ms_1t.clone()).median();
        o.metric(&format!("{engine}.solve_ms"), ms_2t, "ms");
        if report::engine_has_counters(engine) {
            o.metric(&format!("{engine}.phases"), per(a.phases), "count");
            o.metric(
                &format!("{engine}.relaxations"),
                per(a.relaxations),
                "count",
            );
            o.metric(&format!("{engine}.arcs_scanned"), per(a.arcs), "count");
        }
        o.metric(&format!("{engine}.speedup_2t"), ms_1t / ms_2t, "ratio");
        o.metric(&format!("{engine}.allocs"), per(a.allocs), "count");
    }
    // 0 by construction: `BatchSolver` forces `ThorupConfig::serial()`, so
    // `solve_one` sets up no parallel loop. It is still read, so a change
    // that parallelises the solve shows here.
    let thorup = &acc[THORUP];
    o.metric(
        "mmt-thorup.batch.par_loops",
        thorup.par_loops as f64 / thorup.solves.max(1) as f64,
        "count",
    );
    o.note(
        "mmt-thorup.batch.par_loops is 0 by construction here: BatchSolver forces \
         ThorupConfig::serial() and solve_one makes no parallel call"
            .into(),
    );
    let par_call = par_call_us();
    o.metric("mmt-platform.par_call_us", par_call, "us");
    let per_round = (jobs.len() * ENGINES.len()) as f64;
    let plain = per_round / Samples::new(plain_rounds).median();
    let traced = per_round / Samples::new(traced_rounds).median();
    o.metric("perfbench.trace_throughput_ratio", traced / plain, "ratio");
    o.note(format!(
        "tracing overhead: traced {traced:.1} vs untraced {plain:.1} solves/s \
         (1 thread, median rounds)"
    ));
    // Each stepping phase is one parallel call. Serial Thorup and Dijkstra
    // make none, so their predicted spawn share is 0.
    for (e, engine) in ENGINES.iter().enumerate().take(THORUP) {
        let a = &acc[e];
        let per_solve = a.phases as f64 / a.solves.max(1) as f64;
        let ms = Samples::new(a.ms_2t.clone()).median();
        o.note(format!(
            "{engine}: predicted spawn share = phases x par_call_us / solve_ms = {:.3}",
            per_solve * par_call / 1e3 / ms
        ));
    }
    o.note(
        "mmt-baselines.dijkstra.{phases,relaxations,arcs_scanned} are not measured: \
         dijkstra() takes no EventCounters"
            .into(),
    );
    o.note("service and registry layers read 0: this workload calls no service".into());
    let path = spans
        .write(&format!("{}-seed{}", cfg.workload.name(), cfg.seed))
        .map_err(|e| RunError(format!("writing spans: {e}")))?;
    o.note(format!("{} spans written to {path}", spans.len()));
    Ok(())
}

fn count(o: &mut Outcome, solves: &[Solve]) {
    o.attempted += solves.len() as u64;
    o.failed += solves.iter().filter(|s| !s.ok).count() as u64;
}
