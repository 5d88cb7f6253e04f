//! The two service workloads: `serve-full-rand` and `serve-p2p-road`.
//!
//! Both drive one [`QueryService`] with a closed loop of [`THREADS`]
//! client threads. Each client keeps a fixed window of requests
//! outstanding and submits the next only when the oldest is answered, the
//! way callers that wait for their replies behave. On `serve-full-rand`
//! the window builds the backlog that coalescing batches; on
//! `serve-p2p-road` one request per client keeps the run bound by the
//! request path.

use crate::oracle::{self, checksum, Job};
use crate::report::{Outcome, RunError, Samples};
use crate::spans::SpanLog;
use crate::{more_setups, RunConfig, Workload, THREADS};
use mmt_graph::types::EdgeList;
use mmt_graph::CsrGraph;
use mmt_platform::with_pool;
use mmt_thorup::{
    GraphRegistry, MemoryTraceSink, P2pAlgo, QueryHandle, QueryRequest, QueryService, ServiceError,
    TargetHandle, TraceEvent,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sources in the full-SSSP pool.
const FULL_SOURCES: usize = 64;
/// Requests each client keeps outstanding on `serve-full-rand`.
const FULL_WINDOW: usize = 4;
/// Sources and targets per source in the point-to-point pool.
const P2P_SOURCES: usize = 64;
const P2P_TARGETS: usize = 8;
/// Requests each client keeps outstanding on `serve-p2p-road`.
const P2P_WINDOW: usize = 1;
/// Requests whose spans a traced run writes (the first ones traced); the
/// metrics use every traced request. This keeps the span file of the
/// point-to-point workload, which serves ~150k traced requests, small.
const SPAN_REQUESTS: u64 = 20_000;
/// Untraced/traced slice pairs of a traced run; the traced slice of a
/// pair is three times as long, since the per-layer percentiles need the
/// samples.
const TRACE_SLICE_PAIRS: u32 = 2;

/// Pool size of the graph and hierarchy build. At the default 2-thread
/// budget every parallel step of the build waits for both vCPUs of the
/// shared host, and two sets of runs of the same code read `setup_s` up
/// to twice apart. The service's workers are spawned threads, so they
/// keep the default budget.
const SETUP_THREADS: usize = 1;

/// Wall time of each set-up step, seconds.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    csr: f64,
    ch: f64,
    register: f64,
    start: f64,
    resident_bytes: usize,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.csr + self.ch + self.register + self.start
    }
}

/// Builds the graph, its hierarchy and a one-graph registry in a
/// [`SETUP_THREADS`] pool, then starts the service: everything from the
/// edge list to ready-to-answer.
fn start_service(
    edges: &EdgeList,
    sink: Option<Arc<MemoryTraceSink>>,
) -> Result<(QueryService, SetupTimes, Instant), RunError> {
    let (registry, [t0, t1, t2, t3]) = with_pool(SETUP_THREADS, || {
        let t0 = Instant::now();
        let g = CsrGraph::from_edge_list(edges);
        let t1 = Instant::now();
        let ch = Arc::new(mmt_ch::build_parallel(edges));
        let t2 = Instant::now();
        let mut registry = GraphRegistry::new();
        registry
            .register("bench", &g, ch)
            .map_err(|e| RunError(format!("register: {e}")))?;
        Ok::<_, RunError>((registry, [t0, t1, t2, Instant::now()]))
    })?;
    let resident_bytes = registry.resident_bytes();
    let mut builder = QueryService::builder().workers(THREADS);
    if let Some(sink) = sink {
        builder = builder.trace(sink);
    }
    // Trace timestamps count from the service's construction; this
    // instant stands in for it when spans are put on the run's clock.
    let t4 = Instant::now();
    let service = builder
        .build_registry(registry)
        .map_err(|e| RunError(format!("service start: {e}")))?;
    let t5 = Instant::now();
    let times = SetupTimes {
        csr: (t1 - t0).as_secs_f64(),
        ch: (t2 - t1).as_secs_f64(),
        register: (t3 - t2).as_secs_f64(),
        start: (t5 - t4).as_secs_f64(),
        resident_bytes,
    };
    Ok((service, times, t4))
}

enum Pending {
    Full(QueryHandle),
    P2p(TargetHandle),
}

/// One answered request, for the traced run's join with trace events.
struct Record {
    query: String,
    start: Instant,
    submitted: Instant,
    replied: Instant,
}

/// Latency samples a client reserves up front. Untouched pages take no
/// memory, and a vector that never grows never holds two copies, so the
/// benchmark's own share of `peak_rss_mb` stays small and flat.
const SAMPLE_CAPACITY: usize = 1 << 22;

/// What one client saw.
struct ClientLog {
    /// Submit→reply of each verified reply, ns (saturating at ~4.3 s).
    latency_ns: Vec<u32>,
    /// Verified replies per sixth of the window (drained replies after
    /// the window count in none).
    per_sixth: [u64; 6],
    submit_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    records: Vec<Record>,
}

impl ClientLog {
    fn new() -> Self {
        Self {
            latency_ns: Vec::with_capacity(SAMPLE_CAPACITY),
            per_sixth: [0; 6],
            submit_us: Vec::new(),
            attempted: 0,
            failed: 0,
            records: Vec::new(),
        }
    }
}

fn submit(service: &QueryService, job: &Job) -> Result<Pending, ServiceError> {
    match job.target {
        None => service
            .submit(QueryRequest::new(job.source))
            .map(Pending::Full),
        Some(t) => service
            .submit_p2p(QueryRequest::st(job.source, t).algo(P2pAlgo::Bidirectional))
            .map(Pending::P2p),
    }
}

/// Waits for a reply; returns the query id and the checked answer
/// (checksum or distance), stamping the reply instant before checking.
fn wait(pending: Pending) -> (String, Instant, Result<u64, ServiceError>) {
    match pending {
        Pending::Full(h) => {
            let id = h.id().to_string();
            let reply = h.wait();
            let at = Instant::now();
            (id, at, reply.map(|d| checksum(&d)))
        }
        Pending::P2p(h) => {
            let id = h.id().to_string();
            let reply = h.wait();
            (id, Instant::now(), reply)
        }
    }
}

/// One measured window of the closed loop, shared by its clients.
struct Window<'a> {
    service: &'a QueryService,
    jobs: &'a [Job],
    /// Requests each client keeps outstanding.
    outstanding: usize,
    start: Instant,
    duration: Duration,
    /// Keep per-request records and submit times (traced slices).
    keep_records: bool,
}

/// One closed-loop client: keeps `w.outstanding` requests in flight until
/// the window ends, then drains. Client `c` walks the job pool from
/// `first` in strides of [`THREADS`].
fn client(w: &Window<'_>, first: usize) -> ClientLog {
    let mut log = ClientLog::new();
    let deadline = w.start + w.duration;
    let sixth = w.duration / 6;
    let mut next = first;
    let mut outstanding: VecDeque<(usize, Instant, Instant, Pending)> = VecDeque::new();
    loop {
        while outstanding.len() < w.outstanding && Instant::now() < deadline {
            let idx = next % w.jobs.len();
            next += THREADS;
            let start = Instant::now();
            let handle = submit(w.service, &w.jobs[idx]);
            let submitted = Instant::now();
            if w.keep_records {
                log.submit_us.push((submitted - start).as_secs_f64() * 1e6);
            }
            match handle {
                Ok(h) => outstanding.push_back((idx, start, submitted, h)),
                Err(_) => {
                    log.attempted += 1;
                    log.failed += 1;
                }
            }
        }
        let Some((idx, start, submitted, h)) = outstanding.pop_front() else {
            break;
        };
        let (query, replied, answer) = wait(h);
        log.attempted += 1;
        match answer {
            Ok(a) if w.jobs[idx].accepts(a) => {
                let ns = (replied - start).as_nanos();
                log.latency_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                let sixth_index = (replied - w.start).as_nanos() / sixth.as_nanos().max(1);
                if let Some(count) = log.per_sixth.get_mut(sixth_index as usize) {
                    *count += 1;
                }
                if w.keep_records {
                    log.records.push(Record {
                        query,
                        start,
                        submitted,
                        replied,
                    });
                }
            }
            _ => log.failed += 1,
        }
    }
    log
}

/// Runs [`THREADS`] clients against `service` for `duration`; returns
/// their logs and the wall time until the last reply.
fn drive(
    service: &QueryService,
    jobs: &[Job],
    outstanding: usize,
    duration: Duration,
    offset: usize,
    keep_records: bool,
) -> (Vec<ClientLog>, f64) {
    let w = Window {
        service,
        jobs,
        outstanding,
        start: Instant::now(),
        duration,
        keep_records,
    };
    let logs = std::thread::scope(|scope| {
        let w = &w;
        let handles: Vec<_> = (0..THREADS)
            .map(|c| scope.spawn(move || client(w, offset + c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (logs, w.start.elapsed().as_secs_f64())
}

/// First touch of the workers' scratch and buffers, outside the window.
fn warm_up(service: &QueryService, jobs: &[Job]) {
    for job in jobs.iter().take(2 * THREADS) {
        if let Ok(h) = submit(service, job) {
            let _ = wait(h);
        }
    }
}

fn latency_ms(logs: &[ClientLog]) -> Samples {
    Samples::new(
        logs.iter()
            .flat_map(|l| l.latency_ns.iter().map(|&ns| f64::from(ns) / 1e6))
            .collect(),
    )
}

fn ok_replies(logs: &[ClientLog]) -> usize {
    logs.iter().map(|l| l.latency_ns.len()).sum()
}

/// Runs `serve-full-rand` or `serve-p2p-road`.
pub fn run(cfg: &RunConfig) -> Result<Outcome, RunError> {
    let spec = cfg.workload.spec(cfg.log_n, cfg.seed);
    let edges = spec.generate();
    let p2p = cfg.workload == Workload::ServeP2pRoad;
    // The oracle is computed before any timed window.
    let (mut jobs, window) = {
        let g = CsrGraph::from_edge_list(&edges);
        if p2p {
            (
                oracle::pair_jobs(&g, P2P_SOURCES, P2P_TARGETS, cfg.seed),
                P2P_WINDOW,
            )
        } else {
            (oracle::full_jobs(&g, FULL_SOURCES, cfg.seed), FULL_WINDOW)
        }
    };
    oracle::corrupt(&mut jobs, cfg.corrupt_oracle);

    // The measured service comes from the first set-up. The other set-ups
    // only time set-up and run after the window, so the memory they free
    // cannot reach `peak_rss_mb`.
    let mut spans = SpanLog::new();
    let (service, first, started) = start_service(&edges, None)?;
    if cfg.trace {
        record_setup_spans(&mut spans, 0, started, &first);
    }
    let mut setups = vec![first];
    warm_up(&service, &jobs);

    let mut o = Outcome::new(cfg);
    o.text("graph", &spec.name());
    o.num("n", edges.n as f64);
    o.num("m", edges.edges.len() as f64);
    o.num("resident_bytes", setups[0].resident_bytes as f64);
    o.num("clients", THREADS as f64);
    o.num("window_per_client", window as f64);
    o.num("workers", service.workers() as f64);
    o.num("pool_threads", rayon::current_num_threads() as f64);
    o.num("job_pool", jobs.len() as f64);

    if cfg.trace {
        repeat_setups(&mut o, &edges, &mut setups, Some(&mut spans))?;
        traced(cfg, &mut o, &service, &edges, &jobs, window, &setups, spans)?;
        return Ok(o);
    }

    let (logs, _) = drive(&service, &jobs, window, cfg.window, 0, false);
    // Read before the samples are sorted, which needs memory of its own.
    let peak_rss_mb = crate::offline::peak_rss_mb()?;
    drop(service);
    repeat_setups(&mut o, &edges, &mut setups, None)?;
    let sixth = cfg.window.as_secs_f64() / 6.0;
    let per_sixth: Vec<f64> = (0..6)
        .map(|i| logs.iter().map(|l| l.per_sixth[i]).sum::<u64>() as f64 / sixth)
        .collect();
    o.note(format!(
        "verified replies/s per sixth of the window: {:?}",
        per_sixth.iter().map(|q| q.round()).collect::<Vec<_>>()
    ));
    o.attempted = logs.iter().map(|l| l.attempted).sum();
    o.failed = logs.iter().map(|l| l.failed).sum();
    let latency = latency_ms(&logs);
    let setup = Samples::new(setups.iter().map(SetupTimes::total).collect());
    o.metric("setup_s", setup.median(), "s");
    o.metric("peak_rss_mb", peak_rss_mb, "MB");
    // The median sixth, so a burst of host contention shorter than half
    // the window cannot move it.
    o.metric("qps", Samples::new(per_sixth).median(), "1/s");
    o.latency(&latency)?;
    Ok(o)
}

/// Runs the remaining set-ups (see [`more_setups`]), each started and
/// shut down again, for their times.
fn repeat_setups(
    o: &mut Outcome,
    edges: &EdgeList,
    setups: &mut Vec<SetupTimes>,
    mut spans: Option<&mut SpanLog>,
) -> Result<(), RunError> {
    while more_setups(setups.len(), setups.iter().map(SetupTimes::total).sum()) {
        let (service, times, started) = start_service(edges, None)?;
        drop(service);
        if let Some(spans) = spans.as_deref_mut() {
            record_setup_spans(spans, setups.len(), started, &times);
        }
        setups.push(times);
    }
    o.num("setup_repeats", setups.len() as f64);
    Ok(())
}

fn record_setup_spans(spans: &mut SpanLog, rep: usize, started: Instant, t: &SetupTimes) {
    // The steps ran back to back up to `started` (service start).
    let end_register = spans.us(started);
    let request = format!("setup{rep}");
    let begin = end_register - (t.csr + t.ch + t.register) * 1e6;
    let root = spans.push_us(None, &request, "setup", begin, end_register + t.start * 1e6);
    let mut at = begin;
    for (name, secs) in [
        ("mmt-graph.csr_build", t.csr),
        ("mmt-ch.build", t.ch),
        ("mmt-thorup.registry.register", t.register),
        ("mmt-thorup.service.start", t.start),
    ] {
        spans.push_us(Some(root), &request, name, at, at + secs * 1e6);
        at += secs * 1e6;
    }
}

/// The traced run: alternating untraced and traced slices (for the
/// tracing overhead), per-layer metrics from the traced slices.
#[allow(clippy::too_many_arguments)]
fn traced(
    cfg: &RunConfig,
    o: &mut Outcome,
    plain: &QueryService,
    edges: &EdgeList,
    jobs: &[Job],
    window: usize,
    setups: &[SetupTimes],
    mut spans: SpanLog,
) -> Result<(), RunError> {
    let sink = Arc::new(MemoryTraceSink::new());
    let (service, _, started) = start_service(edges, Some(Arc::clone(&sink)))?;
    warm_up(&service, jobs);
    let slice = cfg.window / (4 * TRACE_SLICE_PAIRS);
    let (mut plain_ok, mut plain_wall) = (0usize, 0.0);
    let (mut traced_ok, mut traced_wall) = (0usize, 0.0);
    let mut logs = Vec::new();
    for pair in 0..TRACE_SLICE_PAIRS as usize {
        let (l, w) = drive(plain, jobs, window, slice, 2 * pair, false);
        plain_ok += ok_replies(&l);
        plain_wall += w;
        o.attempted += l.iter().map(|c| c.attempted).sum::<u64>();
        o.failed += l.iter().map(|c| c.failed).sum::<u64>();
        let (l, w) = drive(&service, jobs, window, 3 * slice, 2 * pair + 1, true);
        traced_ok += ok_replies(&l);
        traced_wall += w;
        o.attempted += l.iter().map(|c| c.attempted).sum::<u64>();
        o.failed += l.iter().map(|c| c.failed).sum::<u64>();
        logs.extend(l);
    }
    let snapshot = service.metrics().snapshot();
    drop(service);
    let events: HashMap<String, TraceEvent> = sink
        .events()
        .into_iter()
        .map(|e| (e.query.clone(), e))
        .collect();

    setup_layers(o, setups);
    let submit = Samples::new(logs.iter().flat_map(|l| l.submit_us.clone()).collect());
    o.percentile("mmt-thorup.service.submit_us.p50", &submit, 0.5, "us")?;
    o.percentile("mmt-thorup.service.submit_us.p99", &submit, 0.99, "us")?;

    // Join client records with the service's trace events by query id.
    let service_epoch_us = spans.us(started);
    let (mut queue_ms, mut overhead_us, mut solve_ms, mut hold_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut solve_sum, mut client_sum) = (0.0, 0.0);
    let mut solves = 0u64;
    let mut arcs = 0u64;
    let mut batches_seen = HashSet::new();
    let mut joined = 0u64;
    for r in logs.iter().flat_map(|l| &l.records) {
        let Some(e) = events.get(&r.query) else {
            continue;
        };
        let Some(solve_at) = e.solve_us else {
            continue;
        };
        joined += 1;
        let client_us = (r.replied - r.start).as_secs_f64() * 1e6;
        let in_service_us = e.reply_us.saturating_sub(e.enqueue_us) as f64;
        let solve_us = e.reply_us.saturating_sub(solve_at) as f64;
        queue_ms.push(e.dequeue_us.saturating_sub(e.enqueue_us) as f64 / 1e3);
        overhead_us.push(client_us - in_service_us);
        solve_ms.push(solve_us / 1e3);
        solve_sum += solve_us;
        client_sum += client_us;
        match e.batch {
            Some(b) => {
                hold_ms.push(solve_at.saturating_sub(e.dequeue_us) as f64 / 1e3);
                if batches_seen.insert(b) {
                    solves += 1;
                    arcs += e.arcs_scanned;
                }
            }
            None => {
                solves += 1;
                arcs += e.arcs_scanned;
            }
        }
        if joined > SPAN_REQUESTS {
            continue;
        }
        let root = spans.push(None, &r.query, "client.request", r.start, r.replied);
        spans.push(
            Some(root),
            &r.query,
            "mmt-thorup.service.submit",
            r.start,
            r.submitted,
        );
        let at = |us: u64| service_epoch_us + us as f64;
        spans.push_us(
            Some(root),
            &r.query,
            "mmt-thorup.service.queue",
            at(e.enqueue_us),
            at(e.dequeue_us),
        );
        if e.batch.is_some() {
            spans.push_us(
                Some(root),
                &r.query,
                "mmt-thorup.service.coalesce_hold",
                at(e.dequeue_us),
                at(solve_at),
            );
        }
        spans.push_us(
            Some(root),
            &r.query,
            "mmt-thorup.service.solve",
            at(solve_at),
            at(e.reply_us),
        );
    }
    if joined == 0 {
        return Err(RunError("no traced request matched a trace event".into()));
    }
    let queue = Samples::new(queue_ms);
    o.percentile("mmt-thorup.service.queue_wait_ms.p50", &queue, 0.5, "ms")?;
    o.percentile("mmt-thorup.service.queue_wait_ms.p99", &queue, 0.99, "ms")?;
    o.percentile(
        "mmt-thorup.service.overhead_us.p50",
        &Samples::new(overhead_us),
        0.5,
        "us",
    )?;
    o.metric(
        "mmt-thorup.service.solve_share",
        solve_sum / client_sum,
        "ratio",
    );
    let served = snapshot.served_total().max(1) as f64;
    o.metric(
        "mmt-thorup.service.coalesced_share",
        snapshot.coalesced_queries as f64 / served,
        "ratio",
    );
    o.metric(
        "mmt-thorup.service.batch_size.mean",
        joined as f64 / solves as f64,
        "count",
    );
    let hold = Samples::new(hold_ms);
    if hold.is_empty() {
        o.metric("mmt-thorup.service.coalesce_hold_ms.p50", 0.0, "ms");
    } else {
        o.percentile("mmt-thorup.service.coalesce_hold_ms.p50", &hold, 0.5, "ms")?;
    }
    let solve = Samples::new(solve_ms);
    o.percentile("mmt-thorup.service.solve_ms.p50", &solve, 0.5, "ms")?;
    o.percentile("mmt-thorup.service.solve_ms.p99", &solve, 0.99, "ms")?;
    o.metric(
        "mmt-thorup.service.arcs_per_query",
        arcs as f64 / joined as f64,
        "count",
    );
    // A coalesced batch of two or more makes one parallel call through the
    // shim (`solve_batch_with_cancel`); a solo solve and a point-to-point
    // query make none. Counted per served query.
    o.metric(
        "mmt-thorup.batch.par_loops",
        batches_seen.len() as f64 / joined as f64,
        "count",
    );
    let par_call = crate::offline::par_call_us();
    o.metric("mmt-platform.par_call_us", par_call, "us");
    o.note(format!(
        "spawn exposure per query = par_loops x par_call_us = {:.1} us",
        batches_seen.len() as f64 / joined as f64 * par_call
    ));
    o.metric(
        "perfbench.trace_throughput_ratio",
        (traced_ok as f64 / traced_wall) / (plain_ok as f64 / plain_wall),
        "ratio",
    );
    o.note(format!(
        "tracing overhead: traced {:.1}/s vs untraced {:.1}/s over {} slice pairs",
        traced_ok as f64 / traced_wall,
        plain_ok as f64 / plain_wall,
        TRACE_SLICE_PAIRS
    ));
    crate::offline::zero_kernel_layers(o);
    o.note("kernel and split layers read 0: this workload does not call them".into());
    let path = spans
        .write(&format!("{}-seed{}", cfg.workload.name(), cfg.seed))
        .map_err(|e| RunError(format!("writing spans: {e}")))?;
    o.note(format!("{} spans written to {path}", spans.len()));
    Ok(())
}

/// The set-up layer metrics: medians over the repeats.
fn setup_layers(o: &mut Outcome, setups: &[SetupTimes]) {
    let median = |f: fn(&SetupTimes) -> f64| Samples::new(setups.iter().map(f).collect()).median();
    o.metric("mmt-graph.csr_build_s", median(|t| t.csr), "s");
    o.metric("mmt-ch.build_s", median(|t| t.ch), "s");
    o.metric(
        "mmt-thorup.registry.register_s",
        median(|t| t.register),
        "s",
    );
    o.metric("mmt-thorup.service.start_s", median(|t| t.start), "s");
    o.metric("mmt-graph.split_build_s", 0.0, "s");
    o.metric(
        "mmt-thorup.registry.resident_mb",
        median(|t| t.resident_bytes as f64) / 1e6,
        "MB",
    );
}
