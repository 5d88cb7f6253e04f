//! End-to-end and per-layer benchmark of the mmt-sssp workspace.
//!
//! Three workloads drive the program's public API (see `README.md` for
//! why each exists):
//!
//! * `serve-full-rand`: a [`QueryService`](mmt_thorup::QueryService)
//!   answering full-SSSP requests on Rand-UWD, closed loop, with a backlog
//!   that coalescing can batch;
//! * `serve-p2p-road`: the same service answering bidirectional s–t
//!   requests on a road graph, bound by the request path;
//! * `offline-rmat`: the stepping kernels, Thorup and Dijkstra called as a
//!   library on RMAT-PWD, in a 1-thread pool (the traced run adds
//!   2-thread rounds).
//!
//! Every answer is checked against a Dijkstra oracle computed before the
//! timed window. The untraced run reports the end-to-end metrics; the
//! traced run (`--trace 1`) reports per-layer metrics measured by timing
//! calls into each crate and reading the counters the program exposes.

// The counting allocator is the only `unsafe` code here.
#![deny(unsafe_code)]

pub mod alloc;
pub mod offline;
pub mod oracle;
pub mod report;
pub mod serve;
pub mod spans;

use mmt_graph::gen::{GraphClass, WeightDist, WorkloadSpec};
use report::{Outcome, RunError};
use std::time::Duration;

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up runs at least this many times per run and its median is
/// reported, so one slow build cannot move `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// Set-up also repeats until the set-ups together took this long. A
/// 50 ms set-up repeated five times spans a fraction of a second, and a
/// burst of host contention that long moved its median by up to 45%
/// between runs of one seed.
pub const SETUP_SECONDS: f64 = 2.0;

/// Whether another set-up must run after `done` of them took `secs`.
pub fn more_setups(done: usize, secs: f64) -> bool {
    done < SETUP_REPEATS || secs < SETUP_SECONDS
}

/// Threads the program may use: shard workers, client threads and pool
/// size are all sized to the 2-core host the figures are recorded on.
pub const THREADS: usize = 2;

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-SSSP requests through the service on Rand-UWD.
    ServeFullRand,
    /// Bidirectional point-to-point requests through the service on Road.
    ServeP2pRoad,
    /// Library calls of every stepping engine, Thorup and Dijkstra on
    /// RMAT-PWD.
    OfflineRmat,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeFullRand,
        Workload::ServeP2pRoad,
        Workload::OfflineRmat,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeFullRand => "serve-full-rand",
            Workload::ServeP2pRoad => "serve-p2p-road",
            Workload::OfflineRmat => "offline-rmat",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The graph family at the benchmark's size (`log_n`), generated
    /// from `seed`.
    pub fn spec(self, log_n: u32, seed: u64) -> WorkloadSpec {
        let (class, dist) = match self {
            Workload::ServeFullRand => (GraphClass::Random, WeightDist::Uniform),
            Workload::ServeP2pRoad => (GraphClass::Road, WeightDist::Uniform),
            Workload::OfflineRmat => (GraphClass::Rmat, WeightDist::PolyLog),
        };
        WorkloadSpec {
            class,
            dist,
            log_n,
            log_c: log_n,
            seed,
        }
    }

    /// log2 of the vertex count the benchmark runs at.
    pub fn log_n(self) -> u32 {
        match self {
            Workload::ServeFullRand | Workload::OfflineRmat => 15,
            Workload::ServeP2pRoad => 16,
        }
    }
}

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the graph, the sources and the pairs.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// log2 of the vertex count (tests shrink it).
    pub log_n: u32,
    /// Oracle entries to falsify before the run (tests only: proves the
    /// check catches a wrong answer).
    pub corrupt_oracle: usize,
}

impl RunConfig {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(Workload::parse(&name).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {name:?}; expected one of {names:?}")
                    })?);
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(format!("--seconds must lie in (0, 600], got {seconds}"));
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Self {
            workload,
            seed,
            window: Duration::from_secs_f64(seconds),
            trace,
            log_n: workload.log_n(),
            corrupt_oracle: 0,
        })
    }
}

/// Runs one workload and returns its metrics and header.
pub fn run(cfg: &RunConfig) -> Result<Outcome, RunError> {
    match cfg.workload {
        Workload::ServeFullRand | Workload::ServeP2pRoad => serve::run(cfg),
        Workload::OfflineRmat => offline::run(cfg),
    }
}

/// The shared `main` of both binaries: parse, run, print the header and
/// the one-line JSON result; on any error print nothing to stdout and
/// exit non-zero.
pub fn main_with_args(args: impl IntoIterator<Item = String>, traced_binary: bool) -> i32 {
    let cfg = match RunConfig::from_args(args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    if cfg.trace != traced_binary {
        eprintln!(
            "perfbench: --trace {} must run the {} binary",
            u8::from(cfg.trace),
            if cfg.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return 2;
    }
    match run(&cfg).and_then(|outcome| outcome.render(&cfg)) {
        Ok(text) => {
            print!("{text}");
            0
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, trace: bool, corrupt_oracle: usize) -> RunConfig {
        RunConfig {
            workload,
            seed: 3,
            window: Duration::from_millis(1500),
            trace,
            log_n: 8,
            corrupt_oracle,
        }
    }

    #[test]
    fn every_workload_answers_correctly_and_renders() {
        for w in Workload::ALL {
            let cfg = tiny(w, false, 0);
            let o = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(o.attempted > 0);
            assert_eq!(o.failed, 0, "{}", w.name());
            let text = o.render(&cfg).unwrap();
            let last = text.lines().last().unwrap();
            assert!(last.starts_with("{\"correct\": true"), "{last}");
        }
    }

    #[test]
    fn a_corrupted_oracle_entry_raises_fail_ratio() {
        for w in Workload::ALL {
            let o = run(&tiny(w, false, 1)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(
                o.failed > 0,
                "{}: wrong oracle entry went unnoticed",
                w.name()
            );
            assert!(
                o.failed < o.attempted,
                "{}: only one job is wrong",
                w.name()
            );
        }
    }

    #[test]
    fn traced_runs_print_every_per_layer_metric() {
        for w in Workload::ALL {
            let cfg = tiny(w, true, 0);
            let o = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let text = o.render(&cfg).unwrap();
            for (name, _) in report::per_layer() {
                assert!(
                    text.contains(&format!("\"{name}\"")),
                    "{}: {name}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cfg = RunConfig::from_args(args(
            "--workload serve-p2p-road --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(cfg.workload, Workload::ServeP2pRoad);
        assert_eq!((cfg.seed, cfg.trace), (9, true));
        assert_eq!(cfg.window, Duration::from_millis(2500));
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload offline-rmat --trace 2",
            "--workload offline-rmat --seconds 0",
            "--workload offline-rmat --extra",
        ] {
            assert!(RunConfig::from_args(args(bad)).is_err(), "{bad}");
        }
    }
}
