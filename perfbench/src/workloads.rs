//! The benchmark's workloads: how each input is generated from the
//! seed, the engine it runs on, and what a correct output is.
//!
//! Every workload keeps the default 16 384 × 4 KiB = 64 MiB cache.
//! `scan_replay` reads a 1 GiB file (working set far above the cache),
//! `hot_parallel` and `serve_closed` a 48 MiB one (it fits), and
//! `admit_sim` never touches the cache at all — so each cache change
//! has a workload that exercises it and one that bypasses it.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::time::Instant;

use clio_cache::page::pages_touched;
use clio_cache::CacheConfig;
use clio_exp::{Engine, Experiment, ExperimentBuilder, Report, ReportMode, VerifyMode, Workload};
use clio_trace::compact::write_compact;
use clio_trace::record::IoOp;
use clio_trace::source::TraceSource;
use clio_trace::synth::{Popularity, SynthSource, TraceProfile};

use crate::measure::mix_seed;

/// Parallel replay workers (the container this was sized on has two
/// cores).
pub const THREADS: usize = 2;
/// Shards of the parallel engine's and the serving runtime's cache.
pub const SHARDS: usize = 16;
/// Closed-loop virtual clients of `serve_closed`.
pub const CLIENTS: usize = 8;
/// Synthetic processes interleaved into each `admit_sim` file.
const ADMIT_PROCESSES: u64 = 4;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Serial replay of a scan-heavy trace over a 1 GiB file.
    ScanReplay,
    /// 2-thread sharded replay of a skewed, write-heavy 48 MiB trace.
    HotParallel,
    /// Strict admission of a compact trace file, then the scheduled
    /// disk simulation.
    AdmitSim,
    /// Closed-loop serving of the `hot_parallel` profile.
    ServeClosed,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] =
        [Kind::ScanReplay, Kind::HotParallel, Kind::AdmitSim, Kind::ServeClosed];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ScanReplay => "scan_replay",
            Kind::HotParallel => "hot_parallel",
            Kind::AdmitSim => "admit_sim",
            Kind::ServeClosed => "serve_closed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Data operations per generated input (per process for
    /// `admit_sim`, per client for `serve_closed`), sized so that a
    /// run of the default length holds well over 100 experiments.
    fn data_ops(self, tiny: bool) -> usize {
        let full = match self {
            Kind::ScanReplay => 20_000,
            Kind::HotParallel => 60_000,
            Kind::AdmitSim => 40_000,
            Kind::ServeClosed => 12_000,
        };
        if tiny {
            full / 100
        } else {
            full
        }
    }
}

/// What the benchmark itself counted in a generated input, against
/// which each experiment's output is checked.
#[derive(Debug, Clone, Copy, Default)]
pub struct Expected {
    /// Records in the generated stream (summed over clients for
    /// `serve_closed`).
    pub records: u64,
    /// Demand pages the stream touches (replay workloads).
    pub demand_pages: Option<u64>,
    /// Requests the serving loop must complete (`serve_closed`).
    pub requests: Option<u64>,
}

/// One generated input and the experiment that runs it.
#[derive(Debug, Clone)]
pub struct Input {
    /// The seed the input was generated from.
    pub seed: u64,
    /// The workload exactly as the experiment receives it.
    pub workload: Workload,
    /// The experiment under measurement.
    pub experiment: Experiment,
    /// The benchmark's own counts of the input.
    pub expected: Expected,
}

/// The `scan_replay` profile: the synthesizer's defaults (80 %
/// sequential, 4–256 KiB requests, 1 GiB file, uniform offsets) with
/// 20 % writes.
pub fn scan_profile(seed: u64, data_ops: usize) -> TraceProfile {
    TraceProfile { seed, data_ops, write_fraction: 0.2, ..TraceProfile::default() }
}

/// The `hot_parallel` / `serve_closed` profile: Zipf θ = 0.9, 50 %
/// writes, 4–16 KiB requests over a 48 MiB file.
pub fn hot_profile(seed: u64, data_ops: usize) -> TraceProfile {
    TraceProfile {
        seed,
        data_ops,
        write_fraction: 0.5,
        request_size: (4 * 1024, 16 * 1024),
        file_size: 48 << 20,
        popularity: Popularity::Zipfian { theta: 0.9 },
        ..TraceProfile::default()
    }
}

/// The experiment configuration `kind` runs `workload` under — shared
/// by the measured sweep and by the traced run's engine calls, so both
/// configure the engine identically.
pub fn builder(kind: Kind, workload: Workload) -> ExperimentBuilder {
    let builder = Experiment::builder().workload(workload).cache(CacheConfig::default());
    match kind {
        Kind::ScanReplay => builder.engine(Engine::SerialReplay).report_mode(ReportMode::Full),
        Kind::HotParallel => builder
            .engine(Engine::ParallelReplay)
            .threads(THREADS)
            .shards(SHARDS)
            .report_mode(ReportMode::Summary),
        Kind::AdmitSim => builder.engine(Engine::ScheduledSim).verify(VerifyMode::Strict),
        Kind::ServeClosed => builder
            .engine(Engine::Serve)
            .clients(CLIENTS)
            .think_ms(0.0)
            .shards(SHARDS)
            .report_mode(ReportMode::Summary),
    }
}

/// The experiment `kind` runs over `workload`.
pub fn experiment(kind: Kind, workload: Workload) -> Result<Experiment, String> {
    builder(kind, workload).build().map_err(|e| format!("{}: {e}", kind.name()))
}

/// Runs `experiment` once, timing [`Experiment::run`]; an error or a
/// panic is a failed experiment.
pub fn run(experiment: &Experiment) -> Result<(Report, f64), String> {
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| experiment.run()));
    let ms = started.elapsed().as_secs_f64() * 1e3;
    match outcome {
        Ok(Ok(report)) => Ok((report, ms)),
        Ok(Err(e)) => Err(format!("run failed: {e}")),
        Err(_) => Err("run panicked".to_string()),
    }
}

/// The per-client seed of the serving engine: a synthetic workload is
/// reseeded per client with this SplitMix64 step, so each client
/// replays its own stream.
pub fn client_seed(seed: u64, client: u64) -> u64 {
    let mut x = seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x
}

/// Counts records and demand pages of a stream (and the requests a
/// serving client would issue from it: every record but seeks).
fn count(source: &mut dyn TraceSource, page_size: u64) -> (u64, u64, u64) {
    let (mut records, mut pages, mut requests) = (0u64, 0u64, 0u64);
    while let Some(r) = source.next_record() {
        records += 1;
        if r.op != IoOp::Seek {
            requests += 1;
        }
        if matches!(r.op, IoOp::Read | IoOp::Write) {
            pages += pages_touched(r.offset, r.length, page_size) * u64::from(r.num_records.max(1));
        }
    }
    (records, pages, requests)
}

/// Generates input `index` of a run seeded with `seed`. `admit_sim`
/// writes its compact trace file into `dir`.
pub fn generate(
    kind: Kind,
    seed: u64,
    index: u64,
    tiny: bool,
    dir: &Path,
) -> Result<Input, String> {
    let seed = mix_seed(seed, index);
    let ops = kind.data_ops(tiny);
    let page_size = CacheConfig::default().page_size;
    let open = |w: &Workload| w.open().map_err(|e| format!("{}: open: {e}", kind.name()));
    let (workload, expected) = match kind {
        Kind::ScanReplay | Kind::HotParallel => {
            let profile = if kind == Kind::ScanReplay {
                scan_profile(seed, ops)
            } else {
                hot_profile(seed, ops)
            };
            let workload = Workload::Synthetic(profile);
            let (records, pages, _) = count(&mut *open(&workload)?, page_size);
            (workload, Expected { records, demand_pages: Some(pages), requests: None })
        }
        Kind::AdmitSim => {
            let procs: Vec<Workload> = (0..ADMIT_PROCESSES)
                .map(|p| Workload::Synthetic(scan_profile(mix_seed(seed, p), ops)))
                .collect();
            let [a, b, c, d]: [Workload; 4] =
                procs.try_into().map_err(|_| "admit_sim mixes four processes".to_string())?;
            let mixed = Workload::mix(Workload::mix(a, b), Workload::mix(c, d));
            let path: PathBuf = dir.join(format!("admit-{index}.clc2"));
            let records = write_compact(&path, &mut *open(&mixed)?)
                .map_err(|e| format!("admit_sim: writing {}: {e}", path.display()))?;
            (Workload::File(path), Expected { records, ..Expected::default() })
        }
        Kind::ServeClosed => {
            let profile = hot_profile(seed, ops);
            let mut expected = Expected { requests: Some(0), ..Expected::default() };
            for c in 0..CLIENTS as u64 {
                let client = TraceProfile { seed: client_seed(seed, c), ..profile.clone() };
                let mut source =
                    SynthSource::new(client).map_err(|e| format!("serve_closed: {e}"))?;
                let (records, _, requests) = count(&mut source, page_size);
                expected.records += records;
                expected.requests = expected.requests.map(|n| n + requests);
            }
            (Workload::Synthetic(profile), expected)
        }
    };
    let experiment = experiment(kind, workload.clone())?;
    Ok(Input { seed, workload, experiment, expected })
}

/// Checks one experiment's report against the benchmark's own counts.
pub fn check(kind: Kind, report: &Report, expected: &Expected) -> Result<(), String> {
    if report.records != expected.records {
        return Err(format!("records {} != generated {}", report.records, expected.records));
    }
    if let Some(pages) = expected.demand_pages {
        let metrics = report.cache_metrics.ok_or("replay report has no cache metrics")?;
        if metrics.accesses() != pages {
            return Err(format!(
                "cache hits+misses {} != demand pages {pages}",
                metrics.accesses()
            ));
        }
    }
    match kind {
        Kind::AdmitSim => {
            let sim = report.sim.as_ref().ok_or("scheduled sim report missing")?;
            if sim.records != expected.records {
                return Err(format!(
                    "sim records {} != generated {}",
                    sim.records, expected.records
                ));
            }
        }
        Kind::ServeClosed => {
            let serve = report.serve.as_ref().ok_or("serve report missing")?;
            if serve.failures != 0 {
                return Err(format!("{} serve failures", serve.failures));
            }
            if Some(serve.requests) != expected.requests {
                return Err(format!(
                    "serve requests {} != expected {:?}",
                    serve.requests, expected.requests
                ));
            }
        }
        Kind::ScanReplay | Kind::HotParallel => {}
    }
    Ok(())
}
