//! The traced run: per-layer busy times, counts and ratios, recorded
//! from the benchmark's own files around the calls into each layer's
//! public functions. Spans are kept in memory as per-layer aggregates
//! and written out once, at the end of the run.
//!
//! Each traced experiment runs over one input in up to three ways:
//!
//! 1. untraced through [`Experiment::run`] — the end-to-end reference,
//!    checked like the measured sweep, and `exp.overhead_ms` (the run's
//!    wall time minus the report's engine wall time);
//! 2. through [`Experiment::run`] again with the source wrapped in a
//!    timing [`TraceSource`] (via [`Workload::custom`]) — source opens,
//!    `next_record` time and the engine's wall time with the source
//!    inside it;
//! 3. a direct drive of the layers over the same records — cache calls,
//!    shard locks, report sink, decoder, verifier, splitter, managed
//!    runtime and percentile sink — whose counters must equal the
//!    engine's report from step 1, so the drive is known to do the
//!    engine's work.
//!
//! `serve_closed` skips step 2: a custom workload would not be reseeded
//! per client, so the engine would serve other streams. Its direct
//! drive times the client sources instead. `admit_sim` runs step 2
//! without strict admission, which its direct drive times on its own.
//!
//! A layer's self time is its span minus the spans of the layers it
//! calls. On `hot_parallel` two workers and the merge walk run at once,
//! so each layer's share of the engine's wall time is its busy time
//! summed over threads, divided by the cores the engine kept busy
//! (`replay.parallelism`, its CPU time over its wall time); the replay
//! loop's self time is the wall time less those shares.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use clio_cache::cache::{AccessKind, AccessOutcome, BufferCache, CacheCostModel, RunCursor};
use clio_cache::page::{page_span, FileId, PageId};
use clio_cache::prefetch::Prefetcher;
use clio_cache::shard::{ShardedBufferCache, SHARD_BLOCK_PAGES};
use clio_cache::{CacheConfig, CacheMetrics};
use clio_exp::serve::{ServeSummary, SERVE_FILE_OPS, SERVE_GET_OPS, SERVE_POST_OPS};
use clio_exp::{ExperimentBuilder, Report, VerifyMode, Workload};
use clio_runtime::{JitModel, SharedManagedIo, StreamOp};
use clio_stats::PercentileSink;
use clio_trace::compact::load_auto;
use clio_trace::record::{IoOp, TraceRecord};
use clio_trace::replay::{OpTiming, ReplayStats};
use clio_trace::source::{scan_pids, PidSplitter, SharedSource, SourceMeta, TraceSource};
use clio_trace::synth::{SynthSource, TraceProfile};
use clio_trace::verify::verify_strict;

use crate::measure::{process_cpu_seconds, quantile, Span};
use crate::workloads::{self, client_seed, Input, Kind, CLIENTS, SHARDS, THREADS};

/// Source spans of every stream an engine opened, filled by
/// [`TimingSource`]s as they drop.
#[derive(Debug, Default)]
struct SourceTally {
    open: Span,
    next: Span,
}

/// A [`TraceSource`] that times every `next_record` of the source it
/// wraps.
struct TimingSource {
    inner: Box<dyn TraceSource>,
    open: Span,
    next: Span,
    tally: Arc<Mutex<SourceTally>>,
}

impl TraceSource for TimingSource {
    fn meta(&self) -> SourceMeta {
        self.inner.meta()
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        let inner = &mut self.inner;
        self.next.time(|| inner.next_record())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl Drop for TimingSource {
    fn drop(&mut self) {
        // A poisoned tally only means another stream panicked; that
        // experiment already fails, so the spans can be dropped.
        if let Ok(mut tally) = self.tally.lock() {
            tally.open.merge(&self.open);
            tally.next.merge(&self.next);
        }
    }
}

/// `inner` behind a timing source: every stream an engine opens is
/// wrapped, and its spans land in `tally` when the engine drops it.
fn timing_workload(inner: Workload, tally: Arc<Mutex<SourceTally>>) -> Workload {
    let label = inner.label();
    Workload::custom(label, move || {
        let mut open = Span::default();
        let source = open.time(|| inner.open()).expect("a generated workload re-opens");
        Box::new(TimingSource { inner: source, open, next: Span::default(), tally: tally.clone() })
    })
}

/// Aggregates of every traced experiment of one run.
#[derive(Debug, Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    experiments: u64,
    records: u64,
    untraced_ms: Vec<f64>,
    untraced_s: f64,
    traced_s: f64,
    overhead_ms: f64,
    /// Per experiment: `exp.overhead` plus the self times of the layers
    /// under the engine call, ms.
    layer_sum_ms: Vec<f64>,
    open: Span,
    next: Span,
    compact_bytes: u64,
    decode: Span,
    decoded: u64,
    verify: Span,
    verified: u64,
    violations: u64,
    splitter_peak: usize,
    /// Cache calls per record op kind (indexed by [`IoOp::code`]).
    cache: [Span; 5],
    lock: Span,
    cache_ns: f64,
    metrics: CacheMetrics,
    imbalance: f64,
    imbalance_samples: u64,
    sink: Span,
    replay_self_ns: f64,
    parallel: ParallelShare,
    events: u64,
    sim_self_ns: f64,
    retries: u64,
    dropped: u64,
    runtime: Span,
    serve_self_ns: f64,
    stats_sink: Span,
    requests: u64,
}

/// Busy time of the parallel engine's layers against its wall time.
/// Per experiment the 10 ms CPU clock is too coarse, so the cores the
/// engine kept busy are measured over the whole run.
#[derive(Debug, Default)]
struct ParallelShare {
    /// Engine wall time, clock reads of the timing source taken out, ns.
    wall_ns: f64,
    /// Process CPU time of the engine runs, seconds.
    cpu_s: f64,
    /// Source, cache and sink busy time summed over threads, ns.
    busy_ns: f64,
}

impl ParallelShare {
    /// Cores the engine kept busy on average; 0 with nothing measured.
    fn cores(&self) -> f64 {
        div(self.cpu_s * 1e9, self.wall_ns)
    }
}

/// An engine's wall time in a traced step, ns: as measured, and with
/// the clock reads the tracing added taken out.
#[derive(Debug, Clone, Copy)]
struct Traced {
    wall_ns: f64,
    net_ns: f64,
    /// Process CPU time the step used, seconds (10 ms resolution).
    cpu_s: f64,
}

/// Traces experiments of one workload and reports the per-layer
/// metrics.
pub struct Tracer {
    kind: Kind,
    timer_ns: f64,
    /// Cores the host lets this process use.
    cores: usize,
    t: Totals,
}

impl Tracer {
    /// A tracer for `kind`; `timer_ns` is the calibrated cost of one
    /// clock read.
    pub fn new(kind: Kind, timer_ns: f64) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self { kind, timer_ns, cores, t: Totals::default() }
    }

    /// Experiments attempted and failed so far.
    pub fn outcome(&self) -> (u64, u64) {
        (self.t.attempted, self.t.failed)
    }

    /// Traces one experiment over `input`; a failed check or a
    /// direct-drive counter that differs from the engine's fails it.
    pub fn experiment(&mut self, input: &Input) {
        self.t.attempted += 1;
        if let Err(e) = self.try_experiment(input) {
            self.t.failed += 1;
            eprintln!(
                "perfbench: {} traced experiment (seed {:#x}) failed: {e}",
                self.kind.name(),
                input.seed
            );
        }
    }

    fn try_experiment(&mut self, input: &Input) -> Result<(), String> {
        let (report, run_ms) = workloads::run(&input.experiment)?;
        workloads::check(self.kind, &report, &input.expected)?;
        let engine_ms = report.wall_ms.ok_or("report has no engine wall time")?;
        let traced = match self.kind {
            Kind::ScanReplay => self.scan_replay(input, &report)?,
            Kind::HotParallel => self.hot_parallel(input, &report)?,
            Kind::AdmitSim => self.admit_sim(input, &report)?,
            Kind::ServeClosed => self.serve_closed(input, &report)?,
        };
        let overhead_ms = run_ms - engine_ms;
        let t = &mut self.t;
        t.experiments += 1;
        t.records += report.records;
        t.untraced_ms.push(run_ms);
        t.untraced_s += run_ms / 1e3;
        t.traced_s += (overhead_ms + traced.wall_ns / 1e6) / 1e3;
        t.overhead_ms += overhead_ms;
        t.layer_sum_ms.push(overhead_ms + traced.net_ns / 1e6);
        if let Some(m) = &report.cache_metrics {
            t.metrics.merge(m);
        }
        Ok(())
    }

    /// Step 2: runs the workload's experiment, adjusted by `configure`, over
    /// a timing source, with up to `parallelism` threads busy at once.
    /// Returns the report, the source's busy time summed over streams,
    /// ns, and the engine's wall time.
    fn timed_engine(
        &mut self,
        workload: Workload,
        parallelism: f64,
        configure: impl FnOnce(ExperimentBuilder) -> ExperimentBuilder,
    ) -> Result<(Report, f64, Traced), String> {
        let tally = Arc::new(Mutex::new(SourceTally::default()));
        let experiment =
            configure(workloads::builder(self.kind, timing_workload(workload, tally.clone())))
                .build()
                .map_err(|e| e.to_string())?;
        let cpu_before = process_cpu_seconds()?;
        let (report, _) = workloads::run(&experiment)?;
        let cpu_s = process_cpu_seconds()? - cpu_before;
        drop(experiment);
        let tally = Arc::try_unwrap(tally)
            .map_err(|_| "a timed stream outlived its engine".to_string())?
            .into_inner()
            .map_err(|_| "a timed stream panicked".to_string())?;
        let wall_ns = report.wall_ms.ok_or("report has no engine wall time")? * 1e6;
        let (open, next) = (tally.open, tally.next);
        let source_ns = open.net_ns(self.timer_ns) + next.net_ns(self.timer_ns);
        // Each timed call added two clock reads to the engine's work.
        let clock_reads_ns =
            2.0 * self.timer_ns * (open.calls() + next.calls()) as f64 / parallelism;
        self.t.open.merge(&open);
        self.t.next.merge(&next);
        Ok((report, source_ns, Traced { wall_ns, net_ns: wall_ns - clock_reads_ns, cpu_s }))
    }

    fn scan_replay(&mut self, input: &Input, report: &Report) -> Result<Traced, String> {
        let (timed, source_ns, engine) = self.timed_engine(input.workload.clone(), 1.0, |b| b)?;
        same(timed.stats(), report.stats(), "timed-source replay stats")?;
        let (meta, records) = collect(&input.workload)?;
        let drive = drive_serial(&records, &meta, CacheConfig::default());
        same(Some(&drive.metrics), report.cache_metrics.as_ref(), "direct-drive cache metrics")?;
        same(Some(&drive.stats), report.stats(), "direct-drive replay stats")?;
        let cache_ns: f64 = drive.ops.iter().map(|s| s.net_ns(self.timer_ns)).sum();
        let sink_ns = drive.sink.net_ns(self.timer_ns);
        let t = &mut self.t;
        for (total, op) in t.cache.iter_mut().zip(&drive.ops) {
            total.merge(op);
        }
        t.cache_ns += cache_ns;
        t.sink.merge(&drive.sink);
        t.replay_self_ns += engine.net_ns - source_ns - cache_ns - sink_ns;
        Ok(engine)
    }

    fn hot_parallel(&mut self, input: &Input, report: &Report) -> Result<Traced, String> {
        // The workers and the merge walk share the host's cores.
        let parallelism = (self.cores as f64).min(THREADS as f64 + 1.0);
        let (timed, source_ns, engine) =
            self.timed_engine(input.workload.clone(), parallelism, |b| b)?;
        same(timed.stats(), report.stats(), "timed-source replay stats")?;
        let (meta, records) = collect(&input.workload)?;
        let drive = drive_parallel(&records, &meta, &CacheConfig::default(), THREADS, SHARDS);
        same(Some(&drive.metrics), report.cache_metrics.as_ref(), "direct-drive cache metrics")?;
        same(
            Some(&drive.shard_metrics),
            report.shard_metrics.as_ref(),
            "direct-drive shard metrics",
        )?;
        same(Some(&drive.stats), report.stats(), "direct-drive replay stats")?;
        let timer_ns = self.timer_ns;
        let cache_ns: f64 = drive
            .workers
            .iter()
            .map(|w| {
                let lock_reads = w.lock.calls();
                w.ops.iter().map(|s| s.net_ns(timer_ns)).sum::<f64>()
                    - 2.0 * timer_ns * lock_reads as f64
            })
            .sum();
        let sink_ns = drive.sink.net_ns(timer_ns);
        let accesses: Vec<f64> = drive.shard_metrics.iter().map(|m| m.accesses() as f64).collect();
        let mean = accesses.iter().sum::<f64>() / accesses.len().max(1) as f64;
        let t = &mut self.t;
        for w in &drive.workers {
            for (total, op) in t.cache.iter_mut().zip(&w.ops) {
                total.merge(op);
            }
            t.lock.merge(&w.lock);
        }
        if mean > 0.0 {
            t.imbalance += accesses.iter().copied().fold(0.0, f64::max) / mean;
            t.imbalance_samples += 1;
        }
        t.cache_ns += cache_ns;
        t.sink.merge(&drive.sink);
        t.parallel.wall_ns += engine.net_ns;
        t.parallel.cpu_s += engine.cpu_s;
        t.parallel.busy_ns += source_ns + cache_ns + sink_ns;
        Ok(engine)
    }

    fn admit_sim(&mut self, input: &Input, report: &Report) -> Result<Traced, String> {
        let Workload::File(path) = &input.workload else {
            return Err("admit_sim runs a trace file".to_string());
        };
        let t = &mut self.t;
        t.compact_bytes += std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        // What `Workload::resolve` does to a file: load and decode it
        // once, with every block's CRC and structure checked.
        let trace = t.decode.time(|| load_auto(path)).map_err(|e| format!("decode: {e}"))?;
        t.decoded += trace.records.len() as u64;
        let trace = Arc::new(trace);
        let options = input.workload.verify_options();
        match t.verify.time(|| verify_strict(&mut SharedSource::new(trace.clone()), options)) {
            Ok(verified) => t.verified += verified.records,
            Err(e) => {
                t.violations += 1;
                return Err(format!("strict admission rejected the input: {e}"));
            }
        }
        // The splitter demultiplexes per process; drained round-robin it
        // buffers the trace's pid-interleave distance.
        let (pids, _) = scan_pids(&mut SharedSource::new(trace.clone()));
        let mut splitter = PidSplitter::new(SharedSource::new(trace.clone()));
        loop {
            let mut more = false;
            for &pid in &pids {
                more |= splitter.next_for(pid).is_some();
            }
            if !more {
                break;
            }
        }
        t.splitter_peak = t.splitter_peak.max(splitter.peak_buffered());

        let (timed, source_ns, engine) =
            self.timed_engine(Workload::Trace(trace), 1.0, |b| b.verify(VerifyMode::Off))?;
        same(timed.sim.as_ref(), report.sim.as_ref(), "timed-source sim report")?;
        let sim = timed.sim.as_ref().ok_or("sim report missing")?;
        let t = &mut self.t;
        t.events += sim.events;
        t.retries += sim.retries;
        t.dropped += sim.dropped_requests;
        t.sim_self_ns += engine.net_ns - source_ns;
        Ok(engine)
    }

    fn serve_closed(&mut self, input: &Input, report: &Report) -> Result<Traced, String> {
        let Workload::Synthetic(profile) = &input.workload else {
            return Err("serve_closed serves a synthetic profile".to_string());
        };
        let drive = drive_serve(profile)?;
        same(Some(&drive.summary), report.serve.as_ref(), "direct-drive serve summary")?;
        same(Some(&drive.metrics), report.cache_metrics.as_ref(), "direct-drive cache metrics")?;
        if drive.records != report.records {
            return Err(format!(
                "direct-drive records {} != engine {}",
                drive.records, report.records
            ));
        }
        let timer_ns = self.timer_ns;
        let spans = [drive.open, drive.next, drive.runtime, drive.sink];
        let clock_reads = 2.0 * timer_ns * spans.iter().map(|s| s.calls() as f64).sum::<f64>();
        let children: f64 = spans.iter().map(|s| s.net_ns(timer_ns)).sum();
        let engine =
            Traced { wall_ns: drive.loop_ns, net_ns: drive.loop_ns - clock_reads, cpu_s: 0.0 };
        let t = &mut self.t;
        t.open.merge(&drive.open);
        t.next.merge(&drive.next);
        t.runtime.merge(&drive.runtime);
        t.stats_sink.merge(&drive.sink);
        t.requests += drive.summary.requests;
        t.serve_self_ns += engine.net_ns - children;
        Ok(engine)
    }

    /// The per-layer metrics, each `(name, value, unit)`. A layer that
    /// is not on this workload's path reads 0.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let t = &self.t;
        let tn = self.timer_ns;
        let exps = t.experiments as f64;
        let per_exp = |v: f64| div(v, exps);
        let layer_sum_ms = quantile(&t.layer_sum_ms, 0.5);
        let replay_self_ns =
            t.replay_self_ns + t.parallel.wall_ns - div(t.parallel.busy_ns, t.parallel.cores());
        let pages = t.metrics.accesses() as f64;
        let calls = |ops: &[IoOp]| -> (f64, f64) {
            ops.iter().fold((0.0, 0.0), |(ns, n), op| {
                let s = &t.cache[op.code() as usize];
                (ns + s.net_ns(tn), n + s.calls() as f64)
            })
        };
        let per_call = |ops: &[IoOp]| {
            let (ns, n) = calls(ops);
            div(ns, n)
        };
        vec![
            ("fail_ratio", div(t.failed as f64, t.attempted as f64), "ratio"),
            ("host.cores", self.cores as f64, "count"),
            ("untraced.records_per_s", div(t.records as f64, t.untraced_s), "1/s"),
            ("traced.records_per_s", div(t.records as f64, t.traced_s), "1/s"),
            ("layers.sum_ms", layer_sum_ms, "ms"),
            ("layers.coverage", div(layer_sum_ms, quantile(&t.untraced_ms, 0.5)), "ratio"),
            ("exp.overhead_ms", per_exp(t.overhead_ms), "ms"),
            ("trace.source.open_ms", div(t.open.net_ns(tn), t.open.calls() as f64) / 1e6, "ms"),
            ("trace.source.opens_per_exp", per_exp(t.open.calls() as f64), "count"),
            ("trace.source.ns_per_rec", div(t.next.net_ns(tn), t.next.calls() as f64), "ns"),
            (
                "trace.compact.bytes_per_rec",
                div(t.compact_bytes as f64, t.decoded as f64),
                "bytes/rec",
            ),
            ("trace.compact.decode_ns_per_rec", div(t.decode.net_ns(tn), t.decoded as f64), "ns"),
            ("trace.verify.ns_per_rec", div(t.verify.net_ns(tn), t.verified as f64), "ns"),
            ("trace.verify.violations", t.violations as f64, "count"),
            ("trace.splitter.peak_buffered", t.splitter_peak as f64, "records"),
            ("cache.ns_per_page", div(t.cache_ns, pages), "ns"),
            ("cache.access_run.ns_per_call", per_call(&[IoOp::Read, IoOp::Write]), "ns"),
            ("cache.open.ns_per_call", per_call(&[IoOp::Open]), "ns"),
            ("cache.close.ns_per_call", per_call(&[IoOp::Close]), "ns"),
            ("cache.seek.ns_per_call", per_call(&[IoOp::Seek]), "ns"),
            ("cache.hits", per_exp(t.metrics.hits as f64), "count"),
            ("cache.misses", per_exp(t.metrics.misses as f64), "count"),
            ("cache.evictions", per_exp(t.metrics.evictions as f64), "count"),
            ("cache.writebacks", per_exp(t.metrics.writebacks as f64), "count"),
            ("cache.prefetched", per_exp(t.metrics.prefetched as f64), "count"),
            ("cache.prefetch_hits", per_exp(t.metrics.prefetch_hits as f64), "count"),
            ("cache.hit_ratio", t.metrics.hit_ratio(), "ratio"),
            ("cache.prefetch_accuracy", t.metrics.prefetch_accuracy(), "ratio"),
            (
                "cache.shard.lock_wait_ns_per_call",
                div(t.lock.net_ns(tn), t.lock.calls() as f64),
                "ns",
            ),
            ("cache.shard.imbalance", div(t.imbalance, t.imbalance_samples as f64), "ratio"),
            ("replay.sink.ns_per_rec", div(t.sink.net_ns(tn), t.records as f64), "ns"),
            ("replay.parallelism", t.parallel.cores(), "cores"),
            ("replay.self_ns_per_rec", div(replay_self_ns, t.records as f64), "ns"),
            ("sim.events_per_rec", div(t.events as f64, t.records as f64), "events/rec"),
            ("sim.self_ns_per_event", div(t.sim_self_ns, t.events as f64), "ns"),
            ("sim.retries", per_exp(t.retries as f64), "count"),
            ("sim.dropped", per_exp(t.dropped as f64), "count"),
            ("runtime.ns_per_req", div(t.runtime.net_ns(tn), t.requests as f64), "ns"),
            ("serve.self_ns_per_req", div(t.serve_self_ns, t.requests as f64), "ns"),
            (
                "stats.sink.ns_per_sample",
                div(t.stats_sink.net_ns(tn), t.stats_sink.calls() as f64),
                "ns",
            ),
        ]
    }
}

/// `a / b`, or 0 when nothing was counted.
fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Fails unless a direct drive or timed run reproduced the engine's
/// value exactly.
fn same<T: PartialEq + std::fmt::Debug>(
    ours: Option<&T>,
    engine: Option<&T>,
    what: &str,
) -> Result<(), String> {
    if ours.is_some() && ours == engine {
        Ok(())
    } else {
        Err(format!("{what} differ: {ours:?} vs engine {engine:?}"))
    }
}

/// The workload's records, collected untimed for a direct drive.
fn collect(workload: &Workload) -> Result<(SourceMeta, Vec<TraceRecord>), String> {
    let mut source = workload.open().map_err(|e| e.to_string())?;
    let mut records = Vec::with_capacity(source.size_hint().0);
    while let Some(r) = source.next_record() {
        records.push(r);
    }
    Ok((source.meta(), records))
}

/// What a direct drive of the serial cache produced.
struct SerialDrive {
    metrics: CacheMetrics,
    stats: ReplayStats,
    /// Cache calls per record op kind (indexed by [`IoOp::code`]).
    ops: [Span; 5],
    sink: Span,
}

/// Drives a [`BufferCache`] the way the serial replay engine does in
/// full report mode: one call per record repeat, each record's timing
/// kept, then folded into the running aggregates.
fn drive_serial(records: &[TraceRecord], meta: &SourceMeta, config: CacheConfig) -> SerialDrive {
    let mut cache = BufferCache::new(config);
    let files: Vec<FileId> = (0..meta.num_files)
        .map(|i| cache.register_file(format!("{}#{}", meta.sample_file, i)))
        .collect();
    let mut ops = [Span::default(); 5];
    let mut sink = Span::default();
    let mut timings = Vec::with_capacity(records.len());
    for r in records {
        let fid = files[r.file_id as usize];
        let repeats = r.num_records.max(1);
        let span = &mut ops[r.op.code() as usize];
        let mut total = 0.0;
        for _ in 0..repeats {
            let outcome = span.time(|| match r.op {
                IoOp::Open => cache.open(fid),
                IoOp::Close => cache.close(fid),
                IoOp::Read => cache.access_run(fid, r.offset, r.length, AccessKind::Read),
                IoOp::Write => cache.access_run(fid, r.offset, r.length, AccessKind::Write),
                IoOp::Seek => cache.seek(fid, r.offset),
            });
            total += outcome.cost_ms;
        }
        let elapsed_ms = total / f64::from(repeats);
        sink.time(|| timings.push(OpTiming { record: *r, elapsed_ms }));
    }
    let mut stats = ReplayStats::default();
    sink.time(|| {
        for t in &timings {
            stats.add(&t.record, t.elapsed_ms);
        }
    });
    SerialDrive { metrics: cache.metrics(), stats, ops, sink }
}

/// One parallel direct-drive worker's output.
struct WorkerDrive {
    owned: Vec<usize>,
    /// Per owned shard, each record's cost on that shard.
    costs: Vec<Vec<f64>>,
    /// Cache work per record op kind (indexed by [`IoOp::code`]).
    ops: [Span; 5],
    /// Time from asking for a shard lock to holding its guard.
    lock: Span,
}

/// What a direct drive of the sharded cache produced.
struct ParallelDrive {
    metrics: CacheMetrics,
    shard_metrics: Vec<CacheMetrics>,
    stats: ReplayStats,
    workers: Vec<WorkerDrive>,
    sink: Span,
}

/// The fixed per-operation cost the parallel engine's merge adds to
/// the shard costs.
fn base_cost(costs: &CacheCostModel, op: IoOp) -> f64 {
    match op {
        IoOp::Open => costs.open_base,
        IoOp::Close => costs.close_base,
        IoOp::Read | IoOp::Write => costs.op_base,
        IoOp::Seek => costs.seek_base,
    }
}

/// Drives a [`ShardedBufferCache`] the way the parallel replay engine
/// does: `threads` workers each own the shards `s % threads == w`, walk
/// every record through the per-page SPI under the shard locks, and
/// their per-shard costs merge per record in shard order into the
/// running aggregates.
fn drive_parallel(
    records: &[TraceRecord],
    meta: &SourceMeta,
    config: &CacheConfig,
    threads: usize,
    shards: usize,
) -> ParallelDrive {
    let cache = ShardedBufferCache::new(config.clone(), shards);
    let files: Vec<FileId> = (0..meta.num_files)
        .map(|i| cache.register_file(format!("{}#{}", meta.sample_file, i)))
        .collect();
    let num_shards = cache.num_shards();
    let threads = threads.clamp(1, num_shards);
    let workers: Vec<WorkerDrive> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (cache, files) = (&cache, &files);
                scope.spawn(move || drive_worker(cache, config, files, records, w, threads))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("direct-drive worker panicked")).collect()
    });

    let mut by_shard: Vec<&[f64]> = vec![&[]; num_shards];
    for w in &workers {
        for (&s, costs) in w.owned.iter().zip(&w.costs) {
            by_shard[s] = costs;
        }
    }
    let mut stats = ReplayStats::default();
    let mut sink = Span::default();
    for (i, r) in records.iter().enumerate() {
        let repeats = f64::from(r.num_records.max(1));
        let mut total = base_cost(&config.costs, r.op) * repeats;
        for costs in &by_shard {
            total += costs[i];
        }
        sink.time(|| stats.add(r, total / repeats));
    }
    let shard_metrics: Vec<CacheMetrics> =
        (0..num_shards).map(|s| cache.shard_metrics(s)).collect();
    let mut metrics = CacheMetrics::default();
    for m in &shard_metrics {
        metrics.merge(m);
    }
    ParallelDrive { metrics, shard_metrics, stats, workers, sink }
}

/// Worker `w` of `threads` of [`drive_parallel`].
fn drive_worker(
    cache: &ShardedBufferCache,
    config: &CacheConfig,
    files: &[FileId],
    records: &[TraceRecord],
    w: usize,
    threads: usize,
) -> WorkerDrive {
    let num_shards = cache.num_shards();
    let mine: Vec<bool> = (0..num_shards).map(|s| s % threads == w).collect();
    let owned: Vec<usize> = (0..num_shards).filter(|&s| mine[s]).collect();
    let mut slot = vec![usize::MAX; num_shards];
    for (k, &s) in owned.iter().enumerate() {
        slot[s] = k;
    }
    let page_size = config.page_size;
    let prefetch_active = config.prefetch_enabled && config.capacity_pages > 0;
    let mut prefetcher = Prefetcher::new(config.prefetch);
    let mut cursors = vec![RunCursor::default(); num_shards];
    let mut outs = vec![AccessOutcome::default(); num_shards];
    let mut touched: Vec<usize> = Vec::new();
    let mut costs: Vec<Vec<f64>> = owned.iter().map(|_| vec![0.0; records.len()]).collect();
    let mut ops = [Span::default(); 5];
    let mut lock = Span::default();
    let lock_shard = |lock: &mut Span, s: usize| {
        let asked = Instant::now();
        let guard = cache.lock_shard(s);
        lock.add(asked.elapsed());
        guard
    };

    for (i, r) in records.iter().enumerate() {
        let fid = files[r.file_id as usize];
        let started = Instant::now();
        for _ in 0..r.num_records.max(1) {
            match r.op {
                IoOp::Open => {
                    let id = PageId { file: fid, index: 0 };
                    let s = cache.shard_of(id);
                    if mine[s] {
                        let mut out = AccessOutcome::default();
                        lock_shard(&mut lock, s).stage_open_page(id, &mut out);
                        costs[slot[s]][i] += out.cost_ms;
                    }
                }
                IoOp::Close => {
                    for &s in &owned {
                        let mut out = AccessOutcome::default();
                        lock_shard(&mut lock, s).evict_file_pages(fid, &mut out);
                        costs[slot[s]][i] += out.cost_ms;
                    }
                    prefetcher.forget(fid);
                }
                IoOp::Seek => {
                    let index = r.offset / page_size;
                    if index > 0 {
                        prefetcher.on_access(fid, index, index.saturating_sub(1));
                    }
                }
                IoOp::Read | IoOp::Write => {
                    let kind =
                        if r.op == IoOp::Write { AccessKind::Write } else { AccessKind::Read };
                    let (first, last) = page_span(r.offset, r.length, page_size);
                    touched.clear();
                    let mut index = first;
                    while index <= last {
                        let s = cache.shard_of(PageId { file: fid, index });
                        let block_end = (index | (SHARD_BLOCK_PAGES - 1)).min(last);
                        if mine[s] {
                            if !touched.contains(&s) {
                                touched.push(s);
                                cursors[s] = RunCursor::default();
                                outs[s] = AccessOutcome::default();
                            }
                            let mut shard = lock_shard(&mut lock, s);
                            for p in index..=block_end {
                                shard.page_access(
                                    PageId { file: fid, index: p },
                                    kind,
                                    false,
                                    &mut cursors[s],
                                    &mut outs[s],
                                );
                            }
                        }
                        index = block_end + 1;
                    }
                    for &s in &touched {
                        if cursors[s].has_pending_promotion() {
                            lock_shard(&mut lock, s).finish_run(cursors[s]);
                        }
                    }
                    if prefetch_active {
                        let window = prefetcher.on_access(fid, first, last);
                        for ahead in 1..=window {
                            let id = PageId { file: fid, index: last + ahead };
                            let s = cache.shard_of(id);
                            if mine[s] {
                                if !touched.contains(&s) {
                                    touched.push(s);
                                    outs[s] = AccessOutcome::default();
                                }
                                lock_shard(&mut lock, s).stage_prefetch(id, &mut outs[s]);
                            }
                        }
                    }
                    for &s in &touched {
                        costs[slot[s]][i] += outs[s].cost_ms;
                    }
                }
            }
        }
        ops[r.op.code() as usize].add(started.elapsed());
    }
    WorkerDrive { owned, costs, ops, lock }
}

/// What a direct drive of the closed serving loop produced.
struct ServeDrive {
    summary: ServeSummary,
    metrics: CacheMetrics,
    records: u64,
    /// Wall time of the whole loop, set-up included, ns.
    loop_ns: f64,
    open: Span,
    next: Span,
    runtime: Span,
    sink: Span,
}

/// One closed-loop client of [`drive_serve`].
struct Client {
    stream: SynthSource,
    ready: f64,
    done: bool,
}

/// Drives the closed serving loop the way the serving engine does:
/// `CLIENTS` reseeded client streams, each request dispatched through
/// [`SharedManagedIo`] and queued on the cache shard its page hashes
/// to, every latency recorded into a [`PercentileSink`].
fn drive_serve(profile: &TraceProfile) -> Result<ServeDrive, String> {
    let started = Instant::now();
    let (mut open, mut next, mut runtime, mut sink_span) =
        (Span::default(), Span::default(), Span::default(), Span::default());
    let managed = SharedManagedIo::new(CacheConfig::default(), SHARDS, JitModel::sscli_like());
    let mut clients = (0..CLIENTS as u64)
        .map(|c| {
            let client = TraceProfile { seed: client_seed(profile.seed, c), ..profile.clone() };
            let stream = open.time(|| SynthSource::new(client)).map_err(|e| e.to_string())?;
            Ok(Client { stream, ready: 0.0, done: false })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let num_files = clients.iter().map(|c| c.stream.meta().num_files).max().unwrap_or(0);
    let files: Vec<FileId> =
        (0..num_files).map(|i| managed.register_file(format!("serve-{i}"))).collect();
    let page_size = managed.cache().config().page_size;
    let mut shard_busy = vec![0.0f64; managed.cache().num_shards()];
    let mut sink = PercentileSink::default();
    let (mut makespan, mut jit_ms, mut records) = (0.0f64, 0.0f64, 0u64);

    while let Some(c) = clients
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.done)
        .min_by(|(ai, a), (bi, b)| a.ready.total_cmp(&b.ready).then(ai.cmp(bi)))
        .map(|(i, _)| i)
    {
        let client = &mut clients[c];
        let request = loop {
            let stream = &mut client.stream;
            let Some(r) = next.time(|| stream.next_record()) else { break None };
            records += 1;
            if r.op == IoOp::Seek {
                continue;
            }
            let fid = files[r.file_id as usize];
            let shard_of = |offset: u64| {
                managed.cache().shard_of(PageId { file: fid, index: offset / page_size })
            };
            break Some(runtime.time(|| -> (StreamOp, usize) {
                match r.op {
                    IoOp::Open => (managed.open("open", SERVE_FILE_OPS, fid), shard_of(0)),
                    IoOp::Close => (managed.close("close", SERVE_FILE_OPS, fid), shard_of(0)),
                    IoOp::Read => (
                        managed.read("doGet", SERVE_GET_OPS, fid, r.offset, r.length),
                        shard_of(r.offset),
                    ),
                    IoOp::Write => (
                        managed.write("doPost", SERVE_POST_OPS, fid, r.offset, r.length),
                        shard_of(r.offset),
                    ),
                    IoOp::Seek => unreachable!("seeks are dropped before dispatch"),
                }
            }));
        };
        let Some((op, shard)) = request else {
            client.done = true;
            continue;
        };
        let start = client.ready.max(shard_busy[shard]);
        let end = start + op.cost_ms;
        shard_busy[shard] = end;
        let latency = (start - client.ready) + op.cost_ms;
        sink_span.time(|| sink.record(latency));
        jit_ms += op.jit_ms;
        makespan = makespan.max(end);
        client.ready = end;
    }

    Ok(ServeDrive {
        summary: ServeSummary::from_sink(&sink, CLIENTS, 0, makespan, jit_ms),
        metrics: managed.cache_metrics(),
        records,
        loop_ns: started.elapsed().as_nanos() as f64,
        open,
        next,
        runtime,
        sink: sink_span,
    })
}
