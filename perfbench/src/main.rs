//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--print-hashes]
//! ```
//!
//! Generates a run's inputs from `--seed`, then runs back-to-back
//! experiments through the public `clio_exp::Experiment` API for
//! `--seconds` (and at least 100 of them), checking every output. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the metrics — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a separate traced run with
//! `--trace 1` (see `layers.rs`). `--tiny` shrinks every input and the
//! experiment count for the self-test; `--print-hashes` prints each
//! input's report-summary hash, the form of `reference/summary_hashes.txt`.

mod layers;
mod measure;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{
    calibrate_timer_ns, fnv1a, peak_rss_mib, process_cpu_seconds, quantile, speed_probe_ms,
    REFERENCE_PROBE_MS,
};
use workloads::{Input, Kind};

const USAGE: &str =
    "usage: perfbench --workload <scan_replay|hot_parallel|admit_sim|serve_closed> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--print-hashes]";

/// Distinct inputs a run generates; the sweep cycles through them, so
/// every input repeats and each repeat must reproduce its summary.
const INPUTS: u64 = 32;
/// Fewest experiments a measured run makes, whatever `--seconds` says:
/// enough for `exp_ms_p90` to have ten samples above it.
const MIN_EXPERIMENTS: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The seed whose per-input summary hashes are pinned in
/// `reference/summary_hashes.txt`.
const REFERENCE_SEED: u64 = 1;
const REFERENCE_HASHES: &str = include_str!("../reference/summary_hashes.txt");

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    print_hashes: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut tiny, mut print_hashes) = (false, false);
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    kind = Some(
                        Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => {
                    seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?)
                }
                "--seconds" => {
                    seconds = Some(value()?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    })
                }
                "--tiny" => tiny = true,
                "--print-hashes" => print_hashes = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            tiny,
            print_hashes,
        })
    }
}

/// A per-run directory for generated input files, removed with
/// everything in it when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    /// A fresh directory beside the benchmark executable — inside the
    /// build directory, so a run writes nowhere else.
    fn create() -> Result<WorkDir, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
        let base = exe.parent().ok_or("the executable has no parent directory")?;
        let dir = base.join("perfbench-work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory only costs disk space. The
        // shared parent goes too once no other run is using it.
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Generates every input of the run, then warms up with one checked
/// experiment.
fn setup(args: &Args, dir: &Path) -> Result<Vec<Input>, String> {
    let inputs = (0..if args.tiny { 2 } else { INPUTS })
        .map(|i| workloads::generate(args.kind, args.seed, i, args.tiny, dir))
        .collect::<Result<Vec<_>, _>>()?;
    let (report, _) = workloads::run(&inputs[0].experiment)?;
    workloads::check(args.kind, &report, &inputs[0].expected)
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok(inputs)
}

/// Hash of an experiment's serialized summary. The workload label is
/// left out: for `admit_sim` it names the input file's path, which
/// differs from checkout to checkout.
fn summary_hash(report: &clio_exp::Report) -> u64 {
    let mut summary = report.summary();
    summary.workload.clear();
    fnv1a(summary.to_json().as_bytes())
}

/// The pinned summary hashes of `kind`'s inputs under the reference
/// seed, in input order.
fn reference_hashes(kind: Kind) -> Result<Vec<u64>, String> {
    REFERENCE_HASHES
        .lines()
        .filter_map(|l| l.strip_prefix(kind.name()).and_then(|rest| rest.strip_prefix(' ')))
        .map(|h| {
            u64::from_str_radix(h.trim(), 16).map_err(|e| format!("bad reference hash {h:?}: {e}"))
        })
        .collect()
}

/// One JSON result line.
fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let dir = WorkDir::create()?;
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let scale = REFERENCE_PROBE_MS / speed_probe_ms();
        let started = Instant::now();
        inputs = setup(args, &dir.0)?;
        setup_s.push(started.elapsed().as_secs_f64() * scale);
    }
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let min_experiments = if args.tiny { 4 } else { MIN_EXPERIMENTS };

    if args.print_hashes {
        let mut lines = Vec::new();
        for input in &inputs {
            let (report, _) = workloads::run(&input.experiment)?;
            lines.push(format!("{} {:016x}", args.kind.name(), summary_hash(&report)));
        }
        return Ok(lines.join("\n"));
    }

    if args.trace {
        let mut tracer = layers::Tracer::new(args.kind, calibrate_timer_ns());
        // Whole cycles over the inputs, so per-experiment counts repeat
        // exactly from run to run.
        loop {
            for input in &inputs {
                tracer.experiment(input);
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        let (attempted, failed) = tracer.outcome();
        return result_line(attempted, failed, &tracer.metrics());
    }

    let reference = if args.seed == REFERENCE_SEED && !args.tiny {
        reference_hashes(args.kind)?
    } else {
        Vec::new()
    };
    let mut first_hash: Vec<Option<u64>> = vec![None; inputs.len()];
    let (mut attempted, mut failed, mut records) = (0u64, 0u64, 0u64);
    // Experiment times scaled to the reference host's speed, ms.
    let mut exp_ms = Vec::new();
    let (mut raw_ms, mut cpu_s) = (0.0, 0.0);
    // The probes bracket each experiment: one before, one after.
    let mut probe_ms = speed_probe_ms();
    let mut i = 0;
    while i < min_experiments || Instant::now() < deadline {
        let k = i % inputs.len();
        let input = &inputs[k];
        i += 1;
        attempted += 1;
        // CPU time per experiment, summed: the 10 ms ticks' rounding
        // errors average out over the sweep.
        let cpu_before = process_cpu_seconds()?;
        let outcome = workloads::run(&input.experiment);
        let cpu = process_cpu_seconds()? - cpu_before;
        let probe_after_ms = speed_probe_ms();
        let scale = 2.0 * REFERENCE_PROBE_MS / (probe_ms + probe_after_ms);
        probe_ms = probe_after_ms;
        let outcome = outcome.and_then(|(report, ms)| {
            workloads::check(args.kind, &report, &input.expected)?;
            let hash = summary_hash(&report);
            let expected = *first_hash[k].get_or_insert(reference.get(k).copied().unwrap_or(hash));
            if hash != expected {
                return Err(format!(
                    "summary hash {hash:016x} != {expected:016x} of the same input"
                ));
            }
            Ok((report.records, ms))
        });
        match outcome {
            Ok((n, ms)) => {
                records += n;
                raw_ms += ms;
                cpu_s += cpu;
                exp_ms.push(ms * scale);
            }
            Err(e) => {
                failed += 1;
                eprintln!(
                    "perfbench: {} experiment {i} (seed {:#x}) failed: {e}",
                    args.kind.name(),
                    input.seed
                );
            }
        }
    }
    let run_s: f64 = exp_ms.iter().sum::<f64>() / 1e3;
    let scale = if raw_ms > 0.0 { run_s * 1e3 / raw_ms } else { 1.0 };
    eprintln!(
        "perfbench: {} ran {attempted} experiments ({failed} failed) on {} cores; unscaled {:.0} records/s, speed scale {scale:.3}",
        args.kind.name(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if raw_ms > 0.0 { records as f64 / raw_ms * 1e3 } else { 0.0 },
    );
    result_line(
        attempted,
        failed,
        &[
            ("records_per_s", if run_s > 0.0 { records as f64 / run_s } else { 0.0 }, "1/s"),
            ("exp_ms_p50", quantile(&exp_ms, 0.5), "ms"),
            ("exp_ms_p90", quantile(&exp_ms, 0.9), "ms"),
            (
                "cpu_us_per_rec",
                if records > 0 { cpu_s * scale * 1e6 / records as f64 } else { 0.0 },
                "us",
            ),
            ("peak_rss_mib", peak_rss_mib()?, "MiB"),
            ("setup_s", quantile(&setup_s, 0.5), "s"),
        ],
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
