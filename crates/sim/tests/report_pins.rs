//! Bit-identity pins on the simulators' reports.
//!
//! Each pin records the exact IEEE bits of a run's makespan and
//! per-process finish times, plus its event, byte, retry and drop
//! counts. The values were computed before the event engine and the
//! striping arithmetic were rewritten, so a refactor that reorders a
//! single simultaneous event or perturbs one float rounding fails here.
//! On a mismatch the test prints the whole table as it now computes it.

use clio_model::catalog::all_catalog_applications;
use clio_sim::executor::simulate;
use clio_sim::machine::MachineConfig;
use clio_sim::sched::Policy;
use clio_sim::sched_replay::{scheduled_trace_sim, DiskFaultPlan, SchedReplayOptions};
use clio_sim::trace_driven::{trace_sim, ThinkTime, TraceSimOptions, TraceSimReport};
use clio_trace::record::IoOp;
use clio_trace::writer::TraceWriter;
use clio_trace::TraceFile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pinned projection of one report.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Pin {
    makespan: u64,
    finish: Vec<u64>,
    events: u64,
    bytes: u64,
    retries: u64,
    dropped: u64,
}

impl Pin {
    fn of(r: &TraceSimReport) -> Self {
        Self {
            makespan: r.makespan.to_bits(),
            finish: r.process_finish.iter().map(|f| f.to_bits()).collect(),
            events: r.events,
            bytes: r.bytes_moved,
            retries: r.retries,
            dropped: r.dropped_requests,
        }
    }
}

/// Eight processes issuing scattered 4 KiB reads at one disk.
fn contended_trace() -> TraceFile {
    let mut rng = StdRng::seed_from_u64(17);
    let mut w = TraceWriter::new("rand.dat").with_processes(8);
    for _ in 0..24 {
        for pid in 0..8 {
            let offset = rng.gen_range(0..(1u64 << 30));
            w.record(IoOp::Read, pid, 0, offset, 4096);
        }
    }
    w.finish().expect("valid trace")
}

/// Three processes mixing metadata records with transfers whose sizes
/// are not multiples of the stripe unit, so stripes end in short tails.
fn striped_trace() -> TraceFile {
    let mut rng = StdRng::seed_from_u64(5);
    let mut w = TraceWriter::new("stripe.dat").with_processes(3).with_tick_us(700);
    for pid in 0..3 {
        w.record(IoOp::Open, pid, 0, 0, 0);
    }
    for _ in 0..10 {
        for pid in 0..3 {
            let offset = rng.gen_range(0..(1u64 << 30));
            let length = rng.gen_range(1..(1u64 << 20));
            let op = if rng.gen_range(0..4) == 0 { IoOp::Write } else { IoOp::Read };
            w.record(op, pid, 0, offset, length);
        }
    }
    for pid in 0..3 {
        w.record(IoOp::Close, pid, 0, 0, 0);
    }
    w.finish().expect("valid trace")
}

fn scheduled(trace: &TraceFile, disks: usize, options: SchedReplayOptions) -> Pin {
    Pin::of(&scheduled_trace_sim(trace, &MachineConfig::with_disks(disks), &options))
}

/// Every pinned run, by name, as this build computes it.
fn actual() -> Vec<(String, Pin)> {
    let contended = contended_trace();
    let striped = striped_trace();
    let mut out = Vec::new();
    for policy in Policy::ALL {
        let options = SchedReplayOptions { policy, ..Default::default() };
        out.push((format!("sched/{}", policy.name()), scheduled(&contended, 1, options)));
    }
    let flaky = SchedReplayOptions { faults: DiskFaultPlan::flaky(5), ..Default::default() };
    out.push(("sched/flaky5".into(), scheduled(&contended, 1, flaky)));
    let dropping = SchedReplayOptions {
        faults: DiskFaultPlan { max_retries: 0, ..DiskFaultPlan::flaky(5) },
        ..Default::default()
    };
    out.push(("sched/flaky5-no-retry".into(), scheduled(&contended, 1, dropping)));
    out.push(("sched/striped-2".into(), scheduled(&striped, 2, SchedReplayOptions::default())));
    let from_trace = TraceSimOptions { think_time: ThinkTime::FromTrace };
    let report = trace_sim(&striped, &MachineConfig::with_disks(3), &from_trace);
    out.push(("trace/from-trace-3".into(), Pin::of(&report)));
    for app in all_catalog_applications() {
        let r = simulate(&app, &MachineConfig::with_disks(2));
        let pin = Pin {
            makespan: r.makespan.to_bits(),
            finish: r.programs.iter().map(|p| p.finish.seconds().to_bits()).collect(),
            events: r.events,
            bytes: 0,
            retries: 0,
            dropped: 0,
        };
        out.push((format!("app/{}", app.name()), pin));
    }
    out
}

/// `(name, makespan, finish, events, bytes, retries, dropped)`.
type Row = (&'static str, u64, &'static [u64], u64, u64, u64, u64);

#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    ("sched/FCFS", 0x400324846d7d2796, &[0x40027ab1c265a355, 0x400293488235e73c, 0x4002a49dbd239c0a, 0x4002c40d421b3b81, 0x4002e23a26a5fe0c, 0x4002f37ede80f4f0, 0x40030e82a92747d0, 0x400324846d7d2796], 392, 786432, 0, 0),
    ("sched/SSTF", 0x3ffd950f0e7eca0b, &[0x3ff8a4470b1a0383, 0x3ff9c5a430055d09, 0x3ff76c851a000288, 0x3ffd950f0e7eca0b, 0x3ff72405eef3c28f, 0x3ffb7378a4d74ac8, 0x3ffcc92103d49b4f, 0x3ffa79244f088d1d], 392, 786432, 0, 0),
    ("sched/SCAN", 0x3ffd74341e514c20, &[0x3ffd04f878dab301, 0x3ffc8468934d52a9, 0x3ffcd4e3e2fc1e64, 0x3ffd74341e514c20, 0x3ff9ebc3bef74071, 0x3ffa0e4d2ead2e39, 0x3ffb80601b4f2ad3, 0x3ffbac63a3faea5f], 392, 786432, 0, 0),
    ("sched/C-LOOK", 0x3ffed151729a4195, &[0x3ffe7ca681f96666, 0x3ffed151729a4195, 0x3ffa45d14f26a020, 0x3ffd248fc5c17ff3, 0x3ffdd06674567bb8, 0x3ff9ff60edde5f37, 0x3ff7dd35b865b89d, 0x3ffe4708297b5693], 392, 786432, 0, 0),
    ("sched/flaky5", 0x4004be77a5ee8829, &[0x400409db35fc73e4, 0x40042271f5ccb7cb, 0x400433c730ba6c99, 0x40045336b5b20c10, 0x400471639a3cce9b, 0x40048d7216f25583, 0x4004a875e198a863, 0x4004be77a5ee8829], 430, 786432, 38, 0),
    ("sched/flaky5-no-retry", 0x400324846d7d2796, &[0x40027ab1c265a355, 0x400293488235e73c, 0x4002a49dbd239c0a, 0x4002c40d421b3b81, 0x4002e23a26a5fe0c, 0x4002f37ede80f4f0, 0x40030e82a92747d0, 0x400324846d7d2796], 392, 786432, 0, 38),
    ("sched/striped-2", 0x3fe09c90aee489b0, &[0x3fdf2315de6b81d1, 0x3fe0472dedd48a2a, 0x3fe09c90aee489b0], 96, 15535380, 0, 0),
    ("trace/from-trace-3", 0x3fe05c8f0cb7d417, &[0x3fde926bbc6a7efa, 0x3fdfe201915379fb, 0x3fe05c8f0cb7d417], 39, 15535380, 0, 0),
    ("app/QCRD", 0x4063973b254302c2, &[0x4063973b254302c2, 0x40584d9b3ce15f52], 113, 0, 0, 0),
    ("app/Seismic", 0x4069fa6757a994e8, &[0x4069fa6757a994e8], 52, 0, 0, 0),
    ("app/PSTSWM", 0x4071ddc95182a4ba, &[0x4071ddc95182a4ba], 91, 0, 0, 0),
    ("app/Dmine-model", 0x40550190b611f264, &[0x40550190b611f264], 19, 0, 0, 0),
    ("app/Render", 0x406711a9a80495cd, &[0x4065120c34c1a8b8, 0x406711a9a80495cd], 50, 0, 0, 0),
];

#[test]
fn reports_match_the_pinned_bits() {
    let actual = actual();
    let expected: Vec<(String, Pin)> = EXPECTED
        .iter()
        .map(|&(name, makespan, finish, events, bytes, retries, dropped)| {
            let pin = Pin { makespan, finish: finish.to_vec(), events, bytes, retries, dropped };
            (name.to_string(), pin)
        })
        .collect();
    if actual != expected {
        let mut table = String::new();
        for (name, p) in &actual {
            let finish: Vec<String> = p.finish.iter().map(|b| format!("{b:#x}")).collect();
            table.push_str(&format!(
                "    (\"{name}\", {:#x}, &[{}], {}, {}, {}, {}),\n",
                p.makespan,
                finish.join(", "),
                p.events,
                p.bytes,
                p.retries,
                p.dropped
            ));
        }
        panic!("reports moved off their pinned bits; this build computes:\n{table}");
    }
}
