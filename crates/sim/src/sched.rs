//! Disk request scheduling policies.
//!
//! The trace replayer and the striped-array executor both issue batches
//! of requests at the device; the *order* the device serves them in
//! decides how much time is lost to head movement. This module provides
//! the classic schedulers as an ablation axis for the paper's storage
//! substrate:
//!
//! - **FCFS** — serve in arrival order (the baseline the rest of the
//!   crate assumes),
//! - **SSTF** — shortest-seek-time-first, greedily serving the request
//!   nearest the current head position,
//! - **SCAN** — the elevator: sweep in one direction serving everything
//!   on the way, reverse at the last pending request (LOOK-style — the
//!   head does not travel to the physical edge when nothing is there),
//! - **C-LOOK** — circular LOOK: sweep upward only, wrapping from the
//!   highest pending request back to the lowest.
//!
//! Seek *time* is derived from seek *distance* through
//! [`SeekCurve`], the Ruemmler–Wilkes-style `a + b·√d` curve calibrated
//! so a mean-distance seek costs exactly the [`DiskModel`]'s average
//! seek time.
//!
//! ```
//! use clio_sim::sched::{DiskRequest, Policy, Scheduler};
//!
//! let reqs = [(98, 0), (183, 1), (37, 2), (122, 3)]
//!     .map(|(cyl, id)| DiskRequest { id, cylinder: cyl, bytes: 4096 });
//! let order = Scheduler::order(Policy::Sstf, 53, reqs.to_vec());
//! assert_eq!(order[0].cylinder, 37, "SSTF serves the nearest request first");
//! ```

use std::cmp::Reverse;
use std::collections::VecDeque;

use crate::disk::DiskModel;

/// One pending request at the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskRequest {
    /// Caller-chosen identity, preserved through reordering.
    pub id: u64,
    /// Target cylinder.
    pub cylinder: u64,
    /// Transfer size in bytes.
    pub bytes: u64,
}

/// The scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// First-come-first-served.
    Fcfs,
    /// Shortest-seek-time-first (greedy nearest cylinder).
    Sstf,
    /// Elevator sweep, reversing at the last pending request (LOOK).
    Scan,
    /// Circular LOOK: upward sweeps only, wrapping low after the top.
    CLook,
}

impl Policy {
    /// All policies, in ablation order.
    pub const ALL: [Policy; 4] = [Policy::Fcfs, Policy::Sstf, Policy::Scan, Policy::CLook];

    /// Short display name used in bench output rows.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fcfs => "FCFS",
            Policy::Sstf => "SSTF",
            Policy::Scan => "SCAN",
            Policy::CLook => "C-LOOK",
        }
    }
}

/// Sweep direction of the SCAN elevator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Up,
    Down,
}

/// An incremental disk-request scheduler.
///
/// Requests may be pushed at any time; [`Scheduler::next`] pops the one
/// the policy would serve now and moves the head there. The pending
/// requests sit in one queue **in arrival order**, so FCFS pops the
/// front and the other policies break ties by queue index, which is
/// arrival order. Determinism: cylinder ties are broken toward the
/// lower cylinder, then the earlier arrival.
///
/// SSTF, SCAN and C-LOOK scan every pending request for each pick, so
/// a pick costs O(queue depth).
#[derive(Debug, Clone)]
pub struct Scheduler {
    policy: Policy,
    head: u64,
    direction: Direction,
    /// Pending requests, oldest first.
    pending: VecDeque<DiskRequest>,
}

impl Scheduler {
    /// Creates a scheduler with the head parked at `head`.
    pub fn new(policy: Policy, head: u64) -> Self {
        Self { policy, head, direction: Direction::Up, pending: VecDeque::new() }
    }

    /// Current head cylinder.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Adds a request to the pending set.
    pub fn push(&mut self, req: DiskRequest) {
        self.pending.push_back(req);
    }

    /// Pops the next request per the policy and moves the head to it.
    ///
    /// Deliberately named like a queue pop; the scheduler is stateful
    /// (pushes may interleave), so implementing `Iterator` would
    /// mislead more than it helps.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<DiskRequest> {
        if self.pending.is_empty() {
            return None;
        }
        let idx = match self.policy {
            Policy::Fcfs => 0,
            Policy::Sstf => self.pick_sstf(),
            Policy::Scan => self.pick_scan(),
            Policy::CLook => self.pick_clook(),
        };
        // Removing the front (FCFS) is O(1); elsewhere the shift is no
        // dearer than the scan that picked `idx`.
        let req = self.pending.remove(idx)?;
        self.head = req.cylinder;
        Some(req)
    }

    /// Convenience: serves a whole batch to completion, returning the
    /// service order.
    pub fn order(policy: Policy, head: u64, batch: Vec<DiskRequest>) -> Vec<DiskRequest> {
        let mut s = Scheduler::new(policy, head);
        for r in batch {
            s.push(r);
        }
        let mut out = Vec::with_capacity(s.len());
        while let Some(r) = s.next() {
            out.push(r);
        }
        out
    }

    fn pick_sstf(&self) -> usize {
        self.pending
            .iter()
            .enumerate()
            .min_by_key(|&(i, r)| (r.cylinder.abs_diff(self.head), r.cylinder, i))
            .map(|(i, _)| i)
            .expect("pending is non-empty")
    }

    /// Nearest pending request at or above the head (distance, then
    /// arrival), if any.
    fn nearest_up(&self) -> Option<usize> {
        self.pending
            .iter()
            .enumerate()
            .filter(|&(_, r)| r.cylinder >= self.head)
            .min_by_key(|&(i, r)| (r.cylinder, i))
            .map(|(i, _)| i)
    }

    fn nearest_down(&self) -> Option<usize> {
        self.pending
            .iter()
            .enumerate()
            .filter(|&(_, r)| r.cylinder <= self.head)
            .max_by_key(|&(i, r)| (r.cylinder, Reverse(i)))
            .map(|(i, _)| i)
    }

    fn pick_scan(&mut self) -> usize {
        match self.direction {
            Direction::Up => {
                if let Some(i) = self.nearest_up() {
                    i
                } else {
                    self.direction = Direction::Down;
                    self.nearest_down().expect("pending is non-empty")
                }
            }
            Direction::Down => {
                if let Some(i) = self.nearest_down() {
                    i
                } else {
                    self.direction = Direction::Up;
                    self.nearest_up().expect("pending is non-empty")
                }
            }
        }
    }

    fn pick_clook(&self) -> usize {
        // Upward sweep; if nothing is at or above the head, wrap to the
        // lowest pending cylinder.
        self.nearest_up().unwrap_or_else(|| {
            self.pending
                .iter()
                .enumerate()
                .min_by_key(|&(i, r)| (r.cylinder, i))
                .map(|(i, _)| i)
                .expect("pending is non-empty")
        })
    }
}

/// Distance-dependent seek-time curve, `a + b·√d` for `d > 0`.
///
/// Calibrated from a [`DiskModel`]: a single-track seek costs 30 % of
/// the model's average seek, and a seek across one third of the disk
/// (the mean distance between two uniformly random cylinders) costs
/// exactly the average seek. This is the standard square-root shape of
/// Ruemmler & Wilkes' disk modeling paper.
#[derive(Debug, Clone, Copy)]
pub struct SeekCurve {
    a: f64,
    b: f64,
    /// Total cylinders on the device.
    pub cylinders: u64,
}

impl SeekCurve {
    /// Builds the curve for a device of `cylinders` cylinders whose
    /// average seek time comes from `model`.
    ///
    /// # Panics
    /// Panics if `cylinders` is zero.
    pub fn from_model(model: &DiskModel, cylinders: u64) -> Self {
        assert!(cylinders > 0, "device needs at least one cylinder");
        let avg = model.seek;
        let a = 0.3 * avg;
        let mean_distance = (cylinders as f64 / 3.0).max(1.0);
        let b = (avg - a) / mean_distance.sqrt();
        Self { a, b, cylinders }
    }

    /// Seek time for a head movement of `distance` cylinders.
    pub fn seek_time(&self, distance: u64) -> f64 {
        if distance == 0 {
            0.0
        } else {
            self.a + self.b * (distance as f64).sqrt()
        }
    }
}

/// Outcome of serving one batch under a policy.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Requests in service order.
    pub order: Vec<DiskRequest>,
    /// Total head travel in cylinders.
    pub seek_cylinders: u64,
    /// Total seek time in seconds.
    pub seek_time: f64,
    /// Total service time (seek + rotation + transfer) in seconds.
    pub service_time: f64,
}

impl ScheduleOutcome {
    /// Mean per-request service time.
    pub fn mean_service(&self) -> f64 {
        if self.order.is_empty() {
            0.0
        } else {
            self.service_time / self.order.len() as f64
        }
    }
}

/// Serves `batch` to completion under `policy` from head position
/// `head`, charging seek time via `curve` and rotation + transfer via
/// `model`.
pub fn run_schedule(
    model: &DiskModel,
    curve: &SeekCurve,
    policy: Policy,
    head: u64,
    batch: Vec<DiskRequest>,
) -> ScheduleOutcome {
    let order = Scheduler::order(policy, head, batch);
    let mut pos = head;
    let mut seek_cylinders = 0u64;
    let mut seek_time = 0.0;
    let mut service_time = 0.0;
    for r in &order {
        let d = r.cylinder.abs_diff(pos);
        seek_cylinders += d;
        let st = curve.seek_time(d);
        seek_time += st;
        service_time += st + model.rotational + model.transfer(r.bytes);
        pos = r.cylinder;
    }
    ScheduleOutcome { order, seek_cylinders, seek_time, service_time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn req(id: u64, cyl: u64) -> DiskRequest {
        DiskRequest { id, cylinder: cyl, bytes: 4096 }
    }

    /// The textbook example (Silberschatz): head 53, queue
    /// 98, 183, 37, 122, 14, 124, 65, 67.
    fn textbook() -> Vec<DiskRequest> {
        [98, 183, 37, 122, 14, 124, 65, 67]
            .iter()
            .enumerate()
            .map(|(i, &c)| req(i as u64, c))
            .collect()
    }

    fn cylinders(order: &[DiskRequest]) -> Vec<u64> {
        order.iter().map(|r| r.cylinder).collect()
    }

    fn travel(head: u64, order: &[DiskRequest]) -> u64 {
        let mut pos = head;
        let mut total = 0;
        for r in order {
            total += r.cylinder.abs_diff(pos);
            pos = r.cylinder;
        }
        total
    }

    #[test]
    fn fcfs_preserves_arrival_order() {
        let order = Scheduler::order(Policy::Fcfs, 53, textbook());
        assert_eq!(cylinders(&order), vec![98, 183, 37, 122, 14, 124, 65, 67]);
        assert_eq!(travel(53, &order), 640, "textbook FCFS travel");
    }

    #[test]
    fn sstf_matches_textbook() {
        let order = Scheduler::order(Policy::Sstf, 53, textbook());
        assert_eq!(cylinders(&order), vec![65, 67, 37, 14, 98, 122, 124, 183]);
        assert_eq!(travel(53, &order), 236, "textbook SSTF travel");
    }

    #[test]
    fn scan_sweeps_up_then_down() {
        let order = Scheduler::order(Policy::Scan, 53, textbook());
        assert_eq!(cylinders(&order), vec![65, 67, 98, 122, 124, 183, 37, 14]);
        // LOOK variant: reverses at 183, not at the disk edge.
        assert_eq!(travel(53, &order), 299);
    }

    #[test]
    fn clook_wraps_to_lowest() {
        let order = Scheduler::order(Policy::CLook, 53, textbook());
        assert_eq!(cylinders(&order), vec![65, 67, 98, 122, 124, 183, 14, 37]);
    }

    #[test]
    fn empty_batch_yields_nothing() {
        for p in Policy::ALL {
            assert!(Scheduler::order(p, 10, vec![]).is_empty());
            let mut s = Scheduler::new(p, 10);
            assert!(s.next().is_none());
            assert!(s.is_empty());
            assert_eq!(s.len(), 0);
        }
    }

    #[test]
    fn duplicate_cylinders_tie_break_by_arrival() {
        let batch = vec![req(0, 70), req(1, 70), req(2, 70)];
        for p in Policy::ALL {
            let order = Scheduler::order(p, 53, batch.clone());
            assert_eq!(
                order.iter().map(|r| r.id).collect::<Vec<_>>(),
                vec![0, 1, 2],
                "{} must break cylinder ties by arrival",
                p.name()
            );
        }
    }

    #[test]
    fn incremental_push_between_pops() {
        let mut s = Scheduler::new(Policy::Sstf, 50);
        s.push(req(0, 90));
        s.push(req(1, 60));
        assert_eq!(s.next().unwrap().cylinder, 60);
        // A closer request arriving after the first pop is served next.
        s.push(req(2, 62));
        assert_eq!(s.next().unwrap().cylinder, 62);
        assert_eq!(s.next().unwrap().cylinder, 90);
        assert_eq!(s.head(), 90);
    }

    #[test]
    fn seek_curve_zero_distance_is_free() {
        let c = SeekCurve::from_model(&DiskModel::commodity_2003(), 60_000);
        assert_eq!(c.seek_time(0), 0.0);
        assert!(c.seek_time(1) > 0.0);
    }

    #[test]
    fn seek_curve_calibrated_to_average() {
        let m = DiskModel::commodity_2003();
        let c = SeekCurve::from_model(&m, 60_000);
        let mean_d = 60_000 / 3;
        assert!((c.seek_time(mean_d) - m.seek).abs() < 1e-9);
        // Full-stroke seek costs more than average, single-track less.
        assert!(c.seek_time(60_000) > m.seek);
        assert!(c.seek_time(1) < m.seek);
    }

    #[test]
    fn run_schedule_accounts_rotation_and_transfer() {
        let m = DiskModel::commodity_2003();
        let c = SeekCurve::from_model(&m, 60_000);
        let out = run_schedule(&m, &c, Policy::Fcfs, 0, vec![req(0, 0), req(1, 0)]);
        // Both requests on the current cylinder: no seek, two rotations
        // plus two transfers.
        assert_eq!(out.seek_cylinders, 0);
        assert_eq!(out.seek_time, 0.0);
        let expected = 2.0 * (m.rotational + m.transfer(4096));
        assert!((out.service_time - expected).abs() < 1e-12);
        assert!((out.mean_service() - expected / 2.0).abs() < 1e-12);
    }

    #[test]
    fn sstf_beats_fcfs_on_average() {
        // Statistical, seeded: over random batches SSTF's mean travel
        // must be well below FCFS's.
        let mut rng = StdRng::seed_from_u64(0x5EE4_0001);
        let mut fcfs_total = 0u64;
        let mut sstf_total = 0u64;
        for _ in 0..200 {
            let head = rng.gen_range(0..10_000);
            let batch: Vec<_> = (0..32).map(|i| req(i, rng.gen_range(0..10_000))).collect();
            fcfs_total += travel(head, &Scheduler::order(Policy::Fcfs, head, batch.clone()));
            sstf_total += travel(head, &Scheduler::order(Policy::Sstf, head, batch));
        }
        assert!(
            (sstf_total as f64) < 0.5 * fcfs_total as f64,
            "SSTF travel {sstf_total} not well below FCFS {fcfs_total}"
        );
    }

    proptest! {
        #[test]
        fn every_policy_serves_each_request_once(
            head in 0u64..10_000,
            cyls in proptest::collection::vec(0u64..10_000, 0..64),
        ) {
            let batch: Vec<_> =
                cyls.iter().enumerate().map(|(i, &c)| req(i as u64, c)).collect();
            for p in Policy::ALL {
                let order = Scheduler::order(p, head, batch.clone());
                let mut ids: Vec<_> = order.iter().map(|r| r.id).collect();
                ids.sort_unstable();
                prop_assert_eq!(ids, (0..batch.len() as u64).collect::<Vec<_>>());
            }
        }

        #[test]
        fn scan_travel_bounded_by_two_spans(
            head in 0u64..10_000,
            cyls in proptest::collection::vec(0u64..10_000, 1..64),
        ) {
            let batch: Vec<_> =
                cyls.iter().enumerate().map(|(i, &c)| req(i as u64, c)).collect();
            let lo = *cyls.iter().min().unwrap();
            let hi = *cyls.iter().max().unwrap();
            let span = hi.max(head) - lo.min(head);
            let order = Scheduler::order(Policy::Scan, head, batch);
            prop_assert!(travel(head, &order) <= 2 * span,
                "elevator travel exceeds two spans");
        }

        #[test]
        fn scan_changes_direction_at_most_once(
            head in 0u64..10_000,
            cyls in proptest::collection::vec(0u64..10_000, 1..64),
        ) {
            let batch: Vec<_> =
                cyls.iter().enumerate().map(|(i, &c)| req(i as u64, c)).collect();
            let order = Scheduler::order(Policy::Scan, head, batch);
            // The served cylinder sequence must be an ascending run
            // followed by a descending run (either may be empty).
            let seq = cylinders(&order);
            let mut i = 0;
            while i + 1 < seq.len() && seq[i] <= seq[i + 1] {
                i += 1;
            }
            while i + 1 < seq.len() && seq[i] >= seq[i + 1] {
                i += 1;
            }
            prop_assert_eq!(i + 1, seq.len(), "SCAN order {:?} is not unimodal", seq);
        }

        #[test]
        fn clook_is_ascending_runs_with_single_wrap(
            head in 0u64..10_000,
            cyls in proptest::collection::vec(0u64..10_000, 1..64),
        ) {
            let batch: Vec<_> =
                cyls.iter().enumerate().map(|(i, &c)| req(i as u64, c)).collect();
            let order = Scheduler::order(Policy::CLook, head, batch);
            let seq = cylinders(&order);
            let wraps = seq.windows(2).filter(|w| w[0] > w[1]).count();
            prop_assert!(wraps <= 1, "C-LOOK order {:?} wraps {} times", seq, wraps);
            // The first request is at or above the head unless nothing is.
            if seq.iter().any(|&c| c >= head) {
                prop_assert!(seq[0] >= head);
            }
        }

        #[test]
        fn sstf_first_pick_is_nearest(
            head in 0u64..10_000,
            cyls in proptest::collection::vec(0u64..10_000, 1..64),
        ) {
            let batch: Vec<_> =
                cyls.iter().enumerate().map(|(i, &c)| req(i as u64, c)).collect();
            let order = Scheduler::order(Policy::Sstf, head, batch);
            let nearest = cyls.iter().map(|&c| c.abs_diff(head)).min().unwrap();
            prop_assert_eq!(order[0].cylinder.abs_diff(head), nearest);
        }

        #[test]
        fn seek_curve_is_monotone(d1 in 0u64..100_000, d2 in 0u64..100_000) {
            let c = SeekCurve::from_model(&DiskModel::commodity_2003(), 60_000);
            if d1 <= d2 {
                prop_assert!(c.seek_time(d1) <= c.seek_time(d2));
            }
        }
    }
}
