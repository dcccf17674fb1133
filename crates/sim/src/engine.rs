//! The discrete-event engine.
//!
//! A minimal event queue over **typed events**: each simulator defines
//! a small `Copy` event enum `E` and drives its own loop,
//!
//! ```
//! use clio_sim::{Engine, SimTime};
//!
//! #[derive(Clone, Copy)]
//! enum Ev {
//!     Tick(u32),
//! }
//!
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::new(1.0), Ev::Tick(0));
//! let mut fired = Vec::new();
//! while let Some(ev) = engine.pop() {
//!     match ev {
//!         Ev::Tick(n) if n < 3 => {
//!             fired.push(n);
//!             engine.schedule_in(0.5, Ev::Tick(n + 1));
//!         }
//!         Ev::Tick(_) => {}
//!     }
//! }
//! assert_eq!(fired, [0, 1, 2]);
//! assert_eq!(engine.now(), SimTime::new(2.5));
//! ```
//!
//! so scheduling an event is one heap push of a plain value — no boxed
//! closure, no allocation once the queue has reached its working size.
//! Events are keyed by [`SimTime`] with a monotone sequence number as
//! the FIFO tie-breaker: simultaneous events fire in scheduling order,
//! so runs are exactly reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// An event queue over events of type `E`, ordered by `(time, seq)`.
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    processed: u64,
    queue: BinaryHeap<Reverse<Scheduled<E>>>,
}

impl<E> Engine<E> {
    /// Creates an engine with an empty queue at time zero.
    pub fn new() -> Self {
        Self { now: SimTime::ZERO, seq: 0, processed: 0, queue: BinaryHeap::new() }
    }

    /// Current simulated time: the time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past — causality violations
    /// are modeling bugs, not recoverable conditions.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { time: at, seq, event }));
    }

    /// Schedules `event` to fire `delay` seconds from now.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(delay >= 0.0, "negative delay {delay}");
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the earliest event (FIFO among equal times) and advances
    /// the clock to it; `None` once the queue has drained.
    pub fn pop(&mut self) -> Option<E> {
        let Reverse(ev) = self.queue.pop()?;
        debug_assert!(ev.time >= self.now, "event queue emitted a past event");
        self.now = ev.time;
        self.processed += 1;
        Some(ev.event)
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `eng`, recording each event with its firing time.
    fn drain<E>(eng: &mut Engine<E>) -> Vec<(f64, E)> {
        let mut out = Vec::new();
        while let Some(ev) = eng.pop() {
            out.push((eng.now().seconds(), ev));
        }
        out
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::new(3.0), 3);
        eng.schedule_at(SimTime::new(1.0), 1);
        eng.schedule_at(SimTime::new(2.0), 2);
        assert_eq!(drain(&mut eng), vec![(1.0, 1), (2.0, 2), (3.0, 3)]);
        assert_eq!(eng.now(), SimTime::new(3.0));
        assert_eq!(eng.processed(), 3);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut eng = Engine::new();
        for i in 0..10 {
            eng.schedule_at(SimTime::new(5.0), i);
        }
        let order: Vec<u32> = drain(&mut eng).into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng = Engine::new();
        eng.schedule_in(1.0, true);
        let mut fired = Vec::new();
        while let Some(again) = eng.pop() {
            fired.push(eng.now().seconds());
            if again {
                eng.schedule_in(2.0, false);
            }
        }
        assert_eq!(fired, vec![1.0, 3.0]);
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut eng = Engine::new();
        eng.schedule_in(5.0, ());
        eng.pop();
        eng.schedule_at(SimTime::new(1.0), ());
    }

    #[test]
    fn empty_run_returns_zero() {
        let mut eng: Engine<()> = Engine::default();
        assert!(eng.pop().is_none());
        assert_eq!(eng.now(), SimTime::ZERO);
        assert_eq!(eng.processed(), 0);
    }
}
