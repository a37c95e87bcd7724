//! Bounded exponential backoff for short cross-thread waits.
//!
//! The store has a handful of spots where one thread waits for another
//! to finish a step that is normally a few microseconds away: a reader
//! waiting for an in-flight writer, a writer waiting for a conflicting
//! log record to commit, an index op restarting after a version clash.
//! A raw `yield_now` loop burns a full core per waiter under
//! contention; a blocking primitive is too heavy for waits this short.
//! This helper escalates spin → yield → capped micro-sleeps, so the
//! common fast path stays on-core while a stalled wait backs off to a
//! few wakeups per millisecond.
//!
//! The yield stage is bounded by *elapsed time*, not by a step count.
//! A few yields take only ~2 µs on an idle core, so a step budget
//! sleeps long before the awaited op (an SSD write plus a fence, ~10–
//! 20 µs) can finish — and even a 16 µs `sleep` costs ~65 µs under
//! Linux's default 50 µs timer slack, which turned every lost wait
//! into a tail-latency hump. Yielding keeps the core schedulable for
//! the thread being waited on, so only a wait that outlives
//! `YIELD_BUDGET` — an order of magnitude above any op's device path
//! — is treated as stalled and starts sleeping.

use std::time::{Duration, Instant};

/// Spin-loop limit: 2^6 = 64 `spin_loop` hints before yielding.
const SPIN_STEPS: u32 = 6;
/// How long a wait may keep yielding before it starts to sleep.
const YIELD_BUDGET: Duration = Duration::from_micros(200);
/// Longest sleep per snooze once fully backed off.
const MAX_SLEEP_US: u64 = 256;

/// Escalating wait helper; one instance per wait loop.
#[derive(Debug, Default)]
pub struct Backoff {
    /// Snoozes since the last reset (saturating).
    step: u32,
    /// When the yield stage began; `None` while still spinning.
    yield_start: Option<Instant>,
    /// Snoozes that slept; drives the sleep doubling.
    sleeps: u32,
}

impl Backoff {
    /// Fresh backoff, starting at the cheapest (pure spin) stage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Waits a little, escalating on each call: `spin_loop` bursts,
    /// then `yield_now` until `YIELD_BUDGET` has elapsed, then sleeps
    /// doubling from 16 µs up to 256 µs.
    pub fn snooze(&mut self) {
        let step = self.step;
        self.step = self.step.saturating_add(1);
        if step < SPIN_STEPS {
            for _ in 0..(1u32 << step) {
                std::hint::spin_loop();
            }
            return;
        }
        if self.sleeps == 0 {
            let start = *self.yield_start.get_or_insert_with(Instant::now);
            if start.elapsed() < YIELD_BUDGET {
                std::thread::yield_now();
                return;
            }
        }
        let us = (16u64 << self.sleeps.min(4)).min(MAX_SLEEP_US);
        self.sleeps = self.sleeps.saturating_add(1);
        std::thread::sleep(Duration::from_micros(us));
    }

    /// True once the wait has outlived the busy (spin/yield) stages —
    /// callers use this to start their stall-timeout clock checks only
    /// when a wait is already slow.
    pub fn is_sleeping(&self) -> bool {
        self.sleeps > 0
    }

    /// Resets to the spin stage and clears the yield clock (the awaited
    /// condition made progress).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yields_without_sleeping_inside_the_budget() {
        // The old step-count contract slept after 10 snoozes; the time
        // contract keeps yielding however many snoozes fit in the budget.
        let t = Instant::now();
        let mut b = Backoff::new();
        let mut snoozes = 0u32;
        while snoozes < 100 {
            b.snooze();
            snoozes += 1;
            // The backoff's clock started after `t`, so an elapsed time
            // under the budget here is under it for the backoff too.
            if t.elapsed() < YIELD_BUDGET {
                assert!(!b.is_sleeping(), "slept after {snoozes} snoozes");
            } else {
                break;
            }
        }
    }

    #[test]
    fn escalates_and_resets() {
        let mut b = Backoff::new();
        // Spin out, then take the first yield, which starts the clock.
        for _ in 0..=SPIN_STEPS {
            b.snooze();
        }
        assert!(b.yield_start.is_some());
        std::thread::sleep(YIELD_BUDGET);
        // Past the budget: the next snooze sleeps (at least 16 µs).
        let before = Instant::now();
        b.snooze();
        assert!(b.is_sleeping());
        assert!(before.elapsed() >= Duration::from_micros(16));
        b.reset();
        assert!(!b.is_sleeping());
        assert!(b.yield_start.is_none());
        // Back to spinning: the first yield after the reset starts a
        // fresh clock, so it does not sleep.
        let t = Instant::now();
        for _ in 0..=SPIN_STEPS {
            b.snooze();
        }
        if t.elapsed() < YIELD_BUDGET {
            assert!(!b.is_sleeping());
        }
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut b = Backoff::new();
        b.step = u32::MAX - 1;
        b.snooze();
        b.snooze();
        assert_eq!(b.step, u32::MAX);
        b.sleeps = u32::MAX;
        b.snooze();
        assert_eq!(b.sleeps, u32::MAX);
    }
}
