//! The open-loop request schedule.
//!
//! An open loop sends on a fixed schedule whether or not earlier
//! requests have completed, the way independent users do. A connection
//! can only carry one request at a time, so when one stalls the
//! following ones are sent late — and each is timed **from when it was
//! due**, not from when it was sent, so the wait a stall imposes on the
//! requests queued behind it is counted. How late the generator itself
//! ran (`sent - due`) is kept beside it: a latency figure is only as
//! good as the schedule that produced it.

use std::time::{Duration, Instant};

/// The time source the loop runs on (virtual in tests).
pub trait Clock {
    /// Time since the schedule's origin.
    fn now(&self) -> Duration;
    /// Blocks until `deadline` (returns at once when already past).
    fn sleep_until(&self, deadline: Duration);
}

/// The wall clock, with its origin at construction.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is `origin` (share one across connections so
    /// their schedules interleave as planned).
    pub fn starting_at(origin: Instant) -> WallClock {
        WallClock(origin)
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, deadline: Duration) {
        if let Some(wait) = deadline.checked_sub(self.0.elapsed()) {
            std::thread::sleep(wait);
        }
    }
}

/// One scheduled request, as it went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// When the schedule wanted it sent.
    pub due: Duration,
    /// When it was actually sent.
    pub sent: Duration,
    /// When its response (or failure) arrived.
    pub done: Duration,
    /// Whether it succeeded.
    pub ok: bool,
}

impl Sample {
    /// Latency as a user on the schedule saw it: completion minus *due*.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Runs one connection's share of an open loop: request `i` is due at
/// `first_due + i * interval`; `send(i)` performs it and says whether it
/// succeeded. The loop ends after `count` requests, or — when `until`
/// returns true at a due time — earlier (the churn workload stops its
/// reader when the writer finishes).
pub fn open_loop<C: Clock>(
    clock: &C,
    first_due: Duration,
    interval: Duration,
    count: usize,
    mut until: impl FnMut() -> bool,
    mut send: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    // `count` may be "until told to stop"; reserve for a long run, not for it.
    let mut samples = Vec::with_capacity(count.min(1 << 16));
    for i in 0..count {
        let due = first_due + interval * i as u32;
        clock.sleep_until(due);
        if until() {
            break;
        }
        let sent = clock.now();
        let ok = send(i);
        samples.push(Sample {
            due,
            sent,
            done: clock.now(),
            ok,
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A virtual clock: sleeping jumps to the deadline, and the test
    /// advances it by each request's service time.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, deadline: Duration) {
            if deadline > self.0.get() {
                self.0.set(deadline);
            }
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // 1 request/ms; each takes 0.2 ms except #2, which stalls 3.5 ms.
        let service = |i: usize| if i == 2 { MS * 7 / 2 } else { MS / 5 };
        let samples = open_loop(
            &clock,
            Duration::ZERO,
            MS,
            7,
            || false,
            |i| {
                clock.0.set(clock.0.get() + service(i));
                true
            },
        );
        let lat: Vec<u128> = samples.iter().map(|s| s.latency().as_micros()).collect();
        let late: Vec<u128> = samples.iter().map(|s| s.lateness().as_micros()).collect();
        // #2 is due at 2.0, done at 5.5. #3 (due 3.0) is sent at 5.5 and
        // done at 5.7: 2.7 ms from its due time though it took 0.2 ms.
        // #4 (due 4.0): sent 5.7, done 5.9. #5 (due 5.0): sent 5.9, done
        // 6.1. #6 (due 6.0) is back on schedule at 6.1 -> sent late 0.1.
        assert_eq!(lat, vec![200, 200, 3500, 2700, 1900, 1100, 300]);
        assert_eq!(late, vec![0, 0, 0, 2500, 1700, 900, 100]);
        // Timing from *send* would have hidden all of it:
        assert!(samples[3].done - samples[3].sent == MS / 5);
    }

    #[test]
    fn an_unstalled_loop_is_never_late_and_ends_on_schedule() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let samples = open_loop(
            &clock,
            MS / 2,
            MS,
            100,
            || false,
            |i| {
                clock.0.set(clock.0.get() + MS / 10);
                i != 7
            },
        );
        assert_eq!(samples.len(), 100);
        assert!(samples.iter().all(|s| s.lateness() == Duration::ZERO));
        assert_eq!(samples.iter().filter(|s| !s.ok).count(), 1);
        assert_eq!(samples[99].due, MS / 2 + MS * 99);
    }

    #[test]
    fn until_stops_the_loop_at_a_due_time() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let samples = open_loop(
            &clock,
            Duration::ZERO,
            MS,
            1000,
            || clock.now() >= MS * 5,
            |_| true,
        );
        assert_eq!(samples.len(), 5);
    }

    #[test]
    fn wall_clock_sleeps_to_the_deadline() {
        let clock = WallClock::starting_at(Instant::now());
        clock.sleep_until(MS * 20);
        assert!(clock.now() >= MS * 20);
        // A deadline already past returns at once.
        clock.sleep_until(MS);
    }
}
