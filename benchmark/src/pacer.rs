//! The open-loop schedule: operation `i` is due at `start + i / rate`,
//! whatever the system under test is doing, and the generator sleeps
//! until then instead of spinning (at most a [`FINAL_SPIN`] busy-wait to
//! land on the instant).

use std::time::{Duration, Instant};

/// The longest the pacer ever busy-waits: `thread::sleep` overshoots by
/// about the kernel's 50 µs timer slack, so it sleeps to just short of
/// the due time and spins the remainder.
pub const FINAL_SPIN: Duration = Duration::from_micros(50);

/// A constant-rate schedule anchored at `start`.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    start: Instant,
    interval_ns: f64,
}

impl Pacer {
    /// A schedule of `rate_per_s` operations per second from `start`.
    pub fn new(start: Instant, rate_per_s: f64) -> Pacer {
        assert!(rate_per_s > 0.0, "open-loop rate must be positive");
        Pacer {
            start,
            interval_ns: 1e9 / rate_per_s,
        }
    }

    /// When operation `i` is due. Computed from `i`, never accumulated,
    /// so rounding does not drift over a long slice.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos((i as f64 * self.interval_ns) as u64)
    }
}

/// Blocks until `due` (or `limit`, whichever is first) and returns the
/// instant it woke at. A caller that has other work (polling for
/// completions) passes a `limit` to be woken early.
pub fn wait_until(due: Instant, limit: Option<Duration>) -> Instant {
    let entered = Instant::now();
    let target = match limit {
        Some(l) => due.min(entered + l),
        None => due,
    };
    loop {
        let now = Instant::now();
        let Some(remaining) = target.checked_duration_since(now) else {
            return now;
        };
        if remaining.is_zero() {
            return now;
        }
        if remaining > FINAL_SPIN {
            std::thread::sleep(remaining - FINAL_SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_computed_not_accumulated() {
        let start = Instant::now();
        let pacer = Pacer::new(start, 300.0);
        assert_eq!(pacer.due(0), start);
        assert_eq!(pacer.due(300), start + Duration::from_secs(1));
        // 900 000 operations later the schedule is still exact to the
        // nanosecond; an accumulated 3 333 333 ns step would be 300 µs off.
        assert_eq!(pacer.due(900_000), start + Duration::from_secs(3000));
        assert!(pacer.due(1) - start >= Duration::from_nanos(3_333_333));
    }

    #[test]
    fn wait_lands_on_the_due_instant_without_long_spins() {
        let due = Instant::now() + Duration::from_millis(5);
        let woke = wait_until(due, None);
        assert!(woke >= due, "never returns early");
        // Generous: a stolen vCPU can hold any thread up for tens of ms.
        assert!(
            woke - due < Duration::from_millis(250),
            "woke {:?} late",
            woke - due
        );
    }

    #[test]
    fn past_due_returns_at_once_and_limit_caps_the_wait() {
        let t = Instant::now();
        wait_until(t - Duration::from_millis(1), None);
        assert!(t.elapsed() < Duration::from_millis(250));
        let woke = wait_until(t + Duration::from_secs(5), Some(Duration::from_millis(2)));
        assert!(woke - t < Duration::from_secs(1));
    }
}
