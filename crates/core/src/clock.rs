//! Time abstraction for the coordination runtime.
//!
//! Round deadlines, quorum grace windows, straggler-strike accrual,
//! session budgets, and terminal-session GC all compare "now" against
//! stored instants. Production code uses [`WallClock`] (plain
//! `Instant::now()`); deterministic tests install a [`TestClock`] and
//! *step* virtual time forward instead of sleeping through wall time —
//! the whole dropout/re-delegation machinery can then be driven through
//! any timing scenario in microseconds, reproducibly.
//!
//! The design keeps `std::time::Instant` as the timestamp type: a test
//! clock is an anchor instant plus a mutable virtual offset, so all
//! existing `Instant` arithmetic keeps working and the wall-clock path
//! pays nothing.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of "now", pluggable for tests.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// The current instant by this clock.
    fn now(&self) -> Instant;

    /// True for test-controlled clocks: blocking waits must poll in small
    /// wall-time slices because virtual deadlines never arrive on their
    /// own.
    fn is_virtual(&self) -> bool {
        false
    }

    /// Registers a callback invoked whenever virtual time advances (a
    /// no-op for wall clocks, which never "jump"). The coordinator's loop
    /// registers one that queues a wake item, so it re-checks its
    /// deadlines immediately after a test steps the clock.
    fn register_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        let _ = waker;
    }
}

/// The real time source.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallClock;

impl Clock for WallClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// Returns the default wall clock as a shared trait object.
pub fn wall_clock() -> Arc<dyn Clock> {
    Arc::new(WallClock)
}

/// A test-controlled clock: time stands still until [`TestClock::advance`]
/// moves it.
pub struct TestClock {
    anchor: Instant,
    offset: Mutex<Duration>,
    wakers: Mutex<Vec<Arc<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for TestClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestClock")
            .field("elapsed", &*self.offset.lock())
            .finish()
    }
}

impl Default for TestClock {
    fn default() -> Self {
        TestClock {
            anchor: Instant::now(),
            offset: Mutex::new(Duration::ZERO),
            wakers: Mutex::new(Vec::new()),
        }
    }
}

impl TestClock {
    /// A fresh clock at virtual time zero.
    pub fn new() -> Arc<TestClock> {
        Arc::new(TestClock::default())
    }

    /// Steps virtual time forward by `d` and wakes every registered
    /// waiter.
    pub fn advance(&self, d: Duration) {
        {
            let mut offset = self.offset.lock();
            *offset += d;
        }
        let wakers: Vec<_> = self.wakers.lock().clone();
        for waker in wakers {
            waker();
        }
    }

    /// Total virtual time advanced since creation.
    pub fn elapsed(&self) -> Duration {
        *self.offset.lock()
    }
}

impl Clock for TestClock {
    fn now(&self) -> Instant {
        self.anchor + *self.offset.lock()
    }

    fn is_virtual(&self) -> bool {
        true
    }

    fn register_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        self.wakers.lock().push(waker);
    }
}

/// How long a blocking wait may sleep before re-checking a
/// clock-measured `deadline`: `None` once the deadline has passed
/// (time to give up), otherwise the full remaining time on a wall
/// clock, or a short poll slice on a virtual clock (whose deadlines
/// only ever arrive through [`TestClock::advance`], which a parked
/// waiter would never observe). The single definition keeps every
/// blocking path's virtual-time behaviour in lockstep.
pub fn wait_slice(clock: &dyn Clock, deadline: Instant) -> Option<Duration> {
    let remaining = deadline.saturating_duration_since(clock.now());
    if remaining.is_zero() {
        return None;
    }
    Some(if clock.is_virtual() {
        remaining.min(Duration::from_millis(10))
    } else {
        remaining
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn wall_clock_tracks_real_time() {
        let clock = WallClock;
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
        assert!(!clock.is_virtual());
    }

    #[test]
    fn test_clock_only_moves_when_advanced() {
        let clock = TestClock::new();
        let t0 = clock.now();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(clock.now(), t0, "wall time must not leak in");
        clock.advance(Duration::from_secs(30));
        assert_eq!(clock.now() - t0, Duration::from_secs(30));
        assert_eq!(clock.elapsed(), Duration::from_secs(30));
        assert!(clock.is_virtual());
    }

    #[test]
    fn advance_fires_wakers() {
        let clock = TestClock::new();
        let fired = Arc::new(AtomicUsize::new(0));
        let observer = Arc::clone(&fired);
        clock.register_waker(Arc::new(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        }));
        clock.advance(Duration::from_millis(1));
        clock.advance(Duration::from_millis(1));
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }
}
