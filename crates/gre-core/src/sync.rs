//! Synchronization primitives for the concurrent index variants.
//!
//! The surveyed concurrent indexes (§2.3) rely on *optimistic versioned
//! locks*: a single word carries a lock bit plus a version counter. Readers
//! record the version before reading, re-validate it afterwards, and retry if
//! a writer intervened; writers acquire the lock bit and bump the version on
//! release. [`OptLock`] implements that word. No index in this workspace
//! uses it yet: every concurrent derivative of a single-threaded index is a
//! [`crate::Partitioned`] set of reader-writer locks.

use std::sync::atomic::{AtomicU64, Ordering};

/// An optimistic versioned lock ("OLC word").
///
/// Bit 0 is the writer-lock bit; bits 1..64 form the version counter.
#[derive(Debug, Default)]
pub struct OptLock {
    word: AtomicU64,
}

const LOCK_BIT: u64 = 1;
const VERSION_STEP: u64 = 2;

impl OptLock {
    /// Create an unlocked lock with version zero.
    pub const fn new() -> Self {
        OptLock {
            word: AtomicU64::new(0),
        }
    }

    /// Begin an optimistic read: returns the current version if unlocked,
    /// or `None` if a writer currently holds the lock.
    #[inline]
    pub fn read_begin(&self) -> Option<u64> {
        let v = self.word.load(Ordering::Acquire);
        if v & LOCK_BIT == 0 {
            Some(v)
        } else {
            None
        }
    }

    /// Spin until the lock is free and return the observed version.
    #[inline]
    pub fn read_begin_spin(&self) -> u64 {
        loop {
            if let Some(v) = self.read_begin() {
                return v;
            }
            std::hint::spin_loop();
        }
    }

    /// Validate an optimistic read: the read is consistent iff the version is
    /// unchanged and no writer holds the lock.
    #[inline]
    pub fn read_validate(&self, version: u64) -> bool {
        self.word.load(Ordering::Acquire) == version
    }

    /// Try to acquire the writer lock. Returns a guard on success.
    #[inline]
    pub fn try_write(&self) -> Option<OptLockWriteGuard<'_>> {
        let v = self.word.load(Ordering::Acquire);
        if v & LOCK_BIT != 0 {
            return None;
        }
        if self
            .word
            .compare_exchange(v, v | LOCK_BIT, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(OptLockWriteGuard { lock: self })
        } else {
            None
        }
    }

    /// Spin until the writer lock is acquired.
    #[inline]
    pub fn write(&self) -> OptLockWriteGuard<'_> {
        loop {
            if let Some(g) = self.try_write() {
                return g;
            }
            std::hint::spin_loop();
        }
    }

    /// Upgrade an optimistic read to a write lock only if the version is
    /// still the one observed at `read_begin`. Returns `None` (caller should
    /// restart) if the version moved or another writer won the race.
    #[inline]
    pub fn try_upgrade(&self, version: u64) -> Option<OptLockWriteGuard<'_>> {
        if self
            .word
            .compare_exchange(
                version,
                version | LOCK_BIT,
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            Some(OptLockWriteGuard { lock: self })
        } else {
            None
        }
    }

    /// Current raw word (for diagnostics).
    pub fn raw(&self) -> u64 {
        self.word.load(Ordering::Relaxed)
    }

    /// Whether a writer currently holds the lock.
    pub fn is_locked(&self) -> bool {
        self.word.load(Ordering::Relaxed) & LOCK_BIT != 0
    }
}

/// RAII guard for [`OptLock`]: releasing it bumps the version so concurrent
/// optimistic readers observe the change and retry.
#[derive(Debug)]
pub struct OptLockWriteGuard<'a> {
    lock: &'a OptLock,
}

impl Drop for OptLockWriteGuard<'_> {
    fn drop(&mut self) {
        // Release: clear the lock bit and advance the version in one step.
        let v = self.lock.word.load(Ordering::Relaxed);
        self.lock
            .word
            .store((v & !LOCK_BIT) + VERSION_STEP, Ordering::Release);
    }
}

/// A cache-line padded atomic counter, used for per-thread statistics in the
/// execution harness and for the per-node statistics of LIPP+ whose
/// contention behaviour the paper analyses (§4.2).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct PaddedCounter {
    value: AtomicU64,
}

impl PaddedCounter {
    pub const fn new(v: u64) -> Self {
        PaddedCounter {
            value: AtomicU64::new(v),
        }
    }

    #[inline]
    pub fn add(&self, delta: u64) -> u64 {
        self.value.fetch_add(delta, Ordering::Relaxed)
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_validate_detects_writer() {
        let lock = OptLock::new();
        let v = lock.read_begin().expect("unlocked");
        assert!(lock.read_validate(v));
        {
            let _g = lock.write();
            // While locked, optimistic readers must not start.
            assert!(lock.read_begin().is_none());
            assert!(lock.is_locked());
        }
        // After the write completes the version must have advanced.
        assert!(!lock.read_validate(v));
        let v2 = lock.read_begin().expect("unlocked again");
        assert!(v2 > v);
    }

    #[test]
    fn try_upgrade_fails_on_stale_version() {
        let lock = OptLock::new();
        let v = lock.read_begin().unwrap();
        {
            let _g = lock.write();
        }
        assert!(lock.try_upgrade(v).is_none());
        let v2 = lock.read_begin().unwrap();
        let g = lock.try_upgrade(v2);
        assert!(g.is_some());
    }

    #[test]
    fn try_write_is_exclusive() {
        let lock = OptLock::new();
        let g1 = lock.try_write();
        assert!(g1.is_some());
        assert!(lock.try_write().is_none());
        drop(g1);
        assert!(lock.try_write().is_some());
    }

    #[test]
    fn concurrent_writers_serialize() {
        // SAFETY wrapper: all mutation happens under the lock.
        struct SharedCell(std::cell::UnsafeCell<u64>);
        unsafe impl Sync for SharedCell {}
        let lock = Arc::new(OptLock::new());
        let shared = Arc::new(SharedCell(std::cell::UnsafeCell::new(0u64)));

        std::thread::scope(|s| {
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    for _ in 0..1000 {
                        let _g = lock.write();
                        // SAFETY: exclusive access guaranteed by the guard.
                        unsafe {
                            *shared.0.get() += 1;
                        }
                    }
                });
            }
        });
        let total = unsafe { *shared.0.get() };
        assert_eq!(total, 4000);
        // Version advanced once per write release.
        assert!(lock.raw() >= 4000 * VERSION_STEP);
    }

    #[test]
    fn padded_counter_is_cacheline_sized_and_counts() {
        assert!(std::mem::align_of::<PaddedCounter>() >= 64);
        let c = PaddedCounter::new(5);
        assert_eq!(c.get(), 5);
        c.add(10);
        assert_eq!(c.get(), 15);
        c.set(1);
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn read_begin_spin_returns_when_unlocked() {
        let lock = OptLock::new();
        let v = lock.read_begin_spin();
        assert!(lock.read_validate(v));
    }
}
