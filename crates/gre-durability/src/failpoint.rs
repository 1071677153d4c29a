//! Deterministic fault injection for the durability tier.
//!
//! Crash-recovery code is only as good as the crashes it has survived, and
//! real crashes are not reproducible. This module makes them so: a
//! [`FailpointRegistry`] holds *scripted* failures keyed by name (e.g.
//! `"wal/2/sync"`), and an [`InjectingSink`] wraps any [`WalSink`],
//! consulting the registry at every append/sync/truncate. A triggered
//! failpoint can
//!
//! * **error** — report an `io::Error` once and otherwise keep working
//!   (a transient device hiccup; the WAL layer still fail-stops on it),
//! * **short-write** — persist only a prefix of the pending bytes, then
//!   crash (the torn-tail signature of a power loss mid-write), or
//! * **crash** — persist nothing further, ever (the process died; all
//!   unsynced bytes are gone, like a lost page cache).
//!
//! Triggers fire on the *n*-th evaluation of their point or once the sink's
//! byte position crosses a scripted offset, so a seeded scenario can place a
//! crash "at byte 8192 of shard 3's log" and land on the exact same group
//! commit every run.
//!
//! The injecting sink buffers appended bytes itself and forwards them to the
//! wrapped sink **only at a successful sync** — exactly the page-cache model
//! the [`WalSink`] contract describes — which is what makes short writes and
//! crashes byte-deterministic instead of racing the OS.

use crate::storage::WalSink;
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

/// What a triggered failpoint does to the operation that hit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Fail the operation with an `io::Error`; the sink stays usable.
    Error,
    /// Persist only the first `keep` bytes of the un-persisted pending
    /// buffer (clamped to its length), then behave as [`FailAction::Crash`].
    ShortWrite { keep: usize },
    /// Persist nothing further: every subsequent operation fails.
    Crash,
}

/// When a failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// On the `n`-th evaluation of the point (1-based).
    OnHit(u64),
    /// On the first evaluation at or past this sink byte position.
    AtByte(u64),
}

#[derive(Debug)]
struct Failpoint {
    trigger: Trigger,
    action: FailAction,
    hits: u64,
    fired: bool,
}

/// A shared registry of named, scripted failpoints.
///
/// Points are named by convention `"{component}/{shard}/{operation}"`, e.g.
/// `"wal/0/sync"` or `"checkpoint/3/truncate"`. Evaluating a point that was
/// never scripted is free (one map lookup) and returns no action, so
/// production code paths can evaluate unconditionally.
#[derive(Debug, Default)]
pub struct FailpointRegistry {
    points: Mutex<HashMap<String, Failpoint>>,
}

impl FailpointRegistry {
    pub fn new() -> Arc<FailpointRegistry> {
        Arc::new(FailpointRegistry::default())
    }

    /// Script `action` to fire at `trigger` on the named point. Re-scripting
    /// a name replaces the previous script.
    pub fn script(&self, name: &str, trigger: Trigger, action: FailAction) {
        self.points
            .lock()
            .expect("failpoint registry poisoned")
            .insert(
                name.to_string(),
                Failpoint {
                    trigger,
                    action,
                    hits: 0,
                    fired: false,
                },
            );
    }

    /// Evaluate the named point at the current byte `position`. Counts the
    /// hit and returns the scripted action if its trigger fired. Each script
    /// fires at most once.
    pub fn check(&self, name: &str, position: u64) -> Option<FailAction> {
        let mut points = self.points.lock().expect("failpoint registry poisoned");
        let point = points.get_mut(name)?;
        if point.fired {
            return None;
        }
        point.hits += 1;
        let due = match point.trigger {
            Trigger::OnHit(n) => point.hits >= n,
            Trigger::AtByte(off) => position >= off,
        };
        if due {
            point.fired = true;
            Some(point.action)
        } else {
            None
        }
    }

    /// Whether the named script has fired.
    pub fn fired(&self, name: &str) -> bool {
        self.points
            .lock()
            .expect("failpoint registry poisoned")
            .get(name)
            .is_some_and(|p| p.fired)
    }
}

/// A [`WalSink`] wrapper that executes the registry's scripts.
pub(crate) struct InjectingSink<S: WalSink> {
    inner: S,
    registry: Arc<FailpointRegistry>,
    /// Point-name prefix, e.g. `"wal/3"`; operations evaluate
    /// `"{prefix}/append"`, `"{prefix}/sync"`, `"{prefix}/truncate"`.
    prefix: String,
    /// Appended but not yet forwarded to the wrapped sink.
    pending: Vec<u8>,
    position: u64,
    crashed: bool,
}

fn injected_error(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

impl<S: WalSink> InjectingSink<S> {
    pub(crate) fn new(
        inner: S,
        registry: Arc<FailpointRegistry>,
        prefix: impl Into<String>,
    ) -> Self {
        let prefix = prefix.into();
        let position = inner.position();
        InjectingSink {
            inner,
            registry,
            prefix,
            pending: Vec::new(),
            position,
            crashed: false,
        }
    }

    fn apply(&mut self, action: FailAction, what: &str) -> io::Error {
        match action {
            FailAction::Error => injected_error(what),
            FailAction::ShortWrite { keep } => {
                // Persist a deterministic prefix of the pending bytes — the
                // torn record a power loss leaves — then stop for good.
                let keep = keep.min(self.pending.len());
                let _ = self.inner.append(&self.pending[..keep]);
                let _ = self.inner.sync();
                self.pending.clear();
                self.crashed = true;
                injected_error(what)
            }
            FailAction::Crash => {
                self.pending.clear();
                self.crashed = true;
                injected_error(what)
            }
        }
    }
}

impl<S: WalSink> WalSink for InjectingSink<S> {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        if self.crashed {
            return Err(injected_error("sink crashed"));
        }
        self.position += buf.len() as u64;
        let name = format!("{}/append", self.prefix);
        if let Some(action) = self.registry.check(&name, self.position) {
            // The bytes of this append are considered never handed over.
            self.position -= buf.len() as u64;
            return Err(self.apply(action, "append"));
        }
        self.pending.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(injected_error("sink crashed"));
        }
        let name = format!("{}/sync", self.prefix);
        if let Some(action) = self.registry.check(&name, self.position) {
            return Err(self.apply(action, "sync"));
        }
        self.inner.append(&self.pending)?;
        self.pending.clear();
        self.inner.sync()
    }

    fn truncate(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(injected_error("sink crashed"));
        }
        let name = format!("{}/truncate", self.prefix);
        if let Some(action) = self.registry.check(&name, self.position) {
            return Err(self.apply(action, "truncate"));
        }
        self.pending.clear();
        self.position = 0;
        self.inner.truncate()
    }

    fn position(&self) -> u64 {
        self.position
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemSink;

    fn injecting() -> (
        InjectingSink<MemSink>,
        Arc<FailpointRegistry>,
        Arc<Mutex<Vec<u8>>>,
    ) {
        let (mem, store) = MemSink::new();
        let registry = FailpointRegistry::new();
        (
            InjectingSink::new(mem, Arc::clone(&registry), "wal/0"),
            registry,
            store,
        )
    }

    #[test]
    fn unscripted_points_pass_through() {
        let (mut sink, _registry, store) = injecting();
        sink.append(b"abcd").unwrap();
        sink.sync().unwrap();
        assert_eq!(store.lock().unwrap().as_slice(), b"abcd");
    }

    #[test]
    fn crash_on_sync_loses_unsynced_bytes_only() {
        let (mut sink, registry, store) = injecting();
        registry.script("wal/0/sync", Trigger::OnHit(2), FailAction::Crash);
        sink.append(b"first").unwrap();
        sink.sync().unwrap(); // hit 1: survives
        sink.append(b"second").unwrap();
        assert!(sink.sync().is_err()); // hit 2: crash
        assert!(sink.crashed);
        assert!(registry.fired("wal/0/sync"));
        assert_eq!(store.lock().unwrap().as_slice(), b"first");
        // Everything after a crash fails.
        assert!(sink.append(b"x").is_err());
        assert!(sink.sync().is_err());
        assert!(sink.truncate().is_err());
    }

    #[test]
    fn short_write_persists_a_prefix_then_crashes() {
        let (mut sink, registry, store) = injecting();
        registry.script(
            "wal/0/sync",
            Trigger::OnHit(1),
            FailAction::ShortWrite { keep: 3 },
        );
        sink.append(b"abcdef").unwrap();
        assert!(sink.sync().is_err());
        assert_eq!(store.lock().unwrap().as_slice(), b"abc", "torn prefix");
        assert!(sink.crashed);
    }

    #[test]
    fn transient_error_leaves_the_sink_usable() {
        let (mut sink, registry, store) = injecting();
        registry.script("wal/0/append", Trigger::OnHit(1), FailAction::Error);
        assert!(sink.append(b"abc").is_err());
        assert!(!sink.crashed);
        // The failed append handed nothing over; later traffic works.
        sink.append(b"xyz").unwrap();
        sink.sync().unwrap();
        assert_eq!(store.lock().unwrap().as_slice(), b"xyz");
    }

    #[test]
    fn byte_offset_triggers_fire_at_the_crossing() {
        let (mut sink, registry, store) = injecting();
        registry.script("wal/0/append", Trigger::AtByte(10), FailAction::Crash);
        sink.append(b"12345").unwrap(); // position 5 < 10
        assert!(sink.append(b"67890").is_err()); // position crosses 10
        sink.sync().expect_err("crashed");
        assert!(store.lock().unwrap().is_empty(), "nothing was ever synced");
    }

    #[test]
    fn scripts_fire_once() {
        let registry = FailpointRegistry::new();
        registry.script("p", Trigger::OnHit(1), FailAction::Error);
        assert_eq!(registry.check("p", 0), Some(FailAction::Error));
        assert_eq!(registry.check("p", 0), None, "already fired");
        assert!(registry.fired("p"));
        assert_eq!(registry.check("unscripted", 0), None);
    }
}
