//! The sink trait, the null sink and the shared handle.

use std::cell::RefCell;
use std::rc::Rc;

use desim::SimTime;

use crate::record::TraceRecord;

/// A consumer of trace records.
///
/// Layers are generic over `S: TraceSink` and guard every emission site with
/// `if S::ENABLED { ... }`. With the default [`NullSink`], `ENABLED` is
/// `false` and the whole site — including record construction — is removed
/// at monomorphization time, so untraced simulations pay zero cost.
pub trait TraceSink {
    /// Whether this sink observes records at all. Leave at the default
    /// `true` for any sink that does work.
    const ENABLED: bool = true;

    /// Observes one record stamped with the current simulation time.
    fn record(&mut self, at: SimTime, rec: &TraceRecord);

    /// Called once when the simulation ends, with the final clock value.
    /// Sinks that aggregate (e.g. interval metrics) flush partial state here.
    fn finish(&mut self, _now: SimTime) {}
}

/// The default sink: discards everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _at: SimTime, _rec: &TraceRecord) {}
}

/// A shared handle so one sink can be wired through PHY, MAC, transport and
/// world at once.
///
/// `Clone` hands out another reference to the same underlying sink.
/// Interior mutability is `RefCell`: the event loop is single-threaded and
/// emissions never re-enter the sink.
#[derive(Debug, Default)]
pub struct SharedSink<S> {
    inner: Rc<RefCell<S>>,
}

impl<S> SharedSink<S> {
    /// Wraps a sink for sharing.
    pub fn new(sink: S) -> Self {
        SharedSink {
            inner: Rc::new(RefCell::new(sink)),
        }
    }

    /// Recovers the inner sink once every layer's handle has been dropped
    /// (i.e. after the `World` that borrowed it is consumed).
    ///
    /// # Panics
    ///
    /// Panics if other handles are still alive.
    pub fn take(self) -> S {
        Rc::try_unwrap(self.inner)
            .map(RefCell::into_inner)
            .unwrap_or_else(|_| panic!("SharedSink::take with live clones"))
    }
}

impl<S> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    const ENABLED: bool = S::ENABLED;

    #[inline]
    fn record(&mut self, at: SimTime, rec: &TraceRecord) {
        self.inner.borrow_mut().record(at, rec);
    }

    fn finish(&mut self, now: SimTime) {
        self.inner.borrow_mut().finish(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: u32) -> TraceRecord {
        TraceRecord::Collision { node }
    }

    /// A test sink that keeps the node of every collision it sees.
    #[derive(Default)]
    struct Collisions(Vec<u32>);

    impl TraceSink for Collisions {
        fn record(&mut self, _at: SimTime, rec: &TraceRecord) {
            if let TraceRecord::Collision { node } = rec {
                self.0.push(*node);
            }
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        // Read through a generic helper so the flag is not a literal
        // constant at the assertion site.
        fn enabled<S: TraceSink>(_: &S) -> bool {
            S::ENABLED
        }
        assert!(!enabled(&NullSink));
        assert!(enabled(&Collisions::default()));
        assert!(enabled(&SharedSink::new(Collisions::default())));
        // And recording through it is still safe if called unconditionally.
        NullSink.record(SimTime::ZERO, &rec(0));
    }

    #[test]
    fn shared_sink_routes_to_one_buffer() {
        let shared = SharedSink::new(Collisions::default());
        let mut a = shared.clone();
        let mut b = shared.clone();
        a.record(SimTime::ZERO, &rec(0));
        b.record(SimTime::from_micros(1), &rec(1));
        drop(a);
        drop(b);
        assert_eq!(shared.take().0, vec![0, 1]);
    }
}
