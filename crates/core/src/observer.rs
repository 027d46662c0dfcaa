//! Search observers: hooks for coverage measurement and statistics.
//!
//! The paper measures state coverage (Table 2) by manually extracting
//! states during the search; an [`Observer`] is the seam that code (in
//! `chess-state`) plugs into without the explorer knowing about visited
//! sets.

use crate::system::TransitionSystem;

/// Callbacks invoked by the explorer during a search.
///
/// `on_state` is called for the initial state of every execution and
/// after every transition — i.e. once per *visited state occurrence* —
/// unless the observer opts out through
/// [`Observer::needs_every_state`].
pub trait Observer<P: TransitionSystem + ?Sized> {
    /// A state has been reached (`depth` transitions into the current
    /// execution; `depth == 0` is the initial state).
    fn on_state(&mut self, sys: &P, depth: usize) {
        let _ = (sys, depth);
    }

    /// The current execution ended after `depth` transitions.
    fn on_execution_end(&mut self, sys: &P, depth: usize) {
        let _ = (sys, depth);
    }

    /// Whether `on_state` must fire for every visited state occurrence.
    ///
    /// The default, `true`, keeps that contract: the explorer re-executes
    /// every execution from the initial state. An observer returning
    /// `false` lets the explorer resume an execution from a snapshot on
    /// the schedule prefix it shares with the previous one; `on_state`
    /// then fires only for the states the execution steps to anew, not
    /// for the restored prefix. `on_execution_end` always fires.
    fn needs_every_state(&self) -> bool {
        true
    }
}

/// An observer that does nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl<P: TransitionSystem + ?Sized> Observer<P> for NullObserver {
    fn needs_every_state(&self) -> bool {
        false
    }
}

/// An observer that counts state occurrences (not distinct states; use
/// `chess-state`'s coverage tracker for that).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingObserver {
    /// Number of `on_state` callbacks received.
    pub states_seen: u64,
    /// Number of executions observed.
    pub executions: u64,
}

impl<P: TransitionSystem + ?Sized> Observer<P> for CountingObserver {
    fn on_state(&mut self, _sys: &P, _depth: usize) {
        self.states_seen += 1;
    }

    fn on_execution_end(&mut self, _sys: &P, _depth: usize) {
        self.executions += 1;
    }
}
