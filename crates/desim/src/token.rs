//! Generation tokens for lazy event cancellation.
//!
//! Discrete-event queues have no efficient "remove arbitrary element"
//! operation, so cancellation is done lazily: each cancellable activity
//! (e.g. a router's pending routing timer) owns a *generation counter*; the
//! event payload carries the generation it was scheduled under, and a popped
//! event whose generation is stale is simply ignored.
//!
//! The Periodic Messages model needs this for **triggered updates**: a
//! triggered update makes a router send immediately and re-arm its timer,
//! abandoning the previously scheduled expiry (paper Section 3, step 4).

use serde::{Deserialize, Serialize};

/// A generation counter for one cancellable activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TokenGen(u64);

impl TokenGen {
    /// The initial generation.
    pub fn new() -> Self {
        TokenGen(0)
    }

    /// The current generation, to stamp into a scheduled event.
    pub fn current(self) -> u64 {
        self.0
    }

    /// Invalidate all events stamped with the current generation and return
    /// the new generation.
    pub fn bump(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }

    /// True if an event stamped `gen` is still live.
    pub fn is_live(self, gen: u64) -> bool {
        self.0 == gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_invalidates_only_older_generations() {
        let mut t = TokenGen::new();
        let g0 = t.current();
        assert!(t.is_live(g0));
        let g1 = t.bump();
        assert!(!t.is_live(g0));
        assert!(t.is_live(g1));
    }

    #[test]
    fn cancellation_pattern_with_queue() {
        // The canonical use: schedule, cancel, reschedule; only the live
        // event fires.
        use crate::engine::Engine;
        use crate::time::SimTime;

        let mut q = Engine::new();
        let mut gen = TokenGen::new();
        q.schedule(SimTime(10), ("expiry", gen.current()));
        let g = gen.bump(); // triggered update cancels the pending expiry
        q.schedule(SimTime(5), ("expiry", g));

        let mut fired = Vec::new();
        while let Some((t, (name, g))) = q.pop() {
            if gen.is_live(g) {
                fired.push((t.0, name));
            }
        }
        assert_eq!(fired, vec![(5, "expiry")]);
    }
}
