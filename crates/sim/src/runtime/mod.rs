//! The engine's round-loop building blocks and the one worker pool.
//!
//! [`Engine`](crate::Engine) is the only executor: a round runs every
//! active node's hook in ascending node order on the calling thread.
//! The model measures cost in CONGEST rounds, not wall-clock time, so
//! nothing semantic depends on how the rounds are scheduled; the engine
//! therefore keeps them on one thread and stays exactly reproducible.
//!
//! Parallelism lives at exactly one level, across *independent*
//! simulations: [`TrialRunner`] fans seeded trials, sweep points and the
//! query service's coalesced engine groups across a worker pool sized
//! by [`auto_threads`]. Each simulation stays on one thread for its
//! whole run.
//!
//! * [`mailbox`] — the flat-arena, stable counting-sort delivery;
//! * [`lanes`] — the SWAR wake-flag bitset;
//! * [`batch`] — consecutive instances over recycled buffers, behind
//!   [`Engine::run_batch`](crate::Engine::run_batch);
//! * [`trials`] — the [`TrialRunner`] pool.

pub mod batch;
pub mod lanes;
pub mod mailbox;
pub mod trials;

pub use lanes::LaneBits;
pub use trials::TrialRunner;

/// Hardware parallelism, overridden by `PLANARTEST_THREADS` when it
/// holds a positive integer (the override may exceed the core count —
/// deliberately, so pool paths can be exercised on small machines;
/// unparsable values fall back to the hardware count).
#[must_use]
pub fn auto_threads() -> usize {
    std::env::var("PLANARTEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}
