//! Tester configuration: the explicit constants behind the paper's `Θ(·)`s.

use planartest_graph::fingerprint::{Digest, Fingerprint};

/// What Stage II does with the per-part combinatorial embedding (the
/// Ghaffari–Haeupler substitution; see the round/bandwidth budget
/// table of `docs/ARCHITECTURE.md`). Both modes embed with the
/// left-right embedder ([`planartest_embed::check_planarity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmbeddingMode {
    /// Paper-faithful §2.2 behaviour: when a part is non-planar, hand out
    /// a best-effort ordering and let the violation-detection step do the
    /// rejecting. **Not one-sided**: our reproduction refutes Claim 10
    /// (planar graphs can carry violating labellings — see the README's
    /// experiment E6), so this mode can reject planar inputs, and which
    /// planar inputs it rejects depends on the embedding. Kept for
    /// measuring the paper's mechanism.
    Paper,
    /// The sound default: a part that the embedder proves non-planar makes
    /// its root reject (the paper's "this constitutes evidence that `Gj`
    /// is not planar"); violating edges are *reported* but are not
    /// rejection evidence. One-sided error is restored: planar parts
    /// always embed, and an `ε/2`-far part is non-planar and is certified
    /// as such.
    #[default]
    Strict,
}

/// Configuration of the planarity tester with every `Θ(·)` constant of the
/// paper made explicit and overridable.
///
/// # Example
///
/// ```
/// use planartest_core::TesterConfig;
///
/// let cfg = TesterConfig::new(0.1).with_seed(42);
/// assert!(cfg.phases(10_000) >= 1);
/// assert!(cfg.peel_super_rounds(1024) >= 10);
/// ```
#[derive(Debug, Clone)]
pub struct TesterConfig {
    /// Distance parameter `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// RNG seed for the (randomized) Stage II sampling.
    pub seed: u64,
    /// Arboricity bound `α` used by the forest decomposition (3 for
    /// planar graphs).
    pub alpha: usize,
    /// Multiplier `c` in `s = ⌈c · log₂ n⌉` peeling super-rounds. The
    /// paper needs `c` large enough that a constant-fraction decay empties
    /// the graph; 4 is comfortable (each super-round peels ≥ 1/2 of the
    /// remaining nodes when arboricity ≤ α... conservatively ≥ 1/(3α+1)).
    pub peel_rounds_factor: f64,
    /// Override for the number of Stage-I phases `t`; `None` derives
    /// `t = ⌈ln(2/ε) / −ln(1 − 1/(12α))⌉` from Claim 1's decay bound.
    pub phase_override: Option<usize>,
    /// Multiplier `c` in the Stage II sample size `⌈c·ln(n)/ε⌉`.
    pub sample_factor: f64,
    /// Embedding source for Stage II.
    pub embedding: EmbeddingMode,
    /// Global cap on simulated rounds per engine run (protocol-bug guard).
    pub max_rounds: u64,
}

impl TesterConfig {
    /// Creates a configuration with the paper's defaults for distance
    /// parameter `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon < 1`.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        TesterConfig {
            epsilon,
            seed: 0x9E3779B97F4A7C15,
            alpha: 3,
            peel_rounds_factor: 4.0,
            phase_override: None,
            sample_factor: 2.0,
            embedding: EmbeddingMode::default(),
            max_rounds: 100_000_000,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of Stage-I phases explicitly.
    pub fn with_phases(mut self, t: usize) -> Self {
        self.phase_override = Some(t);
        self
    }

    /// Sets the embedding mode.
    pub fn with_embedding(mut self, mode: EmbeddingMode) -> Self {
        self.embedding = mode;
        self
    }

    /// Number of Stage-I phases `t = Θ(log 1/ε)`.
    ///
    /// Claim 1 guarantees the inter-part weight shrinks by
    /// `(1 − 1/(12α))` per phase, so after
    /// `t = ⌈ln(2/ε)/−ln(1 − 1/(12α))⌉` phases it is at most `ε·m/2`.
    pub fn phases(&self, _n: usize) -> usize {
        if let Some(t) = self.phase_override {
            return t;
        }
        let decay = 1.0 - 1.0 / (12.0 * self.alpha as f64);
        ((2.0 / self.epsilon).ln() / -decay.ln()).ceil() as usize
    }

    /// Peeling super-rounds `s = ⌈c · log₂ n⌉` (at least 4).
    pub fn peel_super_rounds(&self, n: usize) -> u32 {
        let lg = (n.max(2) as f64).log2();
        ((self.peel_rounds_factor * lg).ceil() as u32).max(4)
    }

    /// Stage II sample size `⌈c · ln(n)/ε⌉` (at least 4).
    pub fn sample_size(&self, n: usize) -> usize {
        ((self.sample_factor * (n.max(2) as f64).ln() / self.epsilon).ceil() as usize).max(4)
    }

    /// The peeling threshold `3α`: a part with at most this many active
    /// neighbouring parts deactivates.
    pub fn peel_threshold(&self) -> usize {
        3 * self.alpha
    }

    /// Stable 128-bit fingerprint of every *outcome-determining* field
    /// **except the seed**: ε, α, the phase/peeling/sampling constants,
    /// the round cap, and the embedding mode.
    ///
    /// The mode tags are still `"demoucron"` and `"demoucron_strict"`, the
    /// names of the embedder the modes once used, so certificates already
    /// in a `--state-dir` keep their keys. That is sound across the
    /// embedder change: a strict-mode certificate rests on the Euler
    /// bound, arboricity evidence or certified non-planarity, which every
    /// exact embedder agrees on, and paper-mode rejects are never
    /// certified.
    ///
    /// This is the configuration axis of the query service's result
    /// cache key. The seed is deliberately excluded: it is the
    /// Monte-Carlo axis, which the cache tracks separately — rejects are
    /// certificates valid for every seed (one-sided error), accepts are
    /// evidence only for the seeds actually run.
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        let mut d = Digest::new();
        d.str("TesterConfig/v1")
            .f64(self.epsilon)
            .word(self.alpha as u64)
            .f64(self.peel_rounds_factor)
            .word(match self.phase_override {
                None => u64::MAX,
                Some(t) => t as u64,
            })
            .f64(self.sample_factor)
            .word(self.max_rounds);
        d.str(match self.embedding {
            EmbeddingMode::Paper => "demoucron",
            EmbeddingMode::Strict => "demoucron_strict",
        });
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = TesterConfig::new(0.1);
        assert_eq!(cfg.alpha, 3);
        assert_eq!(cfg.peel_threshold(), 9);
        // t = ln(20)/-ln(35/36) ~ 106 with the paper's pessimistic decay.
        let t = cfg.phases(1000);
        assert!((100..=120).contains(&t), "t={t}");
        assert!(cfg.peel_super_rounds(1024) == 40);
        assert!(cfg.sample_size(1000) >= 100);
    }

    #[test]
    fn overrides() {
        let cfg = TesterConfig::new(0.2).with_phases(7).with_seed(1);
        assert_eq!(cfg.phases(123), 7);
        assert_eq!(cfg.seed, 1);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in (0,1)")]
    fn zero_epsilon_panics() {
        let _ = TesterConfig::new(0.0);
    }

    #[test]
    fn fingerprint_ignores_seed_and_sees_everything_else() {
        let base = TesterConfig::new(0.1);
        assert_eq!(
            base.fingerprint(),
            base.clone().with_seed(99).fingerprint(),
            "the seed is the cache's Monte-Carlo axis, not a config axis"
        );
        let variants = [
            TesterConfig::new(0.2),
            TesterConfig::new(0.1).with_phases(7),
            TesterConfig::new(0.1).with_embedding(EmbeddingMode::Paper),
            {
                let mut c = TesterConfig::new(0.1);
                c.alpha = 4;
                c
            },
            {
                let mut c = TesterConfig::new(0.1);
                c.max_rounds = 1;
                c
            },
            {
                let mut c = TesterConfig::new(0.1);
                c.sample_factor = 3.0;
                c
            },
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v:?}");
        }
    }

    #[test]
    fn mode_fingerprints_are_pinned() {
        // Certificates already in a `--state-dir` are keyed by these
        // values; the mode tags must not move.
        let strict = TesterConfig::new(0.1);
        let paper = TesterConfig::new(0.1).with_embedding(EmbeddingMode::Paper);
        assert_eq!(
            strict.fingerprint().to_string(),
            "4fbb19c1c9772780cbb89ea79a86c31c"
        );
        assert_eq!(
            paper.fingerprint().to_string(),
            "fcff7c38a51a3ecaf72dc09fa14ae497"
        );
    }

    #[test]
    fn epsilon_monotonicity() {
        let a = TesterConfig::new(0.4);
        let b = TesterConfig::new(0.05);
        assert!(a.phases(100) < b.phases(100));
        assert!(a.sample_size(100) < b.sample_size(100));
    }
}
