//! Tester-level counts pinned to absolute values.
//!
//! `PlanarityTester::run` on three inputs (a planar triangulated grid, a
//! random planar graph, a chain of K5s), at two seeds each, in both the
//! sound `Strict` mode and the paper-faithful `Paper` mode. Each row pins
//! the rejections (count plus an FNV-1a digest of the `(node, reason)`
//! list, in order) and the whole `SimStats`: simulated rounds, charged
//! rounds, messages, payload words and engine runs.
//!
//! The equivalence suites check that two execution paths agree with each
//! other; this one checks that neither moves. A refactor of the
//! protocols, the label codec or the engine that shifts one message or
//! one word shows up here.

use planartest_core::{EmbeddingMode, PlanarityTester, RejectReason, TestOutcome, TesterConfig};
use planartest_graph::generators::spec;
use planartest_sim::SimStats;

/// FNV-1a over the rejections in output order, one `u64` per entry:
/// `node << 2 | reason`.
fn rejection_digest(out: &TestOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(node, reason) in &out.rejections {
        let tag = match reason {
            RejectReason::ArboricityEvidence => 0,
            RejectReason::EulerBound => 1,
            RejectReason::EmbeddingFailed => 2,
            RejectReason::ViolatingEdge => 3,
        };
        for byte in ((u64::from(node.raw()) << 2) | tag).to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One pinned run: `(spec, mode, seed, rejections, digest, stats)`.
type Row = (&'static str, EmbeddingMode, u64, usize, u64, SimStats);

const fn stats(rounds: u64, charged_rounds: u64, messages: u64, words: u64, runs: u64) -> SimStats {
    SimStats {
        rounds,
        charged_rounds,
        messages,
        words,
        runs,
    }
}

/// Captured before the label codec became plain loops and the label
/// protocols single instances.
const GOLDEN: [Row; 12] = [
    (
        "tri_grid(12,12)",
        EmbeddingMode::Strict,
        1,
        0,
        0xcbf2_9ce4_8422_2325,
        stats(1667, 24774, 58525, 157_037, 113),
    ),
    (
        "tri_grid(12,12)",
        EmbeddingMode::Strict,
        2,
        0,
        0xcbf2_9ce4_8422_2325,
        stats(1639, 24774, 56861, 151_213, 113),
    ),
    (
        "tri_grid(12,12)",
        EmbeddingMode::Paper,
        1,
        131,
        0x1dc0_98de_0371_5d59,
        stats(1667, 24774, 58525, 157_037, 113),
    ),
    (
        "tri_grid(12,12)",
        EmbeddingMode::Paper,
        2,
        130,
        0x0a41_d7ed_4e6d_a6a2,
        stats(1639, 24774, 56861, 151_213, 113),
    ),
    (
        "random_planar(200, 0.7, seed=3)",
        EmbeddingMode::Strict,
        1,
        0,
        0xcbf2_9ce4_8422_2325,
        stats(1847, 21021, 82946, 216_906, 168),
    ),
    (
        "random_planar(200, 0.7, seed=3)",
        EmbeddingMode::Strict,
        2,
        0,
        0xcbf2_9ce4_8422_2325,
        stats(1829, 21021, 81148, 209_306, 168),
    ),
    (
        "random_planar(200, 0.7, seed=3)",
        EmbeddingMode::Paper,
        1,
        102,
        0x40e4_0cf2_9286_0435,
        stats(1847, 21021, 82946, 216_906, 168),
    ),
    (
        "random_planar(200, 0.7, seed=3)",
        EmbeddingMode::Paper,
        2,
        98,
        0x9860_3e07_b3a3_3035,
        stats(1829, 21021, 81148, 209_306, 168),
    ),
    (
        "k5_chain(8)",
        EmbeddingMode::Strict,
        1,
        1,
        0xcfb8_977e_904f_a91b,
        stats(800, 11616, 9622, 23816, 100),
    ),
    (
        "k5_chain(8)",
        EmbeddingMode::Strict,
        2,
        1,
        0xcfb8_977e_904f_a91b,
        stats(800, 11616, 9622, 23816, 100),
    ),
    (
        "k5_chain(8)",
        EmbeddingMode::Paper,
        1,
        16,
        0x3e0d_1a2f_16a0_d2c5,
        stats(800, 11616, 9622, 23816, 100),
    ),
    (
        "k5_chain(8)",
        EmbeddingMode::Paper,
        2,
        16,
        0x3e0d_1a2f_16a0_d2c5,
        stats(800, 11616, 9622, 23816, 100),
    ),
];

#[test]
fn tester_counts_match_the_pinned_values() {
    for (spec_str, mode, seed, rejections, digest, want) in GOLDEN {
        let g = spec::parse(spec_str).expect("spec").graph;
        let cfg = TesterConfig::new(0.1).with_seed(seed).with_embedding(mode);
        let out = PlanarityTester::new(cfg).run(&g).expect("run");
        let case = format!("{spec_str} {mode:?} seed {seed}");
        assert_eq!(out.rejections.len(), rejections, "{case}: rejections");
        assert_eq!(rejection_digest(&out), digest, "{case}: rejection digest");
        assert_eq!(out.stats, want, "{case}: stats");
    }
}
