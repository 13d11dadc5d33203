//! Batches of independent protocol instances over one graph.
//!
//! Monte-Carlo testers get their confidence from many *independent*
//! protocol instances (acceptance trials, sweep points, per-seed
//! sub-protocol runs). [`Engine::run_batch`] serves `B` independent
//! [`NodeLogic`] instances over the *same* [`Graph`]: the instances run
//! **consecutively over one set of recycled buffers**. Edge stamps, wake
//! flags, the mailbox arena and the active list persist in a
//! thread-local scratch that outlives the batch, so repeated batches
//! over the same graph (a [`TrialRunner`] sweep, the tester's per-seed
//! sub-protocols) re-enter warm buffers with **zero** per-instance
//! re-zeroing: edge stamps use monotone epoch bases (a stale stamp can
//! never equal a fresh one) and the wake bitset is restored clear on
//! every exit path of the round loop.
//!
//! Each instance's [`RunReport`] — rounds, messages, words — and any
//! [`SimError`] are **bit-for-bit identical** to what a lone
//! [`Engine::run`] of that instance produces, because a batch re-enters
//! the very round loop `run` uses (enforced by the `runtime_equivalence`
//! and `layout_golden` suites). An instance that violates the CONGEST
//! model fails alone; the remaining instances continue unperturbed.
//!
//! [`Engine::run_batch`]: crate::Engine::run_batch
//! [`Engine::run`]: crate::Engine::run
//! [`TrialRunner`]: crate::runtime::TrialRunner

use std::cell::RefCell;

use planartest_graph::Graph;

use crate::engine::{NodeLogic, RoundScratch, RunReport, SimConfig, SimError};

thread_local! {
    /// One recycled scratch per thread; `None` until first use (and
    /// while a batch on this thread has it checked out, which makes
    /// re-entrant batches allocate fresh instead of aliasing). A batch
    /// over a graph of a different shape rebuilds it.
    static BATCH_SCRATCH: RefCell<Option<RoundScratch>> = const { RefCell::new(None) };
}

/// Runs each instance to quiescence in turn over the thread's recycled
/// [`RoundScratch`], returning one result per instance.
pub(crate) fn run_consecutive<L: NodeLogic>(
    g: &Graph,
    cfg: SimConfig,
    logics: &mut [L],
    max_rounds: u64,
) -> Vec<Result<RunReport, SimError>> {
    let mut scratch = match BATCH_SCRATCH.with(|cell| cell.borrow_mut().take()) {
        Some(s) if s.fits(g) => s,
        _ => RoundScratch::for_graph(g),
    };
    let results = logics
        .iter_mut()
        .map(|logic| {
            debug_assert!(scratch.is_clean(), "recycled scratch must arrive clean");
            scratch.run(g, cfg, logic, max_rounds)
        })
        .collect();
    BATCH_SCRATCH.with(|cell| *cell.borrow_mut() = Some(scratch));
    results
}

#[cfg(test)]
mod tests {
    use planartest_graph::NodeId;

    use super::*;
    use crate::engine::{Engine, Msg, Outbox};

    fn path(k: usize) -> Graph {
        Graph::from_edges(k, (0..k - 1).map(|i| (i, i + 1))).unwrap()
    }

    /// Floods from a configurable source; run length depends on the
    /// source position, so instances finish after different rounds.
    struct FloodFrom {
        src: usize,
        seen: Vec<bool>,
    }
    impl FloodFrom {
        fn new(src: usize, n: usize) -> Self {
            FloodFrom {
                src,
                seen: vec![false; n],
            }
        }
    }
    impl NodeLogic for FloodFrom {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == self.src {
                self.seen[self.src] = true;
                out.send_all(Msg::words(&[1]));
            }
        }
        fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
            if !self.seen[node.index()] && !inbox.is_empty() {
                self.seen[node.index()] = true;
                out.send_all(Msg::words(&[1]));
            }
        }
    }

    fn sequential_baseline(g: &Graph, srcs: &[usize]) -> Vec<(RunReport, Vec<bool>)> {
        srcs.iter()
            .map(|&s| {
                let mut engine = Engine::new(g, SimConfig::default());
                let mut logic = FloodFrom::new(s, g.n());
                let report = engine.run(&mut logic, 10_000).unwrap();
                (report, logic.seen)
            })
            .collect()
    }

    #[test]
    fn early_dropout_keeps_per_instance_rounds() {
        let g = path(12);
        let srcs = [0usize, 5, 11, 6];
        let expected = sequential_baseline(&g, &srcs);
        let mut logics: Vec<FloodFrom> = srcs.iter().map(|&s| FloodFrom::new(s, g.n())).collect();
        let reports = run_consecutive(&g, SimConfig::default(), &mut logics, 10_000);
        for (k, report) in reports.iter().enumerate() {
            let report = report.as_ref().unwrap();
            assert_eq!(*report, expected[k].0, "instance {k}");
            assert_eq!(logics[k].seen, expected[k].1, "instance {k}");
        }
        // The source in the middle finishes sooner than the corner
        // sources: per-instance round counts genuinely differ.
        assert_ne!(
            reports[0].as_ref().unwrap().rounds,
            reports[3].as_ref().unwrap().rounds
        );
    }

    #[test]
    fn failing_instance_does_not_disturb_the_rest() {
        struct MaybeViolate {
            violate: bool,
            inner: FloodFrom,
        }
        impl NodeLogic for MaybeViolate {
            fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
                self.inner.init(node, out);
            }
            fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
                if self.violate && node.index() == 3 {
                    out.send(NodeId::new(4), Msg::words(&[0; 9])); // over bandwidth
                    return;
                }
                self.inner.round(node, inbox, out);
            }
        }
        let g = path(8);
        let clean = sequential_baseline(&g, &[0]);
        let mut logics: Vec<MaybeViolate> = [false, true, false]
            .into_iter()
            .map(|violate| MaybeViolate {
                violate,
                inner: FloodFrom::new(0, 8),
            })
            .collect();
        let reports = run_consecutive(&g, SimConfig::default(), &mut logics, 100);
        assert_eq!(*reports[0].as_ref().unwrap(), clean[0].0);
        assert!(matches!(
            reports[1],
            Err(SimError::MessageTooLarge { words: 9, .. })
        ));
        assert_eq!(*reports[2].as_ref().unwrap(), clean[0].0);
        assert_eq!(logics[0].inner.seen, clean[0].1);
        assert_eq!(logics[2].inner.seen, clean[0].1);
    }

    #[test]
    fn round_limit_hits_every_live_instance() {
        struct PingPong;
        impl NodeLogic for PingPong {
            fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
                if node.index() == 0 {
                    out.send(NodeId::new(1), Msg::ping());
                }
            }
            fn round(&mut self, _: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
                for (from, _) in inbox {
                    out.send(*from, Msg::ping());
                }
            }
        }
        let g = path(2);
        let mut logics = vec![PingPong, PingPong];
        let reports = run_consecutive(&g, SimConfig::default(), &mut logics, 9);
        for r in reports {
            assert_eq!(r.unwrap_err(), SimError::RoundLimitExceeded { limit: 9 });
        }
    }

    #[test]
    fn empty_and_silent_batches() {
        struct Silent;
        impl NodeLogic for Silent {
            fn init(&mut self, _: NodeId, _: &mut Outbox<'_>) {}
            fn round(&mut self, _: NodeId, _: &[(NodeId, Msg)], _: &mut Outbox<'_>) {}
        }
        let g = path(3);
        let mut engine = Engine::new(&g, SimConfig::default());
        let mut none: Vec<Silent> = Vec::new();
        assert!(engine.run_batch(&mut none, 10).is_empty());
        let mut some = vec![Silent, Silent];
        let reports = engine.run_batch(&mut some, 10);
        for r in reports {
            assert_eq!(r.unwrap().rounds, 0);
        }
    }

    #[test]
    fn batch_engine_accumulates_stats() {
        let g = path(6);
        let mut engine = Engine::new(&g, SimConfig::default());
        let mut logics: Vec<FloodFrom> = (0..3).map(|s| FloodFrom::new(s, 6)).collect();
        let reports = engine.run_batch(&mut logics, 100);
        let total_msgs: u64 = reports.iter().map(|r| r.as_ref().unwrap().messages).sum();
        assert_eq!(engine.stats().messages, total_msgs);
        assert_eq!(engine.stats().runs, 3);
        engine.charge_rounds(5);
        assert_eq!(engine.stats().charged_rounds, 5);
    }
}
