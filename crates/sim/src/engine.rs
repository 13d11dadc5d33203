//! The synchronous round-driving engine.

use std::fmt;

use planartest_graph::{Graph, NodeId};

use crate::runtime::lanes::LaneBits;
use crate::runtime::mailbox::{Mailboxes, Staged};
use crate::stats::SimStats;

/// Payload words a [`Msg`] stores inline, without touching the heap.
///
/// Covers the default [`SimConfig::max_words_per_message`] of 4, so under
/// the default bandwidth every message of a run is allocation-free —
/// the `O(log n)`-bit CONGEST bandwidth bound is structural in the
/// representation, not just checked at send time.
pub const MSG_INLINE_WORDS: usize = 4;

/// A CONGEST message: a short sequence of machine words (`u64`). Each word
/// models `O(log n)` bits; [`SimConfig::max_words_per_message`] bounds how
/// many words fit in one round's message on one edge.
///
/// Payloads of up to [`MSG_INLINE_WORDS`] words are stored inline in the
/// value itself; only larger payloads (possible when the bandwidth limit
/// is raised) spill to the heap. Equality and hashing are over the
/// payload words alone, uniform across the inline/spill boundary.
#[derive(Clone, Default)]
pub struct Msg {
    /// Payload length in words.
    len: u32,
    /// The payload when `len <= MSG_INLINE_WORDS` (zero-padded).
    inline: [u64; MSG_INLINE_WORDS],
    /// The full payload when `len > MSG_INLINE_WORDS`.
    spill: Option<Box<[u64]>>,
}

impl Msg {
    /// Creates a message from payload words.
    #[must_use]
    pub fn words(words: &[u64]) -> Self {
        let len = u32::try_from(words.len()).expect("message length exceeds u32");
        if words.len() <= MSG_INLINE_WORDS {
            let mut inline = [0u64; MSG_INLINE_WORDS];
            inline[..words.len()].copy_from_slice(words);
            Msg {
                len,
                inline,
                spill: None,
            }
        } else {
            Msg {
                len,
                inline: [0; MSG_INLINE_WORDS],
                spill: Some(words.into()),
            }
        }
    }

    /// Creates an empty (0-word) "ping" message.
    #[must_use]
    pub fn ping() -> Self {
        Msg::default()
    }

    /// The payload words.
    #[inline]
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        match &self.spill {
            Some(boxed) => boxed,
            None => &self.inline[..self.len as usize],
        }
    }

    /// Number of payload words.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the payload is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the payload lives inline in the value (no heap storage).
    #[inline]
    #[must_use]
    pub fn is_inline(&self) -> bool {
        self.spill.is_none()
    }

    /// Word `i`, panicking with a protocol-bug message if absent.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    #[must_use]
    pub fn word(&self, i: usize) -> u64 {
        match self.as_words().get(i) {
            Some(&w) => w,
            None => panic!(
                "protocol bug: word {i} requested from a {}-word message {:?} \
                 (sender and receiver disagree on the message layout)",
                self.len(),
                self.as_words()
            ),
        }
    }
}

impl PartialEq for Msg {
    fn eq(&self, other: &Self) -> bool {
        self.as_words() == other.as_words()
    }
}

impl Eq for Msg {}

impl std::hash::Hash for Msg {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_words().hash(state);
    }
}

impl fmt::Debug for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Msg")
            .field("words", &self.as_words())
            .finish()
    }
}

impl From<Vec<u64>> for Msg {
    fn from(words: Vec<u64>) -> Self {
        if words.len() <= MSG_INLINE_WORDS {
            Msg::words(&words)
        } else {
            // Move the vector into the spill storage — no re-copy.
            Msg {
                len: u32::try_from(words.len()).expect("message length exceeds u32"),
                inline: [0; MSG_INLINE_WORDS],
                spill: Some(words.into_boxed_slice()),
            }
        }
    }
}

/// Configuration of the simulated CONGEST network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Bandwidth: maximum payload words per message (per edge per round).
    /// The default of 4 models a constant number of `O(log n)`-bit fields.
    pub max_words_per_message: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_words_per_message: 4,
        }
    }
}

/// Errors raised by the engine when a protocol violates the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A message exceeded the per-edge bandwidth.
    MessageTooLarge {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Words in the offending message.
        words: usize,
        /// Configured limit.
        limit: usize,
    },
    /// A node addressed a non-neighbour.
    NotANeighbor {
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
    },
    /// Two messages were sent on the same edge direction in one round.
    DuplicateMessage {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// The run exceeded its round budget without quiescing.
    RoundLimitExceeded {
        /// The budget that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MessageTooLarge {
                from,
                to,
                words,
                limit,
            } => write!(
                f,
                "message {from:?} -> {to:?} has {words} words, bandwidth limit is {limit}"
            ),
            SimError::NotANeighbor { from, to } => {
                write!(f, "node {from:?} attempted to message non-neighbour {to:?}")
            }
            SimError::DuplicateMessage { from, to } => {
                write!(f, "two messages on edge {from:?} -> {to:?} in one round")
            }
            SimError::RoundLimitExceeded { limit } => {
                write!(f, "protocol did not quiesce within {limit} rounds")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Report of a single [`Engine::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Rounds executed (the last round in which any message was delivered
    /// or any node was woken).
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Total payload words delivered.
    pub words: u64,
}

/// Per-node protocol logic, driven synchronously by the [`Engine`].
///
/// The engine calls [`init`](NodeLogic::init) for every node before round
/// 1, then, in each round, [`round`](NodeLogic::round) for every node that
/// received a message or requested a wake-up, in ascending node order.
/// Local computation is free (CONGEST); only messages cost rounds.
/// Protocols with per-node state keep it in a `Vec` indexed by
/// [`NodeId::index`].
pub trait NodeLogic {
    /// Round-0 hook: seed initial messages/wake-ups.
    fn init(&mut self, node: NodeId, out: &mut Outbox<'_>);

    /// Called once per round per *active* node with the messages that
    /// arrived this round (possibly empty if the node was merely woken).
    fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>);
}

/// The send-side buffers one round writes through its [`Outbox`]es.
#[derive(Debug)]
struct SendBuffers {
    /// `edge_stamp[2e + dir]` = epoch of the last send on that edge
    /// direction (see [`RoundScratch::stamp_base`]).
    edge_stamp: Vec<u64>,
    /// Wake-dedup flags, one bit per node.
    woken: LaneBits,
    /// This round's sends, in the stable `(src, dst)` order.
    staged: Vec<Staged>,
    /// Nodes that asked to run next round without a message.
    wake: Vec<NodeId>,
}

/// Per-call send interface handed to [`NodeLogic`] methods.
///
/// Sends are validated against the CONGEST constraints; the first
/// violation aborts the run with the corresponding [`SimError`].
pub struct Outbox<'a> {
    src: NodeId,
    g: &'a Graph,
    limit: usize,
    round: u64,
    /// The epoch value marking "sent this round" in `buf.edge_stamp`.
    stamp: u64,
    buf: &'a mut SendBuffers,
    error: &'a mut Option<SimError>,
}

impl<'a> Outbox<'a> {
    /// Stages `msg` on the already-validated edge `e` toward neighbour
    /// `to`, enforcing the one-message-per-edge-direction rule — the
    /// single home of the staging semantics behind [`Outbox::send`] and
    /// [`Outbox::send_all`].
    fn stage_on_edge(&mut self, to: NodeId, e: planartest_graph::EdgeId, msg: Msg) {
        let (u, _) = self.g.endpoints(e);
        let slot = 2 * e.index() + usize::from(self.src != u);
        if self.buf.edge_stamp[slot] == self.stamp {
            *self.error = Some(SimError::DuplicateMessage { from: self.src, to });
            return;
        }
        self.buf.edge_stamp[slot] = self.stamp;
        self.buf.staged.push((self.src, to, msg));
    }

    /// Sends `msg` to neighbour `to`, to be delivered next round.
    pub fn send(&mut self, to: NodeId, msg: Msg) {
        if self.error.is_some() {
            return;
        }
        if msg.len() > self.limit {
            *self.error = Some(SimError::MessageTooLarge {
                from: self.src,
                to,
                words: msg.len(),
                limit: self.limit,
            });
            return;
        }
        let Some(e) = self.g.edge_between(self.src, to) else {
            *self.error = Some(SimError::NotANeighbor { from: self.src, to });
            return;
        };
        self.stage_on_edge(to, e, msg);
    }

    /// Sends a copy of `msg` to every neighbour.
    ///
    /// Iterates the CSR neighbour slice directly — no per-call allocation
    /// and no per-neighbour edge lookup (the slice already carries the
    /// edge ids). This is the hottest primitive in flood workloads.
    pub fn send_all(&mut self, msg: Msg) {
        if self.error.is_some() {
            return;
        }
        let g = self.g;
        let deg = g.neighbors(self.src).len();
        if deg == 0 {
            return;
        }
        if msg.len() > self.limit {
            // Same error a `send` loop would raise on the first neighbour.
            *self.error = Some(SimError::MessageTooLarge {
                from: self.src,
                to: g.neighbors(self.src)[0].0,
                words: msg.len(),
                limit: self.limit,
            });
            return;
        }
        for i in 0..deg {
            let (w, e) = g.neighbors(self.src)[i];
            self.stage_on_edge(w, e, msg.clone());
            if self.error.is_some() {
                return;
            }
        }
    }

    /// Requests that this node's `round` hook runs next round even without
    /// incoming messages (models an internal timer; costs a round only if
    /// nothing else is happening — it never creates messages).
    pub fn wake(&mut self) {
        if !self.buf.woken.get(self.src.index()) {
            self.buf.woken.set(self.src.index());
            self.buf.wake.push(self.src);
        }
    }

    /// The node this outbox belongs to.
    pub fn node(&self) -> NodeId {
        self.src
    }

    /// The network graph (for neighbour discovery inside logic hooks).
    pub fn graph(&self) -> &'a Graph {
        self.g
    }

    /// The current round number (0 during `init`).
    pub fn round(&self) -> u64 {
        self.round
    }
}

/// The simulator: owns the cumulative [`SimStats`] across many runs, so a
/// multi-phase algorithm (like the paper's tester) can account its total
/// round complexity by sequencing `run` calls on one engine.
///
/// [`run`](Engine::run) drives one protocol instance;
/// [`run_batch`](Engine::run_batch) drives many independent instances
/// over the same graph, one after another on recycled buffers.
#[derive(Debug)]
pub struct Engine<'g> {
    g: &'g Graph,
    cfg: SimConfig,
    stats: SimStats,
}

impl<'g> Engine<'g> {
    /// Creates an engine over `g`.
    pub fn new(g: &'g Graph, cfg: SimConfig) -> Self {
        Engine {
            g,
            cfg,
            stats: SimStats::default(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The configuration.
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// Cumulative statistics over all runs (plus charged rounds).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Adds `rounds` explicitly charged rounds (for substituted
    /// subroutines whose cost is taken from their paper's bound).
    pub fn charge_rounds(&mut self, rounds: u64) {
        self.stats.charged_rounds += rounds;
    }

    /// Runs `logic` to quiescence (no staged messages and no wake-ups).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the protocol violates the CONGEST
    /// constraints or fails to quiesce within `max_rounds`.
    pub fn run<L: NodeLogic>(
        &mut self,
        logic: &mut L,
        max_rounds: u64,
    ) -> Result<RunReport, SimError> {
        let report = RoundScratch::for_graph(self.g).run(self.g, self.cfg, logic, max_rounds)?;
        self.stats.absorb(report);
        Ok(report)
    }

    /// Runs independent instances of a protocol over the same graph and
    /// returns one result per instance, each bit-for-bit what
    /// [`run`](Engine::run) returns for that instance alone. Successful
    /// instances are folded into [`stats`](Engine::stats), one run each;
    /// an instance that violates the model fails alone.
    ///
    /// The instances run one after another over buffers recycled across
    /// instances and across calls (see [`crate::runtime::batch`]), so a
    /// batch pays the per-run setup cost once.
    ///
    /// # Example
    ///
    /// ```
    /// use planartest_graph::{Graph, NodeId};
    /// use planartest_sim::{Engine, Msg, NodeLogic, Outbox, SimConfig};
    ///
    /// /// Node `src` floods a token; `seen` is per-instance state.
    /// struct Flood {
    ///     src: usize,
    ///     seen: Vec<bool>,
    /// }
    /// impl NodeLogic for Flood {
    ///     fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
    ///         if node.index() == self.src {
    ///             self.seen[self.src] = true;
    ///             out.send_all(Msg::words(&[1]));
    ///         }
    ///     }
    ///     fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
    ///         if !self.seen[node.index()] && !inbox.is_empty() {
    ///             self.seen[node.index()] = true;
    ///             out.send_all(Msg::words(&[1]));
    ///         }
    ///     }
    /// }
    ///
    /// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// let mut logics: Vec<Flood> = (0..3)
    ///     .map(|src| Flood { src, seen: vec![false; 4] })
    ///     .collect();
    /// let mut engine = Engine::new(&g, SimConfig::default());
    /// let reports = engine.run_batch(&mut logics, 100);
    /// let rounds: Vec<u64> = reports.iter().map(|r| r.as_ref().unwrap().rounds).collect();
    /// assert_eq!(rounds, [4, 3, 3]);
    /// assert_eq!(engine.stats().runs, 3);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn run_batch<L: NodeLogic>(
        &mut self,
        logics: &mut [L],
        max_rounds: u64,
    ) -> Vec<Result<RunReport, SimError>> {
        let results = crate::runtime::batch::run_consecutive(self.g, self.cfg, logics, max_rounds);
        for report in results.iter().flatten() {
            self.stats.absorb(*report);
        }
        results
    }
}

/// The buffers of the round loop, sized for one graph shape.
///
/// A scratch may be reused for any number of consecutive runs over
/// graphs of that shape with no re-zeroing in between: edge stamps use
/// monotone epochs ([`stamp_base`](RoundScratch::stamp_base)), and
/// [`run`](RoundScratch::run) leaves the vectors empty and the wake
/// flags clear on every exit path.
#[derive(Debug)]
pub(crate) struct RoundScratch {
    /// Graph shape this scratch is sized for: `(n, m)`.
    key: (usize, usize),
    buf: SendBuffers,
    active: Vec<NodeId>,
    boxes: Mailboxes,
    /// Edge-stamp epoch base: a run marks "sent in round `r`" as
    /// `stamp_base + r + 1` and then advances the base past every stamp
    /// it wrote, so a stale stamp never equals a fresh one.
    stamp_base: u64,
}

impl RoundScratch {
    pub(crate) fn for_graph(g: &Graph) -> Self {
        RoundScratch {
            key: (g.n(), g.m()),
            buf: SendBuffers {
                edge_stamp: vec![0; 2 * g.m()],
                woken: LaneBits::new(g.n()),
                staged: Vec::new(),
                wake: Vec::new(),
            },
            active: Vec::new(),
            boxes: Mailboxes::new(g.n()),
            stamp_base: 0,
        }
    }

    /// Whether the buffers are sized for `g`'s shape.
    pub(crate) fn fits(&self, g: &Graph) -> bool {
        self.key == (g.n(), g.m())
    }

    /// Whether the buffers are in their between-runs state.
    pub(crate) fn is_clean(&self) -> bool {
        !self.buf.woken.any_set() && self.buf.staged.is_empty() && self.buf.wake.is_empty()
    }

    /// The round loop: runs `logic` to quiescence over these buffers.
    pub(crate) fn run<L: NodeLogic>(
        &mut self,
        g: &Graph,
        cfg: SimConfig,
        logic: &mut L,
        max_rounds: u64,
    ) -> Result<RunReport, SimError> {
        let limit = cfg.max_words_per_message;
        let base = self.stamp_base;
        let mut error: Option<SimError> = None;
        let mut report = RunReport::default();

        // Round 0: init.
        for v in g.nodes() {
            let mut out = Outbox {
                src: v,
                g,
                limit,
                round: 0,
                stamp: base + 1,
                buf: &mut self.buf,
                error: &mut error,
            };
            logic.init(v, &mut out);
            if let Some(e) = error {
                return Err(self.abort(base, 0, e));
            }
        }

        let mut round: u64 = 0;
        while !self.buf.staged.is_empty() || !self.buf.wake.is_empty() {
            round += 1;
            if round > max_rounds {
                return Err(self.abort(
                    base,
                    round,
                    SimError::RoundLimitExceeded { limit: max_rounds },
                ));
            }
            // `active` is recycled across rounds: cleared, never
            // re-allocated at steady state.
            self.active.clear();
            self.boxes.deliver(
                &mut self.buf.staged,
                &self.buf.woken,
                &mut self.active,
                &mut report,
            );
            // Woken nodes join the message-activated ones; the sweep
            // runs in ascending node order.
            self.active.append(&mut self.buf.wake);
            self.active.sort_unstable();
            self.active.dedup();
            for &v in &self.active {
                self.buf.woken.clear(v.index());
            }
            for &v in &self.active {
                let mut out = Outbox {
                    src: v,
                    g,
                    limit,
                    round,
                    stamp: base + round + 1,
                    buf: &mut self.buf,
                    error: &mut error,
                };
                logic.round(v, self.boxes.inbox(v), &mut out);
                if error.is_some() {
                    break;
                }
            }
            if let Some(e) = error {
                return Err(self.abort(base, round, e));
            }
        }
        self.stamp_base = base + round + 2;
        report.rounds = round;
        Ok(report)
    }

    /// Restores the between-runs state after a run aborted in `round`:
    /// drops the undelivered sends, clears the pending wake flags and
    /// advances the stamp epoch. Returns `e` for the caller to report.
    fn abort(&mut self, base: u64, round: u64, e: SimError) -> SimError {
        self.buf.staged.clear();
        for v in self.buf.wake.drain(..) {
            self.buf.woken.clear(v.index());
        }
        self.stamp_base = base + round + 2;
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    /// Node 0 sends its id to node 1; everyone else is silent.
    struct OneShot {
        got: Vec<Option<u64>>,
    }
    impl NodeLogic for OneShot {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == 0 {
                out.send(NodeId::new(1), Msg::words(&[42]));
            }
        }
        fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], _out: &mut Outbox<'_>) {
            for (from, m) in inbox {
                assert_eq!(from.index(), 0);
                self.got[node.index()] = Some(m.word(0));
            }
        }
    }

    #[test]
    fn one_shot_delivery() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let mut logic = OneShot { got: vec![None; 4] };
        let rep = engine.run(&mut logic, 10).unwrap();
        assert_eq!(rep.rounds, 1);
        assert_eq!(rep.messages, 1);
        assert_eq!(rep.words, 1);
        assert_eq!(logic.got[1], Some(42));
        assert_eq!(engine.stats().rounds, 1);
    }

    struct SendTooBig;
    impl NodeLogic for SendTooBig {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == 0 {
                out.send(NodeId::new(1), Msg::words(&[0; 9]));
            }
        }
        fn round(&mut self, _: NodeId, _: &[(NodeId, Msg)], _: &mut Outbox<'_>) {}
    }

    #[test]
    fn bandwidth_enforced() {
        let g = path4();
        let mut engine = Engine::new(
            &g,
            SimConfig {
                max_words_per_message: 4,
            },
        );
        let err = engine.run(&mut SendTooBig, 10).unwrap_err();
        assert!(matches!(
            err,
            SimError::MessageTooLarge {
                words: 9,
                limit: 4,
                ..
            }
        ));
        assert!(err.to_string().contains("bandwidth"));
    }

    struct SendToStranger;
    impl NodeLogic for SendToStranger {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == 0 {
                out.send(NodeId::new(3), Msg::ping());
            }
        }
        fn round(&mut self, _: NodeId, _: &[(NodeId, Msg)], _: &mut Outbox<'_>) {}
    }

    #[test]
    fn topology_enforced() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let err = engine.run(&mut SendToStranger, 10).unwrap_err();
        assert_eq!(
            err,
            SimError::NotANeighbor {
                from: NodeId::new(0),
                to: NodeId::new(3)
            }
        );
    }

    struct DoubleSend;
    impl NodeLogic for DoubleSend {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == 0 {
                out.send(NodeId::new(1), Msg::ping());
                out.send(NodeId::new(1), Msg::ping());
            }
        }
        fn round(&mut self, _: NodeId, _: &[(NodeId, Msg)], _: &mut Outbox<'_>) {}
    }

    #[test]
    fn one_message_per_edge_direction_per_round() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let err = engine.run(&mut DoubleSend, 10).unwrap_err();
        assert!(matches!(err, SimError::DuplicateMessage { .. }));
    }

    /// Both directions of one edge in the same round are allowed.
    struct CrossTalk {
        ok: [bool; 2],
    }
    impl NodeLogic for CrossTalk {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() <= 1 {
                out.send(
                    NodeId::new(1 - node.index()),
                    Msg::words(&[node.index() as u64]),
                );
            }
        }
        fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], _: &mut Outbox<'_>) {
            if node.index() <= 1 && inbox.len() == 1 {
                self.ok[node.index()] = true;
            }
        }
    }

    #[test]
    fn both_directions_allowed() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let mut logic = CrossTalk { ok: [false; 2] };
        engine.run(&mut logic, 10).unwrap();
        assert_eq!(logic.ok, [true, true]);
    }

    struct Chatter;
    impl NodeLogic for Chatter {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == 0 {
                out.send(NodeId::new(1), Msg::ping());
            }
        }
        fn round(&mut self, _: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
            // Bounce forever.
            for (from, _) in inbox {
                out.send(*from, Msg::ping());
            }
        }
    }

    #[test]
    fn round_limit_enforced() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let err = engine.run(&mut Chatter, 25).unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 25 });
    }

    #[test]
    fn round_limit_enforced_on_one_edge() {
        // The smallest bouncing pair: two nodes, one edge, a tight limit.
        let g = grid(1, 2);
        let mut engine = Engine::new(&g, SimConfig::default());
        let err = engine.run(&mut Chatter, 7).unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 7 });
    }

    struct Sleeper {
        fired: bool,
    }
    impl NodeLogic for Sleeper {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == 2 {
                out.wake();
            }
        }
        fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], _: &mut Outbox<'_>) {
            assert_eq!(node.index(), 2);
            assert!(inbox.is_empty());
            self.fired = true;
        }
    }

    #[test]
    fn wake_without_messages() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let mut logic = Sleeper { fired: false };
        let rep = engine.run(&mut logic, 10).unwrap();
        assert!(logic.fired);
        assert_eq!(rep.rounds, 1);
        assert_eq!(rep.messages, 0);
    }

    #[test]
    fn quiescent_immediately() {
        struct Silent;
        impl NodeLogic for Silent {
            fn init(&mut self, _: NodeId, _: &mut Outbox<'_>) {}
            fn round(&mut self, _: NodeId, _: &[(NodeId, Msg)], _: &mut Outbox<'_>) {}
        }
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        let rep = engine.run(&mut Silent, 10).unwrap();
        assert_eq!(rep.rounds, 0);
    }

    #[test]
    fn charged_rounds_accumulate() {
        let g = path4();
        let mut engine = Engine::new(&g, SimConfig::default());
        engine.charge_rounds(17);
        assert_eq!(engine.stats().charged_rounds, 17);
        assert_eq!(engine.stats().total_rounds(), 17);
    }

    fn grid(rows: usize, cols: usize) -> Graph {
        let mut edges = Vec::new();
        let id = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        Graph::from_edges(rows * cols, edges).unwrap()
    }

    /// Distance-from-source flood with per-node state in a `Vec` field.
    struct Levels {
        level: Vec<Option<u64>>,
    }
    impl NodeLogic for Levels {
        fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
            if node.index() == 0 {
                self.level[0] = Some(0);
                out.send_all(Msg::words(&[0]));
            }
        }
        fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
            if self.level[node.index()].is_none() {
                let lvl = inbox.iter().map(|(_, m)| m.word(0)).min().expect("msgs") + 1;
                self.level[node.index()] = Some(lvl);
                out.send_all(Msg::words(&[lvl]));
            }
        }
    }

    #[test]
    fn flood_levels_are_bfs_distances() {
        let g = grid(9, 11);
        let mut engine = Engine::new(&g, SimConfig::default());
        let mut logic = Levels {
            level: vec![None; g.n()],
        };
        let report = engine.run(&mut logic, 10_000).unwrap();
        // Manhattan distance on a grid from corner (0,0).
        for r in 0..9u64 {
            for c in 0..11u64 {
                assert_eq!(logic.level[(r * 11 + c) as usize], Some(r + c));
            }
        }
        assert!(report.rounds >= 9 + 11 - 2);
    }

    #[test]
    fn errors_match_serial_choice() {
        // Two violators in one round: the lower node id runs first, so
        // its error is the one reported.
        struct TwoViolators;
        impl NodeLogic for TwoViolators {
            fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
                if node.index() == 3 || node.index() == 7 {
                    out.send_all(Msg::words(&[0; 9])); // over bandwidth
                }
            }
            fn round(&mut self, _: NodeId, _: &[(NodeId, Msg)], _: &mut Outbox<'_>) {}
        }
        let g = grid(3, 4);
        let mut engine = Engine::new(&g, SimConfig::default());
        let err = engine.run(&mut TwoViolators, 10).unwrap_err();
        assert!(
            matches!(err, SimError::MessageTooLarge { from, .. } if from.index() == 3),
            "{err}"
        );
    }

    #[test]
    fn wake_semantics_preserved() {
        // A node that wakes itself twice, then quiesces.
        struct Snooze {
            count: u32,
        }
        impl NodeLogic for Snooze {
            fn init(&mut self, node: NodeId, out: &mut Outbox<'_>) {
                if node.index() == 5 {
                    out.wake();
                }
            }
            fn round(&mut self, node: NodeId, inbox: &[(NodeId, Msg)], out: &mut Outbox<'_>) {
                assert_eq!(node.index(), 5);
                assert!(inbox.is_empty());
                self.count += 1;
                if self.count < 3 {
                    out.wake();
                    out.wake(); // dedup: still one activation
                }
            }
        }
        let g = grid(2, 4);
        let mut engine = Engine::new(&g, SimConfig::default());
        let mut logic = Snooze { count: 0 };
        let report = engine.run(&mut logic, 100).unwrap();
        assert_eq!(logic.count, 3);
        assert_eq!(report.rounds, 3);
        assert_eq!(report.messages, 0);
    }

    #[test]
    fn msg_accessors() {
        let m = Msg::words(&[1, 2, 3]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.word(2), 3);
        assert_eq!(m.as_words(), &[1, 2, 3]);
        assert!(Msg::ping().is_empty());
        let m2: Msg = vec![5u64].into();
        assert_eq!(m2.word(0), 5);
    }
}
