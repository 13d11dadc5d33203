//! Request schedules for the serving workloads: seeded Poisson arrivals,
//! Zipf graph popularity and each workload's op mix. A schedule is a
//! pure function of `(seed, rate, horizon)`.

use planartest_sim::sampling::{PoissonArrivals, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Client connections (and load-generator threads).
pub const CONNECTIONS: usize = 2;

/// The served corpus: name, generator spec, planar by construction.
/// Leading entries carry most of the Zipf mass.
pub const CORPUS: [(&str, &str, bool); 6] = [
    ("g0", "tri_grid(12,12)", true),
    ("g1", "grid(14,14)", true),
    ("g2", "random_planar(140, 0.7, seed=3)", true),
    ("g3", "k5_chain(10)", false),
    ("g4", "cycle(180)", true),
    ("g5", "complete(9)", false),
];

/// Distance parameters of the warm pool.
pub const EPSILONS: [f64; 2] = [0.1, 0.2];
/// Stage-I phases of every query.
pub const PHASES: u64 = 6;
/// Seeds `0..WARM_SEEDS` of every planarity query are cached before the
/// window opens.
pub const WARM_SEEDS: u64 = 4;
/// Zipf exponent of graph popularity.
const ZIPF_S: f64 = 1.1;

/// A property the server tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Property {
    /// The paper's tester.
    Planarity,
    /// Hereditary, seed-independent.
    CycleFreeness,
    /// Hereditary, seed-independent.
    Bipartiteness,
}

impl Property {
    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Property::Planarity => "planarity",
            Property::CycleFreeness => "cycle_freeness",
            Property::Bipartiteness => "bipartiteness",
        }
    }
}

/// One query: corpus graph, property, distance parameter (index into
/// [`EPSILONS`]) and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Index into [`CORPUS`].
    pub graph: usize,
    /// Property tested.
    pub property: Property,
    /// Index into [`EPSILONS`].
    pub eps: usize,
    /// Tester seed.
    pub seed: u64,
}

impl QueryKey {
    /// The query as a JSON object (no newline).
    #[must_use]
    pub fn json(&self) -> String {
        let prop = match self.property {
            Property::Planarity => String::new(),
            p => format!("\"property\":\"{}\",", p.name()),
        };
        format!(
            "{{\"op\":\"query\",\"graph\":\"{}\",{prop}\"epsilon\":{},\"phases\":{PHASES},\"seed\":{}}}",
            CORPUS[self.graph].0, EPSILONS[self.eps], self.seed
        )
    }

    /// Whether the graph is planar by construction.
    #[must_use]
    pub fn planar_graph(&self) -> bool {
        CORPUS[self.graph].2
    }
}

/// One request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A single query.
    Query(QueryKey),
    /// Several queries in one `batch` frame.
    Batch(Vec<QueryKey>),
    /// A `stats` probe (a control op: wakes the drain loop).
    Stats,
    /// Registers a small spec under a fresh name.
    Ingest(String),
}

impl Op {
    /// The request line, newline-terminated.
    #[must_use]
    pub fn line(&self) -> String {
        match self {
            Op::Query(q) => format!("{}\n", q.json()),
            Op::Batch(qs) => {
                let members: Vec<String> = qs.iter().map(QueryKey::json).collect();
                format!("{{\"op\":\"batch\",\"queries\":[{}]}}\n", members.join(","))
            }
            Op::Stats => "{\"op\":\"stats\"}\n".to_string(),
            Op::Ingest(name) => {
                format!("{{\"op\":\"ingest\",\"name\":\"{name}\",\"spec\":\"cycle(24)\"}}\n")
            }
        }
    }

    /// Queries the op carries (`stats` and `ingest` carry none).
    #[must_use]
    pub fn queries(&self) -> usize {
        match self {
            Op::Query(_) => 1,
            Op::Batch(qs) => qs.len(),
            Op::Stats | Op::Ingest(_) => 0,
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// When it is due, in microseconds after the window opens.
    pub at_us: u64,
    /// What it is.
    pub op: Op,
}

/// The serving workloads' op mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `serve_warm`: mostly cache hits, ~5% engine passes, registry
    /// writes beside the reads.
    Warm,
    /// `serve_cold`: ≥90% fresh seeds on planar graphs, a quarter of the
    /// queries in same-graph batches.
    Cold,
}

/// SplitMix64 finalizer: decorrelates the seeds derived from one
/// `(seed, rate)` pair.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The window's request schedule, split round-robin across
/// [`CONNECTIONS`]. Fresh seeds and ingest names derive from
/// `(seed, rate)`, so windows at different rates never share them and a
/// window's fresh queries always miss the cache.
#[must_use]
pub fn schedule(mix: Mix, seed: u64, rate: f64, horizon_us: u64) -> Vec<Vec<Arrival>> {
    let stream = mix64(seed ^ rate.to_bits());
    let times = PoissonArrivals::schedule(stream, rate, horizon_us);
    let mut rng = StdRng::seed_from_u64(mix64(stream));
    // Fresh seeds live far above the warm pool: bit 62 set, 20 low bits
    // for the window's counter.
    let fresh_base = (mix64(stream ^ 1) >> 2 | 1 << 62) & !0xf_ffff;
    let mut fresh = 0u64;
    let mut next_fresh = || {
        fresh += 1;
        fresh_base + fresh
    };
    let planar: Vec<usize> = (0..CORPUS.len()).filter(|&i| CORPUS[i].2).collect();
    let any_zipf = Zipf::new(CORPUS.len(), ZIPF_S);
    let planar_zipf = Zipf::new(planar.len(), ZIPF_S);
    let mut per_conn: Vec<Vec<Arrival>> = vec![Vec::new(); CONNECTIONS];
    let mut ingests = 0u64;

    for (i, &at_us) in times.iter().enumerate() {
        let draw: f64 = rng.random();
        let eps = rng.random_range(0..EPSILONS.len());
        let op = match mix {
            Mix::Warm => {
                let warm = |rng: &mut StdRng| QueryKey {
                    graph: any_zipf.sample(rng),
                    property: Property::Planarity,
                    eps: rng.random_range(0..EPSILONS.len()),
                    seed: rng.random_range(0..WARM_SEEDS),
                };
                if draw < 0.72 {
                    Op::Query(warm(&mut rng))
                } else if draw < 0.80 {
                    let graph = any_zipf.sample(&mut rng);
                    let property = if rng.random_range(0..2u32) == 0 {
                        Property::CycleFreeness
                    } else {
                        Property::Bipartiteness
                    };
                    Op::Query(QueryKey {
                        graph,
                        property,
                        eps,
                        seed: 0,
                    })
                } else if draw < 0.85 {
                    Op::Query(QueryKey {
                        graph: planar[planar_zipf.sample(&mut rng)],
                        property: Property::Planarity,
                        eps,
                        seed: next_fresh(),
                    })
                } else if draw < 0.89 {
                    Op::Batch((0..3).map(|_| warm(&mut rng)).collect())
                } else if draw < 0.96 {
                    Op::Stats
                } else {
                    ingests += 1;
                    Op::Ingest(format!("ld{:x}_{ingests}", fresh_base >> 20))
                }
            }
            Mix::Cold => {
                let graph = planar[planar_zipf.sample(&mut rng)];
                let key = |seed| QueryKey {
                    graph,
                    property: Property::Planarity,
                    eps,
                    seed,
                };
                if draw < 0.84 {
                    Op::Query(key(next_fresh()))
                } else if draw < 0.94 {
                    Op::Batch((0..3).map(|_| key(next_fresh())).collect())
                } else {
                    Op::Query(key(rng.random_range(0..WARM_SEEDS)))
                }
            }
        };
        per_conn[i % CONNECTIONS].push(Arrival { at_us, op });
    }
    per_conn
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn all(s: &[Vec<Arrival>]) -> Vec<&Arrival> {
        let mut v: Vec<&Arrival> = s.iter().flatten().collect();
        v.sort_by_key(|a| a.at_us);
        v
    }

    #[test]
    fn schedules_are_a_pure_function_of_seed_rate_and_length() {
        for mix in [Mix::Warm, Mix::Cold] {
            let a = schedule(mix, 7, 800.0, 500_000);
            assert_eq!(a, schedule(mix, 7, 800.0, 500_000));
            assert_ne!(a, schedule(mix, 8, 800.0, 500_000));
            assert_ne!(a, schedule(mix, 7, 801.0, 500_000));
            assert_eq!(a.len(), CONNECTIONS);
            for conn in &a {
                assert!(conn.windows(2).all(|w| w[0].at_us <= w[1].at_us));
                assert!(conn.iter().all(|x| x.at_us < 500_000));
            }
            let n = all(&a).len() as f64;
            assert!((n - 400.0).abs() < 80.0, "{n} arrivals at 800/s over 0.5 s");
        }
    }

    #[test]
    fn cold_mix_misses_the_cache_on_planar_graphs_only() {
        let s = schedule(Mix::Cold, 3, 2000.0, 1_000_000);
        let (mut fresh, mut queries, mut batched) = (0usize, 0usize, 0usize);
        let mut seeds = HashSet::new();
        for a in all(&s) {
            let keys = match &a.op {
                Op::Query(q) => vec![*q],
                Op::Batch(qs) => {
                    batched += qs.len();
                    assert!(qs
                        .iter()
                        .all(|q| q.graph == qs[0].graph && q.eps == qs[0].eps));
                    qs.clone()
                }
                other => panic!("unexpected op {other:?}"),
            };
            for q in keys {
                assert!(q.planar_graph());
                queries += 1;
                if q.seed >= WARM_SEEDS {
                    fresh += 1;
                    assert!(seeds.insert(q.seed), "fresh seed repeated");
                }
            }
        }
        assert!(fresh * 10 >= queries * 9, "{fresh} of {queries} fresh");
        let share = batched as f64 / queries as f64;
        assert!((0.18..0.32).contains(&share), "batched share {share}");
        // Another rate draws disjoint fresh seeds.
        let other = schedule(Mix::Cold, 3, 2001.0, 200_000);
        for a in all(&other) {
            if let Op::Query(q) = &a.op {
                assert!(q.seed < WARM_SEEDS || !seeds.contains(&q.seed));
            }
        }
    }

    #[test]
    fn warm_mix_matches_its_shares() {
        let s = schedule(Mix::Warm, 11, 4000.0, 2_000_000);
        let arrivals = all(&s);
        let n = arrivals.len() as f64;
        let share =
            |f: &dyn Fn(&Op) -> bool| arrivals.iter().filter(|a| f(&a.op)).count() as f64 / n;
        let stats = share(&|o| matches!(o, Op::Stats));
        let ingest = share(&|o| matches!(o, Op::Ingest(_)));
        let batch = share(&|o| matches!(o, Op::Batch(_)));
        let fresh = share(&|o| matches!(o, Op::Query(q) if q.seed >= WARM_SEEDS));
        for (got, want) in [(stats, 0.07), (ingest, 0.04), (batch, 0.04), (fresh, 0.05)] {
            assert!((got - want).abs() < 0.015, "share {got} vs {want}");
        }
        let names: HashSet<String> = arrivals
            .iter()
            .filter_map(|a| match &a.op {
                Op::Ingest(name) => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names.len() as f64, (ingest * n).round());
    }

    #[test]
    fn request_lines_are_single_json_lines() {
        let q = QueryKey {
            graph: 3,
            property: Property::Bipartiteness,
            eps: 1,
            seed: 2,
        };
        let line = Op::Batch(vec![q, q]).line();
        assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
        let v = planartest_service::wire::Value::parse(line.trim()).unwrap();
        let members = v.get("queries").and_then(|m| m.as_arr()).unwrap();
        assert_eq!(members.len(), 2);
        assert_eq!(members[0].get("graph").and_then(|g| g.as_str()), Some("g3"));
        assert_eq!(
            members[0].get("property").and_then(|g| g.as_str()),
            Some("bipartiteness")
        );
        assert_eq!(Op::Stats.queries() + Op::Ingest("x".into()).queries(), 0);
    }
}
