//! Seeded operation streams. The program under test only ever sees the
//! query text (and the bucket count of a statistics refresh) these
//! produce.

use oodb_bench::workload::{paper_query_pool, Zipf};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Zipf exponent of the replayed pool.
pub const ZIPF_S: f64 = 1.0;
/// Every `WRITE_EVERY`-th operation of the writing connection is a
/// statistics refresh.
pub const WRITE_EVERY: u64 = 25;
/// Histogram bucket counts the refreshes cycle through.
pub const BUCKETS: std::ops::RangeInclusive<usize> = 16..=40;

/// The 58-query paper pool: Q1 over ten plant locations, Q2 and Q3 over
/// sixteen mayor names, Q4 over sixteen task times.
pub fn pool() -> Vec<String> {
    paper_query_pool(10, 16, 16)
}

/// Derives an independent generator for stream `salt` of a run.
fn rng(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One operation of a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Submit pool query `i`.
    Pool(usize),
    /// Submit this ad-hoc query text.
    Adhoc(String),
    /// Refresh statistics with this many histogram buckets.
    Refresh(usize),
}

/// A seeded, endless operation stream.
pub enum Stream {
    /// Zipf draws from the pool; when `writer` is set, every
    /// [`WRITE_EVERY`]-th operation is a refresh instead.
    Pool {
        /// Draw source.
        rng: SmallRng,
        /// Rank sampler over the pool.
        zipf: Zipf,
        /// Whether this stream carries the refreshes.
        writer: bool,
        /// Operations produced so far.
        n: u64,
        /// Refreshes produced so far.
        writes: usize,
    },
    /// Fresh-constant queries over five shapes.
    Adhoc {
        /// Draw source.
        rng: SmallRng,
        /// Operations produced so far; part of every constant, which is
        /// what makes each one fresh.
        n: u64,
    },
}

impl Stream {
    /// Stream `conn` of a pool replay.
    pub fn pool(seed: u64, conn: u64, pool_len: usize, writer: bool) -> Stream {
        Stream::Pool {
            rng: rng(seed, 1 + conn),
            zipf: Zipf::new(pool_len, ZIPF_S),
            writer,
            n: 0,
            writes: 0,
        }
    }

    /// The ad-hoc stream of a run.
    pub fn adhoc(seed: u64) -> Stream {
        Stream::Adhoc {
            rng: rng(seed, 0xad0c),
            n: 0,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        match self {
            Stream::Pool {
                rng,
                zipf,
                writer,
                n,
                writes,
            } => {
                *n += 1;
                if *writer && *n % WRITE_EVERY == 0 {
                    let span = BUCKETS.end() - BUCKETS.start() + 1;
                    let b = BUCKETS.start() + *writes % span;
                    *writes += 1;
                    Op::Refresh(b)
                } else {
                    Op::Pool(zipf.sample(rng))
                }
            }
            Stream::Adhoc { rng, n } => {
                *n += 1;
                Op::Adhoc(adhoc_query(rng, *n))
            }
        }
    }
}

/// One ad-hoc query: a shape drawn uniformly from five, with a constant
/// no earlier operation of the run used (a seeded tag plus the
/// operation's sequence number), so every submission misses the plan
/// cache.
fn adhoc_query(rng: &mut SmallRng, n: u64) -> String {
    let tag: u32 = rng.gen_range(0..u32::MAX);
    let name = format!("x{tag:08x}n{n}");
    match rng.gen_range(0..5u32) {
        0 => format!(
            "SELECT Newobject(e.name(), e.job().name(), e.dept().name()) \
             FROM Employee e IN Employees \
             WHERE e.dept().plant().location() == \"Dallas\" && e.name() == \"{name}\""
        ),
        1 => format!("SELECT c FROM City c IN Cities WHERE c.mayor().name() == \"{name}\""),
        2 => format!(
            "SELECT Newobject(c.mayor().age(), c.name()) \
             FROM City c IN Cities WHERE c.mayor().name() == \"{name}\""
        ),
        3 => {
            let time = rng.gen_range(1..=16u32) * 10;
            format!(
                "SELECT t FROM Task t IN Tasks WHERE t.time() == {time} \
                 && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == \"{name}\")"
            )
        }
        _ => format!(
            "SELECT c FROM City c IN Cities \
             WHERE c.mayor().name() == c.country().president().name() && c.name() == \"{name}\""
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn take(mut s: Stream, n: usize) -> Vec<Op> {
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn the_seed_alone_fixes_every_stream() {
        let len = pool().len();
        for writer in [false, true] {
            assert_eq!(
                take(Stream::pool(42, 0, len, writer), 500),
                take(Stream::pool(42, 0, len, writer), 500)
            );
            assert_ne!(
                take(Stream::pool(42, 0, len, writer), 500),
                take(Stream::pool(43, 0, len, writer), 500)
            );
        }
        assert_ne!(
            take(Stream::pool(42, 0, len, false), 500),
            take(Stream::pool(42, 1, len, false), 500),
            "connections draw independent streams"
        );
        assert_eq!(take(Stream::adhoc(42), 300), take(Stream::adhoc(42), 300));
        assert_ne!(take(Stream::adhoc(42), 300), take(Stream::adhoc(43), 300));
    }

    #[test]
    fn the_writer_refreshes_every_25th_operation_cycling_buckets() {
        let ops = take(Stream::pool(1, 0, pool().len(), true), 2000);
        let refreshes: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match op {
                Op::Refresh(b) => {
                    assert_eq!((i + 1) % 25, 0);
                    Some(*b)
                }
                _ => None,
            })
            .collect();
        assert_eq!(refreshes.len(), 80);
        assert_eq!(&refreshes[..3], &[16, 17, 18]);
        assert_eq!(refreshes[25], 16);
        assert!(refreshes.iter().all(|b| BUCKETS.contains(b)));
    }

    #[test]
    fn adhoc_never_repeats_a_fingerprint() {
        let (store, _) = oodb_storage::generate_paper_db(oodb_storage::GenConfig::small());
        let mut seen = HashSet::new();
        let mut shapes = HashSet::new();
        let mut s = Stream::adhoc(7);
        for _ in 0..1500 {
            let Op::Adhoc(text) = s.next_op() else {
                unreachable!("the ad-hoc stream only yields queries")
            };
            let ast = zql::parser::parse(&text).expect("generated query parses");
            let q = zql::simplify(&ast, store.schema(), store.catalog()).expect("simplifies");
            let fp = oodb_algebra::fingerprint(&q.env, &q.plan, q.result_vars, q.order.as_ref());
            shapes.insert(text.split(" WHERE ").next().map(str::to_string));
            assert!(seen.insert(fp.key), "repeated fingerprint for {text}");
        }
        assert_eq!(shapes.len(), 4, "five shapes over four distinct FROM heads");
    }
}
