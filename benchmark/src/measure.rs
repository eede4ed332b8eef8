//! Arithmetic of the harness: percentiles, quartiles, the stop rule, seed
//! derivation and the result digest. Pure functions, unit-tested here.

use std::time::Duration;

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the
/// smallest sample with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[percentile_rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn percentile_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether at least ten of `n` samples lie beyond the `p`-th percentile —
/// the condition under which a tail percentile is worth comparing.
pub fn tail_resolved(n: usize, p: f64) -> bool {
    n > 0 && n - percentile_rank(n, p) >= 10
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The stop rule of a timed section: keep issuing ops until the run
/// length has elapsed *and* the minimum number of ops has completed.
pub fn keep_issuing(elapsed: Duration, completed: usize, run_length: Duration, min_ops: usize) -> bool {
    elapsed < run_length || completed < min_ops
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a stream of 64-bit words, used for `counts_digest` and for
/// hashing one op's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn word(&mut self, w: u64) {
        w.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }

    /// Length-prefixed, so adjacent strings keep their boundary.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        bytes.iter().for_each(|&b| self.byte(b));
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The seed of one op: every RNG seed and generated input of the op
/// derives from `(run seed, workload tag, client, op index)` and nothing
/// else, so a run's inputs do not depend on timing.
pub fn derive_seed(run_seed: u64, tag: &str, client: usize, op: u64) -> u64 {
    let mut d = Digest::default();
    d.bytes(tag.as_bytes());
    let mut z = splitmix64(d.finish() ^ run_seed);
    z = splitmix64(z ^ (client as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    splitmix64(z ^ op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        assert!(tail_resolved(200, 95.0));
        assert!(!tail_resolved(199, 95.0));
        assert!(!tail_resolved(0, 95.0));
        assert!(tail_resolved(20, 50.0));
        assert!(!tail_resolved(19, 50.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn stop_rule_needs_both_time_and_ops() {
        let six = Duration::from_secs(6);
        assert!(keep_issuing(Duration::from_secs(5), 100, six, 8));
        assert!(keep_issuing(Duration::from_secs(7), 7, six, 8));
        assert!(!keep_issuing(Duration::from_secs(6), 8, six, 8));
        assert!(!keep_issuing(Duration::from_secs(30), 9, six, 8));
    }

    #[test]
    fn seeds_depend_on_every_coordinate_and_nothing_else() {
        let base = derive_seed(1, "bell_par", 0, 0);
        assert_eq!(base, derive_seed(1, "bell_par", 0, 0));
        let others = [
            derive_seed(2, "bell_par", 0, 0),
            derive_seed(1, "shor", 0, 0),
            derive_seed(1, "bell_par", 1, 0),
            derive_seed(1, "bell_par", 0, 1),
        ];
        for (i, s) in others.iter().enumerate() {
            assert_ne!(*s, base, "coordinate {i} ignored");
        }
        // Client and op index must not alias each other.
        assert_ne!(derive_seed(1, "x", 1, 0), derive_seed(1, "x", 0, 1));
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let run = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|&w| d.word(w));
            d.finish()
        };
        assert_eq!(run(&[1, 2, 3]), run(&[1, 2, 3]));
        assert_ne!(run(&[1, 2, 3]), run(&[3, 2, 1]));
        // Pinned value: the digest must not drift between builds.
        assert_eq!(run(&[1, 2, 3]), 0xDA2B_FB22_5E0D_1F05);
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.bytes(b"ab");
        a.bytes(b"c");
        b.bytes(b"a");
        b.bytes(b"bc");
        assert_ne!(a.finish(), b.finish(), "length prefix keeps boundaries");
    }
}
