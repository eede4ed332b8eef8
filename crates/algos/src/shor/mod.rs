//! Shor's algorithm end to end (paper Algorithms 1 and 2).
//!
//! The classical driver repeatedly picks a random base `a`, checks
//! `gcd(a, N)`, invokes the period-finding kernel, estimates the order `r`
//! from the measured phases by continued fractions, and derives factors
//! from `gcd(a^{r/2} ± 1, N)`. The parallel variant launches the per-base
//! attempts as asynchronous tasks (Algorithm 2's `async SHOR(N, a)`).

pub mod beauregard;
pub mod fractions;
pub mod textbook;

use fractions::{convergent_denominators, lcm};
use qcor_circuit::arith::{bit_width, gcd, mod_pow};
use qcor_pool::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Which period-finding kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Phase estimation with the modular exponentiation applied as a
    /// classical permutation (n + 2n qubits, fast).
    Textbook,
    /// Gate-level Beauregard construction (2n+3 qubits, the paper's
    /// kernel basis).
    Beauregard,
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct ShorConfig {
    /// Shots per kernel invocation (the paper uses 10).
    pub shots: usize,
    /// Maximum random bases to try.
    pub max_attempts: usize,
    /// Kernel choice.
    pub kernel: KernelKind,
    /// Simulator threads for the kernel's state vector.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ShorConfig {
    fn default() -> Self {
        ShorConfig { shots: 10, max_attempts: 16, kernel: KernelKind::Textbook, threads: 1, seed: 0 }
    }
}

/// Result of a successful factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Factors {
    /// The two non-trivial factors, ascending.
    pub p: u64,
    /// Second factor.
    pub q: u64,
    /// The base that produced them (0 when found classically).
    pub base: u64,
    /// The order that produced them (0 when found classically).
    pub order: u64,
}

fn ordered(a: u64, b: u64, base: u64, order: u64) -> Factors {
    Factors { p: a.min(b), q: a.max(b), base, order }
}

/// `SHOR(N, a)` (paper Algorithm 1 lines 10–17): run the kernel, estimate
/// the order, and derive factors. Returns `None` when this base fails.
pub fn shor_attempt(
    n: u64,
    a: u64,
    config: &ShorConfig,
    pool: Arc<ThreadPool>,
    rng: &mut impl Rng,
) -> Option<Factors> {
    let samples = match config.kernel {
        KernelKind::Textbook => textbook::shor_kernel(a, n, config.shots, pool, rng),
        KernelKind::Beauregard => beauregard::shor_kernel(a, n, config.shots, pool, rng),
    };
    let t_bits = 2 * bit_width(n) as u32;
    let order = estimate_order(a, n, &samples, t_bits)?;
    factors_from_order(n, a, order)
}

/// Estimate the multiplicative order of `a` mod `n` from phase samples:
/// continued-fraction denominators of each sample, plus least common
/// multiples of pairs (peaks often reveal only divisors of `r`).
pub fn estimate_order(a: u64, n: u64, samples: &[u64], t_bits: u32) -> Option<u64> {
    let mut candidates: Vec<u64> = Vec::new();
    for &y in samples {
        candidates.extend(convergent_denominators(y, t_bits, n));
    }
    candidates.sort_unstable();
    candidates.dedup();
    // Pairwise LCMs recover r when two samples exposed different divisors.
    let pairwise: Vec<u64> = candidates
        .iter()
        .flat_map(|&x| candidates.iter().map(move |&y| lcm(x, y)))
        .filter(|&v| v > 1 && v <= n)
        .collect();
    candidates.extend(pairwise);
    candidates.sort_unstable();
    candidates.dedup();
    candidates.into_iter().find(|&r| r > 0 && mod_pow(a, r, n) == 1)
}

/// Lines 14–17 of Algorithm 1: derive factors from an order.
pub fn factors_from_order(n: u64, a: u64, r: u64) -> Option<Factors> {
    if r % 2 == 1 {
        return None;
    }
    let half = mod_pow(a, r / 2, n);
    if half == n - 1 {
        // a^{r/2} ≡ −1 (mod N): trivial.
        return None;
    }
    let g1 = gcd(half + 1, n);
    let g2 = gcd(half + n - 1, n); // half − 1 without underflow
    for g in [g1, g2] {
        if g > 1 && g < n {
            return Some(ordered(g, n / g, a, r));
        }
    }
    None
}

/// `MAIN(N)` (paper Algorithm 1): full sequential factorization.
pub fn factorize(n: u64, config: &ShorConfig) -> Option<Factors> {
    if n < 4 {
        return None;
    }
    if n.is_multiple_of(2) {
        return Some(ordered(2, n / 2, 0, 0));
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pool = Arc::new(ThreadPool::new(config.threads));
    for _ in 0..config.max_attempts {
        let a = rng.gen_range(2..n);
        let k = gcd(a, n);
        if k != 1 {
            // Lucky classical hit (Algorithm 1 line 8).
            return Some(ordered(k, n / k, a, 0));
        }
        if let Some(f) = shor_attempt(n, a, config, Arc::clone(&pool), &mut rng) {
            return Some(f);
        }
    }
    None
}

/// Parallel `MAIN(N)` (paper Algorithm 2): launch `tasks` asynchronous
/// `SHOR(N, aₚ)` attempts, each with its own base, simulator pool and RNG
/// stream, and take the first success.
pub fn factorize_parallel(n: u64, config: &ShorConfig, tasks: usize) -> Option<Factors> {
    if n < 4 {
        return None;
    }
    if n.is_multiple_of(2) {
        return Some(ordered(2, n / 2, 0, 0));
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Draw distinct coprime bases up front; duplicates would waste tasks.
    let mut bases = Vec::new();
    let mut guard = 0;
    while bases.len() < tasks && guard < 64 * tasks {
        guard += 1;
        let a = rng.gen_range(2..n);
        if gcd(a, n) != 1 {
            return Some(ordered(gcd(a, n), n / gcd(a, n), a, 0));
        }
        if !bases.contains(&a) {
            bases.push(a);
        }
    }
    // The period-finding fan-out runs as a driver task that spawns one
    // sibling per base and joins them **in-task** — legal because
    // `TaskFuture::wait` is work-conserving (a driver whose attempts are
    // still queued executes them on its own permit instead of parking),
    // so concurrent factorizations cannot exhaust the kernel queue's
    // thread budget.
    let config = config.clone();
    qcor::async_task(move || {
        let futures: Vec<_> = bases
            .into_iter()
            .enumerate()
            .map(|(i, a)| {
                let config = config.clone();
                qcor::async_task(move || {
                    let pool = Arc::new(ThreadPool::new(config.threads));
                    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1 + i as u64));
                    shor_attempt(n, a, &config, pool, &mut rng)
                })
            })
            .collect();
        let mut result = None;
        for f in futures {
            // Joining everything keeps this deterministic; a production
            // driver could cancel the stragglers instead. The error-aware
            // join treats a task cancelled while queued as "no factors from
            // this base" rather than a panic — the remaining attempts still
            // count.
            if let Ok(Some(found)) = f.wait() {
                result.get_or_insert(found);
            }
        }
        result
    })
    .get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_from_order_happy_path() {
        // ord_15(7) = 4: 7² = 49 ≡ 4; gcd(3,15)=3, gcd(5,15)=5.
        let f = factors_from_order(15, 7, 4).unwrap();
        assert_eq!((f.p, f.q), (3, 5));
    }

    #[test]
    fn odd_order_is_rejected() {
        assert!(factors_from_order(15, 7, 3).is_none());
    }

    #[test]
    fn trivial_square_root_is_rejected() {
        // ord_15(14) = 2 and 14 ≡ −1 (mod 15): must be rejected.
        assert!(factors_from_order(15, 14, 2).is_none());
    }

    #[test]
    fn estimate_order_from_ideal_samples() {
        // t = 8, r = 4: peaks 64 (s=1) and 192 (s=3) expose r directly,
        // 128 (s=2) exposes only r=2; the LCM path still recovers 4.
        assert_eq!(estimate_order(7, 15, &[64], 8), Some(4));
        assert_eq!(estimate_order(7, 15, &[128, 192], 8), Some(4));
        assert_eq!(estimate_order(7, 15, &[0], 8), None);
    }

    #[test]
    fn factorize_15_textbook() {
        let f = factorize(15, &ShorConfig { seed: 7, ..Default::default() }).unwrap();
        assert_eq!((f.p, f.q), (3, 5));
    }

    #[test]
    fn factorize_21_textbook() {
        let f = factorize(21, &ShorConfig { seed: 3, shots: 16, ..Default::default() }).unwrap();
        assert_eq!((f.p, f.q), (3, 7));
    }

    #[test]
    fn factorize_15_beauregard() {
        let config = ShorConfig { kernel: KernelKind::Beauregard, shots: 6, seed: 5, ..Default::default() };
        let f = factorize(15, &config).unwrap();
        assert_eq!((f.p, f.q), (3, 5));
    }

    #[test]
    fn even_numbers_shortcut() {
        let f = factorize(22, &ShorConfig::default()).unwrap();
        assert_eq!((f.p, f.q), (2, 11));
    }

    #[test]
    fn tiny_inputs_rejected() {
        assert!(factorize(3, &ShorConfig::default()).is_none());
    }

    #[test]
    fn parallel_factorize_15() {
        let f = factorize_parallel(15, &ShorConfig { seed: 9, ..Default::default() }, 3).unwrap();
        assert!(f.p * f.q == 15 && f.p > 1 && f.q > 1, "{f:?}");
    }
}
