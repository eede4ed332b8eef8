//! Process-level shot sharding: partition one run's chunk schedule across
//! OS processes and merge the counts byte-identically.
//!
//! The batched shot scheduler ([`crate::executor`]) already partitions a
//! run into chunks whose RNG streams derive from
//! [`crate::executor::derive_stream_seed`]`(seed, chunk_index)`. This
//! module extends that
//! partition one level up: shard `s` of `p` owns exactly the chunks with
//! `chunk_index % p == s` of the **same** [`ShotPlan`] — the plan is a
//! pure function of `(circuit, config)`, never of the process count — so
//! every shard draws the very streams a single-process run would have
//! drawn for those chunks, and summing the per-shard counts reproduces the
//! single-process [`run_shots`](crate::run_shots) counts byte-for-byte.
//! Shard `s`'s first chunk is chunk `s`, whose stream is
//! `derive_stream_seed(seed, s)`: shards derive from `(seed, shard)`
//! exactly like chunks derive from `(seed, chunk)`.
//!
//! Two drivers share that contract:
//!
//! * [`run_sharded`] — in-process reference driver: runs every shard's
//!   owned chunks on the calling process, one shard after another. This is
//!   the oracle the property tests compare [`run_sharded_spawn`] against.
//! * [`run_sharded_spawn`] — the real driver: re-executes the **current
//!   executable** once per shard (`std::env::current_exe()`), handing each
//!   child its shard assignment and the run parameters through the
//!   `QCOR_SHARD_*` environment protocol and the circuit through a
//!   temporary file in [`qcor_circuit::wire`] format. Children write their
//!   merged counts as `count bitstring` text lines; the parent sums them.
//!
//! **Spawn-self contract**: a binary that calls [`run_sharded_spawn`] MUST
//! call [`maybe_shard_worker`] first thing in `main` and return when it
//! yields `true` — that is the hook through which the re-executed process
//! becomes a shard worker instead of re-running `main`. Never call
//! [`run_sharded_spawn`] from a `#[test]`: the libtest harness would re-run
//! the whole test binary per shard.
//!
//! **What a shard worker inherits**: knob defaults travel through the
//! environment (children inherit `QCOR_NUM_THREADS`, `QCOR_GATE_FUSION`,
//! `QCOR_COMPILE_CACHE`, `QCOR_AMP_SHARDS`, …), and the wire protocol
//! forwards `shots`, `seed`, `chunk_shots` and the granularity — the parts
//! of [`RunConfig`] that shape the chunk partition. Config-level
//! *overrides* of the remaining knobs (a `RunConfig` with `fusion: Some(..)`
//! etc.) are **not** forwarded; set the corresponding environment variable
//! when spawning shards. Amplitudes and RNG draws are knob-invariant, so
//! merged counts are unaffected either way.

use crate::executor::{run_shots_owned, Counts, Granularity, RunConfig, ShotPlan};
use qcor_circuit::Circuit;
use qcor_pool::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// [`run_sharded_spawn`] calls made by this process; numbers the temp files.
static SPAWN_RUNS: AtomicU64 = AtomicU64::new(0);

/// Environment variable through which [`run_sharded_spawn`] marks a child
/// process as shard worker `s/p`. Present in a process iff it was spawned
/// as a shard; [`maybe_shard_worker`] keys off it.
pub const SHARD_WORKER_ENV: &str = "QCOR_SHARD_WORKER";

// Worker wire protocol: circuit in, counts out, and the RunConfig fields
// that shape the chunk partition.
const SHARD_IN_ENV: &str = "QCOR_SHARD_IN";
const SHARD_OUT_ENV: &str = "QCOR_SHARD_OUT";
const SHARD_SHOTS_ENV: &str = "QCOR_SHARD_SHOTS";
const SHARD_SEED_ENV: &str = "QCOR_SHARD_SEED";
const SHARD_CHUNK_ENV: &str = "QCOR_SHARD_CHUNK";
const SHARD_GRAN_ENV: &str = "QCOR_SHARD_GRAN";

/// Run the chunks shard `shard` of `procs` owns, against the plan the
/// full run would use. `config.seed` must be pinned (`Some`) for the
/// shards' counts to merge deterministically — [`run_sharded`] and the
/// spawn driver pin it before fanning out.
pub fn run_shard(
    circuit: &Circuit,
    pool: Arc<ThreadPool>,
    config: &RunConfig,
    shard: usize,
    procs: usize,
) -> Counts {
    let plan = ShotPlan::for_circuit(circuit, config);
    run_shots_owned(circuit, pool, config, &plan, shard, procs)
}

/// In-process reference driver: execute every shard's owned chunks on the
/// calling process (one shard after another, all on `pool`) and merge the
/// counts. Byte-identical to single-process [`run_shots`](crate::run_shots)
/// with the same config, and to what [`run_sharded_spawn`] assembles from
/// `procs` child processes — this is the oracle the property tests compare
/// against.
pub fn run_sharded(circuit: &Circuit, pool: Arc<ThreadPool>, config: &RunConfig, procs: usize) -> Counts {
    assert!(procs >= 1, "process count must be at least 1");
    // Pin the seed once so every shard derives from the same base — the
    // same resolution a single run performs.
    let mut config = config.clone();
    if config.seed.is_none() {
        config.seed = Some(StdRng::from_entropy().gen());
    }
    let mut merged = Counts::new();
    for shard in 0..procs {
        for (bits, n) in run_shard(circuit, Arc::clone(&pool), &config, shard, procs) {
            *merged.entry(bits).or_insert(0) += n;
        }
    }
    merged
}

fn granularity_token(g: Granularity) -> &'static str {
    match g {
        Granularity::Auto => "auto",
        Granularity::Sequential => "seq",
    }
}

/// Serialize counts as `count bitstring` lines (the bitstring may be
/// empty for measurement-free circuits, hence count-first).
fn encode_counts(counts: &Counts) -> String {
    let mut out = String::new();
    for (bits, n) in counts {
        out.push_str(&format!("{n} {bits}\n"));
    }
    out
}

fn decode_counts(text: &str) -> Result<Counts, String> {
    let mut counts = Counts::new();
    for line in text.lines() {
        let (n, bits) = line.split_once(' ').ok_or_else(|| format!("malformed counts line {line:?}"))?;
        let n: usize = n.parse().map_err(|_| format!("malformed count in line {line:?}"))?;
        *counts.entry(bits.to_string()).or_insert(0) += n;
    }
    Ok(counts)
}

/// Process-level driver: spawn the current executable once per shard and
/// merge the children's counts. See the module docs for the spawn-self
/// contract — the calling binary must route re-executions through
/// [`maybe_shard_worker`] at the top of `main`.
///
/// Shard workers build their pool from the inherited `QCOR_NUM_THREADS`,
/// so `p` shards × `QCOR_NUM_THREADS` threads is the total footprint.
/// Returns an error if spawning fails or any shard exits unsuccessfully.
pub fn run_sharded_spawn(circuit: &Circuit, config: &RunConfig, procs: usize) -> std::io::Result<Counts> {
    use std::io::{Error, ErrorKind};
    assert!(procs >= 1, "process count must be at least 1");
    let mut config = config.clone();
    let seed = match config.seed {
        Some(s) => s,
        None => StdRng::from_entropy().gen(),
    };
    config.seed = Some(seed);

    let exe = std::env::current_exe()?;
    let dir = std::env::temp_dir();
    // pid + a per-process run number: concurrent spawns in one process
    // (even at the same seed) never share a circuit or counts file.
    let run = format!("{}-{}", std::process::id(), SPAWN_RUNS.fetch_add(1, Ordering::Relaxed));
    let in_path = dir.join(format!("qcor-shard-{run}-circuit.bin"));
    std::fs::write(&in_path, qcor_circuit::wire::encode(circuit))?;

    let mut children = Vec::with_capacity(procs);
    let mut spawn_err = None;
    for shard in 0..procs {
        let out_path = dir.join(format!("qcor-shard-{run}-{shard}.counts"));
        let mut cmd = std::process::Command::new(&exe);
        cmd.env(SHARD_WORKER_ENV, format!("{shard}/{procs}"))
            .env(SHARD_IN_ENV, &in_path)
            .env(SHARD_OUT_ENV, &out_path)
            .env(SHARD_SHOTS_ENV, config.shots.to_string())
            .env(SHARD_SEED_ENV, seed.to_string())
            .env(SHARD_GRAN_ENV, granularity_token(config.granularity));
        match config.chunk_shots {
            Some(k) => {
                cmd.env(SHARD_CHUNK_ENV, k.to_string());
            }
            None => {
                cmd.env_remove(SHARD_CHUNK_ENV);
            }
        }
        match cmd.spawn() {
            Ok(child) => children.push((shard, child, out_path)),
            Err(e) => {
                spawn_err = Some(e);
                break;
            }
        }
    }

    let mut merged = Counts::new();
    let mut shard_err = None;
    for (shard, mut child, out_path) in children {
        let status = child.wait()?;
        if !status.success() {
            shard_err.get_or_insert_with(|| {
                Error::other(format!("shard worker {shard}/{procs} failed: {status}"))
            });
            continue;
        }
        let text = std::fs::read_to_string(&out_path)?;
        let _ = std::fs::remove_file(&out_path);
        match decode_counts(&text) {
            Ok(counts) => {
                for (bits, n) in counts {
                    *merged.entry(bits).or_insert(0) += n;
                }
            }
            Err(e) => {
                shard_err.get_or_insert_with(|| Error::new(ErrorKind::InvalidData, e));
            }
        }
    }
    let _ = std::fs::remove_file(&in_path);
    if let Some(e) = spawn_err.or(shard_err) {
        return Err(e);
    }
    Ok(merged)
}

/// Shard-worker hook: when this process was spawned by
/// [`run_sharded_spawn`] (the [`SHARD_WORKER_ENV`] marker is present),
/// run the owned chunks, write the counts file, and return `true` — the
/// caller must then return from `main` immediately. Returns `false` in a
/// normal process. Panics (→ non-zero exit, surfaced by the parent) on a
/// malformed protocol environment.
pub fn maybe_shard_worker() -> bool {
    let Ok(spec) = std::env::var(SHARD_WORKER_ENV) else {
        return false;
    };
    let (shard, procs) = spec
        .split_once('/')
        .and_then(|(s, p)| Some((s.parse::<usize>().ok()?, p.parse::<usize>().ok()?)))
        .filter(|&(s, p)| p >= 1 && s < p)
        .unwrap_or_else(|| panic!("malformed {SHARD_WORKER_ENV} value {spec:?}: expected shard/procs"));
    let read_env =
        |key: &str| std::env::var(key).unwrap_or_else(|_| panic!("shard worker {spec}: missing {key}"));
    let in_path = read_env(SHARD_IN_ENV);
    let out_path = read_env(SHARD_OUT_ENV);
    let shots: usize = read_env(SHARD_SHOTS_ENV)
        .parse()
        .unwrap_or_else(|_| panic!("shard worker {spec}: malformed {SHARD_SHOTS_ENV}"));
    let seed: u64 = read_env(SHARD_SEED_ENV)
        .parse()
        .unwrap_or_else(|_| panic!("shard worker {spec}: malformed {SHARD_SEED_ENV}"));
    let granularity = match read_env(SHARD_GRAN_ENV).as_str() {
        "auto" => Granularity::Auto,
        "seq" => Granularity::Sequential,
        other => panic!("shard worker {spec}: malformed {SHARD_GRAN_ENV} value {other:?}"),
    };
    let chunk_shots = std::env::var(SHARD_CHUNK_ENV).ok().map(|v| {
        v.parse::<usize>().unwrap_or_else(|_| panic!("shard worker {spec}: malformed {SHARD_CHUNK_ENV}"))
    });
    let bytes = std::fs::read(&in_path)
        .unwrap_or_else(|e| panic!("shard worker {spec}: cannot read circuit {in_path:?}: {e}"));
    let circuit = qcor_circuit::wire::decode(&bytes)
        .unwrap_or_else(|e| panic!("shard worker {spec}: cannot decode circuit: {e:?}"));
    let config = RunConfig { shots, seed: Some(seed), chunk_shots, granularity, ..Default::default() };
    let pool = Arc::new(ThreadPool::new(qcor_pool::num_threads_from_env()));
    let counts = run_shard(&circuit, pool, &config, shard, procs);
    std::fs::write(&out_path, encode_counts(&counts))
        .unwrap_or_else(|e| panic!("shard worker {spec}: cannot write counts {out_path:?}: {e}"));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{derive_stream_seed, run_shots};
    use qcor_circuit::library;

    fn pool() -> Arc<ThreadPool> {
        Arc::new(ThreadPool::new(1))
    }

    #[test]
    fn sharded_counts_match_single_process_run() {
        let circuit = library::ghz_kernel(3);
        let config = RunConfig { shots: 300, seed: Some(17), chunk_shots: Some(16), ..Default::default() };
        let single = run_shots(&circuit, pool(), &config);
        for procs in [1, 2, 3, 5, 64] {
            let merged = run_sharded(&circuit, pool(), &config, procs);
            assert_eq!(merged, single, "procs={procs}");
        }
    }

    #[test]
    fn sharded_counts_match_on_inner_parallel_plans() {
        // A 15-qubit circuit plans as one inner-parallel work item; the
        // owner filter forces the chunk path, which must still reproduce
        // the inner-parallel counts (chunk 0 keeps the base seed).
        let mut circuit = qcor_circuit::Circuit::new(15);
        for q in 0..15 {
            circuit.h(q);
        }
        circuit.measure_all();
        let config = RunConfig { shots: 6, seed: Some(5), ..Default::default() };
        assert!(ShotPlan::for_circuit(&circuit, &config).inner_parallel());
        let single = run_shots(&circuit, pool(), &config);
        let merged = run_sharded(&circuit, pool(), &config, 3);
        assert_eq!(merged, single);
    }

    #[test]
    fn shard_zero_of_one_is_the_whole_run() {
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 64, seed: Some(9), ..Default::default() };
        let whole = run_shard(&circuit, pool(), &config, 0, 1);
        assert_eq!(whole, run_shots(&circuit, pool(), &config));
    }

    #[test]
    fn shards_partition_the_chunk_schedule() {
        // Each shard's count total must equal the shots of the chunks it
        // owns — chunk c belongs to shard c % procs.
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 100, seed: Some(3), chunk_shots: Some(7), ..Default::default() };
        let plan = ShotPlan::for_circuit(&circuit, &config);
        let procs = 3;
        for shard in 0..procs {
            let owned_shots: usize = plan
                .chunks()
                .enumerate()
                .filter(|(c, _)| c % procs == shard)
                .map(|(_, span)| span.len())
                .sum();
            let counts = run_shard(&circuit, pool(), &config, shard, procs);
            assert_eq!(counts.values().sum::<usize>(), owned_shots, "shard={shard}");
        }
    }

    #[test]
    fn first_owned_chunk_derives_from_seed_and_shard() {
        // The (seed, shard) contract: shard s's first chunk is chunk s,
        // so its RNG stream is derive_stream_seed(seed, s) — verified by
        // reproducing the shard's leading chunk as a standalone run.
        let circuit = library::ghz_kernel(4);
        let base = 23u64;
        let chunk = 8usize;
        let procs = 4;
        let config = RunConfig {
            shots: chunk * procs, // one chunk per shard
            seed: Some(base),
            chunk_shots: Some(chunk),
            ..Default::default()
        };
        for shard in 0..procs {
            let got = run_shard(&circuit, pool(), &config, shard, procs);
            let replay_cfg = RunConfig {
                shots: chunk,
                seed: Some(derive_stream_seed(base, shard)),
                chunk_shots: Some(chunk),
                ..Default::default()
            };
            let expect = run_shots(&circuit, pool(), &replay_cfg);
            assert_eq!(got, expect, "shard={shard}");
        }
    }

    #[test]
    fn counts_wire_format_round_trips() {
        let mut counts = Counts::new();
        counts.insert("0110".to_string(), 12);
        counts.insert(String::new(), 3); // measurement-free circuit
        counts.insert("1".to_string(), 1);
        assert_eq!(decode_counts(&encode_counts(&counts)).unwrap(), counts);
        assert!(decode_counts("12\n").is_err());
        assert!(decode_counts("x 01\n").is_err());
        assert_eq!(decode_counts("").unwrap(), Counts::new());
    }

    #[test]
    fn worker_hook_is_inert_without_the_marker() {
        assert!(!maybe_shard_worker());
    }
}
