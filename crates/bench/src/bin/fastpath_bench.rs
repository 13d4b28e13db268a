//! Fast-path micro-benchmark for the zero-alloc scheduling refactor:
//! per-decision cost of the PGOS hot path with and without batched
//! dispatch (`next_packet` vs `next_batch`; the batched form hoists the
//! backoff gate and index sync out of the per-packet loop). The
//! scheduler's three fallback classes (`wheel`, `behind`, `unsched`)
//! are all backed by `core::fastpath::Heap4`.
//!
//! All workloads are seeded and deterministic; only the wall-clock
//! numbers vary by machine. End-to-end throughput (including the
//! legacy comparison and the CI gate) lives in the harness
//! `sched_throughput` sweep — this binary is for drilling into the
//! decision loop itself.

use std::time::Instant;

use iqpaths_core::queues::{QueuedPacket, StreamQueues};
use iqpaths_core::scheduler::{Pgos, PgosConfig};
use iqpaths_core::stream::StreamSpec;
use iqpaths_core::traits::{MultipathScheduler, PathSnapshot};
use iqpaths_simnet::fault::splitmix64;
use iqpaths_stats::{CdfSummary, EmpiricalCdf};

/// Decisions per measured configuration.
const DECISIONS: u64 = 250_000;

fn pgos_fixture(
    streams: usize,
    paths: usize,
    seed: u64,
) -> (Pgos, StreamQueues, Vec<PathSnapshot>) {
    let specs: Vec<StreamSpec> = (0..streams)
        .map(|i| {
            if i % 4 == 0 {
                StreamSpec::probabilistic(i, format!("s{i}"), 80_000.0, 0.9, 1250)
            } else {
                StreamSpec::best_effort(i, format!("s{i}"), 2.0e6, 1250)
            }
        })
        .collect();
    let guaranteed = streams.div_ceil(4) as f64 * 80_000.0;
    let snapshots: Vec<PathSnapshot> = (0..paths)
        .map(|j| {
            let jitter = 0.95 + (splitmix64(seed ^ (j as u64 + 17)) % 1000) as f64 / 1.0e4;
            let cap = (4.0 * guaranteed / paths as f64 + 4.0e6) * jitter;
            let cdf = EmpiricalCdf::from_clean_samples(
                (0..16)
                    .map(|k| cap * (0.95 + 0.1 * k as f64 / 15.0))
                    .collect(),
            );
            PathSnapshot::from_summary(j, CdfSummary::exact(cdf))
        })
        .collect();
    let pgos = Pgos::new(PgosConfig::default(), specs, paths);
    let queues = StreamQueues::with_pool_capacity(streams, 64, streams * 8);
    (pgos, queues, snapshots)
}

/// Drives one window repeatedly; `batched` switches between the
/// per-packet entry point and `next_batch`.
fn bench_pgos(streams: usize, paths: usize, seed: u64, batched: bool) -> f64 {
    let (mut pgos, mut queues, snapshots) = pgos_fixture(streams, paths, seed);
    let window_ns = 1_000_000_000u64;
    let mut out: Vec<QueuedPacket> = Vec::with_capacity(256);
    let (mut decisions, mut w) = (0u64, 0u64);
    let t0 = Instant::now();
    while decisions < DECISIONS {
        let ws = w * window_ns;
        w += 1;
        pgos.on_window_start(ws, window_ns, &snapshots);
        let mut pushed = 0u64;
        for i in 0..streams {
            let burst = if i % 4 == 0 {
                8
            } else {
                1 + splitmix64(seed ^ (w << 24) ^ i as u64) % 4
            };
            for _ in 0..burst {
                queues.push(i, 1250, ws);
                pushed += 1;
            }
        }
        let batch = (pushed / (4 * paths as u64) + 2) as usize;
        for sub in 0..4u64 {
            let now = ws + sub * (window_ns / 4) + 1;
            for j in 0..paths {
                if batched {
                    out.clear();
                    decisions += pgos.next_batch(j, now, &mut queues, batch, &mut out) as u64;
                } else {
                    for _ in 0..batch {
                        if pgos.next_packet(j, now, &mut queues).is_none() {
                            break;
                        }
                        decisions += 1;
                    }
                }
            }
        }
    }
    decisions as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let seed = iqpaths_bench::seed();
    println!("Fast-path micro-benchmark (seed {seed})\n");

    println!("PGOS decision loop (decisions/sec):");
    println!(
        "{:>8} {:>6} {:>14} {:>14} {:>8}",
        "streams", "paths", "next_packet", "next_batch", "ratio"
    );
    for &(s, p) in &[(100usize, 8usize), (1_000, 8), (1_000, 32)] {
        let single = bench_pgos(s, p, seed, false);
        let batch = bench_pgos(s, p, seed, true);
        println!(
            "{s:>8} {p:>6} {single:>14.0} {batch:>14.0} {:>7.2}x",
            batch / single
        );
    }
}
