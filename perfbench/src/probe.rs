//! Host-speed probe: a fixed synthetic kernel timed next to every
//! measured cell, so cell times can be reported at a reference host's
//! speed rather than at whatever speed the host had at that moment.
//!
//! On a shared host the same cell's time drifts by up to 2× in phases of
//! seconds to minutes (presumably other tenants contending for the
//! core's caches and memory), so the raw run medians of a set of seeds
//! spread by 13–35% (interquartile range over median). The probe does the two kinds of work the simulator does — the
//! standard-library work of an event loop (an ordered map used as an
//! event calendar, hash-map counters, floating-point `ln`/`exp`, number
//! formatting, sorting) and the byte-table arithmetic of erasure coding
//! — but none of the program's code, so a change to the program never
//! changes the probe, while a slow phase of the host slows both. Of the
//! kernels tried (an ALU loop, pointer chases over 64 KiB to 16 MiB, a
//! binary-heap event loop over 256 KiB to 16 MiB of state, an
//! allocation loop, each half of this kernel alone), this one tracked
//! the slow phases of all three listed workloads best; `NOTES.md` has
//! the numbers.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Seconds one probe takes on the reference host: the baseline host
/// (`NOTES.md`) in its fast phases, when it read 7.1–8.3 ms (the
/// fastest to the 10th percentile of 1500 back-to-back probes, three
/// times over). A host time `t` measured next to a probe time `p` is
/// reported as `t * REFERENCE_PROBE_S / p` reference-host seconds.
pub const REFERENCE_PROBE_S: f64 = 0.008;

/// Iterations of the event-loop half of one probe.
const ITERATIONS: usize = 20_000;
/// Entries the calendar holds before each insert pops the earliest.
const CALENDAR: usize = 2000;
/// Distinct keys of the hash-map counters.
const COUNTERS: u64 = 4096;
/// Values sorted at a time.
const SORT_BATCH: usize = 1024;
/// Rounds of the byte-table half of one probe.
const ROUNDS: usize = 300;
/// Data blocks each round combines into one parity block.
const BLOCKS: usize = 8;
/// Bytes per block.
const BLOCK_BYTES: usize = 1024;

fn lcg(r: u64) -> u64 {
    r.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Runs the kernel once and returns its checksum, the same on every
/// call: every input comes from a fixed-seed LCG and the hash map's
/// hasher has fixed keys.
pub fn kernel() -> u64 {
    event_loop_work() ^ byte_table_work()
}

/// The event-loop half: calendar, counters, float maths, formatting
/// and sorting, all on one LCG stream.
fn event_loop_work() -> u64 {
    let mut calendar = BTreeMap::new();
    let mut counters: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut text = String::new();
    let mut batch = Vec::with_capacity(SORT_BATCH);
    let mut r: u64 = 5;
    let mut acc = 0u64;
    for i in 0..ITERATIONS {
        r = lcg(r);
        calendar.insert(r >> 40, i);
        if calendar.len() > CALENDAR {
            let (key, _) = calendar.pop_first().expect("calendar is non-empty");
            acc ^= key;
        }
        *counters.entry(r % COUNTERS).or_insert(0) += 1;
        let x = ((r >> 11) as f64 * 1e-15 + 1.0).ln().exp();
        text.clear();
        write!(text, "{x:.3}").expect("writing to a String cannot fail");
        acc = acc.wrapping_add(text.len() as u64);
        batch.push(r >> 30);
        if batch.len() == SORT_BATCH {
            batch.sort_unstable();
            acc ^= batch[SORT_BATCH / 2];
            batch.clear();
        }
    }
    acc ^ counters.len() as u64
}

/// The byte-table half: each round maps every byte of every data block
/// through a 256-entry table and XORs the images into a parity block,
/// as a Reed–Solomon encoder's multiply-accumulate does.
fn byte_table_work() -> u64 {
    let table: [u8; 256] = std::array::from_fn(|i| (i * 7 + 3) as u8);
    let mut r: u64 = 11;
    let blocks: Vec<Vec<u8>> = (0..BLOCKS)
        .map(|_| {
            (0..BLOCK_BYTES)
                .map(|_| {
                    r = lcg(r);
                    (r >> 56) as u8
                })
                .collect()
        })
        .collect();
    let mut parity = vec![0u8; BLOCK_BYTES];
    let mut acc = 0u64;
    for round in 0..ROUNDS {
        let coefficient = table[round % 256];
        parity.fill(0);
        for block in &blocks {
            for (p, &x) in parity.iter_mut().zip(block) {
                *p ^= table[usize::from(x ^ coefficient)];
            }
        }
        acc = acc.wrapping_add(u64::from(parity[round % BLOCK_BYTES]));
    }
    acc
}

/// Times [`kernel`] and checks every checksum against the one of the
/// untimed first run.
pub struct HostProbe {
    checksum: u64,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self { checksum: kernel() }
    }
}

impl HostProbe {
    /// Seconds one kernel run takes now. Panics if the kernel's result
    /// ever changes, which would make its timings incomparable.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        let sum = std::hint::black_box(kernel());
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(sum, self.checksum, "the host probe is not deterministic");
        secs
    }
}
