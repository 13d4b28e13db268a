//! Closed-loop benchmark of the IQ-Paths simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <graph-scale|flap-long|wide-fanout|diversity-lossy> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload for one seed, single-threaded, one
//! cell at a time. It first runs the program's own entry point for the
//! same config, then repeats cells for `--seconds` seconds: the first
//! must reproduce the entry point's output and every later one must be
//! bit-identical to the first.
//! `--trace 0` times untraced cells, each between two runs of a fixed
//! host-speed probe, and reports the end-to-end metrics with host times
//! scaled to a reference host's speed; `--trace 1` alternates untraced
//! and traced cells and reports the per-layer metrics, raw host times
//! included. Every metric is printed as `name value unit`, and
//! the last line of standard output is one JSON object. The exit code is
//! non-zero when any correctness check fails. See `NOTES.md`.

mod layers;
mod probe;
#[cfg(test)]
mod tests;
mod workloads;

use iqpaths_trace::StreamCounters;
use layers::{calibrate_timer, LayerStats, LogHist, TimerCost};
use probe::HostProbe;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{entry_point_rendering, mismatch, run_cell, Cell, Kind, Scale};

/// Timed cells a run makes at least, however short `--seconds` is.
const MIN_CELLS: usize = 3;
/// Empty decorated calls the timer cost is calibrated on.
const CALIBRATION_CALLS: usize = 1_000_000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runtime calls attempted and failed, with the reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts `cell`'s runtime calls; a call fails when its metrics do
    /// not conserve packets or its output differs from the reference.
    fn check(&mut self, cell: &Cell, reference: Option<&Cell>, label: &str) {
        for (i, run) in cell.runs.iter().enumerate() {
            self.attempted += 1;
            if !run.report.metrics.conserved() {
                self.fail(format!("{label}: run {i} violates packet conservation"));
            } else if reference.is_some_and(|r| r.runs[i] != *run) {
                self.fail(format!("{label}: run {i} differs from the reference cell"));
            }
        }
        if let Some((split, _)) = &cell.traced {
            if split.routes_differ {
                self.fail(format!("{label}: timed routes differ from compiled routes"));
            }
        }
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Times of one untraced cell, and the host probe's time around it.
/// The end-to-end metrics report them in reference-host seconds, the
/// per-layer `host.*` metrics as measured.
struct CellTimes {
    setup_s: f64,
    run_s: f64,
    cell_s: f64,
    pkts_per_s: f64,
    /// Mean of the probe timed just before and just after the cell
    /// (the first cell: just after).
    probe_s: f64,
}

impl CellTimes {
    fn of(cell: &Cell, probe_s: f64) -> Self {
        assert!(probe_s > 0.0, "the host probe took no time");
        Self {
            setup_s: cell.setup_s,
            run_s: cell.run_s,
            cell_s: cell.cell_s,
            pkts_per_s: cell.delivered() as f64 / cell.run_s,
            probe_s,
        }
    }

    /// Reference-host seconds per host second around this cell: below 1
    /// when the probe ran slower than on the reference host.
    fn to_reference(&self) -> f64 {
        probe::REFERENCE_PROBE_S / self.probe_s
    }
}

fn end_to_end(reference: &Cell, cells: &[CellTimes], peak_rss_mib: f64) -> Metrics {
    let per = |f: fn(&CellTimes) -> f64| median(cells.iter().map(f).collect());
    let (passed, verdicts) = reference.verdicts();
    let (ontime, offered) = reference.ontime();
    vec![
        ("setup_s", per(|c| c.setup_s * c.to_reference()), "s"),
        ("run_s", per(|c| c.run_s * c.to_reference()), "s"),
        ("cell_s", per(|c| c.cell_s * c.to_reference()), "s"),
        (
            "pkts_per_s",
            per(|c| c.pkts_per_s / c.to_reference()),
            "1/s",
        ),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
        (
            "lemma_pass_frac",
            ratio(passed as f64, verdicts as f64),
            "ratio",
        ),
        ("ontime_frac", ratio(ontime as f64, offered as f64), "ratio"),
        ("goodput_mbps", reference.goodput_mbps(), "Mbit/s"),
    ]
}

/// Per-layer seconds of one traced cell. Decorated calls are net of the
/// timer cost inside their window; the runtime's self time is net of all
/// decorator bookkeeping, so the layers add up to an untraced run.
struct TracedTimes {
    route_s: f64,
    gen_s: f64,
    compile_self_s: f64,
    decide_s: f64,
    window_s: f64,
    plan_coding_s: f64,
    arrival_s: f64,
    sink_s: f64,
    self_s: f64,
    check_s: f64,
    run_s: f64,
}

impl TracedTimes {
    fn of(cell: &Cell, cost: TimerCost) -> Self {
        let (split, st) = cell.traced.as_ref().expect("traced cell");
        let net = |h: &LogHist| h.sum_s() - h.count() as f64 * cost.in_window_ns * 1e-9;
        let calls = st.decide.count() + st.window.count() + st.plan_coding.count();
        let calls = calls + st.arrival.count() + st.sink.count();
        let outside_s = calls as f64 * (cost.per_call_ns - cost.in_window_ns) * 1e-9;
        Self {
            route_s: split.route.sum_s(),
            gen_s: split.gen_s,
            compile_self_s: if split.compile_s > 0.0 {
                split.compile_s - split.gen_s - split.route.sum_s()
            } else {
                0.0
            },
            decide_s: net(&st.decide),
            window_s: net(&st.window),
            plan_coding_s: net(&st.plan_coding),
            arrival_s: net(&st.arrival),
            sink_s: net(&st.sink),
            self_s: cell.run_s - st.decorated_s() - st.sink.sum_s() - outside_s,
            check_s: cell.check_s,
            run_s: cell.run_s,
        }
    }
}

/// What the traced cells of a run recorded.
#[derive(Default)]
struct Traced {
    times: Vec<TracedTimes>,
    stats: LayerStats,
    route: LogHist,
}

impl Traced {
    fn add(&mut self, cell: &Cell, cost: TimerCost) {
        let (split, stats) = cell.traced.as_ref().expect("traced cell");
        self.times.push(TracedTimes::of(cell, cost));
        self.stats.merge(stats);
        self.route.merge(&split.route);
    }
}

fn per_layer(
    reference: &Cell,
    untraced: &[CellTimes],
    traced: &Traced,
    cost: TimerCost,
) -> Metrics {
    let timer_ns = cost.in_window_ns;
    let med = |f: fn(&TracedTimes) -> f64| median(traced.times.iter().map(f).collect());
    let (st, route) = (&traced.stats, &traced.route);
    // Counts are per cell: every traced cell makes the same calls, and
    // its reports equal the reference cell's (checked).
    let count = |c: u64| c as f64 / traced.times.len() as f64;
    let net_q = |h: &LogHist, q: f64| (h.quantile_ns(q) - timer_ns).max(0.0);

    let reports = || reference.runs.iter().map(|r| &r.report);
    let streams = || reports().flat_map(|r| &r.metrics.streams);
    let coding = || {
        reports()
            .flat_map(|r| &r.streams)
            .filter_map(|s| s.coding.as_ref())
    };
    let sum = |f: fn(&StreamCounters) -> u64| streams().map(f).sum::<u64>() as f64;
    let events = reports().map(|r| r.events).sum::<u64>() as f64;
    let delivered = sum(|m| m.delivered);
    let enqueued = sum(|m| m.enqueued);
    let (decoded, groups) = coding().fold((0, 0), |(d, g), c| {
        (d + c.groups_decoded, g + c.groups_total)
    });

    let untraced_med = |f: fn(&CellTimes) -> f64| median(untraced.iter().map(f).collect());
    let untraced_setup = untraced_med(|c| c.setup_s);
    let untraced_run = untraced_med(|c| c.run_s);
    let self_s = med(|t| t.self_s);
    let sched_s = med(|t| t.decide_s) + med(|t| t.window_s) + med(|t| t.plan_coding_s);
    let setup_layers = med(|t| t.route_s) + med(|t| t.gen_s) + med(|t| t.compile_self_s);

    let mut m: Metrics = vec![
        ("host.run_s", untraced_run, "s"),
        ("host.cell_s", untraced_med(|c| c.cell_s), "s"),
        ("host.pkts_per_s", untraced_med(|c| c.pkts_per_s), "1/s"),
        ("host.probe_ms", untraced_med(|c| c.probe_s) * 1e3, "ms"),
        ("graph.route_s", med(|t| t.route_s), "s"),
        ("graph.route_calls", count(route.count()), "count"),
        ("graph.route_ms_p50", route.quantile_ns(0.50) * 1e-6, "ms"),
        ("graph.route_ms_p84", route.quantile_ns(0.84) * 1e-6, "ms"),
        ("topology.gen_s", med(|t| t.gen_s), "s"),
        ("manytenant.compile_self_s", med(|t| t.compile_self_s), "s"),
        ("sched.decide_calls", count(st.decide.count()), "count"),
        ("sched.decide_s", med(|t| t.decide_s), "s"),
        ("sched.decide_ns_p50", net_q(&st.decide, 0.50), "ns"),
        ("sched.decide_ns_p99", net_q(&st.decide, 0.99), "ns"),
        (
            "sched.decide_idle_frac",
            ratio(st.decide_idle as f64, st.decide.count() as f64),
            "ratio",
        ),
    ];
    let band_names = [
        "sched.decide_ns_backlog_lt16",
        "sched.decide_ns_backlog_lt256",
        "sched.decide_ns_backlog_lt4096",
        "sched.decide_ns_backlog_ge4096",
    ];
    for (name, &(ns, calls)) in band_names.into_iter().zip(&st.decide_by_backlog) {
        let mean = if calls == 0 {
            0.0
        } else {
            (ns as f64 / calls as f64 - timer_ns).max(0.0)
        };
        m.push((name, mean, "ns"));
    }
    m.extend([
        ("sched.window_calls", count(st.window.count()), "count"),
        ("sched.window_s", med(|t| t.window_s), "s"),
        ("sched.window_us_p50", net_q(&st.window, 0.50) * 1e-3, "us"),
        ("sched.window_us_p90", net_q(&st.window, 0.90) * 1e-3, "us"),
        ("sched.plan_coding_s", med(|t| t.plan_coding_s), "s"),
        (
            "coding.parity_sent",
            coding().map(|c| c.parity_sent).sum::<u64>() as f64,
            "count",
        ),
        (
            "coding.recovered",
            coding().map(|c| c.recovered).sum::<u64>() as f64,
            "count",
        ),
        (
            "coding.decode_frac",
            ratio(decoded as f64, groups as f64),
            "ratio",
        ),
        ("workload.arrival_calls", count(st.arrival.count()), "count"),
        ("workload.arrival_s", med(|t| t.arrival_s), "s"),
        ("runtime.self_s", self_s, "s"),
        ("runtime.sink_s", med(|t| t.sink_s), "s"),
        ("runtime.events", events, "count"),
        ("runtime.ns_per_event", ratio(self_s * 1e9, events), "ns"),
        ("runtime.events_per_pkt", ratio(events, delivered), "ratio"),
        (
            "runtime.probes",
            reference
                .runs
                .iter()
                .flat_map(|r| &r.probe_counts)
                .sum::<u64>() as f64,
            "count",
        ),
        (
            "runtime.blocked_events",
            reports().flat_map(|r| &r.path_blocked_events).sum::<u64>() as f64,
            "count",
        ),
        (
            "runtime.upcalls",
            reports().map(|r| r.upcalls.len()).sum::<usize>() as f64,
            "count",
        ),
        ("pkts.enqueued", enqueued, "count"),
        ("pkts.queue_dropped", sum(|m| m.queue_dropped), "count"),
        ("pkts.delivered", delivered, "count"),
        ("pkts.transit_lost", sum(|m| m.transit_lost), "count"),
        ("pkts.deadline_misses", sum(|m| m.deadline_misses), "count"),
        ("pkts.delivered_frac", ratio(delivered, enqueued), "ratio"),
        ("check.lemma_s", med(|t| t.check_s), "s"),
        ("check.verdicts", reference.verdicts().1 as f64, "count"),
        ("trace.timer_ns", timer_ns, "ns"),
        ("trace.call_ns", cost.per_call_ns, "ns"),
        (
            "trace.overhead_frac",
            med(|t| t.run_s) / untraced_run - 1.0,
            "ratio",
        ),
        ("attrib.setup_rest_s", untraced_setup - setup_layers, "s"),
        (
            "attrib.run_rest_s",
            untraced_run - sched_s - med(|t| t.arrival_s) - med(|t| t.sink_s) - self_s,
            "s",
        ),
    ]);
    m
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (kind, seed) = (args.kind, args.seed);
    let mut tally = Tally::default();

    // The entry point runs first, untimed: it warms the process up and
    // renders what the first measured cell must reproduce. That cell is
    // then the reference every later cell must match bit for bit.
    let expected = entry_point_rendering(kind, seed, Scale::Full);
    let cost = if args.trace {
        calibrate_timer(CALIBRATION_CALLS)
    } else {
        TimerCost::default()
    };

    // Every untraced cell is timed between two runs of the host probe,
    // so its times can be reported relative to the host's speed then.
    // The probe is made after the first cell, once the peak memory of
    // the program (entry point and one cell) has been read.
    let mut probe = None;
    let start = Instant::now();
    let mut reference: Option<Cell> = None;
    let mut untraced = Vec::new();
    let mut traced = Traced::default();
    let mut peak_rss = None;
    let mut probe_before = None;
    while untraced.len() < MIN_CELLS || start.elapsed().as_secs_f64() < args.seconds {
        let cell = run_cell(kind, seed, Scale::Full, false);
        peak_rss.get_or_insert_with(peak_rss_mib);
        let probe = probe.get_or_insert_with(HostProbe::default);
        let probe_after = probe.time();
        tally.check(&cell, reference.as_ref(), "untraced");
        let probe_s = probe_before.map_or(probe_after, |b| (b + probe_after) / 2.0);
        let times = CellTimes::of(&cell, probe_s);
        probe_before = Some(probe_after);
        eprintln!(
            "cell {}: setup {:.4} s, run {:.4} s, cell {:.4} s, probe {:.4} s",
            untraced.len(),
            times.setup_s,
            times.run_s,
            times.cell_s,
            times.probe_s
        );
        untraced.push(times);
        if reference.is_none() {
            if let Some(diff) = cell
                .rendering()
                .zip(expected.as_deref())
                .and_then(|(ours, entry)| mismatch(&ours, entry))
            {
                tally.failed += cell.runs.len() as u64;
                tally.problems.push(format!(
                    "composed cell disagrees with the entry point: {diff}"
                ));
            }
            reference = Some(cell);
        }
        if args.trace {
            let cell = run_cell(kind, seed, Scale::Full, true);
            tally.check(&cell, reference.as_ref(), "traced");
            traced.add(&cell, cost);
            probe_before = Some(probe.time());
        }
    }
    let reference = reference.expect("the loop runs at least one cell");

    let metrics = if args.trace {
        per_layer(&reference, &untraced, &traced, cost)
    } else {
        end_to_end(
            &reference,
            &untraced,
            peak_rss.expect("the loop runs a cell"),
        )
    };
    for p in &tally.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!(
        "# {} seed={seed} trace={} cells={}",
        kind.name(),
        u8::from(args.trace),
        untraced.len() + traced.times.len()
    );
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let correct = tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
