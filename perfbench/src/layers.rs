//! Outside-in layer timing: decorators around the program's two
//! runtime-facing traits, a bounded-memory latency summary, and the
//! calibration of the timer itself.
//!
//! Nothing here reaches inside the program. [`TimedScheduler`] and
//! [`TimedWorkload`] forward every trait method — default-bodied ones
//! included — to the wrapped object and only time the calls the runtime
//! makes, so a wrapped run produces the same `RunReport` as an unwrapped
//! one (checked on every traced cell and by the crate's tests).

use iqpaths_apps::workload::{Arrival, Workload};
use iqpaths_core::coding::StreamCoding;
use iqpaths_core::mapping::Upcall;
use iqpaths_core::queues::{QueuedPacket, StreamQueues};
use iqpaths_core::stream::StreamSpec;
use iqpaths_core::traits::{MultipathScheduler, PathSnapshot};
use iqpaths_trace::TraceHandle;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Log-linear histogram of nanosecond durations: exact below 64 ns,
/// then 32 sub-buckets per power of two (≤ 3.2% relative error). Memory
/// is fixed (2 KiB of counters) however many calls it records — the
/// bounded-memory alternative to a per-call sample vector, in the spirit
/// of the incremental-quantile monitoring of Chambers et al.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
}

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const LINEAR: u64 = 64;
const BUCKETS: usize = LINEAR as usize + (64 - 6) * SUB;

impl Default for LogHist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
        }
    }
}

impl LogHist {
    fn bucket(ns: u64) -> usize {
        if ns < LINEAR {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) as usize & (SUB - 1);
        LINEAR as usize + (exp as usize - 6) * SUB + sub
    }

    /// Lower edge of bucket `b` in nanoseconds.
    fn floor(b: usize) -> u64 {
        if b < LINEAR as usize {
            return b as u64;
        }
        let exp = (b - LINEAR as usize) / SUB + 6;
        let sub = ((b - LINEAR as usize) % SUB) as u64;
        (1u64 << exp) + (sub << (exp as u32 - SUB_BITS))
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
    }

    /// Recorded durations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of recorded durations in seconds.
    pub fn sum_s(&self) -> f64 {
        self.sum_ns as f64 * 1e-9
    }

    /// The `q`-quantile in nanoseconds (bucket midpoint; 0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = Self::floor(b) as f64;
                let hi = Self::floor(b + 1) as f64;
                return (lo + hi) / 2.0;
            }
        }
        unreachable!("rank is at most the total count")
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }
}

/// Upper edges (exclusive) of the queued-packet bands the decision cost
/// is split by; the last band is open.
pub const BACKLOG_BANDS: [usize; 3] = [16, 256, 4096];

/// Everything the decorators record during traced runs.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// `next_packet` durations.
    pub decide: LogHist,
    /// `next_packet` calls that returned `None`.
    pub decide_idle: u64,
    /// Decision time and calls per queued-packet band
    /// ([`BACKLOG_BANDS`]).
    pub decide_by_backlog: [(u128, u64); BACKLOG_BANDS.len() + 1],
    /// `on_window_start` durations.
    pub window: LogHist,
    /// `plan_coding` durations.
    pub plan_coding: LogHist,
    /// `next_arrival` durations.
    pub arrival: LogHist,
    /// Delivery-sink durations.
    pub sink: LogHist,
}

impl LayerStats {
    /// Raw seconds inside decorated calls (sink excluded).
    pub fn decorated_s(&self) -> f64 {
        self.decide.sum_s() + self.window.sum_s() + self.plan_coding.sum_s() + self.arrival.sum_s()
    }

    /// Adds another recording into this one.
    pub fn merge(&mut self, other: &LayerStats) {
        self.decide.merge(&other.decide);
        self.decide_idle += other.decide_idle;
        for (a, b) in self
            .decide_by_backlog
            .iter_mut()
            .zip(&other.decide_by_backlog)
        {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.window.merge(&other.window);
        self.plan_coding.merge(&other.plan_coding);
        self.arrival.merge(&other.arrival);
        self.sink.merge(&other.sink);
    }
}

/// Shared recording handle of one traced runtime call.
pub type Probe = Rc<RefCell<LayerStats>>;

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Times a [`MultipathScheduler`]'s decision, window-start and
/// coding-plan calls; forwards everything else untouched.
pub struct TimedScheduler {
    inner: Box<dyn MultipathScheduler>,
    probe: Probe,
}

impl TimedScheduler {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: Box<dyn MultipathScheduler>, probe: Probe) -> Self {
        Self { inner, probe }
    }
}

impl MultipathScheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn specs(&self) -> &[StreamSpec] {
        self.inner.specs()
    }

    fn on_window_start(&mut self, window_start_ns: u64, window_ns: u64, paths: &[PathSnapshot]) {
        let t0 = Instant::now();
        self.inner
            .on_window_start(window_start_ns, window_ns, paths);
        let ns = elapsed_ns(t0);
        self.probe.borrow_mut().window.record(ns);
    }

    fn next_packet(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &mut StreamQueues,
    ) -> Option<QueuedPacket> {
        let backlog = queues.total_len();
        let t0 = Instant::now();
        let pkt = self.inner.next_packet(path, now_ns, queues);
        let ns = elapsed_ns(t0);
        let mut p = self.probe.borrow_mut();
        p.decide.record(ns);
        if pkt.is_none() {
            p.decide_idle += 1;
        }
        let band = BACKLOG_BANDS
            .iter()
            .position(|&edge| backlog < edge)
            .unwrap_or(BACKLOG_BANDS.len());
        p.decide_by_backlog[band].0 += u128::from(ns);
        p.decide_by_backlog[band].1 += 1;
        pkt
    }

    fn next_batch(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &mut StreamQueues,
        max: usize,
        out: &mut Vec<QueuedPacket>,
    ) -> usize {
        self.inner.next_batch(path, now_ns, queues, max, out)
    }

    fn on_path_blocked(&mut self, path: usize, now_ns: u64) {
        self.inner.on_path_blocked(path, now_ns);
    }

    fn uses_path(&self, path: usize) -> bool {
        self.inner.uses_path(path)
    }

    fn drain_upcalls(&mut self) -> Vec<Upcall> {
        self.inner.drain_upcalls()
    }

    fn set_trace(&mut self, trace: TraceHandle) {
        self.inner.set_trace(trace);
    }

    fn plan_coding(
        &mut self,
        snapshots: &[PathSnapshot],
        incidence: &[Vec<u64>],
        now_ns: u64,
    ) -> Vec<StreamCoding> {
        let t0 = Instant::now();
        let plans = self.inner.plan_coding(snapshots, incidence, now_ns);
        let ns = elapsed_ns(t0);
        self.probe.borrow_mut().plan_coding.record(ns);
        plans
    }
}

/// Times a [`Workload`]'s arrival generation.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    probe: Probe,
}

impl TimedWorkload {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: Box<dyn Workload>, probe: Probe) -> Self {
        Self { inner, probe }
    }
}

impl Workload for TimedWorkload {
    fn specs(&self) -> &[StreamSpec] {
        self.inner.specs()
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let t0 = Instant::now();
        let a = self.inner.next_arrival();
        let ns = elapsed_ns(t0);
        self.probe.borrow_mut().arrival.record(ns);
        a
    }
}

/// A scheduler that never schedules: the empty call the timer is
/// calibrated on.
struct Idle(Vec<StreamSpec>);

impl MultipathScheduler for Idle {
    fn name(&self) -> &str {
        "idle"
    }

    fn specs(&self) -> &[StreamSpec] {
        &self.0
    }

    fn on_window_start(&mut self, _: u64, _: u64, _: &[PathSnapshot]) {}

    fn next_packet(&mut self, _: usize, _: u64, _: &mut StreamQueues) -> Option<QueuedPacket> {
        None
    }
}

/// What the decorators cost per call, from empty decorated calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimerCost {
    /// Median duration recorded for an empty call: what every recorded
    /// duration carries on top of the real work.
    pub in_window_ns: f64,
    /// Mean wall time of a whole empty decorated call, bookkeeping
    /// outside the timed window included: what tracing adds per call.
    pub per_call_ns: f64,
}

/// Measures [`TimerCost`] over `calls` empty decorated calls.
pub fn calibrate_timer(calls: usize) -> TimerCost {
    let probe = Probe::default();
    let mut sched: Box<dyn MultipathScheduler> = Box::new(TimedScheduler::new(
        Box::new(Idle(Vec::new())),
        probe.clone(),
    ));
    let mut queues = StreamQueues::new(1, 1);
    let t0 = Instant::now();
    for i in 0..calls {
        std::hint::black_box(sched.next_packet(0, i as u64, &mut queues));
    }
    let per_call_ns = elapsed_ns(t0) as f64 / calls as f64;
    let in_window_ns = probe.borrow().decide.quantile_ns(0.5);
    TimerCost {
        in_window_ns,
        per_call_ns,
    }
}
