//! The benchmark's own checks: decorators are transparent, composed
//! cells agree with the program's entry points, the latency summary
//! answers quantiles within its stated error, and the host probe always
//! does the same work.

use crate::layers::{LogHist, Probe, TimedScheduler, TimedWorkload};
use crate::workloads::{entry_point_rendering, run_cell, Kind, Scale};
use iqpaths_apps::workload::{FramedSource, Workload};
use iqpaths_core::coding::StreamCoding;
use iqpaths_core::mapping::Upcall;
use iqpaths_core::queues::{QueuedPacket, StreamQueues};
use iqpaths_core::stream::StreamSpec;
use iqpaths_core::traits::{MultipathScheduler, PathSnapshot};
use iqpaths_trace::TraceHandle;
use std::cell::RefCell;
use std::rc::Rc;

const SEED: u64 = 7;

#[test]
fn wrapped_and_unwrapped_runs_are_identical_on_every_workload() {
    for kind in Kind::ALL {
        let plain = run_cell(kind, SEED, Scale::Small, false);
        let timed = run_cell(kind, SEED, Scale::Small, true);
        assert!(!plain.runs.is_empty(), "{}", kind.name());
        // Report (events, per-stream counters, Metrics, upcalls), probe
        // counts, delivery digest and lemma verdicts, bit for bit.
        assert!(
            plain.runs == timed.runs,
            "{}: decorators changed the run",
            kind.name()
        );
        let (_, stats) = timed.traced.as_ref().expect("traced cell");
        assert!(stats.decide.count() > 0 && stats.arrival.count() > 0);
        assert!(stats.window.count() > 0 && stats.plan_coding.count() > 0);
    }
}

#[test]
fn composed_cells_agree_with_the_entry_points() {
    for kind in Kind::ALL {
        let cell = run_cell(kind, SEED, Scale::Small, false);
        let entry = entry_point_rendering(kind, SEED, Scale::Small);
        assert_eq!(cell.rendering(), entry, "{}", kind.name());
        assert_eq!(entry.is_none(), kind == Kind::WideFanout);
        assert!(cell.runs.iter().all(|r| r.report.metrics.conserved()));
    }
}

#[test]
fn traced_graph_scale_times_the_compiled_routes() {
    let cell = run_cell(Kind::GraphScale, SEED, Scale::Small, true);
    let (split, _) = cell.traced.as_ref().expect("traced cell");
    assert!(!split.routes_differ);
    assert_eq!(split.route.count(), cell.runs.len() as u64);
    assert!(split.compile_s > 0.0 && split.gen_s > 0.0);
}

/// Records which default-bodied trait methods reached it.
#[derive(Default)]
struct Calls {
    blocked: Vec<(usize, u64)>,
    traced: bool,
    planned: usize,
    batched: usize,
}

struct Recorder {
    specs: Vec<StreamSpec>,
    calls: Rc<RefCell<Calls>>,
}

impl MultipathScheduler for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }

    fn specs(&self) -> &[StreamSpec] {
        &self.specs
    }

    fn on_window_start(&mut self, _: u64, _: u64, _: &[PathSnapshot]) {}

    fn next_packet(&mut self, _: usize, _: u64, q: &mut StreamQueues) -> Option<QueuedPacket> {
        q.pop(0)
    }

    fn next_batch(
        &mut self,
        _: usize,
        _: u64,
        _: &mut StreamQueues,
        max: usize,
        _: &mut Vec<QueuedPacket>,
    ) -> usize {
        self.calls.borrow_mut().batched += max;
        max
    }

    fn on_path_blocked(&mut self, path: usize, now_ns: u64) {
        self.calls.borrow_mut().blocked.push((path, now_ns));
    }

    fn uses_path(&self, path: usize) -> bool {
        path == 1
    }

    fn drain_upcalls(&mut self) -> Vec<Upcall> {
        vec![Upcall::StreamRejected {
            stream: 0,
            name: "s".into(),
            requested_bps: 1.0,
            achievable_p: 0.5,
            admissible_bps: 0.0,
        }]
    }

    fn set_trace(&mut self, _: TraceHandle) {
        self.calls.borrow_mut().traced = true;
    }

    fn plan_coding(&mut self, _: &[PathSnapshot], _: &[Vec<u64>], _: u64) -> Vec<StreamCoding> {
        self.calls.borrow_mut().planned += 1;
        Vec::new()
    }
}

#[test]
fn scheduler_decorator_forwards_every_method() {
    let calls = Rc::new(RefCell::new(Calls::default()));
    let specs = vec![StreamSpec::best_effort(0, "s", 1.0e6, 100)];
    let inner = Recorder {
        specs: specs.clone(),
        calls: calls.clone(),
    };
    let probe = Probe::default();
    let mut s = TimedScheduler::new(Box::new(inner), probe.clone());
    assert_eq!(s.name(), "recorder");
    assert_eq!(s.specs(), &specs[..]);
    assert!(!s.uses_path(0) && s.uses_path(1));
    assert_eq!(s.drain_upcalls().len(), 1);
    s.on_path_blocked(1, 42);
    s.set_trace(TraceHandle::null());
    assert!(s.plan_coding(&[], &[], 0).is_empty());
    assert_eq!(
        s.next_batch(0, 0, &mut StreamQueues::new(1, 4), 3, &mut Vec::new()),
        3
    );
    let mut q = StreamQueues::new(1, 4);
    assert!(q.push(0, 100, 0));
    assert!(s.next_packet(0, 0, &mut q).is_some());
    assert!(s.next_packet(0, 0, &mut q).is_none());
    s.on_window_start(0, 1, &[]);

    let c = calls.borrow();
    assert_eq!(c.blocked, vec![(1, 42)]);
    assert!(c.traced);
    assert_eq!((c.planned, c.batched), (1, 3));
    let p = probe.borrow();
    assert_eq!((p.decide.count(), p.decide_idle), (2, 1));
    assert_eq!((p.window.count(), p.plan_coding.count()), (1, 1));
}

#[test]
fn workload_decorator_forwards_arrivals() {
    let specs = vec![StreamSpec::best_effort(0, "s", 1.0e6, 100)];
    let mut plain = FramedSource::new(specs.clone(), vec![250], 25.0, 1.0);
    let probe = Probe::default();
    let mut timed = TimedWorkload::new(Box::new(plain.clone()), probe.clone());
    assert_eq!(timed.specs(), plain.specs());
    loop {
        let (a, b) = (plain.next_arrival(), timed.next_arrival());
        assert_eq!(
            a.map(|x| (x.at, x.stream, x.bytes)),
            b.map(|x| (x.at, x.stream, x.bytes))
        );
        if a.is_none() {
            break;
        }
    }
    assert_eq!(probe.borrow().arrival.count(), 25 * 3 + 1);
}

#[test]
fn log_hist_quantiles_stay_within_bucket_error() {
    let mut h = LogHist::default();
    for ns in 1..=100_000u64 {
        h.record(ns);
    }
    for q in [0.5, 0.84, 0.99] {
        let exact = q * 100_000.0;
        let got = h.quantile_ns(q);
        assert!(
            (got - exact).abs() / exact < 0.033,
            "q={q}: {got} vs {exact}"
        );
    }
    assert_eq!(h.count(), 100_000);
    assert!((h.sum_s() - 5_000_050_000e-9).abs() < 1e-9);
    let mut small = LogHist::default();
    small.record(7);
    assert_eq!(small.quantile_ns(0.5), 7.5);
    assert_eq!(LogHist::default().quantile_ns(0.5), 0.0);
}

#[test]
fn workload_names_round_trip() {
    for kind in Kind::ALL {
        assert_eq!(Kind::by_name(kind.name()), Some(kind));
    }
    assert_eq!(Kind::by_name("nope"), None);
}

#[test]
fn host_probe_kernel_is_deterministic() {
    assert_eq!(crate::probe::kernel(), crate::probe::kernel());
    let probe = crate::probe::HostProbe::default();
    assert!(probe.time() > 0.0 && probe.time() > 0.0);
}
