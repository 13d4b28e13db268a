//! The scheduler interface shared by PGOS and every baseline.
//!
//! The middleware runtime drives any [`MultipathScheduler`] identically:
//! at each scheduling-window boundary it hands the scheduler fresh
//! [`PathSnapshot`]s (monitoring output), and whenever a path service
//! becomes free it asks the scheduler for that path's next packet.

use crate::queues::{QueuedPacket, StreamQueues};
use crate::stream::StreamSpec;
use iqpaths_stats::{CdfSummary, EmpiricalCdf};
use iqpaths_trace::TraceHandle;

/// Monitoring state of one overlay path, as delivered to schedulers at
/// window boundaries (Figure 3's "path characteristics" feedback).
///
/// This is the single snapshot type of the monitoring→scheduling data
/// plane: the monitoring module produces one per path per window, and
/// the same value flows unchanged through resource mapping and the
/// guarantee calculators. Cloning is O(1) — the distribution summary is
/// an [`CdfSummary`], which shares its backing structure.
#[derive(Debug, Clone)]
pub struct PathSnapshot {
    /// Path index.
    pub index: usize,
    /// Summary of the recent available-bandwidth distribution (bits/s).
    pub cdf: CdfSummary,
    /// A mean-bandwidth prediction for the next window (what MA/EWMA
    /// style baselines use).
    pub mean_prediction: f64,
    /// The *actual* average available bandwidth of the upcoming window —
    /// only populated for the offline OptSched oracle baseline.
    pub oracle_next_rate: Option<f64>,
    /// Smoothed round-trip time estimate in seconds.
    pub rtt: f64,
    /// Measured packet-loss rate of the path (0 when unmeasured).
    pub loss: f64,
}

impl PathSnapshot {
    /// A snapshot with only an exact CDF (tests and simple baselines).
    pub fn from_cdf(index: usize, cdf: EmpiricalCdf) -> Self {
        Self::from_summary(index, CdfSummary::exact(cdf))
    }

    /// A snapshot from any distribution summary, with the mean
    /// prediction filled from the summary itself.
    pub fn from_summary(index: usize, cdf: CdfSummary) -> Self {
        let mean_prediction = iqpaths_stats::BandwidthCdf::mean(&cdf);
        Self {
            index,
            cdf,
            mean_prediction,
            oracle_next_rate: None,
            rtt: 0.0,
            loss: 0.0,
        }
    }
}

/// A packet routing-and-scheduling policy over multiple overlay paths.
pub trait MultipathScheduler {
    /// Display name ("PGOS", "MSFQ", …) used in experiment output.
    fn name(&self) -> &str;

    /// The stream table this scheduler was configured with.
    fn specs(&self) -> &[StreamSpec];

    /// Called at each scheduling-window boundary with fresh monitoring
    /// snapshots (one per path, in path order).
    fn on_window_start(&mut self, window_start_ns: u64, window_ns: u64, paths: &[PathSnapshot]);

    /// Called when path `path` is free: pop and return the packet to
    /// transmit on it, or `None` to leave the path idle until the next
    /// enqueue or window boundary.
    fn next_packet(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &mut StreamQueues,
    ) -> Option<QueuedPacket>;

    /// Batched dispatch: pop up to `max` consecutive decisions for
    /// `path` at `now_ns`, appending them to `out`; returns the count
    /// served. Semantically identical to calling
    /// [`MultipathScheduler::next_packet`] in a loop until it returns
    /// `None` or `max` is reached — implementations may override it
    /// only to amortize per-decision overhead (PGOS hoists its backoff
    /// gate and fallback-index sync), never to change decisions.
    ///
    /// The event-driven runtime intentionally does *not* use this: it
    /// interleaves decisions with path-service completions one at a
    /// time. Throughput harnesses draining a whole window per path
    /// visit do.
    fn next_batch(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &mut StreamQueues,
        max: usize,
        out: &mut Vec<QueuedPacket>,
    ) -> usize {
        let mut served = 0;
        while served < max {
            match self.next_packet(path, now_ns, queues) {
                Some(pkt) => {
                    out.push(pkt);
                    served += 1;
                }
                None => break,
            }
        }
        served
    }

    /// Notification that a send on `path` observed blocking (very low
    /// service rate). Schedulers may back off the path.
    fn on_path_blocked(&mut self, _path: usize, _now_ns: u64) {}

    /// Whether the scheduler ever uses the given path (single-path
    /// baselines return `false` for all but their chosen path, so the
    /// runtime never offers them other transmitters).
    fn uses_path(&self, _path: usize) -> bool {
        true
    }

    /// Whether [`MultipathScheduler::on_window_start`] reads
    /// [`PathSnapshot::oracle_next_rate`]. The runtime fills the oracle
    /// rate only when this is `true` and passes `None` otherwise, so
    /// online schedulers skip the ground-truth lookahead cost.
    fn needs_oracle(&self) -> bool {
        false
    }

    /// Drains pending admission-control upcalls (PGOS notifies the
    /// application when a stream cannot be scheduled; see §5.2.2).
    fn drain_upcalls(&mut self) -> Vec<crate::mapping::Upcall> {
        Vec::new()
    }

    /// Installs a trace handle for decision-level event emission
    /// (CDF snapshots, mapping decisions, dispatch classes, backoff
    /// steps). The default ignores it — baselines stay untraced; the
    /// runtime installs the run's handle before the event loop starts.
    fn set_trace(&mut self, _trace: TraceHandle) {}

    /// One-shot erasure-coding planning hook, called by the runtime
    /// after admission pre-warm (path CDFs are seeded, the event loop
    /// has not started). `snapshots` are the warmed per-path beliefs;
    /// `incidence` maps each path to the id set of links it traverses
    /// (for shared-bottleneck correlation discounting).
    ///
    /// A scheduler running an erasure-coded mapping (the `Diversity`
    /// mode of [`crate::scheduler::Pgos`]) builds its mapping here and
    /// returns one [`crate::coding::StreamCoding`] plan per coded
    /// stream; the runtime
    /// then stripes the streams' queues into lanes, synthesizes parity
    /// blocks, and accounts delivery at decode-complete granularity
    /// (DESIGN.md §15). The default returns no plans — schedulers that
    /// never code (PGOS whole-path-first and every baseline) keep the
    /// runtime on the classic bit-identical path.
    fn plan_coding(
        &mut self,
        _snapshots: &[PathSnapshot],
        _incidence: &[Vec<u64>],
        _now_ns: u64,
    ) -> Vec<crate::coding::StreamCoding> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iqpaths_stats::EmpiricalCdf;

    #[test]
    fn snapshot_from_cdf_fills_mean() {
        let cdf = EmpiricalCdf::from_clean_samples(vec![10.0, 20.0, 30.0]);
        let s = PathSnapshot::from_cdf(3, cdf);
        assert_eq!(s.index, 3);
        assert!((s.mean_prediction - 20.0).abs() < 1e-12);
        assert!(s.oracle_next_rate.is_none());
    }
}
