//! OptSched — the offline near-optimal reference scheduler.
//!
//! "We also compare these results with a near-optimal off-line
//! algorithm, termed OptSched, which assumes that we know available
//! bandwidth a priori. Although this off-line algorithm cannot be used
//! in practice, it can be used to gauge the absolute performance of
//! PGOS." (§6.1)
//!
//! Implementation: a PGOS instance whose per-path "CDFs" are point
//! masses at the *actual* average available bandwidth of the upcoming
//! window (delivered through `PathSnapshot::oracle_next_rate` by the
//! middleware, which can peek at the cross-traffic traces). With a
//! point-mass distribution every quantile equals the true bandwidth, so
//! resource mapping packs streams against the exact capacity.

use iqpaths_core::mapping::Upcall;
use iqpaths_core::queues::{QueuedPacket, StreamQueues};
use iqpaths_core::scheduler::{Pgos, PgosConfig};
use iqpaths_core::stream::StreamSpec;
use iqpaths_core::traits::{MultipathScheduler, PathSnapshot};
use iqpaths_stats::{CdfSummary, EmpiricalCdf};

/// The oracle scheduler.
#[derive(Debug, Clone)]
pub struct OptSched {
    inner: Pgos,
}

impl OptSched {
    /// OptSched over `paths` paths for the given stream set.
    pub fn new(specs: Vec<StreamSpec>, paths: usize) -> Self {
        let cfg = PgosConfig {
            // Remap whenever the oracle rate moves at all: two distinct
            // point masses have KS distance 1.
            remap_ks_threshold: 0.5,
            ..PgosConfig::default()
        };
        Self {
            inner: Pgos::new(cfg, specs, paths),
        }
    }

    fn oracle_snapshots(paths: &[PathSnapshot]) -> Vec<PathSnapshot> {
        paths
            .iter()
            .map(|p| {
                let rate = p.oracle_next_rate.unwrap_or(p.mean_prediction);
                PathSnapshot {
                    index: p.index,
                    cdf: CdfSummary::exact(EmpiricalCdf::from_clean_samples(vec![rate])),
                    mean_prediction: rate,
                    oracle_next_rate: Some(rate),
                    rtt: p.rtt,
                    loss: p.loss,
                }
            })
            .collect()
    }
}

impl MultipathScheduler for OptSched {
    fn name(&self) -> &str {
        "OptSched"
    }

    fn specs(&self) -> &[StreamSpec] {
        self.inner.specs()
    }

    fn needs_oracle(&self) -> bool {
        true
    }

    fn on_window_start(&mut self, start_ns: u64, window_ns: u64, paths: &[PathSnapshot]) {
        let oracle = Self::oracle_snapshots(paths);
        self.inner.on_window_start(start_ns, window_ns, &oracle);
    }

    fn next_packet(
        &mut self,
        path: usize,
        now_ns: u64,
        queues: &mut StreamQueues,
    ) -> Option<QueuedPacket> {
        self.inner.next_packet(path, now_ns, queues)
    }

    fn on_path_blocked(&mut self, path: usize, now_ns: u64) {
        self.inner.on_path_blocked(path, now_ns);
    }

    fn drain_upcalls(&mut self) -> Vec<Upcall> {
        self.inner.drain_upcalls()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(index: usize, oracle: f64) -> PathSnapshot {
        PathSnapshot {
            index,
            cdf: CdfSummary::exact(EmpiricalCdf::from_clean_samples(vec![1.0])),
            mean_prediction: 1.0,
            oracle_next_rate: Some(oracle),
            rtt: 0.0,
            loss: 0.0,
        }
    }

    #[test]
    fn admits_exactly_to_oracle_capacity() {
        // 10 Mbps stream on a path whose oracle says 10 Mbps: admitted
        // (point mass ≥ requirement with probability 1).
        let specs = vec![StreamSpec::probabilistic(0, "a", 10.0e6, 0.99, 1000)];
        let mut o = OptSched::new(specs, 1);
        o.on_window_start(0, 1_000_000_000, &[snapshot(0, 10.0e6)]);
        assert!(o.drain_upcalls().is_empty());
    }

    #[test]
    fn rejects_beyond_oracle_capacity() {
        let specs = vec![StreamSpec::probabilistic(0, "a", 20.0e6, 0.99, 1000)];
        let mut o = OptSched::new(specs, 1);
        o.on_window_start(0, 1_000_000_000, &[snapshot(0, 10.0e6)]);
        assert_eq!(o.drain_upcalls().len(), 1);
    }

    #[test]
    fn splits_across_paths_using_true_rates() {
        // 15 Mbps needs both 10 Mbps paths.
        let specs = vec![StreamSpec::probabilistic(0, "a", 15.0e6, 0.99, 1000)];
        let mut o = OptSched::new(specs, 2);
        o.on_window_start(
            0,
            1_000_000_000,
            &[snapshot(0, 10.0e6), snapshot(1, 10.0e6)],
        );
        assert!(o.drain_upcalls().is_empty());
        let mut q = StreamQueues::new(1, 10_000);
        for _ in 0..3000 {
            q.push(0, 1000, 0);
        }
        // Both paths serve stream 0.
        assert!(o.next_packet(0, 1, &mut q).is_some());
        assert!(o.next_packet(1, 1, &mut q).is_some());
    }

    #[test]
    fn remaps_when_oracle_rate_changes() {
        let specs = vec![StreamSpec::probabilistic(0, "a", 5.0e6, 0.99, 1000)];
        let mut o = OptSched::new(specs, 1);
        o.on_window_start(0, 1_000_000_000, &[snapshot(0, 10.0e6)]);
        o.on_window_start(1_000_000_000, 1_000_000_000, &[snapshot(0, 50.0e6)]);
        assert_eq!(o.inner.remap_count(), 2);
        // Same rate again: no remap.
        o.on_window_start(2_000_000_000, 1_000_000_000, &[snapshot(0, 50.0e6)]);
        assert_eq!(o.inner.remap_count(), 2);
    }

    #[test]
    fn falls_back_to_mean_prediction_without_oracle() {
        let specs = vec![StreamSpec::probabilistic(0, "a", 5.0e6, 0.99, 1000)];
        let mut o = OptSched::new(specs, 1);
        let snap = PathSnapshot {
            index: 0,
            cdf: CdfSummary::exact(EmpiricalCdf::from_clean_samples(vec![8.0e6])),
            mean_prediction: 8.0e6,
            oracle_next_rate: None,
            rtt: 0.0,
            loss: 0.0,
        };
        o.on_window_start(0, 1_000_000_000, &[snap]);
        assert!(o.drain_upcalls().is_empty());
    }
}
