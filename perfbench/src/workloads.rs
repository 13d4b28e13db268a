//! The four benchmark workloads, composed from the program's public
//! generators and entry points.
//!
//! A *cell* is one closed-loop batch: set-up (generation, routing,
//! scenario compile, scheduler construction), one or more calls into
//! `run_traced_counted`, then the Lemma 1/2 checks. Every input is a
//! pure function of the seed, so repeated cells of one seed must
//! produce bit-identical reports — [`Cell`] keeps them for comparison.

use crate::layers::{LayerStats, LogHist, Probe, TimedScheduler, TimedWorkload};
use iqpaths_apps::workload::{FramedSource, Workload};
use iqpaths_core::mapping::MappingMode;
use iqpaths_core::scheduler::{Pgos, PgosConfig};
use iqpaths_core::stream::StreamSpec;
use iqpaths_core::traits::MultipathScheduler;
use iqpaths_middleware::report::RunReport;
use iqpaths_middleware::runtime::{run_traced_counted, DeliveryEvent, RuntimeConfig};
use iqpaths_overlay::graph::OverlayNodeId;
use iqpaths_overlay::node::CdfMode;
use iqpaths_overlay::path::OverlayPath;
use iqpaths_simnet::fault::{salted_seed, FaultSchedule};
use iqpaths_testkit::{
    compile_scalability, conformance_streams, eligible_windows, lemma_outcomes, mode_name,
    ConformanceConfig, ConformanceReport, FaultScenario, GraphGen, GraphModel, LemmaOutcome,
    ScalabilityConfig, ScalabilityReport, TenantOutcome, TopologyGen,
};
use iqpaths_trace::TraceHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Measured (post-warm-up) simulated seconds of `flap-long`.
pub const FLAP_SECS: f64 = 600.0;
/// Measured simulated seconds of `diversity-lossy`.
pub const DIVERSITY_SECS: f64 = 200.0;
/// Streams of `wide-fanout`; every fourth one is probabilistic.
pub const FANOUT_STREAMS: usize = 2000;
/// Overlay paths of `wide-fanout`.
pub const FANOUT_PATHS: usize = 8;
/// Measured simulated seconds of `wide-fanout`.
pub const FANOUT_SECS: f64 = 20.0;
/// Monitoring warm-up of `wide-fanout`.
pub const FANOUT_WARMUP: f64 = 10.0;

/// Frame rate every workload's sources emit at.
const FPS: f64 = 25.0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Waxman 256-node, 64-tenant, k = 4 scalability cell.
    GraphScale,
    /// One conformance tenant under `FaultScenario::Flap` for a long
    /// horizon.
    FlapLong,
    /// 2000 framed streams over 8 paths with path flaps.
    WideFanout,
    /// One conformance tenant, `MappingMode::Diversity`, uncorrelated
    /// silent loss.
    DiversityLossy,
}

impl Kind {
    /// Every workload. `BENCHMARK.json` lists all but `wide-fanout`,
    /// whose raw host-time spread exceeded the bound (see `NOTES.md`).
    pub const ALL: [Kind; 4] = [
        Kind::GraphScale,
        Kind::FlapLong,
        Kind::WideFanout,
        Kind::DiversityLossy,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::GraphScale => "graph-scale",
            Kind::FlapLong => "flap-long",
            Kind::WideFanout => "wide-fanout",
            Kind::DiversityLossy => "diversity-lossy",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn by_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Scale of a workload: `Full` is what the benchmark measures; `Small`
/// keeps the same composition at a fraction of the cost, for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Shortened horizons and fewer tenants/streams.
    Small,
}

/// Inputs of one runtime call, built during set-up.
pub struct RunInput {
    paths: Vec<OverlayPath>,
    faults: FaultSchedule,
    rt: RuntimeConfig,
    duration: f64,
    specs: Vec<StreamSpec>,
    workload: Box<dyn Workload>,
    scheduler: Box<dyn MultipathScheduler>,
    settle_secs: f64,
    confidence: f64,
}

/// What one runtime call produced, plus its lemma verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// The runtime's report.
    pub report: RunReport,
    /// Per-path main-loop probe counts.
    pub probe_counts: Vec<u64>,
    /// Digest of every delivery event, in delivery order.
    pub deliveries: u64,
    /// Eligible monitor windows.
    pub eligible: Vec<usize>,
    /// Lemma 1/2 verdicts.
    pub outcomes: Vec<LemmaOutcomeEq>,
}

/// [`LemmaOutcome`] compared by its rendering (it has no `PartialEq`).
#[derive(Debug, Clone)]
pub struct LemmaOutcomeEq(pub LemmaOutcome);

impl PartialEq for LemmaOutcomeEq {
    fn eq(&self, other: &Self) -> bool {
        format!("{:?}", self.0) == format!("{:?}", other.0)
    }
}

/// How the set-up of a traced cell split across layers.
#[derive(Debug, Clone, Default)]
pub struct SetupSplit {
    /// `TopologyGen::build` / `GraphGen::build` seconds.
    pub gen_s: f64,
    /// `OverlayGraph::k_shortest_paths` calls and their durations.
    pub route: LogHist,
    /// `manytenant::compile` seconds (generation and routing included).
    pub compile_s: f64,
    /// Whether the separately timed routes differ from the compiled ones.
    pub routes_differ: bool,
}

/// Per-tenant identity the scalability report is rebuilt from.
#[derive(Debug, Clone)]
struct TenantMeta {
    src: usize,
    dst: usize,
    routes: usize,
}

/// What the cell's set-up compiled, for rebuilding the program's own
/// report type.
#[derive(Debug, Clone)]
enum Shape {
    Scalability {
        cfg: ScalabilityConfig,
        graph_hash: u64,
        edges: usize,
        tenants: Vec<TenantMeta>,
    },
    Conformance(ConformanceConfig),
    Fanout,
}

/// One finished cell.
pub struct Cell {
    /// Host seconds before the first runtime call.
    pub setup_s: f64,
    /// Host seconds inside runtime calls, summed.
    pub run_s: f64,
    /// Host seconds in `eligible_windows` + `lemma_outcomes`.
    pub check_s: f64,
    /// Host seconds of the whole cell.
    pub cell_s: f64,
    /// One output per runtime call.
    pub runs: Vec<RunOutput>,
    /// Traced cells only: set-up split and decorator recordings.
    pub traced: Option<(SetupSplit, LayerStats)>,
    shape: Shape,
}

fn frames(specs: &[StreamSpec]) -> Vec<u32> {
    specs
        .iter()
        .map(|s| (s.required_bw.max(s.weight) / (8.0 * FPS)).round() as u32)
        .collect()
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// `graph-scale` set-up: compile the scenario and build one runtime
/// input per tenant. A traced set-up additionally times generation and
/// every routing query on their own, replaying compile's tenant draw.
fn setup_scalability(
    cfg: ScalabilityConfig,
    split: Option<&mut SetupSplit>,
) -> (Vec<RunInput>, Shape) {
    if let Some(split) = split {
        let t0 = Instant::now();
        let graph = GraphGen {
            seed: cfg.seed,
            nodes: cfg.nodes,
            model: cfg.model,
            horizon: cfg.warmup + cfg.duration + 10.0,
            ..GraphGen::default()
        }
        .build();
        split.gen_s = secs(t0);
        let mut rng = StdRng::seed_from_u64(salted_seed(cfg.seed, "tenants"));
        let mut routes = Vec::with_capacity(cfg.tenants);
        for _ in 0..cfg.tenants {
            let src = rng.gen_range(0..cfg.nodes);
            let mut dst = rng.gen_range(0..cfg.nodes);
            while dst == src {
                dst = rng.gen_range(0..cfg.nodes);
            }
            let t0 = Instant::now();
            let r = graph
                .graph
                .k_shortest_paths(OverlayNodeId(src), OverlayNodeId(dst), cfg.k);
            split.route.record(t0.elapsed().as_nanos() as u64);
            routes.push(r);
        }
        let t0 = Instant::now();
        let compiled = compile_scalability(&cfg);
        split.compile_s = secs(t0);
        split.routes_differ = compiled.tenants.iter().map(|t| &t.routes).ne(routes.iter());
        return inputs_from_compiled(cfg, compiled);
    }
    inputs_from_compiled(cfg, compile_scalability(&cfg))
}

fn inputs_from_compiled(
    cfg: ScalabilityConfig,
    compiled: iqpaths_testkit::manytenant::CompiledScenario,
) -> (Vec<RunInput>, Shape) {
    let specs = ScalabilityConfig::tenant_streams();
    let frames = frames(&specs);
    let graph_hash = compiled.graph.graph_hash();
    let edges = compiled.graph.edges.len();
    let mut metas = Vec::with_capacity(compiled.tenants.len());
    let inputs = compiled
        .tenants
        .into_iter()
        .map(|ct| {
            metas.push(TenantMeta {
                src: ct.src,
                dst: ct.dst,
                routes: ct.routes.len(),
            });
            let rt = RuntimeConfig {
                warmup_secs: cfg.warmup,
                history_samples: 50,
                seed: salted_seed(cfg.seed, &format!("tenant:{}", ct.tenant)),
                cdf_mode: cfg.mode,
                ..RuntimeConfig::default()
            };
            RunInput {
                workload: Box::new(FramedSource::new(
                    specs.clone(),
                    frames.clone(),
                    FPS,
                    cfg.duration,
                )),
                scheduler: Box::new(Pgos::new(
                    PgosConfig::default(),
                    specs.clone(),
                    ct.paths.len(),
                )),
                paths: ct.paths,
                faults: ct.faults,
                rt,
                duration: cfg.duration,
                specs: specs.clone(),
                settle_secs: cfg.settle_secs,
                confidence: cfg.confidence,
            }
        })
        .collect();
    let shape = Shape::Scalability {
        cfg,
        graph_hash,
        edges,
        tenants: metas,
    };
    (inputs, shape)
}

/// Single-tenant conformance set-up, composed exactly as
/// `run_conformance` composes it on the serial runtime.
fn setup_conformance(cfg: ConformanceConfig, split: Option<&mut SetupSplit>) -> RunInput {
    let t0 = Instant::now();
    let paths = TopologyGen {
        seed: cfg.seed,
        horizon: cfg.warmup + cfg.duration + 10.0,
        ..TopologyGen::default()
    }
    .build();
    if let Some(split) = split {
        split.gen_s = secs(t0);
    }
    let specs = conformance_streams();
    let rt = RuntimeConfig {
        warmup_secs: cfg.warmup,
        history_samples: 100,
        seed: cfg.seed,
        cdf_mode: cfg.mode,
        planner: cfg.planner,
        probe_budget: cfg.probe_budget,
        ..RuntimeConfig::default()
    };
    let pgos = PgosConfig {
        mapping_mode: cfg.mapping,
        ..PgosConfig::default()
    };
    RunInput {
        workload: Box::new(FramedSource::new(
            specs.clone(),
            frames(&specs),
            FPS,
            cfg.duration,
        )),
        scheduler: Box::new(Pgos::new(pgos, specs.clone(), paths.len())),
        faults: cfg.scenario.schedule(cfg.warmup, cfg.warmup + cfg.duration),
        paths,
        rt,
        duration: cfg.duration,
        specs,
        settle_secs: cfg.settle_secs,
        confidence: cfg.confidence,
    }
}

/// `wide-fanout` streams: every fourth stream probabilistic (64 kbps at
/// p = 0.9), the rest best-effort (32 kbps); one packet per frame each,
/// so a frame instant enqueues one packet on every stream at once.
pub fn fanout_streams(n: usize) -> Vec<StreamSpec> {
    (0..n)
        .map(|i| {
            if i % 4 == 0 {
                StreamSpec::probabilistic(i, format!("p{i}"), 64.0e3, 0.9, 320)
            } else {
                StreamSpec::best_effort(i, format!("b{i}"), 32.0e3, 160)
            }
        })
        .collect()
}

fn setup_fanout(seed: u64, scale: Scale, split: Option<&mut SetupSplit>) -> RunInput {
    let (streams, duration) = match scale {
        Scale::Full => (FANOUT_STREAMS, FANOUT_SECS),
        Scale::Small => (FANOUT_STREAMS / 8, 12.0),
    };
    let warmup = FANOUT_WARMUP;
    let t0 = Instant::now();
    let paths = TopologyGen {
        seed,
        paths: FANOUT_PATHS,
        horizon: warmup + duration + 10.0,
        ..TopologyGen::default()
    }
    .build();
    if let Some(split) = split {
        split.gen_s = secs(t0);
    }
    // Two paths flap out of phase: 25% capacity for 3 s of every 8 s.
    let mut faults = FaultSchedule::new();
    faults.flap(0, 0.25, warmup + 1.0, warmup + duration - 1.0, 8.0, 3.0);
    faults.flap(1, 0.25, warmup + 5.0, warmup + duration - 1.0, 8.0, 3.0);
    let specs = fanout_streams(streams);
    let rt = RuntimeConfig {
        warmup_secs: warmup,
        history_samples: 100,
        seed,
        ..RuntimeConfig::default()
    };
    RunInput {
        workload: Box::new(FramedSource::new(
            specs.clone(),
            frames(&specs),
            FPS,
            duration,
        )),
        scheduler: Box::new(Pgos::new(PgosConfig::default(), specs.clone(), paths.len())),
        paths,
        faults,
        rt,
        duration,
        specs,
        settle_secs: 2.0,
        confidence: 0.99,
    }
}

/// `graph-scale`'s config at `scale`.
fn scalability_cfg(seed: u64, scale: Scale) -> ScalabilityConfig {
    let waxman = GraphModel::by_name("waxman").expect("known model");
    let mut cfg = ScalabilityConfig::new(seed, waxman, 256, 64, 4);
    if scale == Scale::Small {
        cfg.tenants = 4;
        cfg.duration = 12.0;
    }
    cfg
}

/// `flap-long`'s or `diversity-lossy`'s config at `scale`.
fn conformance_cfg(kind: Kind, seed: u64, scale: Scale) -> ConformanceConfig {
    let (scenario, duration) = match kind {
        Kind::FlapLong => (FaultScenario::Flap, FLAP_SECS),
        Kind::DiversityLossy => (FaultScenario::Uncorrelated, DIVERSITY_SECS),
        _ => panic!("{} is not a conformance workload", kind.name()),
    };
    let mapping = if kind == Kind::DiversityLossy {
        MappingMode::Diversity
    } else {
        MappingMode::Pgos
    };
    ConformanceConfig {
        duration: if scale == Scale::Small {
            60.0
        } else {
            duration
        },
        ..ConformanceConfig::new(seed, CdfMode::Exact, scenario)
    }
    .with_mapping(mapping)
}

fn setup(
    kind: Kind,
    seed: u64,
    scale: Scale,
    split: Option<&mut SetupSplit>,
) -> (Vec<RunInput>, Shape) {
    match kind {
        Kind::GraphScale => setup_scalability(scalability_cfg(seed, scale), split),
        Kind::FlapLong | Kind::DiversityLossy => {
            let cfg = conformance_cfg(kind, seed, scale);
            (vec![setup_conformance(cfg, split)], Shape::Conformance(cfg))
        }
        Kind::WideFanout => (vec![setup_fanout(seed, scale, split)], Shape::Fanout),
    }
}

/// The program's own entry point for the workload's config, rendered
/// for comparison with [`Cell::rendering`]:
/// `run_scalability(cfg).render()` for `graph-scale`, the whole
/// `run_conformance(cfg)` report for the single-tenant workloads.
/// `wide-fanout` calls `run_traced_counted` itself, so it has no wrapper
/// to disagree with.
pub fn entry_point_rendering(kind: Kind, seed: u64, scale: Scale) -> Option<String> {
    match kind {
        Kind::GraphScale => {
            Some(iqpaths_testkit::run_scalability(scalability_cfg(seed, scale)).render())
        }
        Kind::FlapLong | Kind::DiversityLossy => {
            let report = iqpaths_testkit::run_conformance(conformance_cfg(kind, seed, scale));
            Some(format!("{report:#?}"))
        }
        Kind::WideFanout => None,
    }
}

/// Folds one word into an FNV-1a style running digest.
fn mix(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(0x0100_0000_01b3)
}

/// What [`execute`] returns: report, probe counts, per-stream
/// per-window deadline misses, and the delivery digest.
type Executed = (RunReport, Vec<u64>, Vec<Vec<f64>>, u64);

/// Runs one input through the runtime; with a probe, the scheduler,
/// the workload and the delivery sink are timed.
fn execute(input: RunInput, probe: Option<&Probe>) -> Executed {
    let RunInput {
        paths,
        faults,
        rt,
        duration,
        specs,
        mut workload,
        mut scheduler,
        ..
    } = input;
    let window = rt.monitor_window_secs;
    let n_windows = (duration / window).ceil() as usize;
    let mut misses = vec![vec![0.0f64; n_windows]; specs.len()];
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut attribute = |d: &DeliveryEvent| {
        for word in [
            d.stream as u64,
            d.seq,
            u64::from(d.bytes),
            d.created.to_bits(),
            d.delivered.to_bits(),
            d.path as u64,
            u64::from(d.missed_deadline),
        ] {
            digest = mix(digest, word);
        }
        if d.missed_deadline {
            let w = ((d.delivered / window) as usize).min(n_windows - 1);
            misses[d.stream][w] += 1.0;
        }
    };
    let (report, probes) = match probe {
        None => run_traced_counted(
            &paths,
            workload,
            scheduler,
            rt,
            duration,
            &faults,
            TraceHandle::null(),
            &mut attribute,
        ),
        Some(probe) => {
            workload = Box::new(TimedWorkload::new(workload, probe.clone()));
            scheduler = Box::new(TimedScheduler::new(scheduler, probe.clone()));
            let mut sink = |d: &DeliveryEvent| {
                let t0 = Instant::now();
                attribute(d);
                let ns = t0.elapsed().as_nanos() as u64;
                probe.borrow_mut().sink.record(ns);
            };
            run_traced_counted(
                &paths,
                workload,
                scheduler,
                rt,
                duration,
                &faults,
                TraceHandle::null(),
                &mut sink,
            )
        }
    };
    (report, probes, misses, digest)
}

/// Runs one full cell of `kind` for `seed`; `traced` wraps every
/// runtime call in the timing decorators.
pub fn run_cell(kind: Kind, seed: u64, scale: Scale, traced: bool) -> Cell {
    let t_cell = Instant::now();
    let mut split = traced.then(SetupSplit::default);
    let (inputs, shape) = setup(kind, seed, scale, split.as_mut());
    let setup_s = secs(t_cell);

    let probe = traced.then(Probe::default);
    let mut run_s = 0.0;
    let mut check_s = 0.0;
    let mut runs = Vec::with_capacity(inputs.len());
    for input in inputs {
        let (specs, faults, rt) = (input.specs.clone(), input.faults.clone(), input.rt);
        let (duration, settle, confidence) = (input.duration, input.settle_secs, input.confidence);
        let t0 = Instant::now();
        let (report, probe_counts, misses, deliveries) = execute(input, probe.as_ref());
        run_s += secs(t0);

        let t0 = Instant::now();
        let n_windows = (duration / rt.monitor_window_secs).ceil() as usize;
        let eligible = eligible_windows(
            n_windows,
            rt.warmup_secs,
            rt.monitor_window_secs,
            &faults.capacity_change_times(),
            settle,
        );
        let outcomes = lemma_outcomes(
            &specs,
            &report,
            &misses,
            &eligible,
            rt.monitor_window_secs,
            confidence,
        );
        check_s += secs(t0);
        runs.push(RunOutput {
            outcomes: outcomes.into_iter().map(LemmaOutcomeEq).collect(),
            report,
            probe_counts,
            deliveries,
            eligible,
        });
    }
    let traced = split.zip(probe.map(|p| p.take()));
    Cell {
        setup_s,
        run_s,
        check_s,
        cell_s: secs(t_cell),
        runs,
        traced,
        shape,
    }
}

/// Fraction of offered data of one stream delivered before its
/// deadline, as `run_conformance` computes it: coded streams at
/// decode-complete granularity, uncoded ones over offered packets.
/// Returns `(on time, offered)`.
pub fn before_deadline(report: &RunReport, stream: usize) -> (u64, u64) {
    let s = &report.streams[stream];
    match &s.coding {
        Some(c) => (c.data_ontime + c.recovered, c.data_offered),
        None => {
            let m = &report.metrics.streams[stream];
            (
                s.deadline_packets - s.deadline_misses,
                m.enqueued + m.queue_dropped,
            )
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Cell {
    /// The program's own report type rebuilt from this cell's outputs and
    /// rendered as [`entry_point_rendering`] renders it.
    pub fn rendering(&self) -> Option<String> {
        match &self.shape {
            Shape::Scalability {
                cfg,
                graph_hash,
                edges,
                tenants,
            } => Some(
                self.scalability_report(*cfg, *graph_hash, *edges, tenants)
                    .render(),
            ),
            Shape::Conformance(cfg) => Some(format!("{:#?}", self.conformance_report(*cfg))),
            Shape::Fanout => None,
        }
    }

    fn scalability_report(
        &self,
        cfg: ScalabilityConfig,
        graph_hash: u64,
        edges: usize,
        metas: &[TenantMeta],
    ) -> ScalabilityReport {
        let tenants: Vec<TenantOutcome> = self
            .runs
            .iter()
            .zip(metas)
            .enumerate()
            .map(|(t, (run, meta))| TenantOutcome {
                tenant: t,
                src: meta.src,
                dst: meta.dst,
                routes: meta.routes,
                outcomes: run.outcomes.iter().map(|o| o.0.clone()).collect(),
                delivered_packets: run.report.streams.iter().map(|s| s.delivered_packets).sum(),
                delivered_bytes: run.report.streams.iter().map(|s| s.delivered_bytes).sum(),
            })
            .collect();
        let total_packets: u64 = tenants.iter().map(|t| t.delivered_packets).sum();
        ScalabilityReport {
            model: cfg.model.canon(),
            mode: mode_name(cfg.mode),
            nodes: cfg.nodes,
            k: cfg.k,
            shards: 1,
            graph_hash,
            edges,
            total_routes: metas.iter().map(|m| m.routes).sum(),
            total_bytes: tenants.iter().map(|t| t.delivered_bytes).sum(),
            tenants,
            total_packets,
            virtual_pps: total_packets as f64 / cfg.duration,
        }
    }

    fn conformance_report(&self, cfg: ConformanceConfig) -> ConformanceReport {
        let run = &self.runs[0];
        ConformanceReport {
            scenario: cfg.scenario.name(),
            mode: mode_name(cfg.mode),
            report: run.report.clone(),
            eligible_windows: run.eligible.clone(),
            outcomes: run.outcomes.iter().map(|o| o.0.clone()).collect(),
            probe_counts: run.probe_counts.clone(),
            before_deadline: (0..run.report.streams.len())
                .map(|i| {
                    let (ontime, offered) = before_deadline(&run.report, i);
                    ratio(ontime, offered)
                })
                .collect(),
        }
    }

    /// Passing and total Lemma 1/2 verdicts.
    pub fn verdicts(&self) -> (usize, usize) {
        let all = self.runs.iter().flat_map(|r| &r.outcomes);
        (all.clone().filter(|o| o.0.pass).count(), all.count())
    }

    /// Guaranteed data delivered before its deadline and guaranteed data
    /// offered, summed over every run's guaranteed streams.
    pub fn ontime(&self) -> (u64, u64) {
        let mut acc = (0, 0);
        for run in &self.runs {
            let specs = run.report.streams.len();
            for i in 0..specs {
                if run.report.streams[i].required_bw > 0.0 {
                    let (a, b) = before_deadline(&run.report, i);
                    acc.0 += a;
                    acc.1 += b;
                }
            }
        }
        acc
    }

    /// Simulated delivered megabits per simulated second, summed over
    /// runs (tenants share the virtual clock).
    pub fn goodput_mbps(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r.report.total_goodput())
            .sum::<f64>()
            / 1e6
    }

    /// Simulated packets delivered.
    pub fn delivered(&self) -> u64 {
        self.runs
            .iter()
            .flat_map(|r| &r.report.metrics.streams)
            .map(|m| m.delivered)
            .sum()
    }
}

/// `None` when a composed rendering equals the entry point's, otherwise
/// where they first differ.
pub fn mismatch(composed: &str, entry: &str) -> Option<String> {
    if composed == entry {
        return None;
    }
    for (i, (x, y)) in composed.lines().zip(entry.lines()).enumerate() {
        if x != y {
            return Some(format!(
                "line {}: composed `{x}` vs entry point `{y}`",
                i + 1
            ));
        }
    }
    Some(format!(
        "composed has {} lines, entry point {}",
        composed.lines().count(),
        entry.lines().count()
    ))
}
