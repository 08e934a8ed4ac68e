//! The SwiftDir simulator's benchmark: four closed-loop workloads, their
//! end-to-end metrics, and a separate traced run that splits host time by
//! the crate it was spent in. See `README.md` beside this crate.

pub mod replica;
pub mod spans;
pub mod substrate;

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use swiftdir_coherence::{CoherenceEvent, HierarchyConfig, HierarchyStats, ProtocolKind};
use swiftdir_core::{
    contended_stream, explore_parallel_profiled, run_fuzz, run_fuzz_campaign, ExperimentSet,
    ExploreConfig, FuzzConfig, ProcessId, RunStats, System, SystemConfig, TraceConfig,
};
use swiftdir_cpu::{CpuModel, InstrStream};
use swiftdir_mmu::SpaceId;
use swiftdir_workloads::{ParsecBenchmark, SpecBenchmark, SynthStream, WorkloadRegions};

use replica::Replica;
use spans::{timed, Layer, SelfTimes, SharedLog, SpanLog};
use substrate::SubstrateCosts;

/// Instructions per Fig. 7 point (the `fig7_spec_ipc` bench's count).
pub const SPEC_INSTRUCTIONS: u64 = 60_000;
/// Instructions per thread of a Fig. 8 point (`fig8_parsec_time`'s count).
pub const PARSEC_INSTRUCTIONS_PER_THREAD: u64 = 25_000;
/// Fuzz seeds per protocol and scenario in one pass.
pub const FUZZ_SEEDS: u64 = 64;
/// Fuzz scenarios as `(cores, banks)`: the default one and the sharded
/// one CI smokes.
pub const FUZZ_SCENARIOS: [(usize, usize); 2] = [(4, 1), (8, 4)];
/// Worker threads of the fuzz campaign, before capping at the host's
/// parallelism.
pub const FUZZ_THREADS: usize = 2;
/// `contended_stream` seeds of the explored tree set (see README: the set
/// is fixed because tree cost is heavy-tailed in the seed).
pub const EXPLORE_SEEDS: std::ops::Range<u64> = 0..16;
/// `contended_stream(seed, EXPLORE_CORES, EXPLORE_BLOCKS, EXPLORE_OPS, 0.3)`.
pub const EXPLORE_CORES: usize = 2;
/// See [`EXPLORE_CORES`].
pub const EXPLORE_BLOCKS: usize = 2;
/// See [`EXPLORE_CORES`].
pub const EXPLORE_OPS: usize = 4;
/// Milliseconds [`substrate::host_speed_ms`] takes on the reference host.
/// End-to-end times are scaled to it: a unit that ran while the kernel
/// took `k` ms reports its time × `HOST_SPEED_REF_MS / k`.
pub const HOST_SPEED_REF_MS: f64 = 0.2;
/// Each unit's end-to-end figure is this quantile of its scaled times over
/// the passes of a run (see [`end_to_end`]).
pub const UNIT_QUANTILE: f64 = 0.9;
/// Host time after which a thread times the host-speed kernel again.
const HOST_SPEED_EVERY: Duration = Duration::from_millis(25);
/// Odd multiplier spreading the benchmark seed over `SynthStream` seeds;
/// seed 0 reproduces the `fig7_spec_ipc` grid exactly.
const SPEC_SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

const FIG_PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Mesi,
    ProtocolKind::SwiftDir,
    ProtocolKind::SMesi,
];
const ALL_PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Msi,
    ProtocolKind::Mesi,
    ProtocolKind::SMesi,
    ProtocolKind::SwiftDir,
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7: 23 SPEC profiles × 3 protocols, 1 core, DerivO3.
    SpecO3,
    /// Fig. 8: 13 PARSEC profiles × 3 protocols, 4 cores, DerivO3.
    Parsec4c,
    /// Invariant-checked fuzz seeds, 4 protocols × 2 scenarios.
    FuzzCampaign,
    /// Serial exhaustive exploration of a fixed tree set, 4 protocols.
    ExploreDfs,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::SpecO3,
        Workload::Parsec4c,
        Workload::FuzzCampaign,
        Workload::ExploreDfs,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpecO3 => "spec_o3",
            Workload::Parsec4c => "parsec_4c",
            Workload::FuzzCampaign => "fuzz_campaign",
            Workload::ExploreDfs => "explore_dfs",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What a pass runs, for the report header.
    pub fn describe(self) -> String {
        match self {
            Workload::SpecO3 => format!(
                "Fig. 7 grid: 23 SPEC profiles x {{MESI, SwiftDir, S-MESI}}, 1 core, DerivO3, \
                 1 bank, {SPEC_INSTRUCTIONS} instructions per point"
            ),
            Workload::Parsec4c => format!(
                "Fig. 8 grid: 13 PARSEC profiles x {{MESI, SwiftDir, S-MESI}}, 4 cores, DerivO3, \
                 1 bank, 4 x {PARSEC_INSTRUCTIONS_PER_THREAD} instructions per point \
                 (streams seeded inside ParsecBenchmark::build_threads: the seed does not \
                 change them)"
            ),
            Workload::FuzzCampaign => format!(
                "{FUZZ_SEEDS} fuzz seeds x 4 protocols x {{4 cores/1 bank, 8 cores/4 banks}}, \
                 {} campaign threads",
                fuzz_threads()
            ),
            Workload::ExploreDfs => format!(
                "exhaustive serial exploration of contended_stream(s, {EXPLORE_CORES}, \
                 {EXPLORE_BLOCKS}, {EXPLORE_OPS}, 0.3) for s in {}..{} x 4 protocols \
                 (fixed tree set: the seed does not change it)",
                EXPLORE_SEEDS.start, EXPLORE_SEEDS.end
            ),
        }
    }
}

/// The fuzz campaign's pinned worker count.
fn fuzz_threads() -> usize {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    FUZZ_THREADS.min(host)
}

/// One unit of work: a sweep point, a fuzz seed or an explore tree.
#[derive(Debug, Clone)]
pub enum Unit {
    /// A Fig. 7 point.
    Spec {
        /// SPEC profile.
        bench: SpecBenchmark,
        /// Protocol.
        protocol: ProtocolKind,
        /// `SynthStream` seed.
        seed: u64,
    },
    /// A Fig. 8 point.
    Parsec {
        /// PARSEC profile.
        bench: ParsecBenchmark,
        /// Protocol.
        protocol: ProtocolKind,
    },
    /// A fuzz seed.
    Fuzz(FuzzConfig),
    /// An explore tree.
    Explore {
        /// `contended_stream` seed.
        seed: u64,
        /// Protocol.
        protocol: ProtocolKind,
    },
}

/// The fixed unit set of one pass of `workload`. `seed` shifts the
/// `SynthStream` seeds of `spec_o3` and the fuzz seed range; `parsec_4c`
/// and `explore_dfs` inputs do not depend on it (see README).
pub fn units(workload: Workload, seed: u64) -> Vec<Unit> {
    match workload {
        Workload::SpecO3 => SpecBenchmark::ALL
            .into_iter()
            .flat_map(|bench| {
                FIG_PROTOCOLS.into_iter().map(move |protocol| Unit::Spec {
                    bench,
                    protocol,
                    seed: bench
                        .seed()
                        .wrapping_add(seed.wrapping_mul(SPEC_SEED_STRIDE)),
                })
            })
            .collect(),
        Workload::Parsec4c => ParsecBenchmark::ALL
            .into_iter()
            .flat_map(|bench| {
                FIG_PROTOCOLS
                    .into_iter()
                    .map(move |protocol| Unit::Parsec { bench, protocol })
            })
            .collect(),
        Workload::FuzzCampaign => FUZZ_SCENARIOS
            .into_iter()
            .flat_map(|(cores, banks)| {
                ALL_PROTOCOLS.into_iter().flat_map(move |protocol| {
                    (0..FUZZ_SEEDS).map(move |i| {
                        let mut cfg = FuzzConfig::new(
                            seed.wrapping_mul(FUZZ_SEEDS).wrapping_add(i),
                            protocol,
                        );
                        cfg.cores = cores;
                        cfg.banks = banks;
                        cfg.blocks = cfg.blocks.max(2 * banks);
                        Unit::Fuzz(cfg)
                    })
                })
            })
            .collect(),
        Workload::ExploreDfs => EXPLORE_SEEDS
            .flat_map(|seed| {
                ALL_PROTOCOLS
                    .into_iter()
                    .map(move |protocol| Unit::Explore { seed, protocol })
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Full-system units
// ---------------------------------------------------------------------------

fn system_config(cores: usize, protocol: ProtocolKind) -> SystemConfig {
    SystemConfig::builder()
        .cores(cores)
        .banks(1)
        .protocol(protocol)
        .cpu_model(CpuModel::DerivO3)
        .build()
}

/// Where a unit's generated threads are started.
trait ThreadSink {
    fn start<S: InstrStream + 'static>(
        &mut self,
        sys: &mut System,
        pid: ProcessId,
        core: usize,
        stream: S,
    );
}

/// Starts threads on the `System` itself.
struct OnSystem;

impl ThreadSink for OnSystem {
    fn start<S: InstrStream + 'static>(
        &mut self,
        sys: &mut System,
        pid: ProcessId,
        core: usize,
        stream: S,
    ) {
        sys.run_thread_stream(pid, core, stream);
    }
}

/// Starts one held-back thread on a replica.
type StartOnReplica = Box<dyn FnOnce(&mut Replica)>;

/// Holds threads back for a [`Replica`] built from the `System`'s layout.
#[derive(Default)]
struct Deferred(Vec<StartOnReplica>);

impl ThreadSink for Deferred {
    fn start<S: InstrStream + 'static>(
        &mut self,
        _sys: &mut System,
        pid: ProcessId,
        core: usize,
        stream: S,
    ) {
        // `System::spawn_process` creates one address space per process,
        // in order, so process n runs in space n.
        let space = SpaceId(pid.0);
        self.0.push(Box::new(move |r: &mut Replica| {
            r.start(space, core, stream)
        }));
    }
}

/// Builds the machine of a full-system unit, maps its regions and hands
/// its streams to `sink`. Simulated caches start cold.
fn build_system(unit: &Unit, sink: &mut impl ThreadSink) -> (System, SystemConfig) {
    let cfg = match unit {
        Unit::Spec { protocol, .. } => system_config(1, *protocol),
        Unit::Parsec { protocol, .. } => system_config(4, *protocol),
        _ => unreachable!("not a full-system unit"),
    };
    let mut sys = System::with_trace(cfg, TraceConfig::default());
    let pid = sys.spawn_process();
    match unit {
        Unit::Spec { bench, seed, .. } => {
            let params = bench.params(SPEC_INSTRUCTIONS);
            let regions = WorkloadRegions::map(&mut sys, pid, &params);
            sink.start(&mut sys, pid, 0, SynthStream::new(params, regions, *seed));
        }
        Unit::Parsec { bench, .. } => {
            for t in bench.build_threads(&mut sys, pid, PARSEC_INSTRUCTIONS_PER_THREAD) {
                sink.start(&mut sys, pid, t.core, t.stream);
            }
        }
        _ => unreachable!("not a full-system unit"),
    }
    (sys, cfg)
}

fn expected_instructions(unit: &Unit) -> u64 {
    match unit {
        Unit::Spec { .. } => SPEC_INSTRUCTIONS,
        Unit::Parsec { .. } => 4 * PARSEC_INSTRUCTIONS_PER_THREAD,
        _ => 0,
    }
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `word` in.
    fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    fn get(self) -> u64 {
        self.0
    }
}

fn digest_hierarchy(f: &mut Fnv, h: &HierarchyStats) {
    for e in CoherenceEvent::ALL {
        f.add(h.event(e));
    }
    for w in [
        h.l1_hits,
        h.l1_misses,
        h.mshr_merges,
        h.recalls,
        h.silent_upgrades,
        h.dispatched,
        h.protocol.install_retries(),
        h.protocol.install_stalls(),
        h.protocol.l1_total(),
        h.protocol.llc_total(),
    ] {
        f.add(w);
    }
}

/// Digest of the simulated statistics of a full-system run.
fn digest_run(stats: &RunStats) -> u64 {
    let mut f = Fnv::default();
    for t in &stats.threads {
        f.add(t.core as u64);
        f.add(t.cpu.instructions);
        f.add(t.cpu.started_at.get());
        f.add(t.cpu.finished_at.get());
        f.add(t.cpu.mem_ops);
    }
    digest_hierarchy(&mut f, &stats.hierarchy);
    let m = &stats.memory;
    for w in [m.reads, m.writes, m.row_hits, m.row_closed, m.row_conflicts] {
        f.add(w);
    }
    f.get()
}

// ---------------------------------------------------------------------------
// End-to-end passes
// ---------------------------------------------------------------------------

/// One unit's end-to-end result.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitResult {
    /// Host seconds building the unit's inputs before its timed run.
    pub setup_s: f64,
    /// Host seconds of the timed run.
    pub run_s: f64,
    /// Digest of the unit's simulated statistics (0 when it failed).
    pub digest: u64,
    /// Whether the unit completed and its output checked out.
    pub ok: bool,
    /// Simulated instructions retired (full-system units).
    pub instructions: u64,
    /// The mean of the host-speed samples in effect when the unit started
    /// and when it ended, in ms.
    pub speed_ms: f64,
}

impl UnitResult {
    /// The factor that scales this unit's times to the reference host
    /// speed (1 for a result that carries no sample).
    pub fn scale(&self) -> f64 {
        if self.speed_ms > 0.0 {
            HOST_SPEED_REF_MS / self.speed_ms
        } else {
            1.0
        }
    }
}

thread_local! {
    static HOST_SPEED: Cell<Option<(Instant, f64)>> = const { Cell::new(None) };
}

/// The host-speed sample in effect on this thread: the last one, timed
/// again once it is [`HOST_SPEED_EVERY`] old, so the kernel costs a few
/// per cent of a run. A unit is scaled by the mean of the samples at its
/// start and its end; the end sample is the next unit's start sample.
fn host_speed() -> f64 {
    HOST_SPEED.with(|cell| match cell.get() {
        Some((at, ms)) if at.elapsed() < HOST_SPEED_EVERY => ms,
        _ => {
            let ms = substrate::host_speed_ms();
            cell.set(Some((Instant::now(), ms)));
            ms
        }
    })
}

/// Runs `f`, turning a panic into a failed unit.
fn guarded(f: impl FnOnce() -> UnitResult) -> UnitResult {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_default()
}

fn run_unit(unit: &Unit) -> UnitResult {
    let speed_at_start = host_speed();
    let result = guarded(|| match unit {
        Unit::Spec { .. } | Unit::Parsec { .. } => {
            let t0 = Instant::now();
            let (mut sys, _) = build_system(unit, &mut OnSystem);
            let t1 = Instant::now();
            let stats = sys.run_to_completion();
            let t2 = Instant::now();
            let instructions = stats.instructions();
            UnitResult {
                setup_s: (t1 - t0).as_secs_f64(),
                run_s: (t2 - t1).as_secs_f64(),
                digest: digest_run(&stats),
                ok: instructions == expected_instructions(unit) && stats.roi_cycles() > 0,
                instructions,
                ..UnitResult::default()
            }
        }
        Unit::Fuzz(cfg) => {
            // The seed's run regenerates its stream internally (seeds/s
            // counts generation); the copy generated here is the unit's
            // set-up and checks the completion count.
            let t0 = Instant::now();
            let file = cfg.stream_file();
            let t1 = Instant::now();
            let report = run_fuzz(cfg);
            let t2 = Instant::now();
            UnitResult {
                setup_s: (t1 - t0).as_secs_f64(),
                run_s: (t2 - t1).as_secs_f64(),
                digest: report.digest,
                ok: report.ok() && report.completions == file.ops.len(),
                instructions: 0,
                ..UnitResult::default()
            }
        }
        Unit::Explore { seed, protocol } => {
            let t0 = Instant::now();
            let (hcfg, stream) = explore_inputs(*seed, *protocol);
            let t1 = Instant::now();
            let (report, _) =
                explore_parallel_profiled(&hcfg, &stream, &ExploreConfig::default(), 1);
            let t2 = Instant::now();
            UnitResult {
                setup_s: (t1 - t0).as_secs_f64(),
                run_s: (t2 - t1).as_secs_f64(),
                digest: report.digest(),
                ok: report.exhaustive_and_clean(),
                instructions: 0,
                ..UnitResult::default()
            }
        }
    });
    UnitResult {
        speed_ms: (speed_at_start + host_speed()) / 2.0,
        ..result
    }
}

fn explore_inputs(
    seed: u64,
    protocol: ProtocolKind,
) -> (HierarchyConfig, Vec<swiftdir_core::AccessOp>) {
    let hcfg = HierarchyConfig::table_v(EXPLORE_CORES, protocol).with_banks(1);
    let stream = contended_stream(seed, EXPLORE_CORES, EXPLORE_BLOCKS, EXPLORE_OPS, 0.3);
    (hcfg, stream)
}

/// One pass over a workload's unit set.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Per-unit results, in unit order.
    pub units: Vec<UnitResult>,
    /// Host wall seconds of the whole pass, set-up included.
    pub wall_s: f64,
    /// Whether units ran concurrently (the fuzz campaign's threads).
    pub concurrent: bool,
}

impl Pass {
    /// Digest over every unit's digest, in unit order.
    pub fn digest(&self) -> u64 {
        let mut f = Fnv::default();
        for u in &self.units {
            f.add(u.digest);
        }
        f.get()
    }

    /// Units that failed.
    pub fn failed(&self) -> usize {
        self.units.iter().filter(|u| !u.ok).count()
    }

    /// The median of the units' [`UnitResult::scale`] factors.
    pub fn scale(&self) -> f64 {
        let mut v: Vec<f64> = self.units.iter().map(UnitResult::scale).collect();
        median(&mut v)
    }
}

/// Runs `units` once, closed-loop: each unit starts when the previous one
/// ends. Fuzz seeds fan out over [`fuzz_threads`] workers of the
/// `ExperimentSet` that `run_fuzz_campaign` wraps, with each seed timed
/// inside its worker.
pub fn run_pass(units: &[Unit]) -> Pass {
    let start = Instant::now();
    let concurrent = matches!(units.first(), Some(Unit::Fuzz(_)));
    let results = if concurrent {
        ExperimentSet::new(units.to_vec())
            .threads(fuzz_threads())
            .run(run_unit)
    } else {
        units.iter().map(run_unit).collect()
    };
    Pass {
        units: results,
        wall_s: start.elapsed().as_secs_f64(),
        concurrent,
    }
}

/// The median of `v` (mean of the middle two for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile of `v`, estimated as a weighted mean of its order
/// statistics with weights from the Beta(q(n+1), (1−q)(n+1)) density at
/// the ranks' midpoints (a discretized Harrell–Davis estimator). Unlike a
/// single order statistic it moves smoothly when host noise swaps
/// neighbouring units, which matters when unit costs have gaps.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside (0, 1).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(
        !v.is_empty() && q > 0.0 && q < 1.0,
        "quantile {q} of {} values",
        v.len()
    );
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let log_w: Vec<f64> = (0..v.len())
        .map(|i| {
            let t = (i as f64 + 0.5) / n;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    let top = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut sum, mut total) = (0.0, 0.0);
    for (x, lw) in v.iter().zip(log_w) {
        let w = (lw - top).exp();
        sum += w * x;
        total += w;
    }
    sum / total
}

/// The highest percentile of `v` with at least ten values beyond it:
/// `(percentile, value)`, the value estimated by [`quantile`]. With fewer
/// than 20 values it is the maximum, reported as percentile 100.
pub fn tail(v: &mut [f64]) -> (u32, f64) {
    let n = v.len();
    if n < 20 {
        return (100, v.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }
    let q = (n - 10) as f64 / n as f64;
    ((100 * (n - 10) / n) as u32, quantile(v, q))
}

/// Peak resident set size of this process, in MiB, from `/proc`.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end summary of a run's passes.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// The metrics `BENCHMARK.json` lists under `end_to_end`.
    pub metrics: Vec<Metric>,
    /// Percentile `unit_ms_tail` reports.
    pub tail_percentile: u32,
    /// Digest of the first pass; every pass must match it.
    pub sim_digest: u64,
    /// Whether every pass produced `sim_digest`.
    pub deterministic: bool,
}

/// Summarizes `passes` (all over the same unit set). Host contention on a
/// shared machine comes in phases of seconds to a minute in which the
/// simulator runs up to 1.7× faster or slower, so two things steady the
/// figures (README, "Host spread"):
///
/// - every time is scaled to the reference host speed by the host-speed
///   sample taken next to it ([`UnitResult::scale`]);
/// - each unit's time is the [`UNIT_QUANTILE`] of its scaled times over the
///   passes, which reads the common, contended state of the host rather
///   than how much of the run a quiet phase happened to cover.
///
/// `wall_s` sums those per-unit figures, set-up included; a concurrent
/// pass (fuzz) has no per-unit wall, so there it is the same quantile of
/// the pass walls, each scaled by its units' median factor. `setup_s` sums
/// each unit's median scaled set-up time.
///
/// # Panics
///
/// Panics when `passes` is empty or a pass has no units.
pub fn end_to_end(passes: &[Pass], peak_rss_mb: f64) -> EndToEnd {
    let per_unit = |stat: &dyn Fn(&mut [f64]) -> f64, f: &dyn Fn(&UnitResult) -> f64| {
        (0..passes[0].units.len())
            .map(|i| {
                let mut v: Vec<f64> = passes
                    .iter()
                    .map(|p| f(&p.units[i]) * p.units[i].scale())
                    .collect();
                stat(&mut v)
            })
            .collect::<Vec<f64>>()
    };
    let upper = |v: &mut [f64]| quantile(v, UNIT_QUANTILE);
    let mut run_ms = per_unit(&upper, &|u| u.run_s * 1e3);
    let wall_s = if passes[0].concurrent {
        let mut v: Vec<f64> = passes.iter().map(|p| p.wall_s * p.scale()).collect();
        upper(&mut v)
    } else {
        per_unit(&upper, &|u| u.setup_s + u.run_s).iter().sum()
    };
    let setup_s = per_unit(&median, &|u| u.setup_s).iter().sum();
    let sim_digest = passes[0].digest();
    let m = |name, value, unit| Metric { name, value, unit };
    let (tail_percentile, tail_ms) = tail(&mut run_ms.clone());
    EndToEnd {
        metrics: vec![
            m("setup_s", setup_s, "s"),
            m("wall_s", wall_s, "s"),
            m("unit_ms_p50", quantile(&mut run_ms, 0.5), "ms"),
            m("unit_ms_tail", tail_ms, "ms"),
            m("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        tail_percentile,
        sim_digest,
        deterministic: passes.iter().all(|p| p.digest() == sim_digest),
    }
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// Deterministic counts the traced run accumulates.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    instrs: u64,
    run_calls: u64,
    tlb_lookups: u64,
    tlb_hits: u64,
    translates: u64,
    walk_levels: u64,
    faults: u64,
    issues: u64,
    ticks: u64,
    /// Coherence events dispatched; on explore, steps.
    events: u64,
    l1_hits: u64,
    l1_misses: u64,
    gets_wp: u64,
    upgrades: u64,
    invalidations: u64,
    install_retries: u64,
    install_stalls: u64,
    /// DRAM reads plus writes.
    dram_accesses: u64,
    row_hits: u64,
    /// DRAM accesses classified by row state (hit, closed, conflict).
    row_total: u64,
    fuzz_events: u64,
    schedules: u64,
    steps: u64,
    pruned: u64,
    sleep_skipped: u64,
    backtracks: u64,
    undo_bytes: u64,
    /// Distinct architectural outcomes, summed over trees.
    outcomes: u64,
    /// Distinct timing outcomes, summed over trees.
    timings: u64,
    roi_cycles: u64,
}

impl Counts {
    fn add_hierarchy(&mut self, h: &HierarchyStats) {
        self.events += h.dispatched;
        self.l1_hits += h.l1_hits;
        self.l1_misses += h.l1_misses;
        self.gets_wp += h.event(CoherenceEvent::GetsWp);
        self.upgrades += h.event(CoherenceEvent::Upgrade);
        self.invalidations += h.event(CoherenceEvent::Inv);
        self.install_retries += h.protocol.install_retries();
        self.install_stalls += h.protocol.install_stalls();
    }
}

/// Simulated result of one full-system point, for the Fig. 7/8 averages.
#[derive(Debug, Clone, Copy)]
struct Point {
    bench: usize,
    protocol: ProtocolKind,
    ipc: f64,
    roi_cycles: u64,
}

/// Everything the traced run measured.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Units run.
    pub attempted: usize,
    /// Units that failed a check.
    pub failed: usize,
    /// Self time per layer.
    pub self_times: SelfTimes,
    /// Host seconds the root spans cover (the traced wall time).
    root_s: f64,
    /// Untraced host seconds of the same units' reference runs.
    untraced_s: f64,
    counts: Counts,
    /// Campaign busy fraction (fuzz only).
    campaign_busy_frac: f64,
    costs: SubstrateCosts,
    /// Digest over the units' simulated statistics.
    pub sim_digest: u64,
    points: Vec<Point>,
    /// Spans of the first unit, as TSV.
    pub first_unit_spans: Vec<u8>,
}

impl TracedRun {
    /// Traced wall seconds: the root spans' total.
    pub fn traced_wall_s(&self) -> f64 {
        self.root_s
    }

    /// Whether the layers' self times add back up to the traced wall time.
    pub fn layers_add_up(&self) -> bool {
        (self.self_times.total() - self.root_s).abs() <= 1e-9 * self.root_s.max(1.0)
    }
}

/// Runs every unit of `workload` once with spans around each call into a
/// simulator crate, checks each against its untraced reference, and
/// gathers counts and substrate costs.
pub fn traced_run(workload: Workload, seed: u64) -> TracedRun {
    let units = units(workload, seed);
    let mut run = TracedRun {
        attempted: units.len(),
        failed: 0,
        self_times: SelfTimes::default(),
        root_s: 0.0,
        untraced_s: 0.0,
        counts: Counts::default(),
        campaign_busy_frac: 0.0,
        costs: SubstrateCosts::measure(),
        sim_digest: 0,
        points: Vec::new(),
        first_unit_spans: Vec::new(),
    };
    let mut digest = Fnv::default();
    for (i, unit) in units.iter().enumerate() {
        let log = SpanLog::shared();
        let ok = catch_unwind(AssertUnwindSafe(|| {
            traced_unit(unit, &log, &mut run, &mut digest)
        }))
        .unwrap_or(false);
        if !ok {
            run.failed += 1;
            continue;
        }
        if i == 0 {
            log.borrow()
                .write_tsv(&mut run.first_unit_spans, MAX_WRITTEN_SPANS)
                .expect("writing to memory");
        }
        run.root_s += log.borrow().root_secs();
        let folded = log.borrow_mut().fold();
        run.self_times.merge(&folded);
    }
    if workload == Workload::FuzzCampaign {
        let (busy, failed) = campaign_check(&units);
        run.campaign_busy_frac = busy;
        run.failed += failed;
    }
    run.sim_digest = digest.get();
    run
}

/// Runs one unit traced and untraced; returns whether they agree and the
/// unit's own checks pass.
fn traced_unit(unit: &Unit, log: &SharedLog, run: &mut TracedRun, digest: &mut Fnv) -> bool {
    match unit {
        Unit::Spec { .. } | Unit::Parsec { .. } => {
            let (mut sys, cfg) = build_system(unit, &mut OnSystem);
            let t = Instant::now();
            let reference = sys.run_to_completion();
            run.untraced_s += t.elapsed().as_secs_f64();
            let ref_tlb: Vec<_> = (0..cfg.cores).map(|c| sys.tlb_stats(c)).collect();

            let mut deferred = Deferred::default();
            let (mut layout, cfg) = build_system(unit, &mut deferred);
            let mut replica = Replica::new(cfg, &mut layout, log.clone());
            for start in deferred.0 {
                start(&mut replica);
            }
            let traced = replica.run();

            digest.add(digest_run(&reference));
            let c = &mut run.counts;
            c.instrs += reference.instructions();
            c.run_calls += traced.counts.run_calls;
            for s in &traced.tlb {
                c.tlb_lookups += s.hits + s.misses;
                c.tlb_hits += s.hits;
            }
            c.translates += traced.counts.translates;
            c.walk_levels += traced.counts.walk_levels;
            c.faults += traced.counts.faults;
            c.issues += traced.counts.issues;
            c.ticks += traced.counts.ticks;
            c.add_hierarchy(&reference.hierarchy);
            let m = &reference.memory;
            c.dram_accesses += m.reads + m.writes;
            c.row_hits += m.row_hits;
            c.row_total += m.row_hits + m.row_closed + m.row_conflicts;
            c.roi_cycles += reference.roi_cycles();
            let (bench, protocol) = match unit {
                Unit::Spec {
                    bench, protocol, ..
                } => (
                    SpecBenchmark::ALL.iter().position(|b| b == bench),
                    *protocol,
                ),
                Unit::Parsec { bench, protocol } => (
                    ParsecBenchmark::ALL.iter().position(|b| b == bench),
                    *protocol,
                ),
                _ => unreachable!(),
            };
            run.points.push(Point {
                bench: bench.expect("listed benchmark"),
                protocol,
                ipc: reference.ipc(),
                roi_cycles: reference.roi_cycles(),
            });
            traced.stats == reference
                && traced.tlb == ref_tlb
                && reference.instructions() == expected_instructions(unit)
        }
        Unit::Fuzz(cfg) => {
            let t = Instant::now();
            let reference = run_fuzz(cfg);
            run.untraced_s += t.elapsed().as_secs_f64();

            let report = timed(log, Layer::Loop, || {
                let file = timed(log, Layer::FuzzGenerate, || cfg.stream_file());
                // `replay` rebuilds a one-bank hierarchy (a stream file
                // records no bank count), so a sharded seed's traced run
                // is `run_fuzz` itself.
                timed(log, Layer::FuzzReplay, || {
                    if cfg.banks == 1 {
                        swiftdir_core::replay(&file)
                    } else {
                        run_fuzz(cfg)
                    }
                })
            });
            digest.add(reference.digest);
            let c = &mut run.counts;
            c.fuzz_events += reference.events;
            c.add_hierarchy(&reference.stats);
            reference.ok()
                && report.ok()
                && report.digest == reference.digest
                && report.events == reference.events
                && reference.completions == cfg.ops
        }
        Unit::Explore { seed, protocol } => {
            let (hcfg, stream) = explore_inputs(*seed, *protocol);
            let t = Instant::now();
            let (reference, _) =
                explore_parallel_profiled(&hcfg, &stream, &ExploreConfig::default(), 1);
            run.untraced_s += t.elapsed().as_secs_f64();

            let (report, profile) = timed(log, Layer::Loop, || {
                let (hcfg, stream) = timed(log, Layer::ExploreGenerate, || {
                    explore_inputs(*seed, *protocol)
                });
                timed(log, Layer::Explore, || {
                    explore_parallel_profiled(&hcfg, &stream, &ExploreConfig::default(), 1)
                })
            });
            digest.add(reference.digest());
            let c = &mut run.counts;
            c.schedules += report.schedules;
            c.steps += report.steps;
            c.events += report.steps;
            c.pruned += report.pruned;
            c.sleep_skipped += report.sleep_skipped;
            c.outcomes += report.outcomes.len() as u64;
            c.timings += report.timings.len() as u64;
            for d in &profile.depths {
                c.backtracks += d.backtracks;
                c.undo_bytes += d.undo_bytes;
            }
            reference.exhaustive_and_clean() && report.digest() == reference.digest()
        }
    }
}

/// Runs the fuzz pass through `run_fuzz_campaign` and through the timed
/// fan-out; returns the timed fan-out's busy fraction (summed seed time
/// over threads × wall) and how many seeds disagree between the two.
fn campaign_check(units: &[Unit]) -> (f64, usize) {
    let configs: Vec<FuzzConfig> = units
        .iter()
        .map(|u| match u {
            Unit::Fuzz(cfg) => *cfg,
            _ => unreachable!("fuzz units only"),
        })
        .collect();
    let threads = fuzz_threads();
    let campaign = run_fuzz_campaign(&configs, Some(threads), None);
    let pass = run_pass(units);
    let busy: f64 = pass.units.iter().map(|u| u.setup_s + u.run_s).sum();
    let mismatched = campaign
        .iter()
        .zip(&pass.units)
        .filter(|(r, u)| !r.ok() || r.digest != u.digest || !u.ok)
        .count();
    (busy / (threads as f64 * pass.wall_s), mismatched)
}

/// Mean over benchmarks of the percent performance change of `protocol`
/// over MESI, positive when faster: the IPC change for Fig. 7, the
/// negated ROI-time change for Fig. 8.
fn vs_mesi_pct(points: &[Point], protocol: ProtocolKind, by_ipc: bool) -> Option<f64> {
    let value = |p: &Point| {
        if by_ipc {
            p.ipc
        } else {
            p.roi_cycles as f64
        }
    };
    let benches = points.iter().map(|p| p.bench).max()? + 1;
    let mut sum = 0.0;
    for b in 0..benches {
        let find = |k| points.iter().find(|p| p.bench == b && p.protocol == k);
        let (base, other) = (find(ProtocolKind::Mesi)?, find(protocol)?);
        let change = (value(other) / value(base) - 1.0) * 100.0;
        sum += if by_ipc { change } else { -change };
    }
    Some(sum / benches as f64)
}

/// Spans written out from the first unit (a parsec point records
/// millions).
const MAX_WRITTEN_SPANS: usize = 200_000;

/// Paper averages EXPERIMENTS.md quotes, as `(SwiftDir, S-MESI)` percent
/// performance change over MESI: Fig. 7 IPC (+0.03 %, −0.005 %) and
/// Fig. 8 ROI time (−2.01 %, +0.41 %, negated).
const PAPER_FIG7_PCT: (f64, f64) = (0.03, -0.005);
const PAPER_FIG8_PCT: (f64, f64) = (2.01, -0.41);

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run, every name present on every
/// workload (a layer the workload does not use reads 0).
pub fn per_layer_metrics(workload: Workload, t: &TracedRun, host_calib_ms: f64) -> Vec<Metric> {
    let s = &t.self_times;
    let c = &t.counts;
    let wall = t.traced_wall_s();
    let frac = |l: Layer| ratio(s.secs(l), wall);
    let k = &t.costs;
    // Host seconds in the calls that drive the coherence protocol, and
    // the per-event queue cost of the path they take.
    let (coherence_s, queue_ns) = match workload {
        Workload::SpecO3 | Workload::Parsec4c => {
            (s.secs(Layer::Issue) + s.secs(Layer::Tick), k.queue_batch_ns)
        }
        Workload::FuzzCampaign => (s.secs(Layer::FuzzReplay), k.queue_pop_ns),
        Workload::ExploreDfs => (s.secs(Layer::Explore), k.queue_pop_ns),
    };
    let events = c.events as f64;
    let attributed_s =
        (events * (queue_ns + k.cache_ns) + c.dram_accesses as f64 * k.dram_ns) / 1e9;
    let (fig, by_ipc) = match workload {
        Workload::SpecO3 => (Some(PAPER_FIG7_PCT), true),
        Workload::Parsec4c => (Some(PAPER_FIG8_PCT), false),
        _ => (None, true),
    };
    let swift = vs_mesi_pct(&t.points, ProtocolKind::SwiftDir, by_ipc).unwrap_or(0.0);
    let smesi = vs_mesi_pct(&t.points, ProtocolKind::SMesi, by_ipc).unwrap_or(0.0);
    let paper_error = fig.map_or(0.0, |(ps, pm)| {
        ((swift - ps).abs() + (smesi - pm).abs()) / 2.0
    });
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("workloads.next_instr_frac", frac(Layer::NextInstr), "frac"),
        m("workloads.instrs", c.instrs as f64, "count"),
        m("cpu.run_self_frac", frac(Layer::Cpu), "frac"),
        m("cpu.run_calls", c.run_calls as f64, "count"),
        m(
            "cpu.instrs_per_call",
            ratio(c.instrs as f64, c.run_calls as f64),
            "ratio",
        ),
        m("mmu.tlb_frac", frac(Layer::Tlb), "frac"),
        m("mmu.tlb_lookups", c.tlb_lookups as f64, "count"),
        m(
            "mmu.tlb_hit_ratio",
            ratio(c.tlb_hits as f64, c.tlb_lookups as f64),
            "ratio",
        ),
        m("mmu.translate_frac", frac(Layer::Translate), "frac"),
        m("mmu.translates", c.translates as f64, "count"),
        m("mmu.walk_levels", c.walk_levels as f64, "count"),
        m("mmu.faults", c.faults as f64, "count"),
        m("mmu.tlb_ns_per_lookup", k.tlb_ns, "ns"),
        m("coherence.issue_frac", frac(Layer::Issue), "frac"),
        m("coherence.issues", c.issues as f64, "count"),
        m("coherence.tick_frac", frac(Layer::Tick), "frac"),
        m("coherence.ticks", c.ticks as f64, "count"),
        m("coherence.events", events, "count"),
        m(
            "coherence.events_per_instr",
            ratio(events, c.instrs as f64),
            "ratio",
        ),
        m(
            "coherence.ns_per_event",
            ratio(coherence_s * 1e9, events),
            "ns",
        ),
        m(
            "coherence.l1_hit_ratio",
            ratio(c.l1_hits as f64, (c.l1_hits + c.l1_misses) as f64),
            "ratio",
        ),
        m("coherence.gets_wp", c.gets_wp as f64, "count"),
        m("coherence.upgrades", c.upgrades as f64, "count"),
        m("coherence.invalidations", c.invalidations as f64, "count"),
        m(
            "coherence.install_retries",
            c.install_retries as f64,
            "count",
        ),
        m("coherence.install_stalls", c.install_stalls as f64, "count"),
        m(
            "coherence.tick_unattributed_frac",
            ratio(coherence_s - attributed_s, coherence_s),
            "frac",
        ),
        m("engine.queue_ns_per_op", k.queue_batch_ns, "ns"),
        m("engine.queue_pop_ns_per_op", k.queue_pop_ns, "ns"),
        m("cache.array_ns_per_op", k.cache_ns, "ns"),
        m("mem.dram_ns_per_access", k.dram_ns, "ns"),
        m("mem.dram_accesses", c.dram_accesses as f64, "count"),
        m(
            "mem.row_hit_ratio",
            ratio(c.row_hits as f64, c.row_total as f64),
            "ratio",
        ),
        m("core.fuzz_generate_frac", frac(Layer::FuzzGenerate), "frac"),
        m("core.fuzz_replay_frac", frac(Layer::FuzzReplay), "frac"),
        m("core.fuzz_events", c.fuzz_events as f64, "count"),
        m("core.campaign_busy_frac", t.campaign_busy_frac, "frac"),
        m(
            "core.explore_generate_frac",
            frac(Layer::ExploreGenerate),
            "frac",
        ),
        m("core.explore_frac", frac(Layer::Explore), "frac"),
        m("core.explore_schedules", c.schedules as f64, "count"),
        m("core.explore_steps", c.steps as f64, "count"),
        m("core.explore_pruned", c.pruned as f64, "count"),
        m(
            "core.explore_sleep_skipped",
            c.sleep_skipped as f64,
            "count",
        ),
        m(
            "core.explore_useful_ratio",
            ratio(
                c.schedules as f64,
                (c.schedules + c.pruned + c.sleep_skipped) as f64,
            ),
            "ratio",
        ),
        m("core.explore_backtracks", c.backtracks as f64, "count"),
        m("core.explore_undo_bytes", c.undo_bytes as f64, "bytes"),
        m("core.explore_outcomes", c.outcomes as f64, "count"),
        m("core.explore_timings", c.timings as f64, "count"),
        m("core.roi_cycles", c.roi_cycles as f64, "cycles"),
        m(
            "core.ipc",
            ratio(c.instrs as f64, c.roi_cycles as f64),
            "ratio",
        ),
        m("core.swiftdir_vs_mesi_pct", swift, "%"),
        m("core.smesi_vs_mesi_pct", smesi, "%"),
        m("core.paper_error_pp", paper_error, "pp"),
        m("core.loop_other_frac", frac(Layer::Loop), "frac"),
        m("core.traced_wall_s", wall, "s"),
        m("bench.host_calib_ms", host_calib_ms, "ms"),
        m("bench.trace_overhead", ratio(wall, t.untraced_s), "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_engine::Json;

    fn listed(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        json.get(section)
            .and_then(Json::as_array)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        let pass = Pass {
            units: vec![UnitResult::default(); 25],
            wall_s: 1.0,
            concurrent: false,
        };
        assert_eq!(
            reported(&end_to_end(&[pass], 1.0).metrics),
            listed("end_to_end")
        );
        let run = TracedRun {
            attempted: 0,
            failed: 0,
            self_times: SelfTimes::default(),
            root_s: 0.0,
            untraced_s: 0.0,
            counts: Counts::default(),
            campaign_busy_frac: 0.0,
            costs: SubstrateCosts {
                queue_batch_ns: 1.0,
                queue_pop_ns: 1.0,
                cache_ns: 1.0,
                tlb_ns: 1.0,
                dram_ns: 1.0,
            },
            sim_digest: 0,
            points: Vec::new(),
            first_unit_spans: Vec::new(),
        };
        for w in Workload::ALL {
            assert_eq!(
                reported(&per_layer_metrics(w, &run, 1.0)),
                listed("per_layer")
            );
        }
    }

    #[test]
    fn end_to_end_scales_times_to_the_reference_host() {
        // The same unit twice: once at the reference speed, once on a host
        // half as fast. Both passes read 10 ms once scaled.
        let unit = |run_s, speed_ms| UnitResult {
            setup_s: run_s / 10.0,
            run_s,
            ok: true,
            speed_ms,
            ..UnitResult::default()
        };
        let pass = |u: UnitResult| Pass {
            units: vec![u; 25],
            wall_s: 0.0,
            concurrent: false,
        };
        let passes = [
            pass(unit(0.010, HOST_SPEED_REF_MS)),
            pass(unit(0.020, 2.0 * HOST_SPEED_REF_MS)),
        ];
        let summary = end_to_end(&passes, 1.0);
        let value = |name| {
            summary
                .metrics
                .iter()
                .find(|m| m.name == name)
                .expect(name)
                .value
        };
        assert!((value("unit_ms_p50") - 10.0).abs() < 1e-9);
        assert!((value("unit_ms_tail") - 10.0).abs() < 1e-9);
        assert!((value("wall_s") - 25.0 * 0.011).abs() < 1e-9);
        assert!((value("setup_s") - 25.0 * 0.001).abs() < 1e-9);
    }

    #[test]
    fn quantiles_of_an_even_spread() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert!((quantile(&mut v, 0.5) - 50.5).abs() < 1e-9);
        let (pct, t) = tail(&mut v);
        assert_eq!(pct, 90);
        assert!((t - 90.9).abs() < 0.5, "{t}");
        let mut few = vec![3.0, 1.0, 2.0];
        assert_eq!(tail(&mut few), (100, 3.0));
    }

    #[test]
    fn seed_zero_is_the_fig7_grid() {
        let units = units(Workload::SpecO3, 0);
        assert_eq!(units.len(), 69);
        for u in &units {
            let Unit::Spec { bench, seed, .. } = u else {
                panic!("spec units only")
            };
            assert_eq!(*seed, bench.seed());
        }
    }
}
