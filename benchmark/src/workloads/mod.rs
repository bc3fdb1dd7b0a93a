//! The six workloads and the protocol every one of them follows:
//! set-up → warm-up → one measured window → verification.

pub mod serve;
pub mod stream_fresh;
pub mod train_dist;
pub mod train_local;

use crate::catalog::LayerMetrics;
use crate::hist::{percentile_sorted, LogHistogram};
use crate::trace::Tracer;
use sisg_core::SisgModel;
use sisg_corpus::split::{EvalCase, NextItemSplit, SplitStage};
use sisg_corpus::{Corpus, CorpusConfig, GeneratedCorpus};
use sisg_eval::evaluate_hit_rates;
use std::time::{Duration, Instant};

/// Candidates per request and the HR / recall cutoff.
pub const K: usize = 10;
/// Catalog size of the trained workloads (`CorpusConfig::scaled`).
pub const TRAIN_ITEMS: u32 = 2_400;
/// Engines run two shards: the host has two cores.
pub const N_SHARDS: usize = 2;
/// Share of a window's time run unrecorded before it, inside `setup_s`,
/// so caches, page tables and lazy initialisation are warm.
pub const WARMUP_SHARE: f64 = 0.05;
/// Length of one slice of a timed window. The reference host's cores move
/// between two speeds about 28 % apart and stay on one for anything from
/// a fraction of a second to half a minute, so the mean over a window
/// does not repeat; the best quarter second does more often (README,
/// "Noise").
pub const SLICE: Duration = Duration::from_millis(250);

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl RunConfig {
    /// Length of one measured window. A traced run splits `seconds` into
    /// an untraced and a traced window, so that it takes no longer than
    /// an untraced run and the two throughputs give the tracing overhead.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }
}

/// What one measured window produced.
///
/// The timings are taken over the whole window. The window is also cut
/// into slices — [`SLICE`] of a timed loop, one training job, one
/// publication cycle — and the best slice is reported beside them: what
/// slows a slice down is mostly the host, and nothing speeds one up.
#[derive(Debug, Default)]
pub struct Window {
    /// Operations attempted, in the workload's own unit.
    pub attempted: u64,
    /// Operations that failed or were shed.
    pub failed: u64,
    /// Work completed per second (pairs, requests, events).
    pub ops_per_s: f64,
    /// Median and 90th-percentile latency of one operation, µs.
    pub p50_us: f64,
    /// See `p50_us`.
    pub p90_us: f64,
    /// Latency samples behind the two percentiles.
    pub latency_samples: u64,
    /// Work completed per second in every slice.
    pub slice_ops_per_s: Vec<f64>,
    /// Median latency in every slice that timed operations, µs.
    pub slice_p50_us: Vec<f64>,
}

impl Window {
    /// Throughput of the fastest slice.
    pub fn best_ops_per_s(&self) -> f64 {
        self.slice_ops_per_s.iter().copied().fold(0.0, f64::max)
    }

    /// Median latency of the slice where it was lowest, µs.
    pub fn best_p50_us(&self) -> f64 {
        let lowest = self
            .slice_p50_us
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if lowest.is_finite() {
            lowest
        } else {
            0.0
        }
    }

    /// A window of back-to-back jobs, each one slice. A job is one call
    /// and has no per-operation sample: the latencies are the jobs' wall
    /// times.
    pub fn from_jobs(jobs: &[(u64, Duration)]) -> Self {
        let slice_p50_us: Vec<f64> = jobs.iter().map(|(_, w)| w.as_secs_f64() * 1e6).collect();
        let mut sorted_us = slice_p50_us.clone();
        sorted_us.sort_by(f64::total_cmp);
        let ops: u64 = jobs.iter().map(|(ops, _)| ops).sum();
        let seconds: f64 = jobs.iter().map(|(_, w)| w.as_secs_f64()).sum();
        Self {
            attempted: jobs.len() as u64,
            failed: 0,
            ops_per_s: ops as f64 / seconds,
            p50_us: percentile_sorted(&sorted_us, 0.5),
            p90_us: percentile_sorted(&sorted_us, 0.9),
            latency_samples: jobs.len() as u64,
            slice_ops_per_s: jobs
                .iter()
                .map(|(ops, w)| *ops as f64 / w.as_secs_f64())
                .collect(),
            slice_p50_us,
        }
    }
}

/// Runs `job` back to back, at least once, until `duration` has passed.
/// `job` gets its index and returns the operations it completed; the
/// result is every job's operations and wall time.
pub fn run_jobs(duration: Duration, mut job: impl FnMut(u64) -> u64) -> Vec<(u64, Duration)> {
    let started = Instant::now();
    let mut jobs = Vec::new();
    loop {
        let job_started = Instant::now();
        let ops = job(jobs.len() as u64);
        jobs.push((ops, job_started.elapsed()));
        if started.elapsed() >= duration {
            return jobs;
        }
    }
}

/// Cuts a timed loop into slices of [`SLICE`] as its operations complete.
pub struct Slicer {
    started: Instant,
    slice_started: Instant,
    slice_ops: u64,
    slice: LogHistogram,
    all: LogHistogram,
    window: Window,
}

impl Slicer {
    /// A slicer whose window and first slice start at `started`.
    pub fn new(started: Instant) -> Self {
        Self {
            started,
            slice_started: started,
            slice_ops: 0,
            slice: LogHistogram::new(),
            all: LogHistogram::new(),
            window: Window::default(),
        }
    }

    /// One operation that completed at `now` after `latency_ns`.
    #[inline]
    pub fn record(&mut self, now: Instant, latency_ns: u64) {
        self.slice.record(latency_ns);
        self.all.record(latency_ns);
        self.slice_ops += 1;
        let elapsed = now.saturating_duration_since(self.slice_started);
        if elapsed >= SLICE {
            self.window
                .slice_ops_per_s
                .push(self.slice_ops as f64 / elapsed.as_secs_f64());
            self.window.slice_p50_us.push(self.slice.quantile_us(0.5));
            self.slice.clear();
            self.slice_ops = 0;
            self.slice_started = now;
        }
    }

    /// Latency quantile over the whole window so far, µs.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.all.quantile_us(q)
    }

    /// The window, ended now. The unfinished last slice counts towards
    /// the whole-window figures only.
    pub fn finish(self, attempted: u64, failed: u64) -> Window {
        Window {
            attempted,
            failed,
            ops_per_s: self.all.count() as f64 / self.started.elapsed().as_secs_f64(),
            p50_us: self.all.quantile_us(0.5),
            p90_us: self.all.quantile_us(0.9),
            latency_samples: self.all.count(),
            ..self.window
        }
    }
}

/// The verification result of a run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// HR@10, recall@10 or answer parity — the output-correctness number.
    pub quality_at_10: f64,
    /// Every gate the run failed; empty means the outputs are correct.
    pub failures: Vec<String>,
}

impl Verdict {
    /// Records a failed gate unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One workload. `Inputs` are generated from the seed alone; `Prepared`
/// is the system under test, built from them and warmed up. Both halves
/// are inside `setup_s`.
pub trait Workload {
    /// The workload's name in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Seed-determined inputs (corpus, catalogs, request streams).
    type Inputs;
    /// The trained / started system, possibly borrowing the inputs.
    type Prepared<'a>;

    /// Generates the inputs from the seed.
    fn inputs(cfg: &RunConfig, tr: &mut Tracer, layer: &mut LayerMetrics) -> Self::Inputs;

    /// Builds the system, computes reference answers and warms up.
    fn prepare<'a>(
        cfg: &RunConfig,
        inputs: &'a Self::Inputs,
        tr: &mut Tracer,
        layer: &mut LayerMetrics,
    ) -> Self::Prepared<'a>;

    /// Runs one measured window of [`RunConfig::window`].
    fn measure(
        prepared: &mut Self::Prepared<'_>,
        tr: &mut Tracer,
        layer: &mut LayerMetrics,
    ) -> Window;

    /// Direct probes of the layers' public functions on the workload's own
    /// data. Traced run only, outside every timed section.
    fn probes(prepared: &Self::Prepared<'_>, tr: &mut Tracer, layer: &mut LayerMetrics);

    /// Checks the outputs of the last window. Outside the window.
    fn verify(
        prepared: Self::Prepared<'_>,
        window: &Window,
        tr: &mut Tracer,
        layer: &mut LayerMetrics,
    ) -> Verdict;

    /// FNV-1a checksum of the seed-determined request / event stream.
    fn input_checksum(inputs: &Self::Inputs) -> u64;
}

/// Everything a finished run reports.
pub struct RunResult {
    /// Process start to the first measured operation, seconds.
    pub setup_s: f64,
    /// The last measured window: the only one of an untraced run, the
    /// traced one of a traced run.
    pub window: Window,
    /// Verification of the last window.
    pub verdict: Verdict,
    /// Checksum of the generated inputs.
    pub input_checksum: u64,
    /// Per-layer metrics (meaningful in a traced run).
    pub layer: LayerMetrics,
    /// Spans of the traced run (empty otherwise).
    pub tracer: Tracer,
}

/// Runs one workload under the common protocol: set up, measure one
/// window, verify. A traced run records spans, measures an untraced and a
/// traced window (their throughput ratio is the tracing overhead) and
/// probes the layers before it verifies. `process_started` is where
/// `setup_s` begins.
pub fn drive<W: Workload>(cfg: &RunConfig, process_started: Instant) -> RunResult {
    let mut layer = LayerMetrics::default();
    let mut tracer = Tracer::new(cfg.trace);
    let mut off = Tracer::new(false);
    let inputs = W::inputs(cfg, &mut tracer, &mut layer);
    let mut prepared = W::prepare(cfg, &inputs, &mut tracer, &mut layer);
    let setup_s = process_started.elapsed().as_secs_f64();

    // The window's timings always come from a window without spans.
    let untraced = W::measure(&mut prepared, &mut off, &mut layer);
    layer.set("ops_per_s", untraced.ops_per_s);
    layer.set("ops_per_s_best_slice", untraced.best_ops_per_s());
    layer.set("latency_p50_us", untraced.p50_us);
    layer.set("latency_p50_us_best_slice", untraced.best_p50_us());
    layer.set("latency_p90_us", untraced.p90_us);
    let window = if cfg.trace {
        let traced = W::measure(&mut prepared, &mut tracer, &mut layer);
        layer.set(
            "trace.overhead_share",
            1.0 - traced.ops_per_s / untraced.ops_per_s,
        );
        W::probes(&prepared, &mut tracer, &mut layer);
        traced
    } else {
        untraced
    };
    let input_checksum = W::input_checksum(&inputs);
    let verdict = W::verify(prepared, &window, &mut tracer, &mut layer);
    layer.set("trace.spans_total", tracer.spans().len() as f64);
    RunResult {
        setup_s,
        window,
        verdict,
        input_checksum,
        layer,
        tracer,
    }
}

/// The scaled corpus of the trained workloads with its next-item split:
/// the model trains on every sequence minus its last click and is scored
/// on retrieving that click (Section IV-A).
pub struct SplitCorpus {
    /// Catalog, users and the *training* sessions.
    pub train: GeneratedCorpus,
    /// Held-out next-item cases.
    pub eval: Vec<EvalCase>,
}

/// Generates the `n_items` corpus for `seed` and splits it.
pub fn split_corpus(
    n_items: u32,
    seed: u64,
    tr: &mut Tracer,
    layer: &mut LayerMetrics,
) -> SplitCorpus {
    let (full, generate_s) = timed(tr, "corpus.generate", || {
        GeneratedCorpus::generate(CorpusConfig::scaled(n_items, seed))
    });
    layer.set("corpus.generate_s", generate_s);
    let split = NextItemSplit::default().split(&full.sessions, SplitStage::Test);
    SplitCorpus {
        train: GeneratedCorpus {
            sessions: split.train,
            ..full
        },
        eval: split.eval,
    }
}

/// Runs `f` inside a span and returns its result with its wall time in
/// seconds.
pub fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = tr.span(name, None, 0, f);
    (out, started.elapsed().as_secs_f64())
}

/// The first `n` sessions of a corpus.
pub fn head_sessions(sessions: &Corpus, n: usize) -> Corpus {
    let mut head = Corpus::new();
    for s in sessions.iter().take(n) {
        head.push(s.user, s.items);
    }
    head
}

/// Clicks per item over a session corpus (the serving cold threshold).
pub fn click_counts(sessions: &Corpus, n_items: u32) -> Vec<u64> {
    let mut clicks = vec![0u64; n_items as usize];
    for s in sessions.iter() {
        for it in s.items {
            clicks[it.index()] += 1;
        }
    }
    clicks
}

/// HR@10 of `model` on the held-out next items, gated by `floor`.
pub fn hit_rate_verdict(
    model: &SisgModel,
    eval: &[EvalCase],
    floor: f64,
    tr: &mut Tracer,
    layer: &mut LayerMetrics,
) -> Verdict {
    let (hr, hitrate_s) = timed(tr, "eval.hit_rates", || {
        evaluate_hit_rates("benchmark", model, eval, &[K])
    });
    layer.set("eval.hitrate_s", hitrate_s);
    let hr10 = hr.at(K).unwrap_or(0.0);
    let mut verdict = Verdict {
        quality_at_10: hr10,
        ..Default::default()
    };
    verdict.require(hr10 >= floor, || {
        format!("HR@10 {hr10:.4} is below the floor {floor}")
    });
    verdict
}

/// Streaming FNV-1a, for input checksums.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word.
    pub fn fold(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Checksum of a session corpus: every user and click, in order.
pub fn sessions_checksum(sessions: &Corpus) -> u64 {
    let mut h = Fnv::default();
    for s in sessions.iter() {
        h.fold(u64::from(s.user.0));
        h.fold(s.items.len() as u64);
        for it in s.items {
            h.fold(u64::from(it.0));
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checksum<W: Workload>(seed: u64) -> u64 {
        let cfg = RunConfig {
            seed,
            seconds: 1.0,
            trace: false,
        };
        let inputs = W::inputs(&cfg, &mut Tracer::new(false), &mut LayerMetrics::default());
        W::input_checksum(&inputs)
    }

    fn seed_fixes_inputs<W: Workload>() {
        let a = checksum::<W>(7);
        assert_eq!(a, checksum::<W>(7), "{}: same seed, other inputs", W::NAME);
        assert_ne!(a, checksum::<W>(8), "{}: seed is ignored", W::NAME);
    }

    #[test]
    fn same_seed_gives_the_same_stream_on_every_workload() {
        seed_fixes_inputs::<train_local::TrainLocal>();
        seed_fixes_inputs::<train_dist::TrainDist>();
        seed_fixes_inputs::<serve::ServeHot>();
        seed_fixes_inputs::<serve::ServeColdBrute>();
        seed_fixes_inputs::<serve::ServeColdQuant>();
        seed_fixes_inputs::<stream_fresh::StreamFresh>();
    }

    #[test]
    fn cold_workloads_share_one_request_stream() {
        assert_eq!(
            checksum::<serve::ServeColdBrute>(11),
            checksum::<serve::ServeColdQuant>(11)
        );
    }

    #[test]
    fn a_window_of_jobs_reports_rates_and_wall_times() {
        let jobs = [
            (1_000, Duration::from_millis(500)),
            (1_000, Duration::from_millis(250)),
            (1_000, Duration::from_millis(250)),
        ];
        let w = Window::from_jobs(&jobs);
        assert_eq!((w.attempted, w.failed, w.latency_samples), (3, 0, 3));
        assert_eq!(w.slice_ops_per_s, vec![2_000.0, 4_000.0, 4_000.0]);
        assert_eq!(w.slice_p50_us, vec![500_000.0, 250_000.0, 250_000.0]);
        assert_eq!(w.ops_per_s, 3_000.0);
        assert_eq!((w.p50_us, w.p90_us), (250_000.0, 500_000.0));
        assert_eq!((w.best_ops_per_s(), w.best_p50_us()), (4_000.0, 250_000.0));
        let empty = Window::default();
        assert_eq!((empty.best_ops_per_s(), empty.best_p50_us()), (0.0, 0.0));
    }

    #[test]
    fn run_jobs_runs_one_job_when_the_time_is_already_up() {
        let jobs = run_jobs(Duration::ZERO, |job| job + 7);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].0, 7);
    }

    #[test]
    fn run_jobs_goes_on_until_the_time_is_up() {
        let jobs = run_jobs(Duration::from_millis(20), |job| {
            std::thread::sleep(Duration::from_millis(5));
            job
        });
        // Every job sleeps 5 ms or more, so the fourth ends past 20 ms.
        assert!((1..=4).contains(&jobs.len()));
        assert_eq!(
            jobs.last().map(|(ops, _)| *ops),
            Some(jobs.len() as u64 - 1)
        );
        let wall: Duration = jobs.iter().map(|(_, wall)| *wall).sum();
        assert!(wall >= Duration::from_millis(5 * jobs.len() as u64));
    }

    #[test]
    fn the_slicer_cuts_a_steady_stream_into_equal_slices() {
        let started = Instant::now();
        let mut slicer = Slicer::new(started);
        // One operation every 10 ms for a second; the k-th took k µs.
        for k in 1..=100u64 {
            slicer.record(started + Duration::from_millis(10 * k), 1_000 * k);
        }
        assert!((slicer.quantile_us(0.5) - 50.0).abs() < 0.5);
        let w = slicer.finish(100, 0);
        // Slices close at 250, 500, 750 and 1000 ms, 25 operations each.
        assert_eq!(w.slice_ops_per_s, vec![100.0; 4]);
        assert_eq!((w.attempted, w.latency_samples), (100, 100));
        for (slice, p50) in w.slice_p50_us.iter().enumerate() {
            let want = 25.0 * slice as f64 + 13.0;
            assert!((p50 - want).abs() < 0.5, "slice {slice}: p50 {p50}");
        }
        assert!((w.best_p50_us() - 13.0).abs() < 0.5);
        assert!((w.p90_us - 90.0).abs() < 1.0);
    }

    #[test]
    fn an_unfinished_slice_counts_towards_the_whole_window_only() {
        let started = Instant::now();
        let mut slicer = Slicer::new(started);
        for k in 1..=30u64 {
            slicer.record(started + Duration::from_millis(10 * k), 5_000);
        }
        let w = slicer.finish(30, 0);
        assert_eq!(w.slice_ops_per_s.len(), 1);
        assert_eq!(w.latency_samples, 30);
    }

    #[test]
    fn head_sessions_takes_the_leading_sessions() {
        let corpus = GeneratedCorpus::generate(CorpusConfig::tiny());
        let head = head_sessions(&corpus.sessions, 7);
        assert_eq!(head.len(), 7);
        assert_eq!(head.session(6).items, corpus.sessions.session(6).items);
        assert_eq!(
            head_sessions(&corpus.sessions, usize::MAX).len(),
            corpus.sessions.len()
        );
    }
}
