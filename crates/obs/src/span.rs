//! Wall-clock primitives: [`Stopwatch`] and the histogram-feeding [`Span`].
//!
//! These are the only sanctioned sources of elapsed time outside tests —
//! `xtask lint` bans raw `Instant::now()` elsewhere so a report struct and
//! an obs snapshot can never disagree about the same wall-clock.

use crate::lock;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A plain monotonic timer: report structs (`TrainStats.seconds`,
/// `DistReport.seconds`, …) take their wall-clock from here.
///
/// # Examples
///
/// ```
/// let w = sisg_obs::Stopwatch::start();
/// let _work: u64 = (0..1000).sum();
/// assert!(w.elapsed_seconds() >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Time since [`Stopwatch::start`], in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// A named timed scope. On [`Span::finish`] (or drop) the elapsed time is
/// recorded into the global `<name>.us` histogram and, when a sink is
/// installed, appended as one JSON line.
///
/// # Examples
///
/// ```
/// let span = sisg_obs::span("doc.span.phase");
/// let elapsed = span.finish();
/// let h = sisg_obs::registry().histogram("doc.span.phase.us");
/// # let _ = elapsed;
/// assert!(h.count() >= 1);
/// ```
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    watch: Stopwatch,
    finished: bool,
}

/// Opens a span named `name` (dot-separated lowercase, no `.us` suffix —
/// the histogram suffix is added on finish).
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        watch: Stopwatch::start(),
        finished: false,
    }
}

impl Span {
    /// Ends the span, records it, and returns the elapsed wall-clock so the
    /// caller can reuse the *same* measurement in its report struct.
    pub fn finish(mut self) -> Duration {
        self.finished = true;
        let elapsed = self.watch.elapsed();
        record_span(self.name, elapsed);
        elapsed
    }

    /// Elapsed time so far without ending the span.
    pub fn elapsed(&self) -> Duration {
        self.watch.elapsed()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.finished {
            record_span(self.name, self.watch.elapsed());
        }
    }
}

fn record_span(name: &'static str, elapsed: Duration) {
    crate::registry()
        .histogram(&format!("{name}.us"))
        .record_duration(elapsed);
    // ORDERING: Relaxed — SINK_ACTIVE is only a fast-path hint; the sink
    // itself is read under the SINK mutex, whose lock/unlock provides all
    // the synchronization the writer handoff needs.
    if SINK_ACTIVE.load(Ordering::Relaxed) {
        let micros = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let mut guard = lock(&SINK);
        if let Some(w) = guard.as_mut() {
            // Best-effort: a full disk must not take training down.
            let _ = writeln!(w, "{{\"span\":\"{name}\",\"us\":{micros}}}");
            let _ = w.flush();
        }
    }
}

static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

/// Routes finished spans to a JSON-lines file (one
/// `{"span":"<name>","us":<micros>}` object per line), creating parent
/// directories. Replaces any previously installed sink.
pub fn set_span_sink(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = File::create(path)?;
    *lock(&SINK) = Some(BufWriter::new(file));
    // ORDERING: Relaxed — the flag is advisory (see record_span); the sink
    // installation above is published by the SINK mutex, not this store.
    SINK_ACTIVE.store(true, Ordering::Relaxed);
    Ok(())
}

/// Removes the span sink (flushing it) — spans keep feeding histograms.
pub fn clear_span_sink() {
    // ORDERING: Relaxed — advisory flag; the mutex-guarded take() below is
    // what actually retires the writer.
    SINK_ACTIVE.store(false, Ordering::Relaxed);
    if let Some(mut w) = lock(&SINK).take() {
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_spans_feed_their_histogram() {
        let before = crate::registry().histogram("span.test.unit.us").count();
        span("span.test.unit").finish();
        let after = crate::registry().histogram("span.test.unit.us").count();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn dropped_spans_record_too() {
        let before = crate::registry().histogram("span.test.drop.us").count();
        {
            let _s = span("span.test.drop");
        }
        let after = crate::registry().histogram("span.test.drop.us").count();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn sink_writes_one_json_line_per_span() {
        let dir = std::env::temp_dir().join("sisg_obs_sink_test");
        let path = dir.join("spans.jsonl");
        set_span_sink(&path).unwrap();
        span("span.test.sink").finish();
        clear_span_sink();
        let content = std::fs::read_to_string(&path).unwrap();
        let line = content.lines().next().unwrap();
        assert!(line.starts_with("{\"span\":\"span.test.sink\",\"us\":"));
        assert!(line.ends_with('}'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stopwatch_is_monotonic() {
        let w = Stopwatch::start();
        let a = w.elapsed();
        let b = w.elapsed();
        assert!(b >= a);
    }
}
