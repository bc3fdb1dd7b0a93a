//! Wall-clock primitives: [`Stopwatch`] and the histogram-feeding [`Span`].
//!
//! These are the only sanctioned sources of elapsed time — clippy's
//! `disallowed-methods` (`clippy.toml`) bans raw `Instant::now()`
//! elsewhere so a report struct and an obs snapshot can never disagree
//! about the same wall-clock.

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
    #[allow(clippy::disallowed_methods)] // The one clock every other timer reads through.
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
    fn stopwatch_is_monotonic() {
        let w = Stopwatch::start();
        let a = w.elapsed();
        let b = w.elapsed();
        assert!(b >= a);
    }
}
