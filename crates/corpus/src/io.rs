//! Session-log persistence.
//!
//! The paper's training data is "user click sessions recorded over a period
//! of several days" — i.e. day-partitioned click logs. This module provides
//! the log format: a plain text serialization (one session per line,
//! `user_id<TAB>item item …`) plus a [`DailyLogs`] directory layout that a
//! daily training job reads a sliding window from.

use crate::session::Corpus;
use crate::token::{ItemId, UserId};
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};

/// Writes `corpus` in the one-session-per-line text format.
fn write_sessions<W: Write>(corpus: &Corpus, out: &mut W) -> io::Result<()> {
    for s in corpus.iter() {
        write!(out, "{}\t", s.user.0)?;
        let mut first = true;
        for item in s.items {
            if !first {
                write!(out, " ")?;
            }
            write!(out, "{}", item.0)?;
            first = false;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Errors raised while reading a session log.
#[derive(Debug)]
pub enum LogReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line (missing tab, non-numeric id).
    BadLine {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for LogReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogReadError::Io(e) => write!(f, "io error: {e}"),
            LogReadError::BadLine { line } => write!(f, "malformed session at line {line}"),
        }
    }
}

impl std::error::Error for LogReadError {}

impl From<io::Error> for LogReadError {
    fn from(e: io::Error) -> Self {
        LogReadError::Io(e)
    }
}

/// Reads a session log written by [`write_sessions`], appending into
/// `corpus`.
fn read_sessions<R: BufRead>(input: R, corpus: &mut Corpus) -> Result<(), LogReadError> {
    let mut items: Vec<ItemId> = Vec::with_capacity(32);
    for (i, line) in input.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (user, rest) = line
            .split_once('\t')
            .ok_or(LogReadError::BadLine { line: i + 1 })?;
        let user: u32 = user
            .parse()
            .map_err(|_| LogReadError::BadLine { line: i + 1 })?;
        items.clear();
        for tok in rest.split(' ').filter(|t| !t.is_empty()) {
            let id: u32 = tok
                .parse()
                .map_err(|_| LogReadError::BadLine { line: i + 1 })?;
            items.push(ItemId(id));
        }
        corpus.push(UserId(user), &items);
    }
    Ok(())
}

/// A directory of day-partitioned session logs (`day_0000.log`,
/// `day_0001.log`, …) — the artifact the daily training pipeline consumes.
#[derive(Debug, Clone)]
pub struct DailyLogs {
    dir: PathBuf,
}

impl DailyLogs {
    /// Opens (creating if needed) a log directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(Self {
            dir: dir.as_ref().to_owned(),
        })
    }

    fn day_path(&self, day: u32) -> PathBuf {
        self.dir.join(format!("day_{day:04}.log"))
    }

    /// Writes one day's sessions (overwriting that day's file).
    pub fn write_day(&self, day: u32, sessions: &Corpus) -> io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(self.day_path(day))?);
        write_sessions(sessions, &mut file)?;
        file.flush()
    }

    /// Days present in the directory, ascending.
    pub fn days(&self) -> io::Result<Vec<u32>> {
        let mut days = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("day_")
                .and_then(|r| r.strip_suffix(".log"))
            {
                if let Ok(day) = num.parse() {
                    days.push(day);
                }
            }
        }
        days.sort_unstable();
        Ok(days)
    }

    /// Loads the most recent `window` days into one corpus — the paper
    /// trains on "user behavior sequences collected over seven days".
    pub fn read_window(&self, window: usize) -> Result<Corpus, LogReadError> {
        let days = self.days()?;
        let mut corpus = Corpus::new();
        for &day in days.iter().rev().take(window).rev() {
            let file = std::fs::File::open(self.day_path(day))?;
            read_sessions(std::io::BufReader::new(file), &mut corpus)?;
        }
        Ok(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus(offset: u32) -> Corpus {
        let mut c = Corpus::new();
        c.push(UserId(offset), &[ItemId(1 + offset), ItemId(2 + offset)]);
        c.push(UserId(offset + 1), &[ItemId(5), ItemId(6), ItemId(7)]);
        c
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sisg_io_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn text_roundtrip() {
        let c = sample_corpus(0);
        let mut buf = Vec::new();
        write_sessions(&c, &mut buf).unwrap();
        let mut back = Corpus::new();
        read_sessions(&buf[..], &mut back).unwrap();
        assert_eq!(back.len(), c.len());
        for i in 0..c.len() {
            assert_eq!(back.session(i).user, c.session(i).user);
            assert_eq!(back.session(i).items, c.session(i).items);
        }
    }

    #[test]
    fn malformed_lines_are_reported_with_position() {
        let text = b"1\t2 3\nbroken line\n";
        let mut c = Corpus::new();
        let err = read_sessions(&text[..], &mut c).unwrap_err();
        assert!(matches!(err, LogReadError::BadLine { line: 2 }));
        let text2 = b"1\t2 x\n";
        let err2 = read_sessions(&text2[..], &mut Corpus::new()).unwrap_err();
        assert!(matches!(err2, LogReadError::BadLine { line: 1 }));
    }

    #[test]
    fn daily_logs_sliding_window() {
        let dir = temp_dir("window");
        let logs = DailyLogs::open(&dir).unwrap();
        for day in 0..5 {
            logs.write_day(day, &sample_corpus(day * 10)).unwrap();
        }
        assert_eq!(logs.days().unwrap(), vec![0, 1, 2, 3, 4]);
        // Window of 2 = days 3 and 4 only → 4 sessions.
        let window = logs.read_window(2).unwrap();
        assert_eq!(window.len(), 4);
        // Day 3's first user id is 30.
        assert_eq!(window.session(0).user, UserId(30));
        // Window larger than history loads everything.
        assert_eq!(logs.read_window(100).unwrap().len(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwriting_a_day_replaces_it() {
        let dir = temp_dir("overwrite");
        let logs = DailyLogs::open(&dir).unwrap();
        logs.write_day(0, &sample_corpus(0)).unwrap();
        let mut tiny = Corpus::new();
        tiny.push(UserId(99), &[ItemId(1)]);
        logs.write_day(0, &tiny).unwrap();
        let read = logs.read_window(1).unwrap();
        assert_eq!(read.len(), 1);
        assert_eq!(read.session(0).user, UserId(99));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_sessions_roundtrip() {
        let mut c = Corpus::new();
        c.push(UserId(3), &[]);
        let mut buf = Vec::new();
        write_sessions(&c, &mut buf).unwrap();
        let mut back = Corpus::new();
        read_sessions(&buf[..], &mut back).unwrap();
        assert_eq!(back.len(), 1);
        assert!(back.session(0).is_empty());
    }
}
