//! One durable append-only JSONL log, shared by every store that must
//! survive a process kill: the `lodsel` run ledger, the [`crate::cache`]
//! loss-cache shards and `calibd`'s job log.
//!
//! Each line is one externally tagged JSON value. The discipline:
//!
//! - **Open heals and reads leniently.** [`AppendLog::open`] creates the
//!   parent directory, ends a torn final line (the signature of a kill
//!   mid-write) so the next append starts clean, and returns every record
//!   that parses; blank and unparseable lines are skipped, so the work
//!   they described simply re-runs. Records come back in file order, so a
//!   map built from them lets the later record win on a duplicate key.
//! - **Append is one flushed frame.** [`AppendLog::append`] writes the
//!   record and its newline with a single `write_all`, then flushes.
//!   Transient errors (interrupted / would-block / timed-out) are retried
//!   with a 1/5/20 ms backoff, each retry counted by
//!   [`obs::Counter::LedgerRetries`]; other errors are returned.
//! - **A failed append never corrupts the next one.** An append that
//!   failed may have left a fragment behind; the log remembers it, and
//!   the next append (a retry or a later call) starts on a fresh line, so
//!   an acknowledged record is never glued onto a fragment and lost.
//!
//! Appends are flushed, not synced: a log survives `kill -9`, not power
//! loss (DESIGN.md, "Failure model"). The log has no lock of its own;
//! each store keeps it behind the lock that already guards its state.

use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// Backoff before each retry of a transient I/O error.
const RETRY_BACKOFF_MS: [u64; 3] = [1, 5, 20];

/// An append handle on a JSONL file of `T` records. `W` is the writer the
/// frames go to: the file itself in production; tests substitute a
/// failing writer through [`AppendLog::from_writer`].
pub struct AppendLog<T, W = File> {
    path: PathBuf,
    writer: W,
    /// The last append failed and may have left a fragment: the next one
    /// starts on a fresh line.
    torn: bool,
    _records: PhantomData<fn(&T)>,
}

impl<T: Serialize + Deserialize> AppendLog<T> {
    /// Open (creating it and its parent directory if absent) the log at
    /// `path`, heal a torn final line, and return the handle with every
    /// record that parses. Errors name the path.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Self, Vec<T>)> {
        let path = path.as_ref().to_path_buf();
        let (file, text) = retry_transient(|| {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)?;
            }
            let mut file = OpenOptions::new()
                .create(true)
                .read(true)
                .append(true)
                .open(&path)?;
            let mut text = String::new();
            file.read_to_string(&mut text)?;
            heal_torn_tail(&mut file, &text)?;
            Ok((file, text))
        })
        .map_err(|e| at(&path, e))?;
        Ok((Self::from_writer(path, file), parse_lenient(&text)))
    }
}

impl<T: Serialize, W: Write> AppendLog<T, W> {
    /// A log appending to `writer`, reporting errors against `path`. The
    /// fault-injection seam: [`AppendLog::open`] is the production path.
    pub fn from_writer(path: impl Into<PathBuf>, writer: W) -> Self {
        Self {
            path: path.into(),
            writer,
            torn: false,
            _records: PhantomData,
        }
    }

    /// Append `record` as one line and flush it, retrying transient
    /// errors. On error the log stays usable: the next append starts on
    /// a fresh line.
    pub fn append(&mut self, record: &T) -> io::Result<()> {
        let line = serde_json::to_string(record).map_err(|e| {
            at(
                &self.path,
                io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
            )
        })?;
        retry_transient(|| {
            let mut frame = Vec::with_capacity(line.len() + 2);
            if self.torn {
                frame.push(b'\n');
            }
            frame.extend_from_slice(line.as_bytes());
            frame.push(b'\n');
            self.torn = true;
            self.writer.write_all(&frame)?;
            self.writer.flush()?;
            self.torn = false;
            Ok(())
        })
        .map_err(|e| at(&self.path, e))
    }
}

/// Every record that parses in the JSONL file at `path`, without opening
/// it for appends. A missing file reads as empty.
pub fn read<T: Deserialize>(path: impl AsRef<Path>) -> io::Result<Vec<T>> {
    match std::fs::read_to_string(path.as_ref()) {
        Ok(text) => Ok(parse_lenient(&text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(at(path.as_ref(), e)),
    }
}

/// Parse JSONL leniently: blank and unparseable lines are skipped.
pub fn parse_lenient<T: Deserialize>(text: &str) -> Vec<T> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde_json::from_str(l).ok())
        .collect()
}

/// `e`, with `path` named in its message.
fn at(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Whether an I/O error is worth retrying: the operation may succeed if
/// simply re-attempted a moment later.
fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Run `op`, retrying transient errors after each [`RETRY_BACKOFF_MS`]
/// step (at most three retries, each counted). Permanent errors, and
/// transient ones that outlast the schedule, are returned.
fn retry_transient<R>(mut op: impl FnMut() -> io::Result<R>) -> io::Result<R> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(value) => return Ok(value),
            Err(e) if attempt < RETRY_BACKOFF_MS.len() && is_transient(e.kind()) => {
                obs::counter(obs::Counter::LedgerRetries, 1);
                std::thread::sleep(std::time::Duration::from_millis(RETRY_BACKOFF_MS[attempt]));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// End a torn final line of a file whose content is `text`: without a
/// trailing newline, the next append would be glued onto the fragment.
fn heal_torn_tail(file: &mut File, text: &str) -> io::Result<()> {
    if !text.is_empty() && !text.ends_with('\n') {
        file.write_all(b"\n")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    //! The fault suite every adopter (run ledger, loss cache, job log)
    //! relies on for its heal, lenient-read and retry behaviour.

    use super::*;
    use serde::Value;
    use std::collections::HashMap;
    use std::io::ErrorKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "simcal-jsonl-{tag}-{}-{n}/log.jsonl",
            std::process::id()
        ))
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// A record with a key, so duplicate-key handling can be checked.
    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    struct Rec {
        key: u64,
        val: String,
    }

    fn rec(key: u64, val: &str) -> Rec {
        Rec {
            key,
            val: val.into(),
        }
    }

    /// The retry tests bump the process-global `LedgerRetries` counter;
    /// they serialize on this lock so one test's retries never land in
    /// another's recorder.
    fn retry_counter_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Writes through to `inner`, but the listed calls (0-based) fail
    /// with `kind` after writing only the first half of their buffer.
    struct FlakyWriter<W> {
        inner: W,
        calls: usize,
        fail_on: Vec<usize>,
        kind: ErrorKind,
    }

    impl<W: Write> Write for FlakyWriter<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let call = self.calls;
            self.calls += 1;
            if self.fail_on.contains(&call) {
                self.inner.write_all(&buf[..buf.len() / 2])?;
                return Err(io::Error::new(self.kind, "injected write failure"));
            }
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    fn flaky_log(
        path: &Path,
        fail_on: Vec<usize>,
        kind: ErrorKind,
    ) -> AppendLog<Rec, FlakyWriter<File>> {
        let (log, _) = AppendLog::<Rec>::open(path).unwrap();
        let inner = OpenOptions::new().append(true).open(path).unwrap();
        drop(log);
        AppendLog::from_writer(
            path,
            FlakyWriter {
                inner,
                calls: 0,
                fail_on,
                kind,
            },
        )
    }

    #[test]
    fn append_then_open_roundtrips_in_order() {
        let path = tmp_path("roundtrip");
        let (mut log, records) = AppendLog::<Rec>::open(&path).unwrap();
        assert!(
            records.is_empty(),
            "a new log (and its directory) is created empty"
        );
        log.append(&rec(1, "a")).unwrap();
        log.append(&rec(2, "b \"quoted\"\nnewline")).unwrap();
        drop(log);
        let (_, records) = AppendLog::<Rec>::open(&path).unwrap();
        assert_eq!(records, vec![rec(1, "a"), rec(2, "b \"quoted\"\nnewline")]);
        assert_eq!(read::<Rec>(&path).unwrap(), records);
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_healed_on_open() {
        let path = tmp_path("torn");
        let (mut log, _) = AppendLog::<Rec>::open(&path).unwrap();
        log.append(&rec(1, "kept")).unwrap();
        drop(log);
        // A kill mid-append: half a record, no trailing newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"key\":2,\"va").unwrap();
        drop(f);

        let (mut log, records) = AppendLog::<Rec>::open(&path).unwrap();
        assert_eq!(records, vec![rec(1, "kept")], "the fragment is skipped");
        assert!(std::fs::read_to_string(&path).unwrap().ends_with('\n'));
        log.append(&rec(3, "after")).unwrap();
        drop(log);
        assert_eq!(
            read::<Rec>(&path).unwrap(),
            vec![rec(1, "kept"), rec(3, "after")]
        );
        cleanup(&path);
    }

    #[test]
    fn garbage_and_blank_lines_are_skipped() {
        let text = "{\"key\":1,\"val\":\"a\"}\n\n   \nnot json\n{\"key\":2}\n[1,2]\n{\"key\":3,\"val\":\"c\"}\n";
        assert_eq!(parse_lenient::<Rec>(text), vec![rec(1, "a"), rec(3, "c")]);
        // Untyped values keep every line that is JSON at all.
        assert_eq!(parse_lenient::<Value>(text).len(), 4);
        assert!(parse_lenient::<Rec>("").is_empty());
    }

    #[test]
    fn later_record_wins_on_duplicate_keys() {
        let path = tmp_path("dup");
        let (mut log, _) = AppendLog::<Rec>::open(&path).unwrap();
        for r in [rec(1, "old"), rec(2, "only"), rec(1, "new")] {
            log.append(&r).unwrap();
        }
        drop(log);
        let (_, records) = AppendLog::<Rec>::open(&path).unwrap();
        let map: HashMap<u64, String> = records.into_iter().map(|r| (r.key, r.val)).collect();
        assert_eq!(map[&1], "new");
        assert_eq!(map[&2], "only");
        cleanup(&path);
    }

    #[test]
    fn missing_file_reads_as_empty() {
        assert!(read::<Rec>(tmp_path("missing")).unwrap().is_empty());
    }

    #[test]
    fn open_errors_name_the_path() {
        let path = tmp_path("dir");
        std::fs::create_dir_all(&path).unwrap();
        let err = match AppendLog::<Rec>::open(&path) {
            Err(e) => e,
            Ok(_) => panic!("a directory is not a log"),
        };
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "{err}"
        );
        cleanup(&path);
    }

    #[test]
    fn a_failed_append_does_not_glue_the_next_record_onto_its_fragment() {
        // The write fails permanently (say ENOSPC) after half the frame
        // reached the file; the next append succeeds. After reopen the
        // second, acknowledged record must parse on its own.
        let path = tmp_path("fragment");
        let mut log = flaky_log(&path, vec![0], ErrorKind::Other);
        assert!(log.append(&rec(1, "lost")).is_err());
        assert!(log.torn, "the failure is remembered");
        log.append(&rec(2, "acknowledged")).unwrap();
        assert!(!log.torn);
        drop(log);
        let (_, records) = AppendLog::<Rec>::open(&path).unwrap();
        assert_eq!(records, vec![rec(2, "acknowledged")]);
        cleanup(&path);
    }

    #[test]
    fn transient_append_failures_are_retried_on_a_fresh_line() {
        let _serial = retry_counter_lock();
        let path = tmp_path("transient");
        let mut log = flaky_log(&path, vec![0, 1], ErrorKind::TimedOut);
        let recorder = std::sync::Arc::new(obs::TraceRecorder::new());
        obs::install(recorder.clone());
        let out = log.append(&rec(1, "retried"));
        obs::uninstall();
        out.unwrap();
        assert_eq!(recorder.counter_value(obs::Counter::LedgerRetries), 2);
        drop(log);
        assert_eq!(read::<Rec>(&path).unwrap(), vec![rec(1, "retried")]);
        cleanup(&path);
    }

    #[test]
    fn retry_transient_retries_interrupted_writes_and_counts_them() {
        let _serial = retry_counter_lock();
        let recorder = std::sync::Arc::new(obs::TraceRecorder::new());
        obs::install(recorder.clone());
        let mut attempts = 0;
        let out = retry_transient(|| {
            attempts += 1;
            if attempts < 3 {
                Err(io::Error::new(ErrorKind::Interrupted, "interrupted"))
            } else {
                Ok(attempts)
            }
        });
        obs::uninstall();
        assert_eq!(out.unwrap(), 3);
        assert_eq!(recorder.counter_value(obs::Counter::LedgerRetries), 2);
    }

    #[test]
    fn retry_transient_gives_up_on_permanent_errors_immediately() {
        let mut attempts = 0;
        let out: io::Result<()> = retry_transient(|| {
            attempts += 1;
            Err(io::Error::new(ErrorKind::PermissionDenied, "nope"))
        });
        assert_eq!(out.unwrap_err().kind(), ErrorKind::PermissionDenied);
        assert_eq!(attempts, 1, "permanent errors must not be retried");
    }

    #[test]
    fn retry_transient_is_bounded_for_persistent_transient_errors() {
        let _serial = retry_counter_lock();
        let mut attempts = 0;
        let out: io::Result<()> = retry_transient(|| {
            attempts += 1;
            Err(io::Error::new(ErrorKind::Interrupted, "still interrupted"))
        });
        assert_eq!(out.unwrap_err().kind(), ErrorKind::Interrupted);
        assert_eq!(attempts, 4, "one initial attempt plus three retries");
    }
}
