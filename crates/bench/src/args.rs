//! Minimal shared CLI parsing for the experiment binaries.
//!
//! Every binary accepts:
//!
//! - `--budget-evals N`  — loss evaluations per calibration (deterministic);
//! - `--budget-secs S`   — wall-clock seconds per calibration (overrides
//!   evaluations when both are given, mirroring the paper's fixed
//!   time-budget comparisons);
//! - `--seed S`          — master seed;
//! - `--fast`            — shrink the experiment grid for a quick smoke run;
//! - `--tsv PATH`        — also write the result rows as TSV;
//! - `--uncalibrated`    — where applicable, add the spec-based baseline;
//! - `--ledger PATH`     — for sweep-driven binaries: checkpoint completed
//!   work to (and resume it from) a lodsel run ledger;
//! - `--cache DIR`       — persistent loss-cache directory (see
//!   [`simcal::cache`]; overrides the `CALIB_CACHE` environment variable);
//! - `--epsilon F`       — recommendation tolerance for those binaries;
//! - `--trace PATH`      — record an `obs` JSONL trace of the run
//!   (summarize it later with `lodsel --trace-report PATH`).
//!
//! Output convention: result tables go to stdout, diagnostics go to
//! stderr via [`obs::diag!`] (prefixed with the binary name), and
//! machine-readable artifacts go to `--tsv`/`--ledger`/`--trace` files.

use lodsel::ledger::Ledger;
use simcal::prelude::Budget;
use std::sync::Arc;
use std::time::Duration;

/// Parsed common arguments.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Per-calibration budget.
    pub budget: Budget,
    /// Master seed.
    pub seed: u64,
    /// Reduced-grid smoke mode.
    pub fast: bool,
    /// Optional TSV output path.
    pub tsv: Option<String>,
    /// Include the uncalibrated spec-based baseline.
    pub uncalibrated: bool,
    /// Optional lodsel run-ledger path (sweep-driven binaries only).
    pub ledger: Option<String>,
    /// Optional persistent loss-cache directory.
    pub cache: Option<String>,
    /// Recommendation tolerance (sweep-driven binaries only).
    pub epsilon: f64,
    /// Optional JSONL trace output path.
    pub trace: Option<String>,
}

impl ExpArgs {
    /// Parse from `std::env::args`, with a default evaluation budget.
    ///
    /// Exits with a usage message on an unknown flag.
    pub fn parse(default_evals: usize) -> ExpArgs {
        let mut budget_evals = default_evals;
        let mut budget_secs: Option<f64> = None;
        let mut seed = 20250706u64;
        let mut fast = false;
        let mut tsv = None;
        let mut uncalibrated = false;
        let mut ledger = None;
        let mut cache = None;
        let mut epsilon = 0.1;
        let mut trace = None;

        fn bad(what: &str, err: impl std::fmt::Display) -> ! {
            obs::diag!("invalid {what}: {err}");
            std::process::exit(2);
        }

        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let take_value = |i: &mut usize| -> String {
                *i += 1;
                args.get(*i)
                    .unwrap_or_else(|| {
                        obs::diag!("missing value for {}", args[*i - 1]);
                        std::process::exit(2);
                    })
                    .clone()
            };
            match args[i].as_str() {
                "--budget-evals" => {
                    budget_evals = take_value(&mut i)
                        .parse()
                        .unwrap_or_else(|e| bad("--budget-evals", e))
                }
                "--budget-secs" => {
                    budget_secs = Some(
                        take_value(&mut i)
                            .parse()
                            .unwrap_or_else(|e| bad("--budget-secs", e)),
                    )
                }
                "--seed" => {
                    seed = take_value(&mut i)
                        .parse()
                        .unwrap_or_else(|e| bad("--seed", e))
                }
                "--fast" => fast = true,
                "--tsv" => tsv = Some(take_value(&mut i)),
                "--uncalibrated" => uncalibrated = true,
                "--ledger" => ledger = Some(take_value(&mut i)),
                "--cache" => cache = Some(take_value(&mut i)),
                "--epsilon" => {
                    epsilon = take_value(&mut i)
                        .parse()
                        .unwrap_or_else(|e| bad("--epsilon", e))
                }
                "--trace" => trace = Some(take_value(&mut i)),
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --budget-evals N | --budget-secs S | --seed S | --fast | \
                         --tsv PATH | --uncalibrated | --ledger PATH | --cache DIR | \
                         --epsilon F | --trace PATH"
                    );
                    std::process::exit(0);
                }
                other => {
                    obs::diag!("unknown flag {other}; see --help");
                    std::process::exit(2);
                }
            }
            i += 1;
        }

        let budget = match budget_secs {
            Some(s) => Budget::WallClock(Duration::from_secs_f64(s)),
            None => Budget::Evaluations(budget_evals),
        };
        ExpArgs {
            budget,
            seed,
            fast,
            tsv,
            uncalibrated,
            ledger,
            cache,
            epsilon,
            trace,
        }
    }

    /// If `--cache` was given, install it as the process-global
    /// persistent loss-cache directory (see [`simcal::cache::install`]).
    pub fn install_cache(&self) {
        if let Some(dir) = &self.cache {
            simcal::cache::install(dir.clone());
        }
    }

    /// Open the run ledger if `--ledger` was given; exits on I/O errors
    /// (a requested-but-unusable ledger should never silently degrade to
    /// a non-resumable sweep).
    pub fn open_ledger(&self) -> Option<Ledger> {
        self.ledger.as_ref().map(|path| {
            Ledger::open(path).unwrap_or_else(|e| {
                obs::diag!("{e}");
                std::process::exit(2);
            })
        })
    }

    /// If `--trace` was given, install a fresh global [`obs::TraceRecorder`]
    /// (enabling all instrumentation) and return it. Call
    /// [`ExpArgs::write_trace`] after the measured work to serialize it.
    pub fn install_trace(&self) -> Option<Arc<obs::TraceRecorder>> {
        self.trace.as_ref().map(|_| {
            let rec = Arc::new(obs::TraceRecorder::new());
            obs::install(rec.clone());
            rec
        })
    }

    /// Uninstall the recorder from [`ExpArgs::install_trace`] and write
    /// the trace to the `--trace` path. A write failure is diagnosed but
    /// not fatal (the run's results are already on stdout).
    pub fn write_trace(&self, recorder: Option<Arc<obs::TraceRecorder>>) {
        let (Some(path), Some(rec)) = (&self.trace, recorder) else {
            return;
        };
        obs::uninstall();
        match rec.write_jsonl(std::path::Path::new(path)) {
            Ok(()) => obs::diag!("wrote trace {path}"),
            Err(e) => obs::diag!("failed to write trace {path}: {e}"),
        }
    }

    /// Write `table` to the TSV path if one was requested.
    pub fn maybe_write_tsv(&self, table: &crate::report::Table) {
        if let Some(path) = &self.tsv {
            if let Err(e) = table.write_tsv(std::path::Path::new(path)) {
                obs::diag!("failed to write {path}: {e}");
            } else {
                obs::diag!("wrote {path}");
            }
        }
    }
}
