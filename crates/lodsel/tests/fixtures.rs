//! Ledgers recorded by an earlier build of the sweep executor must keep
//! resuming with zero calibration work: the checkpoint keys and event
//! shapes are a persisted format, not an implementation detail.
//!
//! The files under `tests/fixtures/` were written once by the toy
//! configurations below and are committed as-is. Each test copies its
//! fixture to a scratch location (resuming appends events), resumes it,
//! and checks that nothing was recalibrated and that the outcome digests
//! to the value recorded alongside the fixture.

mod common;

use common::{tmp_ledger, ToyFamily};
use lodsel::prelude::*;
use lodsel::shard::{merge_shards, run_shard, shard_path};
use simcal::prelude::Budget;
use std::path::{Path, PathBuf};

/// Digest of the fixed-budget fixture's sweep (the golden fault-free
/// digest of the same configuration).
const FIXED_DIGEST: &str = "c10c6fae5e95faac";
/// Digest of the successive-halving fixture's sweep.
const SH_DIGEST: &str = "1ead715d560ee4d4";
/// Digest of the 2-shard fixture's merged sweep.
const SHARDED_DIGEST: &str = "b0f8b3e67ea4a3f0";

fn fixed_config() -> SweepConfig {
    SweepConfig::per_run(Budget::Evaluations(8), 2, 42)
}

fn sh_config() -> SweepConfig {
    SweepConfig {
        budget: BudgetPolicy::SuccessiveHalving {
            total: 48,
            eta: 2,
            min_scenarios: 1,
        },
        ..SweepConfig::per_run(Budget::Evaluations(1), 2, 42)
    }
}

fn sharded_config() -> SweepConfig {
    SweepConfig::per_run(Budget::Evaluations(4), 2, 11)
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A scratch copy of a fixture file or directory (resuming appends to
/// the ledger, and the committed fixture must stay as recorded).
fn scratch_copy(name: &str) -> PathBuf {
    let src = fixture(name);
    let dst = tmp_ledger(&format!("fixture-{}", name.replace('/', "-")));
    if src.is_dir() {
        std::fs::create_dir_all(&dst).unwrap();
        for entry in std::fs::read_dir(&src).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
        }
    } else {
        std::fs::copy(&src, &dst).unwrap();
    }
    dst
}

/// Resume `config` against a copy of the fixture ledger `name`: nothing
/// may be recalibrated, and the outcome must digest to `digest`.
fn assert_resumes_idle(name: &str, config: &SweepConfig, digest: &str) {
    let path = scratch_copy(name);
    let family = ToyFamily::new(true);
    let ledger = Ledger::open(&path).unwrap();
    let outcome = run_sweep(&family, config, Some(&ledger));
    drop(ledger);
    assert_eq!(family.calibration_runs(), 0, "{name} recalibrated runs");
    assert_eq!(family.objective_evaluations(), 0);
    assert_eq!(outcome.digest(), digest, "{name} digest moved");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fixed_budget_fixture_resumes_with_zero_calibrations() {
    assert_resumes_idle("fixed.jsonl", &fixed_config(), FIXED_DIGEST);
}

#[test]
fn successive_halving_fixture_resumes_with_zero_calibrations() {
    assert_resumes_idle("sh.jsonl", &sh_config(), SH_DIGEST);
}

#[test]
fn sharded_fixture_resumes_with_zero_calibrations() {
    // The recorded merged ledger replays on its own.
    assert_resumes_idle("sharded/merged.jsonl", &sharded_config(), SHARDED_DIGEST);

    // Re-running each recorded shard finds its slice checkpointed, and a
    // fresh merge of the recorded shards replays to the same digest.
    let dir = scratch_copy("sharded");
    let family = ToyFamily::new(true);
    for index in 0..2 {
        assert_eq!(
            run_shard(&family, &sharded_config(), index, 2, &dir).unwrap(),
            0
        );
    }
    let merged = merge_shards(
        &[shard_path(&dir, 0), shard_path(&dir, 1)],
        &dir.join("remerged.jsonl"),
    )
    .unwrap();
    let outcome = run_sweep(&family, &sharded_config(), Some(&merged));
    assert_eq!(family.calibration_runs(), 0);
    assert_eq!(outcome.digest(), SHARDED_DIGEST);
    let _ = std::fs::remove_dir_all(&dir);
}
