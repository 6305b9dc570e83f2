//! The serving workload, `calibd-mixed`: an in-process daemon on loopback
//! and a closed loop of clients, each submitting its next job only after
//! watching the previous one reach a terminal state.

use crate::layers::{self, Values};
use crate::stats::{self, median};
use crate::{dir_bytes, peak_rss_mb, repeat_setup, splitmix64, Outcome, Run};
use calibd::client::Client;
use calibd::daemon::{Daemon, DaemonConfig, DaemonHandle};
use calibd::proto::{JobSpec, JobState};
use lodsel::family::VersionFamily;
use lodsel::prelude::{BatchFamily, BudgetPolicy, GridFamily, SweepConfig};
use lodsel::sweep::try_run_sweep;
use obs::TraceRecorder;
use simcal::prelude::Budget;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const NAME: &str = "calibd-mixed";
const CLIENTS: usize = 2;

/// Family seeds of the job pool. The pool is the same in every run, so
/// runs differ only in the order of their jobs; each spec recurs about
/// every eighth job, and the daemon shares nothing between jobs, so every
/// job is swept from scratch.
const JOB_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// Job `k` of client `client`: each client alternates between sharded
/// fixed-budget `batch --fast` sweeps and single-shard successive-halving
/// `grid --fast` sweeps (the two clients out of step), in rounds of eight
/// that hold every spec of the pool once, in an order shuffled by the run
/// seed. Fixed per-client sequences keep the mix independent of timing.
fn job_spec(run_seed: u64, client: usize, k: usize) -> JobSpec {
    let (round, slot) = ((k / 8) as u64, k % 8);
    let mut state = run_seed ^ (round << 8 | client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut order = JOB_SEEDS;
    for j in (1..order.len()).rev() {
        order.swap(j, (splitmix64(&mut state) % (j as u64 + 1)) as usize);
    }
    let seed = order[slot / 2];
    let sh = (slot + client) % 2 == 1;
    JobSpec {
        family: if sh { "grid" } else { "batch" }.into(),
        fast: true,
        budget_evals: 100,
        total_evals: sh.then_some(800),
        sh_eta: sh.then_some(4),
        sh_min_scenarios: None,
        restarts: 2,
        seed,
        epsilon: 0.1,
        shards: if sh { 1 } else { 0 },
        tenant: format!("client-{client}"),
    }
}

/// The digest the same spec gives as one in-process sweep, without the
/// daemon: the family and sweep configuration a calibd job maps to.
fn in_process_digest(spec: &JobSpec) -> String {
    let family: Box<dyn VersionFamily> = match spec.family.as_str() {
        "batch" => Box::new(BatchFamily::paper(spec.fast, spec.seed)),
        "grid" => Box::new(GridFamily::paper(spec.fast, spec.seed)),
        other => panic!("the job sequence has no {other} jobs"),
    };
    let budget = match (spec.total_evals, spec.sh_eta) {
        (Some(total), Some(eta)) => BudgetPolicy::SuccessiveHalving {
            total,
            eta,
            min_scenarios: spec.sh_min_scenarios.unwrap_or(1),
        },
        (Some(total), None) => BudgetPolicy::TotalEvaluations { total },
        (None, _) => BudgetPolicy::PerRun {
            budget: Budget::Evaluations(spec.budget_evals),
        },
    };
    let config = SweepConfig {
        budget,
        restarts: spec.restarts,
        seed: spec.seed,
        epsilon: spec.epsilon,
        max_units: None,
        max_fault_retries: 2,
        cache: None,
    };
    match try_run_sweep(family.as_ref(), &config, None) {
        Ok(o) => o.digest(),
        Err(e) => format!("error: {e}"),
    }
}

struct JobRun {
    spec: JobSpec,
    id: u64,
    submitted: Instant,
    accepted: Instant,
    done: Instant,
    state: JobState,
    digest: Option<String>,
}

impl JobRun {
    fn turnaround(&self) -> f64 {
        (self.done - self.submitted).as_secs_f64()
    }
}

struct JobSet {
    jobs: Vec<JobRun>,
    /// Jobs whose client call failed (I/O error or an unexpected reply).
    broken: usize,
    wall: f64,
}

/// One job through the client API: Submit, then Watch to the terminal
/// frame.
fn one_job(client: &mut Client, spec: JobSpec) -> io::Result<JobRun> {
    let submitted = Instant::now();
    let id = client.submit(spec.clone())?;
    let accepted = Instant::now();
    let (state, digest, _) = client.watch(id, |_, _| {})?;
    Ok(JobRun {
        spec,
        id,
        submitted,
        accepted,
        done: Instant::now(),
        state,
        digest,
    })
}

/// Run the closed loop against a fresh daemon in `dir` for `seconds`.
fn job_set(seed: u64, seconds: f64, dir: &Path) -> JobSet {
    let daemon = Daemon::start(DaemonConfig::local(dir)).expect("start the daemon");
    let addr = daemon.addr().to_string();
    let jobs = Mutex::new(Vec::new());
    let broken = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (addr, jobs, broken) = (&addr, &jobs, &broken);
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect to the daemon");
                for k in 0.. {
                    if start.elapsed().as_secs_f64() >= seconds {
                        break;
                    }
                    match one_job(&mut client, job_spec(seed, c, k)) {
                        Ok(run) => jobs.lock().expect("job list lock").push(run),
                        Err(e) => {
                            println!("check FAILED: client {c}: {e}");
                            broken.fetch_add(1, Ordering::SeqCst);
                            break;
                        }
                    }
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    daemon.stop();
    JobSet {
        jobs: jobs.into_inner().expect("job list lock"),
        broken: broken.into_inner(),
        wall,
    }
}

/// Where each traced job spent its turnaround, from the daemon's `job`
/// spans (a span opens when a worker takes the job): time from sending
/// Submit to that start (admission and queueing), and from there to the
/// terminal Watch frame. `epoch` is the recorder's creation time.
fn job_phases(set: &JobSet, recorder: &TraceRecorder, epoch: Instant) -> (Vec<f64>, Vec<f64>) {
    let starts: BTreeMap<u64, Instant> = recorder
        .spans()
        .iter()
        .filter(|s| s.name == "job")
        .filter_map(|s| {
            let id = s.attrs.iter().find(|(k, _)| k == "id")?.1.parse().ok()?;
            Some((id, epoch + Duration::from_nanos(s.start_ns)))
        })
        .collect();
    set.jobs
        .iter()
        .filter_map(|j| starts.get(&j.id).map(|&started| (j, started)))
        .map(|(j, started)| {
            (
                started.saturating_duration_since(j.submitted).as_secs_f64(),
                j.done.saturating_duration_since(started).as_secs_f64(),
            )
        })
        .unzip()
}

/// Turnarounds of the completed jobs of one family (all with `None`).
fn turnarounds(set: &JobSet, family: Option<&str>) -> Vec<f64> {
    set.jobs
        .iter()
        .filter(|j| j.state == JobState::Completed)
        .filter(|j| family.is_none_or(|f| j.spec.family == f))
        .map(JobRun::turnaround)
        .collect()
}

const KINDS: [(&str, &str); 2] = [
    ("batch", "job_turnaround_batch_s"),
    ("grid", "job_turnaround_grid_sh_s"),
];

/// The job set's `sweep_s`: the mean of the two job kinds' median
/// turnarounds. The kinds differ in length, so the median of the mix would
/// sit between two modes and jump with the kinds' share of the sample.
/// `None` when a kind has no completed job.
fn typical_turnaround(set: &JobSet) -> Option<f64> {
    let medians: Vec<f64> = KINDS
        .iter()
        .map(|(family, _)| turnarounds(set, Some(family)))
        .filter(|t| !t.is_empty())
        .map(|t| median(&t))
        .collect();
    (medians.len() == KINDS.len()).then(|| stats::mean(&medians))
}

pub fn run(run: &Run) -> Outcome {
    // Set-up is what a user waits for before a first job can queue: the
    // daemon binds, replays its (empty) job log, answers a Hello and admits
    // the sequence's first job, which builds that job's family. The probe
    // daemon has no workers, so the job never runs.
    let start_daemon = |i| {
        let dir = run.work.join(format!("setup-{i}"));
        let config = DaemonConfig {
            workers: 0,
            ..DaemonConfig::local(&dir)
        };
        let daemon = Daemon::start(config).expect("start the daemon");
        let mut client =
            Client::connect(&daemon.addr().to_string()).expect("connect to the daemon");
        client
            .submit(job_spec(run.seed, 0, 0))
            .expect("the daemon admits the first job");
        (daemon, dir)
    };
    let stop_daemon = |(daemon, dir): (DaemonHandle, PathBuf)| {
        daemon.stop();
        std::fs::remove_dir_all(dir).expect("remove a set-up data directory");
    };
    let (setup, last) = repeat_setup(start_daemon, stop_daemon);
    stop_daemon(last);
    println!(
        "workload {NAME}: {CLIENTS} closed-loop clients, daemon with 2 workers and 2 default \
         shards; jobs alternate batch (100 evals/run, 2 restarts, 2 shards) and grid sh:800:4 \
         (2 restarts, 1 shard)"
    );

    // With --trace 1 the window is split: an untraced job set, then a
    // traced one on another fresh daemon.
    let window = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let untraced = job_set(run.seed, window, &run.work.join("daemon-untraced"));
    let rss = peak_rss_mb();
    let traced = run.trace.then(|| {
        let epoch = Instant::now();
        let recorder = Arc::new(TraceRecorder::new());
        obs::install(recorder.clone());
        let dir = run.work.join("daemon-traced");
        let set = job_set(run.seed, window, &dir);
        obs::uninstall();
        (set, recorder, epoch, dir)
    });

    // Output check: every job completed, with the digest of the same
    // spec swept in-process (sharded equals single-process), which is in
    // turn the recorded reference digest.
    let mut references: BTreeMap<(String, u64), String> = BTreeMap::new();
    let sets = std::iter::once(&untraced).chain(traced.iter().map(|t| &t.0));
    let mut attempted: usize = sets.clone().map(|s| s.broken).sum();
    let mut failed = attempted;
    for job in sets.flat_map(|s| s.jobs.iter()) {
        attempted += 1;
        let (family, seed) = (&job.spec.family, job.spec.seed);
        let in_process = references
            .entry((family.clone(), seed))
            .or_insert_with(|| in_process_digest(&job.spec));
        let recorded = run.reference(&format!("{NAME}/{family}"), seed);
        let ok = job.state == JobState::Completed
            && job.digest.as_deref() == Some(in_process.as_str())
            && recorded.is_none_or(|r| r == in_process);
        if !ok {
            failed += 1;
            println!(
                "check FAILED: {family} job seed {seed} state {:?} digest {:?}, \
                 in-process {in_process}, recorded {recorded:?}",
                job.state, job.digest
            );
        }
    }
    for ((family, seed), digest) in &references {
        println!("reference {NAME}/{family} {seed} {digest}");
    }
    println!(
        "check {} of {attempted} job digests equal their in-process sweep digests",
        attempted - failed
    );

    let mut out = Outcome::new(attempted, failed);
    out.summary("setup_s", "s", &setup);
    let Some(typical) = typical_turnaround(&untraced) else {
        println!("check FAILED: a job kind has no completed job");
        out.failed = out.attempted.max(1);
        return out;
    };
    let done = turnarounds(&untraced, None);
    out.scalar("sweep_s", "s", typical);
    out.summary("job_turnaround_s", "s", &done);
    for (family, name) in KINDS {
        out.summary(name, "s", &turnarounds(&untraced, Some(family)));
    }
    out.scalar("jobs_per_s", "1/s", done.len() as f64 / untraced.wall);
    out.scalar("peak_rss_mb", "MB", rss);
    out.scalar("failed_ratio", "ratio", failed as f64 / attempted as f64);

    if let Some((set, recorder, epoch, dir)) = traced {
        let mut v = Values::new();
        layers::from_counters(&recorder, &mut v);
        let (queue_wait, run_time) = job_phases(&set, &recorder, epoch);
        if let (Some(traced_typical), false) = (typical_turnaround(&set), queue_wait.is_empty()) {
            let submit_rtt: Vec<f64> = set
                .jobs
                .iter()
                .map(|j| (j.accepted - j.submitted).as_secs_f64() * 1e3)
                .collect();
            v.insert("calibd.submit_rtt_ms", median(&submit_rtt));
            v.insert("calibd.queue_wait_s", median(&queue_wait));
            v.insert("calibd.run_s", median(&run_time));
            v.insert("obs.tracing_overhead", traced_typical / typical - 1.0);
        }
        v.insert("calibd.jobs_log_bytes", dir_bytes(&dir.join("jobs.jsonl")));
        let shard_bytes: f64 = std::fs::read_dir(&dir)
            .expect("read the daemon's data directory")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("job-"))
            .map(|e| dir_bytes(&e.path()))
            .sum();
        v.insert("calibd.shard_ledger_bytes", shard_bytes);
        layers::gp_micro(run.seed, crate::sweeps::grid_dim(), &mut v);
        println!(
            "premise: serving path exercised: {} jobs accepted, {} shard-ledger bytes written: {}",
            v["calibd.jobs_accepted"],
            shard_bytes,
            if v["calibd.jobs_accepted"] > 0.0 && shard_bytes > 0.0 {
                "holds"
            } else {
                "DOES NOT HOLD"
            }
        );
        out.layers = v;
    }
    out
}
