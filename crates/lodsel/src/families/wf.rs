//! Case study #1 (scientific workflows) as a sweepable family.
//!
//! Follows the paper's §5.4 protocol: each of the 12 simulator versions is
//! calibrated once per application against that application's training
//! split, and judged by the percent relative makespan error on the
//! held-out test split. A sweep unit is therefore a (version, application)
//! pair, and a version's summary samples are its per-application mean
//! test errors — exactly what Figure 2's bars and error bars aggregate.

use crate::family::{calibrate_objective, SweepUnit, UnitEval, VersionFamily};
use simcal::prelude::{
    relative_error, Budget, Calibration, CalibrationResult, Fidelity, StructuredLoss,
};
use wfsim::prelude::{
    dataset_for, objective, split_train_test, AppKind, DatasetOptions, SimulatorVersion,
    WfScenario, WorkflowSimulator,
};

/// The Table 1 sub-grid the experiments use by default: the two smallest
/// workflow sizes (the split still yields large-vs-small test structure),
/// one short and one long per-task work, a zero and a mid data footprint,
/// and all four worker counts.
pub fn dataset_options(fast: bool, seed: u64) -> DatasetOptions {
    if fast {
        DatasetOptions {
            repetitions: 2,
            seed,
            size_indices: vec![0, 1],
            work_indices: vec![1],
            footprint_indices: vec![1],
            worker_counts: vec![1, 2, 4, 6],
            ..Default::default()
        }
    } else {
        DatasetOptions {
            repetitions: 3,
            seed,
            size_indices: vec![0, 1, 2],
            work_indices: vec![0, 3],
            footprint_indices: vec![0, 2],
            worker_counts: vec![1, 2, 4, 6],
            ..Default::default()
        }
    }
}

/// One application's named train/test split.
pub struct AppSplit {
    /// Application name (report label).
    pub app: String,
    /// Training scenarios.
    pub train: Vec<WfScenario>,
    /// Held-out test scenarios.
    pub test: Vec<WfScenario>,
}

/// The workflow simulator family: 12 versions × one unit per application.
pub struct WfFamily {
    versions: Vec<SimulatorVersion>,
    splits: Vec<AppSplit>,
    loss: StructuredLoss,
    fingerprint: u64,
}

impl WfFamily {
    /// Build from explicit versions, per-application splits, and a loss.
    /// `loss_label` names the loss in the dataset fingerprint (the loss
    /// itself carries no public identifier).
    pub fn new(
        versions: Vec<SimulatorVersion>,
        splits: Vec<AppSplit>,
        loss: StructuredLoss,
        loss_label: &str,
    ) -> Self {
        assert!(!versions.is_empty() && !splits.is_empty(), "empty family");
        let mut parts = vec![format!("wf|loss={loss_label}")];
        for s in &splits {
            parts.push(format!("app={}", s.app));
            for (tag, set) in [("train", &s.train), ("test", &s.test)] {
                for sc in set.iter() {
                    parts.push(format!(
                        "{tag}|workers={}|makespan={:016x}",
                        sc.n_workers,
                        sc.gt_makespan.to_bits()
                    ));
                }
            }
        }
        let fingerprint = super::fingerprint_of(parts);
        Self {
            versions,
            splits,
            loss,
            fingerprint,
        }
    }

    /// The family the paper's Figure 2 sweeps: all 12 versions over the
    /// default experiment grid, under the L1 loss selected by Table 3.
    pub fn paper(fast: bool, seed: u64) -> Self {
        let opts = dataset_options(fast, seed);
        let apps: Vec<AppKind> = if fast {
            vec![AppKind::Genome1000, AppKind::Montage]
        } else {
            AppKind::REAL.to_vec()
        };
        let splits = apps
            .iter()
            .map(|&app| {
                let records = dataset_for(app, &opts);
                let (train, test) = split_train_test(&records);
                AppSplit {
                    app: app.name().to_string(),
                    train: WfScenario::from_records(&train),
                    test: WfScenario::from_records(&test),
                }
            })
            .collect();
        let loss = StructuredLoss::paper_set()[0].clone();
        Self::new(SimulatorVersion::all(), splits, loss, "L1")
    }

    /// The per-application splits (for baselines and progress reports).
    pub fn splits(&self) -> &[AppSplit] {
        &self.splits
    }
}

impl VersionFamily for WfFamily {
    fn name(&self) -> &str {
        "wf"
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn version_labels(&self) -> Vec<String> {
        self.versions.iter().map(|v| v.label()).collect()
    }

    fn dim(&self, version: usize) -> usize {
        self.versions[version].parameter_space().dim()
    }

    fn units(&self) -> Vec<SweepUnit> {
        let mut units = Vec::new();
        for (vi, version) in self.versions.iter().enumerate() {
            for (ai, split) in self.splits.iter().enumerate() {
                units.push(SweepUnit {
                    version: vi,
                    slot: ai,
                    label: format!("{} / {}", version.label(), split.app),
                });
            }
        }
        units
    }

    fn calibrate(&self, unit: &SweepUnit, budget: Budget, seed: u64) -> CalibrationResult {
        let sim = WorkflowSimulator::new(self.versions[unit.version]);
        let obj = objective(&sim, &self.splits[unit.slot].train, self.loss.clone());
        calibrate_objective(self, unit, obj, budget, seed, &Fidelity::full())
    }

    fn calibrate_at(
        &self,
        unit: &SweepUnit,
        budget: Budget,
        seed: u64,
        fidelity: &Fidelity,
    ) -> CalibrationResult {
        let sim = WorkflowSimulator::new(self.versions[unit.version]);
        let obj = objective(&sim, &self.splits[unit.slot].train, self.loss.clone());
        calibrate_objective(self, unit, obj, budget, seed, fidelity)
    }

    fn evaluate(&self, unit: &SweepUnit, calibration: &Calibration) -> UnitEval {
        let sim = WorkflowSimulator::new(self.versions[unit.version]);
        let mut errors = Vec::new();
        let mut work_units = 0u64;
        for s in &self.splits[unit.slot].test {
            let out = sim.simulate(&s.workflow, s.n_workers, calibration);
            errors.push(relative_error(s.gt_makespan, out.makespan));
            work_units += out.sim_events;
        }
        UnitEval {
            // One sample per unit: the per-application mean — Figure 2
            // aggregates versions over these.
            samples: vec![numeric::mean(&errors)],
            work_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WfFamily {
        let opts = DatasetOptions {
            repetitions: 1,
            seed: 3,
            size_indices: vec![0],
            work_indices: vec![1],
            footprint_indices: vec![1],
            worker_counts: vec![1, 4],
            ..Default::default()
        };
        let records = dataset_for(AppKind::Montage, &opts);
        let (train, test) = split_train_test(&records);
        WfFamily::new(
            vec![
                SimulatorVersion::lowest_detail(),
                SimulatorVersion::highest_detail(),
            ],
            vec![AppSplit {
                app: "montage".into(),
                train: WfScenario::from_records(&train),
                test: WfScenario::from_records(&test),
            }],
            StructuredLoss::paper_set()[0].clone(),
            "L1",
        )
    }

    #[test]
    fn units_are_version_major_and_labelled() {
        let f = tiny();
        let units = f.units();
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].version, 0);
        assert_eq!(units[1].version, 1);
        assert!(units[0].label.contains("montage"));
    }

    #[test]
    fn calibrate_and_evaluate_are_deterministic() {
        let f = tiny();
        let unit = &f.units()[0];
        let a = f.calibrate(unit, Budget::Evaluations(6), 9);
        let b = f.calibrate(unit, Budget::Evaluations(6), 9);
        // Wall-clock fields (elapsed_secs) legitimately differ between
        // runs; everything the sweep digests must not.
        assert_eq!(a.calibration, b.calibration);
        assert_eq!(a.loss, b.loss);
        assert_eq!(a.evaluations, b.evaluations);
        let ea = f.evaluate(unit, &a.calibration);
        let eb = f.evaluate(unit, &b.calibration);
        assert_eq!(ea, eb);
        assert_eq!(ea.samples.len(), 1);
        assert!(ea.work_units > 0, "evaluation must report simulation work");
    }

    #[test]
    fn fingerprint_tracks_the_dataset() {
        let a = tiny().fingerprint();
        assert_eq!(a, tiny().fingerprint());
        let mut other = tiny();
        other.splits[0].test[0].gt_makespan += 1.0;
        let recomputed = WfFamily::new(
            vec![
                SimulatorVersion::lowest_detail(),
                SimulatorVersion::highest_detail(),
            ],
            other.splits,
            StructuredLoss::paper_set()[0].clone(),
            "L1",
        );
        assert_ne!(a, recomputed.fingerprint());
    }
}
