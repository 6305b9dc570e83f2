//! BO search reports its surrogate-fit and acquisition time when tracing
//! is on, and tracing leaves the search's result bit-for-bit unchanged.
//!
//! The recorder is process-global, so this file holds a single test and
//! runs in its own process.

use simcal::prelude::*;
use std::sync::Arc;

#[test]
fn bo_search_observes_fit_and_acquire_without_changing_the_result() {
    let mut space = ParameterSpace::new();
    space.add("x0", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
    space.add("x1", ParamKind::Continuous { lo: 0.0, hi: 1.0 });
    let obj = FnObjective::new(space, |c: &Calibration| {
        (c.values[0] - 0.3).powi(2) + (c.values[1] - 0.6).powi(2)
    });
    // 16 initial points, then 3 batches of 8: three fits, three acquires.
    let run = || {
        let ev = Evaluator::new(&obj, Budget::Evaluations(40));
        BayesianOpt::new(SurrogateKind::GaussianProcess).search(&ev, 9);
        let (loss, unit, _) = ev.best().unwrap();
        (loss.to_bits(), unit)
    };

    let untraced = run();
    let rec = Arc::new(obs::TraceRecorder::new());
    obs::install(rec.clone());
    let traced = run();
    obs::uninstall();

    assert_eq!(traced, untraced);
    for hist in [obs::Hist::SurrogateFit, obs::Hist::Acquire] {
        let h = rec.histogram(hist);
        assert_eq!(h.count, 3, "{}", hist.name());
        assert!(h.sum_secs > 0.0, "{}", hist.name());
    }
    assert_eq!(rec.histogram(obs::Hist::EvalLatency).count, 40);
}
