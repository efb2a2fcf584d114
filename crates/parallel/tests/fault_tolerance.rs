//! Fault-injection integration tests for the SPMD runtime.
//!
//! Every scenario here runs under a hard watchdog deadline: the single
//! worst historical failure mode of barrier-based runtimes is the silent
//! deadlock, where a dead rank leaves its peers parked forever and CI
//! only notices at the job timeout. [`with_deadline`] turns that hang
//! into an immediate, attributable test failure.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use rms_parallel::comm::CommError;
use rms_parallel::estimator::{EstimatorConfig, EstimatorError, FailurePolicy, ParallelEstimator};
use rms_parallel::fault::{FaultPlan, FaultySimulator};
use rms_parallel::{run_cluster, ExperimentFile};

/// Run `body` on a helper thread; panic if it does not finish within
/// `deadline`. A deadlocked cluster thereby fails the test in bounded
/// wall-clock instead of hanging the whole suite.
fn with_deadline<T: Send + 'static>(
    deadline: Duration,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = thread::Builder::new()
        .name("deadline-guard".into())
        .spawn(move || {
            let _ = tx.send(body());
        })
        .expect("spawn watchdog worker");
    match rx.recv_timeout(deadline) {
        Ok(value) => {
            let _ = worker.join();
            value
        }
        Err(_) => panic!("test body exceeded its {deadline:?} deadline — likely deadlock"),
    }
}

/// Synthetic model: exponential decay with rate `p[0]`.
fn model(p: &[f64], _file: usize, times: &[f64]) -> Result<Vec<f64>, String> {
    if p[0] < 0.0 {
        return Err("negative rate".to_string());
    }
    Ok(times.iter().map(|t| (-p[0] * t).exp()).collect())
}

fn make_files(n: usize, records: usize) -> Vec<ExperimentFile> {
    (0..n)
        .map(|i| {
            let times: Vec<f64> = (1..=records).map(|j| j as f64 * 0.1).collect();
            let values = model(&[1.0], 0, &times).unwrap();
            ExperimentFile {
                label: format!("exp{i:02}"),
                times,
                values,
            }
        })
        .collect()
}

/// The headline deadlock-regression test: one rank panics mid-collective
/// and every survivor must come back with `CommError::RankPanicked`
/// within bounded wall-clock. Under the old `std::sync::Barrier`
/// implementation this scenario parked ranks 0, 1 and 3 forever.
#[test]
fn panicking_rank_fails_survivors_within_deadline() {
    with_deadline(Duration::from_secs(10), || {
        let started = Instant::now();
        let results = run_cluster(4, |comm| {
            if comm.rank() == 2 {
                panic!("injected rank failure");
            }
            comm.all_reduce_sum(&[1.0])?;
            comm.all_reduce_sum(&[2.0])
        });
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "survivors took {:?} to observe the dead rank",
            started.elapsed()
        );
        for (rank, result) in results.iter().enumerate() {
            match (rank, result) {
                (2, Err(panic)) => {
                    assert_eq!(panic.rank, 2);
                    assert!(panic.message.contains("injected rank failure"));
                }
                (_, Ok(Err(CommError::RankPanicked { rank }))) => assert_eq!(*rank, 2),
                other => panic!("rank {rank}: unexpected outcome {other:?}"),
            }
        }
    });
}

/// A panic injected through the simulator (not hand-rolled in the rank
/// body) is contained the same way, end to end through the estimator.
#[test]
fn injected_simulator_panic_surfaces_as_estimator_error() {
    with_deadline(Duration::from_secs(10), || {
        let files = make_files(6, 8);
        let sim = FaultySimulator::new(model, FaultPlan::new().panic_at_call(2));
        let est = ParallelEstimator::new(&sim, files, 3, false);
        let err = est.objective(&[1.0]).unwrap_err();
        match err {
            EstimatorError::RankPanic(panic) => {
                assert!(panic.message.contains("injected panic"), "{panic}");
            }
            other => panic!("expected RankPanic, got {other:?}"),
        }
        let health = est.cumulative_health();
        assert_eq!(health.rank_panics.len(), 1, "{}", health.summary());
        assert!(!health.comm_errors.is_empty(), "{}", health.summary());
    });
}

/// Graceful degradation: N files permanently failing under `Penalize`
/// still yields a completed objective, with every fault itemized in the
/// health report and penalty residuals on exactly the failed files.
#[test]
fn estimation_completes_with_injected_failures_and_reports_them() {
    with_deadline(Duration::from_secs(30), || {
        let files = make_files(8, 10);
        let plan = FaultPlan::new()
            .fail_file(1, "injected: solver diverged")
            .fail_file(5, "injected: singular iteration matrix");
        let sim = FaultySimulator::new(model, plan);
        let est = ParallelEstimator::with_config(
            &sim,
            files,
            4,
            EstimatorConfig {
                on_failure: FailurePolicy::Penalize,
                penalty: 1e3,
                ..EstimatorConfig::default()
            },
        );
        let out = est.objective(&[1.0]).unwrap();
        // Both injected faults are itemized.
        let failed: Vec<usize> = out.health.file_failures.iter().map(|f| f.file).collect();
        assert_eq!(failed, vec![1, 5], "{}", out.health.summary());
        for failure in &out.health.file_failures {
            assert!(failure.penalized);
            assert!(failure.error.contains("injected"));
        }
        // Each file was solved once: 8 calls, the failed ones included.
        assert_eq!(sim.call_count(), 8);
        // The 6 healthy files match experiment exactly (error 0), so each
        // record carries exactly the two files' penalties.
        for v in &out.error_vector {
            assert!((v - 2e3).abs() < 1e-9, "{v}");
        }
    });
}

/// The acceptance criterion for zero-fault runs: with no faults injected,
/// the hardened runtime produces **bit-identical** error vectors across
/// rank counts and configurations — fault tolerance is free when nothing
/// fails.
#[test]
fn no_fault_error_vectors_bit_identical_across_configs() {
    with_deadline(Duration::from_secs(30), || {
        let files = make_files(7, 12);
        let params = [0.9];
        let reference = ParallelEstimator::new(&model, files.clone(), 1, false)
            .objective(&params)
            .unwrap();
        for ranks in [2, 3, 4] {
            for policy in [FailurePolicy::Abort, FailurePolicy::Penalize] {
                let sim = FaultySimulator::new(model, FaultPlan::new());
                let est = ParallelEstimator::with_config(
                    &sim,
                    files.clone(),
                    ranks,
                    EstimatorConfig {
                        on_failure: policy,
                        ..EstimatorConfig::default()
                    },
                );
                let out = est.objective(&params).unwrap();
                // Bit-identical, not approximately equal.
                assert_eq!(
                    out.error_vector, reference.error_vector,
                    "ranks={ranks} policy={policy:?}"
                );
                assert!(out.health.is_healthy());
            }
        }
    });
}

/// Abort policy (the default) still fails fast on a permanent fault,
/// naming the file in the error.
#[test]
fn abort_policy_names_failing_file() {
    with_deadline(Duration::from_secs(10), || {
        let files = make_files(4, 6);
        let sim = FaultySimulator::new(
            model,
            FaultPlan::new().fail_file(3, "injected: Newton divergence"),
        );
        let est = ParallelEstimator::new(&sim, files, 2, false);
        let err = est.objective(&[1.0]).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("exp03"), "{text}");
        assert!(text.contains("Newton divergence"), "{text}");
    });
}

/// Slow ranks skew the measured per-file times; the dynamic load
/// balancer must still produce an exact cover and the run must finish.
#[test]
fn slowdown_faults_do_not_break_dynamic_load_balancing() {
    with_deadline(Duration::from_secs(30), || {
        let files = make_files(6, 8);
        let plan = FaultPlan::new()
            .slow_call(0, Duration::from_millis(50))
            .slow_call(3, Duration::from_millis(50));
        let sim = FaultySimulator::new(model, plan);
        let est = ParallelEstimator::new(&sim, files, 3, true);
        est.objective(&[1.0]).unwrap();
        // Second call reschedules from the skewed times.
        let out = est.objective(&[1.0]).unwrap();
        assert!(out.health.is_healthy());
        let schedule = est.current_schedule();
        let mut seen: Vec<usize> = schedule.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    });
}
