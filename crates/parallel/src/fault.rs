//! Deterministic fault injection for the parallel runtime.
//!
//! Testing fault tolerance with real faults is flaky by construction, so
//! this module provides a deterministic harness instead: a [`FaultPlan`]
//! names exactly which simulator calls misbehave — by global call index
//! or by file index — and [`FaultySimulator`] wraps any real
//! [`Simulator`], consulting the plan on every call. The same plan always
//! produces the same fault sequence, so the integration tests in
//! `tests/fault_tolerance.rs` can assert exact failure counts, exact
//! [`HealthReport`](crate::estimator::HealthReport) contents, and
//! bit-identical no-fault behavior.
//!
//! Three fault kinds cover the failure model in DESIGN.md:
//!
//! * **simulator errors** — `simulate` returns `Err` on every call for a
//!   file (a real solve is a pure function of its inputs, so it fails the
//!   same way every time), exercising the penalty and abort paths;
//! * **rank panics** — `simulate` panics at a chosen global call index,
//!   exercising `catch_unwind` containment and rendezvous poisoning;
//! * **slowdowns** — `simulate` sleeps before delegating, exercising
//!   deadline supervision and load-balance skew.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::estimator::Simulator;

/// A deterministic script of faults to inject.
///
/// Built with the `fail_file`/`panic_at_call`/`slow_call` builder
/// methods; attach it to a simulator with [`FaultySimulator::new`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Per-file scripted simulator errors.
    file_faults: HashMap<usize, String>,
    /// Global call indices (0-based, counted across all ranks) at which
    /// `simulate` panics.
    panic_calls: Vec<usize>,
    /// Global call indices at which `simulate` sleeps first.
    slow_calls: HashMap<usize, Duration>,
    /// File indices whose every `simulate` call panics. Unlike
    /// `panic_at_call`, independent of scheduling order — the natural
    /// form for multi-tenant server tests where the global call order is
    /// nondeterministic.
    panic_files: Vec<usize>,
    /// Per-file sleeps applied before delegating, scheduling-independent
    /// like `panic_files`. Exercises deadline supervision.
    stall_files: HashMap<usize, Duration>,
}

impl FaultPlan {
    /// An empty plan: no faults; the wrapper is a transparent pass-through.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Make every `simulate` call for `file` fail with `message`.
    pub fn fail_file(mut self, file: usize, message: &str) -> FaultPlan {
        self.file_faults.insert(file, message.to_string());
        self
    }

    /// Panic inside the `call`-th `simulate` invocation (0-based, counted
    /// globally across ranks in arrival order).
    pub fn panic_at_call(mut self, call: usize) -> FaultPlan {
        self.panic_calls.push(call);
        self
    }

    /// Sleep for `delay` at the start of the `call`-th invocation.
    pub fn slow_call(mut self, call: usize, delay: Duration) -> FaultPlan {
        self.slow_calls.insert(call, delay);
        self
    }

    /// Panic on every `simulate` call for `file`, regardless of call
    /// order.
    pub fn panic_file(mut self, file: usize) -> FaultPlan {
        self.panic_files.push(file);
        self
    }

    /// Sleep for `delay` on every `simulate` call for `file`, regardless
    /// of call order.
    pub fn stall_file(mut self, file: usize, delay: Duration) -> FaultPlan {
        self.stall_files.insert(file, delay);
        self
    }
}

/// A [`Simulator`] wrapper that injects the faults scripted in a
/// [`FaultPlan`] and otherwise delegates to the wrapped simulator.
pub struct FaultySimulator<S> {
    inner: S,
    plan: FaultPlan,
    /// Global `simulate` call counter (across all ranks).
    calls: AtomicUsize,
}

impl<S: Simulator> FaultySimulator<S> {
    /// Wrap `inner`, injecting the faults scripted in `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultySimulator<S> {
        FaultySimulator {
            inner,
            plan,
            calls: AtomicUsize::new(0),
        }
    }

    /// Total `simulate` calls observed so far (across all ranks,
    /// including failed and panicked ones).
    pub fn call_count(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl<S: Simulator> Simulator for FaultySimulator<S> {
    fn simulate(
        &self,
        rate_constants: &[f64],
        file_index: usize,
        times: &[f64],
    ) -> Result<Vec<f64>, String> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        if let Some(delay) = self.plan.slow_calls.get(&call) {
            std::thread::sleep(*delay);
        }
        if self.plan.panic_calls.contains(&call) {
            panic!("injected panic at simulate call {call} (file {file_index})");
        }
        if let Some(delay) = self.plan.stall_files.get(&file_index) {
            std::thread::sleep(*delay);
        }
        if self.plan.panic_files.contains(&file_index) {
            panic!("injected panic for file {file_index}");
        }
        if let Some(message) = self.plan.file_faults.get(&file_index) {
            return Err(message.clone());
        }
        self.inner.simulate(rate_constants, file_index, times)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_model(_p: &[f64], _file: usize, times: &[f64]) -> Result<Vec<f64>, String> {
        Ok(vec![1.0; times.len()])
    }

    #[test]
    fn empty_plan_is_transparent() {
        let sim = FaultySimulator::new(ok_model, FaultPlan::new());
        let out = sim.simulate(&[1.0], 0, &[0.1, 0.2]).unwrap();
        assert_eq!(out, vec![1.0, 1.0]);
        assert_eq!(sim.call_count(), 1);
    }

    #[test]
    fn permanent_failure_never_recovers() {
        let plan = FaultPlan::new().fail_file(0, "broken");
        let sim = FaultySimulator::new(ok_model, plan);
        for _ in 0..10 {
            assert_eq!(sim.simulate(&[], 0, &[0.1]), Err("broken".to_string()));
        }
        // Other files are untouched.
        assert!(sim.simulate(&[], 1, &[0.1]).is_ok());
    }

    #[test]
    fn panic_fires_at_exact_call_index() {
        let plan = FaultPlan::new().panic_at_call(1);
        let sim = FaultySimulator::new(ok_model, plan);
        assert!(sim.simulate(&[], 0, &[0.1]).is_ok());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = sim.simulate(&[], 0, &[0.1]);
        }));
        assert!(caught.is_err());
        assert!(sim.simulate(&[], 0, &[0.1]).is_ok());
    }

    #[test]
    fn panic_file_fires_on_every_call_for_that_file_only() {
        let plan = FaultPlan::new().panic_file(2);
        let sim = FaultySimulator::new(ok_model, plan);
        assert!(sim.simulate(&[], 0, &[0.1]).is_ok());
        for _ in 0..2 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = sim.simulate(&[], 2, &[0.1]);
            }));
            assert!(caught.is_err());
        }
        assert!(sim.simulate(&[], 1, &[0.1]).is_ok());
    }

    #[test]
    fn stall_file_delays_only_that_file() {
        let plan = FaultPlan::new().stall_file(1, Duration::from_millis(30));
        let sim = FaultySimulator::new(ok_model, plan);
        let t0 = std::time::Instant::now();
        sim.simulate(&[], 0, &[0.1]).unwrap();
        assert!(t0.elapsed() < Duration::from_millis(25));
        let t1 = std::time::Instant::now();
        sim.simulate(&[], 1, &[0.1]).unwrap();
        assert!(t1.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn slow_call_delays() {
        let plan = FaultPlan::new().slow_call(0, Duration::from_millis(30));
        let sim = FaultySimulator::new(ok_model, plan);
        let t0 = std::time::Instant::now();
        sim.simulate(&[], 0, &[0.1]).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }
}
