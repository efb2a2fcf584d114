//! A fault-tolerant thread-backed SPMD communicator: the MPI substitute.
//!
//! The paper parallelizes the objective function with MPI processes on an
//! IBM SP (one rank per node, constant process count, `MPI_AllReduce` on
//! the error vectors). We reproduce the same SPMD structure with one OS
//! thread per simulated node and a shared-memory all-reduce — the one
//! collective Fig. 9 calls.
//!
//! Unlike the original (and unlike real MPI on the IBM SP, where one dead
//! rank hung or killed the whole job), this communicator is built to
//! *contain* failures:
//!
//! * [`Communicator::all_reduce_sum`] returns `Result<_, CommError>`
//!   instead of asserting or deadlocking;
//! * the rendezvous is **poison-aware**: when a rank panics, its peers
//!   are woken immediately with [`CommError::RankPanicked`] instead of
//!   parking forever on a barrier;
//! * [`run_cluster`] catches panics per rank (`catch_unwind`) and returns
//!   per-rank `Result`s, so a crash in one rank's objective evaluation is
//!   an observable value, not a process abort.
//!
//! There is no deadline: [`run_cluster`] joins every rank, so a stalled
//! rank holds up the cluster however its peers give up. A caller that
//! needs to bound a region cancels the work inside it (`rms-serve` fires
//! the solvers' cancel token).

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Failures a collective can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A peer rank panicked; the rendezvous was poisoned so every
    /// surviving rank fails fast instead of deadlocking.
    RankPanicked {
        /// The rank that panicked.
        rank: usize,
    },
    /// Ranks passed vectors of different lengths to a reduction.
    LengthMismatch {
        /// A rank whose vector length differs from this rank's.
        rank: usize,
        /// This rank's vector length.
        expected: usize,
        /// The mismatching rank's vector length.
        got: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankPanicked { rank } => {
                write!(f, "rank {rank} panicked; collective poisoned")
            }
            CommError::LengthMismatch {
                rank,
                expected,
                got,
            } => write!(
                f,
                "reduction length mismatch: rank {rank} deposited {got} elements, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Rendezvous guarded state.
#[derive(Debug)]
struct RvState {
    /// Ranks arrived at the current generation.
    arrived: usize,
    /// Completed-rendezvous counter; a waiter is released when it
    /// advances (classic generation-counted barrier, reusable and immune
    /// to spurious wakeups).
    generation: u64,
    /// The first rank that panicked; once set, permanently fails every
    /// subsequent wait so no rank can park on a dead cluster.
    panicked: Option<usize>,
}

/// A reusable, poison-aware barrier.
#[derive(Debug)]
struct Rendezvous {
    state: Mutex<RvState>,
    cv: Condvar,
    size: usize,
}

impl Rendezvous {
    fn new(size: usize) -> Rendezvous {
        Rendezvous {
            state: Mutex::new(RvState {
                arrived: 0,
                generation: 0,
                panicked: None,
            }),
            cv: Condvar::new(),
            size,
        }
    }

    /// Lock the state, surviving std's lock poisoning (a panicking rank
    /// never holds this lock across user code, so the state is always
    /// consistent).
    fn lock(&self) -> MutexGuard<'_, RvState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Rendezvous of all ranks.
    fn wait(&self) -> Result<(), CommError> {
        let mut state = self.lock();
        if let Some(rank) = state.panicked {
            return Err(CommError::RankPanicked { rank });
        }
        let generation = state.generation;
        state.arrived += 1;
        if state.arrived == self.size {
            state.arrived = 0;
            state.generation += 1;
            self.cv.notify_all();
            return Ok(());
        }
        let state = self
            .cv
            .wait_while(state, |s| {
                s.panicked.is_none() && s.generation == generation
            })
            .unwrap_or_else(|e| e.into_inner());
        match state.panicked {
            Some(rank) => Err(CommError::RankPanicked { rank }),
            None => Ok(()),
        }
    }

    /// Kill the cluster: wake every parked rank with an error.
    fn poison(&self, rank: usize) {
        let mut state = self.lock();
        state.panicked.get_or_insert(rank);
        self.cv.notify_all();
    }
}

/// Shared collective state for one cluster.
struct Shared {
    /// Per-rank deposit slots for the reduction.
    slots: Mutex<Vec<Vec<f64>>>,
    /// Reusable poison-aware rendezvous.
    rendezvous: Rendezvous,
    size: usize,
}

impl Shared {
    fn slots(&self) -> MutexGuard<'_, Vec<Vec<f64>>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Handle held by one rank of a running cluster.
pub struct Communicator<'a> {
    shared: &'a Shared,
    rank: usize,
}

impl Communicator<'_> {
    /// This rank's id (`0..size`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// `MPI_Allreduce(…, MPI_SUM)`: element-wise sum of every rank's
    /// vector, in rank order, returned to all ranks. Vectors must share a
    /// length.
    pub fn all_reduce_sum(&self, local: &[f64]) -> Result<Vec<f64>, CommError> {
        self.shared.slots()[self.rank] = local.to_vec();
        self.shared.rendezvous.wait()?;
        let result = {
            let slots = self.shared.slots();
            // Every rank sees the same slot lengths, so if any two ranks
            // disagree, *all* ranks observe a mismatch and return this
            // error together — control flow stays collective-consistent
            // and nobody parks on the release rendezvous alone.
            if let Some((rank, slot)) = slots
                .iter()
                .enumerate()
                .find(|(_, s)| s.len() != local.len())
            {
                return Err(CommError::LengthMismatch {
                    rank,
                    expected: local.len(),
                    got: slot.len(),
                });
            }
            let mut acc = vec![0.0; local.len()];
            for slot in slots.iter() {
                for (a, v) in acc.iter_mut().zip(slot) {
                    *a += v;
                }
            }
            acc
        };
        // Second rendezvous so nobody deposits into the next reduction
        // while a slow rank is still reading this one.
        self.shared.rendezvous.wait()?;
        Ok(result)
    }
}

/// A rank body that panicked instead of returning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPanic {
    /// The rank that panicked.
    pub rank: usize,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
}

impl std::fmt::Display for RankPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

impl std::error::Error for RankPanic {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run an SPMD region: `size` ranks execute `body` concurrently, each
/// with its own [`Communicator`]. Returns the per-rank outcomes in rank
/// order (the analog of `mpirun -np <size>`).
///
/// Each rank body runs under `catch_unwind`: a panicking rank produces
/// `Err(`[`RankPanic`]`)` in its slot and **poisons the rendezvous**, so
/// every peer parked in (or later entering) a collective is woken with
/// [`CommError::RankPanicked`] instead of deadlocking.
pub fn run_cluster<T, F>(size: usize, body: F) -> Vec<Result<T, RankPanic>>
where
    T: Send,
    F: Fn(&Communicator<'_>) -> T + Sync,
{
    assert!(size > 0, "cluster needs at least one rank");
    let shared = Shared {
        slots: Mutex::new(vec![Vec::new(); size]),
        rendezvous: Rendezvous::new(size),
        size,
    };
    let mut results: Vec<Option<Result<T, RankPanic>>> = (0..size).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (rank, slot) in results.iter_mut().enumerate() {
            let shared = &shared;
            let body = &body;
            scope.spawn(move || {
                let comm = Communicator { shared, rank };
                *slot = Some(
                    match panic::catch_unwind(AssertUnwindSafe(|| body(&comm))) {
                        Ok(value) => Ok(value),
                        Err(payload) => {
                            shared.rendezvous.poison(rank);
                            Err(RankPanic {
                                rank,
                                message: panic_message(payload),
                            })
                        }
                    },
                );
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("scoped rank thread joined"))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;

    /// Unwrap every rank's outcome (for tests where nothing may panic).
    fn all_ok<T>(results: Vec<Result<T, RankPanic>>) -> Vec<T> {
        results
            .into_iter()
            .map(|r| r.expect("no rank panicked"))
            .collect()
    }

    #[test]
    fn ranks_and_size() {
        let out = all_ok(run_cluster(4, |comm| (comm.rank(), comm.size())));
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn all_reduce_sum_matches_sequential() {
        for size in [1, 2, 3, 8] {
            let out = all_ok(run_cluster(size, |comm| {
                let local = vec![comm.rank() as f64, 1.0];
                comm.all_reduce_sum(&local).unwrap()
            }));
            let expected_first: f64 = (0..size).map(|r| r as f64).sum();
            for v in &out {
                assert_eq!(v[0], expected_first);
                assert_eq!(v[1], size as f64);
            }
        }
    }

    #[test]
    fn repeated_collectives_do_not_interleave() {
        // Back-to-back reduces with different values must not mix.
        let out = all_ok(run_cluster(4, |comm| {
            let a = comm.all_reduce_sum(&[1.0]).unwrap();
            let b = comm.all_reduce_sum(&[10.0]).unwrap();
            let c = comm.all_reduce_sum(&[100.0]).unwrap();
            (a[0], b[0], c[0])
        }));
        for v in out {
            assert_eq!(v, (4.0, 40.0, 400.0));
        }
    }

    #[test]
    fn single_rank_cluster() {
        let out = all_ok(run_cluster(1, |comm| comm.all_reduce_sum(&[5.0]).unwrap()));
        assert_eq!(out, vec![vec![5.0]]);
    }

    #[test]
    fn real_parallel_execution() {
        // Ranks genuinely run concurrently: the reduction's rendezvous
        // would deadlock otherwise.
        let out = all_ok(run_cluster(4, |comm| {
            comm.all_reduce_sum(&[1.0]).unwrap();
            comm.rank()
        }));
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn panicking_rank_fails_peers_fast_instead_of_deadlocking() {
        let started = Instant::now();
        let results = run_cluster(4, |comm| {
            if comm.rank() == 2 {
                panic!("injected: rank 2 dies before the reduction");
            }
            comm.all_reduce_sum(&[1.0])
        });
        // Without poisoning this would hang forever; bounded wall-clock
        // is the regression property.
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "peers did not fail fast"
        );
        let panicked = results[2].as_ref().expect_err("rank 2 panicked");
        assert_eq!(panicked.rank, 2);
        assert!(panicked.message.contains("injected"));
        for rank in [0, 1, 3] {
            let collective = results[rank].as_ref().expect("rank body completed");
            assert_eq!(collective, &Err(CommError::RankPanicked { rank: 2 }));
        }
    }

    #[test]
    fn panic_after_collectives_poisons_later_collectives() {
        let results = run_cluster(3, |comm| {
            let first = comm.all_reduce_sum(&[1.0]);
            if comm.rank() == 0 {
                panic!("injected: rank 0 dies between collectives");
            }
            let second = comm.all_reduce_sum(&[1.0]);
            (first, second)
        });
        assert!(results[0].is_err());
        for rank in [1, 2] {
            let (first, second) = results[rank].as_ref().expect("body completed");
            assert_eq!(first, &Ok(vec![3.0]));
            assert_eq!(second, &Err(CommError::RankPanicked { rank: 0 }));
        }
    }

    #[test]
    fn length_mismatch_reported_on_all_ranks_without_deadlock() {
        let results = all_ok(run_cluster(3, |comm| {
            let local = vec![0.0; if comm.rank() == 1 { 5 } else { 3 }];
            let mismatch = comm.all_reduce_sum(&local);
            // The cluster survives: control flow stayed consistent, so a
            // well-formed follow-up collective still works.
            let ok = comm.all_reduce_sum(&[1.0]);
            (mismatch, ok)
        }));
        for (rank, (mismatch, ok)) in results.iter().enumerate() {
            assert!(
                matches!(mismatch, Err(CommError::LengthMismatch { .. })),
                "rank {rank}: {mismatch:?}"
            );
            assert_eq!(ok, &Ok(vec![3.0]));
        }
    }
}
