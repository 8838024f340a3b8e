//! Batched query execution on the workspace executor.
//!
//! Callers submit queries in batches ([`RemStore::submit_batch`]) and get
//! answers back in **submission order**. A batch is cut into chunks of
//! [`SERVE_GRANULARITY`] queries and run through `numerics::exec`, the same
//! executor the map pipeline uses: a one-chunk batch (every batch the
//! daemon drains from one socket read) answers inline on the caller's
//! thread, and a larger one spreads its chunks over the executor's workers.
//!
//! Determinism: every answer is a pure function of (store, query) — see
//! [`RemStore::answer`] — and the executor reassembles chunks in input
//! order. Worker count and interleaving therefore cannot change any
//! response bit, and `ExecPolicy::Serial` and `ExecPolicy::Parallel`
//! produce identical batches (test-enforced, and re-checked by the `serve`
//! bench on every run).

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

use aerorem_numerics::exec::{self, Granularity, ScratchPool};
use aerorem_numerics::ExecPolicy;

use crate::query::{Query, Response};
use crate::store::RemStore;

/// Failure answering one batch. The batch is lost but the store — and any
/// daemon serving it — stays alive and keeps answering later batches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A worker panicked mid-batch; carries the panic message when the
    /// payload was a string, a placeholder otherwise.
    WorkerPanic(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::WorkerPanic(msg) => {
                write!(f, "a serve worker panicked while answering: {msg}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How [`RemStore::submit_batch`] cuts a batch into executor chunks:
/// exactly 8 192 queries each (the last chunk may be shorter).
///
/// Answering one point query costs well under a microsecond, so a worker
/// thread must receive thousands of them to amortize its spawn and join.
/// The floor is the crossover BENCH_3 measured (1 024-query batches lost
/// to serial, 65 536-query batches won), so a batch reaches a second
/// worker only from 8 193 queries up. Responses are identical whatever the
/// chunking; only the wall time changes.
pub const SERVE_GRANULARITY: Granularity = Granularity::new(8192, 8192);

impl RemStore {
    /// Answers a batch of queries, preserving order: `result[i]` answers
    /// `queries[i]`.
    ///
    /// The batch runs through `numerics::exec` in [`SERVE_GRANULARITY`]
    /// chunks. Under [`ExecPolicy::Serial`], or when the batch fits in one
    /// chunk, it answers inline on the caller's thread; otherwise the
    /// executor's workers claim the chunks. All arms return bit-identical
    /// responses.
    ///
    /// # Errors
    ///
    /// A panic inside [`RemStore::answer`] — on any worker, in any arm —
    /// is caught and surfaced as [`ServeError::WorkerPanic`] with the
    /// panic's own message: that batch fails, the process does not. The
    /// store stays usable afterwards.
    pub fn submit_batch(
        &self,
        queries: &[Query],
        policy: ExecPolicy,
    ) -> Result<Vec<Response>, ServeError> {
        let no_scratch = ScratchPool::new(|| ());
        panic::catch_unwind(AssertUnwindSafe(|| {
            exec::map_vec_with(policy, SERVE_GRANULARITY, &no_scratch, queries, |(), q| {
                self.answer(q)
            })
        }))
        .map_err(|payload| ServeError::WorkerPanic(panic_message(payload.as_ref())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use crate::workload::{point_workload, Distribution, WorkloadConfig};
    use aerorem_core::rem::RemGrid;
    use aerorem_core::snapshot::RemSnapshot;
    use aerorem_propagation::ap::MacAddress;
    use aerorem_spatial::{Aabb, Vec3};

    fn store() -> RemStore {
        let dims = (16, 14, 9);
        let grids = (1..=3)
            .map(|k| {
                let values = (0..dims.0 * dims.1 * dims.2)
                    .map(|i| -30.0 - ((i * k) as f64 * 0.377).sin() * 35.0)
                    .collect();
                RemGrid::from_parts(
                    MacAddress::from_index(k as u32),
                    Aabb::paper_volume(),
                    dims,
                    values,
                )
                .unwrap()
            })
            .collect();
        RemStore::build(
            &RemSnapshot::new(grids).unwrap(),
            StoreConfig { brick_edge: 4 },
        )
        .unwrap()
    }

    fn mixed_batch(store: &RemStore) -> Vec<Query> {
        let mut batch = point_workload(
            store,
            &WorkloadConfig {
                queries: 400,
                seed: 7,
                distribution: Distribution::Zipfian,
                exponent: 1.0,
            },
        );
        batch.push(Query::BestAp {
            pos: Vec3::new(1.0, 1.0, 1.0),
        });
        batch.push(Query::BoxStats {
            region: Aabb::new(Vec3::new(0.2, 0.2, 0.2), Vec3::new(3.0, 2.9, 1.9)).unwrap(),
            ap: MacAddress::from_index(2),
        });
        batch.push(Query::Coverage {
            threshold_dbm: -45.0,
            ap: MacAddress::from_index(3),
        });
        batch.push(Query::Point {
            pos: Vec3::new(-4.0, 0.0, 0.0), // out of volume
            ap: MacAddress::from_index(1),
        });
        batch
    }

    #[test]
    fn batch_answers_match_one_at_a_time() {
        let store = store();
        let batch = mixed_batch(&store);
        let batched = store.submit_batch(&batch, ExecPolicy::Serial).unwrap();
        let singly: Vec<Response> = batch.iter().map(|q| store.answer(q)).collect();
        assert_eq!(batched, singly);
    }

    #[test]
    fn serial_and_parallel_batches_are_bit_identical() {
        // Three executor chunks, the last one partial, so the parallel arm
        // reaches more than one worker on a multi-core host.
        let mut store = store();
        let mixed = mixed_batch(&store);
        let len = 2 * SERVE_GRANULARITY.min_chunk + mixed.len();
        let batch: Vec<Query> = mixed.iter().cycle().take(len).copied().collect();
        assert_eq!(
            exec::plan(ExecPolicy::Serial, len, SERVE_GRANULARITY).chunks,
            3
        );
        let singly: Vec<Response> = batch.iter().map(|q| store.answer(q)).collect();
        assert_eq!(
            store.submit_batch(&batch, ExecPolicy::Serial).unwrap(),
            singly
        );
        assert_eq!(
            store.submit_batch(&batch, ExecPolicy::Parallel).unwrap(),
            singly
        );

        // A panic on a worker thread keeps its message through the split.
        store.panic_mac = Some(MacAddress::from_index(2));
        let err = store
            .submit_batch(&batch, ExecPolicy::Parallel)
            .unwrap_err();
        assert!(
            matches!(err, ServeError::WorkerPanic(ref msg) if msg.contains("poisoned AP")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let store = store();
        assert!(store.submit_batch(&[], ExecPolicy::Parallel).unwrap().is_empty());
        assert!(store.submit_batch(&[], ExecPolicy::Serial).unwrap().is_empty());
    }

    #[test]
    fn small_batches_fall_back_to_serial_at_the_pinned_threshold() {
        // Up to one chunk runs inline under Parallel; one query more is a
        // second chunk.
        let store = store();
        let floor = SERVE_GRANULARITY.min_chunk;
        assert_eq!(floor, 8192);
        for len in [0, 1024, floor] {
            assert_eq!(
                exec::plan(ExecPolicy::Parallel, len, SERVE_GRANULARITY).workers,
                1
            );
        }
        assert_eq!(
            exec::plan(ExecPolicy::Parallel, floor + 1, SERVE_GRANULARITY).chunks,
            2
        );

        // A sub-threshold batch under Parallel takes the inline serial
        // path; the responses must still bit-match the Serial arm.
        let batch = mixed_batch(&store);
        assert!(batch.len() < floor);
        assert_eq!(
            store.submit_batch(&batch, ExecPolicy::Parallel).unwrap(),
            store.submit_batch(&batch, ExecPolicy::Serial).unwrap(),
        );
    }

    #[test]
    fn a_panicking_worker_fails_the_batch_not_the_process() {
        let mut store = store();
        store.panic_mac = Some(MacAddress::from_index(2));
        let batch = mixed_batch(&store); // names AP 2 via BoxStats at least
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
            let err = store.submit_batch(&batch, policy).unwrap_err();
            assert!(
                matches!(err, ServeError::WorkerPanic(ref msg) if msg.contains("poisoned AP")),
                "unexpected error under {policy}: {err}"
            );
        }
        // The store survives the failed batch: queries that avoid the
        // poisoned AP still answer, so a daemon holding this store lives on.
        let safe = vec![
            Query::BestAp {
                pos: Vec3::new(1.0, 1.0, 1.0),
            },
            Query::Point {
                pos: Vec3::new(1.0, 1.0, 1.0),
                ap: MacAddress::from_index(1),
            },
        ];
        let responses = store.submit_batch(&safe, ExecPolicy::Serial).unwrap();
        assert_eq!(responses.len(), 2);
    }
}
