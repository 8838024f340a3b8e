//! Serial-vs-parallel execution policy for the pipeline's data-parallel
//! stages.
//!
//! The policy type and its order-preserving map helpers live in
//! [`aerorem_numerics::exec`] — the workspace's dependency root — so that
//! `aerorem-ml`'s grid search and k-fold cross-validation can share the
//! exact same machinery as the pipeline stages here. This module re-exports
//! them under the historical `aerorem_core::exec` path; see the numerics
//! module for the determinism contract.

pub use aerorem_numerics::exec::{
    map_chunks, map_vec_with, plan, try_map_vec_with, ExecPlan, ExecPolicy, Granularity,
    ScratchPool,
};
