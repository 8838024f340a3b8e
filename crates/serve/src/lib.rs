//! REM-as-a-service: the in-memory query engine over snapshot grids, its
//! wire protocol and its daemon.
//!
//! The source paper ends where the fine-grained 3D REM has been
//! generated; this crate is the layer that *serves* it. The flow
//! (diagrammed in `ARCHITECTURE.md` §"Serving layer"):
//!
//! ```text
//! rem.snap (docs/SNAPSHOT_FORMAT.md)
//!     │  RemSnapshot::load — versioned, checksummed, endian-stable
//!     ▼
//! RemStore::build
//!     ├─ per-AP bricks       — point / best-AP lookups
//!     └─ per-AP octrees      — box stats / coverage isosurfaces
//!     ▼
//! RemStore::submit_batch(&[Query], ExecPolicy) → Result<Vec<Response>, ServeError>
//!     └─ numerics::exec, SERVE_GRANULARITY chunks (one chunk runs inline)
//! ```
//!
//! Batches answer under either [`ExecPolicy`] arm with bit-identical
//! results; the `serve` bench drives ≥1M zipfian point queries/s through
//! this path and re-checks that equivalence on every run.
//!
//! # Examples
//!
//! ```
//! use aerorem_core::rem::RemGrid;
//! use aerorem_core::snapshot::RemSnapshot;
//! use aerorem_propagation::ap::MacAddress;
//! use aerorem_serve::{ExecPolicy, Query, RemStore, Response, StoreConfig};
//! use aerorem_spatial::{Aabb, Vec3};
//!
//! let grid = RemGrid::from_parts(
//!     MacAddress::from_index(1),
//!     Aabb::paper_volume(),
//!     (8, 8, 4),
//!     (0..256).map(|i| -40.0 - (i % 30) as f64).collect(),
//! ).unwrap();
//! let snap = RemSnapshot::new(vec![grid]).unwrap();
//! let store = RemStore::build(&snap, StoreConfig::default()).unwrap();
//!
//! let queries = [
//!     Query::Point { pos: Vec3::new(1.0, 1.0, 1.0), ap: MacAddress::from_index(1) },
//!     Query::BestAp { pos: Vec3::new(2.0, 2.0, 1.5) },
//! ];
//! let responses = store.submit_batch(&queries, ExecPolicy::Serial).unwrap();
//! assert!(matches!(responses[0], Response::Value(Some(_))));
//! assert!(matches!(responses[1], Response::Best(Some(_))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
mod engine;
pub mod query;
pub mod store;
pub mod wire;
pub mod workload;

pub use aerorem_numerics::ExecPolicy;
pub use client::{ClientError, WireClient};
pub use daemon::{Daemon, DaemonConfig, Listener, ServerHandle};
pub use engine::{ServeError, SERVE_GRANULARITY};
pub use query::{Query, Response};
pub use store::{RemStore, StoreConfig, StoreError};
pub use wire::{Frame, FrameKind, Message, WireError};
pub use workload::{point_workload, Distribution, WorkloadConfig};
