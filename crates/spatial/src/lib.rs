//! 3D geometry for the `aerorem` toolchain.
//!
//! The paper's scan volume is a rectangular cuboid (3.74 × 3.20 × 2.10 m in
//! the demo apartment) over which waypoints are "evenly spread" (§III-A).
//! This crate provides:
//!
//! * [`Vec3`] — double-precision 3D vectors with the usual operations.
//! * [`Attitude`] and [`Pose`] — orientation (roll/pitch/yaw) and position
//!   plus yaw, as used by the commander and the localization EKF.
//! * [`Aabb`] — axis-aligned boxes: the scan volume, walls, and anchor
//!   placement all build on it.
//! * [`grid`] — waypoint lattice generation and fleet partitioning helpers.
//! * [`octree`] — a voxel lattice's values with a per-node-aggregate
//!   octree over them: the serving layer's store and its index for box
//!   statistics and coverage isosurfaces.
//!
//! # Examples
//!
//! ```
//! use aerorem_spatial::{Aabb, Vec3, grid::WaypointGrid};
//!
//! // The paper's living-room volume with 72 evenly spread waypoints.
//! let volume = Aabb::new(Vec3::ZERO, Vec3::new(3.74, 3.20, 2.10)).unwrap();
//! let grid = WaypointGrid::even(volume, 72).unwrap();
//! assert_eq!(grid.len(), 72);
//! assert!(grid.iter().all(|w| volume.contains(*w)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aabb;
pub mod grid;
pub mod octree;
mod pose;
mod vec3;

pub use aabb::Aabb;
pub use pose::{Attitude, Pose};
pub use vec3::Vec3;
