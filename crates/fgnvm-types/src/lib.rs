//! Shared vocabulary types for the FgNVM simulator family.
//!
//! This crate defines the units, addresses, requests, and configuration
//! structures used by every other `fgnvm-*` crate. It reproduces the
//! parameters of *"Fine-Granularity Tile-Level Parallelism in Non-volatile
//! Memory Architecture with Two-Dimensional Bank Subdivision"* (DAC 2016):
//! the geometry of a two-dimensionally subdivided NVM bank (subarray groups ×
//! column divisions), the paper's PCM timing and energy constants, and the
//! system presets compared in its evaluation.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), fgnvm_types::error::ConfigError> {
//! use fgnvm_types::config::SystemConfig;
//!
//! // The paper's 8×2 FgNVM design and its baseline, ready to simulate.
//! let fgnvm = SystemConfig::fgnvm(8, 2)?;
//! let baseline = SystemConfig::baseline();
//! assert!(fgnvm.geometry.sensed_bytes_per_activation()
//!     < baseline.geometry.sensed_bytes_per_activation());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod address;
pub mod config;
pub mod error;
pub mod geometry;
pub mod hist;
pub mod params;
pub mod request;
pub mod rng;
pub mod snapshot;
pub mod time;

pub use address::{AddressMapper, DecodedAddr, MappingScheme, PhysAddr, TileCoord};
pub use config::{
    BankModel, EnergyConfig, ReliabilityConfig, SchedulerKind, SystemConfig, TimingConfig,
    TimingCycles,
};
pub use error::{ConfigError, SimError};
pub use geometry::Geometry;
pub use params::{parse_system_config, write_system_config, ParseParamsError};
pub use request::{Completion, Op, Priority, Request, RequestId};
pub use rng::splitmix64;
pub use snapshot::{fnv1a64, SnapshotError, SnapshotReader, SnapshotWriter, SNAPSHOT_VERSION};
pub use time::{Cycle, CycleCount};
