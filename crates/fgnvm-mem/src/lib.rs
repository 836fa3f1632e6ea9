//! Cycle-level PCM main-memory simulator with FgNVM tile-level parallelism.
//!
//! This crate is the NVMain-replacement substrate of the reproduction: a
//! complete memory system (channels → ranks → banks) driven cycle by cycle,
//! with FRFCFS / TLP-aware scheduling, a posted write queue with watermark
//! draining and store-to-load forwarding, a shared (or Multi-Issue widened)
//! data bus, and the paper's energy model.
//!
//! The bank models themselves live in [`fgnvm_bank`]; this crate
//! instantiates whichever the [`SystemConfig`](fgnvm_types::SystemConfig)
//! names and arbitrates the shared channel resources above them.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fgnvm_mem::MemorySystem;
//! use fgnvm_types::config::SystemConfig;
//! use fgnvm_types::request::Op;
//! use fgnvm_types::PhysAddr;
//!
//! // Compare one bank-conflicted pair of reads on baseline vs FgNVM.
//! let mut baseline = MemorySystem::new(SystemConfig::baseline())?;
//! let mut fgnvm = MemorySystem::new(SystemConfig::fgnvm(8, 2)?)?;
//! for mem in [&mut baseline, &mut fgnvm] {
//!     mem.enqueue(Op::Read, PhysAddr::new(0));
//!     mem.enqueue(Op::Read, PhysAddr::new(8 * 1024 * 1024 + 512));
//!     mem.run_until_idle(100_000);
//! }
//! assert!(fgnvm.now() <= baseline.now());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod bus;
pub mod cmdlog;
pub mod controller;
pub mod data;
pub mod energy;
pub mod hybrid;
pub mod queues;
pub mod scheduler;
pub mod stats;
pub mod system;
pub mod wear;

pub use backend::MemoryBackend;
pub use cmdlog::{CommandLog, CommandRecord};
pub use controller::{Controller, Enqueue};
pub use data::DataStore;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use hybrid::HybridMemory;
pub use stats::{SystemStats, TenantStats};
pub use system::{MemorySystem, Sample};
pub use wear::{StartGap, WearTracker};
