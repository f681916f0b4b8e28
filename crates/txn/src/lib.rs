#![warn(missing_docs)]

//! Concurrency control for bulk deletes — paper §3.1.
//!
//! "It may still be beneficial to allow concurrent transactions while bulk
//! deletion is still in progress." This crate provides the pieces §3.1
//! describes and an orchestrator that runs them:
//!
//! * [`lock::LockManager`] — shared/exclusive table locks (the bulk deleter
//!   "locks table R exclusively");
//! * [`gate::IndexGate`] — per-index online/offline state;
//! * [`sidefile::SideFile`] — change capture + catch-up + quiesce for
//!   offline indices (§3.1.1, after Mohan & Narang);
//! * direct propagation with *undeletable* entry marks (§3.1.2);
//! * [`txndb::TxnDb`] — the protocol: exclusive phase over table + unique
//!   indices, early commit, background propagation to non-unique indices
//!   while updater transactions run.

pub mod error;
pub mod gate;
pub mod lock;
pub mod sidefile;
pub mod txndb;

pub use error::{TxnError, TxnResult};
pub use gate::{IndexGate, IndexState};
pub use lock::{LockError, LockManager, LockMode, TxnId};
pub use sidefile::{SideFile, SideOp};
pub use txndb::{LiveDeleteStats, PropagationMode, TxnDb};
