//! Security machinery: threat models, Visibility-Point logic, defense
//! schemes, and the Pinned Loads structures.
//!
//! This crate implements the paper's security-side mechanisms as pure data
//! structures that the pipeline (`pl-cpu`) drives:
//!
//! * [`VpMask`]/[`VpStatus`] — which squash sources the threat model cares
//!   about, and which a given load has cleared (Sections 1–3). Figure 1's
//!   cumulative release points are just partial masks.
//! * [`scheme`] — the issue policies of Table 2: Fence, Delay-On-Miss, and
//!   STT, plus the unsafe baseline.
//! * [`TaintTracker`] — the taint propagation STT needs.
//! * [`Cst`] — the Cache Shadow Table of Section 6.2 (Early Pinning).
//! * [`Cpt`] — the Cannot-Pin Table of Section 6.3.
//! * [`PinGovernor`] — per-core pinning bookkeeping shared by Late and
//!   Early Pinning (Section 5.2).
//! * [`hw_cost`] — the storage arithmetic behind Section 9.2.4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpt;
pub mod cst;
pub mod hw_cost;
pub mod pin;
pub mod scheme;
pub mod taint;
pub mod vp;

pub use cpt::Cpt;
pub use cst::{Cst, CstOutcome};
pub use pin::{PinGovernor, PinState};
pub use scheme::IssuePolicy;
pub use taint::TaintTracker;
pub use vp::{VpMask, VpStatus, VP_CONDITIONS};
