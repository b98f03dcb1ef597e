//! # wsn-power
//!
//! Power-management substrate for the MobiQuery reproduction.
//!
//! The paper assumes the sensor network runs a power-management protocol —
//! CCP (Coverage Configuration Protocol), SPAN or GAF — that keeps a small
//! **backbone** of always-active nodes providing connectivity (and, for CCP,
//! sensing coverage), while every other node duty-cycles its radio. MobiQuery
//! is evaluated on top of CCP + 802.11 PSM.
//!
//! This crate provides:
//!
//! * [`ccp`] — a CCP-style backbone election: a node may sleep only when its
//!   sensing area is already covered by other active nodes. With the paper's
//!   parameters (communication range ≥ 2 × sensing range) the resulting
//!   backbone is also connected, which is CCP's central theorem.
//! * [`raster`] — the incremental coverage raster backing the election:
//!   dense per-sample-point coverage counts built once per deployment, so a
//!   tentative demotion is an O(disk-points) pass with O(1) lookups instead
//!   of a grid range query per point.
//! * [`repair`] — incremental backbone repair under node churn: deaths and
//!   joins mark a dirty coverage region and only the perturbed nodes are
//!   re-elected, provably matching the full priority election bit for bit.
//! * [`energy`] — per-node radio energy accounting against a
//!   [`wsn_net::RadioPowerProfile`], producing the per-sleeping-node power
//!   numbers of the paper's Figure 8.
//! * [`plan`] — the "power plan" (the backbone role of each node) consumed
//!   by the protocol simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ccp;
pub mod energy;
pub mod plan;
pub mod raster;
pub mod repair;

pub use ccp::{elect_backbone_priority, elect_backbone_reference, CcpConfig};
pub use energy::EnergyLedger;
pub use plan::PowerPlan;
pub use raster::{CoverageOverflow, CoverageRaster, DirtyRegion, MAX_COVERAGE_COUNT};
pub use repair::{RepairStats, RepairableBackbone};
