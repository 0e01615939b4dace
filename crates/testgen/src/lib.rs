//! # pokemu-testgen
//!
//! Test-program generation for PokeEMU-rs (paper §4): the baseline state
//! initializer that brings any target to a known 32-bit protected-mode
//! environment with paging ([`layout`]), the gadget library that establishes
//! arbitrary test states on top of it with dependency-ordered sequencing
//! ([`gadgets`]), and the assembly of complete bootable test programs
//! ([`program`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gadgets;
pub mod layout;
pub mod program;

pub use gadgets::{GadgetError, GadgetPlan, StateItem, TestState};
pub use layout::{apply_boot, boot_state, BootSeg, BootState};
pub use program::{chain_path_id, fnv1a, ChainSegment, SegmentMeta, TestProgram};
