//! Workloads for the AccelFlow evaluation (paper §VI "Applications").
//!
//! The paper runs 8 SocialNetwork services from DeathStarBench with
//! Alibaba production invocation rates, plus HotelReservation and
//! MediaServices for the load sweeps, FunctionBench serverless
//! functions with Azure invocation traces, and the RELIEF gem5 suite
//! of coarse-grain image/RNN applications. We cannot ship those
//! artifacts, so this crate provides calibrated synthetic equivalents
//! (substitutions documented in DESIGN.md §2):
//!
//! - [`socialnetwork`] — the 8 services with their Table IV paths.
//! - [`suites`] — HotelReservation-like and MediaServices-like mixes.
//! - [`arrivals`] — bursty Alibaba-like and Azure-like arrival
//!   profiles (Markov-modulated Poisson) and their generator.
//! - [`openloop`] — composable open-loop arrival processes (diurnal
//!   cycles, flash crowds, correlated bursts, cold-start storms) via
//!   the [`openloop::ArrivalProcess`] trait (docs/WORKLOADS.md).
//! - [`serverless`] — FunctionBench-like functions (Fig 16).
//! - [`relief_suite`] — coarse-grain accelerator chains standing in
//!   for the RELIEF gem5 image-processing/RNN applications (Fig 15).
//! - [`trainticket`] — Train-Ticket-like services (heavier app logic,
//!   the least-branchy suite of §III Q2).
//! - [`musuite`] — µSuite-like mid-tier/leaf services (the most
//!   tax-dominated suite).
//! - [`config`] — JSON workload files: describe a service mix without
//!   writing Rust (parsed by [`accelflow_sim::json`]).

#![warn(missing_docs)]

pub mod arrivals;
pub mod config;
pub mod musuite;
pub mod openloop;
pub mod relief_suite;
pub mod serverless;
pub mod socialnetwork;
pub mod suites;
pub mod trainticket;

pub use arrivals::{bursty_arrivals, BurstyProfile};
pub use openloop::{openloop_arrivals, ArrivalProcess};
