//! The rocescale benchmark: three named workloads driven through the
//! simulator's public API, timed end to end and split by layer.
//!
//! [`gen`] derives each workload's inputs from a seed, [`run`] executes
//! one workload run with a span around every call into a layer, and
//! [`trace`] keeps those spans. The `perfbench` binary runs one
//! workload once and prints its metrics as one JSON line; `run.py`
//! repeats it for the measured time and reports medians.

#![forbid(unsafe_code)]

pub mod gen;
pub mod run;
pub mod trace;
