//! Wall-clock benchmark for the catocs stack.
//!
//! One process, one thread, one workload per invocation: inputs are
//! generated from `--seed`, the fixed work is repeated a fixed number of
//! times, the repetition is reported as its parts' quietest readings add
//! up to (`measure::quiet_wall`) and every output is checked.
//! A separate traced run (`--trace 1`, in the `catocs-benchmark-traced`
//! binary so the counting allocator never touches the timed build) wraps
//! the calls into each layer's public functions and prints the per-layer
//! rows. Everything here calls the repository through its `pub` items
//! only; see `README.md` for the workload rationale and how to read a
//! result.

pub mod catalogue;
pub mod chaos;
pub mod cli;
pub mod compare;
pub mod dense;
pub mod layers;
pub mod lockstep;
pub mod measure;
pub mod outcome;
pub mod probes;
pub mod replay;
pub mod report;
pub mod sparse;
pub mod trace;
pub mod workload;
