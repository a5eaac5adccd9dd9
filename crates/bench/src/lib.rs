//! # bench — the experiment harness
//!
//! One module per figure/table of the paper (see DESIGN.md §3 for the
//! index). Each experiment is a plain function returning a [`table::Table`]
//! (plus any artifacts like event diagrams), so the integration tests can
//! assert the *shape* of every result — who wins, by roughly what factor —
//! and the `experiments` binary just prints them.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p bench --bin experiments -- all
//! ```

pub mod experiments;
pub mod table;

pub use table::Table;
