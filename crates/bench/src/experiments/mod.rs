//! One module per reproduced figure/table. See DESIGN.md §3 for the
//! experiment index and EXPERIMENTS.md for the paper-vs-measured record.

pub mod ablate;
pub mod bench;
pub mod chaos;
pub mod explain;
pub mod f1;
pub mod f2;
pub mod f3;
pub mod f4;
pub mod latency;
pub mod replay;
pub mod shrink;
pub mod t10;
pub mod t11;
pub mod t12;
pub mod t13;
pub mod t14;
pub mod t15;
pub mod t16;
pub mod t5;
pub mod t6;
pub mod t7;
pub mod t7plus;
pub mod t8;
pub mod t9;
pub mod waitgraph;

use crate::table::Table;

/// Runs every experiment at its default scale, returning all tables in
/// paper order.
pub fn run_all() -> Vec<Table> {
    let mut out = Vec::new();
    let (t, diagram) = f1::run(11);
    println!("{diagram}");
    out.push(t);
    out.push(f2::run(60));
    out.push(f3::run(60));
    out.push(f4::run(6));
    out.push(t5::run(&[4, 8, 16, 32, 48]));
    out.push(t6::run(&[4, 8, 16, 32]));
    out.push(t7::run(&[4, 8, 16, 32, 64, 128, 256]));
    out.push(t7plus::run(&[4, 16, 64, 256, 1024, 4096]));
    out.push(t8::run());
    out.push(t9::run(&[4, 8, 12]));
    out.push(t10::run(&[2, 4, 8, 16]));
    out.push(t11::run(&[4, 8, 16, 32]));
    out.push(t12::run());
    out.push(t13::run(&[0.0, 0.05, 0.15, 0.30]));
    out.push(t14::run());
    out.push(t15::run(&[3, 5, 9]));
    out.push(t16::run());
    out.push(chaos::run(20, replay::Algo::Cbcast).0);
    out.push(latency::compare(0));
    out.extend(ablate::run());
    out
}
