//! Command line shared by the two binaries.
//!
//! ```text
//! catocs-benchmark        --workload W --seed N --seconds S --trace 0 [--out FILE]
//! catocs-benchmark lockstep BIN_A BIN_B OUT_A OUT_B [--b-first] --workload W --seed N [--seconds S]
//! catocs-benchmark-traced --workload W --seed N --seconds S --trace 1 [--out FILE] [--results DIR]
//! catocs-benchmark catalogue [--json | --markdown]
//! catocs-benchmark workloads
//! catocs-benchmark compare A.jsonl B.jsonl [--paired | --aa]   (--aa exits 3 when inconclusive)
//! ```
//!
//! A run prints every metric with its unit, then — as the last line of
//! standard output — one JSON object with exactly `correct`,
//! `attempted`, `failed` and `metrics`, and exits non-zero if any check
//! failed.

use crate::catalogue;
use crate::compare::{compare, RunSet, MIN_AA_PAIRS};
use crate::layers::{traced_run, AllocReader};
use crate::lockstep;
use crate::measure::measure;
use crate::report::{self, Report};
use crate::workload::{Scale, NAMES};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// A parsed run request.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for (sets the repetition count).
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Results file to append a record to.
    pub out: Option<PathBuf>,
    /// Directory for the trace file.
    pub results: Option<PathBuf>,
    /// Take turns with another run (see [`crate::lockstep`]).
    pub lockstep: bool,
}

/// Parses the arguments of a run.
pub fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: catalogue::RUN_SECONDS as f64,
        trace: false,
        out: None,
        results: None,
        lockstep: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => r.workload = value()?.clone(),
            "--seed" => r.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                r.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(r.seconds > 0.0 && r.seconds <= 3600.0) {
                    return Err("--seconds must be within (0, 3600]".into());
                }
            }
            "--trace" => {
                r.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => r.out = Some(PathBuf::from(value()?)),
            "--results" => r.results = Some(PathBuf::from(value()?)),
            "--lockstep" => r.lockstep = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if r.lockstep && r.trace {
        return Err("--lockstep is for untraced runs".into());
    }
    if !NAMES.contains(&r.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not `{}`",
            NAMES.join(", "),
            r.workload
        ));
    }
    Ok(r)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("catocs-benchmark: {msg}");
    ExitCode::from(2)
}

/// Entry point of both binaries. `alloc` is the traced binary's
/// counting-allocator reader; the timed binary passes `None` and
/// refuses `--trace 1`, the traced binary refuses `--trace 0`, so the
/// counting allocator can never touch an end-to-end number.
pub fn main(alloc: Option<AllocReader>) -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("catalogue") => match args.get(1).map(String::as_str) {
            Some("--json") => print!("{}", catalogue::benchmark_json()),
            Some("--markdown") | None => print!("{}", catalogue::markdown()),
            Some(other) => {
                return fail(&format!(
                    "catalogue takes --json or --markdown, not {other}"
                ))
            }
        },
        Some("workloads") => NAMES.iter().for_each(|n| println!("{n}")),
        Some("compare") => return run_compare(&args[1..]),
        Some("lockstep") => return lockstep::main(&args[1..]),
        _ => return run(&args, process_start, alloc),
    }
    ExitCode::SUCCESS
}

fn run_compare(args: &[String]) -> ExitCode {
    let (files, flags): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| !a.starts_with("--"));
    // --aa: A and B are paired sets of one build.
    let (paired, aa) = match flags.as_slice() {
        [] => (false, false),
        [f] if f.as_str() == "--paired" => (true, false),
        [f] if f.as_str() == "--aa" => (true, true),
        _ => return fail("compare takes A B [--paired | --aa]"),
    };
    let [a, b] = files.as_slice() else {
        return fail("compare takes two results files");
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| RunSet::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    if aa && a.fewest_runs() < MIN_AA_PAIRS {
        return fail(&format!(
            "--aa needs at least {MIN_AA_PAIRS} pairs per workload"
        ));
    }
    let c = match compare(&a, &b, paired) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    print!("{}", c.table());
    if c.rows.is_empty() {
        return fail("the two files share no (workload, metric)");
    }
    if !aa {
        return if c.rejects() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    match c.same_build_agrees() {
        Some(true) => {
            println!("A/A: every end-to-end metric unchanged, every per-seed metric bit-identical");
            ExitCode::SUCCESS
        }
        Some(false) => {
            println!("A/A: the two sets of the same build DISAGREE");
            ExitCode::FAILURE
        }
        None => {
            println!("A/A: inconclusive - the pairs made leave some median ratio uncertain by more than its bound; run more passes");
            ExitCode::from(3)
        }
    }
}

fn run(args: &[String], process_start: Instant, alloc: Option<AllocReader>) -> ExitCode {
    let r = match parse_run(args) {
        Ok(r) => r,
        Err(e) => return fail(&e),
    };
    let report: Report = match (r.trace, alloc) {
        (false, None) => {
            let mut turn: Box<dyn FnMut()> = if r.lockstep {
                Box::new(lockstep::wait_turn())
            } else {
                Box::new(|| ())
            };
            let m = measure(
                &r.workload,
                r.seed,
                &Scale::FULL,
                r.seconds,
                process_start,
                &mut turn,
            )
            .expect("workload name was validated");
            if r.lockstep {
                lockstep::finished_step("end");
            }
            report::end_to_end(&m)
        }
        (true, Some(_)) => {
            let t = traced_run(&r.workload, r.seed, &Scale::FULL, process_start, alloc)
                .expect("workload name was validated");
            if let Some(dir) = &r.results {
                let path = dir.join(format!("trace-{}-{}.json", r.workload, r.seed));
                let text = report::trace_file(&r.workload, r.seed, &t.spans);
                if let Err(e) =
                    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text))
                {
                    return fail(&format!("{}: {e}", path.display()));
                }
            }
            report::per_layer(&t)
        }
        (true, None) => return fail("--trace 1 runs in catocs-benchmark-traced"),
        (false, Some(_)) => return fail("--trace 0 runs in catocs-benchmark"),
    };
    if let Some(path) = &r.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", report.record_line(&r.workload, r.seed, r.trace)));
        if let Err(e) = appended {
            return fail(&format!("{}: {e}", path.display()));
        }
    }
    print!("{}", report.listing(&r.workload, r.seed));
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_invocation() {
        let r = parse_run(&args(
            "--workload dense_cbcast --seed 42 --seconds 11 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.seconds, r.trace),
            ("dense_cbcast", 42, 11.0, false)
        );
        assert!(
            parse_run(&args("--workload chaos_vsync --trace 1"))
                .unwrap()
                .trace
        );
    }

    #[test]
    fn rejects_what_it_cannot_run() {
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload dense_fifo --trace 2",
            "--workload dense_fifo --seconds 0",
            "--workload dense_fifo --seed x",
            "--workload dense_fifo --bogus 1",
            "--workload dense_fifo --trace 1 --lockstep",
            "--workload",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
    }
}
