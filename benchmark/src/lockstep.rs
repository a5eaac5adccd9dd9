//! `catocs-benchmark lockstep BIN_A BIN_B OUT_A OUT_B [--b-first] <run arguments>`:
//! one run of each of two builds, taking turns step by step.
//!
//! On a shared machine whole runs made back to back still see different
//! machines: the build box slows by a quarter to a half for anything
//! from ten seconds to ten minutes at a time, and a seventeen-second
//! run lands inside or outside such a spell. Here both runs are alive
//! at once and alternate A B A B ... at every set-up and every
//! timed repetition (about two seconds each), one working while the
//! other blocks on its standard input. Whatever the machine does in
//! those forty seconds it does to both, so the two results form a pair
//! whose ratio `compare --paired` can judge against the 10 % bound.
//!
//! The protocol: a run started with `--lockstep` reads one line before
//! each step and writes `step` after it, `end` after its last (the
//! audit); its listing and result follow.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};

/// The run side: blocks until the other side has finished its step.
/// Returned closure is [`crate::measure::measure`]'s `turn`.
pub fn wait_turn() -> impl FnMut() {
    let mut first = true;
    move || {
        if !first {
            finished_step("step");
        }
        first = false;
        let mut go = String::new();
        // End of input: whoever was conducting is gone, so run on alone.
        let _ = std::io::stdin().lock().read_line(&mut go);
    }
}

/// The run side: reports a finished step.
pub fn finished_step(word: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{word}").and_then(|()| out.flush());
}

struct Side {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    done: bool,
}

impl Side {
    fn spawn(bin: &str, out: &str, run_args: &[String]) -> std::io::Result<Side> {
        let mut child = Command::new(bin)
            .args(run_args)
            .args(["--lockstep", "--out", out])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped");
        let stdout = BufReader::new(child.stdout.take().expect("piped"));
        Ok(Side {
            child,
            stdin,
            stdout,
            done: false,
        })
    }

    /// Lets the run do its next step and waits for it.
    fn step(&mut self) {
        if self.done {
            return;
        }
        let mut line = String::new();
        let told = writeln!(self.stdin, "go").and_then(|()| self.stdin.flush());
        let heard = self.stdout.read_line(&mut line);
        self.done = told.is_err() || !matches!(heard, Ok(n) if n > 0) || line.trim() == "end";
    }

    /// Whether the run ended well, once it has.
    fn finish(mut self) -> bool {
        drop(self.stdin);
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        self.child.wait().is_ok_and(|s| s.success())
    }
}

/// Entry point of the `lockstep` subcommand.
pub fn main(args: &[String]) -> ExitCode {
    let [bin_a, bin_b, out_a, out_b, rest @ ..] = args else {
        eprintln!("catocs-benchmark: lockstep takes BIN_A BIN_B OUT_A OUT_B [--b-first] and the arguments of a run");
        return ExitCode::from(2);
    };
    let (b_first, run_args) = match rest.split_first() {
        Some((flag, tail)) if flag == "--b-first" => (true, tail),
        _ => (false, rest),
    };
    let cannot_start = |bin: &str, e: std::io::Error| {
        eprintln!("catocs-benchmark: lockstep: {bin}: {e}");
        ExitCode::from(2)
    };
    let mut a = match Side::spawn(bin_a, out_a, run_args) {
        Ok(a) => a,
        Err(e) => return cannot_start(bin_a, e),
    };
    let b = match Side::spawn(bin_b, out_b, run_args) {
        Ok(b) => b,
        Err(e) => {
            let _ = a.child.kill();
            let _ = a.child.wait();
            return cannot_start(bin_b, e);
        }
    };
    let mut sides = [a, b];
    // Strictly alternating, so a slow spell of the machine that spans
    // two steps lands on one of each side, and every step follows one
    // of the other side's (neither ever finds its own data in cache).
    let order = if b_first { [1, 0] } else { [0, 1] };
    while sides.iter().any(|s| !s.done) {
        for i in order {
            sides[i].step();
        }
    }
    let [a, b] = sides;
    let (a_ok, b_ok) = (a.finish(), b.finish());
    if a_ok && b_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("catocs-benchmark: lockstep: run A ok: {a_ok}, run B ok: {b_ok}");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Conducts two shell scripts that speak the run side's protocol and
    /// note whose step it was; returns the exit code and the notes.
    fn conduct(script: &str, b_first: bool) -> (ExitCode, String) {
        let log = std::env::temp_dir().join(format!(
            "catocs-lockstep-{}-{b_first}-{}",
            std::process::id(),
            script.len()
        ));
        let _ = std::fs::remove_file(&log);
        // `sh -c SCRIPT --lockstep --out NAME`: the side's name is $2.
        let script = script.replace("LOG", &log.display().to_string());
        let mut args: Vec<String> = ["sh", "sh", "A", "B"].map(String::from).to_vec();
        if b_first {
            args.push("--b-first".into());
        }
        args.extend(["-c".to_string(), script]);
        let code = main(&args);
        let notes = std::fs::read_to_string(&log).unwrap_or_default();
        let _ = std::fs::remove_file(&log);
        (code, notes.split_whitespace().collect::<Vec<_>>().join(""))
    }

    #[test]
    fn the_two_runs_alternate() {
        let run = "for word in step step step end; do read go; echo $2 >> LOG; echo $word; done";
        let (code, notes) = conduct(run, false);
        assert_eq!((code, notes.as_str()), (ExitCode::SUCCESS, "ABABABAB"));
        assert_eq!(conduct(run, true).1, "BABABABA");
        // A side with fewer steps just stops taking turns.
        let uneven = "n=2; [ $2 = B ] && n=4; while [ $n -gt 0 ]; do read go; echo $2 >> LOG; n=$((n-1)); echo step; done";
        assert_eq!(conduct(uneven, false).1, "ABABBB");
    }

    #[test]
    fn a_run_that_fails_fails_the_pair() {
        let (code, _) = conduct("read go; echo end; [ $2 = A ]", false);
        assert_eq!(code, ExitCode::FAILURE);
        assert_eq!(main(&["only".to_string()]), ExitCode::from(2));
    }
}
