//! The measurement loop: set-ups, timed repetitions of identical fixed
//! work, and the process-level readings (peak RSS, on-CPU time, a
//! calibration kernel).

use crate::outcome::{Outcome, Rep};
use crate::workload::{Scale, Workload};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fewest timed repetitions a run reports from.
pub const MIN_REPS: usize = 5;
/// Most timed repetitions, however long `--seconds` is.
pub const MAX_REPS: usize = 7;

/// What an untraced run measured.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Wall time of each set-up: inputs from the seed, everything built,
    /// one full warm-up repetition run and checked. The first counts
    /// from process start.
    pub setups: Vec<Duration>,
    /// Wall time of each timed repetition.
    pub walls: Vec<Duration>,
    /// What one repetition takes when nothing else has the machine: see
    /// [`quiet_wall`].
    pub quiet: Duration,
    /// The (identical) outcome of the repetitions, audited.
    pub outcome: Outcome,
    /// Repetitions, warm-ups included, whose outcome differed from the
    /// first warm-up's.
    pub mismatched: u64,
    /// On-CPU share of the timed repetitions.
    pub oncpu_share: f64,
}

/// How many timed repetitions `seconds` of measurement allows when one
/// takes `rep`: the work per repetition is fixed, only their number
/// follows the request, between [`MIN_REPS`] and [`MAX_REPS`].
pub fn reps_for(seconds: f64, rep: Duration) -> usize {
    let fit = (seconds / rep.as_secs_f64().max(1e-9)).round();
    (fit as usize).clamp(MIN_REPS, MAX_REPS)
}

/// The wall time of one repetition put together from the quietest
/// reading of each of its parts: part `i` did the same work in every
/// repetition, so its fastest time over them is the one the machine's
/// other tenants disturbed least, and the sum over `i` is a repetition
/// none of whose parts was disturbed much.
///
/// The build box shares its cores and memory with other virtual
/// machines, and their load comes in bursts from tens of ms to minutes
/// long that slow this single thread by up to 1.6x without taking it
/// off the CPU. The median of five two-second repetitions moved by 14 %
/// (interquartile over twelve runs of one seed in such a spell); this
/// sum, over the same readings, by 6 %. Noise here only ever adds time,
/// and a cost the program itself pays in a part it pays in every
/// repetition, so it stays in.
pub fn quiet_wall(reps: &[Vec<Duration>]) -> Duration {
    let parts = reps.first().map_or(0, Vec::len);
    (0..parts)
        .map(|i| reps.iter().map(|r| r[i]).min().unwrap_or_default())
        .sum()
}

/// Runs workload `name`: [`SETUPS`] set-ups, then the timed repetitions.
/// `process_start` is when `main` began. `turn` is called before every
/// set-up, every repetition and the audit; a lockstep run blocks in it
/// until the machine is its own (see `cli`), any other passes a no-op.
/// `None` for an unknown name.
pub fn measure(
    name: &str,
    seed: u64,
    scale: &Scale,
    seconds: f64,
    process_start: Instant,
    turn: &mut dyn FnMut(),
) -> Option<Measured> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut mismatched = 0;
    let mut first: Option<Outcome> = None;
    let mut workload = None;
    let mut warm_wall = Duration::ZERO;
    for i in 0..SETUPS {
        let waiting = Instant::now();
        turn();
        // The first set-up counts from process start, less any wait
        // for the turn.
        let start = if i == 0 {
            process_start + waiting.elapsed()
        } else {
            Instant::now()
        };
        let w = Workload::generate(name, seed, scale)?;
        let warm = w.execute();
        setups.push(start.elapsed());
        warm_wall = warm.wall;
        match &first {
            None => first = Some(warm.outcome),
            Some(f) => mismatched += u64::from(!f.same_run(&warm.outcome)),
        }
        workload = Some(w);
    }
    let workload = workload.expect("at least one set-up ran");
    let first = first.expect("at least one set-up ran");

    let reps = reps_for(seconds, warm_wall);
    let mut walls = Vec::with_capacity(reps);
    let mut parts = Vec::with_capacity(reps);
    let cpu0 = oncpu_ns();
    let span = Instant::now();
    let mut last: Option<Rep> = None;
    let mut waited = Duration::ZERO;
    for _ in 0..reps {
        let waiting = Instant::now();
        turn();
        waited += waiting.elapsed();
        let mut rep = workload.execute();
        walls.push(rep.wall);
        parts.push(std::mem::take(&mut rep.parts));
        mismatched += u64::from(!first.same_run(&rep.outcome));
        last = Some(rep);
    }
    let busy = span.elapsed().saturating_sub(waited);
    let oncpu_share = (oncpu_ns() - cpu0) as f64 / busy.as_nanos().max(1) as f64;

    let mut outcome = last.expect("at least one repetition ran").outcome;
    turn();
    workload.audit(&mut outcome);
    Some(Measured {
        setups,
        walls,
        quiet: quiet_wall(&parts),
        outcome,
        mismatched,
        oncpu_share,
    })
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// ns this thread has spent on a CPU (`/proc/self/schedstat`, first
/// field); 0 where the kernel does not report it.
pub fn oncpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// ns per iteration of a fixed dependent-multiply kernel: a reading of
/// the machine, not the program.
pub fn calibrate() -> f64 {
    const ITERS: u64 = 20_000_000;
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..ITERS {
        x = (x ^ i).wrapping_mul(0x0100_0000_01b3).rotate_left(17);
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetition_count_follows_seconds_within_limits() {
        let two = Duration::from_secs(2);
        assert_eq!(reps_for(14.0, two), 7);
        assert_eq!(reps_for(12.0, two), 6);
        assert_eq!(reps_for(1.0, two), MIN_REPS);
        assert_eq!(reps_for(60.0, two), MAX_REPS);
        assert_eq!(reps_for(14.0, Duration::from_millis(2900)), 5);
    }

    #[test]
    fn quiet_wall_sums_each_parts_fastest_reading() {
        let ms = |v: &[u64]| {
            v.iter()
                .map(|&m| Duration::from_millis(m))
                .collect::<Vec<_>>()
        };
        let reps = [ms(&[10, 50, 30]), ms(&[12, 20, 90]), ms(&[40, 22, 31])];
        assert_eq!(quiet_wall(&reps), Duration::from_millis(10 + 20 + 30));
        assert_eq!(quiet_wall(&reps[..1]), Duration::from_millis(90));
        assert_eq!(quiet_wall(&[]), Duration::ZERO);
    }

    #[test]
    fn process_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        assert!(calibrate() > 0.0);
    }
}
