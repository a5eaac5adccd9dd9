//! "Replay seed S", as one value.
//!
//! A [`Replay`] names everything that decides what `experiments chaos |
//! explain | latency | waitgraph --seed S` runs: the seed, the group
//! size, the sweep [`Cell`] (holdback implementation × timestamp
//! encoding), the injected [`BugKnobs`], which of the five delivery
//! algorithms ([`Algo`]), and what the report is narrowed to (`--msg`,
//! `--at`). It is built in one place — [`parse`], the flag parser the
//! four verbs share — and consumed everywhere: `Replay::config` is the
//! one function that turns a cell into a [`CampaignConfig`],
//! [`Replay::run`] the one way the tools run a campaign.
//!
//! The defaults reproduce the sweep `experiments chaos` runs, so a seed
//! it reports replays as it ran there: the group size cycles through 3,
//! 5 and 7 by `seed % 3`, `chaos --seed` walks all four cells and the
//! other verbs take indexed holdback with delta timestamps, the cell
//! where every kind of wait can occur. `--n` and `--cell` override them,
//! because a campaign is a function of `(seed, n, cell)`, not of the seed
//! alone: `CampaignConfig::default()` — what the wall-clock benchmark and
//! the wide sweeps run — is N=5, indexed holdback, *full* timestamps, and
//! a seed that fails there can pass at the N the CLI would have picked.
//!
//! Each verb declares in `VERBS` the algorithms and flags it honours;
//! anything else is refused by name instead of being parsed and dropped.
//! The causal algorithms replay a fault campaign; abcast, token and fifo
//! run a harness group with no fault plan, so the flags that shape a
//! campaign (`--n`, `--cell`, `--bug`, `--shrink`) are refused for them.

use catocs::endpoint::Discipline;
use catocs::group::{CausalDiscipline, GroupConfig, MsgId};
use catocs::vsync::{BugKnobs, Campaign, CampaignConfig, CampaignResult};
use simnet::obs::LatencyPhase;
use std::fmt;

/// The five delivery algorithms the experiments cover.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Algo {
    /// Vector-timestamp causal broadcast (chaos campaign replay).
    #[default]
    Cbcast,
    /// Constant-metadata causal broadcast (chaos campaign replay).
    Pccast,
    /// Fixed-sequencer total order (harness group).
    Abcast,
    /// Token-ring total order (harness group).
    Token,
    /// FIFO-only baseline (harness group).
    Fifo,
}

use Algo::{Abcast, Cbcast, Fifo, Pccast, Token};

impl Algo {
    /// Every algorithm, in the order reports list them.
    pub(crate) const ALL: [Algo; 5] = [Cbcast, Pccast, Abcast, Token, Fifo];

    /// Parses the CLI `--discipline` value.
    pub(crate) fn parse(s: &str) -> Option<Self> {
        Algo::ALL.into_iter().find(|a| a.name() == s)
    }

    /// Stable lowercase name, used in headers and BENCH metric names.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Cbcast => "cbcast",
            Pccast => "pccast",
            Abcast => "abcast",
            Token => "token",
            Fifo => "fifo",
        }
    }

    /// Whether this algorithm replays a chaos campaign (where the fault
    /// plan, the sweep cell and the bug knobs apply) rather than a plain
    /// harness group.
    pub(crate) fn is_chaos(self) -> bool {
        matches!(self, Cbcast | Pccast)
    }

    /// The phase that is this algorithm's ordering signature — the one
    /// its guarantee uniquely charges latency to.
    pub(crate) fn signature_phase(self) -> LatencyPhase {
        match self {
            Cbcast => LatencyPhase::Causal,
            Pccast => LatencyPhase::Reorder,
            Abcast => LatencyPhase::Order,
            Token => LatencyPhase::Token,
            Fifo => LatencyPhase::Fifo,
        }
    }

    /// What to build an endpoint of this algorithm from: the two causal
    /// algorithms share `Discipline::Causal` and differ in the group
    /// configuration.
    pub(crate) fn endpoint(self) -> (Discipline, GroupConfig) {
        let (discipline, causal) = match self {
            Cbcast => (Discipline::Causal, CausalDiscipline::Cbcast),
            Pccast => (Discipline::Causal, CausalDiscipline::Pccast),
            Abcast => (Discipline::Total { sequencer: 0 }, CausalDiscipline::Cbcast),
            Token => (Discipline::TotalToken, CausalDiscipline::Cbcast),
            Fifo => (Discipline::Fifo, CausalDiscipline::Cbcast),
        };
        let cfg = GroupConfig {
            discipline: causal,
            ..GroupConfig::default()
        };
        (discipline, cfg)
    }
}

/// One cell of the chaos sweep: which holdback implementation, which
/// timestamp encoding. For pccast `delta` is inert (its data messages
/// carry no vectors to delta-encode) but both algorithms cross the same
/// cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Wait-count-indexed holdback rather than the scanning one.
    pub indexed: bool,
    /// Delta-encoded wire timestamps rather than full vectors.
    pub delta: bool,
}

impl Cell {
    /// The cell of `CampaignConfig::default()`.
    pub(crate) const INDEXED_FULL: Cell = Cell::new(true, false);
    /// The shipping configuration, where every kind of wait can occur.
    pub(crate) const INDEXED_DELTA: Cell = Cell::new(true, true);
    /// The four cells, in sweep order.
    pub(crate) const ALL: [Cell; 4] = [
        Cell::new(false, false),
        Cell::new(false, true),
        Cell::INDEXED_FULL,
        Cell::INDEXED_DELTA,
    ];

    const fn new(indexed: bool, delta: bool) -> Cell {
        Cell { indexed, delta }
    }

    /// Parses the CLI `--cell` value.
    pub(crate) fn parse(s: &str) -> Option<Cell> {
        Cell::ALL.into_iter().find(|c| c.name() == s)
    }

    /// `scan-full` … `indexed-delta`: the `--cell` value and the stem of
    /// the incident dump's file names.
    pub(crate) fn name(self) -> String {
        format!("{}-{}", self.holdback(), self.timestamps())
    }

    /// `scan` or `indexed`.
    pub(crate) fn holdback(self) -> &'static str {
        ["scan", "indexed"][usize::from(self.indexed)]
    }

    /// `full` or `delta`.
    pub(crate) fn timestamps(self) -> &'static str {
        ["full", "delta"][usize::from(self.delta)]
    }
}

/// `indexed holdback, delta timestamps` — how reports name a cell.
impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (hold, ts) = (self.holdback(), self.timestamps());
        write!(f, "{hold} holdback, {ts} timestamps")
    }
}

/// One seed replay: what to run and what to show of it. The default is
/// seed 0 under cbcast with no bug, the sweep's group size and the
/// verb's cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Replay {
    /// Seed of the simulator and the fault plan.
    pub seed: u64,
    /// Group size; `None` takes the sweep's: 3, 5 or 7 by `seed % 3`.
    pub n: Option<usize>,
    /// Sweep cell; `None` is the verb's default (every cell for `chaos`,
    /// `Cell::INDEXED_DELTA` for the rest).
    pub cell: Option<Cell>,
    /// Re-injected bugs.
    pub knobs: BugKnobs,
    /// Which delivery algorithm.
    pub algo: Algo,
    /// Restrict the report to one message (`--msg`).
    pub msg: Option<MsgId>,
    /// Snapshot time in virtual ms (`--at`).
    pub at: Option<u64>,
}

impl Replay {
    /// Seed `seed` with every default.
    pub fn of(seed: u64) -> Replay {
        Replay {
            seed,
            ..Replay::default()
        }
    }

    /// The group size the replay runs with.
    pub(crate) fn n(&self) -> usize {
        self.n.unwrap_or([3, 5, 7][(self.seed % 3) as usize])
    }

    /// The one cell a single-campaign report runs.
    pub(crate) fn cell(&self) -> Cell {
        self.cell.unwrap_or(Cell::INDEXED_DELTA)
    }

    /// Every cell `chaos --seed` walks: the named one, or all four.
    pub(crate) fn cells(&self) -> Vec<Cell> {
        self.cell.map_or(Cell::ALL.to_vec(), |cell| vec![cell])
    }

    /// This replay, pinned to `cell`.
    pub fn in_cell(&self, cell: Cell) -> Replay {
        Replay {
            cell: Some(cell),
            ..*self
        }
    }

    /// `injected bug knobs: no-flush-retry` — the header line reports
    /// print when any knob is set.
    pub(crate) fn injected(&self) -> Option<String> {
        let knobs = [
            (self.knobs.no_detector_reset, "no-detector-reset"),
            (self.knobs.no_flush_retry, "no-flush-retry"),
            (self.knobs.no_chain_reset, "no-chain-reset"),
        ];
        let set: Vec<&str> = knobs.iter().filter(|k| k.0).map(|k| k.1).collect();
        (!set.is_empty()).then(|| format!("injected bug knobs: {}", set.join(", ")))
    }

    /// The campaign configuration of [`Self::cell`]. The fault schedule
    /// depends only on the seed and the group size, so cbcast and pccast
    /// face identical partitions, crashes and degrade episodes — what
    /// differs is the delivery machinery under test.
    pub(crate) fn config(&self) -> CampaignConfig {
        let cell = self.cell();
        CampaignConfig {
            n: self.n(),
            group: GroupConfig {
                indexed_holdback: cell.indexed,
                delta_timestamps: cell.delta,
                ..self.algo.endpoint().1
            },
            knobs: self.knobs,
            ..CampaignConfig::default()
        }
    }

    /// The campaign request: the generated plan, no probe, ledger on.
    pub(crate) fn campaign(&self) -> Campaign {
        Campaign::new(self.seed, self.config())
    }

    /// Runs the campaign.
    pub fn run(&self) -> CampaignResult {
        self.campaign().run()
    }
}

/// `seed 2, n=7, indexed holdback, delta timestamps (cbcast)` — what a
/// report's first line says it replayed.
impl fmt::Display for Replay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (seed, n, cell, algo) = (self.seed, self.n(), self.cell(), self.algo.name());
        write!(f, "seed {seed}, n={n}, {cell} ({algo})")
    }
}

/// Parses an injected-bug knob name (`--bug`).
pub(crate) fn parse_bug(name: &str) -> Option<BugKnobs> {
    let mut knobs = BugKnobs::default();
    match name {
        "no-detector-reset" => knobs.no_detector_reset = true,
        // "wedged_flush" is the operator-facing alias: the symptom (a
        // flush barrier that never completes) rather than the mechanism.
        "no-flush-retry" | "wedged-flush" | "wedged_flush" => knobs.no_flush_retry = true,
        "no-chain-reset" => knobs.no_chain_reset = true,
        _ => return None,
    }
    Some(knobs)
}

/// Parses a message id of the form `m0.3` (or bare `0.3`).
pub(crate) fn parse_msg(s: &str) -> Option<MsgId> {
    let s = s.strip_prefix('m').unwrap_or(s);
    let (sender, seq) = s.split_once('.')?;
    Some(MsgId {
        sender: sender.parse().ok()?,
        seq: seq.parse().ok()?,
    })
}

/// What a seed-replay command line asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Replay the seed.
    Replay,
    /// `chaos` without `--seed`: sweep seeds in every cell.
    Sweep,
    /// `latency --compare`: the algorithms side by side on one workload.
    Compare,
    /// `chaos --seed N --shrink`: minimise the violating fault plan.
    Shrink,
}

/// What one seed-replay verb honours beside `--seed` and `--discipline`:
/// `campaign` with an algorithm that replays a fault campaign, `group`
/// with one that runs a harness group. Only `chaos` sweeps without a
/// seed.
struct Verb {
    name: &'static str,
    algos: &'static [Algo],
    campaign: &'static [&'static str],
    group: &'static [&'static str],
}

/// The flags that shape a fault campaign.
const CAMPAIGN: [&str; 3] = ["--n", "--cell", "--bug"];

const VERBS: [Verb; 4] = [
    Verb {
        name: "chaos",
        algos: &[Cbcast, Pccast],
        campaign: &["--shrink"],
        group: &[],
    },
    Verb {
        name: "explain",
        algos: &[Cbcast, Pccast, Abcast, Token],
        campaign: &["--msg"],
        group: &["--msg", "--at"],
    },
    Verb {
        name: "latency",
        algos: &Algo::ALL,
        campaign: &["--msg", "--compare"],
        group: &["--msg", "--compare"],
    },
    Verb {
        name: "waitgraph",
        algos: &[Cbcast, Pccast],
        campaign: &["--at"],
        group: &[],
    },
];

/// Parses the flags that follow `verb` — the one flag parser of the four
/// seed-replay verbs. Consumes leading `--flag [VALUE]` words and returns
/// the replay, the mode and how many words it took, so the caller can go
/// on to the next experiment on the line. A malformed value, a flag or
/// algorithm the verb does not honour, or a flag that does not apply to
/// the chosen algorithm or mode is an error naming the flag.
pub fn parse(verb: &str, args: &[String]) -> Result<(Replay, Mode, usize), String> {
    let known = VERBS.iter().find(|v| v.name == verb);
    let verb = known.ok_or_else(|| format!("{verb} is not a seed-replay verb"))?;
    let mut replay = Replay::default();
    let mut seen: Vec<&str> = Vec::new();
    let mut used = 0;
    while let Some(flag) = args.get(used).filter(|a| a.starts_with("--")) {
        let flag = flag.as_str();
        let value = args.get(used + 1).map(String::as_str);
        let bad = |wants: &str| format!("{} {flag} {wants}", verb.name);
        let number = || value.and_then(|s| s.parse::<u64>().ok());
        match flag {
            "--seed" => replay.seed = number().ok_or_else(|| bad("needs a number"))?,
            "--at" => replay.at = Some(number().ok_or_else(|| bad("needs a number"))?),
            "--n" => {
                // A fault plan needs two processes to partition.
                let n = number().filter(|n| *n >= 2).map(|n| n as usize);
                replay.n = Some(n.ok_or_else(|| bad("needs a group size of at least 2"))?);
            }
            "--cell" => {
                let wants = "wants scan-full, scan-delta, indexed-full or indexed-delta";
                replay.cell = Some(value.and_then(Cell::parse).ok_or_else(|| bad(wants))?);
            }
            "--bug" => {
                let wants = "wants one of: no-detector-reset, no-flush-retry \
                             (alias: wedged-flush), no-chain-reset";
                replay.knobs = value.and_then(parse_bug).ok_or_else(|| bad(wants))?;
            }
            "--discipline" => {
                let algo = value.and_then(Algo::parse);
                let names: Vec<_> = verb.algos.iter().map(|a| a.name()).collect();
                let wants = format!("wants one of: {}", names.join(", "));
                let algo = algo.filter(|a| verb.algos.contains(a));
                replay.algo = algo.ok_or_else(|| bad(&wants))?;
            }
            "--msg" => {
                let msg = value.and_then(parse_msg);
                replay.msg = Some(msg.ok_or_else(|| bad("wants an id like m0.3"))?);
            }
            "--compare" | "--shrink" => {}
            _ => return Err(format!("{} does not take {flag}", verb.name)),
        }
        seen.push(flag);
        let takes_value = !matches!(flag, "--compare" | "--shrink");
        used += 1 + usize::from(takes_value);
    }

    let has = |flag: &str| seen.contains(&flag);
    let algo = replay.algo.name();
    let honoured = if replay.algo.is_chaos() {
        [&["--seed", "--discipline"], &CAMPAIGN[..], verb.campaign].concat()
    } else {
        [&["--seed", "--discipline"], verb.group].concat()
    };
    // What the mode narrows that to, and how a refusal says so.
    let (mode, only, when): (Mode, &[&str], &str) = if has("--compare") {
        (Mode::Compare, &["--seed", "--compare"], "with --compare")
    } else if !has("--seed") {
        (Mode::Sweep, &["--discipline"], "without --seed N")
    } else if has("--shrink") {
        (Mode::Shrink, &honoured, "")
    } else {
        (Mode::Replay, &honoured, "")
    };
    let refuse = |flag, when: &str| Err(format!("{} does not take {flag} {when}", verb.name));
    if let Some(flag) = seen.iter().find(|f| !honoured.contains(f)) {
        return refuse(flag, &format!("with --discipline {algo}"));
    }
    if let Some(flag) = seen.iter().find(|f| !only.contains(f)) {
        return refuse(flag, when);
    }
    if mode == Mode::Sweep && verb.name != "chaos" {
        return Err(format!("{} needs --seed N", verb.name));
    }
    Ok((replay, mode, used))
}

/// The replay `experiments VERB LINE` asks for.
#[cfg(test)]
pub(crate) fn replay_of(verb: &str, line: &str) -> Replay {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    parse(verb, &args).expect("a valid command line").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use catocs::vsync::run_campaign;

    fn parse_line(verb: &str, line: &str) -> Result<(Replay, Mode, usize), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(verb, &args)
    }

    /// A flag that takes a value, a value for it, and what it sets.
    type ValuedFlag = (&'static str, &'static str, fn(&mut Replay));

    fn valued_flags() -> [ValuedFlag; 5] {
        [
            ("--n", "5", |r| r.n = Some(5)),
            ("--cell", "indexed-full", |r| {
                r.cell = Some(Cell::INDEXED_FULL)
            }),
            ("--bug", "no-chain-reset", |r| r.knobs.no_chain_reset = true),
            ("--msg", "m0.3", |r| {
                r.msg = Some(MsgId { sender: 0, seq: 3 })
            }),
            ("--at", "60", |r| r.at = Some(60)),
        ]
    }

    /// What each verb honours beside `--seed` and `--discipline`, per
    /// algorithm; a pair that is not listed refuses the algorithm.
    const HONOURED: [(&str, &str, &str); 13] = [
        ("chaos", "cbcast", "--n --cell --bug --shrink"),
        ("chaos", "pccast", "--n --cell --bug --shrink"),
        ("explain", "cbcast", "--n --cell --bug --msg"),
        ("explain", "pccast", "--n --cell --bug --msg"),
        ("explain", "abcast", "--msg --at"),
        ("explain", "token", "--msg --at"),
        ("latency", "cbcast", "--n --cell --bug --msg"),
        ("latency", "pccast", "--n --cell --bug --msg"),
        ("latency", "abcast", "--msg"),
        ("latency", "token", "--msg"),
        ("latency", "fifo", "--msg"),
        ("waitgraph", "cbcast", "--n --cell --bug --at"),
        ("waitgraph", "pccast", "--n --cell --bug --at"),
    ];

    #[test]
    fn every_verb_honours_its_flags_and_refuses_the_rest_by_name() {
        for verb in ["chaos", "explain", "latency", "waitgraph"] {
            for algo in Algo::ALL {
                let row = HONOURED
                    .iter()
                    .find(|(v, a, _)| *v == verb && *a == algo.name());
                let base = format!("--seed 7 --discipline {}", algo.name());
                let Some((_, _, honoured)) = row else {
                    let refusal = parse_line(verb, &base).unwrap_err();
                    assert!(refusal.contains("--discipline"), "{verb} {base}: {refusal}");
                    continue;
                };
                let plain = Replay {
                    algo,
                    ..Replay::of(7)
                };
                assert_eq!(parse_line(verb, &base), Ok((plain, Mode::Replay, 4)));
                for (flag, value, set) in valued_flags() {
                    // The flag before `--discipline`, so nothing depends
                    // on the order they come in.
                    let line = format!("{flag} {value} {base}");
                    let got = parse_line(verb, &line);
                    if honoured.split(' ').any(|f| f == flag) {
                        let mut want = plain;
                        set(&mut want);
                        assert_eq!(got, Ok((want, Mode::Replay, 6)), "{verb} {line}");
                    } else {
                        let refusal = got.unwrap_err();
                        assert!(refusal.contains(flag), "{verb} {line}: {refusal}");
                    }
                }
                let got = parse_line(verb, &format!("{base} --shrink"));
                if honoured.contains("--shrink") {
                    assert_eq!(got, Ok((plain, Mode::Shrink, 5)));
                } else {
                    assert!(got.unwrap_err().contains("--shrink"));
                }
            }
        }
    }

    #[test]
    fn values_parse_and_malformed_ones_are_refused() {
        for alias in ["no-flush-retry", "wedged-flush", "wedged_flush"] {
            let r = replay_of("latency", &format!("--seed 2 --bug {alias}"));
            assert!(r.knobs.no_flush_retry, "{alias}");
        }
        assert!(parse_bug("no-detector-reset").unwrap().no_detector_reset);
        assert!(parse_bug("no-chain-reset").unwrap().no_chain_reset);
        for id in ["m0.3", "0.3"] {
            let r = replay_of("explain", &format!("--seed 2 --msg {id}"));
            assert_eq!(r.msg, Some(MsgId { sender: 0, seq: 3 }), "{id}");
        }
        for cell in Cell::ALL {
            let r = replay_of("chaos", &format!("--seed 2 --cell {}", cell.name()));
            assert_eq!(r.cell, Some(cell));
        }
        for algo in Algo::ALL {
            assert_eq!(Algo::parse(algo.name()), Some(algo));
        }
        for (verb, line, names) in [
            ("chaos", "--seed 2 --bug frobnicate", "--bug"),
            ("chaos", "--seed 2 --bug", "--bug"),
            ("explain", "--seed 2 --discipline isis", "--discipline"),
            ("explain", "--seed 2 --msg m2", "--msg"),
            ("explain", "--seed 2 --msg mx.y", "--msg"),
            ("waitgraph", "--seed two", "--seed"),
            ("waitgraph", "--seed 2 --at soon", "--at"),
            ("chaos", "--seed 2 --n 1", "--n"),
            ("chaos", "--seed 2 --cell indexed", "--cell"),
            ("chaos", "--seed 2 --json out.json", "--json"),
        ] {
            let refusal = parse_line(verb, line).unwrap_err();
            assert!(refusal.contains(names), "{verb} {line}: {refusal}");
        }
    }

    #[test]
    fn a_missing_seed_is_a_sweep_or_a_refusal() {
        // `chaos` alone sweeps, in the algorithm asked for and nothing
        // else; every other verb wants a seed.
        let (sweep, mode, used) = parse_line("chaos", "--discipline pccast t7").unwrap();
        assert_eq!((sweep.algo, mode, used), (Algo::Pccast, Mode::Sweep, 2));
        assert_eq!(
            parse_line("chaos", ""),
            Ok((Replay::default(), Mode::Sweep, 0))
        );
        for flags in ["--bug no-flush-retry", "--shrink"] {
            let refusal = parse_line("chaos", flags).unwrap_err();
            assert!(refusal.contains("without --seed"), "{refusal}");
        }
        for verb in ["explain", "latency", "waitgraph"] {
            let refusal = parse_line(verb, "--bug no-flush-retry").unwrap_err();
            assert!(refusal.contains("--seed"), "{verb}: {refusal}");
            assert!(parse_line(verb, "").unwrap_err().contains("needs --seed"));
        }
        // `--compare` is latency's own, defaults to seed 0 and takes
        // nothing but a seed.
        assert_eq!(
            parse_line("latency", "--compare"),
            Ok((Replay::of(0), Mode::Compare, 1))
        );
        let seeded = parse_line("latency", "--seed 3 --compare");
        assert_eq!(seeded, Ok((Replay::of(3), Mode::Compare, 3)));
        let refusal = parse_line("latency", "--compare --msg m0.1").unwrap_err();
        assert!(refusal.contains("--msg"), "{refusal}");
        assert!(parse_line("explain", "--seed 1 --compare").is_err());
    }

    #[test]
    fn defaults_reproduce_the_sweep() {
        let sizes: Vec<usize> = (0..6).map(|seed| Replay::of(seed).n()).collect();
        assert_eq!(sizes, [3, 5, 7, 3, 5, 7]);
        let r = Replay::of(4);
        assert_eq!(
            (r.cell(), r.cells()),
            (Cell::INDEXED_DELTA, Cell::ALL.to_vec())
        );
        let cfg = r.config();
        assert!(cfg.group.indexed_holdback && cfg.group.delta_timestamps);
        assert_eq!(
            Cell::INDEXED_DELTA.to_string(),
            "indexed holdback, delta timestamps"
        );
        let named = replay_of("chaos", "--seed 4 --n 7 --cell scan-full");
        assert_eq!((named.n(), named.cells().len()), (7, 1));
        assert!(!named.config().group.indexed_holdback);
    }

    /// Four seeds that violated virtual synchrony at the default campaign
    /// configuration (3259 and 16016 are fixed, 4064 and 9713 are not)
    /// run identically when reached the way the CLI reaches them
    /// (`--n 5 --cell indexed-full`). Not asserted red or green.
    #[test]
    fn red_seeds_replay_through_the_cli_path_as_through_the_default_config() {
        for seed in [3259, 4064, 9713, 16016] {
            let line = format!("--seed {seed} --n 5 --cell indexed-full");
            let cli = replay_of("chaos", &line).run();
            let default = run_campaign(seed, &CampaignConfig::default());
            let render = |r: &CampaignResult| -> Vec<String> {
                r.violations.iter().map(|v| v.to_string()).collect()
            };
            assert_eq!(cli.digest, default.digest, "seed {seed}");
            assert_eq!(render(&cli), render(&default), "seed {seed}");
        }
    }
}
