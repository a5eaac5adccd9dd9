//! What the `experiments` binary prints, pinned per command line.
//!
//! Every file under `tests/cli_pins/` is one invocation: its first line
//! is `$ experiments ARGS`, its last `exit CODE`, and everything between
//! is stdout, byte for byte. Recorded from the binary before the four
//! seed-replay verbs shared one flag parser; a change that is meant to
//! move plumbing only must leave every file alone. `bench.out` is the
//! virtual-time metrics table: a change meant to move one of its rows
//! re-pins the file and says why. The flight-recorder dump the wedged
//! seed writes is too large to keep, so its two files are pinned by
//! length and FNV-1a digest.

use std::path::Path;
use std::process::Command;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn cli_output_replays_its_pinned_files() {
    let pins = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/cli_pins");
    let dumps = std::env::temp_dir().join("catocs-cli-pins-incidents");
    let _ = std::fs::remove_dir_all(&dumps);
    let mut files: Vec<_> = std::fs::read_dir(&pins)
        .expect("tests/cli_pins exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    files.sort();
    // The N=64 sweep takes minutes unoptimised.
    let skipped = "latency-compare.out";
    let expected = files.len() - usize::from(cfg!(debug_assertions));
    let mut checked = 0;
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if cfg!(debug_assertions) && name == skipped {
            continue;
        }
        let pinned = std::fs::read_to_string(&path).expect("readable pin");
        let (first, _) = pinned.split_once('\n').expect("command line");
        let args = first.strip_prefix("$ experiments ").expect("command line");
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args.split_whitespace())
            .env("CHAOS_INCIDENT_DIR", &dumps)
            .output()
            .expect("experiments runs");
        let got = format!(
            "{first}\n{}exit {}\n",
            String::from_utf8_lossy(&out.stdout),
            out.status.code().expect("exit code")
        );
        assert!(got == pinned, "{name} moved:\n{got}");
        checked += 1;
    }
    assert_eq!(checked, expected, "every pin runs, bar {skipped} in debug");

    // `chaos --seed 8 --bug no-flush-retry` is the one pinned command
    // that violates, so the dump is its first violating cell's.
    for (file, len, digest) in [
        ("seed-8-scan-full.txt", 694_043, 0xc75e_d84a_6b80_f687_u64),
        ("seed-8-scan-full.jsonl", 411_967, 0x8d4a_c371_a130_ea06),
    ] {
        let bytes = std::fs::read(dumps.join(file)).expect("incident dump written");
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (len, digest),
            "{file}: ({}, {:#018x}) moved",
            bytes.len(),
            fnv1a(&bytes)
        );
    }
    let _ = std::fs::remove_dir_all(&dumps);
}
