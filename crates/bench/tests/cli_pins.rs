//! What the `experiments` binary prints, pinned per command line.
//!
//! Every file under `tests/cli_pins/` is one invocation: its first line
//! is `$ experiments ARGS`, its last `exit CODE`, and everything between
//! is stdout, byte for byte. Recorded from the binary before the four
//! seed-replay verbs shared one flag parser; a change that is meant to
//! move plumbing only must leave every file alone. The flight-recorder
//! dump the wedged seed writes is too large to keep, so its two files are
//! pinned by length and FNV-1a digest.

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
    let mut checked = 0;
    let mut files: Vec<_> = std::fs::read_dir(&pins)
        .expect("tests/cli_pins exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    files.sort();
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        // The N=64 sweep takes minutes unoptimised.
        if cfg!(debug_assertions) && name == "latency-compare.out" {
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
    assert!(checked >= 33, "only {checked} pins found");

    // `chaos --seed 2 --bug no-flush-retry` is the one pinned command
    // that violates, so the dump is its first violating cell's.
    for (file, len, digest) in [
        ("seed-2-scan-full.txt", 697_299, 0x3077_2023_0c45_3015_u64),
        ("seed-2-scan-full.jsonl", 393_396, 0x644d_0136_5ef8_fe46),
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
