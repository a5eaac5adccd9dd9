//! The experiment harness CLI: regenerates every figure and table.
//!
//! ```text
//! experiments all                    # everything, paper order
//! experiments f1 f4 t5               # selected experiments
//! experiments list                   # what exists
//! experiments chaos --seed 91 --bug no-detector-reset
//! experiments chaos --discipline pccast
//! experiments chaos --seed 3259 --n 5 --cell indexed-full [--shrink]
//! experiments explain --seed 8 --bug no-flush-retry [--msg m0.3]
//! experiments latency --seed 8 --bug wedged_flush [--msg m0.3] [--discipline abcast] [--compare]
//! experiments waitgraph --seed 8 --bug no-flush-retry [--at MS]
//! experiments t7plus --perfetto out.json
//! experiments bench
//! ```

use bench::experiments as ex;

fn print_usage() {
    eprintln!(
        "usage: experiments [--perfetto FILE] \
         [all|list|f1|f2|f3|f4|t5|t6|t7|t7plus|t8|t9|t10|t11|t12|t13|t14|t15|t16|ablate\
         |chaos [--seed N [REPLAY] [--shrink]] [--discipline cbcast|pccast]\
         |explain --seed N [REPLAY] [--msg mS.Q] [--at MS] [--discipline D]\
         |latency --seed N [REPLAY] [--msg mS.Q] [--discipline D] | latency --compare [--seed N]\
         |waitgraph --seed N [REPLAY] [--at MS] [--discipline cbcast|pccast]\
         |bench]...\n\
         REPLAY (cbcast, pccast): [--n N] [--cell scan-full|scan-delta|indexed-full|indexed-delta] \
         [--bug KNOB]; by default N is 3, 5 or 7 by seed % 3, chaos walks all four cells and the \
         rest run indexed-delta\n\
         KNOB: no-detector-reset | no-flush-retry (alias wedged-flush) | no-chain-reset\n\
         D: cbcast (default) and pccast replay a fault campaign; abcast, token and (latency only) \
         fifo run a harness group, where explain takes --at\n\
         --shrink: the smallest fault plan, by whole episodes, that still violates"
    );
}

fn write_perfetto(path: &str, json: &str, what: &str) {
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("perfetto trace ({what}) written to {path}"),
        Err(e) => {
            eprintln!("could not write perfetto trace to {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--perfetto FILE` is a global flag: experiments that support trace
    // export (f1, t7plus) write Chrome trace-event JSON there.
    let mut perfetto: Option<String> = None;
    if let Some(at) = args.iter().position(|a| a == "--perfetto") {
        if at + 1 >= args.len() {
            eprintln!("--perfetto needs an output file");
            std::process::exit(2);
        }
        perfetto = Some(args.remove(at + 1));
        args.remove(at);
    }
    if args.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    let mut perfetto_used = false;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        i += 1;
        match arg.as_str() {
            "list" => {
                println!(
                    "f1 f2 f3 f4 — figures; t5..t16, t7plus — quantitative \
                     claims; ablate — design ablations; chaos — fault \
                     campaigns (--seed N replays one, --bug K injects a \
                     regression); explain — why a message is still blocked; \
                     latency — per-message ordering-tax attribution \
                     (--seed N, --msg drills down, --compare sweeps \
                     disciplines at N=64); \
                     waitgraph — ranked stall report (--seed N, --at MS \
                     picks a snapshot); \
                     bench — the virtual-time metrics table; \
                     all. --perfetto FILE exports a trace (f1, t7plus)."
                );
            }
            "all" => {
                for t in ex::run_all() {
                    println!("{t}");
                }
            }
            "f1" => {
                let (t, diagram) = ex::f1::run(11);
                println!("{diagram}");
                println!("{t}");
                if let Some(path) = &perfetto {
                    perfetto_used = true;
                    write_perfetto(path, &ex::f1::perfetto(11), "f1, 3 processes");
                }
            }
            "f2" => println!("{}", ex::f2::run(60)),
            "f3" => println!("{}", ex::f3::run(60)),
            "f4" => println!("{}", ex::f4::run(6)),
            "t5" => println!("{}", ex::t5::run(&[4, 8, 16, 32, 48])),
            "t6" => println!("{}", ex::t6::run(&[4, 8, 16, 32])),
            "t7" => println!("{}", ex::t7::run(&[4, 8, 16, 32, 64, 128, 256])),
            "t7plus" => {
                println!("{}", ex::t7plus::run(&[4, 16, 64, 256, 1024, 4096]));
                if let Some(path) = &perfetto {
                    perfetto_used = true;
                    write_perfetto(
                        path,
                        &ex::t7plus::perfetto(16, true, true),
                        "t7plus N=16 indexed/delta",
                    );
                    // Trace parity for the constant-metadata discipline.
                    write_perfetto(
                        &format!("{path}.pccast.json"),
                        &ex::t7plus::perfetto_pccast(16),
                        "t7plus N=16 pccast",
                    );
                }
            }
            "t8" => println!("{}", ex::t8::run()),
            "t9" => println!("{}", ex::t9::run(&[4, 8, 12])),
            "t10" => println!("{}", ex::t10::run(&[2, 4, 8, 16])),
            "t11" => println!("{}", ex::t11::run(&[4, 8, 16, 32])),
            "t12" => println!("{}", ex::t12::run()),
            "t13" => println!("{}", ex::t13::run(&[0.0, 0.05, 0.15, 0.30])),
            "t14" => println!("{}", ex::t14::run()),
            "t15" => println!("{}", ex::t15::run(&[3, 5, 9])),
            "t16" => println!("{}", ex::t16::run()),
            "ablate" => {
                for t in ex::ablate::run() {
                    println!("{t}");
                }
            }
            verb @ ("chaos" | "explain" | "latency" | "waitgraph") => {
                use ex::replay::Mode;
                let parsed = ex::replay::parse(verb, &args[i..]);
                let (replay, mode, used) = parsed.unwrap_or_else(|refusal| {
                    eprintln!("{refusal}");
                    std::process::exit(2);
                });
                i += used;
                let violations = match (verb, mode) {
                    ("chaos", Mode::Sweep) => {
                        // 50 seeds × {scan,indexed} × {full,delta} = 200 runs.
                        let (table, violations) = ex::chaos::run(50, replay.algo);
                        println!("{table}");
                        violations
                    }
                    ("chaos", Mode::Shrink) => {
                        let report = ex::shrink::report(&replay).unwrap_or_else(|| {
                            eprintln!(
                                "chaos --shrink: seed {} is clean: nothing to shrink",
                                replay.seed
                            );
                            std::process::exit(2);
                        });
                        print!("{report}");
                        1
                    }
                    ("chaos", _) => ex::chaos::replay(&replay) as u64,
                    (_, Mode::Compare) => {
                        println!("{}", ex::latency::compare(replay.seed));
                        0
                    }
                    _ => {
                        let report = match verb {
                            "explain" => ex::explain::run(&replay),
                            "latency" => ex::latency::run(&replay),
                            _ => ex::waitgraph::run(&replay),
                        };
                        print!("{report}");
                        0
                    }
                };
                if violations > 0 {
                    std::process::exit(1);
                }
            }
            "bench" => println!("{}", ex::bench::run()),
            other => {
                eprintln!("unknown experiment: {other}");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    if perfetto.is_some() && !perfetto_used {
        eprintln!("--perfetto: no selected experiment exports a trace (f1 and t7plus do)");
        std::process::exit(2);
    }
}
