//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human summary, then the result as one JSON line. Exits 0
//! when a result was printed (its `correct` field carries the verdict)
//! and 2 on a usage error. `--print-digests` instead prints the seed-0
//! digest table of every operation.

use std::path::PathBuf;
use std::process::ExitCode;

use execmig_simbench::ops::{Mix, SEGMENT};
use execmig_simbench::report::{result_json, Metric};
use execmig_simbench::run::{execute, untraced, Tally};
use execmig_simbench::{check, traced};

struct Args {
    mix: Mix,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: simbench --workload <baseline|migration|coherence> --seed <n> --seconds <s> --trace <0|1>\n       simbench --print-digests";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut mix = None;
    let (mut seed, mut seconds, mut trace) = (0, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                mix =
                    Some(Mix::from_name(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        mix: mix.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn print_digests() {
    for mix in Mix::ALL {
        for op in mix.ops() {
            let e = execute(&op, 0).expect("seed-0 operations run");
            println!(
                "    (\"{}\", \"{}\", {}, {:#018x}),",
                op.label,
                op.member,
                op.instructions,
                check::digest(&e.stats)
            );
        }
    }
}

/// Fixes glibc's malloc policy for the whole process: freed memory is
/// never returned to the system, and blocks under 32 MiB are never
/// mapped on their own. Left dynamic, whether `Machine::new` got fresh
/// or reused memory changed from run to run, and the `coherence` set-up
/// time moved by up to four times between runs of the same code.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_malloc_policy() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets allocator parameters; it is called
    // before any other thread exists.
    let set = unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 1 << 25) == 1
    };
    assert!(set, "mallopt refused the benchmark's malloc policy");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_malloc_policy() {}

fn main() -> ExitCode {
    fix_malloc_policy();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--print-digests") {
        print_digests();
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ops = args.mix.ops();
    let mut tally = Tally::default();
    println!(
        "simbench: workload {} seed {} — {} operations, each from a fresh machine (modelled caches start empty)",
        args.mix.name(),
        args.seed,
        ops.len()
    );
    let metrics = if args.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let spans =
            dir.join("simbench")
                .join(format!("spans-{}-seed{}.tsv", args.mix.name(), args.seed));
        let m = traced::traced(&ops, args.seed, args.seconds, &mut tally, &spans);
        println!("spans: {}", spans.display());
        m
    } else {
        let e = untraced(&ops, args.seed, args.seconds, &mut tally);
        println!(
            "{} rounds, {} timed segments of {} instructions; every timing is scaled to the reference host speed, and every set-up and segment keeps its median round",
            e.rounds, e.segments, SEGMENT
        );
        println!(
            "host slowdown against the reference: {:.4} (round median); sim_mips as measured: {:.4}",
            e.slowdown, e.raw_sim_mips
        );
        vec![
            Metric::new("sim_mips", e.sim_mips, "MIPS"),
            Metric::new("segment_ms_p50", e.segment_ms_p50, "ms"),
            Metric::new("segment_ms_p90", e.segment_ms_p90, "ms"),
            Metric::new("setup_s", e.setup_s, "s"),
            Metric::new("peak_rss_mb", e.peak_rss_mb, "MiB"),
        ]
    };
    for m in &metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for e in tally.errors.iter().take(10) {
        println!("FAILED {e}");
    }
    println!("{}", result_json(tally.attempted, tally.failed, &metrics));
    ExitCode::SUCCESS
}
