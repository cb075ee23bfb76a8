//! The repository's benchmark: the paper's Figure-4 deployment in one
//! process, driven over loopback by a seeded generator doing a fixed
//! amount of work. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! safeweb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! safeweb-benchmark --spread <runs> | --check-agreement [runs] | --self-test
//! ```
//!
//! (`--baseline-only` with the run arguments is what a traced run starts as
//! a child process: the §5.3 baseline portal.)

mod check;
mod gen;
mod layers;
mod pacer;
mod report;
mod rig;
mod run;
mod span;
mod stats;
mod sys;
mod wire;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use run::RunArgs;
use workloads::Workload;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "usage: safeweb-benchmark --workload <page-render|small-cached|ingest|mixed> \
--seed <n> --seconds <s> --trace <0|1>\n       safeweb-benchmark --spread <runs> | \
--check-agreement [runs per set] | --self-test";

/// The value following `flag`, if the flag is present.
fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    Some(args.get(at + 1).map_or("", String::as_str))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let need = |flag: &str| value_of(args, flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    Ok(RunArgs {
        workload: Workload::from_name(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed takes a whole number")?,
        seconds: need("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0 && s.is_finite())
            .ok_or("--seconds takes a positive number")?,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

/// Same seed ⇒ byte-identical operation streams; another seed ⇒ others.
fn self_test() -> bool {
    const OPS: usize = 5_000;
    let (a, again, b) = (
        gen::stream_fingerprint(1, OPS),
        gen::stream_fingerprint(1, OPS),
        gen::stream_fingerprint(2, OPS),
    );
    println!("seed 1: {a:016x}  seed 1 again: {again:016x}  seed 2: {b:016x}");
    a == again && a != b
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first_seed = value_of(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let verdict = if args.iter().any(|a| a == "--self-test") {
        Ok(self_test())
    } else if let Some(runs) = value_of(&args, "--spread") {
        match runs.parse() {
            Ok(runs) if runs >= 2 => report::spread(runs, first_seed),
            _ => Err("--spread takes a number of runs, at least 2".to_string()),
        }
    } else if let Some(per_set) = value_of(&args, "--check-agreement") {
        report::check_agreement(per_set.parse().unwrap_or(5).max(5), first_seed)
    } else if args.iter().any(|a| a == "--baseline-only") {
        parse_run(&args).and_then(|run_args| {
            println!("{}", run::baseline_only(&run_args)?);
            Ok(true)
        })
    } else {
        parse_run(&args).map(|run_args| {
            let units: &[(&str, &str)] = if run_args.trace {
                &run::PER_LAYER
            } else {
                &run::END_TO_END
            };
            let outcome = run::run(&run_args, process_start);
            println!("{}", outcome.summary_line());
            println!("{}", outcome.result_line(units));
            true
        })
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split(' ').map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let run = parse_run(&args("--workload mixed --seed 7 --seconds 15 --trace 1")).unwrap();
        assert_eq!(run.workload, Workload::Mixed);
        assert_eq!((run.seed, run.seconds, run.trace), (7, 15.0, true));
        assert!(parse_run(&args("--workload mixed --seed 7 --seconds 15")).is_err());
        assert!(parse_run(&args("--workload nope --seed 7 --seconds 15 --trace 0")).is_err());
        assert!(parse_run(&args("--workload mixed --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_run(&args("--workload mixed --seed 7 --seconds 15 --trace 2")).is_err());
    }

    #[test]
    fn operation_streams_depend_on_the_seed_alone() {
        assert!(self_test());
    }

    #[test]
    fn the_allocator_counts_only_while_switched_on() {
        // Other tests allocate on their own threads meanwhile, so the
        // checks are on a size none of them asks for.
        const BIG: usize = 1 << 20;
        let before = sys::alloc_counts();
        sys::set_alloc_counting(true);
        let counted: Vec<u8> = Vec::with_capacity(BIG);
        sys::set_alloc_counting(false);
        let during = sys::alloc_counts();
        assert!(during.0 > before.0 && during.1 - before.1 >= BIG as u64);
        let ignored: Vec<u8> = Vec::with_capacity(BIG);
        assert!(sys::alloc_counts().1 - during.1 < BIG as u64);
        drop((counted, ignored));
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = safeweb_json::Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(safeweb_json::Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&run::END_TO_END));
        assert_eq!(declared("per_layer"), own(&run::PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(safeweb_json::Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
