//! `--spread` and `--check-agreement`: the benchmark judging itself the
//! way the driver will — every workload run repeatedly as a child
//! process, each end-to-end metric's quartile spread and set-to-set drift
//! held against the bound `BENCHMARK.json` declares for it.

use std::collections::BTreeMap;

use safeweb_json::Value;

use crate::rig::ScratchDir;
use crate::run::{self_command, RunArgs};
use crate::stats::{iqr_share, median, quartiles};
use crate::workloads::Workload;

/// `--spread` fails when a bound is below this many times the measured
/// spread. (The driver rejects a spread above the bound outright; the
/// printed `bound/spread` column shows how far each metric is from that.)
const BOUND_OVER_SPREAD: f64 = 2.0;

/// What `BENCHMARK.json` (in the working directory) declares.
struct Declared {
    run_seconds: f64,
    /// metric → bound
    end_to_end: BTreeMap<String, f64>,
}

fn declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Value::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let run_seconds = json
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let mut end_to_end = BTreeMap::new();
    for metric in json
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[])
    {
        let name = metric
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or_default();
        let bound = metric.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
        end_to_end.insert(name.to_string(), bound);
    }
    Ok(Declared {
        run_seconds,
        end_to_end,
    })
}

/// One untraced run in a child process; its metrics by name.
fn child_run(workload: Workload, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let args = RunArgs {
        workload,
        seed,
        seconds,
        trace: false,
    };
    let output = self_command(&args)?.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    log_run(&stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = Value::parse(last)
        .map_err(|e| format!("{} seed {seed}: no result line ({e})", workload.name()))?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{} seed {seed}: run was not correct: {stdout}",
            workload.name()
        ));
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Appends a child's summary and result lines to `runs.jsonl` in the
/// scratch directory, so a spread can be re-analysed slice by slice.
fn log_run(stdout: &str) {
    use std::io::Write;
    let root = ScratchDir::root();
    let _ = std::fs::create_dir_all(&root);
    if let Ok(mut log) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(root.join("runs.jsonl"))
    {
        let _ = log.write_all(stdout.as_bytes());
    }
}

fn column(runs: &[BTreeMap<String, f64>], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get(metric).copied()).collect()
}

/// Runs every workload `runs` times on consecutive seeds and prints each
/// end-to-end metric's spread beside its bound. `Ok(false)` if a bound is
/// tighter than [`BOUND_OVER_SPREAD`] × its spread.
pub fn spread(runs: usize, first_seed: u64) -> Result<bool, String> {
    let declared = declared()?;
    let mut ok = true;
    println!(
        "{:<13} {:<17} {:>12} {:>12} {:>12} {:>9} {:>7} {:>13}  verdict",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "bound", "bound/spread"
    );
    for workload in Workload::ALL {
        let mut results = Vec::new();
        for i in 0..runs {
            results.push(child_run(
                workload,
                first_seed + i as u64,
                declared.run_seconds,
            )?);
            eprintln!("spread: {} run {}/{runs}", workload.name(), i + 1);
        }
        for (metric, &bound) in &declared.end_to_end {
            let values = column(&results, metric);
            let (q1, q3) = quartiles(&values);
            let share = iqr_share(&values);
            let fits = bound >= BOUND_OVER_SPREAD * share;
            ok &= fits;
            println!(
                "{:<13} {:<17} {:>12.4} {:>12.4} {:>12.4} {:>9.4} {:>7.2} {:>13.1}  {}",
                workload.name(),
                metric,
                median(&values),
                q1,
                q3,
                share,
                bound,
                if share > 0.0 {
                    bound / share
                } else {
                    f64::INFINITY
                },
                if fits { "ok" } else { "BOUND TOO TIGHT" }
            );
        }
    }
    Ok(ok)
}

/// How far two medians of one metric are apart, as a share of the smaller:
/// no less than "B is worse than A by" read either way round, so swapping
/// the sets changes nothing.
fn apart(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b)
}

/// Two sets of `per_set` runs of this same build, interleaved A B A B so
/// that host drift hits both; `Ok(false)` if the two medians of any
/// metric differ, whichever set is the worse one, by more than its bound.
pub fn check_agreement(per_set: usize, first_seed: u64) -> Result<bool, String> {
    let declared = declared()?;
    let mut ok = true;
    println!(
        "{:<13} {:<17} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "apart", "bound"
    );
    for workload in Workload::ALL {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..2 * per_set {
            let result = child_run(workload, first_seed + i as u64, declared.run_seconds)?;
            if i % 2 == 0 { &mut a } else { &mut b }.push(result);
            eprintln!(
                "agreement: {} run {}/{}",
                workload.name(),
                i + 1,
                2 * per_set
            );
        }
        for (metric, &bound) in &declared.end_to_end {
            let (ma, mb) = (median(&column(&a, metric)), median(&column(&b, metric)));
            let gap = apart(ma, mb);
            let agrees = gap <= bound;
            ok &= agrees;
            println!(
                "{:<13} {:<17} {:>12.4} {:>12.4} {:>9.4} {:>7.2}  {}",
                workload.name(),
                metric,
                ma,
                mb,
                gap,
                bound,
                if agrees { "ok" } else { "DISAGREES" }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_does_not_depend_on_which_set_is_which() {
        // The review's case: 776 vs 1092 per second passed at bound 0.25
        // only because the faster set came second.
        assert_eq!(apart(1092.0, 776.0), apart(776.0, 1092.0));
        assert!(apart(776.0, 1092.0) > 0.25);
        assert!(apart(1.0, 1.2) <= 0.25);
        assert_eq!(apart(3.0, 3.0), 0.0);
    }
}
