//! A minimal in-tree wall-clock benchmark harness (the workspace builds
//! hermetically, so no external bench framework). Methodology: warm up,
//! size an iteration batch to a target measurement window, take several
//! timed batches, and report the *best* batch (least scheduler noise) —
//! the same shape `cargo bench`-style harnesses use, without the
//! statistics machinery a CI smoke comparison doesn't need.

use std::hint::black_box;
use std::time::Instant;

use rocescale_monitor::Json;

use crate::report::CliArgs;

/// The one command line every experiment binary shares.
///
/// Twenty-one thin `src/bin/*` wrappers and the fleet runner all accept the
/// same flags; before this parser each binary (and the fleet) re-parsed
/// its own subset by hand, so a new flag (`--trace-out`) meant touching
/// every copy. `ScenarioCli` is the single place flags are defined:
///
/// * `--json` — emit the JSON report instead of text tables.
/// * `--json-out PATH` — additionally write the JSON report to a file.
/// * `--trace-out PATH` — stream the scenario's structured trace
///   (JSONL; see `rocescale_monitor::sink`) to a file for
///   `trace_analyze`.
/// * `--jobs N` — worker threads (fleet only; scenarios ignore it).
/// * `--bench-out PATH` — fleet benchmark artifact (fleet only).
/// * anything else lands in `flags` for scenario-specific switches
///   (`--full-scale`, `--no-pfc`, …).
#[derive(Debug, Clone, Default)]
pub struct ScenarioCli {
    /// `--json`: emit the JSON report on stdout.
    pub json: bool,
    /// `--json-out PATH`: also write the JSON report to this file.
    pub json_out: Option<String>,
    /// `--trace-out PATH`: stream the structured JSONL trace here.
    pub trace_out: Option<String>,
    /// `--jobs N`: worker threads (consumed by the fleet runner).
    pub jobs: Option<usize>,
    /// `--bench-out PATH`: fleet self-benchmark artifact path.
    pub bench_out: Option<String>,
    /// Everything else, for scenario-specific flags.
    pub flags: Vec<String>,
}

impl ScenarioCli {
    /// Parse the process arguments; `Err` carries a usage message.
    pub fn parse() -> Result<ScenarioCli, String> {
        ScenarioCli::from_args(std::env::args().skip(1))
    }

    /// Parse from any argument source (tests, the fleet's forwarding).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<ScenarioCli, String> {
        let mut cli = ScenarioCli::default();
        let mut args = args.into_iter();
        let value = |flag: &str, args: &mut dyn Iterator<Item = String>| {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--json" => cli.json = true,
                "--json-out" => cli.json_out = Some(value("--json-out", &mut args)?),
                "--trace-out" => cli.trace_out = Some(value("--trace-out", &mut args)?),
                "--bench-out" => cli.bench_out = Some(value("--bench-out", &mut args)?),
                "--jobs" => {
                    let v = value("--jobs", &mut args)?;
                    match v.parse::<usize>() {
                        Ok(n) if n >= 1 => cli.jobs = Some(n),
                        _ => return Err(format!("--jobs needs a positive integer, got {v:?}")),
                    }
                }
                _ => cli.flags.push(a),
            }
        }
        Ok(cli)
    }

    /// Is a scenario-specific flag present?
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The per-scenario argument view ([`CliArgs`]) of this command
    /// line: what a [`crate::report::ScenarioReport`] receives. The
    /// fleet-only knobs (`--jobs`, `--bench-out`) do not forward.
    pub fn to_args(&self) -> CliArgs {
        CliArgs {
            json: self.json,
            json_out: self.json_out.clone(),
            trace_out: self.trace_out.clone(),
            flags: self.flags.clone(),
        }
    }
}

/// Target wall-clock per timed batch, in nanoseconds (50 ms).
const BATCH_TARGET_NS: u128 = 50_000_000;
/// Timed batches per benchmark; the best is reported.
const BATCHES: usize = 5;

/// One benchmark's result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name as printed.
    pub name: String,
    /// Best-batch nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations per timed batch.
    pub iters_per_batch: u64,
    /// Optional throughput denominator: "elements" processed per
    /// iteration (e.g. simulated events), for an elements/sec figure.
    pub elements_per_iter: Option<u64>,
}

impl Measurement {
    /// Elements per wall-clock second, if an element count was attached.
    pub fn elements_per_sec(&self) -> Option<f64> {
        self.elements_per_iter
            .map(|e| e as f64 * 1e9 / self.ns_per_iter)
    }

    /// JSON form for `--json-out` bench artifacts.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.clone())),
            ("ns_per_iter", Json::F64(self.ns_per_iter)),
            ("iters_per_batch", Json::U64(self.iters_per_batch)),
        ];
        if let Some(r) = self.elements_per_sec() {
            pairs.push(("elements_per_sec", Json::F64(r)));
        }
        Json::obj(pairs)
    }

    /// Render one aligned report line.
    pub fn render(&self) -> String {
        let rate = match self.elements_per_sec() {
            Some(r) => format!("  {:>12.0} elem/s", r),
            None => String::new(),
        };
        format!(
            "{:<44} {:>14.1} ns/iter  ({} iters/batch){}",
            self.name, self.ns_per_iter, self.iters_per_batch, rate
        )
    }
}

/// Benchmark a closure: returns the best-of-`BATCHES` per-iteration
/// time. The closure's result is passed through [`black_box`] so the
/// optimizer cannot delete the work.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Measurement {
    bench_impl(name, None, &mut f)
}

/// Like [`bench()`], attaching an elements-per-iteration count so the
/// report includes throughput (e.g. simulated events per second).
pub fn bench_elements<T>(name: &str, elements: u64, mut f: impl FnMut() -> T) -> Measurement {
    bench_impl(name, Some(elements), &mut f)
}

fn bench_impl<T>(name: &str, elements: Option<u64>, f: &mut dyn FnMut() -> T) -> Measurement {
    // Warm up and size the batch from a single timed call (min 1 µs so
    // the division below stays sane for sub-nanosecond bodies).
    let t0 = Instant::now();
    black_box(f());
    let once_ns = t0.elapsed().as_nanos().max(1_000);
    let iters = ((BATCH_TARGET_NS / once_ns) as u64).clamp(1, 100_000_000);

    let mut best_ns = u128::MAX;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best_ns = best_ns.min(t.elapsed().as_nanos());
    }
    let m = Measurement {
        name: name.to_string(),
        ns_per_iter: best_ns as f64 / iters as f64,
        iters_per_batch: iters,
        elements_per_iter: elements,
    };
    println!("{}", m.render());
    m
}

/// Print a section header.
pub fn section(title: &str) {
    println!("\n--- {title} ---");
}

/// Write a set of measurements as a JSON artifact (e.g.
/// `BENCH_sched.json`): `{"bench": name, "results": [...]}`.
pub fn write_json_artifact(path: &str, bench_name: &str, results: &[Measurement]) {
    write_json_artifact_with(path, bench_name, results, Vec::new());
}

/// Like [`write_json_artifact`], with extra top-level keys appended
/// after `results` (e.g. the sched bench's dispatch-profile breakdown).
pub fn write_json_artifact_with(
    path: &str,
    bench_name: &str,
    results: &[Measurement],
    extra: Vec<(&str, Json)>,
) {
    let mut pairs = vec![
        ("bench", Json::Str(bench_name.to_string())),
        (
            "results",
            Json::Arr(results.iter().map(|m| m.to_json()).collect()),
        ),
    ];
    pairs.extend(extra);
    let doc = Json::obj(pairs);
    std::fs::write(path, doc.render() + "\n").expect("write bench artifact");
    println!("\nwrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let m = bench("spin", || (0..100u64).sum::<u64>());
        assert!(m.ns_per_iter > 0.0);
        assert!(m.iters_per_batch >= 1);
        assert_eq!(m.elements_per_sec(), None);
    }

    #[test]
    fn scenario_cli_parses_every_shared_flag() {
        let argv = [
            "--json",
            "--json-out",
            "out.json",
            "--trace-out",
            "trace.jsonl",
            "--jobs",
            "4",
            "--bench-out",
            "bench.json",
            "--full-scale",
        ];
        let cli = ScenarioCli::from_args(argv.iter().map(|s| s.to_string())).unwrap();
        assert!(cli.json);
        assert_eq!(cli.json_out.as_deref(), Some("out.json"));
        assert_eq!(cli.trace_out.as_deref(), Some("trace.jsonl"));
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.bench_out.as_deref(), Some("bench.json"));
        assert!(cli.has("--full-scale"));
        assert!(!cli.has("--no-pfc"));

        let args = cli.to_args();
        assert!(args.json);
        assert_eq!(args.trace_out.as_deref(), Some("trace.jsonl"));
        assert!(args.has("--full-scale"));
    }

    #[test]
    fn scenario_cli_rejects_missing_or_bad_values() {
        let err =
            |argv: &[&str]| ScenarioCli::from_args(argv.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["--trace-out"]).contains("--trace-out"));
        assert!(err(&["--json-out"]).contains("--json-out"));
        assert!(err(&["--jobs", "zero"]).contains("--jobs"));
        assert!(err(&["--jobs", "0"]).contains("--jobs"));
    }

    #[test]
    fn elements_rate_scales() {
        let m = Measurement {
            name: "x".into(),
            ns_per_iter: 1000.0,
            iters_per_batch: 1,
            elements_per_iter: Some(10),
        };
        assert_eq!(m.elements_per_sec(), Some(10e6));
        assert!(m.render().contains("elem/s"));
    }
}
