//! One benchmark run: `perfbench --workload <name> --seed <n> --mode
//! <plain|traced|threaded> [--spans-out <file>]`. Prints one JSON object
//! with the run's checks, digest, event count and metrics; a traced run
//! also writes its spans and dispatch profile to `--spans-out`.

use std::process::ExitCode;

use rocescale_monitor::Json;
use rocescale_perfbench::gen::Workload;
use rocescale_perfbench::run::{run, Mode, Outcome};
use rocescale_sim::EventProfile;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let workload = flag("--workload").and_then(|w| Workload::from_name(&w));
    let seed = flag("--seed").and_then(|s| s.parse::<u64>().ok());
    let mode = flag("--mode").map_or(Some(Mode::Plain), |m| Mode::from_name(&m));
    let (Some(workload), Some(seed), Some(mode)) = (workload, seed, mode) else {
        eprintln!(
            "usage: perfbench --workload <fleet_100k|incast_podset|lossy_1in256> --seed <n> \
             [--mode plain|traced|threaded] [--spans-out <file>]"
        );
        return ExitCode::from(2);
    };
    let out = run(workload, seed, mode);
    if let Some(path) = flag("--spans-out") {
        if let Err(e) = std::fs::write(&path, spans_json(&out).render()) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome_json(&out).render());
    ExitCode::SUCCESS
}

fn outcome_json(o: &Outcome) -> Json {
    Json::obj(vec![
        ("workload", Json::Str(o.plan.workload.name().to_string())),
        ("seed", Json::U64(o.plan.seed)),
        ("plan", Json::Str(format!("{:016x}", o.plan.fingerprint()))),
        ("digest", Json::Str(format!("{:016x}", o.digest))),
        ("events", Json::U64(o.events)),
        ("checks", named(&o.checks, |&ok| Json::Bool(ok))),
        ("metrics", named(&o.metrics, |&v| Json::F64(v))),
    ])
}

fn spans_json(o: &Outcome) -> Json {
    let p = &o.profile;
    let mut profile: Vec<(&str, Json)> = EventProfile::KINDS
        .iter()
        .enumerate()
        .map(|(k, &name)| {
            let kind = vec![
                ("count", Json::U64(p.counts[k])),
                ("nanos", Json::U64(p.nanos[k])),
            ];
            (name, Json::obj(kind))
        })
        .collect();
    profile.push(("batches", Json::Arr(p.batches.map(Json::U64).to_vec())));
    Json::obj(vec![
        ("run_id", Json::Str(o.spans.run_id.clone())),
        ("workload", Json::Str(o.plan.workload.name().to_string())),
        ("seed", Json::U64(o.plan.seed)),
        ("spans", o.spans.to_json()),
        (
            "self_s",
            named(&o.spans.self_s_by_name(), |&v| Json::F64(v)),
        ),
        ("event_profile", Json::obj(profile)),
    ])
}

/// A JSON object from `(name, value)` pairs, in order.
fn named<T>(pairs: &[(&'static str, T)], f: impl Fn(&T) -> Json) -> Json {
    Json::obj(pairs.iter().map(|(k, v)| (*k, f(v))).collect())
}
