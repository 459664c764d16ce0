//! Flow benchmark of the msatpg mixed-signal test generator: the wall time
//! until a whole, checked test plan is ready, on three workloads, with a
//! separate traced run that breaks the time down by crate.
//!
//! ```text
//! flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! flowbench --write-reference
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics traced.  The line before it records the run's
//! settings and host.  See `flowbench/README.md`.

mod check;
mod probe;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::{Checker, OpCheck, Reference};
use stats::{median, quartiles};
use trace::{Totals, Tracer};
use workloads::{run_iteration, Inputs, Quality, Workload};

/// Expected results of every workload and connection.
const REFERENCE: &str = include_str!("../reference.txt");
const REFERENCE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");
/// Where the traced run writes its spans.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");

/// Iterations (traced: traced iterations) timed even when they overrun
/// `--seconds`, so every median has at least this many samples.
const MIN_ITERATIONS: usize = 3;
/// Set-up batches timed before the first iteration; one more runs between
/// iterations, so the batches span the whole run.
const SETUP_SAMPLES: usize = 3;
/// A set-up batch repeats the set-up until it has lasted this long, so a
/// set-up of microseconds is timed over many repetitions.
const SETUP_BATCH: Duration = Duration::from_millis(20);
/// Passes over every (parameter, element) probe of the workload's filter.
const PROBE_PASSES: usize = 5;

/// End-to-end metrics, reported by the untraced run: `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("plan_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fault_coverage", "ratio"),
    ("test_vectors", "count"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`.
const PER_LAYER: [(&str, &str); 37] = [
    ("analog.deviation_s", "s"),
    ("analog.rows_per_s", "1/s"),
    ("analog.deviation_rows", "count"),
    ("analog.probe_gain_us", "us"),
    ("analog.probe_search_us", "us"),
    ("analog.probe_search_solves", "count"),
    ("analog.probe_search_factorizations", "count"),
    ("analog.probe_search_assemblies", "count"),
    ("analog.solve_us", "us"),
    ("core.digital_constrained_s", "s"),
    ("core.digital_unconstrained_s", "s"),
    ("core.atpg_build_s", "s"),
    ("core.atpg_run_s", "s"),
    ("core.analog_tests_s", "s"),
    ("core.conversion_tests_s", "s"),
    ("core.faults", "count"),
    ("core.detected", "count"),
    ("core.untestable", "count"),
    ("core.aborted", "count"),
    ("core.degraded", "count"),
    ("core.faults_per_s", "1/s"),
    ("bdd.peak_live_nodes", "count"),
    ("bdd.created_nodes", "count"),
    ("bdd.apply_hit_rate", "ratio"),
    ("bdd.ite_hit_rate", "ratio"),
    ("bdd.gc_runs", "count"),
    ("digital.grade_s", "s"),
    ("digital.grade_patterns_per_s", "1/s"),
    ("digital.graded_detected", "count"),
    ("exec.pool_spawns", "count"),
    ("exec.pool_jobs", "count"),
    ("exec.pool_barriers", "count"),
    ("analog_coverage", "ratio"),
    ("fail_frac", "ratio"),
    ("trace.plan_s", "s"),
    ("trace.untraced_plan_s", "s"),
    ("trace.overhead_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

type Metrics = BTreeMap<&'static str, f64>;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--write-reference"] {
        return match write_reference() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e),
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            return fail(&format!(
                "{e}\nusage: flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            ))
        }
    };
    let reference = match Reference::parse(REFERENCE) {
        Ok(reference) => reference,
        Err(e) => return fail(&e),
    };
    let mut checker = Checker::new(reference);
    let run = if args.trace {
        traced_run(&args, &mut checker)
    } else {
        untraced_run(&args, &mut checker)
    };
    let (metrics, notes) = match run {
        Ok(run) => run,
        Err(e) => return fail(&e),
    };
    for failure in checker.failures.iter().take(20) {
        eprintln!("flowbench: FAILED {failure}");
    }
    println!("{}", meta_line(&args, &notes));
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_line(&checker, &metrics, table));
    ExitCode::SUCCESS
}

fn fail(message: &str) -> ExitCode {
    eprintln!("flowbench: {message}");
    ExitCode::FAILURE
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        values.insert(key, value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = get("--workload")?;
    let number = |key: &str| {
        get(key)?
            .parse::<u64>()
            .map_err(|_| format!("{key} must be a whole number"))
    };
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_owned()),
        },
    })
}

/// One timed set-up batch: builds the workload's inputs into `inputs`
/// until the builds have taken `SETUP_BATCH`; returns seconds per build.
fn setup_batch(args: &Args, inputs: &mut Option<Inputs>) -> Result<f64, String> {
    let (mut busy, mut builds) = (Duration::ZERO, 0u32);
    while builds == 0 || busy < SETUP_BATCH {
        // Dropping the previous inputs is not set-up work: time only the
        // build.
        drop(inputs.take());
        let start = Instant::now();
        *inputs = Some(workloads::setup(args.workload, args.seed).map_err(|e| e.to_string())?);
        busy += start.elapsed();
        builds += 1;
    }
    Ok(busy.as_secs_f64() / f64::from(builds))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The end-to-end metrics: repeated untraced iterations for `--seconds`,
/// with a set-up batch before each one, so the set-up samples span the
/// same stretch of time as the iterations.  Timings are medians; the meta
/// line adds their quartiles and sample counts.
fn untraced_run(args: &Args, checker: &mut Checker) -> Result<(Metrics, Vec<String>), String> {
    let mut inputs = None;
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        setup_s.push(setup_batch(args, &mut inputs)?);
    }
    let pool = args.workload.pool();
    let mut off = Tracer::new(false);
    let mut plan_s = Vec::new();
    let mut quality;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    loop {
        let built = inputs.as_ref().expect("set-up built the inputs");
        let t = Instant::now();
        quality = run_iteration(built, &pool, &mut off, checker);
        plan_s.push(t.elapsed().as_secs_f64());
        if plan_s.len() >= MIN_ITERATIONS && start.elapsed() >= budget {
            break;
        }
        setup_s.push(setup_batch(args, &mut inputs)?);
    }
    let mut metrics = Metrics::new();
    metrics.insert("plan_s", median(&plan_s).unwrap_or(0.0));
    metrics.insert("setup_s", median(&setup_s).unwrap_or(0.0));
    metrics.insert("peak_rss_mb", peak_rss_mb()?);
    metrics.insert(
        "fault_coverage",
        ratio(quality.detected as f64, quality.faults as f64),
    );
    metrics.insert("test_vectors", quality.vectors as f64);
    let notes = vec![
        spread_note("plan_s", &plan_s),
        spread_note("setup_s", &setup_s),
    ];
    Ok((metrics, notes))
}

/// The per-layer metrics: traced iterations alternating with untraced ones
/// (for the tracing overhead), then the deviation probes.
fn traced_run(args: &Args, checker: &mut Checker) -> Result<(Metrics, Vec<String>), String> {
    let inputs = workloads::setup(args.workload, args.seed).map_err(|e| e.to_string())?;
    let pool = args.workload.pool();
    let (mut on, mut off) = (Tracer::new(true), Tracer::new(false));
    let mut untraced = Vec::new();
    let mut layers: Vec<Metrics> = Vec::new();
    let mut quality = Quality::default();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while layers.len() < MIN_ITERATIONS || start.elapsed() < budget {
        // Alternate which of the pair runs first, so neither always
        // starts with colder caches.
        let traced_first = layers.len() % 2 == 1;
        let mut untraced_iteration = |checker: &mut Checker| {
            let t = Instant::now();
            run_iteration(&inputs, &pool, &mut off, checker);
            untraced.push(t.elapsed().as_secs_f64());
        };
        if !traced_first {
            untraced_iteration(checker);
        }
        let mark = on.mark();
        quality = run_iteration(&inputs, &pool, &mut on, checker);
        layers.push(layer_metrics(&on.totals_since(mark)));
        if traced_first {
            untraced_iteration(checker);
        }
    }

    let mut metrics = Metrics::new();
    for &(name, _) in &PER_LAYER {
        let samples: Vec<f64> = layers.iter().filter_map(|m| m.get(name).copied()).collect();
        if let Some(value) = median(&samples) {
            metrics.insert(name, value);
        }
    }
    let traced_plan = metrics.get("trace.plan_s").copied().unwrap_or(0.0);
    let untraced_plan = median(&untraced).unwrap_or(0.0);
    metrics.insert("trace.untraced_plan_s", untraced_plan);
    metrics.insert("trace.overhead_s", traced_plan - untraced_plan);

    let probes = probe::probe_filter(&args.workload.probe_filter(), PROBE_PASSES);
    if let Ok(p) = &probes {
        let us = |samples: &[f64]| median(samples).unwrap_or(0.0) * 1e6;
        let per_probe = |count: u64| ratio(count as f64, p.search_probes as f64);
        metrics.insert("analog.probe_gain_us", us(&p.gain_s));
        metrics.insert("analog.probe_search_us", us(&p.search_s));
        metrics.insert("analog.solve_us", us(&p.solve_s));
        metrics.insert(
            "analog.probe_search_solves",
            per_probe(p.search_work.solves),
        );
        metrics.insert(
            "analog.probe_search_factorizations",
            per_probe(p.search_work.factorizations),
        );
        metrics.insert(
            "analog.probe_search_assemblies",
            per_probe(p.search_work.assemblies),
        );
    }
    checker.finish("analog probes", &probes, OpCheck::default());

    metrics.insert(
        "analog_coverage",
        ratio(quality.analog_tested as f64, quality.analog_elements as f64),
    );
    metrics.insert(
        "fail_frac",
        ratio(checker.failed as f64, checker.attempted as f64),
    );
    let path =
        Path::new(TRACE_DIR).join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    on.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let notes = vec![
        spread_note(
            "trace.plan_s",
            &layers.iter().map(|m| m["trace.plan_s"]).collect::<Vec<_>>(),
        ),
        spread_note("trace.untraced_plan_s", &untraced),
        format!(
            "\"trace_file\": \"{}\"",
            json_escape(&path.display().to_string())
        ),
    ];
    Ok((metrics, notes))
}

/// The per-layer metrics of one traced iteration.
fn layer_metrics(t: &Totals) -> Metrics {
    let mut m = Metrics::new();
    let deviation_s = t.secs("analog.deviation");
    m.insert("analog.deviation_s", deviation_s);
    m.insert("analog.deviation_rows", t.count("analog.deviation_rows"));
    m.insert(
        "analog.rows_per_s",
        ratio(t.count("analog.deviation_rows"), deviation_s),
    );
    for (metric, span) in [
        ("core.digital_constrained_s", "core.digital_constrained"),
        ("core.digital_unconstrained_s", "core.digital_unconstrained"),
        ("core.atpg_build_s", "core.atpg_build"),
        ("core.atpg_run_s", "core.atpg_run"),
        ("core.analog_tests_s", "core.analog_tests"),
        ("core.conversion_tests_s", "core.conversion_tests"),
        ("digital.grade_s", "digital.grade"),
        ("trace.plan_s", "plan"),
    ] {
        m.insert(metric, t.secs(span));
    }
    for name in [
        "core.faults",
        "core.detected",
        "core.untestable",
        "core.aborted",
        "core.degraded",
        "bdd.peak_live_nodes",
        "bdd.created_nodes",
        "bdd.gc_runs",
        "digital.graded_detected",
        "exec.pool_spawns",
        "exec.pool_jobs",
        "exec.pool_barriers",
    ] {
        m.insert(name, t.count(name));
    }
    m.insert(
        "core.faults_per_s",
        ratio(t.count("core.faults"), t.secs("core.atpg_run")),
    );
    m.insert(
        "bdd.apply_hit_rate",
        ratio(t.count("bdd.apply_hits"), t.count("bdd.apply_lookups")),
    );
    m.insert(
        "bdd.ite_hit_rate",
        ratio(t.count("bdd.ite_hits"), t.count("bdd.ite_lookups")),
    );
    m.insert(
        "digital.grade_patterns_per_s",
        ratio(t.count("digital.graded_patterns"), t.secs("digital.grade")),
    );
    m
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// `"<name>_samples": n, "<name>_median": .., "<name>_q1": .., "<name>_q3": ..`
/// for the meta line, and the same on standard error.
fn spread_note(name: &str, samples: &[f64]) -> String {
    let (q1, q3) = quartiles(samples).unwrap_or((0.0, 0.0));
    let mid = median(samples).unwrap_or(0.0);
    eprintln!(
        "flowbench: {name} median {mid:.6} s, quartiles {q1:.6}..{q3:.6} s over {} samples",
        samples.len()
    );
    format!(
        "\"{name}_samples\": {}, \"{name}_median\": {}, \"{name}_q1\": {}, \"{name}_q3\": {}",
        samples.len(),
        json_number(mid),
        json_number(q1),
        json_number(q3)
    )
}

/// The settings and host of the run: every `MSATPG_*` variable (the
/// measured program pins every knob they could change), host CPUs, seed
/// and commit.
fn meta_line(args: &Args, notes: &[String]) -> String {
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MSATPG_"))
        .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(&k), json_escape(&v)))
        .collect();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        format!("\"workload\": \"{}\"", args.workload.name()),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"host_cpus\": {cpus}"),
        format!("\"commit\": \"{}\"", json_escape(&commit())),
        format!("\"msatpg_env\": {{{}}}", env.join(", ")),
    ];
    fields.extend(notes.iter().cloned());
    format!("{{\"meta\": {{{}}}}}", fields.join(", "))
}

/// The checked-out commit, read from `.git` in the working directory, or
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|hash| hash.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

/// The result object: every metric of `table`, in table order.
fn result_line(checker: &Checker, metrics: &Metrics, table: &[(&str, &str)]) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        body.join(", ")
    )
}

/// Runs every workload once over every pooled connection and writes the
/// results as the new reference.
fn write_reference() -> Result<(), String> {
    let mut checker = Checker::recording();
    for workload in Workload::ALL {
        let inputs = workloads::setup_all_connections(workload).map_err(|e| e.to_string())?;
        run_iteration(
            &inputs,
            &workload.pool(),
            &mut Tracer::new(false),
            &mut checker,
        );
    }
    if checker.failed > 0 {
        return Err(format!(
            "not writing a reference from failing runs:\n{}",
            checker.failures.join("\n")
        ));
    }
    let text = format!(
        "# Expected flowbench results; regenerate with `flowbench --write-reference`.\n{}",
        checker.reference_text()
    );
    std::fs::write(REFERENCE_PATH, text).map_err(|e| format!("writing {REFERENCE_PATH}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c432_inputs(seed: u64, connections: usize) -> Inputs {
        let mut inputs = workloads::setup(Workload::IscasCampaigns, seed).unwrap();
        workloads::truncate(&mut inputs, 1, connections);
        inputs
    }

    fn check(inputs: &Inputs, reference: Reference) -> Checker {
        let mut checker = Checker::new(reference);
        let pool = Workload::IscasCampaigns.pool();
        run_iteration(inputs, &pool, &mut Tracer::new(false), &mut checker);
        checker
    }

    #[test]
    fn a_corrupted_reference_fails_operations() {
        let inputs = c432_inputs(7, 1);
        let checker = check(&inputs, Reference::parse(REFERENCE).unwrap());
        assert_eq!(checker.failed, 0, "{:?}", checker.failures);
        let (_, index, _) = workloads::connections(&inputs)[0].clone();
        let mut corrupt = Reference::parse(REFERENCE).unwrap();
        corrupt.set(&format!("digital/c432/k{index}"), "1 1 0 1");
        let checker = check(&inputs, corrupt);
        assert!(checker.failed > 0);
        let fail_frac = ratio(checker.failed as f64, checker.attempted as f64);
        assert!(fail_frac > 0.0 && fail_frac < 1.0);
    }

    #[test]
    fn two_seeds_choose_different_connections_that_both_pass() {
        let (a, b) = (c432_inputs(1, 2), c432_inputs(2, 2));
        assert_ne!(workloads::connections(&a), workloads::connections(&b));
        for inputs in [a, b] {
            let checker = check(&inputs, Reference::parse(REFERENCE).unwrap());
            assert!(checker.attempted > 0);
            assert_eq!(checker.failed, 0, "{:?}", checker.failures);
        }
    }

    #[test]
    fn the_same_seed_chooses_the_same_connections() {
        assert_eq!(
            workloads::connection_choice(5),
            workloads::connection_choice(5)
        );
        for circuit in workloads::connection_choice(5) {
            let mut distinct = circuit.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), workloads::CONNECTIONS_PER_CIRCUIT);
            assert!(circuit.iter().all(|&k| k < workloads::CONNECTION_POOL));
        }
    }

    #[test]
    fn benchmark_json_names_the_reported_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let quoted = |name: &str| format!("\"name\": \"{name}\"");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(text.contains(&quoted(name)), "{name} missing");
            assert!(text.contains(&format!("{}, \"unit\": \"{unit}\"", quoted(name))));
        }
        for workload in Workload::ALL {
            assert!(text.contains(&quoted(workload.name())));
        }
        let declared = text.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload fig4_flow --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::Fig4Flow, 3, 10, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload fig4_flow --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload fig4_flow --seed 3 --seconds 10")).is_err());
    }
}
