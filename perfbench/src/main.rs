//! The benchmark command.
//!
//! ```text
//! emm-perfbench --workload <table1_proof|filter_bank|explicit_bank>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets up and runs server batches, with reference timings
//! between them, for about `--seconds` and reports the end-to-end metrics
//! in reference seconds (see `calib`). `--trace 1` runs one
//! untimed batch and then one traced sequential replay of the same jobs,
//! and reports the per-layer metrics. Every metric is printed as
//! `name = value unit`; then a JSON record of the run's seed, core count
//! and worker count; then, as the last line, the JSON result. The exit code
//! is 1 when any verdict is wrong and 2 on a usage or set-up error.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use emm_perfbench::calib::{Reference, Timing, REFERENCE_S};
use emm_perfbench::{median, prepare, quantile, run_batch, set_up, trace, Scale, WORKLOADS};

/// Set-ups timed before each batch; `setup_s` is the median of all.
const SETUPS_PER_BATCH: usize = 10;

/// Reference timings before each batch and after the last.
const REFERENCE_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run reports.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Extra `"key": value` pairs (already JSON-encoded values) for the
    /// record line.
    record: Vec<(&'static str, String)>,
}

/// End-to-end run: server batches with timed set-ups before each, and
/// reference timings before every batch and after the last. Every time is
/// converted to reference seconds at the speed the reference timings on
/// both sides of its batch measured; the metrics are medians over the run.
fn timed(args: &Args, workers: usize) -> Result<Report, String> {
    let mut gaps = Vec::new();
    let mut setups: Vec<Vec<f64>> = Vec::new();
    let mut batches = Vec::new();
    let started = Instant::now();
    loop {
        // The reference instance lives only in the gaps, so it is not held
        // during a batch (the allocator may still keep some of its pages).
        let reference = Reference::new();
        if gaps.is_empty() {
            // The process's first timing runs slow (fresh threads and
            // pages); it is discarded.
            reference.time(workers);
        }
        gaps.push(
            (0..REFERENCE_REPEATS)
                .map(|_| reference.time(workers))
                .collect::<Vec<Timing>>(),
        );
        drop(reference);
        if !batches.is_empty() {
            // Start another batch, with its set-ups and timings, only if a
            // batch of average length ends within half a batch of
            // `--seconds`, so runs last `--seconds` on average.
            let spent = started.elapsed().as_secs_f64();
            if spent + 0.5 * spent / batches.len() as f64 > args.seconds {
                break;
            }
        }
        // Several timed set-ups before every batch, so `setup_s` samples
        // the same stretch of the run as the batches; the last one runs.
        let mut set = None;
        let mut times = Vec::with_capacity(SETUPS_PER_BATCH);
        for _ in 0..SETUPS_PER_BATCH {
            drop(set.take());
            let started = Instant::now();
            set = Some(set_up(&args.workload, args.seed, Scale::Full, workers)?);
            times.push(started.elapsed().as_secs_f64());
        }
        setups.push(times);
        let (server, jobs) = set.expect("at least one set-up per batch");
        batches.push(run_batch(server, &jobs));
    }

    // The machine's speed around batch `i`: the median of the timings in
    // the gaps before and after it.
    let speeds: Vec<Timing> = gaps
        .windows(2)
        .map(|pair| {
            let around: Vec<&Timing> = pair.iter().flatten().collect();
            let walls: Vec<f64> = around.iter().map(|t| t.wall_s).collect();
            let cpus: Vec<f64> = around.iter().map(|t| t.cpu_s).collect();
            Timing {
                wall_s: median(&walls),
                cpu_s: median(&cpus),
            }
        })
        .collect();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut jobs = Vec::new();
    let mut setup_times = Vec::new();
    for ((batch, speed), times) in batches.iter().zip(&speeds).zip(&setups) {
        walls.push(speed.wall_to_reference(batch.wall_s));
        cpus.push(speed.cpu_to_reference(batch.cpu_s));
        jobs.extend(
            batch
                .job_seconds
                .iter()
                .map(|&t| speed.wall_to_reference(t)),
        );
        setup_times.extend(times.iter().map(|&t| speed.wall_to_reference(t)));
    }
    let peaks: Vec<f64> = batches.iter().map(|b| b.peak_rss_mib).collect();

    let attempted: usize = batches.iter().map(|b| b.verdicts.len()).sum();
    let failed: usize = batches.iter().map(|b| b.failed).sum();
    let metrics = vec![
        ("wall_s", median(&walls), "s"),
        ("cpu_s", median(&cpus), "s"),
        ("job_p50_s", median(&jobs), "s"),
        ("job_p95_s", quantile(&jobs, 0.95), "s"),
        ("setup_s", median(&setup_times), "s"),
        ("peak_rss_mib", median(&peaks), "MiB"),
    ];
    let flat = |f: fn(&Timing) -> f64| -> Vec<f64> { gaps.iter().flatten().map(f).collect() };
    let record = vec![
        ("batches", batches.len().to_string()),
        ("jobs_per_batch", batches[0].verdicts.len().to_string()),
        ("job_samples", jobs.len().to_string()),
        // The nearest-rank p95 has about `job_samples / 20` beyond it.
        ("job_samples_beyond_p95", (jobs.len() / 20).to_string()),
        ("setup_samples", setup_times.len().to_string()),
        ("failed_ratio", ratio(failed, attempted)),
        ("reference_s", REFERENCE_S.to_string()),
        ("reference_wall_s", json_numbers(&flat(|t| t.wall_s))),
        ("reference_cpu_s", json_numbers(&flat(|t| t.cpu_s))),
        (
            "batch_wall_s",
            json_numbers(&batches.iter().map(|b| b.wall_s).collect::<Vec<_>>()),
        ),
        (
            "batch_cpu_s",
            json_numbers(&batches.iter().map(|b| b.cpu_s).collect::<Vec<_>>()),
        ),
        ("verdicts", json_strings(&batches[0].verdicts)),
    ];
    Ok(Report {
        attempted: attempted.max(1),
        failed,
        metrics,
        record,
    })
}

/// Per-layer run: one untimed batch, then one traced sequential replay.
fn traced(args: &Args, workers: usize) -> Result<Report, String> {
    let (server, jobs) = set_up(&args.workload, args.seed, Scale::Full, workers)?;
    let batch = run_batch(server, &jobs);
    let job_total: f64 = batch.job_seconds.iter().sum();

    let prepared = prepare(&args.workload, args.seed, Scale::Full)?;
    let t = trace(&prepared)?;
    let (s, c) = (t.seconds, t.counters);
    let count = |n: u64| n as f64;
    let metrics = vec![
        ("aig.parse_s", s.parse, "s"),
        ("aig.rewrite_s", s.rewrite, "s"),
        ("aig.fraig_s", s.fraig, "s"),
        ("aig.ands_before", count(c.ands_before), "count"),
        ("aig.ands_after", count(c.ands_after), "count"),
        ("aig.fraig_sat_checks", count(c.fraig_sat_checks), "count"),
        ("aig.fraig_merges", count(c.fraig_merges), "count"),
        ("bmc.reduce_s", s.reduce, "s"),
        ("bmc.engine_new_s", s.engine_new, "s"),
        ("bmc.check_s", s.check, "s"),
        ("bmc.encode_s", s.encode, "s"),
        (
            "bmc.check_other_s",
            s.check - s.encode - s.solve - s.inprocess,
            "s",
        ),
        ("bmc.kind_step_queries", count(c.kind_step_queries), "count"),
        (
            "bmc.pool_busy_ratio",
            job_total / (workers as f64 * batch.wall_s),
            "ratio",
        ),
        ("core.emm_clauses", count(c.emm_clauses), "count"),
        ("core.emm_aux_vars", count(c.emm_aux_vars), "count"),
        (
            "core.emm_cmp_cache_hits",
            count(c.emm_cmp_cache_hits),
            "count",
        ),
        ("sat.solve_s", s.solve, "s"),
        ("sat.propagations", count(c.propagations), "count"),
        ("sat.decisions", count(c.decisions), "count"),
        ("sat.conflicts", count(c.conflicts), "count"),
        ("sat.props_per_s", count(c.propagations) / s.solve, "1/s"),
        ("sat.step_propagations", count(c.step_propagations), "count"),
        ("sat.inprocess_s", s.inprocess, "s"),
        ("sat.inprocess_rounds", count(c.inprocess_rounds), "count"),
        ("sat.vivified_clauses", count(c.vivified_clauses), "count"),
        ("sat.failed_literals", count(c.failed_literals), "count"),
        ("sat.vars", count(c.vars), "count"),
        ("sat.clauses", count(c.clauses), "count"),
        (
            "sat.simplify_gates_emitted",
            count(c.simplify_gates_emitted),
            "count",
        ),
        (
            "sat.simplify_clauses_dropped",
            count(c.simplify_clauses_dropped),
            "count",
        ),
        (
            "trace.overhead_ratio",
            (s.engine_new + s.check) / job_total,
            "ratio",
        ),
    ];
    let attempted = batch.verdicts.len() + t.verdicts.len();
    let failed = batch.failed + t.failed;
    let record = vec![
        ("jobs", t.verdicts.len().to_string()),
        ("failed_ratio", ratio(failed, attempted)),
        ("untimed_wall_s", batch.wall_s.to_string()),
        ("untimed_job_seconds_sum", job_total.to_string()),
        ("verdicts", json_strings(&t.verdicts)),
    ];
    Ok(Report {
        attempted: attempted.max(1),
        failed,
        metrics,
        record,
    })
}

fn ratio(part: usize, whole: usize) -> String {
    (part as f64 / whole.max(1) as f64).to_string()
}

fn json_numbers(items: &[f64]) -> String {
    let numbers: Vec<String> = items.iter().map(|&v| json_number(v)).collect();
    format!("[{}]", numbers.join(","))
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(","))
}

/// A finite JSON number with all its digits.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: emm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(2);
    let run = if args.trace {
        traced(&args, workers)
    } else {
        timed(&args, workers)
    };
    let report = match run {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    for (name, value, unit) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    let mut record = format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \"workers\": {workers}, \"trace\": {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (key, value) in &report.record {
        let _ = write!(record, ", \"{key}\": {value}");
    }
    record.push_str("}}");
    println!("{record}");

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
