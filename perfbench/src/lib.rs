//! The repository benchmark: three workloads drawn from the paper's
//! experiments, run end to end through the public [`VerificationServer`]
//! batch API ([`set_up`] + [`run_batch`]) and replayed layer by layer
//! through the public per-layer calls ([`trace`]). Every verdict is checked
//! against its known answer ([`Expect`]). [`calib`] holds the reference
//! workload the time metrics are stated against. See `NOTES.md` for why
//! each workload was chosen and which layer should move which metric.

pub mod calib;

use std::sync::Arc;
use std::time::Instant;

use emm_aig::aiger::write_aiger_binary;
use emm_aig::Design;
use emm_bmc::{
    BmcEngine, BmcRun, BmcVerdict, KInduction, ModelSource, ProofEngine, ReducedModel,
    VerificationServer, VerifyBudget, VerifyOptions, VerifyRequest,
};
use emm_core::explicit_model;
use emm_designs::image_filter::{ImageFilter, ImageFilterConfig};
use emm_designs::quicksort::{QuickSort, QuickSortConfig};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["table1_proof", "filter_bank", "explicit_bank"];

/// Input size: the benchmark's own sizes, or cut-down ones for tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small designs of the same shape, for the benchmark-local tests.
    Small,
}

/// The answer a job must give.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    /// A bounded proof at exactly this diameter (`proof@D`).
    Proof(usize),
    /// A counterexample at exactly this bound index (`cex@k`, where `k` is
    /// the trace length minus one).
    Cex(usize),
    /// A k-induction closure at exactly this induction depth (`proved@k`).
    Proved(usize),
}

impl Expect {
    /// Whether `verdict` is the expected answer.
    pub fn accepts(&self, verdict: &BmcVerdict) -> bool {
        match (*self, verdict) {
            (Expect::Proof(d), BmcVerdict::Proof { depth, .. }) => d == *depth,
            (Expect::Cex(k), BmcVerdict::Counterexample(t)) => t.depth() == k + 1,
            (Expect::Proved(k), BmcVerdict::Proved { k: got }) => k == *got,
            _ => false,
        }
    }
}

/// A verdict by name: `proof@D`, `proved@k`, `cex@k` (bound index, i.e.
/// trace length minus one), `bound` or `unknown`.
pub fn verdict_name(verdict: &BmcVerdict) -> String {
    match verdict {
        BmcVerdict::Proof { depth, .. } => format!("proof@{depth}"),
        BmcVerdict::Proved { k } => format!("proved@{k}"),
        BmcVerdict::Counterexample(t) => format!("cex@{}", t.depth().saturating_sub(1)),
        BmcVerdict::BoundReached => "bound".to_string(),
        BmcVerdict::Unknown { .. } => "unknown".to_string(),
    }
}

/// One verification job of a workload.
#[derive(Clone, Copy, Debug)]
pub struct JobSpec {
    /// Index into [`Prepared::sources`].
    pub model: usize,
    /// Property index within that model.
    pub property: usize,
    /// Bounded BMC or k-induction.
    pub engine: ProofEngine,
    /// Whether the bounded engine runs its termination (proof) checks.
    pub proofs: bool,
    /// Depth bound of the check (`max_k` for k-induction).
    pub max_depth: usize,
    /// The known answer.
    pub expect: Expect,
}

impl JobSpec {
    /// The job's options: the defaults plus only `proofs` and
    /// `proof_engine`, so the measured configuration is the one users get.
    pub fn options(&self) -> VerifyOptions {
        VerifyOptions::default()
            .proofs(self.proofs)
            .proof_engine(self.engine)
    }
}

/// A workload's inputs before loading: the model sources the program
/// receives and the jobs, in submission order.
#[derive(Debug)]
pub struct Prepared {
    /// One source per distinct design.
    pub sources: Vec<ModelSource>,
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
}

/// SplitMix64: a tiny deterministic generator for the seeded job order.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Fisher–Yates shuffle driven by `seed`.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The bound index at which reachable filter property `v` first fails:
/// the property asks for `seen == depth(v)` (one pixel per cycle) with a
/// two-bit output pattern any pixel stream can produce, so its shortest
/// witness is exactly `depth(v)` cycles deep.
fn filter_witness_depth(config: &ImageFilterConfig, v: usize) -> usize {
    3 + (v * config.max_witness_depth.saturating_sub(3)) / config.reachable_properties.max(1)
}

/// The induction depth that closes unreachable filter property `v`: the
/// phase controller claims are 1-inductive, and the structurally false
/// decode conflict (`v % 4 == 2`) closes at depth 0.
fn filter_proof_depth(v: usize) -> usize {
    usize::from(v % 4 != 2)
}

/// Induction bound of the unreachable filter properties.
const FILTER_MAX_K: usize = 24;

fn filter_config(scale: Scale, explicit: bool) -> ImageFilterConfig {
    match (scale, explicit) {
        (Scale::Full, false) => ImageFilterConfig::paper(),
        // The explicit twin at `aw=6`: one batch takes about 6 s on two
        // cores, so a run holds several and its medians hold steady; at
        // `aw=7` one batch took 17 s, most of it the serial fraig.
        (Scale::Full, true) => ImageFilterConfig {
            line_length: 64,
            addr_width: 6,
            data_width: 8,
            ..ImageFilterConfig::paper()
        },
        (Scale::Small, _) => ImageFilterConfig::small(),
    }
}

/// The filter's jobs: each chosen reachable property on the bounded engine
/// and every unreachable one on k-induction.
fn filter_jobs(filter: &ImageFilter, reachable: impl Iterator<Item = usize>) -> Vec<JobSpec> {
    let config = &filter.config;
    let mut jobs: Vec<JobSpec> = reachable
        .map(|v| JobSpec {
            model: 0,
            property: filter.reachable[v],
            engine: ProofEngine::Bounded,
            proofs: false,
            max_depth: config.max_witness_depth + 4,
            expect: Expect::Cex(filter_witness_depth(config, v)),
        })
        .collect();
    jobs.extend(
        filter
            .unreachable
            .iter()
            .enumerate()
            .map(|(v, &p)| JobSpec {
                model: 0,
                property: p,
                engine: ProofEngine::KInduction,
                proofs: false,
                max_depth: FILTER_MAX_K,
                expect: Expect::Proved(filter_proof_depth(v)),
            }),
    );
    jobs
}

/// Builds a workload's inputs from `seed`: design generation, and for
/// `explicit_bank` also the explicit model and its binary AIGER bytes.
///
/// # Errors
///
/// An unknown workload name, or an explicit model AIGER cannot write.
pub fn prepare(workload: &str, seed: u64, scale: Scale) -> Result<Prepared, String> {
    match workload {
        "table1_proof" => {
            // Seed-independent: the paper's Table 1 rows, n=4 first.
            let (sizes, expect): ([usize; 2], [usize; 2]) = match scale {
                Scale::Full => ([4, 3], [46, 30]),
                Scale::Small => ([3, 2], [30, 17]),
            };
            let mut sources = Vec::new();
            let mut jobs = Vec::new();
            for (model, (&n, &diameter)) in sizes.iter().zip(&expect).enumerate() {
                let config = match scale {
                    Scale::Full => QuickSortConfig {
                        n,
                        addr_width: 6,
                        data_width: 4,
                        bug: Default::default(),
                    },
                    Scale::Small => QuickSortConfig::small(n),
                };
                let qs = QuickSort::new(config);
                for prop in [qs.p1.0 as usize, qs.p2.0 as usize] {
                    jobs.push(JobSpec {
                        model,
                        property: prop,
                        engine: ProofEngine::Bounded,
                        proofs: true,
                        max_depth: qs.cycle_bound(),
                        expect: Expect::Proof(diameter),
                    });
                }
                sources.push(ModelSource::Design(Arc::new(qs.design)));
            }
            Ok(Prepared { sources, jobs })
        }
        "filter_bank" => {
            let filter = ImageFilter::new(filter_config(scale, false));
            let mut jobs = filter_jobs(&filter, 0..filter.reachable.len());
            shuffle(&mut jobs, seed);
            Ok(Prepared {
                sources: vec![ModelSource::Design(Arc::new(filter.design))],
                jobs,
            })
        }
        "explicit_bank" => {
            let filter = ImageFilter::new(filter_config(scale, true));
            let (explicit, _) = explicit_model(&filter.design);
            let bytes = write_aiger_binary(&explicit).map_err(|e| e.to_string())?;
            // Every 5th reachable property, the same set and order for
            // every seed, like `table1_proof`: job times climb steeply with
            // witness depth around the median job, so a seed-chosen subset
            // moved `job_p50_s` by about 20% from seed to seed.
            let jobs = filter_jobs(&filter, (0..filter.reachable.len()).step_by(5));
            Ok(Prepared {
                sources: vec![ModelSource::AigerBytes(bytes)],
                jobs,
            })
        }
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Loads every model source through [`ModelSource::load`].
///
/// # Errors
///
/// A source that fails to parse.
pub fn load(sources: &[ModelSource]) -> Result<Vec<Arc<Design>>, String> {
    sources
        .iter()
        .map(|s| s.load().map_err(|e| e.to_string()))
        .collect()
}

/// The full set-up of one batch: [`prepare`], [`load`], then a server on
/// `workers` threads with every job submitted.
///
/// # Errors
///
/// As [`prepare`] and [`load`].
pub fn set_up(
    workload: &str,
    seed: u64,
    scale: Scale,
    workers: usize,
) -> Result<(VerificationServer, Vec<JobSpec>), String> {
    let prepared = prepare(workload, seed, scale)?;
    let designs = load(&prepared.sources)?;
    let mut server = VerificationServer::new(workers);
    for job in &prepared.jobs {
        server.submit(VerifyRequest {
            design: Arc::clone(&designs[job.model]),
            property: job.property,
            budget: VerifyBudget {
                max_depth: job.max_depth,
                ..VerifyBudget::default()
            },
            options: job.options(),
        });
    }
    Ok((server, prepared.jobs))
}

/// What one untimed server batch gave.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Seconds from `run()` to the last response.
    pub wall_s: f64,
    /// Process user+sys CPU seconds over the same interval.
    pub cpu_s: f64,
    /// `VerifyResponse::elapsed_seconds` of every job.
    pub job_seconds: Vec<f64>,
    /// Peak resident set size of the process during the batch, in MiB.
    pub peak_rss_mib: f64,
    /// Jobs that errored, ended `Unknown`, or gave a wrong verdict.
    pub failed: usize,
    /// Every verdict by name, in submission order.
    pub verdicts: Vec<String>,
}

/// Runs a set-up batch and checks every verdict.
pub fn run_batch(mut server: VerificationServer, jobs: &[JobSpec]) -> BatchOutcome {
    reset_peak_rss();
    let cpu_before = process_cpu_seconds();
    let started = Instant::now();
    let responses = server.run();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds() - cpu_before;
    let peak_rss_mib = peak_rss_mib();
    let mut failed = jobs.len().abs_diff(responses.len());
    for (response, job) in responses.iter().zip(jobs) {
        if response.error.is_some() || !job.expect.accepts(&response.verdict) {
            failed += 1;
        }
    }
    BatchOutcome {
        wall_s,
        cpu_s,
        job_seconds: responses.iter().map(|r| r.elapsed_seconds).collect(),
        peak_rss_mib,
        failed,
        verdicts: responses.iter().map(|r| verdict_name(&r.verdict)).collect(),
    }
}

/// Deterministic work counters of a traced replay: two replays of one
/// seed must give identical values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// AND gates entering fraig (after rewriting), summed over models.
    pub ands_before: u64,
    /// AND gates after fraig, summed over models.
    pub ands_after: u64,
    /// Fraig SAT equivalence checks.
    pub fraig_sat_checks: u64,
    /// Fraig proved merges.
    pub fraig_merges: u64,
    /// k-induction step queries.
    pub kind_step_queries: u64,
    /// EMM constraint clauses.
    pub emm_clauses: u64,
    /// EMM auxiliary variables.
    pub emm_aux_vars: u64,
    /// EMM address-comparator cache hits.
    pub emm_cmp_cache_hits: u64,
    /// Propagations of the anchored (base) solvers.
    pub propagations: u64,
    /// Decisions of the anchored solvers.
    pub decisions: u64,
    /// Conflicts of the anchored solvers.
    pub conflicts: u64,
    /// Propagations of the k-induction step solvers.
    pub step_propagations: u64,
    /// Inprocessing rounds of the anchored solvers.
    pub inprocess_rounds: u64,
    /// Clauses strengthened by vivification.
    pub vivified_clauses: u64,
    /// Failed literals found by probing.
    pub failed_literals: u64,
    /// Variables of the anchored solvers.
    pub vars: u64,
    /// Problem clauses added to the anchored solvers.
    pub clauses: u64,
    /// Gates the simplifying sink emitted as clauses.
    pub simplify_gates_emitted: u64,
    /// Clauses the simplifying sink dropped.
    pub simplify_clauses_dropped: u64,
}

/// Seconds spent in each layer during a traced replay, measured around
/// the public calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerSeconds {
    /// Timed `ModelSource::load`.
    pub parse: f64,
    /// Timed `ReducedModel::reduce`.
    pub reduce: f64,
    /// Rewrite share of the reduction (`ReducedModel::seconds`).
    pub rewrite: f64,
    /// Fraig share of the reduction (`ReducedModel::seconds`).
    pub fraig: f64,
    /// Σ engine constructor calls.
    pub engine_new: f64,
    /// Σ `check` calls.
    pub check: f64,
    /// Σ `phase_seconds.encode`.
    pub encode: f64,
    /// Σ `phase_seconds.solve`.
    pub solve: f64,
    /// Σ `phase_seconds.inprocess`.
    pub inprocess: f64,
}

/// A traced sequential replay of a workload.
#[derive(Clone, Debug)]
pub struct Traced {
    /// Layer times.
    pub seconds: LayerSeconds,
    /// Deterministic work counters.
    pub counters: Counters,
    /// Jobs that errored or gave a wrong verdict.
    pub failed: usize,
    /// Every verdict by name, in submission order.
    pub verdicts: Vec<String>,
}

/// Replays `prepared`'s jobs one after another through the public
/// per-layer calls, with the same options, budgets and model sharing the
/// server uses: `ModelSource::load`, one `ReducedModel::reduce` per model,
/// then per job `BmcEngine::with_model` or `KInduction::with_model` and
/// `check`, reading the public `*Stats` counters after each job.
///
/// # Errors
///
/// A source that fails to parse.
pub fn trace(prepared: &Prepared) -> Result<Traced, String> {
    let mut s = LayerSeconds::default();
    let mut c = Counters::default();
    let started = Instant::now();
    let designs = load(&prepared.sources)?;
    s.parse = started.elapsed().as_secs_f64();

    // Every job of one workload shares one preprocessing configuration
    // (the defaults), so the server reduces each model exactly once.
    let defaults = VerifyOptions::default();
    let mut reduced = Vec::with_capacity(designs.len());
    for design in &designs {
        let started = Instant::now();
        let model = ReducedModel::reduce(
            design,
            &defaults.pipeline.rewrite,
            &defaults.pipeline.fraig,
            &defaults.pipeline.governor,
            defaults.workers,
        );
        s.reduce += started.elapsed().as_secs_f64();
        let (rewrite, fraig) = model.seconds();
        s.rewrite += rewrite;
        s.fraig += fraig;
        if let Some(f) = model.fraig_stats() {
            c.ands_before += f.ands_before as u64;
            c.ands_after += f.ands_after as u64;
            c.fraig_sat_checks += f.sat_checks;
            c.fraig_merges += f.merges;
        }
        reduced.push(model);
    }

    let mut failed = 0;
    let mut verdicts = Vec::with_capacity(prepared.jobs.len());
    for job in &prepared.jobs {
        let model = &reduced[job.model];
        // The server's per-job options: a forked governor, the budget's
        // (unlimited) solve budget and (absent) wall limit.
        let options = job.options().governor(defaults.pipeline.governor.fork());
        let started = Instant::now();
        let checked = match job.engine {
            ProofEngine::Bounded => {
                let mut engine = BmcEngine::with_model(model, options);
                s.engine_new += started.elapsed().as_secs_f64();
                let started = Instant::now();
                let checked = engine.check(job.property, job.max_depth);
                s.check += started.elapsed().as_secs_f64();
                add_engine_counters(&mut c, &engine);
                checked
            }
            ProofEngine::KInduction => {
                let mut engine = KInduction::with_model(model, options);
                s.engine_new += started.elapsed().as_secs_f64();
                let started = Instant::now();
                let checked = engine.check(job.property, job.max_depth);
                s.check += started.elapsed().as_secs_f64();
                add_engine_counters(&mut c, engine.base());
                c.kind_step_queries += engine.step_queries();
                c.step_propagations += engine.step_solver_stats().1.propagations;
                checked
            }
        };
        match checked {
            Ok(run) => {
                add_phase_seconds(&mut s, &run);
                if !job.expect.accepts(&run.verdict) {
                    failed += 1;
                }
                verdicts.push(verdict_name(&run.verdict));
            }
            Err(e) => {
                failed += 1;
                verdicts.push(format!("error: {e}"));
            }
        }
    }
    Ok(Traced {
        seconds: s,
        counters: c,
        failed,
        verdicts,
    })
}

fn add_phase_seconds(s: &mut LayerSeconds, run: &BmcRun) {
    s.encode += run.phase_seconds.encode;
    s.solve += run.phase_seconds.solve;
    s.inprocess += run.phase_seconds.inprocess;
}

fn add_engine_counters(c: &mut Counters, engine: &BmcEngine<'_>) {
    let emm = engine.emm_stats();
    c.emm_clauses += emm.clauses as u64;
    c.emm_aux_vars += emm.aux_vars as u64;
    c.emm_cmp_cache_hits += emm.cmp_cache_hits as u64;
    let (vars, sat) = engine.solver_stats();
    c.vars += vars as u64;
    c.clauses += sat.original_clauses;
    c.propagations += sat.propagations;
    c.decisions += sat.decisions;
    c.conflicts += sat.conflicts;
    c.inprocess_rounds += sat.inprocess_rounds;
    c.vivified_clauses += sat.vivified_clauses;
    c.failed_literals += sat.failed_literals;
    if let Some(simp) = engine.simplify_stats() {
        c.simplify_gates_emitted += simp.gates_emitted;
        c.simplify_clauses_dropped += simp.clauses_dropped;
    }
}

/// User+sys CPU seconds of this process so far, from `/proc/self/stat`
/// (in clock ticks of the fixed 100 Hz `USER_HZ` the `/proc` ABI uses).
/// Threads that already exited are included. Returns 0 where `/proc` is
/// unreadable.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Resets the process's peak resident set size to its current one, so the
/// next [`peak_rss_mib`] covers only what ran since; does nothing where
/// `/proc/self/clear_refs` is not writable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM` in
/// `/proc/self/status`) since it started or since [`reset_peak_rss`]; 0
/// where `/proc` is unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by nearest rank; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle two for even counts); 0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
