//! One benchmark run: set the workload up, repeat it for the time budget,
//! check its outputs, and fold the repeats into named metrics.
//!
//! **Timing rule.** Every wall metric is the median over the timed repeats
//! that fit in `--seconds` (at least [`MIN_REPEATS`], and one per input
//! variant) after one untimed warm-up repeat. `setup_s` is the median over
//! the set-up of the system the repeats run on and one more cold set-up after
//! every timed repeat, so that it samples the same stretch of wall time as
//! the repeats do: the reference box changes speed by a quarter for tens of
//! seconds at a time, and set-ups timed in one burst would all land in one
//! such phase.
//! End-to-end numbers always come from the untraced pass (`--trace 0`); the
//! traced pass (`--trace 1`) reports the per-layer table and nothing else.

use std::time::{Duration, Instant};

use cod_json::Json;
use sim_math::hash::Fnv1a;

use crate::layers;
use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use crate::workloads::{self, Repeat, Size, Workload};

/// Timed repeats a run makes even when the time budget is already spent.
pub const MIN_REPEATS: usize = 5;
/// Schema tag of the result documents `--out` writes and `--compare` reads.
pub const SCHEMA: &str = "cod-benchmark/1";

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Time budget of the measured phase, in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) pass.
    pub trace: bool,
    /// Workload sizes.
    pub size: Size,
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The options the run was made with.
    pub options: Options,
    /// Worker threads fleets ran with: `min(nproc, 4)`.
    pub threads: usize,
    /// Every correctness check that failed; empty for a correct run.
    pub problems: Vec<String>,
    /// Operations attempted over the timed repeats.
    pub attempted: u64,
    /// Operations failed over the timed repeats.
    pub failed: u64,
    /// Fingerprint of the simulated results of every input variant.
    pub fingerprint: u64,
    /// Wall-clock of every timed repeat, in seconds, in the order made.
    pub repeat_walls: Vec<f64>,
    /// The measured metrics of this pass's table.
    pub values: Values,
    /// Quartile spread over the median of each wall metric's repeats.
    pub iqr_shares: Vec<(&'static str, f64)>,
}

/// Worker threads for the fleet workloads on this machine.
pub fn fleet_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(4)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn build(options: &Options, threads: usize, rotate: bool) -> Result<Box<dyn Workload>, String> {
    workloads::build(&options.workload, options.seed, options.size, threads, rotate).ok_or_else(
        || {
            let known = workloads::NAMES.join(", ");
            format!("unknown workload {:?}; known: {known}", options.workload)
        },
    )
}

/// Builds the workload and times its cold set-up number `round`.
fn timed_set_up(
    options: &Options,
    threads: usize,
    rotate: bool,
    round: usize,
) -> Result<(Box<dyn Workload>, f64), String> {
    let mut workload = build(options, threads, rotate)?;
    let started = Instant::now();
    workload.set_up(round)?;
    Ok((workload, started.elapsed().as_secs_f64()))
}

/// Repeats `workload` until `budget` is spent and at least `min` repeats ran,
/// calling `between` after every repeat.
fn timed_repeats(
    workload: &mut dyn Workload,
    budget: Duration,
    min: usize,
    mut between: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<Repeat>, String> {
    let started = Instant::now();
    let mut repeats = Vec::new();
    while repeats.len() < min || started.elapsed() < budget {
        repeats.push(workload.repeat()?);
        between(repeats.len())?;
    }
    Ok(repeats)
}

/// Folds repeats into the parts of a [`RunResult`] both passes share. The
/// first repeat of each input variant is that variant's reference: every
/// later repeat of it must reproduce its fingerprint.
fn fold(options: &Options, threads: usize, warm_up: &Repeat, repeats: &[Repeat]) -> RunResult {
    let mut problems = Vec::new();
    let mut references: Vec<&Repeat> = Vec::new();
    for repeat in std::iter::once(warm_up).chain(repeats) {
        match references.iter().find(|r| r.variant == repeat.variant) {
            Some(reference) if reference.fingerprint != repeat.fingerprint => {
                problems.push(format!("two drains of input variant {} differ", repeat.variant))
            }
            Some(_) => {}
            None => references.push(repeat),
        }
    }
    references.sort_by_key(|r| r.variant);
    let mut fingerprint = Fnv1a::new();
    for reference in &references {
        fingerprint.write_u64(reference.fingerprint);
    }
    let failed: u64 = repeats.iter().map(|r| r.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} operations failed"));
    }
    let modeled: f64 = references.iter().map(|r| r.modeled_frames_per_sec).sum();
    let mut values = Values::default();
    values.set("modeled_frames_per_sec", modeled / references.len() as f64);
    RunResult {
        options: options.clone(),
        threads,
        problems,
        attempted: repeats.iter().map(|r| r.attempted).sum(),
        failed,
        fingerprint: fingerprint.finish(),
        repeat_walls: per_repeat(repeats, |r| r.wall.as_secs_f64()),
        values,
        iqr_shares: Vec::new(),
    }
}

fn per_repeat(repeats: &[Repeat], value: impl Fn(&Repeat) -> f64) -> Vec<f64> {
    repeats.iter().map(value).collect()
}

/// The untraced pass: every end-to-end metric.
fn run_end_to_end(options: &Options, threads: usize) -> Result<RunResult, String> {
    let (mut workload, first_set_up) = timed_set_up(options, threads, true, 0)?;
    let mut set_up_s = vec![first_set_up];
    let warm_up = workload.repeat()?;
    // The warm-up ran variant 0; the timed repeats must reach every other.
    let min = if options.size == Size::Smoke { 2 } else { MIN_REPEATS }.max(workload.variants());
    let budget = Duration::from_secs_f64(options.seconds);
    let repeats = timed_repeats(workload.as_mut(), budget, min, |round| {
        set_up_s.push(timed_set_up(options, threads, true, round)?.1);
        Ok(())
    })?;
    let peak_rss = peak_rss_mb()?;

    let mut result = fold(options, threads, &warm_up, &repeats);
    if let Err(problem) = workload.verify() {
        result.problems.push(problem);
    }
    let wall_metrics: [(&'static str, Vec<f64>); 3] = [
        ("frames_per_wall_sec", per_repeat(&repeats, |r| r.frames as f64 / r.wall.as_secs_f64())),
        (
            "sessions_per_wall_sec",
            per_repeat(&repeats, |r| r.sessions as f64 / r.wall.as_secs_f64()),
        ),
        ("drain_wall_s", per_repeat(&repeats, |r| r.wall.as_secs_f64())),
    ];
    for (name, samples) in &wall_metrics {
        result.values.set(name, median(samples));
        result.iqr_shares.push((name, iqr_share(samples)));
    }
    result.values.set("setup_s", median(&set_up_s));
    result.iqr_shares.push(("setup_s", iqr_share(&set_up_s)));
    result.values.set("peak_rss_mb", peak_rss);
    Ok(result)
}

/// The traced pass: every per-layer metric.
fn run_traced(options: &Options, threads: usize) -> Result<RunResult, String> {
    let budget = Duration::from_secs_f64(options.seconds);
    let mut workload = build(options, threads, false)?;
    workload.set_up(0)?;
    let warm_up = workload.repeat()?;
    let repeats = timed_repeats(workload.as_mut(), budget.mul_f64(0.15), 3, |_| Ok(()))?;
    let mut result = fold(options, threads, &warm_up, &repeats);
    let rate = per_repeat(&repeats, |r| r.frames as f64 / r.wall.as_secs_f64());
    result.values.extend(workload.layer_counts());
    result.values.set("bench.repeat_iqr_pct", iqr_share(&rate) * 100.0);
    result.values.set("bench.repeats", repeats.len() as f64);
    result.values.set("bench.threads", threads as f64);

    let samples = workload.sample_sessions();
    let mut frame_us = 0.0;
    match layers::frame_waterfall(&samples, budget.mul_f64(0.25)) {
        Ok(values) => {
            frame_us = values
                .iter()
                .find(|(name, _)| *name == "crane-sim.frame_wall_us_p50")
                .map_or(0.0, |(_, value)| *value);
            result.values.extend(values);
        }
        // A waterfall that did not replay the untraced digests is discarded.
        Err(problem) => result.problems.push(problem),
    }
    let (shard, fleet) = (workload.shard_config(), workload.fleet_config());
    result.values.extend(layers::probes(&samples, shard, fleet)?);
    match (fleet, shard) {
        (Some(fleet), _) => match layers::drain_waterfall(fleet, frame_us, budget.mul_f64(0.4)) {
            Ok(values) => result.values.extend(values),
            Err(problem) => result.problems.push(problem),
        },
        (None, Some(shard)) => result.values.extend(layers::cohort_counts(&samples, shard)?),
        (None, None) => {}
    }
    Ok(result)
}

/// Runs one pass of one workload.
///
/// # Errors
///
/// Returns an error when the run could not be made at all: an unknown
/// workload, or a call into the simulator that returned an error. Failed
/// correctness checks are not errors; they make the result incorrect.
pub fn run(options: &Options) -> Result<RunResult, String> {
    let threads = fleet_threads();
    if options.trace {
        run_traced(options, threads)
    } else {
        run_end_to_end(options, threads)
    }
}

impl RunResult {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn table(&self) -> &'static [MetricDef] {
        if self.options.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_result_line(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), self.values.to_json(self.table())),
        ])
    }

    /// The result document `--out` writes: the result line's content plus
    /// what `--compare` needs (seed, threads, fingerprint, repeat spreads).
    pub fn to_document(&self) -> Json {
        let spreads = self
            .iqr_shares
            .iter()
            .map(|(name, share)| ((*name).to_owned(), Json::Num(*share)))
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.options.workload.clone())),
            // Seeds and fingerprints are u64: hex strings survive JSON's f64.
            ("seed".into(), Json::Str(format!("{:#x}", self.options.seed))),
            ("seconds".into(), Json::Num(self.options.seconds)),
            ("trace".into(), Json::Bool(self.options.trace)),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("correct".into(), Json::Bool(self.correct())),
            ("problems".into(), Json::Arr(self.problems.iter().cloned().map(Json::Str).collect())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("sim_fingerprint".into(), Json::Str(format!("{:016x}", self.fingerprint))),
            (
                "repeat_wall_s".into(),
                Json::Arr(self.repeat_walls.iter().copied().map(Json::Num).collect()),
            ),
            ("metrics".into(), self.values.to_json(self.table())),
            ("iqr_share".into(), Json::Obj(spreads)),
        ])
    }
}

/// Wraps run documents into the file `--out` writes and `--compare` reads.
pub fn suite_document(runs: Vec<Json>) -> Json {
    Json::Obj(vec![("schema".into(), Json::Str(SCHEMA.into())), ("runs".into(), Json::Arr(runs))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::is_valid_unit;

    fn smoke(workload: &str, trace: bool) -> RunResult {
        let options = Options {
            workload: workload.to_owned(),
            seed: 0xC0D,
            seconds: 0.0,
            trace,
            size: Size::Smoke,
        };
        run(&options).unwrap_or_else(|e| panic!("{workload} smoke run failed: {e}"))
    }

    #[test]
    fn smoke_size_runs_all_four_workloads_correctly_within_five_seconds() {
        let started = Instant::now();
        let results: Vec<RunResult> = workloads::NAMES.iter().map(|w| smoke(w, false)).collect();
        let elapsed = started.elapsed();
        for (name, result) in workloads::NAMES.iter().zip(&results) {
            assert!(result.correct(), "{name}: {:?}", result.problems);
            assert_eq!(result.failed, 0, "{name}");
            assert!(result.attempted >= 1, "{name}");
            for m in END_TO_END {
                let value = result.values.get(m.name).unwrap_or(0.0);
                assert!(value > 0.0, "{name}: {} must never be 0, got {value}", m.name);
            }
            let again = smoke(name, false);
            assert_eq!(again.fingerprint, result.fingerprint, "{name}: same seed, same results");
            assert_eq!(
                again.values.get("modeled_frames_per_sec"),
                result.values.get("modeled_frames_per_sec"),
                "{name}: modeled metrics repeat exactly"
            );
        }
        assert!(elapsed < Duration::from_secs(5), "smoke took {elapsed:?}");
    }

    #[test]
    fn traced_smoke_attributes_the_whole_frame_and_matches_the_untraced_digest() {
        for name in ["rack_exam", "fleet_mixed"] {
            let result = smoke(name, true);
            assert!(result.correct(), "{name}: {:?}", result.problems);
            let get = |metric: &str| result.values.get(metric).unwrap_or(0.0);
            let lps: f64 = PER_LAYER
                .iter()
                .filter(|m| m.name.ends_with(".step_ns"))
                .map(|m| get(m.name))
                .sum();
            let frame = lps + get("cod-cb.api_ns_per_frame") + get("cod-cluster.executive_self_ns");
            let share = get("cod-cluster.executive_self_share");
            assert!(share > 0.0 && share < 1.0, "{name}: executive share {share}");
            assert!(
                (get("cod-cluster.executive_self_ns") / frame - share).abs() < 1e-9,
                "{name}: named self times must add up to the traced frame"
            );
            assert!(get("cod-cb.api_calls_per_frame") > 0.0, "{name}");
            assert!(get("cod-net.datagrams_per_frame") > 0.0, "{name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let result = smoke("shard_cohort", false);
        let line = crate::one_line(&result.to_result_line());
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("result line parses");
        let Json::Obj(members) = &parsed else { panic!("result line must be an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed, result.to_result_line());
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else { panic!("metrics object") };
        assert_eq!(metrics.len(), END_TO_END.len());
        for (name, metric) in metrics {
            assert!(metric.get("value").and_then(Json::as_f64).is_some(), "{name}");
            assert!(metric.get("unit").and_then(Json::as_str).is_some_and(is_valid_unit), "{name}");
        }
        let document = result.to_document();
        assert_eq!(Json::parse(&document.to_pretty()).expect("document parses"), document);
    }

    #[test]
    fn an_unknown_workload_is_an_error_not_a_result() {
        let options = Options {
            workload: "rack".into(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            size: Size::Smoke,
        };
        assert!(run(&options).unwrap_err().contains("unknown workload"));
    }
}
