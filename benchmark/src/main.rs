//! `cod_benchmark` — the repo's perf benchmark.
//!
//! ```text
//! cod_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <json>]
//! cod_benchmark --compare <a.json> <b.json>
//! cod_benchmark --aa [--seed <n>] [--seconds <s>] [--smoke] [--out-dir <dir>]
//! ```
//!
//! A run prints progress on standard error and, as the last line of standard
//! output, one JSON object with exactly the keys `correct`, `attempted`,
//! `failed` and `metrics`. It exits 0 when the outputs were correct, 2 when a
//! correctness check failed, and 1 (without a result line) when it could not
//! run. See `README.md` beside this crate for the workloads and metrics.

mod compare;
mod harness;
mod layers;
mod metrics;
mod rack;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use cod_json::Json;

use harness::{Options, RunResult};
use workloads::Size;

/// `json` on one line: the pretty form with its line breaks and indentation
/// removed (string contents are escaped, so they hold no raw newline).
pub fn one_line(json: &Json) -> String {
    json.to_pretty().lines().map(str::trim_start).collect()
}

/// The command line, parsed.
#[derive(Debug, Clone, PartialEq)]
enum Cli {
    Run { options: Options, out: Option<PathBuf> },
    Compare { a: PathBuf, b: PathBuf },
    AA { seed: u64, seconds: f64, size: Size, out_dir: PathBuf },
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("--seed takes an unsigned 64-bit integer, got {text:?}"))
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut size = Size::Full;
    let mut out = None;
    let mut out_dir = PathBuf::from("benchmark/results");
    let mut compare = None;
    let mut aa = false;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = parse_seed(value()?)?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--smoke" => size = Size::Smoke,
            "--out" => out = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--aa" => aa = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some((a, b)) = compare {
        return Ok(Cli::Compare { a, b });
    }
    if aa {
        return Ok(Cli::AA { seed, seconds, size, out_dir });
    }
    let workload = workload
        .ok_or_else(|| format!("--workload is required; one of {}", workloads::NAMES.join(", ")))?;
    Ok(Cli::Run { options: Options { workload, seed, seconds, trace, size }, out })
}

fn read_document(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_document(path: &Path, document: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, document.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn report(result: &RunResult) {
    let options = &result.options;
    eprintln!(
        "{} seed {:#x} trace {} threads {} repeats {} sim_fingerprint {:016x} ops_attempted {} \
         ops_failed {}",
        options.workload,
        options.seed,
        u8::from(options.trace),
        result.threads,
        result.repeat_walls.len(),
        result.fingerprint,
        result.attempted,
        result.failed
    );
    for problem in &result.problems {
        eprintln!("INCORRECT: {problem}");
    }
}

fn run(options: &Options, out: Option<&Path>) -> Result<ExitCode, String> {
    let result = harness::run(options)?;
    report(&result);
    if let Some(path) = out {
        write_document(path, &harness::suite_document(vec![result.to_document()]))?;
    }
    println!("{}", one_line(&result.to_result_line()));
    Ok(if result.correct() { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

fn print_comparison(a: &Json, b: &Json) -> Result<ExitCode, String> {
    let rows = compare::compare(a, b)?;
    print!("{}", compare::render(&rows));
    let failures = rows.iter().filter(|r| r.verdict.fails()).count();
    let unresolved = rows.iter().filter(|r| r.verdict == compare::Verdict::Unresolved).count();
    println!("\n{} rows, {failures} failing, {unresolved} unresolved", rows.len());
    Ok(if failures == 0 { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

/// Runs every workload twice, one process per run, and compares the two sets.
fn run_aa(seed: u64, seconds: f64, size: Size, out_dir: &Path) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut sides = Vec::new();
    for side in ["a", "b"] {
        let mut runs = Vec::new();
        for workload in workloads::NAMES {
            let out = out_dir.join(format!("aa-{side}-{workload}.json"));
            let mut child = Command::new(&exe);
            child.args(["--workload", workload, "--seed", &seed.to_string()]);
            child.args(["--seconds", &seconds.to_string(), "--trace", "0", "--out"]).arg(&out);
            if size == Size::Smoke {
                child.arg("--smoke");
            }
            // `output` waits for the child; its result line is not ours to print.
            let done = child.stderr(std::process::Stdio::inherit()).output();
            let done = done.map_err(|e| format!("{}: {e}", exe.display()))?;
            if !done.status.success() {
                return Err(format!("{workload} (side {side}) exited with {}", done.status));
            }
            let document = read_document(&out)?;
            runs.extend(document.get("runs").and_then(Json::as_arr).unwrap_or(&[]).iter().cloned());
        }
        let suite = harness::suite_document(runs);
        write_document(&out_dir.join(format!("aa-{side}.json")), &suite)?;
        sides.push(suite);
    }
    print_comparison(&sides[0], &sides[1])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| match cli {
        Cli::Run { options, out } => run(&options, out.as_deref()),
        Cli::Compare { a, b } => print_comparison(&read_document(&a)?, &read_document(&b)?),
        Cli::AA { seed, seconds, size, out_dir } => run_aa(seed, seconds, size, &out_dir),
    });
    outcome.unwrap_or_else(|problem| {
        eprintln!("cod_benchmark: {problem}");
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed =
            cli(&["--workload", "fleet_churn", "--seed", "42", "--seconds", "10", "--trace", "1"]);
        let expected = Options {
            workload: "fleet_churn".into(),
            seed: 42,
            seconds: 10.0,
            trace: true,
            size: Size::Full,
        };
        assert_eq!(parsed, Ok(Cli::Run { options: expected, out: None }));
        assert_eq!(parse_seed("0xC0D"), Ok(0xC0D));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        assert!(cli(&[]).unwrap_err().contains("--workload is required"));
        assert!(cli(&["--workload"]).unwrap_err().contains("takes a value"));
        assert!(cli(&["--workload", "rack_exam", "--trace", "yes"]).is_err());
        assert!(cli(&["--workload", "rack_exam", "--seed", "-1"]).is_err());
        assert!(cli(&["--workload", "rack_exam", "--seconds", "-3"]).is_err());
        assert!(cli(&["--workload", "rack_exam", "--seconds", "NaN"]).is_err());
        assert!(cli(&["--frobnicate"]).unwrap_err().contains("unknown argument"));
    }

    #[test]
    fn one_line_is_compact_and_lossless() {
        let json = Json::Obj(vec![
            ("text".into(), Json::Str("two\nlines  kept".into())),
            ("nested".into(), Json::Arr(vec![Json::Num(1.5), Json::Obj(Vec::new())])),
        ]);
        let line = one_line(&json);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line), Ok(json));
    }
}
