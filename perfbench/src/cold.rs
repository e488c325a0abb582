//! `cli-cold`: one-shot `tdv snapshot save` processes on a generated
//! 2000-type schema, one at a time.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::inputs;
use crate::util::{self, Metrics};
use crate::Outcome;

/// One cold process: wall time from spawn to reaped exit, plus its
/// rusage and standard output.
pub struct ColdOp {
    pub wall: Duration,
    pub cost: util::ChildCost,
    pub stdout: String,
}

fn run_tdv(tdv: &Path, args: &[&Path]) -> Result<ColdOp, String> {
    let started = Instant::now();
    let mut child = Command::new(tdv)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn tdv: {e}"))?;
    let mut stdout = String::new();
    if let Some(mut out) = child.stdout.take() {
        use std::io::Read as _;
        let _ = out.read_to_string(&mut stdout);
    }
    let cost = util::wait_with_rusage(&mut child)?;
    Ok(ColdOp {
        wall: started.elapsed(),
        cost,
        stdout,
    })
}

/// Checks one `snapshot save` op: clean exit, the reported counts, and
/// a snapshot that loads back with the source's type and method counts.
fn check_save(op: &ColdOp, out: &Path, expect: (usize, usize)) -> bool {
    let counts = format!("{} types, {} methods", expect.0, expect.1);
    if !op.cost.exit_ok || !op.stdout.contains(&counts) {
        return false;
    }
    let loaded = std::fs::read(out)
        .ok()
        .and_then(|bytes| td_model::load_snapshot(&bytes).ok());
    let _ = std::fs::remove_file(out);
    loaded.is_some_and(|(s, _)| (s.n_types(), s.n_methods()) == expect)
}

/// One cold `tdv snapshot save` process and whether its output checks.
pub fn save_op(
    tdv: &Path,
    src: &Path,
    out: &Path,
    expect: (usize, usize),
) -> Result<(ColdOp, bool), String> {
    let op = run_tdv(tdv, &[Path::new("snapshot"), Path::new("save"), src, out])?;
    let ok = check_save(&op, out, expect);
    Ok((op, ok))
}

pub fn run(
    tdv: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let text = inputs::cold_schema_text(seed);
    let src = work.join("wide.td");
    let out = work.join("wide.tds");
    std::fs::write(&src, &text).map_err(|e| format!("cannot write {}: {e}", src.display()))?;
    let source = td_model::parse_schema(&text).map_err(|e| e.to_string())?;
    let expect = (source.n_types(), source.n_methods());
    drop(source);
    if traced {
        return crate::layers::cold_traced(tdv, work, seed, &src, &out, expect, seconds);
    }

    // The set-up of a one-shot command (spawn, read, parse, validate),
    // measured as `tdv check` before every save: CPU speed on a small VM
    // shifts within seconds, so samples spread over the run agree better
    // between runs than a burst at its start.
    let window = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut setups = Vec::new();
    let mut setup_ok = true;
    let mut ops = Vec::new();
    while t0.elapsed() < window {
        let check = run_tdv(tdv, &[Path::new("check"), &src])?;
        setup_ok &= check.cost.exit_ok && check.stdout.starts_with("schema OK");
        setups.push(check.wall.as_secs_f64());
        ops.push(save_op(tdv, &src, &out, expect)?);
    }
    let failed = ops.iter().filter(|(_, ok)| !ok).count();
    let lat: Vec<f64> = ops
        .iter()
        .map(|(op, ok)| {
            if *ok {
                util::ms(op.wall)
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let cpu: Vec<f64> = ops.iter().map(|(op, _)| util::ms(op.cost.cpu)).collect();
    let peak_kib = ops
        .iter()
        .map(|(op, _)| op.cost.max_rss_kib)
        .max()
        .unwrap_or(0);
    let total: f64 = ops.iter().map(|(op, _)| op.wall.as_secs_f64()).sum();
    let mut m = Metrics::default();
    let p50 = util::median(&lat);
    m.set("latency_p50_ms", p50, "ms");
    // Too few ops for any percentile above the median to have ten
    // samples beyond it: the tail is the median.
    m.set("latency_tail_ms", p50, "ms");
    m.set("throughput_rps", ops.len() as f64 / total, "1/s");
    m.set("cpu_ms_per_op", util::median(&cpu), "ms");
    m.set("peak_rss_mb", peak_kib as f64 / 1024.0, "MiB");
    m.set("setup_s", util::median(&setups), "s");
    eprintln!(
        "perfbench: cli-cold: {} ops, {failed} failed; set-up median {:.4} s",
        ops.len(),
        util::median(&setups)
    );
    Ok(Outcome {
        correct: failed == 0 && setup_ok,
        attempted: ops.len(),
        failed,
        metrics: m,
    })
}
