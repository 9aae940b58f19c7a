//! End-to-end benchmark of `fgac-server` over the paper's university
//! scenario, with a layer-by-layer traced replay.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <warm_reads|cold_admission|write_mix|policy_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --self-test
//! ```
//!
//! `--trace 0` sets the workload up several times (median `setup_s`),
//! drives it through an in-process server over loopback for the timed
//! window, checks every answer, and reports the end-to-end metrics.
//! `--trace 1` sets it up once and reports the per-layer metrics of a
//! traced in-process replay (see `trace.rs`), writing the spans under
//! `.bench_work/traces/`. The last line of standard output is a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.
//!
//! Exit codes: 0 success; 2 bad arguments; 3 a request the policy must
//! reject was answered (security failure); 4 the recovered WAL state
//! differs from the live state; 1 any other error.

mod drive;
mod report;
mod stats;
mod trace;
mod workload;

use drive::{run_load, LoadResult};
use fgac_core::Engine;
use fgac_server::{Server, ServerConfig};
use report::{Metric, Report};
use stats::Samples;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{ChurnStream, Kind, Scale, Workload};

/// Set-ups per end-to-end run: at least `MIN_SETUPS`, then more until
/// `SETUP_BUDGET_S` is spent or `MAX_SETUPS` are done; `setup_s` is
/// their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 30;
const SETUP_BUDGET_S: f64 = 3.0;
/// Loopback connections: the load generator shares two cores with the
/// server, so at most two clients are ever in flight.
const CONNECTIONS: usize = 2;
/// Scratch space inside the checkout (WAL directories, span files).
const WORK_DIR: &str = ".bench_work";

/// Why a run stopped without a result.
#[derive(Debug)]
pub enum Failure {
    Usage(String),
    /// A request the policy must reject was answered.
    WrongfulAccept(String),
    /// Recovery did not reproduce the live engine state.
    Durability(String),
    Other(String),
}

impl Failure {
    fn exit_code(&self) -> i32 {
        match self {
            Failure::Usage(_) => 2,
            Failure::WrongfulAccept(_) => 3,
            Failure::Durability(_) => 4,
            Failure::Other(_) => 1,
        }
    }
}

impl From<fgac_types::Error> for Failure {
    fn from(e: fgac_types::Error) -> Failure {
        Failure::Other(e.to_string())
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Failure {
        Failure::Other(e.to_string())
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

enum Command {
    Run(Args),
    SelfTest,
}

fn parse_args(argv: &[String]) -> Result<Command, Failure> {
    let usage = |m: &str| Failure::Usage(m.to_string());
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            return Ok(Command::SelfTest);
        }
        let value = it
            .next()
            .ok_or_else(|| usage(&format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| usage(&format!("unknown workload {value}")))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| usage("--seed: integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| usage("--seconds: number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(usage("--seconds: 0 < s <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage("--trace: 0 or 1")),
                }
            }
            other => return Err(usage(&format!("unknown argument {other}"))),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or_else(|| usage("--workload is required"))?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|cmd| match cmd {
        Command::Run(args) => {
            let report = run(&args, Scale::Full)?;
            report.print();
            Ok(())
        }
        Command::SelfTest => self_test(),
    });
    if let Err(f) = outcome {
        eprintln!("e2ebench: {f:?}");
        std::process::exit(f.exit_code());
    }
}

pub fn work_dir() -> Result<PathBuf, Failure> {
    let dir = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One benchmark invocation at `scale`.
pub fn run(args: &Args, scale: Scale) -> Result<Report, Failure> {
    let work = work_dir()?;
    let mut report = if args.trace {
        trace::run_traced(args, scale, &work)?
    } else {
        run_e2e(args, scale, &work)?
    };
    report.header.insert(0, header(args, scale));
    Ok(report)
}

fn header(args: &Args, scale: Scale) -> String {
    let sizes = args.workload.sizes(scale);
    format!(
        "e2ebench workload={} seed={} seconds={} trace={} commit={} nproc={} profile={} connections={} | {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        CONNECTIONS,
        sizes.describe(),
    )
}

/// The checked-out commit when the checkout is a git work tree.
fn commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = Path::new(".git");
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&git.join(r)).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A set-up workload with its server running.
pub struct Running {
    pub fixture: workload::Fixture,
    pub server: Server,
    pub setup_s: f64,
}

/// Builds data and policy, opens the WAL, primes, and starts the server.
pub fn start(args: &Args, scale: Scale, work: &Path) -> Result<Running, Failure> {
    let t = Instant::now();
    let fixture = workload::setup(args.workload, scale, args.seed, work)?;
    let server = Server::start(fixture.engine.clone(), ServerConfig::default())?;
    Ok(Running {
        fixture,
        server,
        setup_s: t.elapsed().as_secs_f64(),
    })
}

fn run_e2e(args: &Args, scale: Scale, work: &Path) -> Result<Report, Failure> {
    let mut running = start(args, scale, work)?;
    let mut setup_times = vec![running.setup_s];
    while setup_times.len() < MIN_SETUPS
        || (setup_times.len() < MAX_SETUPS && setup_times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        running.server.finish()?;
        drop(running.fixture);
        running = start(args, scale, work)?;
        setup_times.push(running.setup_s);
    }
    let Running {
        fixture, server, ..
    } = running;
    let churn = ChurnStream::new(&fixture.sizes);
    let conns = if churn.is_some() {
        CONNECTIONS - 1
    } else {
        CONNECTIONS
    };
    let streams = workload::streams(&fixture, conns);
    let ticks = cpu_ticks();
    let load = run_load(
        server.local_addr(),
        streams,
        churn,
        Duration::from_secs_f64(args.seconds),
    );
    let steal = steal_share(&ticks, &cpu_ticks());
    if let Some(m) = &load.wrongful {
        return Err(Failure::WrongfulAccept(m.clone()));
    }
    let recovery_s = if args.workload.is_durable() {
        Some(durability_check(&fixture)?)
    } else {
        None
    };
    server.finish()?;
    let mut report = e2e_report(&load, &setup_times, recovery_s);
    if let Some(share) = steal {
        report.header.push(format!(
            "cpu_steal={:.1}% of CPU time during the window (time the host ran other guests)",
            share * 100.0
        ));
    }
    Ok(report)
}

/// The aggregate `cpu` line of `/proc/stat`, in ticks; empty where
/// there is none.
fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// Share of CPU time stolen by the hypervisor between two samples
/// (steal is the eighth field of the `cpu` line). Host contention moves
/// every timing this benchmark reports, so the report records it.
fn steal_share(before: &[u64], after: &[u64]) -> Option<f64> {
    const STEAL: usize = 7;
    if before.len() <= STEAL || after.len() != before.len() {
        return None;
    }
    let delta: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = delta.iter().sum();
    (total > 0).then(|| delta[STEAL] as f64 / total as f64)
}

/// Drops the live durable engine without closing it, reopens its
/// directory, and checks that recovery reproduced the live state.
/// Returns the reopen time in seconds.
fn durability_check(f: &workload::Fixture) -> Result<f64, Failure> {
    let dir = f
        .dir
        .as_ref()
        .ok_or_else(|| Failure::Other("durable workload without a directory".into()))?;
    let live = f.engine.with_write(|e| std::mem::replace(e, Engine::new()));
    let expected = live.state_fingerprint();
    drop(live);
    let t = Instant::now();
    let (recovered, _) = Engine::open_with(dir, workload::DURABILITY)?;
    let recovery_s = t.elapsed().as_secs_f64();
    if recovered.state_fingerprint() != expected {
        return Err(Failure::Durability(format!(
            "state recovered from {} differs from the live state before the drop",
            dir.display()
        )));
    }
    Ok(recovery_s)
}

/// Samples per segment: enough for a p99 with ten samples beyond it.
const SEGMENT_SAMPLES: usize = 1000;
/// Most segments a window is cut into.
const MAX_SEGMENTS: usize = 10;

/// The selected requests of the window in completion order, cut into
/// as many consecutive segments (at most ten) as leave each one 1000
/// samples, or one. Each latency percentile is taken per segment and
/// reported as the median over segments, so a burst of interference on
/// the machine moves one segment rather than the result.
struct Segments {
    parts: Vec<Vec<f64>>,
}

impl Segments {
    fn new(load: &LoadResult, keep: impl Fn(Kind) -> bool) -> Segments {
        let mut picked: Vec<&drive::Sample> =
            load.samples.iter().filter(|s| keep(s.kind)).collect();
        picked.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        let n = (picked.len() / SEGMENT_SAMPLES).clamp(1, MAX_SEGMENTS);
        let bound = |k: usize| k * picked.len() / n;
        let parts = (0..n)
            .map(|k| {
                picked[bound(k)..bound(k + 1)]
                    .iter()
                    .map(|s| s.us)
                    .collect()
            })
            .collect();
        Segments { parts }
    }

    fn len(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    /// The median over segments of a percentile: p50, or the tail (p99
    /// when each segment has 1000 samples).
    fn latency(&self, name: &str, tail: bool) -> Metric {
        let pct = |p: &Vec<f64>| {
            let s = Samples::new(p.clone());
            if tail {
                s.tail()
            } else {
                s.median().map(|v| (50, v))
            }
        };
        let values: Vec<(u32, f64)> = self.parts.iter().filter_map(pct).collect();
        let value = if values.is_empty() {
            f64::NAN
        } else {
            stats::median(&values.iter().map(|v| v.1).collect::<Vec<_>>())
        };
        let percentile = values.iter().map(|v| v.0).min().unwrap_or(99);
        Metric::new(name, "us", value, self.len()).with_note(format!(
            "median over {} segments of p{percentile}",
            self.parts.len()
        ))
    }
}

/// Completed operations per second: the median over equal time
/// segments of the window, as many as [`Segments`] would cut.
fn throughput(load: &LoadResult) -> Metric {
    let n = (load.samples.len() / SEGMENT_SAMPLES).clamp(1, MAX_SEGMENTS);
    let seconds = load.elapsed_s / n as f64;
    let mut done = vec![0.0; n];
    for s in load.samples.iter().filter(|s| s.ok) {
        done[((s.at_s / seconds) as usize).min(n - 1)] += 1.0 / seconds;
    }
    Metric::new("ops_per_s", "1/s", stats::median(&done), load.samples.len())
        .with_note(format!("median over {n} segments"))
}

fn e2e_report(load: &LoadResult, setup_times: &[f64], recovery_s: Option<f64>) -> Report {
    let attempted = load.samples.len() as u64;
    let failed = load.samples.iter().filter(|s| !s.ok).count() as u64;
    let mut r = Report::new(attempted, failed, false);
    let user = Segments::new(load, |k| k != Kind::PolicyChange);
    let reads = Segments::new(load, |k| k == Kind::Read);
    let writes = Segments::new(load, |k| k == Kind::Write);
    let changes = Segments::new(load, |k| k == Kind::PolicyChange);
    r.push(
        Metric::new(
            "setup_s",
            "s",
            stats::median(setup_times),
            setup_times.len(),
        )
        .with_note("median"),
    );
    r.push(throughput(load));
    r.push(user.latency("p50_us", false));
    r.push(user.latency("p99_us", true));
    r.push(reads.latency("read_p99_us", true));
    if writes.len() > 0 {
        r.push(writes.latency("write_p50_us", false));
        r.push(writes.latency("write_p99_us", true));
    }
    if changes.len() > 0 {
        r.push(changes.latency("policy_change_p50_us", false));
    }
    r.push(Metric::new(
        "failed_share",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
        attempted as usize,
    ));
    if let Some(s) = recovery_s {
        r.push(Metric::new("recovery_s", "s", s, 1));
    }
    r.push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb(), 1));
    for f in &load.failures {
        r.header.push(format!("failure: {f}"));
    }
    r.header.push(format!(
        "window_s={:.3} user_requests={} reads={} writes={} policy_changes={} failed={failed}",
        load.elapsed_s,
        user.len(),
        reads.len(),
        writes.len(),
        changes.len()
    ));
    r
}

/// Runs every workload at reduced size in both modes and checks that
/// no request failed and every named metric is present and finite.
fn self_test() -> Result<(), Failure> {
    for w in workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload: w,
                seed: 7,
                seconds: 1.0,
                trace,
            };
            let report = run(&args, Scale::Small)?;
            report.print_human();
            report.check_complete().map_err(Failure::Other)?;
            println!("self-test {} trace={}: ok", w.name(), u8::from(trace));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_command_line() {
        let argv: Vec<String> = [
            "--workload",
            "write_mix",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_args(&argv) {
            Ok(Command::Run(a)) => {
                assert_eq!(a.workload, Workload::WriteMix);
                assert_eq!(a.seed, 3);
                assert!(a.trace);
            }
            _ => panic!("the benchmark arguments must parse"),
        }
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
    }

    #[test]
    fn self_test_passes() {
        self_test().expect("self-test");
    }
}
