//! Durability benchmark: what write-ahead logging costs on the DML
//! path, and what recovery costs as the log grows.
//!
//! Emits `BENCH_wal.json` (see EXPERIMENTS.md for the field reference)
//! and optionally gates against a checked-in baseline:
//!
//! ```text
//! walbench [--ops N] [--out PATH] [--check BASELINE.json]
//! ```
//!
//! Three engines run the same authorized-insert workload: a plain
//! in-memory engine, a durable engine at the default level (buffered
//! write per commit, no fsync), and a durable engine with
//! `sync_on_commit` (fsync per commit, measured over fewer ops — each
//! one waits on the disk). The overhead gate fails the process when the
//! default durability level costs more than `max_overhead_ratio` (2x
//! unless the baseline says otherwise) relative to in-memory
//! throughput. The scaling gate fails it when in-memory throughput over
//! 500 inserts is more than `max_scaling_ratio` (1.5x) of throughput
//! over 8000: an insert must cost about the same at any table size.
//! Recovery is timed at several log lengths so regressions in replay
//! show up as a curve, not a single noisy point.
//!
//! A throughput is the median over chunks of `CHUNK` consecutive
//! inserts, not total ops over total time: a whole run lasts only
//! milliseconds, so one scheduler stall would otherwise decide a gate.

use fgac_core::{DurabilityOptions, Engine, Session};
use std::path::PathBuf;
use std::time::Instant;

/// Default ceiling on `inmem_qps / durable_qps` for the no-fsync level.
const MAX_OVERHEAD_RATIO: f64 = 2.0;

/// Default ceiling on in-memory throughput over `SCALING_OPS.0` inserts
/// divided by throughput over `SCALING_OPS.1`.
const MAX_SCALING_RATIO: f64 = 1.5;

/// The small and large run lengths the scaling gate compares.
const SCALING_OPS: (usize, usize) = (500, 8000);

/// Rounds of the scaling comparison.
const SCALING_ROUNDS: usize = 5;

/// Inserts per timed chunk.
const CHUNK: usize = 50;

struct Args {
    ops: usize,
    out: String,
    check: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        ops: 2_000,
        out: "BENCH_wal.json".to_string(),
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match a.as_str() {
            "--ops" => args.ops = value("--ops").parse().expect("--ops: usize"),
            "--out" => args.out = value("--out"),
            "--check" => args.check = Some(value("--check")),
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

/// Pulls `"key": <number>` out of a flat JSON document — enough to read
/// our own baseline files without a JSON dependency.
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fgac-walbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The fixture every mode shares: one table, one authorization to
/// insert into it. Inserts carry unique keys so none can conflict.
fn populate(e: &mut Engine) {
    e.admin_script(
        "create table registered (student_id varchar not null, course_id varchar not null, \
         primary key (student_id, course_id))",
    )
    .expect("schema applies");
    e.grant_update_sql("11", "authorize insert on registered where student_id = $user_id")
        .expect("authorize applies");
}

/// Runs `ops` authorized inserts on each engine, alternating chunks of
/// `CHUNK` between them so every engine sees the same host conditions,
/// and returns each engine's median chunk rate in q/s.
fn insert_qps(engines: &mut [&mut Engine], ops: usize) -> Vec<f64> {
    let session = Session::new("11");
    let mut rates = vec![Vec::new(); engines.len()];
    for start in (0..ops).step_by(CHUNK) {
        let end = (start + CHUNK).min(ops);
        for (e, rates) in engines.iter_mut().zip(&mut rates) {
            let t = Instant::now();
            for k in start..end {
                let sql = format!("insert into registered values ('11', 'c{k}')");
                std::hint::black_box(e.execute(&session, &sql).expect("authorized insert"));
            }
            rates.push((end - start) as f64 / t.elapsed().as_secs_f64().max(1e-9));
        }
    }
    rates.into_iter().map(median).collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(0.0)
}

/// In-memory insert throughput of a fresh engine over `ops` inserts.
fn fresh_inmem_qps(ops: usize) -> f64 {
    let mut e = Engine::new();
    populate(&mut e);
    insert_qps(&mut [&mut e], ops)[0]
}

fn main() {
    let args = parse_args();
    // Snapshots off in every durable mode: this measures the log itself,
    // and recovery timing below wants the whole history in the log.
    let no_sync = DurabilityOptions {
        sync_on_commit: false,
        snapshot_every: 0,
    };
    let fsync = DurabilityOptions {
        sync_on_commit: true,
        snapshot_every: 0,
    };

    // --- In-memory reference vs durable at the default level (buffered
    // write per commit), chunks interleaved.
    let mut inmem = Engine::new();
    populate(&mut inmem);
    let durable_dir = tmp_dir("durable");
    let (mut durable, _) = Engine::open_with(&durable_dir, no_sync.clone()).expect("open durable");
    populate(&mut durable);
    let (inmem_qps, durable_qps) = match insert_qps(&mut [&mut inmem, &mut durable], args.ops)[..] {
        [i, d] => (i, d),
        _ => unreachable!("one rate per engine"),
    };
    drop(durable); // dirty: recovery below starts from a crash

    // --- Scaling: a short and a long in-memory run from empty tables,
    // in alternating rounds; the gate reads the median round.
    let rounds: Vec<(f64, f64)> = (0..SCALING_ROUNDS)
        .map(|_| (fresh_inmem_qps(SCALING_OPS.0), fresh_inmem_qps(SCALING_OPS.1)))
        .collect();
    let small_qps = median(rounds.iter().map(|r| r.0).collect());
    let large_qps = median(rounds.iter().map(|r| r.1).collect());
    let scaling_ratio = median(rounds.iter().map(|(s, l)| s / l.max(1e-9)).collect());

    // --- Durable with fsync per commit. Far fewer ops: each one waits
    // on the disk, and the point is the per-commit price, not volume.
    let fsync_ops = (args.ops / 20).max(20);
    let fsync_dir = tmp_dir("fsync");
    let (mut synced, _) = Engine::open_with(&fsync_dir, fsync).expect("open fsync");
    populate(&mut synced);
    let fsync_qps = insert_qps(&mut [&mut synced], fsync_ops)[0];
    drop(synced);
    let _ = std::fs::remove_dir_all(&fsync_dir);

    // --- Recovery time vs log length. The full-length point reuses the
    // durable run's directory; shorter points get their own logs.
    let mut recovery = Vec::new();
    for frac in [4usize, 2, 1] {
        let records = args.ops / frac;
        let (dir, cleanup) = if frac == 1 {
            (durable_dir.clone(), true)
        } else {
            let dir = tmp_dir(&format!("recover-{records}"));
            let (mut e, _) = Engine::open_with(&dir, no_sync.clone()).expect("open for recovery");
            populate(&mut e);
            insert_qps(&mut [&mut e], records);
            drop(e);
            (dir, true)
        };
        let t = Instant::now();
        let (recovered, report) = Engine::open_with(&dir, no_sync.clone()).expect("recover");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(report.records_replayed >= records, "log shorter than expected");
        drop(recovered);
        if cleanup {
            let _ = std::fs::remove_dir_all(&dir);
        }
        recovery.push((report.records_replayed, ms));
    }

    // --- Gates.
    let baseline = args.check.as_deref().map(|path| {
        let doc = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        (path, doc)
    });
    let gate = |key: &str, default: f64| {
        baseline.as_ref().map_or(default, |(path, doc)| {
            json_number(doc, key).unwrap_or_else(|| panic!("baseline {path} lacks {key}"))
        })
    };
    let max_ratio = gate("max_overhead_ratio", MAX_OVERHEAD_RATIO);
    let max_scaling = gate("max_scaling_ratio", MAX_SCALING_RATIO);
    let overhead_ratio = inmem_qps / durable_qps.max(1e-9);
    let overhead_pass = overhead_ratio <= max_ratio;
    let scaling_pass = scaling_ratio <= max_scaling;
    let pass = overhead_pass && scaling_pass;

    let recovery_json = recovery
        .iter()
        .map(|(records, ms)| format!("{{ \"records\": {records}, \"ms\": {ms:.2} }}"))
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"schema\": \"fgac-wal-v1\",\n  \"ops\": {},\n  \"inmem_qps\": {:.0},\n  \"durable_qps\": {:.0},\n  \"fsync_ops\": {},\n  \"fsync_qps\": {:.0},\n  \"overhead_ratio\": {:.3},\n  \"scaling\": {{ \"small_ops\": {}, \"small_qps\": {:.0}, \"large_ops\": {}, \"large_qps\": {:.0}, \"ratio\": {:.3} }},\n  \"recovery\": [{}],\n  \"gates\": {{ \"max_overhead_ratio\": {:.2}, \"max_scaling_ratio\": {:.2}, \"pass\": {} }}\n}}\n",
        args.ops,
        inmem_qps,
        durable_qps,
        fsync_ops,
        fsync_qps,
        overhead_ratio,
        SCALING_OPS.0,
        small_qps,
        SCALING_OPS.1,
        large_qps,
        scaling_ratio,
        recovery_json,
        max_ratio,
        max_scaling,
        pass,
    );
    std::fs::write(&args.out, &json).expect("write report");
    print!("{json}");
    eprintln!(
        "inmem {inmem_qps:.0} q/s, durable {durable_qps:.0} q/s ({overhead_ratio:.2}x), \
         fsync {fsync_qps:.0} q/s; inmem over {} ops {small_qps:.0} q/s vs {} ops \
         {large_qps:.0} q/s ({scaling_ratio:.2}x); recovery {:?}",
        SCALING_OPS.0,
        SCALING_OPS.1,
        recovery
            .iter()
            .map(|(r, ms)| format!("{r} rec / {ms:.1}ms"))
            .collect::<Vec<_>>()
    );

    if !overhead_pass {
        eprintln!(
            "GATE FAIL: logging overhead {overhead_ratio:.2}x exceeds allowed {max_ratio:.2}x"
        );
    }
    if !scaling_pass {
        eprintln!(
            "GATE FAIL: inserts over {} ops run {scaling_ratio:.2}x faster than over {} ops \
             (allowed {max_scaling:.2}x)",
            SCALING_OPS.0, SCALING_OPS.1
        );
    }
    if !pass {
        std::process::exit(1);
    }
}
