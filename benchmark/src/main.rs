//! `dvmbench` — the repo's benchmark for the change→visible path.
//!
//! One process runs one workload in one mode:
//!
//! * `--trace 0`: the deployed run; prints every end-to-end metric.
//! * `--trace 1`: a shorter deployed run (for the counters only it can
//!   give) followed by the traced run; prints every per-layer metric.
//!
//! Metrics go to stdout as `name unit value`, the record of the run to
//! `<out>/<workload>[.layers].json` and `<out>/trace_<workload>.jsonl`,
//! and the last stdout line is the one JSON object the driver reads.
//! See README.md.

mod gen;
mod layers;
mod oracle;
mod report;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{Kind, Plan, SETUP_REPEATS};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: dvmbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]",
        Kind::ALL.map(Kind::name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        kind: Kind::StreamSla,
        seed: 1,
        seconds: report::run_seconds(),
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut have_kind = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                args.kind = Kind::parse(&value()).unwrap_or_else(|| usage());
                have_kind = true;
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--out" => args.out = PathBuf::from(value()),
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    if !have_kind || args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// File system type of the mount holding `dir`, from `/proc/mounts`.
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or("unknown".to_string(), |(_, kind)| kind)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: Option<f64>) -> String {
    v.map_or("null".to_string(), |v| format!("{v}"))
}

/// The header every output JSON carries.
fn header(args: &Args) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let started_at = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let flush = args
        .kind
        .flush_policy()
        .map_or("none (in-memory)".to_string(), |p| p.to_string());
    format!(
        "{{\"commit\":{},\"nproc\":{nproc},\"rustc\":{},\"seed\":{},\"flush_policy\":{},\"tmp_fs\":{},\"started_at\":{started_at}}}",
        json_str(&env("DVMBENCH_COMMIT")),
        json_str(&env("DVMBENCH_RUSTC")),
        args.seed,
        json_str(&flush),
        json_str(&fs_type(&args.out)),
    )
}

fn main() {
    let args = parse_args();
    let kind = args.kind;
    let seconds = Duration::from_secs_f64(args.seconds);
    let plan = Plan {
        seed: args.seed,
        warm: if args.smoke {
            Duration::from_millis(200)
        } else {
            Duration::from_secs(2)
        },
        // A traced invocation splits its time between the two runs.
        measure: if args.trace { seconds / 2 } else { seconds },
        sample_obs: args.trace,
    };
    let head = header(&args);
    let tmp = args
        .out
        .join(format!("tmp-{}-{}", kind.name(), std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create the output directory");

    // Where the wall time of this process went, phase by phase.
    let mut lap = Instant::now();
    let mut walls = String::new();
    let mut phase = |name: &str| {
        let _ = write!(walls, " {name} {:.1} s,", lap.elapsed().as_secs_f64());
        lap = Instant::now();
    };

    // Set up several times; the median is `setup_s`, the last one runs.
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..if args.smoke { 1 } else { SETUP_REPEATS } {
        drop(built.take());
        let dir = tmp.join(format!("db{}", setup_times.len()));
        let b = workloads::build(kind, args.seed, &dir, kind.flush_policy());
        let _ =
            std::fs::remove_dir_all(tmp.join(format!("db{}", setup_times.len().wrapping_sub(1))));
        setup_times.push(b.setup_s);
        built = Some(b);
    }
    let setups = setup_times.len();
    let mut built = built.expect("at least one set-up");
    let setup_s = stats::median(&mut setup_times);
    phase("set-up");

    let mut run = match kind {
        Kind::StreamSla => workloads::run_stream(&mut built, true, plan),
        Kind::IngestSat => workloads::run_stream(&mut built, false, plan),
        Kind::BulkRefresh => workloads::run_bulk(&mut built, plan),
        Kind::ReadersFleet => workloads::run_fleet(&mut built, plan),
    };
    let peak_rss = peak_rss_mb();
    phase("deployed run");
    oracle::restart(kind, &mut built, &tmp.join("export"), args.smoke, &mut run);
    phase("restart");
    oracle::oracle(&built.db, &built.views, &mut run);
    phase("oracle");

    let mut layer_self = String::new();
    let metrics = if args.trace {
        let shape = run.shape;
        drop(built);
        let off = kind.flush_policy().map(|_| dvm::DurabilityPolicy::Off);
        let mut twin = workloads::build(kind, args.seed, &tmp.join("traced"), off);
        let traced = traced::run_traced(kind, &mut twin, shape, seconds / 2);
        run.attempted += traced.attempted;
        run.failed += traced.failed;
        oracle::oracle(&twin.db, &twin.views, &mut run);
        phase("traced run and oracle");
        let path = args.out.join(format!("trace_{}.jsonl", kind.name()));
        traced.trace.write_jsonl(&path).expect("write the trace");
        for ((layer, name), ns) in traced.trace.self_by_name() {
            let share = ns as f64 / traced.wall_ns as f64;
            println!(
                "# self {layer}.{name} {:.3} ms ({:.1} % of traced wall)",
                ns as f64 / 1e6,
                share * 100.0
            );
            let _ = write!(
                layer_self,
                "{}{}:{ns}",
                if layer_self.is_empty() { "" } else { "," },
                json_str(&format!("{layer}.{name}"))
            );
        }
        println!(
            "# traced shape {shape:?}, {} ops",
            traced.trace.durations("op").len()
        );
        report::per_layer(&mut run, &traced, &twin)
    } else {
        report::end_to_end(&mut run, setup_s, setups, peak_rss)
    };
    let _ = std::fs::remove_dir_all(&tmp);

    let correct = run.failed == 0;

    for m in &metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  # {}", m.note)
        };
        println!("{} {} {}{note}", m.name, m.unit, json_num(m.value));
    }
    println!(
        "# {} seed {} trace {}: attempted {} failed {} correct {correct}",
        kind.name(),
        args.seed,
        u8::from(args.trace),
        run.attempted,
        run.failed
    );
    println!("# wall:{}", walls.trim_end_matches(','));
    for p in &run.problems {
        println!("# PROBLEM: {p}");
    }

    let body = |null_as_zero: bool| {
        metrics
            .iter()
            .map(|m| {
                let v = if null_as_zero {
                    Some(m.value.unwrap_or(0.0))
                } else {
                    m.value
                };
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&m.name),
                    json_num(v),
                    json_str(&m.unit)
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let record = format!(
        "{{\"header\":{head},\"workload\":{},\"trace\":{},\"seconds\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"notes\":{{{}}},\"self_ns\":{{{layer_self}}}}}\n",
        json_str(kind.name()),
        u8::from(args.trace),
        args.seconds,
        run.attempted,
        run.failed,
        body(false),
        metrics.iter().map(|m| format!("{}:{}", json_str(&m.name), json_str(&m.note))).collect::<Vec<_>>().join(","),
    );
    let file = format!(
        "{}{}.json",
        kind.name(),
        if args.trace { ".layers" } else { "" }
    );
    std::fs::write(args.out.join(file), record).expect("write the run record");

    // The driver's line: a counter the engine stopped exporting reads 0
    // here (it wants numbers) and `null` everywhere else.
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.attempted.max(1),
        run.failed,
        body(true)
    );
    if !correct {
        std::process::exit(1);
    }
}
