//! Plain-text table and JSON reporting for experiment binaries and the
//! micro-benchmark harness.
//!
//! The table printer and nanosecond formatter live in `dvm-obs` (they are
//! shared with the engine's observability exporters); this module
//! re-exports them under their historical `dvm_bench::report` paths and
//! adds the benchmark-summary glue.

pub use dvm_obs::{fmt_nanos, TableReport};
use dvm_testkit::bench::Summary;
pub use dvm_testkit::bench::{
    to_json_report, to_json_report_with_host, write_json, write_json_with_host,
};

/// Render benchmark summaries as an aligned table (the human-readable
/// counterpart of [`to_json_report`]).
pub fn summary_table(summaries: &[Summary]) -> TableReport {
    let mut t = TableReport::new(["benchmark", "median", "p95", "min", "max", "samples"]);
    for s in summaries {
        t.row([
            s.name.clone(),
            fmt_nanos(s.median_ns),
            fmt_nanos(s.p95_ns),
            fmt_nanos(s.min_ns),
            fmt_nanos(s.max_ns),
            s.samples.to_string(),
        ]);
    }
    t
}

/// Where a result was measured: the host's parallelism, OS and
/// architecture, and the commit of the working tree it was built from
/// (`-dirty` with uncommitted changes, `unknown` outside a git checkout).
pub struct Stamp {
    /// Threads the host runs in parallel.
    pub parallelism: usize,
    /// `git rev-parse --short HEAD`, plus `-dirty`.
    pub commit: String,
}

impl Stamp {
    /// Stamp the current process.
    pub fn here() -> Stamp {
        let git = |args: &[&str]| {
            let out = std::process::Command::new("git").args(args).output().ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        let commit = match git(&["rev-parse", "--short", "HEAD"]) {
            Some(head) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
                Some(changes) if changes.is_empty() => head,
                _ => format!("{head}-dirty"),
            },
            None => "unknown".to_string(),
        };
        Stamp {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit,
        }
    }

    /// The `host` and `commit` members of a JSON object.
    pub fn json_members(&self) -> String {
        format!(
            "\"host\":{{\"parallelism\":{},\"os\":\"{}\",\"arch\":\"{}\"}},\"commit\":\"{}\"",
            self.parallelism,
            std::env::consts::OS,
            std::env::consts::ARCH,
            self.commit
        )
    }

    /// One header line for a text artifact.
    pub fn line(&self) -> String {
        format!(
            "host: {} threads, {}/{}; commit: {}",
            self.parallelism,
            std::env::consts::OS,
            std::env::consts::ARCH,
            self.commit
        )
    }
}

/// Write [`to_json_report`] with the [`Stamp`] of this process in front.
pub fn write_json_stamped(path: &std::path::Path, summaries: &[Summary]) -> std::io::Result<()> {
    let body = to_json_report(summaries);
    let doc = format!("{{{},{}", Stamp::here().json_members(), &body[1..]);
    std::fs::write(path, doc)
}

/// Format a duration with an adaptive unit.
pub fn fmt_duration(d: std::time::Duration) -> String {
    fmt_nanos(d.as_nanos() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_duration_matches_fmt_nanos() {
        let d = std::time::Duration::from_micros(1_500);
        assert_eq!(fmt_duration(d), "1.50ms");
        assert_eq!(fmt_duration(d), fmt_nanos(1_500_000.0));
    }

    #[test]
    fn stamped_report_parses_with_host_and_commit() {
        let s = dvm_testkit::Bench::quick().run("t", || 1 + 1);
        let path = std::env::temp_dir().join(format!("dvm-stamp-{}.json", std::process::id()));
        write_json_stamped(&path, &[s]).unwrap();
        let doc = dvm_obs::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let host = doc.get("host").unwrap();
        assert!(host.get("parallelism").unwrap().as_f64().unwrap() >= 1.0);
        assert!(!doc.get("commit").unwrap().as_str().unwrap().is_empty());
        assert_eq!(doc.get("benchmarks").unwrap().as_arr().unwrap().len(), 1);
        assert!(Stamp::here().line().starts_with("host: "));
    }

    #[test]
    fn summary_table_renders_each_benchmark() {
        let s = dvm_testkit::Bench::quick().run("bag_ops/union/1000", || 1 + 1);
        let out = summary_table(&[s]).render();
        assert!(out.contains("bag_ops/union/1000"));
        assert!(out.lines().next().unwrap().contains("median"));
    }
}
