//! The run's output: named metrics with units, the host and run record,
//! and the one-line JSON result the benchmark ends with.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Metrics of one run, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name` (replacing an earlier value of the same name).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: every metric is a measured number.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.retain(|(n, _, _)| *n != name);
        self.entries.push((name, value, unit));
    }

    /// The recorded value of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Every `(name, value, unit)`, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }
}

/// Counts of what a run attempted and what failed, plus every failure
/// message (printed before the result).
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a correctness check or got no answer.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub errors: Vec<String>,
}

impl Ledger {
    /// Counts one attempted operation: passed on `Ok`, failed with the
    /// reason on `Err`.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.errors.push(why);
        }
    }
}

/// JSON string literal for `s` (the names and labels used here need no
/// escapes beyond quotes and backslashes).
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite float as JSON with every digit Rust's shortest round-trip
/// form keeps.
fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
#[must_use]
pub fn result_line(correct: bool, ledger: &Ledger, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

/// Logical cores the OS offers.
fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Physical cores: distinct `(physical id, core id)` pairs in
/// `/proc/cpuinfo`, when it lists them.
fn physical_cores() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let mut cores = std::collections::BTreeSet::new();
    let mut package = String::new();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        match key.trim() {
            "physical id" => package = value.trim().to_string(),
            "core id" => {
                cores.insert((package.clone(), value.trim().to_string()));
            }
            _ => {}
        }
    }
    (!cores.is_empty()).then_some(cores.len())
}

/// The commit of the source tree, when it is a git checkout.
fn commit(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |s| s.trim().to_string(),
        )
}

/// The host and run record printed with every result: cores, thread
/// overrides, the worker count `Backend::Auto` resolves to, the commit
/// and the run's arguments.
#[must_use]
pub fn host_record(root: &Path, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let physical = physical_cores().map_or_else(|| "null".to_string(), |c| c.to_string());
    let threads_env =
        std::env::var("PLANARTEST_THREADS").map_or_else(|_| "null".to_string(), |v| quote(&v));
    format!(
        "{{\"record\": {{\"logical_cores\": {}, \"physical_cores\": {physical}, \
         \"PLANARTEST_THREADS\": {threads_env}, \"auto_threads\": {}, \"commit\": {}, \
         \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}}}}}",
        logical_cores(),
        planartest_sim::runtime::auto_threads(),
        quote(&commit(root)),
        quote(workload),
        u8::from(trace),
    )
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, from
/// `/proc/<pid>/status`.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on Linux).
const CLOCK_TICKS: f64 = 100.0;

/// User plus system CPU seconds process `pid` has used, from
/// `/proc/<pid>/stat`. CPU time leaves out what the hypervisor steals,
/// which wall time on a shared host does not.
#[must_use]
pub fn cpu_s(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // utime and stime are fields 14 and 15; count from the end of the
    // parenthesized command name, which may hold spaces.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks / CLOCK_TICKS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5, "s");
        m.set("a.b", 3.0, "count");
        m.set("setup_s", 0.25, "s");
        let mut l = Ledger::default();
        l.record(Ok(()));
        l.record(Err("boom".to_string()));
        let line = result_line(false, &l, &m);
        let v = planartest_service::wire::Value::parse(&line).unwrap();
        let planartest_service::wire::Value::Obj(fields) = &v else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(v.get("failed").and_then(|x| x.as_u64()), Some(1));
        let setup = v.get("metrics").and_then(|x| x.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|x| x.as_f64()), Some(0.25));
        assert_eq!(setup.get("unit").and_then(|x| x.as_str()), Some("s"));
        assert_eq!(m.iter().count(), 2);
    }

    #[test]
    fn own_process_figures_are_readable() {
        assert!(cpu_s("self").is_some_and(|c| c >= 0.0));
        assert!(peak_rss_mb("self").is_some_and(|m| m > 0.0));
    }
}
