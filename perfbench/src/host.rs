//! Host and run stamp, and resident-memory readings from `/proc`.

use serde_json::Value;
use std::process::Command;

/// Everything a result needs to be compared across commits and hosts.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Value::Object(vec![
        ("workload".into(), Value::String(workload.into())),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::UInt(seconds)),
        ("trace".into(), Value::Bool(trace)),
        ("cores".into(), Value::UInt(cores as u64)),
        ("profile".into(), Value::String(profile.into())),
        ("commit".into(), Value::String(commit())),
        ("rustc".into(), Value::String(tool_version("rustc"))),
    ])
}

/// The source commit, or `unknown` in a source export without history.
fn commit() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

fn tool_version(tool: &str) -> String {
    command_line(tool, &["--version"]).unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

/// A `Vm*` field of `/proc/<pid>/status` in MB (`pid` = `self` for this
/// process).
fn vm_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of a process, MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    vm_mb(pid, "VmHWM:")
}

/// Current resident set (`VmRSS`) of a process, MB.
pub fn rss_mb(pid: &str) -> Option<f64> {
    vm_mb(pid, "VmRSS:")
}
