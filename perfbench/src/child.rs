//! The child-process side of the protocol: a child runs one experiment and
//! prints its results as `key value` lines, which the parent parses. One
//! process per run keeps the peak RSS (`VmHWM`) of each run its own.

use std::fs;
use std::path::Path;

/// Prints one measured value.
pub fn emit(key: &str, value: f64) {
    println!("{key} {value}");
}

/// Prints every check as `check.<name> 1|0`.
pub fn emit_checks(checks: &[(&'static str, bool)]) {
    for (name, passed) in checks {
        println!("check.{name} {}", u8::from(*passed));
    }
}

/// Empties `dir`, creating it if needed.
pub fn fresh_dir(dir: &Path) {
    if dir.exists() {
        fs::remove_dir_all(dir).expect("remove the previous run's durable directory");
    }
    fs::create_dir_all(dir).expect("create the durable directory");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The filesystem type holding `dir`, from the longest matching mount point
/// in `/proc/self/mountinfo`.
pub fn filesystem_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mountinfo = fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount_point), Some(fs_type)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if dir.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), (*fs_type).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs_type)| fs_type)
}
