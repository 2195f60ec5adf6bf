//! Where a result came from: the host fingerprint, the build profile and process memory.
//!
//! Every result line carries the fingerprint so that figures from different hosts are never
//! pooled: two results are comparable only when their `fingerprint` fields are equal.

use std::fmt::Write as _;

/// The identity of the machine a result was measured on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Host {
    /// Cores available to this process (`std::thread::available_parallelism`).
    pub cores: usize,
    /// The first `model name` of `/proc/cpuinfo` (`unknown` when absent).
    pub cpu_model: String,
    /// The running kernel release (`/proc/sys/kernel/osrelease`, `unknown` when absent).
    pub kernel: String,
}

impl Host {
    /// Probes the current machine.
    pub fn probe() -> Host {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
        Host::from_parts(cores, &cpuinfo, &kernel)
    }

    /// Builds a fingerprint from raw `/proc` contents (split out so it can be tested).
    pub fn from_parts(cores: usize, cpuinfo: &str, kernel: &str) -> Host {
        let cpu_model = cpuinfo
            .lines()
            .find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
            .filter(|model| !model.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = match kernel.trim() {
            "" => "unknown".to_string(),
            release => release.to_string(),
        };
        Host {
            cores,
            cpu_model,
            kernel,
        }
    }

    /// A short stable id of `(cores, cpu_model, kernel)`: FNV-1a 64 in hex.
    pub fn fingerprint(&self) -> String {
        let text = format!("{}|{}|{}", self.cores, self.cpu_model, self.kernel);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in text.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
        format!("{hash:016x}")
    }

    /// The fingerprint fields as a JSON object body (no braces).
    pub fn json_fields(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "\"fingerprint\": \"{}\", \"cores\": {}, \"cpu_model\": {}, \"kernel\": {}",
            self.fingerprint(),
            self.cores,
            json_string(&self.cpu_model),
            json_string(&self.kernel)
        );
        out
    }
}

/// The build profile of this binary (the system under test is linked into it).
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "dev"
    } else {
        "release"
    }
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB (10^6 bytes).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    status_kb(pid, "VmHWM:").map(|kb| kb as f64 * 1024.0 / 1e6)
}

/// Current resident set size (`VmRSS`) of process `pid`, in MB (10^6 bytes).
pub fn rss_mb(pid: u32) -> Option<f64> {
    status_kb(pid, "VmRSS:").map(|kb| kb as f64 * 1024.0 / 1e6)
}

fn status_kb(pid: u32, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|line| line.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Renders `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CPUINFO: &str = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Example CPU @ 2.00GHz\n\nprocessor\t: 1\nmodel name\t: Example CPU @ 2.00GHz\n";

    #[test]
    fn fingerprint_reads_model_and_kernel() {
        let host = Host::from_parts(2, CPUINFO, "6.1.0-test\n");
        assert_eq!(host.cpu_model, "Example CPU @ 2.00GHz");
        assert_eq!(host.kernel, "6.1.0-test");
        assert_eq!(host.cores, 2);
    }

    #[test]
    fn fingerprint_is_stable_and_separates_hosts() {
        let a = Host::from_parts(2, CPUINFO, "6.1.0-test");
        assert_eq!(
            a.fingerprint(),
            Host::from_parts(2, CPUINFO, "6.1.0-test\n").fingerprint()
        );
        assert_eq!(a.fingerprint().len(), 16);
        assert_ne!(
            a.fingerprint(),
            Host::from_parts(1, CPUINFO, "6.1.0-test").fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            Host::from_parts(2, CPUINFO, "6.2.0-test").fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            Host::from_parts(2, "model name: Other", "6.1.0-test").fingerprint()
        );
    }

    #[test]
    fn missing_proc_files_read_as_unknown() {
        let host = Host::from_parts(4, "", "");
        assert_eq!(host.cpu_model, "unknown");
        assert_eq!(host.kernel, "unknown");
    }

    #[test]
    fn json_fields_escape_text() {
        let host = Host::from_parts(1, "model name: A \"quoted\" CPU", "k");
        assert!(host
            .json_fields()
            .contains(r#""cpu_model": "A \"quoted\" CPU""#));
    }

    #[test]
    fn own_peak_rss_is_readable() {
        let peak = peak_rss_mb(std::process::id()).expect("Linux /proc");
        let now = rss_mb(std::process::id()).expect("Linux /proc");
        assert!(peak > 0.0 && peak >= now * 0.99);
    }
}
