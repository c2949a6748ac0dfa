//! Sample reduction (medians, quartiles, the supported tail percentile)
//! and process memory readings.

/// Latency samples of one op class, in nanoseconds. Pre-sized so the
/// buffer never reallocates inside a timed window (a doubling would show
/// up as a step in peak RSS at whatever throughput crosses it); untouched
/// capacity is never resident.
pub struct Samples(Vec<u32>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::with_capacity(1 << 21))
    }

    pub fn push(&mut self, nanos: u128) {
        self.0.push(nanos.min(u32::MAX as u128) as u32);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn absorb(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Median in milliseconds (0 when empty).
    pub fn median_ms(&mut self) -> f64 {
        self.0.sort_unstable();
        if self.0.is_empty() {
            return 0.0;
        }
        let n = self.0.len();
        let mid = (self.0[(n - 1) / 2] as f64 + self.0[n / 2] as f64) / 2.0;
        mid / 1e6
    }

    /// The highest percentile with at least ten samples beyond it:
    /// `(percentile, milliseconds)`.
    pub fn tail_ms(&mut self) -> (f64, f64) {
        self.0.sort_unstable();
        let n = self.0.len();
        if n <= 10 {
            return (0.0, 0.0);
        }
        let idx = n - 11;
        (100.0 * idx as f64 / n as f64, self.0[idx] as f64 / 1e6)
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    match v.len() {
        0 => 0.0,
        n => (v[(n - 1) / 2] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance check
/// of the benchmark's own spread uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Resident set right now, in bytes.
pub fn rss_bytes() -> f64 {
    status_kb("VmRSS:") * 1024.0
}

/// Start a new peak-RSS epoch (Linux: writing `5` to `clear_refs` resets
/// `VmHWM`), so each workload of an all-workloads run reports its own
/// peak. Where the kernel refuses, the peak stays cumulative.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
