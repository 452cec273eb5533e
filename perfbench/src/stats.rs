//! Small statistics, process readouts and the span recorder.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Milliseconds in `d`, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median of `xs` (mean of the middle pair for an even count), or
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The geometric mean of positive `xs`, or 0 if any is not positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A nearest-rank percentile together with the samples it rests on.
#[derive(Clone, Copy, Debug)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile (`p` in (0, 1]) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> Percentile {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Process CPU time (user + system, every thread that ever ran) from
/// `/proc/self/stat`, at the kernel's 100 Hz tick granularity.
pub fn process_cpu() -> Duration {
    const TICKS_PER_S: u64 = 100;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    let ticks = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
    Duration::from_millis(ticks * 1000 / TICKS_PER_S)
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded span: a layer call the benchmark made, with the span
/// that caused it.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    program: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Spans kept in memory for the whole run and written out once, at exit.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle to an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span named `name` about `program` under `parent`.
    pub fn open(
        &mut self,
        name: &'static str,
        program: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            program,
            parent: parent.map(|p| p.0),
            start,
            end: start,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` now and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let span = &mut self.spans[id.0];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Times `f` as a span and returns its result with the duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        program: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, program, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Records a span measured elsewhere (on a client thread).
    pub fn record(
        &mut self,
        name: &'static str,
        program: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            program,
            parent: parent.map(|p| p.0),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
    }

    /// The spans as a JSON array, times in microseconds from start.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!("{{{header},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"program\":\"{}\",\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.program,
                s.start.as_micros(),
                s.end.as_micros(),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond_its_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&xs, 0.9);
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 10);
        assert_eq!(percentile(&xs, 0.5).value, 50.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
