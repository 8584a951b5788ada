//! Order statistics, the behaviour digest and the in-memory span recorder.

use std::time::Instant;

/// Nearest-rank `q`-quantile of `samples`: the value at sorted index
/// `ceil(q·n) − 1`. `None` when there are no samples.
#[must_use]
pub fn nearest_rank<T: Copy + PartialOrd>(samples: &[T], q: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are comparable"));
    let rank = (sorted.len() as f64 * q.clamp(0.0, 1.0)).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// Samples ranked after the nearest-rank `q`-quantile, `n − ceil(q·n)`:
/// how well a run of `n` samples resolves that percentile (the benchmark
/// wants at least ten beyond p99).
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    n - (n as f64 * q.clamp(0.0, 1.0)).ceil() as usize
}

/// Nearest-rank median of `f64` samples, 0 when empty.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5).unwrap_or(0.0)
}

/// Interquartile range over the median (nearest-rank quartiles), 0 when
/// empty or when the median is 0.
#[must_use]
pub fn rel_iqr(samples: &[f64]) -> f64 {
    let (Some(q1), Some(q2), Some(q3)) = (
        nearest_rank(samples, 0.25),
        nearest_rank(samples, 0.5),
        nearest_rank(samples, 0.75),
    ) else {
        return 0.0;
    };
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// FNV-1a, 64-bit: the simulated-behaviour digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold each word (little-endian) into the digest.
    pub fn words(&mut self, words: &[u64]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// One timed call into a layer. Spans of one op share `op`; `parent` is
/// the index of the enclosing span in the recorder.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The op the span belongs to (`u64::MAX` during set-up).
    pub op: u64,
    /// Layer step name, e.g. `channel.seal`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Host nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder started.
    pub end_ns: u64,
}

impl Span {
    /// Host nanoseconds the span covered.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory around calls made by the benchmark. A
/// disabled recorder runs the call and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// The op that new spans are charged to.
    pub op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Op id given to spans recorded before the first measured op.
pub const SETUP_OP: u64 = u64::MAX;

impl Tracer {
    /// A recorder; `enabled = false` makes [`Tracer::span`] a plain call.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: SETUP_OP,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Host durations (ns) of every span called `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time of each span: its duration minus the time its direct
    /// children cover.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// The spans of set-up and of ops below `max_op` as JSON lines:
    /// `{"op":..,"name":..,"parent":..,"start_ns":..,"end_ns":..,"self_ns":..}`.
    /// `parent` indexes the full span list.
    #[must_use]
    pub fn json_lines(&self, max_op: u64) -> String {
        let mut out = String::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if s.op != SETUP_OP && s.op >= max_op {
                continue;
            }
            let op = if s.op == SETUP_OP {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"op\":{op},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(500));
        assert_eq!(nearest_rank(&v, 0.99), Some(990));
        assert_eq!(nearest_rank(&v, 1.0), Some(1000));
        assert_eq!(nearest_rank(&v, 0.0), Some(1));
        assert_eq!(beyond(v.len(), 0.99), 10);
        assert_eq!(beyond(1200, 0.99), 12);
        assert_eq!(beyond(128, 0.99), 1);
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
        // Unsorted input, small n: ceil(0.5·3) − 1 = 1 → the middle value.
        assert_eq!(nearest_rank(&[9u64, 1, 5], 0.5), Some(5));
        assert_eq!(nearest_rank(&[9u64, 1, 5, 7], 0.5), Some(5));
        assert_eq!(nearest_rank(&[3.5f64], 0.99), Some(3.5));
    }

    #[test]
    fn rel_iqr_is_quartile_spread_over_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((rel_iqr(&v) - (75.0 - 25.0) / 50.0).abs() < 1e-12);
        assert_eq!(rel_iqr(&[]), 0.0);
        assert_eq!(rel_iqr(&[4.0; 7]), 0.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.op = 3;
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3));
        let own = t.self_ns();
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(own[1], spans[1].dur_ns());
        assert_eq!(t.json_lines(4).lines().count(), 2);
        assert_eq!(t.json_lines(3).lines().count(), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
