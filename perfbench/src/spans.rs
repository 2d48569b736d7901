//! Outside-in tracing: a span around each call the benchmark makes into
//! a layer of the system, kept in memory and written out at the end.
//!
//! Every call is timed whether tracing is on or off, because the
//! end-to-end rates are built from the same timings. Tracing adds only
//! the span records (name, start, end, parent, phase), so the traced
//! run's overhead is the cost of pushing them.

use std::fmt::Write as _;
use std::time::Instant;

/// Where a span was recorded: one of the set-up repetitions or one of
/// the timed passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Setup(u32),
    Pass(u32),
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    phase: Phase,
    /// Work done inside the span (events replayed, images judged, ...).
    count: u64,
}

/// The span recorder. With `on == false` it only times.
pub struct Tracer {
    on: bool,
    origin: Instant,
    phase: Phase,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Nesting depth of `timed` calls, tracked with tracing on or off.
    depth: usize,
    /// Durations of the outermost `timed` calls since the last
    /// `take_top_level`, recorded with tracing on or off.
    top_level: Vec<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            phase: Phase::Setup(0),
            spans: Vec::new(),
            stack: Vec::new(),
            depth: 0,
            top_level: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// host duration in nanoseconds. `count` maps the result to the
    /// work count recorded at the span's boundary.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
        count: impl FnOnce(&T) -> u64,
    ) -> (T, u64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        if self.on {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                phase: self.phase,
                count: 0,
            });
            self.stack.push(id);
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        let end_ns = self.now_ns();
        if self.depth == 0 {
            self.top_level.push(end_ns - start_ns);
        }
        if self.on {
            self.stack.pop();
            let n = count(&out);
            let span = &mut self.spans[id];
            span.end_ns = end_ns;
            span.count = n;
        }
        (out, end_ns - start_ns)
    }

    /// The durations of the outermost `timed` calls since the last take.
    pub fn take_top_level(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.top_level)
    }

    /// Records a child of the most recently recorded span covering
    /// `dur_ns` of it — for time a callee reports about itself
    /// (the fused walk's verify share), which the benchmark cannot
    /// bracket from outside.
    pub fn reported_child(&mut self, name: &'static str, dur_ns: u64, count: u64) {
        if !self.on {
            return;
        }
        let parent = self.spans.len() - 1;
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            phase: self.phase,
            count,
        });
    }

    /// A count recorded at a layer boundary without a span of its own.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            let at = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
                phase: self.phase,
                count: n,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per phase matching `keep`, the summed self time (ms) and summed
    /// count of the spans named `name`; the median over those phases.
    /// Phases without such a span contribute zero, so a layer a
    /// workload never calls reads 0.
    fn per_phase(&self, name: &str, keep: fn(Phase) -> bool) -> (f64, f64) {
        let own = self.self_ns();
        // (phase, self ns, count), in order of first appearance.
        let mut acc: Vec<(Phase, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !keep(s.phase) {
                continue;
            }
            let slot = match acc.iter().position(|a| a.0 == s.phase) {
                Some(j) => j,
                None => {
                    acc.push((s.phase, 0, 0));
                    acc.len() - 1
                }
            };
            if s.name == name {
                acc[slot].1 += own[i];
                acc[slot].2 += s.count;
            }
        }
        let mut ms: Vec<f64> = acc.iter().map(|a| a.1 as f64 / 1e6).collect();
        let mut counts: Vec<f64> = acc.iter().map(|a| a.2 as f64).collect();
        (median(&mut ms), median(&mut counts))
    }

    /// Median per timed pass of the self time (ms) of spans `name`.
    pub fn pass_ms(&self, name: &str) -> f64 {
        self.per_phase(name, |p| matches!(p, Phase::Pass(_))).0
    }

    /// Median per timed pass of the count recorded by spans `name`.
    pub fn pass_count(&self, name: &str) -> f64 {
        self.per_phase(name, |p| matches!(p, Phase::Pass(_))).1
    }

    /// Median per set-up repetition of the self time (ms) of `name`.
    pub fn setup_ms(&self, name: &str) -> f64 {
        self.per_phase(name, |p| matches!(p, Phase::Setup(_))).0
    }

    /// Median per set-up repetition of the count recorded by `name`.
    pub fn setup_count(&self, name: &str) -> f64 {
        self.per_phase(name, |p| matches!(p, Phase::Setup(_))).1
    }

    /// The spans as a JSON document, stamped with `provenance` (itself
    /// a JSON object).
    pub fn to_json(&self, provenance: &str) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        let _ = write!(out, "{{\"provenance\": {provenance}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let (phase, rep) = match s.phase {
                Phase::Setup(r) => ("setup", r),
                Phase::Pass(r) => ("pass", r),
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\": {i}, \"name\": \"{}\", \"phase\": \"{phase}\", \"rep\": {rep}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}, \"count\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                own[i],
                s.count
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Median of `v` (0 for an empty slice); sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
