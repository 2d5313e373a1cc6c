//! In-memory spans recorded by the benchmark around its calls into each
//! layer, with self-time arithmetic. Spans are written out once, at the end.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. Times are seconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Job id, or world/rung id.
    pub request: String,
}

/// Records spans when enabled; costs one branch per call when disabled.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Seconds since the epoch.
    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Record a finished span; returns its index (for children), or
    /// `None` when tracing is off.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: &str,
    ) -> Option<usize> {
        let spans = self.spans.as_ref()?;
        let mut v = spans.lock().expect("span list lock poisoned");
        v.push(Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            request: request.to_string(),
        });
        Some(v.len() - 1)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span list lock poisoned").clone())
            .unwrap_or_default()
    }
}

/// Length of the union of intervals, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of each span: its duration minus the part of it that its
/// child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| (s.end - s.start) - covered(c, s.start, s.end))
        .collect()
}

/// Per span name: (count, total seconds, self seconds), ordered by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += own;
    }
    out
}

/// The spans as a JSON array (one object per span).
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{},\"parent\":{},\"request\":{}}}",
            s.name,
            s.start,
            s.end,
            own,
            s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".into()),
            svc::json::quote(&s.request)
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: "r".into(),
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        // world [0, 10] holds build [1, 3] and two overlapping exchanges
        // [4, 7] and [6, 8]; an exchange holds a grandchild [4, 5] and a
        // child that spills past its parent's end is clipped.
        let spans = vec![
            span("world", 0.0, 10.0, None),
            span("build", 1.0, 3.0, Some(0)),
            span("exchange", 4.0, 7.0, Some(0)),
            span("exchange", 6.0, 8.0, Some(0)),
            span("pack", 4.0, 5.0, Some(2)),
            span("late", 9.5, 12.0, Some(0)),
        ];
        let own = self_times(&spans);
        // world: 10 - (2 + [4,8]=4 + 0.5) = 3.5
        assert_eq!(own, vec![3.5, 2.0, 2.0, 2.0, 1.0, 2.5]);
        let named = by_name(&spans);
        assert_eq!(named["exchange"], (2, 5.0, 4.0));
        assert_eq!(named["world"], (1, 10.0, 3.5));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", now, now, None, "r"), None);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let a = t.record("parent", now, Instant::now(), None, "job-1");
        t.record("child", now, now, a, "job-1");
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, "job-1");
    }
}
