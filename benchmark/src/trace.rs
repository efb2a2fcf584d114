//! Spans recorded by the harness around its calls into each layer.
//!
//! A span has a name, the layer (crate) it is charged to, a start, an end
//! and the span that caused it; all spans of one run share the workload's
//! name as identifier. Spans live in memory and are written out when the
//! run ends. A layer's self time is its spans' durations minus the part
//! their children cover, so the self times of all layers add up to the
//! root span — the run's wall time — with whatever the harness itself
//! spent left on the `harness` layer.
//!
//! Tracing off is the `None` tracer: `span` then only runs the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Value};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
    /// Whether the span takes part in self-time accounting. Spans that
    /// overlap their siblings (jobs queued at the same time) do not; the
    /// interval they cover together is recorded as a counted span instead.
    pub counted: bool,
}

pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

struct State {
    spans: Vec<Span>,
    /// Innermost open span.
    current: Option<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: RefCell::new(State {
                spans: Vec::new(),
                current: None,
            }),
        }
    }

    /// Seconds since this tracer's epoch.
    pub fn clock(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn open(&self, name: &str, layer: &'static str) -> usize {
        let start_s = self.clock();
        let mut state = self.state.borrow_mut();
        let id = state.spans.len();
        let parent = state.current;
        state.spans.push(Span {
            name: name.to_string(),
            layer,
            parent,
            start_s,
            end_s: start_s,
            counted: true,
        });
        state.current = Some(id);
        id
    }

    fn close(&self, id: usize) {
        let end_s = self.clock();
        let mut state = self.state.borrow_mut();
        state.spans[id].end_s = end_s;
        state.current = state.spans[id].parent;
    }

    /// Record a span that already happened elsewhere (a compile stage a
    /// child process timed), laid end to end after its siblings inside the
    /// innermost open span, starting at `start_s` on this tracer's clock.
    pub fn record(&self, name: &str, layer: &'static str, start_s: f64, seconds: f64) {
        self.push(name, layer, start_s, seconds, true);
    }

    /// Record one of several overlapping spans (a job among queued jobs):
    /// kept in the trace, left out of self-time accounting.
    pub fn record_overlapping(&self, name: &str, layer: &'static str, start_s: f64, seconds: f64) {
        self.push(name, layer, start_s, seconds, false);
    }

    fn push(&self, name: &str, layer: &'static str, start_s: f64, seconds: f64, counted: bool) {
        let mut state = self.state.borrow_mut();
        let parent = state.current;
        state.spans.push(Span {
            name: name.to_string(),
            layer,
            parent,
            start_s,
            end_s: start_s + seconds,
            counted,
        });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }
}

/// Run `body` inside a span when tracing is on, bare when it is off.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &str,
    layer: &'static str,
    body: impl FnOnce() -> T,
) -> T {
    match tracer {
        None => body(),
        Some(t) => {
            let id = t.open(name, layer);
            let out = body();
            t.close(id);
            out
        }
    }
}

/// Self time per layer: each span's duration minus the part of it its
/// direct children cover (children are clipped to the parent, and
/// overlapping children are merged, so nothing is subtracted twice).
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let (Some(p), true) = (s.parent, s.counted) {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.counted) {
        let mut intervals: Vec<(f64, f64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_s.clamp(s.start_s, s.end_s),
                    spans[c].end_s.clamp(s.start_s, s.end_s),
                )
            })
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = s.start_s;
        for (lo, hi) in intervals {
            if hi > reach {
                covered += hi - lo.max(reach);
                reach = hi;
            }
        }
        *out.entry(s.layer).or_insert(0.0) += (s.end_s - s.start_s) - covered;
    }
    out
}

/// The trace file of one workload run.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let self_times = layer_self_times(spans);
    obj([
        ("workload", workload.into()),
        (
            "layer_self_s",
            Value::Obj(
                self_times
                    .iter()
                    .map(|(layer, s)| (layer.to_string(), Value::Num(*s)))
                    .collect(),
            ),
        ),
        (
            "spans",
            Value::Arr(
                spans
                    .iter()
                    .enumerate()
                    .map(|(id, s)| {
                        obj([
                            ("id", id.into()),
                            ("workload", workload.into()),
                            ("name", s.name.as_str().into()),
                            ("layer", s.layer.into()),
                            ("parent", s.parent.map_or(Value::Null, Value::from)),
                            ("start_s", s.start_s.into()),
                            ("end_s", s.end_s.into()),
                            ("counted", s.counted.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(layer: &'static str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name: layer.to_string(),
            layer,
            parent,
            start_s,
            end_s,
            counted: true,
        }
    }

    #[test]
    fn overlapping_spans_stay_out_of_the_accounting() {
        let mut spans = vec![
            s("harness", None, 0.0, 10.0),
            s("serve", Some(0), 1.0, 6.0),
            s("serve", Some(0), 1.0, 4.0),
            s("serve", Some(0), 2.0, 6.0),
        ];
        spans[2].counted = false;
        spans[3].counted = false;
        let t = layer_self_times(&spans);
        assert_eq!(t["serve"], 5.0);
        assert_eq!(t["harness"], 5.0);
    }

    #[test]
    fn self_times_sum_to_the_root_span() {
        let spans = vec![
            s("harness", None, 0.0, 10.0),
            s("driver", Some(0), 1.0, 7.0),
            s("rdl", Some(1), 1.0, 4.0),
            s("core", Some(1), 4.0, 6.5),
            s("solver", Some(0), 7.0, 9.0),
        ];
        let t = layer_self_times(&spans);
        assert_eq!(t["harness"], 2.0);
        assert_eq!(t["driver"], 0.5);
        assert_eq!(t["rdl"], 3.0);
        assert_eq!(t["core"], 2.5);
        assert_eq!(t["solver"], 2.0);
        assert!((t.values().sum::<f64>() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_subtracted_twice() {
        let spans = vec![
            s("harness", None, 0.0, 4.0),
            s("a", Some(0), 1.0, 3.0),
            s("b", Some(0), 2.0, 5.0),
        ];
        let t = layer_self_times(&spans);
        // Children cover [1, 4] of the root.
        assert_eq!(t["harness"], 1.0);
    }

    #[test]
    fn spans_nest_and_tracing_off_records_nothing() {
        let tracer = Tracer::new();
        let v = span(Some(&tracer), "outer", "harness", || {
            span(Some(&tracer), "inner", "core", || 7)
        });
        assert_eq!(v, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_s >= spans[1].end_s);
        assert_eq!(span(None, "x", "core", || 3), 3);
    }
}
