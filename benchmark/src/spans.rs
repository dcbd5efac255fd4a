//! Benchmark-side spans around the calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. A disabled
//! recorder costs one branch per call, so the untraced runs that produce
//! the end-to-end metrics go through the same code.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Json};

/// Trace-op id of spans that belong to no single operation.
pub const NO_OP: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Index of the trace operation this span served ([`NO_OP`] if none);
    /// the spans of one operation share it.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of the spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

impl NameTotals {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Mean span duration in µs (0 when there were no spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / self.count as f64
        }
    }
}

#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn disabled() -> Self {
        Spans::new(false)
    }

    pub fn enabled() -> Self {
        Spans::new(true)
    }

    fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, op: u32) {
        if self.enabled {
            let at = self.now_ns();
            self.enter_at(name, op, at);
        }
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if self.enabled {
            let at = self.now_ns();
            self.exit_at(at);
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn scope<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    fn enter_at(&mut self, name: &'static str, op: u32, at: u64) {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: at,
            end_ns: at,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
    }

    fn exit_at(&mut self, at: u64) {
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx as usize].end_ns = at;
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_times_ns();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(own) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// The span file: a per-name summary, then every span as
    /// `[name index, start ns, end ns, parent index or -1, op or -1]`.
    pub fn to_json(&self) -> Json {
        let totals = self.totals();
        let names: Vec<&'static str> = totals.keys().copied().collect();
        let summary = totals
            .iter()
            .map(|(name, t)| {
                (
                    (*name).to_owned(),
                    obj([
                        ("count", t.count.into()),
                        ("total_s", t.total_s().into()),
                        ("self_s", (t.self_ns as f64 / 1e9).into()),
                    ]),
                )
            })
            .collect();
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let name = names.binary_search(&s.name).expect("name was totalled");
                let parent = s.parent.map_or(-1.0, f64::from);
                let op = if s.op == NO_OP { -1.0 } else { f64::from(s.op) };
                Json::Arr(vec![
                    name.into(),
                    s.start_ns.into(),
                    s.end_ns.into(),
                    parent.into(),
                    op.into(),
                ])
            })
            .collect();
        obj([
            ("schema", "cbps-benchmark-spans/v1".into()),
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "op"]
                        .into_iter()
                        .map(Json::from)
                        .collect(),
                ),
            ),
            (
                "names",
                Json::Arr(names.into_iter().map(Json::from).collect()),
            ),
            ("summary", Json::Obj(summary)),
            ("spans", Json::Arr(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::enabled();
        s.enter_at("repeat", NO_OP, 0);
        s.enter_at("build", NO_OP, 10);
        s.exit_at(40);
        s.enter_at("publish", 7, 50);
        s.enter_at("inner", 7, 55);
        s.exit_at(60);
        s.exit_at(70);
        s.exit_at(100);

        assert_eq!(s.len(), 4);
        // repeat: 100 - (30 + 20); publish: 20 - 5.
        assert_eq!(s.self_times_ns(), vec![50, 30, 15, 5]);
        let totals = s.totals();
        assert_eq!(
            totals["publish"],
            NameTotals {
                count: 1,
                total_ns: 20,
                self_ns: 15
            }
        );
        assert_eq!(s.spans[2].parent, Some(0));
        assert_eq!(s.spans[3].parent, Some(2));
        assert_eq!(s.spans[3].op, 7);
        assert_eq!(totals["build"].total_s(), 30e-9);
        assert_eq!(totals["inner"].mean_us(), 0.005);
        assert_eq!(NameTotals::default().mean_us(), 0.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::disabled();
        let out = s.scope("x", NO_OP, || 42);
        assert_eq!(out, 42);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn span_file_lists_names_summary_and_rows() {
        let mut s = Spans::enabled();
        s.enter_at("b", NO_OP, 0);
        s.enter_at("a", 3, 1);
        s.exit_at(2);
        s.exit_at(5);
        let doc = s.to_json();
        assert_eq!(doc.get("names").unwrap().to_line(), r#"["a","b"]"#);
        assert_eq!(
            doc.get("spans").unwrap().to_line(),
            "[[1,0,5,-1,-1],[0,1,2,0,3]]"
        );
        let a = doc.get("summary").unwrap().get("a").unwrap();
        assert_eq!(a.get("count"), Some(&Json::Num(1.0)));
    }
}
