//! In-memory spans recorded by the harness around its calls into a layer.
//!
//! A span is (id, parent, name, start ns, end ns, ops). Spans stay in
//! memory while the workload runs and are written out once at the end;
//! a span's self time is its duration minus its children's. Recording can
//! be switched per rep, which is how a traced run measures its own cost.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::sut::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// What the harness was calling.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Operations the span covered (1 unless a replay batch says more).
    pub ops: u64,
}

/// A span recorder; one per thread, merged with [`Spans::absorb`].
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder measuring from `origin`; `on` = record anything at all.
    pub fn new(origin: Instant, on: bool) -> Self {
        Spans {
            origin,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording; spans already open still close.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Pair with [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            ops: 1,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `enter` returned, crediting it with `ops` operations.
    pub fn exit(&mut self, id: Option<usize>, ops: u64) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
        self.spans[id].ops = ops;
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: (count, ops, total ns, self ns).
    pub fn rollup(&self) -> BTreeMap<&'static str, (u64, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64, u64)> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ops;
            e.2 += total;
            e.3 += total.saturating_sub(children);
        }
        out
    }

    /// The trace document: every span plus the per-name rollup.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let uint = Json::UInt;
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Object(vec![
                    ("id".into(), uint(id as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| uint(p as u64)),
                    ),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), uint(s.start_ns)),
                    ("end_ns".into(), uint(s.end_ns)),
                    ("ops".into(), uint(s.ops)),
                ])
            })
            .collect();
        let rollup = self
            .rollup()
            .into_iter()
            .map(|(name, (count, ops, total, own))| {
                Json::Object(vec![
                    ("name".into(), Json::Str(name.into())),
                    ("count".into(), uint(count)),
                    ("ops".into(), uint(ops)),
                    ("total_ns".into(), uint(total)),
                    ("self_ns".into(), uint(own)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), uint(seed)),
            ("rollup".into(), Json::Array(rollup)),
            ("spans".into(), Json::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut s = Spans::new(Instant::now(), true);
        let rep = s.enter("rep");
        let run = s.enter("sim.run");
        s.exit(run, 1);
        s.exit(rep, 1);
        s.set_on(false);
        assert_eq!(s.enter("rep"), None);
        let r = s.rollup();
        let (count, _, total, own) = r["rep"];
        assert_eq!(count, 1);
        assert_eq!(own, total - r["sim.run"].2);
        assert_eq!(s.spans[1].parent, Some(0));
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Spans::new(origin, true);
        let x = a.enter("request");
        a.exit(x, 1);
        let mut b = Spans::new(origin, true);
        let y = b.enter("request");
        let z = b.enter("client.write");
        b.exit(z, 1);
        b.exit(y, 1);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
