//! In-memory spans around the benchmark's calls into the system under test.
//!
//! A span is `(name, start, end, parent, op)`. They are kept in memory while
//! a traced run measures and written out when it ends; a layer's self time
//! is its span's duration minus the part its children cover. Spans are
//! recorded only from the benchmark's own files, never inside the program.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one operation (a cycle, a publish).
    pub op: u64,
}

/// One thread's span recorder. Disabled tracers cost one branch per call,
/// so the same workload code runs traced and untraced.
pub struct Tracer {
    origin: Instant,
    /// Toggled by the workload between cycles to compare traced against
    /// untraced cycles inside one run.
    pub enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer { origin, enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`; nested calls become children.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Count, total and self time of every span name in one tracer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time = own duration minus the duration of direct children.
/// Children of one parent never overlap (one thread, strictly nested), so
/// subtracting their durations is subtracting what they cover.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Merges per-thread totals.
pub fn merge_totals(
    into: &mut BTreeMap<&'static str, NameTotals>,
    from: BTreeMap<&'static str, NameTotals>,
) {
    for (name, t) in from {
        let e = into.entry(name).or_default();
        e.count += t.count;
        e.total_ns += t.total_ns;
        e.self_ns += t.self_ns;
    }
}

/// Writes one thread's spans as JSON lines
/// (`{"thread":..,"id":..,"name":..,"start_ns":..,"end_ns":..,"parent":..,"op":..}`).
pub fn write_json_lines(w: &mut impl Write, thread: usize, spans: &[Span]) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"thread\":{thread},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // cycle [0,100) { publish [10,40), tick [50,90) { decode [60,70) } }
        let spans = vec![
            span("cycle", 0, 100, None),
            span("publish", 10, 40, Some(0)),
            span("tick", 50, 90, Some(0)),
            span("decode", 60, 70, Some(2)),
            span("cycle", 100, 160, None),
            span("publish", 100, 150, Some(4)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["cycle"], NameTotals { count: 2, total_ns: 160, self_ns: 30 + 10 });
        assert_eq!(t["publish"], NameTotals { count: 2, total_ns: 80, self_ns: 80 });
        assert_eq!(t["tick"], NameTotals { count: 1, total_ns: 40, self_ns: 30 });
        assert_eq!(t["decode"], NameTotals { count: 1, total_ns: 10, self_ns: 10 });
        // Self times partition the root spans' wall time.
        let self_sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, 160);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(Instant::now(), true);
        let got = tr.span("cycle", 7, |tr| {
            tr.span("publish", 7, |_| ());
            tr.enabled = false;
            tr.span("hidden", 7, |_| ());
            tr.enabled = true;
            tr.span("tick", 7, |_| 5)
        });
        assert_eq!(got, 5);
        let spans = tr.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(shape, vec![("cycle", None, 7), ("publish", Some(0), 7), ("tick", Some(0), 7)]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn json_lines_carry_every_field() {
        let mut buf = Vec::new();
        write_json_lines(&mut buf, 1, &[span("tick", 5, 9, None), span("x", 6, 7, Some(0))])
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text.lines().next().unwrap(),
            "{\"thread\":1,\"id\":0,\"name\":\"tick\",\"start_ns\":5,\"end_ns\":9,\"parent\":null,\"op\":0}"
        );
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
