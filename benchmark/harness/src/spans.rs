//! Span records and the self-time rule.
//!
//! A span is one timed interval at a layer boundary. Spans are kept in
//! memory while the traced run measures and dumped as JSON lines when
//! it ends (`spans.jsonl`: one object per line with exactly the fields
//! of [`Span`]). A layer's *self time* is its span's duration minus the
//! part of that interval its child spans cover.

use std::io::{self, Write};

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `sim.advance`.
    pub name: &'static str,
    /// Start, nanoseconds since the traced run began.
    pub start_ns: u64,
    /// End, nanoseconds since the traced run began.
    pub end_ns: u64,
    /// Index (in the span list) of the span that caused this one.
    pub parent: Option<u32>,
    /// The control epoch all spans of one period share.
    pub epoch: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span, in list order: duration minus the union of
/// its children's intervals (clipped to the span itself, so a child that
/// overruns its parent cannot drive the result negative).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(parent) = spans.get(p as usize) {
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p as usize].push((lo, hi));
                }
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// Propagates the writer's errors.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"epoch\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.epoch
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        // epoch [0,100) with advance [5,85) and two reads; advance has a
        // grandchild that must not be charged to the epoch twice.
        let spans = vec![
            span("epoch", 0, 100, None),
            span("sim.advance", 5, 85, Some(0)),
            span("rdt.read_counters", 86, 88, Some(0)),
            span("rdt.read_counters", 88, 90, Some(0)),
            span("sim.tick", 10, 40, Some(1)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 80 - 2 - 2, 80 - 30, 2, 2, 30]
        );
    }

    #[test]
    fn overlapping_and_overrunning_children_are_not_double_counted() {
        let spans = vec![
            span("epoch", 10, 50, None),
            span("a", 20, 40, Some(0)),
            span("b", 30, 45, Some(0)), // overlaps a on [30,40)
            span("c", 48, 60, Some(0)), // overruns the parent by 10
            span("d", 0, 12, Some(0)),  // starts before the parent
        ];
        // union inside [10,50): [10,12) + [20,45) + [48,50) = 2 + 25 + 2
        assert_eq!(self_times(&spans)[0], 40 - 29);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let spans = vec![
            span("epoch", 0, 1000, None),
            span("x", 100, 400, Some(0)),
            span("y", 150, 300, Some(1)),
            span("z", 500, 900, Some(0)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn jsonl_has_the_documented_fields() {
        let mut buf = Vec::new();
        write_jsonl(
            &mut buf,
            &[
                span("epoch", 1, 9, None),
                span("sim.advance", 2, 8, Some(0)),
            ],
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "{\"name\":\"epoch\",\"start_ns\":1,\"end_ns\":9,\"parent\":null,\"epoch\":0}\n\
             {\"name\":\"sim.advance\",\"start_ns\":2,\"end_ns\":8,\"parent\":0,\"epoch\":0}\n"
        );
    }
}
