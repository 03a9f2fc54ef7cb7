//! Spans around the benchmark's calls into the service, kept in memory and
//! written out when a traced run ends, and the self-time arithmetic that
//! turns them into per-layer times.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// A named interval of one operation, in nanoseconds since the trace
/// origin; `parent` indexes the span that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// The spans of one run.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Offset of `t` from the origin, in nanoseconds.
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Appends a span and returns its index.
    pub fn push(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            op,
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of the interval `span`: its length minus the part the union
/// of `children` covers, each child clipped to the span.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = span.0;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.1.saturating_sub(span.0) - covered
}

/// Positions for spans known only by their durations, laid end to end
/// from `start`.
pub fn laid_out(start: u64, durations: &[u64]) -> Vec<(u64, u64)> {
    let mut at = start;
    durations
        .iter()
        .map(|&d| {
            let span = (at, at + d);
            at += d;
            span
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children_inside_the_span() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 40)]), 80);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(40, 60), (10, 50)]), 50);
        // Children reaching outside the span are clipped to it.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        assert_eq!(self_time((0, 10), &[(0, 10), (2, 3)]), 0);
    }

    #[test]
    fn laid_out_children_past_the_span_leave_no_self_time() {
        let kids = laid_out(5, &[30, 40]);
        assert_eq!(kids, vec![(5, 35), (35, 75)]);
        assert_eq!(self_time((5, 105), &kids), 30);
        assert_eq!(self_time((5, 55), &kids), 0);
    }
}
