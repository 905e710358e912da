//! Host-time spans around the benchmark's calls into each simulator layer.
//!
//! Every repetition times its phases through a [`Recorder`]. An untraced
//! recorder only measures durations (the end-to-end metrics need them); a
//! traced one also keeps each span — name, start, end and the span that
//! encloses it — in memory, so the run can write them out when it ends.

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the process's first
/// recorder was created, so spans of different repetitions line up.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub rep: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Times phases and, when traced, keeps them as [`Span`]s.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    rep: u32,
    traced: bool,
    spans: Vec<Span>,
    /// Ids of the spans currently open, innermost last.
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(origin: Instant, rep: u32, traced: bool) -> Self {
        Recorder {
            origin,
            rep,
            traced,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// duration. Spans opened inside `f` through `self` become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, Duration) {
        let start = Instant::now();
        let id = self.spans.len() as u32;
        if self.traced {
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                rep: self.rep,
                name,
                start_ns: self.nanos(start),
                end_ns: 0,
            });
            self.open.push(id);
        }
        let out = f(self);
        let end = Instant::now();
        if self.traced {
            self.open.pop();
            self.spans[id as usize].end_ns = self.nanos(end);
        }
        (out, end - start)
    }

    fn nanos(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// The spans recorded so far (empty when untraced).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes spans as JSON lines, renumbering ids so they are unique across
/// repetitions (each repetition's recorder numbers from zero).
pub fn write_jsonl<'a>(
    w: &mut impl Write,
    reps: impl IntoIterator<Item = &'a [Span]>,
) -> io::Result<()> {
    let mut base = 0u32;
    for spans in reps {
        for s in spans {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| (p + base).to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"rep\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id + base,
                s.rep,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        base += spans.len() as u32;
    }
    Ok(())
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children never overlap: a recorder runs one span at a
/// time). Returned as `(name, self_ns)` in recording order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .map(|s| {
            (
                s.name,
                (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut r = Recorder::new(Instant::now(), 0, true);
        r.span("outer", |r| {
            r.span("a", |_| ());
            r.span("b", |r| r.span("c", |_| ()));
        });
        let spans = r.into_spans();
        let parents: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("outer", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let selfs = self_times(&spans);
        assert_eq!(selfs.len(), 4);
    }

    #[test]
    fn untraced_recorder_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), 0, false);
        let (inner, _) = r.span("x", |r| r.span("y", |_| 7).0);
        assert_eq!(inner, 7);
        assert!(r.into_spans().is_empty());
    }
}
