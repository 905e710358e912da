//! Chrome Trace Event JSON exporter.
//!
//! Emits the JSON Array-of-objects format understood by Perfetto and
//! `chrome://tracing`: `"X"` complete slices for resource spans, `"b"`/`"e"`
//! async pairs for request/job lifecycles, `"i"` instants for faults and
//! markers, and `"M"` metadata events naming one track per channel, die and
//! router. Timestamps are microseconds with nanosecond precision
//! (fractional `ts`), which both viewers accept.
//!
//! Written by hand — the workspace is dependency-free by design, so there
//! is no serde here; [`crate::json`] provides the matching parser used to
//! validate emitted files in CI.

use std::collections::BTreeSet;
use std::io::{self, Write};

use crate::span::{TraceEvent, Track};
use crate::tracer::Tracer;

/// Escape a string for inclusion in a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds as the microseconds Chrome Trace timestamps and
/// durations are given in.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1_000.0)
}

/// Write the retained events of `tracer` as a Chrome Trace JSON document.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace(tracer: &Tracer, w: &mut impl Write) -> io::Result<()> {
    let mut lanes: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut lane_meta: Vec<(Track, u64, u64)> = Vec::new();
    for ev in tracer.events() {
        let track = match *ev {
            TraceEvent::Span { track, .. }
            | TraceEvent::Begin { track, .. }
            | TraceEvent::End { track, .. }
            | TraceEvent::Instant { track, .. } => track,
        };
        let lane = (track.pid(), track.tid());
        if lanes.insert(lane) {
            lane_meta.push((track, lane.0, lane.1));
        }
    }
    lane_meta.sort_by_key(|&(_, pid, tid)| (pid, tid));

    writeln!(w, "{{\"traceEvents\":[")?;
    let mut first = true;
    let mut sep = |w: &mut dyn Write| -> io::Result<()> {
        if first {
            first = false;
            Ok(())
        } else {
            writeln!(w, ",")
        }
    };

    let mut pids_named: BTreeSet<u64> = BTreeSet::new();
    for &(track, pid, tid) in &lane_meta {
        if pids_named.insert(pid) {
            sep(w)?;
            write!(
                w,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(track.process_name())
            )?;
            sep(w)?;
            write!(
                w,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_sort_index\",\
                 \"args\":{{\"sort_index\":{pid}}}}}"
            )?;
        }
        sep(w)?;
        write!(
            w,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(&track.thread_name())
        )?;
    }

    for ev in tracer.events() {
        sep(w)?;
        match *ev {
            TraceEvent::Span {
                track,
                stage: _,
                name,
                class,
                id,
                start,
                dur,
            } => {
                write!(
                    w,
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
                     \"ts\":{},\"dur\":{},\"args\":{{\"owner\":\"{:#x}\"}}}}",
                    track.pid(),
                    track.tid(),
                    escape(name),
                    class.cat(),
                    us(start.as_ns()),
                    us(dur.as_ns()),
                    id
                )?;
            }
            TraceEvent::Begin {
                track,
                class,
                id,
                name,
                t,
            } => {
                write!(
                    w,
                    "{{\"ph\":\"b\",\"pid\":{},\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
                     \"id\":\"{:#x}\",\"ts\":{}}}",
                    track.pid(),
                    track.tid(),
                    escape(name),
                    class.cat(),
                    id,
                    us(t.as_ns())
                )?;
            }
            TraceEvent::End {
                track,
                class,
                id,
                name,
                t,
                failed,
            } => {
                write!(
                    w,
                    "{{\"ph\":\"e\",\"pid\":{},\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
                     \"id\":\"{:#x}\",\"ts\":{},\"args\":{{\"failed\":{}}}}}",
                    track.pid(),
                    track.tid(),
                    escape(name),
                    class.cat(),
                    id,
                    us(t.as_ns()),
                    failed
                )?;
            }
            TraceEvent::Instant { track, name, t } => {
                write!(
                    w,
                    "{{\"ph\":\"i\",\"pid\":{},\"tid\":{},\"name\":\"{}\",\"ts\":{},\
                     \"s\":\"t\"}}",
                    track.pid(),
                    track.tid(),
                    escape(name),
                    us(t.as_ns())
                )?;
            }
        }
    }

    writeln!(w)?;
    writeln!(
        w,
        "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"recorded\":{},\"pruned\":{},\
         \"unfinished\":{}}}}}",
        tracer.events_recorded(),
        tracer.events_pruned(),
        tracer.open_entities()
    )?;
    Ok(())
}

/// Render the trace to an in-memory string (convenience for tests).
#[must_use]
pub fn chrome_trace_string(tracer: &Tracer) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(tracer, &mut buf).expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Class, Stage};
    use crate::tracer::TraceConfig;
    use dssd_kernel::{SimSpan, SimTime};

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn exports_all_event_kinds() {
        let mut tr = Tracer::enabled(TraceConfig::default());
        tr.begin(Class::Io, 1, "read", SimTime::from_ns(1_000));
        tr.span(
            Class::Io,
            1,
            Track::ChannelBus(2),
            Stage::FlashBus,
            SimTime::from_ns(1_500),
            SimSpan::from_ns(2_500),
        );
        tr.instant(Track::Faults, "program failure", SimTime::from_ns(2_000));
        tr.end(
            Class::Io,
            1,
            "read",
            SimTime::from_ns(9_000),
            false,
            &[SimSpan::ZERO; 6],
        );
        let json = chrome_trace_string(&tr);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("ch 2 bus"));
        // Fractional-microsecond timestamps.
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.500"));
    }
}
