//! Block-trace representation and CSV (de)serialization.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use dssd_kernel::{SimSpan, SimTime};

use crate::{Op, Request};

/// The largest `bytes` a parsed trace record may carry: 4 GiB − 1.
///
/// A span of `n ≥ 1` bytes touches at most `n` pages of any page size,
/// so under this bound every record's page count fits a [`Request`]'s
/// `u32` page field, whatever page size [`Trace::to_requests`] is given.
const MAX_RECORD_BYTES: u64 = u32::MAX as u64;

/// One trace record: a timestamped block I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival time relative to trace start.
    pub at: SimTime,
    /// Direction.
    pub op: Op,
    /// Byte offset within the volume.
    pub offset: u64,
    /// Request size in bytes.
    pub bytes: u64,
}

/// A block I/O trace (MSR-Cambridge-style), time-sorted.
///
/// # Example
///
/// ```
/// use dssd_workload::{Trace, TraceRecord, Op};
/// use dssd_kernel::SimTime;
///
/// let t = Trace::new(vec![
///     TraceRecord { at: SimTime::ZERO, op: Op::Write, offset: 0, bytes: 4096 },
///     TraceRecord { at: SimTime::from_us(5), op: Op::Read, offset: 8192, bytes: 4096 },
/// ]);
/// assert_eq!(t.len(), 2);
/// assert!((t.read_ratio() - 0.5).abs() < 1e-9);
/// let csv = t.to_csv();
/// assert_eq!(csv.parse::<Trace>().unwrap(), t);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates a trace, sorting records by time (stable).
    #[must_use]
    pub fn new(mut records: Vec<TraceRecord>) -> Self {
        records.sort_by_key(|r| r.at);
        Trace { records }
    }

    /// The records, time-sorted.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace has no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fraction of records that are reads (0 for an empty trace).
    #[must_use]
    pub fn read_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let reads = self.records.iter().filter(|r| r.op == Op::Read).count();
        reads as f64 / self.records.len() as f64
    }

    /// Total bytes moved.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.bytes).sum()
    }

    /// Duration from first to last arrival.
    #[must_use]
    pub fn duration(&self) -> SimSpan {
        match (self.records.first(), self.records.last()) {
            (Some(f), Some(l)) => l.at - f.at,
            _ => SimSpan::ZERO,
        }
    }

    /// Converts records to page-granular [`Request`]s for a logical space
    /// of `lpn_count` pages of `page_bytes` bytes. Offsets wrap modulo the
    /// space (traces come from volumes larger or smaller than the
    /// simulated SSD).
    #[must_use]
    pub fn to_requests(&self, page_bytes: u32, lpn_count: u64) -> Vec<(SimTime, Request)> {
        let pb = page_bytes as u64;
        self.records
            .iter()
            .map(|r| {
                let first = r.offset / pb;
                let last = (r.offset + r.bytes.max(1) - 1) / pb;
                let pages = (last - first + 1) as u32;
                let lpn = first % lpn_count.saturating_sub(pages as u64).max(1);
                (r.at, Request::new(r.op, lpn, pages))
            })
            .collect()
    }

    /// Returns a copy with arrival times divided by `factor` — replaying
    /// the same request mix at higher intensity (used to stress the
    /// simulated SSD with enough requests for stable tail percentiles).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    #[must_use]
    pub fn accelerate(&self, factor: f64) -> Trace {
        assert!(factor > 0.0, "factor must be positive");
        Trace::new(
            self.records
                .iter()
                .map(|r| TraceRecord {
                    at: dssd_kernel::SimTime::from_ns(
                        (r.at.as_ns() as f64 / factor) as u64,
                    ),
                    ..*r
                })
                .collect(),
        )
    }

    /// Serializes to the CSV format `timestamp_ns,op,offset,bytes`
    /// (op is `R` or `W`). Timestamps are in nanoseconds so synthesized
    /// traces round-trip losslessly.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 24);
        for r in &self.records {
            let op = if r.op == Op::Read { 'R' } else { 'W' };
            out.push_str(&format!("{},{},{},{}\n", r.at.as_ns(), op, r.offset, r.bytes));
        }
        out
    }
}

/// Error from parsing a trace CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for TraceParseError {}

/// Parses the CSV format of [`Trace::to_csv`]; blank lines and `#`
/// comments are skipped. A record's size may be at most 4 GiB − 1 bytes,
/// so its page count fits a [`Request`], and its byte range must end
/// within `u64`; any other record is an error naming its line.
impl FromStr for Trace {
    type Err = TraceParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut records = Vec::new();
        for (i, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: String| TraceParseError { line: i + 1, message };
            let mut parts = line.split(',');
            let mut field = |name: &str| {
                parts
                    .next()
                    .map(str::trim)
                    .filter(|f| !f.is_empty())
                    .ok_or_else(|| err(format!("missing field `{name}`")))
            };
            let ts: u64 = field("timestamp_ns")?
                .parse()
                .map_err(|e| err(format!("bad timestamp: {e}")))?;
            let op = match field("op")? {
                "R" | "r" => Op::Read,
                "W" | "w" => Op::Write,
                other => return Err(err(format!("bad op `{other}` (want R or W)"))),
            };
            let offset: u64 = field("offset")?
                .parse()
                .map_err(|e| err(format!("bad offset: {e}")))?;
            let bytes: u64 = field("bytes")?
                .parse()
                .map_err(|e| err(format!("bad size: {e}")))?;
            if bytes > MAX_RECORD_BYTES {
                return Err(err(format!(
                    "size {bytes} exceeds the {MAX_RECORD_BYTES}-byte limit of one record"
                )));
            }
            // `to_requests` reads the span's last byte as offset + max(bytes, 1) - 1.
            if offset.checked_add(bytes.max(1)).is_none() {
                return Err(err(format!(
                    "byte range at offset {offset} of {bytes} bytes overflows u64"
                )));
            }
            records.push(TraceRecord { at: SimTime::from_ns(ts), op, offset, bytes });
        }
        Ok(Trace::new(records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(us: u64, op: Op, offset: u64, bytes: u64) -> TraceRecord {
        TraceRecord { at: SimTime::from_us(us), op, offset, bytes }
    }

    #[test]
    fn sorts_on_construction() {
        let t = Trace::new(vec![
            rec(10, Op::Read, 0, 512),
            rec(5, Op::Write, 0, 512),
        ]);
        assert_eq!(t.records()[0].at, SimTime::from_us(5));
        assert_eq!(t.duration(), SimSpan::from_us(5));
    }

    #[test]
    fn csv_round_trip() {
        let t = Trace::new(vec![
            rec(1, Op::Write, 4096, 8192),
            rec(2, Op::Read, 0, 512),
        ]);
        let parsed: Trace = t.to_csv().parse().unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn parser_skips_comments_and_blanks() {
        let src = "# header\n\n1000,R,0,4096\n";
        let t: Trace = src.parse().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.records()[0].op, Op::Read);
        assert_eq!(t.records()[0].at, SimTime::from_us(1));
    }

    #[test]
    fn parser_reports_line_numbers() {
        let src = "1000,R,0,4096\n2000,X,0,4096\n";
        let err = src.parse::<Trace>().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("bad op"));
    }

    #[test]
    fn parser_rejects_records_larger_than_a_request() {
        // 16 TiB: 2^32 pages of 4 KiB, one more than a request can hold.
        let err = "0,W,0,17592186044416".parse::<Trace>().unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("exceeds the 4294967295-byte limit"), "{err}");
        let t: Trace = format!("# hdr\n0,W,0,{MAX_RECORD_BYTES}\n").parse().unwrap();
        assert_eq!(t.to_requests(1, 1 << 40)[0].1.pages, u32::MAX);
    }

    #[test]
    fn parser_rejects_byte_ranges_past_u64() {
        let err = "5,R,0,4096\n0,W,18446744073709551615,4096\n".parse::<Trace>().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("overflows u64"), "{err}");
        let err = "0,W,18446744073709551615,0".parse::<Trace>().unwrap_err();
        assert!(err.message.contains("overflows u64"), "{err}");
        let last = format!("0,W,{},4096", u64::MAX - 8191);
        let t: Trace = last.parse().unwrap();
        assert_eq!(t.to_requests(4096, 1000)[0].1.pages, 1);
    }

    /// Any record the parser accepts converts, without a panic (overflow
    /// checks are on in debug), to a request of exactly the pages its
    /// byte range touches, at least one.
    #[test]
    fn parsed_records_always_convert_to_requests() {
        dssd_kernel::check(2000, 0x7ACE_0000, |rng| {
            // Half the draws span the full u64 range, half sit near the
            // two limits the parser enforces.
            let draw = |rng: &mut dssd_kernel::Rng| match rng.range_u64(0..4) {
                0 | 1 => rng.next_u64(),
                2 => u64::MAX - rng.range_u64(0..1 << 20),
                _ => MAX_RECORD_BYTES - (1 << 10) + rng.range_u64(0..1 << 11),
            };
            let (offset, bytes) = (draw(rng), draw(rng));
            let page_bytes = [1, 512, 4096, 16384, u32::MAX][rng.index(5)];
            let lpn_count = rng.range_u64(1..u64::MAX);
            let line = format!("{},W,{offset},{bytes}", rng.next_u64());
            let Ok(trace) = line.parse::<Trace>() else { return Ok(()) };
            let (first, last) = (u128::from(offset), u128::from(offset) + u128::from(bytes.max(1)) - 1);
            let pb = u128::from(page_bytes);
            let want = last / pb - first / pb + 1;
            let got = trace.to_requests(page_bytes, lpn_count)[0].1.pages;
            if u128::from(got) == want {
                Ok(())
            } else {
                Err(format!("`{line}` at {page_bytes} B pages gave {got} pages, want {want}"))
            }
        });
    }

    #[test]
    fn parser_rejects_missing_fields() {
        let err = "1000,R,0".parse::<Trace>().unwrap_err();
        assert!(err.message.contains("missing field"));
    }

    #[test]
    fn requests_are_page_granular() {
        let t = Trace::new(vec![rec(0, Op::Write, 4000, 5000)]);
        // bytes 4000..9000 with 4 KB pages spans pages 0..=2
        let reqs = t.to_requests(4096, 1_000_000);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].1.pages, 3);
    }

    #[test]
    fn request_offsets_wrap_into_space() {
        let t = Trace::new(vec![rec(0, Op::Read, u64::MAX / 2, 4096)]);
        let reqs = t.to_requests(4096, 1000);
        assert!(reqs[0].1.lpn + reqs[0].1.pages as u64 <= 1000);
    }

    #[test]
    fn stats() {
        let t = Trace::new(vec![
            rec(0, Op::Read, 0, 100),
            rec(1, Op::Read, 0, 100),
            rec(2, Op::Write, 0, 300),
        ]);
        assert!((t.read_ratio() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(t.total_bytes(), 500);
    }

    #[test]
    fn accelerate_compresses_time() {
        let t = Trace::new(vec![rec(100, Op::Read, 0, 512)]);
        let fast = t.accelerate(10.0);
        assert_eq!(fast.records()[0].at, SimTime::from_us(10));
        assert_eq!(fast.len(), 1);
    }

    #[test]
    fn empty_trace_is_sane() {
        let t = Trace::new(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.read_ratio(), 0.0);
        assert_eq!(t.duration(), SimSpan::ZERO);
        assert_eq!("".parse::<Trace>().unwrap(), t);
    }
}
