//! A minimal JSON parser and Chrome Trace Event schema validator.
//!
//! The workspace is dependency-free, so trace files emitted by
//! [`crate::chrome`] are validated with this hand-rolled recursive-descent
//! parser instead of an external crate. It accepts strict JSON (RFC 8259)
//! and is only used offline — in tests and `dssd-cli trace-validate` —
//! never on the simulation hot path.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is normalized (sorted) — Chrome Trace
    /// consumers are order-insensitive.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object member lookup, `None` for non-objects / missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// A parse or validation error with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the problem was found.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// How deep containers may nest: far beyond any document this crate
/// writes, and shallow enough that the recursive parser cannot overflow
/// its stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            message: msg.into(),
            offset: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    /// Parses a container from its `open` byte through its `close` byte,
    /// handing each comma-separated member to `member`. Containers nest
    /// at most [`MAX_DEPTH`] deep, so hostile input cannot exhaust the
    /// stack.
    fn container(
        &mut self,
        open: u8,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("containers nest deeper than {MAX_DEPTH} levels"));
        }
        self.expect(open)?;
        self.depth += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                member(self)?;
                self.skip_ws();
                if self.peek() != Some(b',') {
                    break;
                }
                self.pos += 1;
            }
        }
        if self.peek() != Some(close) {
            let what = if close == b'}' { "object" } else { "array" };
            return self.err(format!("expected ',' or '{}' in {what}", close as char));
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        let mut map = BTreeMap::new();
        self.container(b'{', b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            map.insert(key, p.value()?);
            Ok(())
        })?;
        Ok(Json::Obj(map))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.container(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: accept and combine; lone
                            // surrogates become U+FFFD.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                        }
                        _ => return self.err("invalid escape sequence"),
                    }
                }
                Some(_) => {
                    // Consume the maximal run of plain bytes in one step
                    // (validating only the run keeps parsing O(n); the
                    // delimiter bytes below never occur inside a multi-byte
                    // UTF-8 sequence, so a byte scan is safe).
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| JsonError {
                            message: "invalid UTF-8 in string".into(),
                            offset: start,
                        })?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return self.err("truncated \\u escape");
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok());
        match hex {
            Some(v) => {
                self.pos += 4;
                Ok(v)
            }
            None => self.err("invalid \\u escape"),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => self.err(format!("invalid number '{text}'")),
        }
    }
}

/// Parse a complete JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first syntax error,
/// including trailing garbage after the document.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing data after JSON document");
    }
    Ok(v)
}

/// Counts gathered while validating a Chrome Trace document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceFileStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// `"X"` complete slices.
    pub spans: usize,
    /// `"i"` instants.
    pub instants: usize,
    /// `"b"` + `"e"` async events.
    pub asyncs: usize,
    /// `"M"` metadata events.
    pub metadata: usize,
}

/// Validate a Chrome Trace Event document against the schema subset this
/// crate emits (and Perfetto requires).
///
/// Checks: top level is an object with a `traceEvents` array; every event
/// is an object with a known `ph`, string `name`, numeric `pid`/`tid`, a
/// numeric non-negative `ts` (except metadata), a non-negative numeric
/// `dur` on `"X"` events, and an `id` on async events.
///
/// # Errors
///
/// Returns the first schema violation found, or the underlying parse error.
pub fn validate_chrome_trace(input: &str) -> Result<TraceFileStats, JsonError> {
    let doc = parse(input)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| JsonError {
            message: "top level must be an object with a 'traceEvents' array".into(),
            offset: 0,
        })?;
    let mut stats = TraceFileStats::default();
    for (i, ev) in events.iter().enumerate() {
        let fail = |msg: String| JsonError {
            message: format!("traceEvents[{i}]: {msg}"),
            offset: 0,
        };
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string 'ph'".into()))?;
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string 'name'".into()))?;
        for key in ["pid", "tid"] {
            ev.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| fail(format!("missing numeric '{key}'")))?;
        }
        let ts = ev.get("ts").and_then(Json::as_f64);
        match ph {
            "M" => stats.metadata += 1,
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| fail("'X' event missing numeric 'dur'".into()))?;
                if dur < 0.0 {
                    return Err(fail(format!("negative dur {dur}")));
                }
                check_ts(ts).map_err(fail)?;
                stats.spans += 1;
            }
            "i" => {
                check_ts(ts).map_err(fail)?;
                stats.instants += 1;
            }
            "b" | "e" => {
                ev.get("id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| fail("async event missing string 'id'".into()))?;
                check_ts(ts).map_err(fail)?;
                stats.asyncs += 1;
            }
            other => return Err(fail(format!("unknown phase '{other}'"))),
        }
        stats.events += 1;
    }
    Ok(stats)
}

fn check_ts(ts: Option<f64>) -> Result<(), String> {
    match ts {
        Some(t) if t >= 0.0 => Ok(()),
        Some(t) => Err(format!("negative ts {t}")),
        None => Err("missing numeric 'ts'".into()),
    }
}

/// Stats from a validated epoch JSONL export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochFileStats {
    /// Sample rows (JSONL lines).
    pub rows: usize,
    /// Columns in the (uniform) schema.
    pub columns: usize,
}

/// Validate an epoch time-series JSONL export
/// ([`crate::EpochSeries::write_jsonl`]).
///
/// Checks: every non-empty line is a flat JSON object of finite numbers;
/// every line carries the same key set as the first (one schema per
/// file); a `t_ms` column exists; and `t_ms` is strictly increasing —
/// epochs are fixed-interval, so equal or regressing timestamps mean a
/// corrupted or concatenated export.
///
/// # Errors
///
/// Returns a [`JsonError`] naming the offending line for the first
/// violation.
pub fn validate_epoch_jsonl(input: &str) -> Result<EpochFileStats, JsonError> {
    let mut stats = EpochFileStats::default();
    let mut schema: Vec<String> = Vec::new();
    let mut last_t = f64::NEG_INFINITY;
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |msg: String| JsonError {
            message: format!("line {}: {msg}", lineno + 1),
            offset: 0,
        };
        let Json::Obj(obj) = parse(line).map_err(|e| fail(e.message))? else {
            return Err(fail("each line must be a JSON object".into()));
        };
        for (key, val) in &obj {
            match val.as_f64() {
                Some(v) if v.is_finite() => {}
                _ => return Err(fail(format!("'{key}' must be a finite number"))),
            }
        }
        let keys: Vec<String> = obj.keys().cloned().collect();
        if stats.rows == 0 {
            if !obj.contains_key("t_ms") {
                return Err(fail("missing 't_ms' column".into()));
            }
            stats.columns = keys.len();
            schema = keys;
        } else if keys != schema {
            return Err(fail(format!(
                "column set {keys:?} differs from the first line's {schema:?}"
            )));
        }
        let t = obj["t_ms"].as_f64().expect("checked finite above");
        if t <= last_t {
            return Err(fail(format!(
                "t_ms {t} does not advance past the previous sample's {last_t}"
            )));
        }
        last_t = t;
        stats.rows += 1;
    }
    Ok(stats)
}

/// Stats from a validated `ServiceReport` JSON document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceFileStats {
    /// Tenant entries.
    pub tenants: usize,
    /// Total submissions across tenants.
    pub submitted: u64,
    /// Total completions across tenants.
    pub completed: u64,
    /// Total admission rejections (`Busy` completions) across tenants.
    pub rejected: u64,
}

/// Per-tenant counter fields every `ServiceReport` tenant entry carries.
const SERVICE_TENANT_COUNTERS: [&str; 6] =
    ["submitted", "completed", "rejected", "throttled", "expired", "failed"];

/// Latency-percentile fields every tenant entry carries, in
/// non-decreasing order.
const SERVICE_TENANT_LATENCIES: [&str; 4] = ["p50_us", "p95_us", "p99_us", "max_us"];

/// Validate a `ServiceReport` document emitted by `dssd-cli serve`.
///
/// Checks: top level is an object with `"schema": "dssd-service-report-v1"`,
/// a finite `duration_ms`, and a non-empty `tenants` array; every tenant
/// entry has a unique string `name`, integer counters from 0 to 2^53
/// (`submitted`, `completed`, `rejected`, `throttled`, `expired`,
/// `failed`), finite non-decreasing latency percentiles (`p50_us`,
/// `p95_us`, `p99_us`, `max_us`); and per-tenant accounting
/// conserves requests (`completed + rejected + expired ≤ submitted` —
/// the remainder is in flight at the horizon, never lost).
///
/// # Errors
///
/// Returns the first schema violation found, or the underlying parse
/// error.
pub fn validate_service_report(input: &str) -> Result<ServiceFileStats, JsonError> {
    let doc = parse(input)?;
    let fail = |msg: String| JsonError { message: msg, offset: 0 };
    match doc.get("schema").and_then(Json::as_str) {
        Some("dssd-service-report-v1") => {}
        other => {
            return Err(fail(format!(
                "expected \"schema\": \"dssd-service-report-v1\", found {other:?}"
            )))
        }
    }
    match doc.get("duration_ms").and_then(Json::as_f64) {
        Some(d) if d.is_finite() && d >= 0.0 => {}
        _ => return Err(fail("missing finite non-negative 'duration_ms'".into())),
    }
    let tenants = doc
        .get("tenants")
        .and_then(Json::as_arr)
        .ok_or_else(|| fail("missing 'tenants' array".into()))?;
    if tenants.is_empty() {
        return Err(fail("'tenants' array is empty".into()));
    }
    let mut stats = ServiceFileStats::default();
    let mut names = std::collections::BTreeSet::new();
    for (i, tenant) in tenants.iter().enumerate() {
        let fail = |msg: String| JsonError {
            message: format!("tenants[{i}]: {msg}"),
            offset: 0,
        };
        let name = tenant
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing string 'name'".into()))?;
        if !names.insert(name.to_string()) {
            return Err(fail(format!("duplicate tenant name '{name}'")));
        }
        // Counts stay within the integers an f64 holds exactly (2^53),
        // so the sums below cannot overflow.
        let counter = |key: &str| -> Result<u64, JsonError> {
            match tenant.get(key).and_then(Json::as_f64) {
                Some(v) if (0.0..=9_007_199_254_740_992.0).contains(&v) && v.fract() == 0.0 => {
                    Ok(v as u64)
                }
                _ => Err(fail(format!("'{key}' must be an integer from 0 to 2^53"))),
            }
        };
        let mut counts = [0u64; SERVICE_TENANT_COUNTERS.len()];
        for (slot, key) in counts.iter_mut().zip(SERVICE_TENANT_COUNTERS) {
            *slot = counter(key)?;
        }
        let [submitted, completed, rejected, _throttled, expired, failed] = counts;
        if completed + rejected + expired > submitted {
            return Err(fail(format!(
                "accounting violation: completed {completed} + rejected {rejected} \
                 + expired {expired} exceeds submitted {submitted}"
            )));
        }
        if failed > completed {
            return Err(fail(format!(
                "failed {failed} exceeds completed {completed}"
            )));
        }
        let mut prev = f64::NEG_INFINITY;
        for key in SERVICE_TENANT_LATENCIES {
            match tenant.get(key).and_then(Json::as_f64) {
                Some(v) if v.is_finite() && v >= 0.0 => {
                    if v < prev {
                        return Err(fail(format!(
                            "'{key}' ({v}) regresses below the previous percentile ({prev})"
                        )));
                    }
                    prev = v;
                }
                _ => return Err(fail(format!("missing finite '{key}'"))),
            }
        }
        stats.tenants += 1;
        stats.submitted = stats.submitted.saturating_add(submitted);
        stats.completed = stats.completed.saturating_add(completed);
        stats.rejected = stats.rejected.saturating_add(rejected);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        let arr = parse("[1, \"x\", [], {}]").unwrap();
        assert_eq!(arr.as_arr().unwrap().len(), 4);
        let obj = parse("{\"a\": 1, \"b\": {\"c\": []}}").unwrap();
        assert_eq!(obj.get("a").unwrap().as_f64(), Some(1.0));
        assert!(obj.get("b").unwrap().get("c").is_some());
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1F600}".into())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn validates_a_wellformed_trace() {
        let doc = r#"{"traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"x"}},
            {"ph":"X","pid":1,"tid":2,"name":"ecc","cat":"io","ts":1.5,"dur":3.0},
            {"ph":"b","pid":1,"tid":0,"name":"read","cat":"io","id":"0x1","ts":0},
            {"ph":"e","pid":1,"tid":0,"name":"read","cat":"io","id":"0x1","ts":9},
            {"ph":"i","pid":7,"tid":1,"name":"fault","ts":4,"s":"t"}
        ]}"#;
        let stats = validate_chrome_trace(doc).unwrap();
        assert_eq!(stats.events, 5);
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.asyncs, 2);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.metadata, 1);
    }

    #[test]
    fn validates_a_wellformed_epoch_file() {
        let doc = "{\"t_ms\":1,\"depth\":3}\n{\"t_ms\":2,\"depth\":0.5}\n\n";
        let stats = validate_epoch_jsonl(doc).unwrap();
        assert_eq!(stats, EpochFileStats { rows: 2, columns: 2 });
        assert_eq!(validate_epoch_jsonl("").unwrap(), EpochFileStats::default());
    }

    #[test]
    fn epoch_validator_rejects_violations() {
        let regressing = "{\"t_ms\":2}\n{\"t_ms\":1}";
        assert!(validate_epoch_jsonl(regressing).unwrap_err().message.contains("advance"));
        let stalled = "{\"t_ms\":1}\n{\"t_ms\":1}";
        assert!(validate_epoch_jsonl(stalled).is_err());
        let schema_drift = "{\"t_ms\":1,\"a\":0}\n{\"t_ms\":2,\"b\":0}";
        assert!(validate_epoch_jsonl(schema_drift).unwrap_err().message.contains("column set"));
        let no_t = "{\"x\":1}";
        assert!(validate_epoch_jsonl(no_t).unwrap_err().message.contains("t_ms"));
        let non_numeric = "{\"t_ms\":1,\"s\":\"x\"}";
        assert!(validate_epoch_jsonl(non_numeric).is_err());
        let not_object = "[1,2]";
        assert!(validate_epoch_jsonl(not_object).is_err());
        let garbage = "{\"t_ms\":1}\nnot json";
        assert!(validate_epoch_jsonl(garbage).unwrap_err().message.starts_with("line 2"));
    }

    fn tenant_json(name: &str, submitted: u64, completed: u64, rejected: u64) -> String {
        format!(
            "{{\"name\":\"{name}\",\"submitted\":{submitted},\"completed\":{completed},\
             \"rejected\":{rejected},\"throttled\":0,\"expired\":0,\"failed\":0,\
             \"p50_us\":10.0,\"p95_us\":20.0,\"p99_us\":30.5,\"max_us\":31.0}}"
        )
    }

    fn report_json(tenants: &[String]) -> String {
        format!(
            "{{\"schema\":\"dssd-service-report-v1\",\"duration_ms\":5.0,\
             \"tenants\":[{}]}}",
            tenants.join(",")
        )
    }

    #[test]
    fn validates_a_wellformed_service_report() {
        let doc = report_json(&[tenant_json("a", 10, 8, 1), tenant_json("b", 4, 4, 0)]);
        let stats = validate_service_report(&doc).unwrap();
        assert_eq!(
            stats,
            ServiceFileStats { tenants: 2, submitted: 14, completed: 12, rejected: 1 }
        );
    }

    #[test]
    fn service_validator_rejects_violations() {
        let bad_schema = "{\"schema\":\"nope\",\"duration_ms\":1,\"tenants\":[]}";
        assert!(validate_service_report(bad_schema).unwrap_err().message.contains("schema"));
        let empty = report_json(&[]);
        assert!(validate_service_report(&empty).unwrap_err().message.contains("empty"));
        let dup = report_json(&[tenant_json("a", 1, 1, 0), tenant_json("a", 1, 1, 0)]);
        assert!(validate_service_report(&dup).unwrap_err().message.contains("duplicate"));
        // completed + rejected exceeding submitted = lost/duplicated requests.
        let leak = report_json(&[tenant_json("a", 5, 5, 1)]);
        assert!(validate_service_report(&leak).unwrap_err().message.contains("accounting"));
        // Percentiles must be non-decreasing.
        let doc = report_json(&[tenant_json("a", 2, 2, 0)]).replace("\"p99_us\":30.5", "\"p99_us\":5");
        assert!(validate_service_report(&doc).unwrap_err().message.contains("regresses"));
        // Counters must be integers.
        let doc = report_json(&[tenant_json("a", 2, 2, 0)]).replace("\"rejected\":0", "\"rejected\":0.5");
        assert!(validate_service_report(&doc).unwrap_err().message.contains("integer"));
        // Counters past 2^53 are not exact, and their sums could overflow.
        let huge = report_json(&[tenant_json("a", 1 << 63, 1 << 63, 1 << 63)]);
        assert!(validate_service_report(&huge).unwrap_err().message.contains("2^53"));
        let no_tenants = "{\"schema\":\"dssd-service-report-v1\",\"duration_ms\":1}";
        assert!(validate_service_report(no_tenants).unwrap_err().message.contains("tenants"));
    }

    #[test]
    fn rejects_schema_violations() {
        let missing_dur =
            r#"{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"a","ts":1}]}"#;
        assert!(validate_chrome_trace(missing_dur).is_err());
        let bad_phase = r#"{"traceEvents":[{"ph":"Z","pid":1,"tid":0,"name":"a","ts":1}]}"#;
        assert!(validate_chrome_trace(bad_phase).is_err());
        let no_events = r#"{"foo": []}"#;
        assert!(validate_chrome_trace(no_events).is_err());
    }

    #[test]
    fn bounds_nesting_depth() {
        let deep = "[".repeat(200_000) + &"]".repeat(200_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "the first '[' past the bound");
        assert!(err.message.contains("deeper than 128"), "{err}");
        let trace = format!("{{\"traceEvents\":{deep}}}");
        assert!(validate_chrome_trace(&trace).is_err());
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).is_err());
        let deepest = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&deepest).is_ok());
    }

    /// Applies one to eight random edits to `doc`: flip a bit, insert,
    /// delete or duplicate bytes, truncate, or splice in deep nesting.
    fn mutate(rng: &mut dssd_kernel::Rng, doc: &[u8]) -> Vec<u8> {
        let mut b = doc.to_vec();
        for _ in 0..1 + rng.index(8) {
            let at = rng.index(b.len() + 1);
            let end = (at + 1 + rng.index(24)).min(b.len());
            match rng.index(6) {
                0 if at < b.len() => b[at] ^= 1 << rng.index(8),
                0 | 1 => b.insert(at, rng.next_u64() as u8),
                2 => drop(b.drain(at..end)),
                3 => drop(b.splice(at..at, b[at..end].to_vec())),
                4 => b.truncate(at),
                _ => drop(b.splice(at..at, b"[{\"k\":".repeat(rng.index(200)))),
            }
        }
        b
    }

    /// Every decoder of outside input returns `Ok` or `Err` on mutated
    /// seed documents, and never panics.
    #[test]
    fn mutated_documents_never_panic() {
        let seeds = [
            r#"{"traceEvents":[{"ph":"M","pid":1,"tid":0,"name":"n","args":{"name":"x"}},
              {"ph":"X","pid":1,"tid":2,"name":"ecc","ts":1.5,"dur":3.0},
              {"ph":"b","pid":1,"tid":0,"name":"r","id":"0x1","ts":0},
              {"ph":"i","pid":7,"tid":1,"name":"f","ts":4,"s":"t","u":"\u00e9\ud83d\ude00"}]}"#
                .to_string(),
            "{\"t_ms\":1,\"depth\":3}\n{\"t_ms\":2,\"depth\":0.5e-3}\n".to_string(),
            report_json(&[tenant_json("a", 9, 7, 1), tenant_json("b", 3, 2, 0)]),
            report_json(&[tenant_json("a", 1 << 53, 1 << 52, 1 << 52)]),
        ];
        dssd_kernel::check(2000, 0x0150_0F00, |rng| {
            let doc = &seeds[rng.index(seeds.len())];
            let bytes = mutate(rng, doc.as_bytes());
            let text = String::from_utf8_lossy(&bytes);
            let _ = parse(&text);
            let _ = validate_chrome_trace(&text);
            let _ = validate_epoch_jsonl(&text);
            let _ = validate_service_report(&text);
            Ok(())
        });
    }
}
