//! Tenant/arrival spec: the scripted input of `dssd-cli serve`.
//!
//! A spec is a small line-oriented text format describing the run
//! horizon, the admission-control backlog threshold, and one line per
//! tenant (offered load, request shape, namespace share, QoS knobs):
//!
//! ```text
//! # two tenants, 5 ms
//! duration_ms 5
//! seed 42
//! backlog 256
//! sq_depth 64
//! tenant victim iops=50000  pages=1 read=1.0 weight=2
//! tenant hog    iops=400000 pages=8 rate=20000 burst=16 qd=32
//! ```
//!
//! The spec deterministically expands into a merged submission
//! schedule ([`ServiceSpec::schedule`]): per-tenant Poisson arrivals
//! (exponential inter-arrival gaps from a per-tenant fork of the seed)
//! with addresses drawn inside the tenant's namespace. The *same*
//! schedule, mapped through the namespace layout
//! ([`ServiceSpec::batch_requests`]), is a plain open-loop request
//! vector for [`SsdSim::run_trace`](dssd_ssd::SsdSim::run_trace) — the
//! batch plan the service run must reproduce bit-identically when no
//! QoS constraint binds.

use dssd_kernel::{Rng, SimSpan, SimTime};
use dssd_workload::{AccessPattern, Op, Request};

use crate::ring::Sqe;

/// Per-tenant rng fork stream tag (xored with the tenant index).
const TENANT_STREAM: u64 = 0x7E4A_5EED;

/// Highest offered load a tenant may declare: one arrival per nanosecond.
const MAX_IOPS: f64 = 1e9;

/// One tenant's offered load, namespace share and QoS configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name (unique within the spec).
    pub name: String,
    /// Offered load in requests per second.
    pub iops: f64,
    /// Request size in pages.
    pub pages: u32,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Address pattern inside the namespace.
    pub pattern: AccessPattern,
    /// Weighted-round-robin arbitration weight.
    pub weight: u32,
    /// Token-bucket refill rate in pages/sec; 0 = unlimited.
    pub rate_pages_per_sec: u64,
    /// Token-bucket burst capacity in pages.
    pub burst_pages: u64,
    /// Queue-depth cap (in-flight + queued); 0 = unlimited.
    pub qd_cap: usize,
}

impl TenantSpec {
    fn defaults(name: String) -> Self {
        TenantSpec {
            name,
            iops: 0.0,
            pages: 1,
            read_fraction: 0.0,
            pattern: AccessPattern::Random,
            weight: 1,
            rate_pages_per_sec: 0,
            burst_pages: 8,
            qd_cap: 0,
        }
    }
}

/// A parsed service spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    /// Run horizon.
    pub duration: SimSpan,
    /// Measurement warmup: completions *submitted* before this offset
    /// still count (completed/failed/etc.) but are excluded from the
    /// latency percentiles, so cold-start transients don't pollute
    /// steady-state tails.
    pub warmup: SimSpan,
    /// Master seed for the arrival streams.
    pub seed: u64,
    /// Global admission threshold: submissions are rejected `Busy` while
    /// this many requests are dispatched-but-incomplete. 0 = unlimited.
    pub backlog_limit: usize,
    /// Submission/completion ring depth per tenant.
    pub sq_depth: usize,
    /// The tenants, in declaration order (= tie-break order for
    /// same-instant submissions).
    pub tenants: Vec<TenantSpec>,
}

/// A parse error with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// One entry of the merged submission schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Submission instant.
    pub at: SimTime,
    /// Tenant index (into [`ServiceSpec::tenants`]).
    pub tenant: u16,
    /// The command (namespace-relative address).
    pub sqe: Sqe,
}

/// A tenant's slice of the drive's logical space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Namespace {
    /// First drive-absolute logical page of the slice.
    pub base: u64,
    /// Pages in the slice.
    pub pages: u64,
}

impl Namespace {
    /// Maps a namespace-relative command onto the drive's logical space.
    /// The address is wrapped into the slice, so no command can touch
    /// another tenant's pages regardless of the `lba` it carries.
    #[must_use]
    pub fn map(&self, sqe: Sqe) -> Request {
        let span = u64::from(sqe.pages);
        let slots = (self.pages / span).max(1);
        let lpn = self.base + (sqe.lba / span % slots) * span;
        let r = Request::new(sqe.op, lpn, sqe.pages);
        if sqe.cached {
            r.cached()
        } else {
            r
        }
    }
}

impl ServiceSpec {
    /// Parses the spec text format shown in the [module docs](self).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first offending line.
    pub fn parse(text: &str) -> Result<ServiceSpec, SpecError> {
        let mut spec = ServiceSpec {
            duration: SimSpan::from_ms(1),
            warmup: SimSpan::ZERO,
            seed: 1,
            backlog_limit: 0,
            sq_depth: 64,
            tenants: Vec::new(),
        };
        let mut saw_duration = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |message: String| SpecError { line: lineno + 1, message };
            let mut words = line.split_whitespace();
            let key = words.next().expect("non-empty line");
            match key {
                "duration_ms" => {
                    let v: f64 = parse_word(words.next(), key, lineno + 1)?;
                    if v.is_nan() || v <= 0.0 {
                        return Err(err(format!("duration_ms must be positive, got {v}")));
                    }
                    spec.duration = ms_span(key, v).map_err(err)?;
                    saw_duration = true;
                }
                "warmup_ms" => {
                    let v: f64 = parse_word(words.next(), key, lineno + 1)?;
                    if v.is_nan() || v < 0.0 {
                        return Err(err(format!("warmup_ms must be non-negative, got {v}")));
                    }
                    spec.warmup = ms_span(key, v).map_err(err)?;
                }
                "seed" => spec.seed = parse_word(words.next(), key, lineno + 1)?,
                "backlog" => {
                    spec.backlog_limit = parse_word(words.next(), key, lineno + 1)?;
                }
                "sq_depth" => {
                    spec.sq_depth = parse_word(words.next(), key, lineno + 1)?;
                    if spec.sq_depth == 0 {
                        return Err(err("sq_depth must be positive".into()));
                    }
                }
                "tenant" => {
                    let name = words
                        .next()
                        .ok_or_else(|| err("tenant line missing a name".into()))?;
                    if spec.tenants.iter().any(|t| t.name == name) {
                        return Err(err(format!("duplicate tenant name '{name}'")));
                    }
                    let mut t = TenantSpec::defaults(name.to_string());
                    for kv in words {
                        let (k, v) = kv
                            .split_once('=')
                            .ok_or_else(|| err(format!("expected key=value, got '{kv}'")))?;
                        match k {
                            "iops" => t.iops = parse_val(v, k, lineno + 1)?,
                            "pages" => t.pages = parse_val(v, k, lineno + 1)?,
                            "read" => t.read_fraction = parse_val(v, k, lineno + 1)?,
                            "weight" => t.weight = parse_val(v, k, lineno + 1)?,
                            "rate" => t.rate_pages_per_sec = parse_val(v, k, lineno + 1)?,
                            "burst" => t.burst_pages = parse_val(v, k, lineno + 1)?,
                            "qd" => t.qd_cap = parse_val(v, k, lineno + 1)?,
                            "pattern" => {
                                t.pattern = match v {
                                    "random" => AccessPattern::Random,
                                    "sequential" => AccessPattern::Sequential,
                                    other => {
                                        return Err(err(format!(
                                            "unknown pattern '{other}' (random|sequential)"
                                        )))
                                    }
                                }
                            }
                            other => {
                                return Err(err(format!("unknown tenant key '{other}'")))
                            }
                        }
                    }
                    // Arrivals land on whole nanoseconds, so more than one
                    // per nanosecond means nothing; iops=inf (a zero gap)
                    // would never advance the schedule at all.
                    if !(t.iops > 0.0 && t.iops <= MAX_IOPS) {
                        return Err(err(format!(
                            "tenant '{name}' needs a positive iops=… of at most \
                             {MAX_IOPS:e}, got {}",
                            t.iops
                        )));
                    }
                    if t.pages == 0 {
                        return Err(err(format!("tenant '{name}' pages must be positive")));
                    }
                    if !(0.0..=1.0).contains(&t.read_fraction) {
                        return Err(err(format!(
                            "tenant '{name}' read fraction outside [0, 1]"
                        )));
                    }
                    spec.tenants.push(t);
                }
                other => return Err(err(format!("unknown directive '{other}'"))),
            }
        }
        if spec.tenants.is_empty() {
            return Err(SpecError { line: 0, message: "spec declares no tenants".into() });
        }
        if !saw_duration {
            return Err(SpecError {
                line: 0,
                message: "spec missing a duration_ms directive".into(),
            });
        }
        if spec.warmup >= spec.duration {
            return Err(SpecError {
                line: 0,
                message: "warmup_ms must be shorter than duration_ms".into(),
            });
        }
        Ok(spec)
    }

    /// Checks that a drive of `lpn_count` logical pages gives every
    /// tenant a namespace share that holds at least one of its requests.
    /// Call it before [`ServiceSpec::namespaces`], [`ServiceSpec::schedule`]
    /// or `serve` on a drive the spec was not written for.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first tenant that does not fit.
    pub fn check_fits(&self, lpn_count: u64) -> Result<(), SpecError> {
        let share = lpn_count / self.tenants.len() as u64;
        match self.tenants.iter().find(|t| share < u64::from(t.pages)) {
            Some(t) => Err(SpecError {
                line: 0,
                message: format!(
                    "namespace share {share} pages cannot hold a {} page request of tenant {}",
                    t.pages, t.name
                ),
            }),
            None => Ok(()),
        }
    }

    /// Equal-share namespace layout over a drive of `lpn_count` logical
    /// pages: tenant `i` owns `[i * share, (i + 1) * share)`.
    ///
    /// # Panics
    ///
    /// Panics if the drive is too small to give every tenant at least
    /// its request size (see [`ServiceSpec::check_fits`]).
    #[must_use]
    pub fn namespaces(&self, lpn_count: u64) -> Vec<Namespace> {
        if let Err(e) = self.check_fits(lpn_count) {
            panic!("{}", e.message);
        }
        let n = self.tenants.len() as u64;
        let share = lpn_count / n;
        (0..n).map(|i| Namespace { base: i * share, pages: share }).collect()
    }

    /// Expands the spec into the merged submission schedule: per-tenant
    /// Poisson arrivals, merged in `(instant, tenant index)` order (each
    /// tenant's own stream stays FIFO). Pure function of the spec.
    #[must_use]
    pub fn schedule(&self, lpn_count: u64) -> Vec<Submission> {
        let namespaces = self.namespaces(lpn_count);
        let horizon_ns = self.duration.as_ns() as f64;
        let mut merged: Vec<Submission> = Vec::new();
        for (i, (t, ns)) in self.tenants.iter().zip(&namespaces).enumerate() {
            let mut rng = Rng::new(self.seed).fork(TENANT_STREAM ^ i as u64);
            let mean_gap_ns = 1e9 / t.iops;
            let span = u64::from(t.pages);
            let slots = (ns.pages / span).max(1);
            let mut cursor = 0u64;
            let mut at = 0.0f64;
            loop {
                at += rng.exponential(mean_gap_ns);
                if at >= horizon_ns {
                    break;
                }
                let lba = match t.pattern {
                    AccessPattern::Sequential => {
                        let l = cursor;
                        cursor = (cursor + 1) % slots;
                        l * span
                    }
                    AccessPattern::Random => rng.range_u64(0..slots) * span,
                };
                let op = if rng.chance(t.read_fraction) { Op::Read } else { Op::Write };
                merged.push(Submission {
                    at: SimTime::from_ns(at as u64),
                    tenant: i as u16,
                    sqe: Sqe { op, lba, pages: t.pages, cached: false },
                });
            }
        }
        // Stable by construction: per-tenant instants are non-decreasing,
        // so sorting by (instant, tenant) keeps each stream FIFO.
        merged.sort_by_key(|s| (s.at, s.tenant));
        merged
    }

    /// The schedule as a plain open-loop request vector (addresses mapped
    /// through the namespace layout), in the exact order an unconstrained
    /// service run dispatches it — the batch plan for the bit-identity
    /// check.
    #[must_use]
    pub fn batch_requests(&self, lpn_count: u64) -> Vec<(SimTime, Request)> {
        let namespaces = self.namespaces(lpn_count);
        self.schedule(lpn_count)
            .into_iter()
            .map(|s| (s.at, namespaces[s.tenant as usize].map(s.sqe)))
            .collect()
    }
}

/// `ms` milliseconds (the value of directive `key`) as a span. Fails
/// when the nanosecond count is infinite or overflows `u64`, where an
/// `as u64` cast would saturate into a horizon the schedule never reaches.
fn ms_span(key: &str, ms: f64) -> Result<SimSpan, String> {
    let ns = ms * 1e6;
    if ns < u64::MAX as f64 {
        Ok(SimSpan::from_ns(ns as u64))
    } else {
        Err(format!("{key} {ms} does not fit the 64-bit nanosecond clock"))
    }
}

fn parse_word<T: std::str::FromStr>(
    word: Option<&str>,
    key: &str,
    line: usize,
) -> Result<T, SpecError> {
    let w = word.ok_or_else(|| SpecError {
        line,
        message: format!("'{key}' needs a value"),
    })?;
    parse_val(w, key, line)
}

fn parse_val<T: std::str::FromStr>(v: &str, key: &str, line: usize) -> Result<T, SpecError> {
    v.parse().map_err(|_| SpecError {
        line,
        message: format!("invalid value '{v}' for '{key}'"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
# demo
duration_ms 2
warmup_ms 0.5
seed 7
backlog 128
tenant a iops=100000 pages=2 read=0.5 weight=2 pattern=sequential
tenant b iops=50000 rate=4000 burst=4 qd=16  # trailing comment
";

    #[test]
    fn parses_directives_and_tenants() {
        let s = ServiceSpec::parse(SPEC).unwrap();
        assert_eq!(s.duration, SimSpan::from_ms(2));
        assert_eq!(s.warmup, SimSpan::from_us(500));
        assert_eq!(s.seed, 7);
        assert_eq!(s.backlog_limit, 128);
        assert_eq!(s.sq_depth, 64);
        assert_eq!(s.tenants.len(), 2);
        let a = &s.tenants[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.pages, 2);
        assert_eq!(a.weight, 2);
        assert_eq!(a.pattern, AccessPattern::Sequential);
        let b = &s.tenants[1];
        assert_eq!(b.rate_pages_per_sec, 4000);
        assert_eq!(b.burst_pages, 4);
        assert_eq!(b.qd_cap, 16);
    }

    #[test]
    fn rejects_malformed_specs() {
        for (bad, needle) in [
            ("duration_ms 1\n", "no tenants"),
            ("tenant a iops=1000\n", "duration_ms"),
            ("duration_ms 1\ntenant a\n", "iops"),
            ("duration_ms 1\ntenant a iops=1 iops\n", "key=value"),
            ("duration_ms 1\ntenant a iops=1 pattern=zig\n", "pattern"),
            ("duration_ms 1\ntenant a iops=1\ntenant a iops=1\n", "duplicate"),
            ("duration_ms 0\ntenant a iops=1\n", "positive"),
            ("bogus 3\n", "directive"),
            ("duration_ms 1\nwarmup_ms 1\ntenant a iops=1\n", "warmup"),
            ("duration_ms 1\nwarmup_ms -2\ntenant a iops=1\n", "warmup"),
            ("duration_ms 1\ntenant a iops=1 read=1.5\n", "read fraction"),
            ("duration_ms 1\ntenant a iops=inf\n", "iops"),
            ("duration_ms 1\ntenant a iops=NaN\n", "iops"),
            ("duration_ms 1\ntenant a iops=2e9\n", "iops"),
            ("duration_ms inf\ntenant a iops=1\n", "nanosecond clock"),
            ("duration_ms NaN\ntenant a iops=1\n", "positive"),
            ("duration_ms 1e30\ntenant a iops=1\n", "nanosecond clock"),
            ("duration_ms 1.9e13\ntenant a iops=1\n", "nanosecond clock"),
            ("duration_ms 1\nwarmup_ms inf\ntenant a iops=1\n", "nanosecond clock"),
            ("duration_ms 1\nwarmup_ms NaN\ntenant a iops=1\n", "warmup"),
        ] {
            let e = ServiceSpec::parse(bad).unwrap_err();
            assert!(e.message.contains(needle), "{bad:?} gave {e}");
        }
    }

    #[test]
    fn schedule_is_deterministic_and_ordered() {
        let s = ServiceSpec::parse(SPEC).unwrap();
        let a = s.schedule(1 << 16);
        let b = s.schedule(1 << 16);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!((w[0].at, w[0].tenant) <= (w[1].at, w[1].tenant));
        }
        // ~100k + 50k IOPS over 2 ms ≈ 300 submissions.
        let n = a.len() as f64;
        assert!((n - 300.0).abs() < 120.0, "{n} submissions");
    }

    #[test]
    fn namespaces_partition_without_overlap() {
        let s = ServiceSpec::parse(SPEC).unwrap();
        let ns = s.namespaces(1000);
        assert_eq!(ns.len(), 2);
        assert_eq!(ns[0], Namespace { base: 0, pages: 500 });
        assert_eq!(ns[1], Namespace { base: 500, pages: 500 });
    }

    #[test]
    fn oversized_requests_do_not_fit_the_namespace() {
        let s = ServiceSpec::parse("duration_ms 1\ntenant a iops=1\ntenant b iops=1 pages=600\n")
            .unwrap();
        assert_eq!(s.check_fits(1200), Ok(()));
        let e = s.check_fits(1000).unwrap_err();
        assert!(e.message.contains("600 page request of tenant b"), "{e}");
    }

    #[test]
    fn namespace_map_confines_addresses() {
        let ns = Namespace { base: 1000, pages: 100 };
        for lba in [0u64, 4, 96, 100, 9999] {
            let r = ns.map(Sqe { op: Op::Read, lba, pages: 4, cached: false });
            assert!(r.lpn >= 1000 && r.lpn + 4 <= 1100, "lpn {} escapes", r.lpn);
            assert_eq!((r.lpn - 1000) % 4, 0);
        }
    }

    #[test]
    fn batch_requests_match_schedule_through_namespaces() {
        let s = ServiceSpec::parse(SPEC).unwrap();
        let lpns = 1 << 16;
        let ns = s.namespaces(lpns);
        let sched = s.schedule(lpns);
        let batch = s.batch_requests(lpns);
        assert_eq!(sched.len(), batch.len());
        for (sub, (at, req)) in sched.iter().zip(&batch) {
            assert_eq!(sub.at, *at);
            assert_eq!(ns[sub.tenant as usize].map(sub.sqe), *req);
        }
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
                _ => drop(b.splice(at..at, b"tenant x iops=1e308 pages=4294967295 ".repeat(rng.index(200)))),
            }
        }
        b
    }

    /// `ServiceSpec::parse` returns `Ok` or `Err` on mutated specs, and
    /// never panics.
    #[test]
    fn mutated_specs_never_panic() {
        let seeds = [SPEC, "duration_ms 1\nsq_depth 8\ntenant a iops=1 rate=2 burst=1 qd=1\n"];
        dssd_kernel::check(2000, 0x5BEC_0000, |rng| {
            let seed = seeds[rng.index(seeds.len())];
            let spec = mutate(rng, seed.as_bytes());
            let _ = ServiceSpec::parse(&String::from_utf8_lossy(&spec));
            Ok(())
        });
    }
}
