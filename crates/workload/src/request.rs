//! The I/O request unit consumed by the SSD simulator.

/// Direction of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Host read.
    Read,
    /// Host write.
    Write,
}

/// One host I/O request, already translated to page granularity.
///
/// # Example
///
/// ```
/// use dssd_workload::{Op, Request};
/// let r = Request::new(Op::Write, 100, 8);
/// assert_eq!(r.pages, 8);
/// assert!(!r.dram_hit);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Direction.
    pub op: Op,
    /// First logical page.
    pub lpn: u64,
    /// Number of consecutive logical pages.
    pub pages: u32,
    /// True if this request is serviced entirely from the DRAM cache
    /// (the paper's "DRAM hit" scenario) and never touches flash.
    pub dram_hit: bool,
}

impl Request {
    /// Creates a flash-bound request.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    #[must_use]
    pub fn new(op: Op, lpn: u64, pages: u32) -> Self {
        assert!(pages > 0, "requests must span at least one page");
        Request { op, lpn, pages, dram_hit: false }
    }

    /// Marks the request as DRAM-cached.
    #[must_use]
    pub fn cached(mut self) -> Self {
        self.dram_hit = true;
        self
    }

    /// The logical pages covered.
    pub fn lpns(&self) -> impl Iterator<Item = u64> + '_ {
        self.lpn..self.lpn + self.pages as u64
    }

    /// Request size in bytes for a given page size.
    #[must_use]
    pub fn bytes(&self, page_bytes: u32) -> u64 {
        self.pages as u64 * page_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpns_cover_span() {
        let r = Request::new(Op::Read, 10, 3);
        assert_eq!(r.lpns().collect::<Vec<_>>(), vec![10, 11, 12]);
        assert_eq!(r.bytes(4096), 3 * 4096);
    }

    #[test]
    fn cached_flag() {
        assert!(Request::new(Op::Read, 0, 1).cached().dram_hit);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_pages_rejected() {
        let _ = Request::new(Op::Write, 0, 0);
    }
}
