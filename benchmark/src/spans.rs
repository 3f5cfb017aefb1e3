//! In-memory spans and counts for the traced replay.
//!
//! A span is recorded around each call the replay makes into a layer; the
//! layer is the part of the span's name before the first dot. Spans stay in
//! memory and are written out once, after the replay.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `nn.gradient`.
    pub name: &'static str,
    /// The replay round the call belongs to.
    pub round: u64,
    /// The worker (or group link) the call served, when there is one.
    pub worker: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer the span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans and counts. Spans nest: the innermost open span is the
/// parent of the next one opened.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
    /// The round stamped on new spans.
    pub round: u64,
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            round: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, worker: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            round: self.round,
            worker,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Records a child of the closed span `parent` from a duration the callee
    /// measured itself, laid `offset_ns` into the parent.
    pub fn child_of(
        &mut self,
        parent: usize,
        name: &'static str,
        offset_ns: u64,
        duration_ns: u64,
    ) {
        let start_ns = self.spans[parent].start_ns + offset_ns;
        self.spans.push(Span {
            name,
            round: self.spans[parent].round,
            worker: None,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + duration_ns,
        });
    }

    /// Duration of a closed span, in nanoseconds.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Forgets every span and count recorded so far (the warm-up rounds).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "cannot clear with a span open");
        self.spans.clear();
        self.counts.clear();
    }

    /// Adds to a named count, at the boundary where the work happened.
    pub fn count(&mut self, name: &'static str, amount: f64) {
        *self.counts.entry(name).or_insert(0.0) += amount;
    }

    /// The accumulated count (0 when never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it its
    /// children cover, in nanoseconds, indexed like [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Total inclusive seconds of the spans named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .fold(0.0, |total, seconds| total + seconds)
    }

    /// Writes one JSON object per span, then one per count.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let json_index = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, span) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"round\":{},\"worker\":{},\
                 \"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name,
                span.layer(),
                span.round,
                json_index(span.worker),
                json_index(span.parent),
                span.start_ns,
                span.end_ns,
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(out, "{{\"count\":\"{name}\",\"value\":{value}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new();
        let outer = tracer.begin("ps.apply_round", None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = tracer.begin("nn.gradient", Some(3));
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.end(inner);
        tracer.end(outer);
        tracer.child_of(outer, "core.aggregate", 10, 700);

        let spans = tracer.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[inner].layer(), "nn");
        assert_eq!(spans[2].parent, Some(outer));
        let own = tracer.self_times_ns();
        assert_eq!(own[outer], tracer.duration_ns(outer) - tracer.duration_ns(inner) - 700);
        assert_eq!(own[inner], tracer.duration_ns(inner));
    }

    #[test]
    fn counts_accumulate() {
        let mut tracer = Tracer::new();
        tracer.count("net.bytes_sent", 10.0);
        tracer.count("net.bytes_sent", 5.0);
        assert_eq!(tracer.counted("net.bytes_sent"), 15.0);
        assert_eq!(tracer.counted("net.retransmits"), 0.0);
    }
}
