//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans are kept until the run ends, then written out as JSON
//! lines with each span's self time.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: which layer function, which request it served, and the
/// span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. Disabled tracers record nothing and cost one branch.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Moves this tracer and its spans out, leaving a disabled one behind.
    pub fn take(&mut self) -> Tracer {
        std::mem::replace(self, Tracer::new(false))
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id (children name it as
    /// their parent).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Each span's self time: its duration minus what its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("x", 0, None, now, now), None);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let start = Instant::now();
        let child = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        let child_end = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        let parent = t.record("outer", 1, None, start, Instant::now()).unwrap();
        t.record("inner", 1, Some(parent), child, child_end);
        let outer_ns = t.spans[0].end_ns - t.spans[0].start_ns;
        let own = t.self_ns()[parent];
        assert!(own < outer_ns && own >= 4_000_000, "{own} of {outer_ns}");
    }

    #[test]
    fn spans_are_written_one_per_line() {
        let mut t = Tracer::new(true);
        let now = Instant::now();
        let p = t.record("a", 0, None, now, now);
        t.record("b", 0, p, now, now);
        let path =
            std::env::temp_dir().join(format!("perfbench-trace-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\": 0"));
    }
}
