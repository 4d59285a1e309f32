//! The harness's own spans, recorded around the calls it makes into each
//! layer. Spans stay in memory during a run and are written out as JSONL
//! when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span: a name, an interval, and the span that caused it.
///
/// A span opened with [`Recorder::open`] covers one contiguous interval. A
/// span added with [`Recorder::add`] sums `count` short intervals (every
/// posedge of a 1024-cycle window, say) that all fall inside its parent;
/// its `start_ns` is the parent's.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Time covered by this span's direct children.
    pub child_ns: u64,
    /// Intervals summed into `dur_ns` (1 for an opened span).
    pub count: u64,
}

impl Span {
    /// Duration minus the part of it the child spans cover.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns.saturating_sub(self.child_ns)
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn push(&mut self, parent: Option<u32>, name: &'static str, start_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            dur_ns: 0,
            child_ns: 0,
            count: 1,
        });
        id
    }

    /// Starts a span now.
    pub fn open(&mut self, parent: Option<u32>, name: &'static str) -> u32 {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.push(parent, name, now)
    }

    /// Ends an opened span now and charges its duration to its parent.
    pub fn close(&mut self, id: u32) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let dur = now - self.spans[id as usize].start_ns;
        self.finish(id, dur, 1);
    }

    /// Records a span that sums `count` intervals of `dur_ns` in total, all
    /// inside `parent`.
    pub fn add(&mut self, parent: u32, name: &'static str, dur_ns: u64, count: u64) -> u32 {
        let start = self.spans[parent as usize].start_ns;
        let id = self.push(Some(parent), name, start);
        self.finish(id, dur_ns, count);
        id
    }

    fn finish(&mut self, id: u32, dur_ns: u64, count: u64) {
        let span = &mut self.spans[id as usize];
        span.dur_ns = dur_ns;
        span.count = count;
        if let Some(parent) = span.parent {
            self.spans[parent as usize].child_ns += dur_ns;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time of every span called `name`.
    pub fn self_ns_of(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::self_ns)
            .sum()
    }

    /// Writes `header` (one JSON object) and then one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"dur_ns\": {}, \"self_ns\": {}, \"count\": {}}}",
                s.id,
                s.name,
                s.start_ns,
                s.dur_ns,
                s.self_ns(),
                s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut r = Recorder::new();
        let run = r.open(None, "workload");
        let window = r.open(Some(run), "window");
        let pos = r.add(window, "net.posedge", 700, 1024);
        r.add(pos, "agents.tick", 200, 1024);
        r.add(window, "net.negedge", 250, 1024);
        // Close with known durations instead of the clock.
        r.finish(window, 1_000, 1);
        r.finish(run, 1_300, 1);
        let s = r.spans();
        assert_eq!(s[pos as usize].self_ns(), 500);
        assert_eq!(s[window as usize].child_ns, 950);
        assert_eq!(s[window as usize].self_ns(), 50);
        assert_eq!(s[run as usize].self_ns(), 300);
        assert_eq!(r.self_ns_of("agents.tick"), 200);
        // Self times partition the root's duration.
        assert_eq!(s.iter().map(Span::self_ns).sum::<u64>(), 1_300);
    }

    #[test]
    fn jsonl_has_a_header_and_one_line_per_span() {
        let mut r = Recorder::new();
        let run = r.open(None, "workload");
        r.add(run, "net.posedge", 5, 1);
        r.close(run);
        let path = std::env::temp_dir().join(format!("hornet-bench-spans-{}", std::process::id()));
        r.write_jsonl(&path, "{\"workload\": \"t\"}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"workload\": \"t\"}");
        assert!(lines[1].contains("\"parent\": null"));
        assert!(lines[2].contains("\"parent\": 0") && lines[2].contains("\"self_ns\": 5"));
    }
}
