//! Spans recorded in the benchmark's own memory around calls into the
//! layers — name, start, end, parent, operation id — kept in a `Vec`
//! while the run measures and written out as JSON lines when it ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span of every operation.
pub const OP: &str = "op";

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Spans of one operation share this id.
    pub op: u64,
    pub name: &'static str,
    /// Name of the span (of the same operation) that caused this one;
    /// `""` for a root.
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer; buffers sharing an epoch merge by `append`.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// An empty buffer on the same clock, for another thread.
    pub fn fork(&self) -> Recorder {
        Recorder::new(self.epoch)
    }

    pub fn append(&mut self, mut other: Recorder) {
        self.spans.append(&mut other.spans);
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        op: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push_ns(op, name, parent, start_ns, end_ns);
    }

    pub fn push_ns(
        &mut self,
        op: u64,
        name: &'static str,
        parent: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Lays `children` (name, duration) back to back from `start_ns`
    /// under `parent`: for phases a layer reports as durations only.
    pub fn push_phases(
        &mut self,
        op: u64,
        parent: &'static str,
        start_ns: u64,
        children: &[(&'static str, u64)],
    ) {
        let mut at = start_ns;
        for &(name, dur_ns) in children {
            self.push_ns(op, name, parent, at, at + dur_ns);
            at += dur_ns;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span called `name` (under `parent`, if given),
    /// in µs.
    pub fn durations_us(&self, name: &str, parent: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && parent.is_none_or(|p| s.parent == p))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self times of every span called `name`, in µs: its duration minus
    /// what its child spans (same operation, `parent == name`) cover.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.parent == name) {
            *covered.entry(s.op).or_default() += s.end_ns - s.start_ns;
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let children = covered.get(&s.op).copied().unwrap_or(0);
                (s.end_ns - s.start_ns).saturating_sub(children) as f64 / 1e3
            })
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.parent, s.start_ns, s.end_ns
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
    fn self_time_subtracts_children_of_the_same_operation() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch);
        let at = |us: u64| epoch + Duration::from_micros(us);
        rec.push(1, OP, "", at(0), at(1000));
        rec.push_phases(
            1,
            OP,
            100_000,
            &[("web.auth", 400_000), ("web.handler", 300_000)],
        );
        rec.push(2, OP, "", at(2000), at(2500));
        assert_eq!(rec.durations_us(OP, None), vec![1000.0, 500.0]);
        assert_eq!(rec.self_times_us(OP), vec![300.0, 500.0]);
        assert_eq!(rec.durations_us("web.handler", Some(OP)), vec![300.0]);
        assert!(rec.durations_us("web.handler", Some("other")).is_empty());
        let mut other = rec.fork();
        other.push(3, OP, "", at(10), at(20));
        rec.append(other);
        assert_eq!(rec.len(), 5);
    }
}
