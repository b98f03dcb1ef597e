//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from outside the program, around public API calls, and
//! nest as workload → phase (setup/run/check) → API call. They stay in
//! memory and are written as JSON lines when the run ends. A tracer that was
//! never enabled never allocates.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span id meaning "no span": the parent of the root, and what `open`
/// returns while tracing is off.
pub const NONE: u32 = 0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// 1-based; `NONE` is never an id.
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Query id, boundary index, simulation index or pass index.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span that `close` ends; returns `NONE` while disabled.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let now = self.ns(Instant::now());
        self.push(name, parent, req, now, now)
    }

    pub fn close(&mut self, id: u32) {
        if id != NONE {
            let end_ns = self.ns(Instant::now());
            self.spans[id as usize - 1].end_ns = end_ns;
        }
    }

    /// Records a call that the caller timed itself.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.push(name, parent, req, start_ns, end_ns);
        }
    }

    /// Runs `f` inside a span; without tracing, runs it untimed.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }
}

/// The layer a span's time belongs to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "ServiceSim::submit" | "ServiceSim::poll" | "ServiceSim::retire" | "ServiceSim::finish" => {
            "mobiquery-service"
        }
        "ServiceSim::step_period" | "SteppedSim::step_period" | "SteppedSim::finish" => {
            "SteppedSim"
        }
        "ServiceSim::new" | "ServiceSim::with_faults" | "SteppedSim::with_churn" => "engine setup",
        "Simulation::new" => "Simulation setup",
        "Simulation::run" => "Simulation+wsn-sim",
        "SteppedSim::reference_reelection" => "wsn-power",
        _ => "harness",
    }
}

/// Every span ends after it starts and lies inside its parent, and parents
/// come before their children.
pub fn well_nested(spans: &[Span]) -> bool {
    spans.iter().all(|s| {
        s.start_ns <= s.end_ns
            && (s.parent == NONE
                || (s.parent < s.id && {
                    let p = &spans[s.parent as usize - 1];
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns
                }))
    })
}

/// Per span: its duration minus the time its children cover, in ms.
pub fn self_ms(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::ms).collect();
    for s in spans {
        if s.parent != NONE {
            own[s.parent as usize - 1] -= s.ms();
        }
    }
    own
}

/// Spans, busy time and self time per layer, in first-seen order. Busy time
/// counts a span nested in a span of the same layer once.
pub fn layer_table(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let own = self_ms(spans);
    let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(own) {
        let layer = layer_of(s.name);
        let nested = s.parent != NONE && layer_of(spans[s.parent as usize - 1].name) == layer;
        let row = match rows.iter_mut().find(|r| r.0 == layer) {
            Some(row) => row,
            None => {
                rows.push((layer, 0, 0.0, 0.0));
                rows.last_mut().expect("just pushed")
            }
        };
        row.1 += 1;
        if !nested {
            row.2 += s.ms();
        }
        row.3 += own;
    }
    rows
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{workload}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let id = t.open("run", NONE, 0);
        assert_eq!(id, NONE);
        assert_eq!(t.call("ServiceSim::poll", id, 1, || 5), 5);
        t.close(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.spans.capacity(), 0, "no span buffer while off");
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let root = t.open("workload", NONE, 0);
        let run = t.open("run", root, 0);
        t.call("ServiceSim::poll", run, 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(run);
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(well_nested(spans));
        let own = self_ms(spans);
        assert!((own[1] + spans[2].ms() - spans[1].ms()).abs() < 1e-9);
        let table = layer_table(spans);
        let service = table.iter().find(|r| r.0 == "mobiquery-service").unwrap();
        assert_eq!(service.1, 1);
        assert!(service.2 >= 2.0);
    }

    #[test]
    fn a_child_outside_its_parent_is_caught() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "x",
            req: 0,
            start_ns,
            end_ns,
        };
        assert!(well_nested(&[span(1, NONE, 0, 10), span(2, 1, 2, 9)]));
        assert!(!well_nested(&[span(1, NONE, 0, 10), span(2, 1, 2, 11)]));
        assert!(!well_nested(&[span(1, NONE, 5, 4)]));
    }
}
