//! Pluggable event sinks: the JSONL exporter plus an in-memory sink for
//! tests.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

use crate::event::{Event, RoundEvent};
use crate::json::event_to_json;

/// A destination for telemetry events.
///
/// Sinks receive every event in emission order; [`Sink::flush`] is called by
/// [`crate::Telemetry::finish`] and on drop of the owning telemetry handle's
/// last clone is *not* guaranteed — emitters should call `finish`.
pub trait Sink {
    /// Consumes one event.
    fn record(&mut self, event: &Event);

    /// Forces buffered output to its destination.
    fn flush(&mut self) {}
}

/// Writes one JSON object per line (the `--telemetry <path>` format of the
/// experiments CLI).
pub struct JsonlSink<W: Write> {
    out: W,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) `path` and returns a buffered JSONL sink on it.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<JsonlSink<BufWriter<File>>> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out }
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        // Telemetry is observational: a full disk must not abort a run.
        let _ = writeln!(self.out, "{}", event_to_json(event));
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Retains every event in memory; the paired [`MemoryHandle`] reads them
/// back after the run. For tests and in-process consumers.
pub struct MemorySink {
    events: Rc<RefCell<Vec<Event>>>,
}

impl MemorySink {
    /// Returns a sink and the handle observing everything it records.
    pub fn new() -> (MemorySink, MemoryHandle) {
        let events = Rc::new(RefCell::new(Vec::new()));
        (MemorySink { events: Rc::clone(&events) }, MemoryHandle { events })
    }
}

impl Sink for MemorySink {
    fn record(&mut self, event: &Event) {
        self.events.borrow_mut().push(event.clone());
    }
}

/// Read side of a [`MemorySink`].
#[derive(Clone)]
pub struct MemoryHandle {
    events: Rc<RefCell<Vec<Event>>>,
}

impl MemoryHandle {
    /// Snapshot of every event recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.borrow().clone()
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Just the [`Event::Round`] payloads, in order.
    pub fn rounds(&self) -> Vec<RoundEvent> {
        self.events
            .borrow()
            .iter()
            .filter_map(|e| match e {
                Event::Round(r) => Some(r.clone()),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Marker, MarkerKind};
    use crate::json::parse_jsonl;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStart { label: "t".into(), n: 4, seed: 1 },
            Event::Round(RoundEvent {
                round: 1,
                beeps_channel1: 2,
                active: 4,
                n: 4,
                ..RoundEvent::default()
            }),
            Event::Marker(Marker {
                round: 1,
                kind: MarkerKind::Fault,
                detail: "corrupt".into(),
                magnitude: 2,
            }),
            Event::RunEnd { rounds: 1, stabilized: false, stabilization_round: None },
        ]
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut buf = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            for e in sample_events() {
                sink.record(&e);
            }
            sink.flush();
        }
        let text = String::from_utf8(buf).unwrap();
        let docs = parse_jsonl(&text).unwrap();
        assert_eq!(docs.len(), 4);
        assert_eq!(docs[0].get("type").unwrap().as_str(), Some("run_start"));
        assert_eq!(docs[1].get("beeps_c1").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn memory_sink_retains_everything() {
        let (mut sink, handle) = MemorySink::new();
        assert!(handle.is_empty());
        for e in sample_events() {
            sink.record(&e);
        }
        assert_eq!(handle.len(), 4);
        assert_eq!(handle.rounds().len(), 1);
        assert_eq!(handle.events()[3], sample_events()[3]);
    }
}
