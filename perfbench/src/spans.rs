//! Benchmark spans: recorded by the benchmark's own code around the calls
//! into each layer, kept in per-thread vectors while a repetition runs and
//! written once at the end as Chrome trace-event JSON (loads in Perfetto).
//!
//! A layer's self time is its span's duration minus the part its children
//! (spans naming it as `parent`) cover.

use std::borrow::Cow;
use std::io::{self, Write};
use std::sync::OnceLock;
use std::time::Instant;

use dsm_trace::json::escape;

/// Nanoseconds since the first call in this process: one time base for all
/// threads and repetitions.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed interval. `id`/`parent` are unique within a `(rep, node)` pair.
#[derive(Debug, Clone)]
pub struct Span {
    pub rep: u32,
    /// Node rank, or the cluster size for the harness's own thread.
    pub node: u32,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    pub parent: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of a span that has begun but not ended.
pub struct Open {
    idx: Option<u32>,
    t0: u64,
}

/// Per-thread recorder. With `keep` off (the untraced pass) only
/// [`Recorder::begin_op`]/[`Recorder::end_op`] read the clock, so the
/// end-to-end numbers carry one pair of clock reads per blocking call and
/// nothing else.
#[derive(Debug, Default)]
pub struct Recorder {
    keep: bool,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    /// Durations of the workload's blocking call (`op_p50_us`).
    pub op_ns: Vec<u64>,
}

impl Recorder {
    pub fn new(keep: bool) -> Self {
        Recorder {
            keep,
            ..Default::default()
        }
    }

    fn start(&mut self, name: Cow<'static, str>, timed: bool) -> Open {
        let t0 = if timed { now_ns() } else { 0 };
        let idx = self.keep.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                rep: 0,
                node: 0,
                name,
                start_ns: t0,
                end_ns: t0,
                id,
                parent: self.open.last().copied(),
            });
            self.open.push(id);
            id
        });
        Open { idx, t0 }
    }

    /// Begin a span; free when spans are not kept.
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.start(Cow::Borrowed(name), self.keep)
    }

    /// As [`Recorder::begin`], for a name built at run time.
    pub fn begin_owned(&mut self, name: String) -> Open {
        self.start(Cow::Owned(name), self.keep)
    }

    /// Begin the workload's blocking call: always timed.
    pub fn begin_op(&mut self, name: &'static str) -> Open {
        self.start(Cow::Borrowed(name), true)
    }

    pub fn end(&mut self, o: Open) {
        if let Some(idx) = o.idx {
            self.spans[idx as usize].end_ns = now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
        }
    }

    pub fn end_op(&mut self, o: Open) {
        let t1 = now_ns();
        self.op_ns.push(t1 - o.t0);
        if let Some(idx) = o.idx {
            self.spans[idx as usize].end_ns = t1;
            self.open.pop();
        }
    }

    /// Hand the spans over, stamped with where they were recorded.
    pub fn into_spans(self, rep: u32, node: u32) -> Vec<Span> {
        let mut spans = self.spans;
        for s in &mut spans {
            s.rep = rep;
            s.node = node;
        }
        spans
    }
}

/// Write `spans` as Chrome trace-event JSON: one complete (`ph:"X"`) event
/// per span, `pid` = repetition, `tid` = node (the harness thread is
/// `tid` = cluster size), times in microseconds.
pub fn write_chrome(workload: &str, spans: &[Span], out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        writeln!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\
             \"args\":{{\"workload\":\"{}\",\"rep\":{},\"node\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}}}",
            if i == 0 { "" } else { "," },
            escape(&s.name),
            escape(workload),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.rep,
            s.node,
            escape(workload),
            s.rep,
            s.node,
            s.id,
            parent,
            s.start_ns,
            s.end_ns,
        )?;
    }
    writeln!(out, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_json() {
        let mut r = Recorder::new(true);
        let round = r.begin("round");
        let op = r.begin_op("acquire");
        r.end_op(op);
        r.end(round);
        assert_eq!(r.op_ns.len(), 1);
        let spans = r.into_spans(3, 1);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].dur_ns() >= spans[1].dur_ns());
        let mut buf = Vec::new();
        write_chrome("lock_migratory", &spans, &mut buf).unwrap();
        let doc = dsm_trace::json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn untraced_recorder_keeps_only_op_samples() {
        let mut r = Recorder::new(false);
        let round = r.begin("round");
        let op = r.begin_op("acquire");
        r.end_op(op);
        r.end(round);
        assert!(r.spans.is_empty());
        assert_eq!(r.op_ns.len(), 1);
    }
}
