//! Spans recorded from outside the program: a lap timer around every
//! call the benchmark's own loops make into a public function.
//!
//! The clock is read once per span boundary: the end of one span is the
//! start of the next, so the spans of a frame tile it exactly and the
//! frame span's own self time is zero by construction. The time the
//! benchmark itself spends between calls is carried by the `driver.*`
//! spans, and their share of the frame is the ledger's residual.

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Samples;

/// Raw span records kept for the trace file; aggregates cover every span.
const RAW_CAP: usize = 200_000;

/// A named layer boundary. `driver.*` layers are the benchmark's own work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Layer {
    SimAdvance,
    SimSend,
    Datagram,
    NodeTick,
    LobbyTick,
    LobbyReport,
    LobbyAdmit,
    NodeChurn,
    AuditDrain,
    LivePump,
    LiveQueue,
    DriverEvents,
    DriverScript,
}

pub const LAYERS: usize = 13;

impl Layer {
    pub const ALL: [Layer; LAYERS] = [
        Layer::SimAdvance,
        Layer::SimSend,
        Layer::Datagram,
        Layer::NodeTick,
        Layer::LobbyTick,
        Layer::LobbyReport,
        Layer::LobbyAdmit,
        Layer::NodeChurn,
        Layer::AuditDrain,
        Layer::LivePump,
        Layer::LiveQueue,
        Layer::DriverEvents,
        Layer::DriverScript,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::SimAdvance => "net.simnet.advance_to",
            Layer::SimSend => "net.simnet.send",
            Layer::Datagram => "core.sans_io.datagram",
            Layer::NodeTick => "core.sans_io.tick",
            Layer::LobbyTick => "core.lobby.tick",
            Layer::LobbyReport => "core.lobby.report",
            Layer::LobbyAdmit => "core.lobby.admit_midgame",
            Layer::NodeChurn => "core.node.churn",
            Layer::AuditDrain => "core.audit.drain",
            Layer::LivePump => "net.live.pump",
            Layer::LiveQueue => "net.live.queue",
            Layer::DriverEvents => "driver.events",
            Layer::DriverScript => "driver.script",
        }
    }

    /// Layers whose percentiles are reported keep every sample.
    pub fn keeps_samples(self) -> bool {
        matches!(self, Layer::Datagram | Layer::NodeTick | Layer::LivePump | Layer::LobbyAdmit)
    }

    pub fn is_driver(self) -> bool {
        matches!(self, Layer::DriverEvents | Layer::DriverScript)
    }
}

/// What the frame loops call at every boundary. [`NoProbe`] compiles to
/// nothing but the two clock reads that time the whole frame.
pub trait Probe {
    /// Whether laps are recorded (lets loops skip trace-only work).
    const TRACED: bool;
    /// A frame of `unit` begins now.
    fn begin_frame(&mut self, unit: u32, frame: u64);
    /// The time since the previous boundary belongs to `layer`; returns it
    /// in nanoseconds (0 when untraced).
    fn lap(&mut self, layer: Layer) -> u64;
    /// The frame ends; returns its wall time in nanoseconds.
    fn end_frame(&mut self) -> u64;
    /// Books a `datagram()` call of `ns` under its payload label.
    fn note_label(&mut self, label: usize, ns: u64);
}

/// The untraced probe: times whole frames only.
#[derive(Debug)]
pub struct NoProbe {
    start: Instant,
}

impl NoProbe {
    pub fn new() -> Self {
        NoProbe { start: Instant::now() }
    }
}

impl Probe for NoProbe {
    const TRACED: bool = false;

    #[inline]
    fn begin_frame(&mut self, _unit: u32, _frame: u64) {
        self.start = Instant::now();
    }

    #[inline]
    fn lap(&mut self, _layer: Layer) -> u64 {
        0
    }

    #[inline]
    fn end_frame(&mut self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    #[inline]
    fn note_label(&mut self, _label: usize, _ns: u64) {}
}

/// One recorded span, as written to the trace file.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    id: u32,
    /// `None` for the frame span itself.
    layer: Option<Layer>,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    unit: u32,
    frame: u64,
}

/// The traced probe: call count and total time for every layer, every
/// sample for the layers whose percentiles are reported, raw records for
/// the first [`RAW_CAP`] spans.
#[derive(Debug)]
pub struct SpanProbe {
    epoch: Instant,
    last_ns: u64,
    frame_start_ns: u64,
    unit: u32,
    frame: u64,
    frame_span: u32,
    next_id: u32,
    /// `(calls, ns)` per layer.
    totals: [(u64, u64); LAYERS],
    samples: Vec<Samples>,
    raw: Vec<SpanRec>,
    /// `(calls, ns)` of `datagram()` per payload label.
    pub by_label: [(u64, u64); 12],
}

impl SpanProbe {
    pub fn new() -> Self {
        SpanProbe {
            epoch: Instant::now(),
            last_ns: 0,
            frame_start_ns: 0,
            unit: 0,
            frame: 0,
            frame_span: 0,
            next_id: 0,
            totals: [(0, 0); LAYERS],
            samples: Layer::ALL
                .iter()
                .map(|l| Samples::with_capacity(if l.keeps_samples() { 1 << 21 } else { 0 }))
                .collect(),
            raw: Vec::with_capacity(RAW_CAP),
            by_label: [(0, 0); 12],
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every sample of a layer that [`Layer::keeps_samples`].
    pub fn samples(&self, layer: Layer) -> &Samples {
        debug_assert!(layer.keeps_samples());
        &self.samples[layer as usize]
    }

    /// Calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.totals[layer as usize].0
    }

    /// Total nanoseconds spent in `layer`.
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.totals[layer as usize].1
    }

    /// Writes the retained raw spans as JSON lines:
    /// `{"id","name","start_ns","end_ns","parent","match","frame"}`; frame
    /// spans have `"parent":null`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.raw.len() * 120);
        // A frame's record is pushed when the frame ends, so it follows
        // its children in the file.
        for r in &self.raw {
            let (name, parent) = match r.layer {
                Some(l) => (l.name(), r.parent.to_string()),
                None => ("frame", "null".to_owned()),
            };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"match\":{},\"frame\":{}}}",
                r.id, r.start_ns, r.end_ns, r.unit, r.frame
            );
        }
        std::fs::write(path, out)
    }
}

impl Probe for SpanProbe {
    const TRACED: bool = true;

    #[inline]
    fn begin_frame(&mut self, unit: u32, frame: u64) {
        let now = self.now_ns();
        self.last_ns = now;
        self.frame_start_ns = now;
        self.unit = unit;
        self.frame = frame;
        self.next_id += 1;
        self.frame_span = self.next_id;
    }

    #[inline]
    fn lap(&mut self, layer: Layer) -> u64 {
        let now = self.now_ns();
        let dur = now - self.last_ns;
        let total = &mut self.totals[layer as usize];
        total.0 += 1;
        total.1 += dur;
        if layer.keeps_samples() {
            self.samples[layer as usize].push(dur);
        }
        if self.raw.len() < RAW_CAP {
            self.next_id += 1;
            self.raw.push(SpanRec {
                id: self.next_id,
                layer: Some(layer),
                start_ns: self.last_ns,
                end_ns: now,
                parent: self.frame_span,
                unit: self.unit,
                frame: self.frame,
            });
        }
        self.last_ns = now;
        dur
    }

    #[inline]
    fn end_frame(&mut self) -> u64 {
        // The last lap ended the frame: no further clock read.
        if self.raw.len() < RAW_CAP {
            self.raw.push(SpanRec {
                id: self.frame_span,
                layer: None,
                start_ns: self.frame_start_ns,
                end_ns: self.last_ns,
                parent: self.frame_span,
                unit: self.unit,
                frame: self.frame,
            });
        }
        self.last_ns - self.frame_start_ns
    }

    #[inline]
    fn note_label(&mut self, label: usize, ns: u64) {
        self.by_label[label].0 += 1;
        self.by_label[label].1 += ns;
    }
}
