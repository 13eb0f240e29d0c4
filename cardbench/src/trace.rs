//! Call timing and the in-memory span trace.
//!
//! Every public call the benchmark makes into the workspace goes through a
//! [`Recorder`]: it always measures the call's wall time, and while tracing
//! is on it also records a [`Span`] (layer, operation, start, end, parent
//! span, pass id, process CPU time). Spans stay in memory until the run
//! ends and are written out once, so tracing adds no I/O to the timed
//! script. The recorder is shared (`Rc`) with the timing mobility wrapper,
//! whose calls happen inside `EventDriver::drive` and therefore nest under
//! the drive segment's span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index of the span in the recorder's list.
    pub id: u32,
    /// The span open when this one began (the caller), if any.
    pub parent: Option<u32>,
    /// Pass the span belongs to.
    pub run: u32,
    /// Layer the call enters (a module name of the workspace).
    pub layer: &'static str,
    /// The public function called.
    pub op: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Process CPU time (all threads) spent between start and end.
    pub cpu_ns: u64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-layer totals of one pass's spans.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// Span time minus the time covered by the span's children, seconds.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Summed wall time of the layer's spans, seconds.
    pub wall_s: BTreeMap<&'static str, f64>,
    /// Summed process CPU time of the layer's spans, seconds.
    pub cpu_s: BTreeMap<&'static str, f64>,
    /// Summed wall time of root spans (calls the script made directly).
    pub root_s: f64,
}

/// Motion observed by the timing mobility wrapper.
#[derive(Clone, Copy, Debug, Default)]
pub struct MobilityTally {
    /// Seconds spent inside the wrapped models.
    pub secs: f64,
    /// Calls into the wrapped models.
    pub calls: u64,
    /// Movers the models reported.
    pub movers: u64,
}

struct Inner {
    tracing: bool,
    run: u32,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    mobility: MobilityTally,
}

/// A call in progress (see [`Recorder::begin`]).
#[must_use = "a begun call must be ended"]
pub struct Open {
    start: Instant,
    cpu0: u64,
    slot: Option<u32>,
}

/// Shared call timer and span recorder.
#[derive(Clone)]
pub struct Recorder(Rc<RefCell<Inner>>);

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with tracing off.
    pub fn new() -> Self {
        Recorder(Rc::new(RefCell::new(Inner {
            tracing: false,
            run: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            mobility: MobilityTally::default(),
        })))
    }

    /// Start pass `run`, recording spans only if `tracing`. Clears the
    /// mobility tally.
    pub fn start_pass(&self, run: u32, tracing: bool) {
        let mut inner = self.0.borrow_mut();
        assert!(inner.stack.is_empty(), "a pass started inside an open call");
        inner.run = run;
        inner.tracing = tracing;
        inner.mobility = MobilityTally::default();
    }

    /// Begin a call into `layer`'s `op`.
    pub fn begin(&self, layer: &'static str, op: &'static str) -> Open {
        let slot = {
            let mut inner = self.0.borrow_mut();
            if inner.tracing {
                let id = inner.spans.len() as u32;
                let parent = inner.stack.last().copied();
                let run = inner.run;
                inner.spans.push(Span {
                    id,
                    parent,
                    run,
                    layer,
                    op,
                    start_ns: 0,
                    end_ns: 0,
                    cpu_ns: 0,
                });
                inner.stack.push(id);
                Some(id)
            } else {
                None
            }
        };
        let cpu0 = if slot.is_some() { process_cpu_ns() } else { 0 };
        Open {
            start: Instant::now(),
            cpu0,
            slot,
        }
    }

    /// End a call; returns its wall time in seconds.
    pub fn end(&self, open: Open) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(open.start).as_secs_f64();
        if let Some(id) = open.slot {
            let cpu = process_cpu_ns().saturating_sub(open.cpu0);
            let mut inner = self.0.borrow_mut();
            let origin = inner.origin;
            let span = &mut inner.spans[id as usize];
            span.start_ns = open.start.duration_since(origin).as_nanos() as u64;
            span.end_ns = end.duration_since(origin).as_nanos() as u64;
            span.cpu_ns = cpu;
            let popped = inner.stack.pop();
            assert_eq!(popped, Some(id), "calls must end in reverse order");
        }
        secs
    }

    /// Add one wrapped mobility call to the tally.
    pub fn note_mobility(&self, secs: f64, movers: usize) {
        let mut inner = self.0.borrow_mut();
        inner.mobility.secs += secs;
        inner.mobility.calls += 1;
        inner.mobility.movers += movers as u64;
    }

    /// The mobility tally of the current pass.
    pub fn mobility(&self) -> MobilityTally {
        self.0.borrow().mobility
    }

    /// Per-layer self, wall and CPU time of pass `run`'s spans.
    pub fn layer_times(&self, run: u32) -> LayerTimes {
        let inner = self.0.borrow();
        let spans: Vec<&Span> = inner.spans.iter().filter(|s| s.run == run).collect();
        let mut child_s: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_s.entry(p).or_default() += s.secs();
            }
        }
        let mut t = LayerTimes::default();
        for s in &spans {
            let children = child_s.get(&s.id).copied().unwrap_or(0.0);
            *t.self_s.entry(s.layer).or_default() += s.secs() - children;
            *t.wall_s.entry(s.layer).or_default() += s.secs();
            *t.cpu_s.entry(s.layer).or_default() += s.cpu_ns as f64 * 1e-9;
            if s.parent.is_none() {
                t.root_s += s.secs();
            }
        }
        t
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.0.borrow().spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.0.borrow().spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"layer\":\"{}\",\"op\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
                s.id, parent, s.run, s.layer, s.op, s.start_ns, s.end_ns, s.cpu_ns
            )?;
        }
        out.flush()
    }
}

/// CPU time consumed so far by every thread of this process, in ns.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this builds for), and the clock id is a
    // constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time is measured on 64-bit Linux only.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ns() -> u64 {
    0
}
