//! Benchmark-side tracing: spans recorded around calls into each layer's
//! public API, and a timing wrapper around backbone queue disciplines.
//!
//! Nothing here reaches inside the library: spans wrap the calls the
//! benchmark itself makes, and [`TimedQdisc`] is installed through
//! `Network::set_qdisc` like any other discipline.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use netsim_net::Pkt;
use netsim_qos::{EnqueueOutcome, Nanos, QueueDiscipline};

/// One recorded span: a named interval and the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.network.add_site`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Span duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Marker returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call, so the untraced run pays nothing measurable.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), enabled: false }
    }

    /// A recording tracer. Capacity is reserved up front so recording a
    /// span never allocates inside a measured run.
    pub fn on() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(64),
            enabled: true,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must nest");
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children nest, so their durations simply add).
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// The spans as JSON lines, self time included.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {self_ns}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Shared call tallies of every [`TimedQdisc`] on a network. Atomics
/// because disciplines must be `Send`; all updates are statistics.
#[derive(Debug, Default)]
pub struct QosTally {
    enq_calls: AtomicU64,
    enq_ns: AtomicU64,
    deq_calls: AtomicU64,
    deq_ns: AtomicU64,
    drops: AtomicU64,
    max_depth: AtomicU64,
}

/// A plain copy of [`QosTally`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QosCounts {
    /// `enqueue` calls.
    pub enq_calls: u64,
    /// Host ns inside `enqueue`.
    pub enq_ns: u64,
    /// `dequeue` calls.
    pub deq_calls: u64,
    /// Host ns inside `dequeue`.
    pub deq_ns: u64,
    /// Packets the disciplines refused.
    pub drops: u64,
    /// Deepest backlog seen on any one discipline, packets.
    pub max_depth: u64,
}

impl QosTally {
    /// Current values.
    pub fn snapshot(&self) -> QosCounts {
        QosCounts {
            enq_calls: self.enq_calls.load(Relaxed),
            enq_ns: self.enq_ns.load(Relaxed),
            deq_calls: self.deq_calls.load(Relaxed),
            deq_ns: self.deq_ns.load(Relaxed),
            drops: self.drops.load(Relaxed),
            max_depth: self.max_depth.load(Relaxed),
        }
    }

    /// Clears the running maximum (start of a measured window).
    pub fn reset_max_depth(&self) {
        self.max_depth.store(0, Relaxed);
    }
}

impl QosCounts {
    /// Counts accumulated since `base` (the running maximum is kept).
    pub fn since(self, base: QosCounts) -> QosCounts {
        QosCounts {
            enq_calls: self.enq_calls - base.enq_calls,
            enq_ns: self.enq_ns - base.enq_ns,
            deq_calls: self.deq_calls - base.deq_calls,
            deq_ns: self.deq_ns - base.deq_ns,
            drops: self.drops - base.drops,
            max_depth: self.max_depth,
        }
    }
}

/// Times every `enqueue`/`dequeue` of the wrapped discipline and forwards
/// every other [`QueueDiscipline`] method unchanged.
pub struct TimedQdisc {
    inner: Box<dyn QueueDiscipline>,
    tally: Arc<QosTally>,
}

impl TimedQdisc {
    /// Wraps `inner`, reporting into `tally`.
    pub fn new(inner: Box<dyn QueueDiscipline>, tally: Arc<QosTally>) -> Self {
        TimedQdisc { inner, tally }
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl QueueDiscipline for TimedQdisc {
    fn enqueue(&mut self, pkt: Pkt, now: Nanos) -> EnqueueOutcome {
        let t = Instant::now();
        let out = self.inner.enqueue(pkt, now);
        self.tally.enq_ns.fetch_add(elapsed_ns(t), Relaxed);
        self.tally.enq_calls.fetch_add(1, Relaxed);
        if out.is_queued() {
            self.tally.max_depth.fetch_max(self.inner.len_packets() as u64, Relaxed);
        } else {
            self.tally.drops.fetch_add(1, Relaxed);
        }
        out
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Pkt> {
        let t = Instant::now();
        let out = self.inner.dequeue(now);
        self.tally.deq_ns.fetch_add(elapsed_ns(t), Relaxed);
        self.tally.deq_calls.fetch_add(1, Relaxed);
        out
    }

    fn len_packets(&self) -> usize {
        self.inner.len_packets()
    }

    fn len_bytes(&self) -> usize {
        self.inner.len_bytes()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn peek_len(&self) -> Option<usize> {
        self.inner.peek_len()
    }

    fn next_ready(&self, now: Nanos) -> Option<Nanos> {
        self.inner.next_ready(now)
    }

    fn purge(&mut self) -> Vec<Pkt> {
        self.inner.purge()
    }
}

/// Host cost of one empty `Instant::now()` pair, ns (median of many
/// samples): subtracted from per-call timings so they price the layer,
/// not the clock.
pub fn timer_cost_ns() -> f64 {
    let mut samples: Vec<u64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            elapsed_ns(std::hint::black_box(t))
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}
