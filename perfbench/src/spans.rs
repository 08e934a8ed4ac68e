//! In-memory span log for the traced run.
//!
//! Every timed call into a simulator crate records one span: its layer,
//! its start and end (nanoseconds since the log was created), and the
//! span open around it. Self time is a span's duration minus the part its
//! direct children cover.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// The boundaries the traced run times, named after the crate whose
/// public function is called (`loop` is the benchmark's own loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One unit's whole traced co-simulation loop (the root span).
    Loop,
    /// `Core::run` and `Core::on_mem_complete`.
    Cpu,
    /// `InstrStream::next_instr` of the generated stream.
    NextInstr,
    /// `Tlb::lookup`, `Tlb::fill`, `Tlb::shootdown`.
    Tlb,
    /// `MemoryManager::translate` plus the PTE read after it.
    Translate,
    /// `Hierarchy::issue_translated`.
    Issue,
    /// `Hierarchy::tick_into`.
    Tick,
    /// `FuzzConfig::stream_file`.
    FuzzGenerate,
    /// `fuzz::replay`.
    FuzzReplay,
    /// `contended_stream`.
    ExploreGenerate,
    /// `explore_parallel_profiled` (one call per tree).
    Explore,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 11] = [
        Layer::Loop,
        Layer::Cpu,
        Layer::NextInstr,
        Layer::Tlb,
        Layer::Translate,
        Layer::Issue,
        Layer::Tick,
        Layer::FuzzGenerate,
        Layer::FuzzReplay,
        Layer::ExploreGenerate,
        Layer::Explore,
    ];

    /// Span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Loop => "core.loop",
            Layer::Cpu => "cpu.run",
            Layer::NextInstr => "workloads.next_instr",
            Layer::Tlb => "mmu.tlb",
            Layer::Translate => "mmu.translate",
            Layer::Issue => "coherence.issue",
            Layer::Tick => "coherence.tick",
            Layer::FuzzGenerate => "core.fuzz_generate",
            Layer::FuzzReplay => "core.fuzz_replay",
            Layer::ExploreGenerate => "core.explore_generate",
            Layer::Explore => "core.explore",
        }
    }

    fn index(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).expect("listed")
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Self time per layer, in seconds, plus the number of spans.
#[derive(Debug, Clone, Default)]
pub struct SelfTimes {
    secs: [f64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
}

impl SelfTimes {
    /// Self seconds of `layer`.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.secs[layer.index()]
    }

    /// Spans recorded for `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Sum of every layer's self time: the root spans' total duration.
    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &SelfTimes) {
        for i in 0..self.secs.len() {
            self.secs[i] += other.secs[i];
            self.calls[i] += other.calls[i];
        }
    }
}

/// The span log. Shared by `Rc<RefCell<_>>` between the loop, the memory
/// port and the stream wrapper, which all run on one thread.
#[derive(Debug)]
pub struct SpanLog {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Shared handle to a [`SpanLog`].
pub type SharedLog = Rc<RefCell<SpanLog>>;

impl SpanLog {
    /// An empty log, shared.
    pub fn shared() -> SharedLog {
        Rc::new(RefCell::new(SpanLog {
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` under the innermost open span.
    pub fn enter(&mut self, layer: Layer) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit without enter") as usize;
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Whether no span is held.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Wall seconds covered by root spans since the last
    /// [`SpanLog::fold`].
    pub fn root_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Folds the held spans into per-layer self times and empties the log.
    pub fn fold(&mut self) -> SelfTimes {
        assert!(self.open.is_empty(), "fold with open spans");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = SelfTimes::default();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let i = s.layer.index();
            out.secs[i] += (s.end_ns - s.start_ns - child) as f64 / 1e9;
            out.calls[i] += 1;
        }
        self.spans.clear();
        out
    }

    /// Writes the first `limit` held spans as tab-separated `index name
    /// parent start_ns end_ns` lines (parent `-` for a root).
    pub fn write_tsv(&self, w: &mut impl Write, limit: usize) -> std::io::Result<()> {
        writeln!(
            w,
            "# {} of {} spans\nindex\tname\tparent\tstart_ns\tend_ns",
            self.spans.len().min(limit),
            self.spans.len()
        )?;
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{}\t{parent}\t{}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Runs `f` inside a span of `layer`.
pub fn timed<R>(log: &SharedLog, layer: Layer, f: impl FnOnce() -> R) -> R {
    log.borrow_mut().enter(layer);
    let r = f();
    log.borrow_mut().exit();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_back_to_the_root() {
        let log = SpanLog::shared();
        timed(&log, Layer::Loop, || {
            timed(&log, Layer::Cpu, || {
                timed(&log, Layer::NextInstr, || std::hint::black_box(1 + 1));
            });
            timed(&log, Layer::Tick, || std::hint::black_box(2));
        });
        let root = log.borrow().root_secs();
        let folded = log.borrow_mut().fold();
        assert!((folded.total() - root).abs() < 1e-12);
        assert_eq!(folded.calls(Layer::NextInstr), 1);
        assert!(log.borrow().is_empty());
    }
}
