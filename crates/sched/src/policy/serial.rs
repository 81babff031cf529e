//! The single-stream serving loop shared by the sequential baselines
//! (ClockWork, PREMA, SJF, EDF, block round-robin).
//!
//! Every one of them serves one device stream the same way: admit the
//! arrivals up to `now`, jump to the next arrival when nothing waits, run
//! one slice, repeat. [`serve`] owns that loop — arrivals, time, span
//! recording, completions and the [`SimResult`] — and a [`Discipline`]
//! supplies only its rules: which waiting request runs next, how long its
//! slice is, any switch overhead, and whether the request is then done,
//! requeued or dropped. SPLIT keeps its own driver around
//! [`super::SplitMachine`]; RT-A and Stream-Parallel model concurrent
//! streams (DESIGN.md §18).

use crate::engine::SimResult;
use crate::request::{Completion, ModelRuntime, ModelTable};
use gpu_sim::Trace;
use workload::Arrival;

/// A request in a discipline's waiting set.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Req<'a> {
    /// Position in the arrival trace: the arrival-order tie-break.
    pub idx: usize,
    /// Request id.
    pub id: u64,
    /// Arrival time, µs.
    pub arrival_us: f64,
    /// The request's model.
    pub model: &'a ModelRuntime,
}

/// One run of a request on the device.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slice<'a> {
    /// The request that runs.
    pub req: Req<'a>,
    /// Span start, µs.
    pub start_us: f64,
    /// Context-switch penalty paid at the start of the span, µs.
    pub overhead_us: f64,
    /// Work done after the overhead, µs.
    pub run_us: f64,
    /// Block index, for a span that is one planned block.
    pub block: Option<u32>,
    /// When the request first got the device (its completion's start).
    pub started_us: f64,
    /// Whether this slice finishes the request. A discipline that keeps
    /// an unfinished request waits for [`Discipline::requeue`].
    pub done: bool,
}

/// What a discipline does with the device next.
pub(crate) enum Dispatch<'a> {
    /// Run a slice.
    Run(Slice<'a>),
    /// Drop the request with this id unserved.
    Drop(u64),
}

/// The rules of one single-stream scheduling discipline.
pub(crate) trait Discipline<'a> {
    /// Whether completions stay in service order instead of being sorted
    /// by `(end, id)`.
    const SERVICE_ORDER: bool = false;

    /// Take an arrival into the waiting set.
    fn admit(&mut self, req: Req<'a>);

    /// What runs at `now`, or `None` when nothing waits.
    fn dispatch(&mut self, now: f64) -> Option<Dispatch<'a>>;

    /// Put back the request whose unfinished slice just ran, after the
    /// arrivals during that slice were admitted.
    fn requeue(&mut self) {}
}

/// Serve `arrivals` over `models` under discipline `d`; returns the
/// result and the ids `d` dropped, in drop order.
///
/// # Panics
/// When an arrival names a model `models` does not deploy.
pub(crate) fn serve<'a, D: Discipline<'a>>(
    arrivals: &[Arrival],
    models: &'a ModelTable,
    mut d: D,
) -> (SimResult, Vec<u64>) {
    let mut trace = Trace::new();
    let mut completions = Vec::with_capacity(arrivals.len());
    let mut dropped = Vec::new();
    let mut now = 0.0f64;
    let mut next = 0usize;
    let mut admit = |now: f64, d: &mut D| {
        while let Some(a) = arrivals.get(next).filter(|a| a.arrival_us <= now + 1e-9) {
            d.admit(Req {
                idx: next,
                id: a.id,
                arrival_us: a.arrival_us,
                model: models.get(&a.model),
            });
            next += 1;
        }
        arrivals.get(next).map(|a| a.arrival_us)
    };

    loop {
        let upcoming = admit(now, &mut d);
        let s = match d.dispatch(now) {
            Some(Dispatch::Run(s)) => s,
            Some(Dispatch::Drop(id)) => {
                dropped.push(id);
                continue;
            }
            None => match upcoming {
                Some(t) => {
                    now = t;
                    continue;
                }
                None => break,
            },
        };
        let m = s.req.model;
        // The span and the device's next free instant are PREMA's two
        // sums, which can round apart; with no overhead they agree.
        let end = s.start_us + s.overhead_us + s.run_us;
        trace.record(s.req.id, m.name.clone(), s.block, 0, s.start_us, end);
        now = s.start_us + (s.overhead_us + s.run_us);
        if s.done {
            completions.push(Completion {
                id: s.req.id,
                model: m.name.clone(),
                task: m.task,
                arrival_us: s.req.arrival_us,
                start_us: s.started_us,
                end_us: now,
                exec_us: m.exec_us,
            });
        } else {
            admit(now, &mut d);
            d.requeue();
        }
    }

    if !D::SERVICE_ORDER {
        completions.sort_by(|a, b| a.end_us.total_cmp(&b.end_us).then(a.id.cmp(&b.id)));
    }
    let result = SimResult {
        completions,
        trace,
        recorder: Default::default(),
    };
    (result, dropped)
}

/// Non-preemptive service of whole models, the waiting request with the
/// least key first (ties by arrival order): SJF keys on execution time,
/// EDF on the deadline.
pub(crate) struct LeastKey<'a, K> {
    key: K,
    waiting: Vec<(f64, Req<'a>)>,
}

impl<'a, K: Fn(&Req<'a>) -> f64> LeastKey<'a, K> {
    pub(crate) fn new(key: K) -> Self {
        Self {
            key,
            waiting: Vec::new(),
        }
    }
}

impl<'a, K: Fn(&Req<'a>) -> f64> Discipline<'a> for LeastKey<'a, K> {
    fn admit(&mut self, req: Req<'a>) {
        self.waiting.push(((self.key)(&req), req));
    }

    fn dispatch(&mut self, now: f64) -> Option<Dispatch<'a>> {
        let pick = (self.waiting.iter().enumerate())
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.idx.cmp(&b.1.idx)))?
            .0;
        let (_, req) = self.waiting.swap_remove(pick);
        Some(Dispatch::Run(whole(req, now)))
    }
}

/// `req`'s whole model as one slice, from `now` or its arrival if later.
pub(crate) fn whole(req: Req<'_>, now: f64) -> Slice<'_> {
    let start_us = now.max(req.arrival_us);
    Slice {
        req,
        start_us,
        overhead_us: 0.0,
        run_us: req.model.exec_us,
        block: None,
        started_us: start_us,
        done: true,
    }
}
