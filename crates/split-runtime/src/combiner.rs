//! Flat-combining decision core (ROADMAP item 2; paper §3.4).
//!
//! The original hot path funneled every request through a crossbeam
//! channel into a responder thread, which then fought the executor for a
//! global `Mutex<State>` guarded by a condvar. Under 8–64 client threads
//! the decision latency was governed by lock handoff and context-switch
//! chains, not by the greedy scan the paper times.
//!
//! [`CombiningCore`] replaces that with the flat-combining protocol
//! (Hendler et al.; see also the RCL and CCSynch designs in
//! SNIPPETS.md): all scheduler state lives behind one mutex that is only
//! ever `try_lock`ed on the submission path. A thread with an operation
//!
//! 1. claims a cache-padded **slot** (CAS `FREE → CLAIMED`),
//! 2. writes its operation and a publish timestamp into the slot and
//!    flips it `PUBLISHED` (SeqCst),
//! 3. tries to become the **combiner**: on `try_lock` success it drains
//!    *every* published slot — its own and everyone else's — through the
//!    handler in one pass; on failure it parks briefly and re-checks.
//!
//! The current combiner writes each response back through the slot
//! (`CONSUMED`, Release) and unparks the waiter, so a client observes
//! its own decision with one acquire load. One lock acquisition thus
//! serves *all* pending operations: decision latency is O(pending)
//! amortized O(1) per op, and no condvar broadcast storms occur.
//!
//! **Combiner handoff rule.** Every holder of the core lock — combiner
//! or observer via [`CombiningCore::with_state`] — must (a) drain all
//! published slots before releasing and (b) *re-check* for slots
//! published during its critical section after releasing, re-entering
//! via `try_lock` if any are found. A publisher whose `try_lock` failed
//! is then guaranteed its slot is seen: its SeqCst publish precedes the
//! failed `try_lock`, which precedes the holder's unlock, which precedes
//! the holder's re-check scan. Publishers additionally park with a
//! timeout, so even a missed wakeup costs microseconds, never a hang.
//!
//! The protocol's exact orderings are model-checked by the
//! `runtime.combiner.handoff` and `runtime.combiner.slot_roundtrip`
//! machines in `split-analyze` (codes SA207/SA208), with negative
//! fixtures demonstrating the lost-slot and stale-response failures the
//! orderings rule out.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Number of combining slots. Slots are claimed per *call*, not per
/// thread, so this bounds concurrent submitters (64-thread contention
/// benchmarks plus the executor fit with headroom); excess claimants
/// spin-yield until a slot frees.
pub const SLOTS: usize = 128;

/// How long a publisher parks before re-polling its slot. A backstop
/// only — the fast path is an explicit unpark from the combiner.
const PARK_BACKSTOP: Duration = Duration::from_micros(200);

const FREE: u8 = 0;
const CLAIMED: u8 = 1;
const PUBLISHED: u8 = 2;
const CONSUMED: u8 = 3;

/// Mutable interior of a slot. Guarded by a per-slot mutex that is only
/// ever contended between one publisher and one combiner, never across
/// slots.
struct SlotPayload<Op, Resp> {
    op: Option<Op>,
    resp: Option<Resp>,
    waiter: Option<Thread>,
    publish: Option<Instant>,
}

/// One combining slot, padded to its own cache-line pair so publishing
/// threads never false-share state flags.
#[repr(align(128))]
struct Slot<Op, Resp> {
    /// FREE → CLAIMED → PUBLISHED → CONSUMED → FREE.
    state: AtomicU8,
    payload: Mutex<SlotPayload<Op, Resp>>,
}

impl<Op, Resp> Default for Slot<Op, Resp> {
    fn default() -> Self {
        Self {
            state: AtomicU8::new(FREE),
            payload: Mutex::new(SlotPayload {
                op: None,
                resp: None,
                waiter: None,
                publish: None,
            }),
        }
    }
}

/// The combiner-side operation handler: applies one operation to the
/// shared state and produces its response. Receives the operation's
/// *publish* instant so it can attribute latency from the moment the
/// client made the operation visible — not from lock acquisition, which
/// is exactly the distinction the decision-latency histograms need.
pub type Handler<Op, Resp, S> = Box<dyn Fn(&mut S, Op, Instant) -> Resp + Send + Sync>;

/// A flat-combining core: shared state `S`, operations `Op` applied to
/// it by whichever thread currently combines, responses `Resp` handed
/// back through the slots.
pub struct CombiningCore<Op, Resp, S> {
    slots: Box<[Slot<Op, Resp>]>,
    state: Mutex<S>,
    handler: Handler<Op, Resp, S>,
    /// Rotating start index for slot claims, spreading claimants so they
    /// don't all CAS slot 0.
    hint: AtomicUsize,
}

impl<Op: Send, Resp: Send, S: Send> CombiningCore<Op, Resp, S> {
    /// Build a core around initial state and an operation handler.
    pub fn new(
        state: S,
        handler: impl Fn(&mut S, Op, Instant) -> Resp + Send + Sync + 'static,
    ) -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
            state: Mutex::new(state),
            handler: Box::new(handler),
            hint: AtomicUsize::new(0),
        }
    }

    /// Submit an operation and block until its response is available.
    ///
    /// The calling thread either becomes the combiner (serving everyone's
    /// pending operations, including its own) or parks until the current
    /// combiner serves it.
    pub fn submit(&self, op: Op) -> Resp {
        let idx = self.claim_slot();
        let slot = &self.slots[idx];
        {
            let mut p = slot.payload.lock();
            p.op = Some(op);
            p.resp = None;
            p.waiter = Some(thread::current());
            p.publish = Some(Instant::now());
        }
        // SeqCst so the publish is totally ordered against the combiner's
        // post-release re-check scan (see the handoff rule above).
        slot.state.store(PUBLISHED, Ordering::SeqCst);

        loop {
            if slot.state.load(Ordering::Acquire) == CONSUMED {
                let resp = slot
                    .payload
                    .lock()
                    .resp
                    .take()
                    .expect("consumed slot carries a response");
                slot.state.store(FREE, Ordering::Release);
                return resp;
            }
            if let Some(mut st) = self.state.try_lock() {
                self.drain(&mut st);
                drop(st);
                self.recheck();
                // Own slot was published, so the drain consumed it;
                // loop back to collect the response without parking.
                continue;
            }
            thread::park_timeout(PARK_BACKSTOP);
        }
    }

    /// Run `f` against the shared state directly (observers, shutdown).
    ///
    /// Follows the full combiner discipline: pending operations are
    /// drained both before and after `f` (so `f` observes a quiesced
    /// state and leaves none behind), and the post-release re-check
    /// keeps the handoff rule intact.
    pub fn with_state<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let mut st = self.state.lock();
        self.drain(&mut st);
        let r = f(&mut st);
        self.drain(&mut st);
        drop(st);
        self.recheck();
        r
    }

    /// Claim a FREE slot, spreading starts via the rotating hint.
    fn claim_slot(&self) -> usize {
        let start = self.hint.fetch_add(1, Ordering::Relaxed);
        loop {
            for i in 0..self.slots.len() {
                let idx = (start + i) % self.slots.len();
                if self.slots[idx]
                    .state
                    .compare_exchange(FREE, CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return idx;
                }
            }
            // All slots in flight (more than SLOTS concurrent callers):
            // yield until a consumer frees one.
            thread::yield_now();
        }
    }

    /// Combiner pass: apply every published operation to the state and
    /// hand each response back through its slot. Caller holds the lock.
    fn drain(&self, st: &mut S) {
        for slot in self.slots.iter() {
            if slot.state.load(Ordering::SeqCst) != PUBLISHED {
                continue;
            }
            let (op, publish, waiter) = {
                let mut p = slot.payload.lock();
                (
                    p.op.take().expect("published slot carries an op"),
                    p.publish.take().expect("published slot carries a stamp"),
                    p.waiter.take(),
                )
            };
            let resp = (self.handler)(st, op, publish);
            slot.payload.lock().resp = Some(resp);
            // Release: the response write above happens-before the
            // publisher's acquire load of CONSUMED.
            slot.state.store(CONSUMED, Ordering::Release);
            if let Some(w) = waiter {
                w.unpark();
            }
        }
    }

    /// Post-release half of the handoff rule: if anything was published
    /// while we held the lock, either serve it ourselves or leave it to
    /// the holder whose `try_lock` beat ours (who follows the same
    /// rule).
    fn recheck(&self) {
        loop {
            let pending = self
                .slots
                .iter()
                .any(|s| s.state.load(Ordering::SeqCst) == PUBLISHED);
            if !pending {
                return;
            }
            match self.state.try_lock() {
                Some(mut st) => {
                    self.drain(&mut st);
                    // Loop: the drain itself ran while new slots may
                    // have published.
                }
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Counter state: ops add, responses echo the running total.
    fn counter_core() -> CombiningCore<u64, u64, u64> {
        CombiningCore::new(0u64, |total, add, _publish| {
            *total += add;
            *total
        })
    }

    #[test]
    fn single_thread_roundtrip() {
        let core = counter_core();
        assert_eq!(core.submit(5), 5);
        assert_eq!(core.submit(7), 12);
        assert_eq!(core.with_state(|t| *t), 12);
    }

    #[test]
    fn concurrent_submissions_all_apply() {
        let core = Arc::new(counter_core());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let core = Arc::clone(&core);
                thread::spawn(move || {
                    for _ in 0..500 {
                        core.submit(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(core.with_state(|t| *t), 8 * 500);
    }

    #[test]
    fn responses_are_not_crossed_between_threads() {
        // Each thread adds its own tag and must read a total that
        // includes it — a stale (pre-apply) response would be smaller.
        let core = Arc::new(CombiningCore::new(0u64, |total: &mut u64, add, _| {
            *total += add;
            *total
        }));
        let handles: Vec<_> = (1..=6u64)
            .map(|tag| {
                let core = Arc::clone(&core);
                thread::spawn(move || {
                    for _ in 0..200 {
                        let seen = core.submit(tag);
                        assert!(seen >= tag, "response {seen} predates own op {tag}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn handler_sees_publish_instants() {
        let core = CombiningCore::new(Vec::new(), |log: &mut Vec<u128>, (): (), publish| {
            log.push(publish.elapsed().as_nanos());
        });
        core.submit(());
        core.submit(());
        let lat = core.with_state(|log| log.clone());
        assert_eq!(lat.len(), 2);
    }

    #[test]
    fn with_state_drains_pending_operations() {
        // A publisher that parks (its try_lock loses) must still be
        // served when an observer passes through the state.
        let core = Arc::new(counter_core());
        let c2 = Arc::clone(&core);
        let t = thread::spawn(move || c2.submit(41));
        t.join().unwrap();
        assert_eq!(core.with_state(|t| *t), 41);
    }
}
