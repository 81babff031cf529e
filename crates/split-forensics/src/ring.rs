//! The always-on flight recorder: a bounded, lock-free ring of compact
//! per-request causal records.
//!
//! The full lifecycle [`split_telemetry::Recorder`] is rich (owned
//! strings, nested enums) but writes behind a mutex; the flight ring is
//! its cheap, crash-forensics counterpart. Each record is six `u64`
//! words, a slot is claimed with one `fetch_add`, and publication uses a
//! per-slot seqlock stamp — writers never block each other or a reader,
//! and a reader detects (and skips) the rare slot it races with. The
//! ring therefore stays on in production; `perfbench`'s
//! `flight_ring/record` entry measures the cost of one record.
//!
//! Entirely safe Rust: the seqlock is built from `AtomicU64` fields
//! only, so a torn *slot* is impossible by construction and a torn
//! *record* (fields from two different writes) is rejected by the stamp
//! check.
//!
//! **Certified under weak memory.** The exact stamp/fence protocol
//! below — orderings included — is modeled by `split-analyze`'s
//! weak-memory checker (DESIGN.md §14) as the
//! `forensics.flightring.seqlock` (SA205, torn record) and
//! `forensics.flightring.cut` (SA206, inconsistent cut) machines, and
//! every execution reachable under C11 release/acquire semantics is
//! explored via DPOR. Two negative fixtures keep the certification
//! honest: deleting the writer's release fence fires exactly SA205,
//! and swapping the odd/even stamp order fires exactly SA206 — so if
//! you change this protocol, change the model with it or CI's
//! `analyze` job will tell you which bug you just reintroduced.

use serde::{Deserialize, Serialize};
use split_telemetry::Event;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// `req` value for records that belong to no request (queue-depth
/// samples).
pub const NO_REQ: u64 = u64::MAX;

/// What a flight record captures. Kind-specific payloads ride in the
/// record's `a`/`b` words (see [`FlightRecord`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightKind {
    /// Request entered the system. `a`/`b` unused.
    Arrival,
    /// Greedy preemption decision. `a` = chosen queue position,
    /// `b` = decision cost in ns.
    Decision,
    /// Queue transition (insertion). `a` = position, `b` = entries
    /// displaced (jumped over).
    Enqueue,
    /// Block began executing. `a` = block index, `b` = stream.
    BlockStart,
    /// Block finished. `a` = block index, `b` = stream.
    BlockEnd,
    /// Boundary activation transfer. `a` = bytes, `b` = duration in ns.
    Transfer,
    /// Request finished. `a`/`b` unused.
    Completion,
    /// Elastic downgrade. `a` = blocks before, `b` = blocks after.
    Downgrade,
    /// Wait-queue depth sample (`req` = [`NO_REQ`]). `a` = depth.
    QueueDepth,
    /// Request rejected (unknown model). `a`/`b` unused.
    Drop,
}

impl FlightKind {
    const ALL: [FlightKind; 10] = [
        FlightKind::Arrival,
        FlightKind::Decision,
        FlightKind::Enqueue,
        FlightKind::BlockStart,
        FlightKind::BlockEnd,
        FlightKind::Transfer,
        FlightKind::Completion,
        FlightKind::Downgrade,
        FlightKind::QueueDepth,
        FlightKind::Drop,
    ];

    fn code(self) -> u64 {
        Self::ALL.iter().position(|&k| k == self).expect("listed") as u64
    }

    fn from_code(code: u64) -> Option<FlightKind> {
        Self::ALL.get(code as usize).copied()
    }
}

/// One published flight record. Fixed-size and flat so the ring slot is
/// six atomics and a bundle serializes it with the plain derive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Global causal sequence number (allocation order across all
    /// writer threads). Strictly increasing in a snapshot — the `SA403`
    /// invariant.
    pub seq: u64,
    /// Timestamp, µs on the recording layer's clock.
    pub t_us: f64,
    /// Request id, or [`NO_REQ`].
    pub req: u64,
    /// Record kind.
    pub kind: FlightKind,
    /// First kind-specific payload word (see [`FlightKind`]).
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

impl FlightRecord {
    /// Flight projection of a lifecycle event, or `None` for events
    /// with no causal projection (utilization samples and free-form
    /// marks are metrics, not causal records).
    pub fn from_event(seq: u64, e: &Event) -> Option<FlightRecord> {
        use split_telemetry::Event as E;
        let (t_us, req, kind, a, b) = match e {
            E::Arrival { req, t_us, .. } => (*t_us, *req, FlightKind::Arrival, 0, 0),
            E::PreemptDecision {
                req,
                position,
                decision_ns,
                t_us,
                ..
            } => (
                *t_us,
                *req,
                FlightKind::Decision,
                *position as u64,
                *decision_ns,
            ),
            E::Enqueue {
                req,
                position,
                displaced,
                t_us,
            } => (
                *t_us,
                *req,
                FlightKind::Enqueue,
                *position as u64,
                *displaced as u64,
            ),
            E::BlockStart {
                req,
                block,
                stream,
                t_us,
            } => (
                *t_us,
                *req,
                FlightKind::BlockStart,
                *block as u64,
                *stream as u64,
            ),
            E::BlockEnd {
                req,
                block,
                stream,
                t_us,
            } => (
                *t_us,
                *req,
                FlightKind::BlockEnd,
                *block as u64,
                *stream as u64,
            ),
            E::Transfer {
                req,
                bytes,
                t_us,
                dur_us,
            } => (
                *t_us,
                *req,
                FlightKind::Transfer,
                *bytes,
                (dur_us * 1_000.0).round().max(0.0) as u64,
            ),
            E::Completion { req, t_us } => (*t_us, *req, FlightKind::Completion, 0, 0),
            E::Downgrade {
                req,
                from_blocks,
                to_blocks,
                t_us,
            } => (
                *t_us,
                *req,
                FlightKind::Downgrade,
                *from_blocks as u64,
                *to_blocks as u64,
            ),
            E::QueueDepth { depth, t_us } => {
                (*t_us, NO_REQ, FlightKind::QueueDepth, *depth as u64, 0)
            }
            E::Utilization { .. } | E::Mark { .. } => return None,
        };
        Some(FlightRecord {
            seq,
            t_us,
            req,
            kind,
            a,
            b,
        })
    }
}

/// One ring slot: a seqlock stamp plus the record's five payload words.
///
/// Stamp protocol for the slot holding sequence `n`: `2n + 1` while the
/// writer is inside, `2n + 2` once published, `0` never written. A
/// reader accepts a slot only when it observes the same even stamp
/// before and after reading the payload.
#[derive(Debug)]
struct Slot {
    stamp: AtomicU64,
    t_bits: AtomicU64,
    req: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            stamp: AtomicU64::new(0),
            t_bits: AtomicU64::new(0),
            req: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// Bounded, lock-free flight recorder shared by every scheduler and
/// server thread.
#[derive(Debug)]
pub struct FlightRing {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
    /// Epoch base: sequence numbers below this belong to a previous
    /// recording (see [`FlightRing::reset`]) and are not reported.
    base: AtomicU64,
}

/// Default ring capacity (entries). Matches the runtime's lifecycle
/// ring: thousands of in-flight requests at ~6 records each.
pub const DEFAULT_CAPACITY: usize = 65_536;

impl FlightRing {
    /// Ring with `capacity` slots, rounded up to a power of two.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        FlightRing {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            base: AtomicU64::new(0),
        }
    }

    /// Ring with [`DEFAULT_CAPACITY`] slots.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records appended since construction (or the last
    /// [`FlightRing::reset`]); appended − capacity is a lower bound on
    /// overwrites.
    pub fn appended(&self) -> u64 {
        let head = self.head.load(Ordering::Relaxed);
        head.saturating_sub(self.base.load(Ordering::Relaxed))
    }

    /// Start a fresh recording epoch in O(1): existing records are
    /// excluded from subsequent snapshots without touching any slot (the
    /// engine reuses one thread-local ring across simulations this way).
    /// Call only while no writer is mid-[`FlightRing::record`] —
    /// concurrent records land safely but may straddle the epoch
    /// boundary.
    pub fn reset(&self) {
        self.base
            .store(self.head.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Append one record. Lock-free: one `fetch_add` claims a sequence
    /// number, then the slot is published through its seqlock stamp.
    /// When the ring is full the oldest slot is overwritten. The store
    /// orderings here are load-bearing and model-checked (SA205 —
    /// see the module docs); don't touch one without the other.
    pub fn record(&self, t_us: f64, req: u64, kind: FlightKind, a: u64, b: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        slot.stamp.store(2 * seq + 1, Ordering::Relaxed);
        // Release fence: pairs with the reader's acquire fence, so any
        // reader that observes one of the payload stores below also
        // observes the odd stamp above on its re-check — a torn record
        // cannot pass the stamp comparison.
        fence(Ordering::Release);
        slot.t_bits.store(t_us.to_bits(), Ordering::Relaxed);
        slot.req.store(req, Ordering::Relaxed);
        slot.kind.store(kind.code(), Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.stamp.store(2 * seq + 2, Ordering::Release);
    }

    /// Append the flight projection of a lifecycle event, if it has one
    /// (utilization samples and free-form marks are metrics, not causal
    /// records, and are skipped).
    pub fn record_event(&self, e: &Event) {
        if let Some(r) = FlightRecord::from_event(0, e) {
            self.record(r.t_us, r.req, r.kind, r.a, r.b);
        }
    }

    /// Copy out every currently-published record of the current epoch,
    /// oldest first. The scan walks sequence numbers (not slots), so it
    /// only touches occupied slots and needs no sort; a slot a writer is
    /// mid-publish on — or that gets lapped during the read — fails its
    /// stamp check and is counted as dropped rather than returned torn.
    pub fn snapshot(&self) -> FlightSnapshot {
        let head = self.head.load(Ordering::Relaxed);
        let base = self.base.load(Ordering::Relaxed);
        let lo = base.max(head.saturating_sub(self.slots.len() as u64));
        let mut records: Vec<FlightRecord> = Vec::with_capacity((head - lo) as usize);
        self.read_into(lo..head, |_| true, &mut records);
        self.finish(base, head, records)
    }

    /// Like [`FlightRing::snapshot`], but only the records appended after
    /// the first `skip` of the current epoch for which `keep` holds. A
    /// caller that freezes history repeatedly passes the previous
    /// snapshot's `appended` as `skip`, so no record is copied twice.
    /// Records left out count as dropped.
    pub fn snapshot_since(
        &self,
        skip: u64,
        keep: impl FnMut(&FlightRecord) -> bool,
    ) -> FlightSnapshot {
        let head = self.head.load(Ordering::Relaxed);
        let base = self.base.load(Ordering::Relaxed);
        let lo = base
            .saturating_add(skip)
            .max(head.saturating_sub(self.slots.len() as u64))
            .min(head);
        let mut records = Vec::new();
        self.read_into(lo..head, keep, &mut records);
        records.shrink_to_fit();
        self.finish(base, head, records)
    }

    /// Append the published records of `seqs` that `keep` accepts.
    fn read_into(
        &self,
        seqs: std::ops::Range<u64>,
        mut keep: impl FnMut(&FlightRecord) -> bool,
        records: &mut Vec<FlightRecord>,
    ) {
        for seq in seqs {
            let slot = &self.slots[(seq & self.mask) as usize];
            let expect = 2 * seq + 2;
            // Retry a bounded number of times; a slot under constant
            // rewrite is about to be overwritten anyway.
            for _ in 0..4 {
                let s1 = slot.stamp.load(Ordering::Acquire);
                if s1 > expect {
                    break; // lapped by a newer record
                }
                if s1 != expect {
                    continue; // writer still inside; retry
                }
                let t_bits = slot.t_bits.load(Ordering::Relaxed);
                let req = slot.req.load(Ordering::Relaxed);
                let kind = slot.kind.load(Ordering::Relaxed);
                let a = slot.a.load(Ordering::Relaxed);
                let b = slot.b.load(Ordering::Relaxed);
                // Acquire fence: pairs with the writer's release fence
                // (see `record`) so the stamp re-check below cannot miss
                // an in-progress write whose payload we just read.
                fence(Ordering::Acquire);
                let s2 = slot.stamp.load(Ordering::Relaxed);
                if s1 != s2 {
                    continue; // lapped mid-read; retry
                }
                if let Some(kind) = FlightKind::from_code(kind) {
                    let r = FlightRecord {
                        seq,
                        t_us: f64::from_bits(t_bits),
                        req,
                        kind,
                        a,
                        b,
                    };
                    if keep(&r) {
                        records.push(r);
                    }
                }
                break;
            }
        }
    }

    fn finish(&self, base: u64, head: u64, records: Vec<FlightRecord>) -> FlightSnapshot {
        let appended = head.saturating_sub(base);
        let dropped = appended.saturating_sub(records.len() as u64);
        FlightSnapshot {
            capacity: self.capacity() as u64,
            appended,
            dropped,
            records,
        }
    }
}

impl Default for FlightRing {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of a [`FlightRing`], in causal (sequence)
/// order. This is what rides inside incident bundles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightSnapshot {
    /// Ring capacity at snapshot time.
    pub capacity: u64,
    /// Records ever appended to the ring.
    pub appended: u64,
    /// Records appended but not present in the snapshot (overwritten by
    /// newer ones, or skipped mid-publish). Counted, never silent.
    pub dropped: u64,
    /// Published records, oldest first; `seq` is strictly increasing.
    pub records: Vec<FlightRecord>,
}

impl FlightSnapshot {
    /// Build a snapshot directly from an in-order event stream, with
    /// the same bounded-ring semantics (capacity rounded up to a power
    /// of two, oldest records dropped and counted once it overflows).
    ///
    /// A simulation already holds its whole lifecycle in memory,
    /// time-sorted, so [`investigate`](crate::investigate()) projects
    /// the ring from it here instead of replaying every event through
    /// the concurrent seqlock ring (~20 ns/event for nothing). Live
    /// server threads, where writes race, go through
    /// [`FlightRing::record`] instead; this constructor is bit-for-bit
    /// equivalent for a quiescent ring.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>, capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let events = events.into_iter();
        let mut records: Vec<FlightRecord> = Vec::with_capacity(events.size_hint().0);
        let mut seq = 0u64;
        for e in events {
            if let Some(r) = FlightRecord::from_event(seq, e) {
                records.push(r);
                seq += 1;
            }
        }
        let appended = records.len() as u64;
        let overflow = records.len().saturating_sub(cap);
        if overflow > 0 {
            records.drain(..overflow);
        }
        FlightSnapshot {
            capacity: cap as u64,
            appended,
            dropped: overflow as u64,
            records,
        }
    }

    /// Records belonging to request `req`, in causal order.
    pub fn for_req(&self, req: u64) -> Vec<&FlightRecord> {
        self.records.iter().filter(|r| r.req == req).collect()
    }

    /// Union of two snapshots of the same ring, deduplicated by
    /// sequence number and re-sorted. The live server freezes part of
    /// the ring the moment an alert fires (preserving pre-incident
    /// history the ring may later overwrite, see
    /// [`FlightRing::snapshot_since`]) and merges that with the shutdown
    /// snapshot (which has the post-fire records).
    pub fn merge(&self, other: &FlightSnapshot) -> FlightSnapshot {
        let mut records = self.records.clone();
        records.extend(other.records.iter().cloned());
        records.sort_by_key(|r| r.seq);
        records.dedup_by_key(|r| r.seq);
        let capacity = self.capacity.max(other.capacity);
        let appended = self.appended.max(other.appended);
        FlightSnapshot {
            capacity,
            appended,
            dropped: appended.saturating_sub(records.len() as u64),
            records,
        }
    }

    /// Queue-depth samples `(t_us, depth)` in causal order.
    pub fn queue_depth_series(&self) -> Vec<(f64, u64)> {
        self.records
            .iter()
            .filter(|r| r.kind == FlightKind::QueueDepth)
            .map(|r| (r.t_us, r.a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use split_telemetry::Event;

    #[test]
    fn records_come_back_in_sequence_order() {
        let ring = FlightRing::with_capacity(64);
        for i in 0..10u64 {
            ring.record(i as f64, i, FlightKind::Arrival, 0, 0);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.records.len(), 10);
        assert_eq!(snap.appended, 10);
        assert_eq!(snap.dropped, 0);
        for (i, r) in snap.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.req, i as u64);
            assert_eq!(r.t_us, i as f64);
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = FlightRing::with_capacity(8);
        for i in 0..20u64 {
            ring.record(i as f64, i, FlightKind::Completion, 0, 0);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.capacity, 8);
        assert_eq!(snap.appended, 20);
        assert_eq!(snap.records.len(), 8);
        assert_eq!(snap.dropped, 12);
        // The survivors are exactly the newest 8, still in order.
        let seqs: Vec<u64> = snap.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn event_projection_maps_payloads() {
        let ring = FlightRing::with_capacity(16);
        ring.record_event(&Event::PreemptDecision {
            req: 3,
            position: 1,
            comparisons: 4,
            stop: "won".into(),
            decision_ns: 750,
            publish_ns: 750,
            t_us: 9.0,
        });
        ring.record_event(&Event::Transfer {
            req: 3,
            bytes: 4096,
            t_us: 10.0,
            dur_us: 1.5,
        });
        ring.record_event(&Event::QueueDepth {
            depth: 7,
            t_us: 11.0,
        });
        // Non-causal events are skipped.
        ring.record_event(&Event::Utilization {
            busy: 0.5,
            t_us: 12.0,
        });
        let snap = ring.snapshot();
        assert_eq!(snap.records.len(), 3);
        assert_eq!(snap.records[0].kind, FlightKind::Decision);
        assert_eq!(snap.records[0].a, 1);
        assert_eq!(snap.records[0].b, 750);
        assert_eq!(snap.records[1].kind, FlightKind::Transfer);
        assert_eq!(snap.records[1].b, 1_500);
        assert_eq!(snap.records[2].req, NO_REQ);
        assert_eq!(snap.records[2].a, 7);
    }

    #[test]
    fn concurrent_writers_publish_consistent_records() {
        let ring = std::sync::Arc::new(FlightRing::with_capacity(1024));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        // Payload words are derived from req so a torn
                        // record is detectable below.
                        let req = t * 10_000 + i;
                        ring.record(req as f64, req, FlightKind::Arrival, req * 2, req * 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = ring.snapshot();
        assert_eq!(snap.appended, 8_000);
        assert!(snap.records.len() <= 1024);
        assert!(!snap.records.is_empty());
        let mut prev = None;
        for r in &snap.records {
            // Seq strictly increasing (SA403) and no field mixing.
            if let Some(p) = prev {
                assert!(r.seq > p, "seq not increasing: {} after {}", r.seq, p);
            }
            prev = Some(r.seq);
            assert_eq!(r.a, r.req * 2, "torn record: {r:?}");
            assert_eq!(r.b, r.req * 3, "torn record: {r:?}");
            assert_eq!(r.t_us, r.req as f64, "torn record: {r:?}");
        }
    }

    #[test]
    fn merge_recovers_records_a_later_snapshot_lost() {
        let ring = FlightRing::with_capacity(8);
        for i in 0..8u64 {
            ring.record(i as f64, i, FlightKind::Arrival, 0, 0);
        }
        let early = ring.snapshot();
        for i in 8..14u64 {
            ring.record(i as f64, i, FlightKind::Arrival, 0, 0);
        }
        let late = ring.snapshot();
        // The late snapshot lost seqs 0..6 to overwrites; the merge has
        // the full history.
        let merged = early.merge(&late);
        let seqs: Vec<u64> = merged.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..14).collect::<Vec<_>>());
        assert_eq!(merged.appended, 14);
        assert_eq!(merged.dropped, 0);
    }

    #[test]
    fn snapshot_since_skips_seen_records_and_filters() {
        let ring = FlightRing::with_capacity(8);
        for i in 0..3u64 {
            ring.record(i as f64, i, FlightKind::Arrival, 0, 0);
        }
        ring.reset();
        for i in 3..10u64 {
            ring.record(i as f64, i, FlightKind::Arrival, 0, 0);
        }
        // Epoch records 0..7 are seqs 3..10; skip two, keep even ids.
        let snap = ring.snapshot_since(2, |r| r.req.is_multiple_of(2));
        let seqs: Vec<u64> = snap.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 8]);
        assert_eq!(snap.appended, 7);
        assert_eq!(snap.dropped, 5);
        assert_eq!(snap.records.capacity(), 2);
        // Past the head, nothing; after a lap, only what the ring holds.
        assert!(ring.snapshot_since(7, |_| true).records.is_empty());
        assert!(ring.snapshot_since(u64::MAX, |_| true).records.is_empty());
        for i in 10..20u64 {
            ring.record(i as f64, i, FlightKind::Arrival, 0, 0);
        }
        let lapped = ring.snapshot_since(7, |_| true);
        let seqs: Vec<u64> = lapped.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
        assert_eq!(ring.snapshot_since(0, |_| true), ring.snapshot());
    }

    #[test]
    fn reset_starts_a_fresh_epoch_in_place() {
        let ring = FlightRing::with_capacity(16);
        for i in 0..5u64 {
            ring.record(i as f64, i, FlightKind::Arrival, 0, 0);
        }
        ring.reset();
        assert_eq!(ring.appended(), 0);
        ring.record(100.0, 42, FlightKind::Completion, 0, 0);
        let snap = ring.snapshot();
        assert_eq!(snap.appended, 1);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].req, 42);
        // Old records stay physically present but are never reported.
        assert_eq!(snap.records[0].seq, 5);
    }

    #[test]
    fn from_events_matches_ring_replay_bit_for_bit() {
        let events = vec![
            Event::Arrival {
                req: 1,
                model: "m".into(),
                t_us: 0.5,
            },
            Event::Enqueue {
                req: 1,
                position: 0,
                displaced: 0,
                t_us: 0.6,
            },
            Event::Utilization {
                busy: 0.9,
                t_us: 0.7,
            },
            Event::Transfer {
                req: 1,
                bytes: 2048,
                t_us: 1.0,
                dur_us: 0.25,
            },
            Event::Completion { req: 1, t_us: 2.0 },
        ];
        let ring = FlightRing::with_capacity(16);
        for e in &events {
            ring.record_event(e);
        }
        assert_eq!(
            FlightSnapshot::from_events(&events, 16),
            ring.snapshot(),
            "direct construction must be indistinguishable from a quiescent ring"
        );
        // Overflow keeps the newest records and counts the drop.
        let small = FlightSnapshot::from_events(&events, 2);
        assert_eq!(small.capacity, 2);
        assert_eq!(small.appended, 4);
        assert_eq!(small.dropped, 2);
        assert_eq!(small.records.len(), 2);
        assert_eq!(small.records[0].kind, FlightKind::Transfer);
        assert_eq!(small.records[1].kind, FlightKind::Completion);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let ring = FlightRing::with_capacity(4);
        ring.record(1.5, 7, FlightKind::BlockStart, 2, 0);
        let snap = ring.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: FlightSnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }
}
