//! Execution traces: what ran, where, and when.
//!
//! Traces back the illustrative figures (the paper's Figures 1 and 3) and
//! let tests assert scheduling invariants such as "blocks of one request
//! never interleave with a preemptor's blocks" precisely.

use serde::{Deserialize, Serialize};
use split_telemetry::Event;

/// Fill glyph for a Gantt row. The first nine rows use the classic
/// high-contrast set; rows beyond that switch to letters and digits so
/// every row keeps a distinct glyph instead of repeating modulo nine.
fn row_glyph(row: usize) -> char {
    const BASE: &[u8; 9] = b"#*+=%@&ox";
    const EXT: &[u8; 62] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    if row < BASE.len() {
        char::from(BASE[row])
    } else {
        char::from(EXT[(row - BASE.len()) % EXT.len()])
    }
}

/// Parse a scheduler span label of the form `model#req` or
/// `model#req/bN` into `(model, request id, block index)`.
///
/// Every policy in `sched` labels its spans this way; the lifecycle
/// exporter uses this to attribute device spans back to requests.
pub fn parse_block_label(label: &str) -> Option<(&str, u64, Option<usize>)> {
    let hash = label.rfind('#')?;
    let (model, rest) = (&label[..hash], &label[hash + 1..]);
    let (req_str, block) = match rest.find('/') {
        Some(slash) => {
            let b = rest[slash + 1..].strip_prefix('b')?.parse().ok()?;
            (&rest[..slash], Some(b))
        }
        None => (rest, None),
    };
    let req = req_str.parse().ok()?;
    Some((model, req, block))
}

/// One executed span on the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Human-readable label, e.g. `"req3/resnet50/block1"`.
    pub label: String,
    /// Stream (lane) the span ran on; sequential policies use stream 0.
    pub stream: usize,
    /// Start time, microseconds.
    pub start_us: f64,
    /// End time, microseconds.
    pub end_us: f64,
}

impl TraceEvent {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// One boundary activation transfer attributed to a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferRecord {
    /// Request id the transfer belongs to.
    pub req: u64,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Transfer start time, microseconds.
    pub start_us: f64,
    /// Transfer duration, microseconds (0 when the cost is already
    /// folded into the adjacent block's overhead).
    pub dur_us: f64,
}

impl TransferRecord {
    /// The transfer as a telemetry [`Event::Transfer`].
    pub fn event(&self) -> Event {
        Event::Transfer {
            req: self.req,
            bytes: self.bytes,
            t_us: self.start_us,
            dur_us: self.dur_us,
        }
    }
}

/// An ordered collection of trace events.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
    #[serde(default)]
    transfers: Vec<TransferRecord>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a span.
    pub fn record(&mut self, label: impl Into<String>, stream: usize, start_us: f64, end_us: f64) {
        debug_assert!(end_us >= start_us, "span ends before it starts");
        self.events.push(TraceEvent {
            label: label.into(),
            stream,
            start_us,
            end_us,
        });
    }

    /// All events in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Record a boundary activation transfer for request `req`.
    pub fn record_transfer(&mut self, req: u64, bytes: u64, start_us: f64, dur_us: f64) {
        debug_assert!(dur_us >= 0.0, "negative transfer duration");
        self.transfers.push(TransferRecord {
            req,
            bytes,
            start_us,
            dur_us,
        });
    }

    /// All recorded transfers in recording order.
    pub fn transfers(&self) -> &[TransferRecord] {
        &self.transfers
    }

    /// Events whose label contains `needle`.
    pub fn matching(&self, needle: &str) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.label.contains(needle))
            .collect()
    }

    /// Verify that no two events on the same stream overlap in time.
    /// Returns the first offending pair if any.
    pub fn first_overlap(&self) -> Option<(&TraceEvent, &TraceEvent)> {
        let mut by_stream: Vec<Vec<&TraceEvent>> = Vec::new();
        for e in &self.events {
            if by_stream.len() <= e.stream {
                by_stream.resize_with(e.stream + 1, Vec::new);
            }
            by_stream[e.stream].push(e);
        }
        for lane in &mut by_stream {
            lane.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
            for w in lane.windows(2) {
                if w[1].start_us < w[0].end_us - 1e-9 {
                    return Some((w[0], w[1]));
                }
            }
        }
        None
    }

    /// Export the trace as telemetry events: the [`Trace::block_events`]
    /// pairs, then one [`Event::Transfer`] per transfer record.
    pub fn lifecycle_events(&self) -> Vec<Event> {
        self.block_events()
            .chain(self.transfers.iter().map(TransferRecord::event))
            .collect()
    }

    /// The trace's block spans as telemetry [`Event::BlockStart`] /
    /// [`Event::BlockEnd`] pairs, ordered by start time and made on
    /// demand.
    ///
    /// Request ids come from [`parse_block_label`]; spans with
    /// unparseable labels are skipped. Block indices are assigned per
    /// request in start order (matching the `/bN` suffix when present).
    /// Streams are re-assigned by greedy interval coloring — concurrent
    /// spans land on distinct streams even when the recording policy
    /// folded several requests onto one lane — so the export always
    /// satisfies the recorder's no-same-stream-overlap invariant and
    /// renders one clean track per concurrency lane in Perfetto.
    pub fn block_events(&self) -> BlockEvents<'_> {
        let mut spans: Vec<(&TraceEvent, u64)> = self
            .events
            .iter()
            .filter_map(|e| parse_block_label(&e.label).map(|(_, req, _)| (e, req)))
            .collect();
        let by_start = |a: &(&TraceEvent, u64), b: &(&TraceEvent, u64)| {
            a.0.start_us
                .total_cmp(&b.0.start_us)
                .then(a.0.end_us.total_cmp(&b.0.end_us))
        };
        // Sequential policies record in start order already; the sort is
        // stable, so skipping it then changes nothing.
        if !spans.is_sorted_by(|a, b| by_start(a, b).is_le()) {
            spans.sort_by(by_start);
        }
        let sequential = spans
            .iter()
            .all(|(e, _)| e.start_us.total_cmp(&e.end_us).is_lt())
            && spans
                .windows(2)
                .all(|w| w[0].0.end_us.total_cmp(&w[1].0.start_us).is_le());
        let mut events = BlockEvents {
            spans: spans.into_iter(),
            sequential,
            blocks_seen: std::collections::HashMap::new(),
            lane_free_us: Vec::new(),
            start: None,
            end: None,
        };
        events.advance();
        events
    }

    /// Sample device utilization over fixed buckets of `bucket_us`,
    /// returning one [`Event::Utilization`] per bucket (stamped at the
    /// bucket's end). Busy means "at least one stream executing": the
    /// spans' union coverage of each bucket, in `[0, 1]`.
    pub fn utilization_series(&self, bucket_us: f64) -> Vec<Event> {
        assert!(bucket_us > 0.0, "bucket must be positive");
        if self.events.is_empty() {
            return Vec::new();
        }
        let t0 = self
            .events
            .iter()
            .map(|e| e.start_us)
            .fold(f64::INFINITY, f64::min);
        let t1 = self.events.iter().map(|e| e.end_us).fold(t0, f64::max);

        // Merge spans across streams into disjoint busy intervals.
        let mut iv: Vec<(f64, f64)> = self.events.iter().map(|e| (e.start_us, e.end_us)).collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Vec<(f64, f64)> = Vec::new();
        for (s, e) in iv {
            match merged.last_mut() {
                Some(last) if s <= last.1 + 1e-9 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }

        let buckets = (((t1 - t0) / bucket_us).ceil() as usize).max(1);
        let mut out = Vec::with_capacity(buckets);
        // One sweep: `merged` is ascending and disjoint, so the intervals
        // that overlap bucket k are a contiguous range, and one that ends
        // at or before a bucket's start overlaps no later bucket either.
        // Summing only the positive overlaps, in ascending order from
        // +0.0, gives every bucket the bits a scan over all intervals
        // would (the skipped terms are all +0.0).
        let mut first = 0;
        for k in 0..buckets {
            let lo = t0 + k as f64 * bucket_us;
            let hi = lo + bucket_us;
            while first < merged.len() && merged[first].1 <= lo {
                first += 1;
            }
            let mut busy = 0.0;
            for &(s, e) in merged[first..].iter().take_while(|&&(s, _)| s < hi) {
                let overlap = e.min(hi) - s.max(lo);
                if overlap > 0.0 {
                    busy += overlap;
                }
            }
            out.push(Event::Utilization {
                busy: (busy / bucket_us).clamp(0.0, 1.0),
                t_us: hi,
            });
        }
        out
    }

    /// Device-busy time (union of all spans across streams) clipped to
    /// the window `[start_us, end_us]`, in µs. Backs the incident
    /// bundles' device-utilization context.
    pub fn busy_us_between(&self, start_us: f64, end_us: f64) -> f64 {
        if end_us <= start_us {
            return 0.0;
        }
        let mut iv: Vec<(f64, f64)> = self.events.iter().map(|e| (e.start_us, e.end_us)).collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut busy = 0.0;
        let mut cursor = start_us;
        for (s, e) in iv {
            let lo = s.max(cursor);
            let hi = e.min(end_us);
            if hi > lo {
                busy += hi - lo;
                cursor = hi;
            }
        }
        busy
    }

    /// Render a fixed-width ASCII Gantt chart, one row per distinct label
    /// prefix (up to the first `/`), `width` columns spanning the full
    /// trace. Used by the schedule-gallery example to reproduce the
    /// flavour of the paper's Figure 1.
    pub fn render_ascii(&self, width: usize) -> String {
        if self.events.is_empty() {
            return String::from("(empty trace)\n");
        }
        let t0 = self
            .events
            .iter()
            .map(|e| e.start_us)
            .fold(f64::INFINITY, f64::min);
        let t1 = self.events.iter().map(|e| e.end_us).fold(0.0f64, f64::max);
        let span = (t1 - t0).max(1e-9);
        let mut rows: Vec<(String, Vec<char>)> = Vec::new();
        for e in &self.events {
            let key = e.label.split('/').next().unwrap_or(&e.label).to_string();
            let row = match rows.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    rows.push((key.clone(), vec![' '; width]));
                    rows.len() - 1
                }
            };
            let a = (((e.start_us - t0) / span) * width as f64).floor() as usize;
            let b = (((e.end_us - t0) / span) * width as f64).ceil() as usize;
            let glyph = row_glyph(row);
            for c in a..b.min(width) {
                rows[row].1[c] = glyph;
            }
        }
        let label_w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(4);
        let mut out = String::new();
        for (k, cells) in rows {
            out.push_str(&format!("{k:label_w$} |"));
            out.extend(cells);
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "{:label_w$} |{:<w$}|\n",
            "us",
            format!("{t0:.0} .. {t1:.0}"),
            w = width
        ));
        out
    }
}

/// The block start/end pairs of a trace in span start order, made one
/// span at a time ([`Trace::block_events`]). The next event is always
/// made ahead, so [`BlockEvents::peek`] needs no mutable access.
#[derive(Debug)]
pub struct BlockEvents<'a> {
    /// Spans not yet made into events, with their request ids.
    spans: std::vec::IntoIter<(&'a TraceEvent, u64)>,
    /// [`BlockEvents::is_sequential`], decided over all spans up front.
    sequential: bool,
    /// Blocks handed out per request so far.
    blocks_seen: std::collections::HashMap<u64, usize>,
    /// Greedy coloring: lane i is free once its last span has ended.
    lane_free_us: Vec<f64>,
    /// The current span's start, if not yet yielded, and its end.
    start: Option<Event>,
    end: Option<Event>,
}

impl BlockEvents<'_> {
    /// The event [`Iterator::next`] returns next.
    pub fn peek(&self) -> Option<&Event> {
        self.start.as_ref().or(self.end.as_ref())
    }

    /// Whether the trace's block spans run one at a time: each ends
    /// strictly after it starts and no later than the next one starts
    /// (under [`f64::total_cmp`]). Then every event is at or after the
    /// one before it, and an end that meets the next start comes first.
    /// The answer covers all the spans, however many events were taken.
    pub fn is_sequential(&self) -> bool {
        self.sequential
    }

    /// Make the next span's pair.
    fn advance(&mut self) {
        let Some((e, req)) = self.spans.next() else {
            return;
        };
        let block = {
            let n = self.blocks_seen.entry(req).or_insert(0);
            let b = *n;
            *n += 1;
            b
        };
        let stream = match self
            .lane_free_us
            .iter()
            .position(|&free| free <= e.start_us + 1e-9)
        {
            Some(i) => {
                self.lane_free_us[i] = e.end_us;
                i
            }
            None => {
                self.lane_free_us.push(e.end_us);
                self.lane_free_us.len() - 1
            }
        } as u32;
        self.start = Some(Event::BlockStart {
            req,
            block,
            stream,
            t_us: e.start_us,
        });
        self.end = Some(Event::BlockEnd {
            req,
            block,
            stream,
            t_us: e.end_us,
        });
    }
}

impl Iterator for BlockEvents<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        if let Some(start) = self.start.take() {
            return Some(start);
        }
        let end = self.end.take()?;
        self.advance();
        Some(end)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = 2 * self.spans.len()
            + usize::from(self.start.is_some())
            + usize::from(self.end.is_some());
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-bucket full scan [`Trace::utilization_series`] replaced,
    /// kept as its reference.
    fn utilization_full_scan(t: &Trace, bucket_us: f64) -> Vec<Event> {
        if t.events.is_empty() {
            return Vec::new();
        }
        let t0 = t
            .events
            .iter()
            .map(|e| e.start_us)
            .fold(f64::INFINITY, f64::min);
        let t1 = t.events.iter().map(|e| e.end_us).fold(t0, f64::max);
        let mut iv: Vec<(f64, f64)> = t.events.iter().map(|e| (e.start_us, e.end_us)).collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Vec<(f64, f64)> = Vec::new();
        for (s, e) in iv {
            match merged.last_mut() {
                Some(last) if s <= last.1 + 1e-9 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        let buckets = (((t1 - t0) / bucket_us).ceil() as usize).max(1);
        (0..buckets)
            .map(|k| {
                let lo = t0 + k as f64 * bucket_us;
                let hi = lo + bucket_us;
                let busy: f64 = merged
                    .iter()
                    .map(|&(s, e)| (e.min(hi) - s.max(lo)).max(0.0))
                    .sum();
                Event::Utilization {
                    busy: (busy / bucket_us).clamp(0.0, 1.0),
                    t_us: hi,
                }
            })
            .collect()
    }

    /// [`Trace::lifecycle_events`] before it parsed each label once and
    /// skipped the sort of in-order spans, kept as its reference.
    fn lifecycle_events_parse_twice(t: &Trace) -> Vec<Event> {
        let mut spans: Vec<&TraceEvent> = t
            .events
            .iter()
            .filter(|e| parse_block_label(&e.label).is_some())
            .collect();
        spans.sort_by(|a, b| {
            a.start_us
                .total_cmp(&b.start_us)
                .then(a.end_us.total_cmp(&b.end_us))
        });
        let mut blocks_seen: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        let mut lane_free_us: Vec<f64> = Vec::new();
        let mut out = Vec::new();
        for e in spans {
            let (_, req, _) = parse_block_label(&e.label).expect("filtered above");
            let n = blocks_seen.entry(req).or_insert(0);
            let block = *n;
            *n += 1;
            let stream = match lane_free_us
                .iter()
                .position(|&free| free <= e.start_us + 1e-9)
            {
                Some(i) => {
                    lane_free_us[i] = e.end_us;
                    i
                }
                None => {
                    lane_free_us.push(e.end_us);
                    lane_free_us.len() - 1
                }
            } as u32;
            out.push(Event::BlockStart {
                req,
                block,
                stream,
                t_us: e.start_us,
            });
            out.push(Event::BlockEnd {
                req,
                block,
                stream,
                t_us: e.end_us,
            });
        }
        out.extend(t.transfers.iter().map(|x| Event::Transfer {
            req: x.req,
            bytes: x.bytes,
            t_us: x.start_us,
            dur_us: x.dur_us,
        }));
        out
    }

    /// `(t_us bits, busy bits)` of each utilization sample.
    fn sample_bits(events: &[Event]) -> Vec<(u64, u64)> {
        events
            .iter()
            .map(|e| match e {
                Event::Utilization { busy, t_us } => (t_us.to_bits(), busy.to_bits()),
                other => panic!("not a utilization sample: {other:?}"),
            })
            .collect()
    }

    /// Traces of spans on a coarse grid (touching and overlapping spans
    /// are common, zero-length ones too), in shuffled recording order,
    /// with some unparseable labels and a few transfers.
    fn grid_trace() -> impl Strategy<Value = Trace> {
        (
            collection::vec((0u32..60, 0u32..12, 0u64..6, 0usize..3, 0u8..5), 1..40),
            collection::vec((0u64..6, 0u32..60), 0..5),
            0.0f64..1e6,
            1u32..8,
        )
            .prop_map(|(spans, transfers, offset, scale)| {
                let at = |x: u32| offset + f64::from(x * scale) * 0.25;
                let mut t = Trace::new();
                for (start, len, req, stream, kind) in spans {
                    let label = match kind {
                        0 => "idle".to_string(),
                        1 => format!("m#{req}"),
                        _ => format!("m#{req}/b{kind}"),
                    };
                    t.record(label, stream, at(start), at(start + len));
                }
                for (req, start) in transfers {
                    t.record_transfer(req, 64, at(start), 0.0);
                }
                t
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sweep's samples equal the full scan's, bit for bit, for
        /// bucket widths from a fraction of a span to wider than the
        /// whole trace.
        #[test]
        fn utilization_sweep_equals_full_scan(
            t in grid_trace(),
            bucket in bucket_width(),
        ) {
            prop_assert_eq!(
                sample_bits(&t.utilization_series(bucket)),
                sample_bits(&utilization_full_scan(&t, bucket))
            );
        }

        #[test]
        fn lifecycle_events_match_the_parse_twice_reference(t in grid_trace()) {
            prop_assert_eq!(t.lifecycle_events(), lifecycle_events_parse_twice(&t));
        }

        /// `peek` shows what `next` returns, `size_hint` is exact, and
        /// `is_sequential` holds exactly when every event is at or after
        /// the one before it, an end ahead of a start at the same time.
        #[test]
        fn block_events_peek_and_sequential_flag_are_exact(
            (pick, grid, chain) in (0u8..2, grid_trace(), chain_trace()),
        ) {
            let t = if pick == 0 { grid } else { chain };
            let mut it = t.block_events();
            let sequential = it.is_sequential();
            let mut events = Vec::new();
            loop {
                let left = it.size_hint();
                let peeked = it.peek().cloned();
                let next = it.next();
                prop_assert_eq!(left.1, Some(left.0));
                prop_assert_eq!(&peeked, &next);
                match next {
                    Some(e) => {
                        prop_assert_eq!(left.0, it.size_hint().0 + 1);
                        events.push(e);
                    }
                    None => {
                        prop_assert_eq!(left.0, 0);
                        break;
                    }
                }
            }
            let key = |e: &Event| (e.t_us(), matches!(e, Event::BlockStart { .. }));
            let in_order = events.windows(2).all(|w| {
                let (a, b) = (key(&w[0]), key(&w[1]));
                a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_le()
            });
            prop_assert_eq!(sequential, in_order);
        }
    }

    /// Block spans laid one after another on one stream, each after a
    /// gap of zero or more and of zero or more length, so that some
    /// traces run strictly one span at a time and some do not.
    fn chain_trace() -> impl Strategy<Value = Trace> {
        collection::vec((0u32..3, 0u32..4, 0u64..4), 0..12).prop_map(|spans| {
            let mut t = Trace::new();
            let mut at = 0.0;
            for (gap, len, req) in spans {
                let start = at + f64::from(gap);
                at = start + f64::from(len);
                t.record(format!("m#{req}"), 0, start, at);
            }
            t
        })
    }

    /// Bucket widths: a sub-span slice, a typical width, and widths
    /// beyond any generated trace's span.
    fn bucket_width() -> impl Strategy<Value = f64> {
        (0u8..3, 0.01f64..1.0).prop_map(|(kind, f)| match kind {
            0 => 0.05 + f,
            1 => 1.0 + f * 40.0,
            _ => 1e4 + f * 1e7,
        })
    }

    #[test]
    fn record_and_query() {
        let mut t = Trace::new();
        t.record("a/b0", 0, 0.0, 10.0);
        t.record("b/b0", 0, 10.0, 30.0);
        t.record("a/b1", 0, 30.0, 40.0);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.matching("a/").len(), 2);
        assert_eq!(t.events()[1].duration_us(), 20.0);
    }

    #[test]
    fn overlap_detection() {
        let mut ok = Trace::new();
        ok.record("a", 0, 0.0, 10.0);
        ok.record("b", 0, 10.0, 20.0);
        ok.record("c", 1, 5.0, 15.0); // other stream may overlap
        assert!(ok.first_overlap().is_none());

        let mut bad = Trace::new();
        bad.record("a", 0, 0.0, 10.0);
        bad.record("b", 0, 9.0, 20.0);
        let (x, y) = bad.first_overlap().expect("must detect overlap");
        assert_eq!(x.label, "a");
        assert_eq!(y.label, "b");
    }

    #[test]
    fn ascii_render_has_all_rows() {
        let mut t = Trace::new();
        t.record("reqA/b0", 0, 0.0, 50.0);
        t.record("reqB/b0", 0, 50.0, 100.0);
        let s = t.render_ascii(40);
        assert!(s.contains("reqA"));
        assert!(s.contains("reqB"));
    }

    #[test]
    fn empty_render() {
        assert_eq!(Trace::new().render_ascii(10), "(empty trace)\n");
    }

    /// Regression: with more than nine rows the glyph used to repeat
    /// modulo nine, so row 9 rendered with row 0's `#` and became
    /// indistinguishable from it. Every row must get a distinct glyph.
    #[test]
    fn rows_beyond_nine_get_distinct_glyphs() {
        let mut t = Trace::new();
        let n = 12;
        for i in 0..n {
            t.record(
                format!("req{i:02}/b0"),
                0,
                i as f64 * 10.0,
                i as f64 * 10.0 + 10.0,
            );
        }
        let s = t.render_ascii(n * 4);
        let mut glyphs = Vec::new();
        for line in s.lines().take(n) {
            let cells = line.split('|').nth(1).expect("row body");
            let g = cells.chars().find(|c| *c != ' ').expect("filled cell");
            glyphs.push(g);
        }
        let mut unique = glyphs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), n, "duplicate glyphs in {glyphs:?}\n{s}");
    }

    #[test]
    fn label_parsing() {
        assert_eq!(parse_block_label("vgg19#3/b2"), Some(("vgg19", 3, Some(2))));
        assert_eq!(
            parse_block_label("resnet50#17"),
            Some(("resnet50", 17, None))
        );
        assert_eq!(parse_block_label("no-request-id"), None);
        assert_eq!(parse_block_label("m#x/b1"), None);
    }

    #[test]
    fn lifecycle_events_pair_up_and_avoid_lane_collisions() {
        let mut t = Trace::new();
        t.record("long#0/b0", 0, 0.0, 10.0);
        t.record("short#1/b0", 0, 10.0, 15.0);
        t.record("long#0/b1", 0, 15.0, 25.0);
        // Concurrent span recorded on the *same* lane by a fluid policy.
        t.record("other#2", 0, 5.0, 12.0);
        let ev = t.lifecycle_events();
        assert_eq!(ev.len(), 8);
        // Block indices follow per-request start order.
        let blocks: Vec<(u64, usize)> = ev
            .iter()
            .filter_map(|e| match e {
                Event::BlockStart { req, block, .. } => Some((*req, *block)),
                _ => None,
            })
            .collect();
        assert_eq!(blocks, vec![(0, 0), (2, 0), (1, 0), (0, 1)]);
        // Coloring pushed the overlapping span onto its own stream.
        let streams: std::collections::HashMap<u64, u32> = ev
            .iter()
            .filter_map(|e| match e {
                Event::BlockStart { req, stream, .. } => Some((*req, *stream)),
                _ => None,
            })
            .collect();
        assert_ne!(streams[&2], streams[&0]);
    }

    #[test]
    fn transfers_export_as_lifecycle_events() {
        let mut t = Trace::new();
        t.record("m#0/b0", 0, 0.0, 10.0);
        t.record_transfer(0, 4096, 10.0, 0.0);
        t.record("m#0/b1", 0, 10.0, 20.0);
        assert_eq!(t.transfers().len(), 1);
        assert_eq!(t.transfers()[0].bytes, 4096);
        let ev = t.lifecycle_events();
        let transfers: Vec<_> = ev
            .iter()
            .filter(|e| matches!(e, Event::Transfer { .. }))
            .collect();
        assert_eq!(transfers.len(), 1);
        match transfers[0] {
            Event::Transfer {
                req,
                bytes,
                t_us,
                dur_us,
            } => {
                assert_eq!((*req, *bytes), (0, 4096));
                assert_eq!((*t_us, *dur_us), (10.0, 0.0));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn busy_between_unions_overlaps_and_clips() {
        let mut t = Trace::new();
        t.record("a#0", 0, 0.0, 10.0);
        t.record("b#1", 1, 5.0, 12.0); // overlap [5,10] counted once
        t.record("c#2", 0, 20.0, 30.0);
        assert!((t.busy_us_between(0.0, 30.0) - 22.0).abs() < 1e-9);
        // Clipped window cuts both ends.
        assert!((t.busy_us_between(6.0, 25.0) - 11.0).abs() < 1e-9);
        // Degenerate / empty windows.
        assert_eq!(t.busy_us_between(10.0, 10.0), 0.0);
        assert_eq!(t.busy_us_between(13.0, 19.0), 0.0);
    }

    #[test]
    fn utilization_series_measures_coverage() {
        let mut t = Trace::new();
        t.record("a#0", 0, 0.0, 10.0);
        t.record("b#1", 1, 5.0, 10.0); // overlaps — union still [0, 10]
        t.record("c#2", 0, 15.0, 20.0);
        let u = t.utilization_series(10.0);
        assert_eq!(u.len(), 2);
        match (&u[0], &u[1]) {
            (
                Event::Utilization { busy: b0, t_us: t0 },
                Event::Utilization { busy: b1, t_us: t1 },
            ) => {
                assert!((b0 - 1.0).abs() < 1e-9, "first bucket fully busy: {b0}");
                assert!((b1 - 0.5).abs() < 1e-9, "second bucket half busy: {b1}");
                assert_eq!((*t0, *t1), (10.0, 20.0));
            }
            other => panic!("unexpected events {other:?}"),
        }
    }
}
