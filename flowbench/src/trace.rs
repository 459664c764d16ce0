//! In-memory spans and counters recorded around the library calls the
//! benchmark makes.
//!
//! A disabled tracer records nothing, so the untraced run and the traced run
//! share one code path.  Spans are kept in memory and written out once, when
//! the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed interval around a library call.
struct Span {
    name: &'static str,
    /// Spans of one campaign share this id; 0 outside any campaign.
    campaign: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span and counter recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    campaigns: u32,
    /// `(span index, counter name, value)`, recorded where the work happens.
    counters: Vec<(usize, &'static str, f64)>,
}

/// Per-name totals over a range of spans and counters (see
/// [`Tracer::mark`] and [`Tracer::totals_since`]).
#[derive(Default)]
pub struct Totals {
    /// Summed span durations in seconds, by span name.
    pub seconds: BTreeMap<&'static str, f64>,
    /// Counters by name: summed, except `*peak*` counters, which keep the
    /// maximum.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Totals {
    /// Summed duration of the spans called `name` (0 when none ran).
    pub fn secs(&self, name: &str) -> f64 {
        self.seconds.get(name).copied().unwrap_or(0.0)
    }

    /// Aggregated counter `name` (0 when never recorded).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Position in the recording, taken before a unit of work.
#[derive(Clone, Copy)]
pub struct Mark {
    spans: usize,
    counters: usize,
}

impl Tracer {
    /// A recorder; with `enabled == false` every call is a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            campaigns: 0,
            counters: Vec::new(),
        }
    }

    /// Whether spans and counters are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one, in its campaign.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let campaign = self
            .open
            .last()
            .map_or(0, |&parent| self.spans[parent].campaign);
        self.open_span(name, campaign)
    }

    /// Opens a span that starts a new campaign: it and every span nested in
    /// it share a fresh campaign id.
    pub fn begin_campaign(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        self.campaigns += 1;
        self.open_span(name, self.campaigns)
    }

    fn open_span(&mut self, name: &'static str, campaign: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            campaign,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `span` (and any span left open inside it).
    pub fn end(&mut self, span: SpanId) {
        let Some(index) = span.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == index {
                break;
            }
        }
    }

    /// Records a counter on the innermost open span.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if let Some(&span) = self.open.last() {
            self.counters.push((span, name, value));
        }
    }

    /// The current position, to aggregate what follows it.
    pub fn mark(&self) -> Mark {
        Mark {
            spans: self.spans.len(),
            counters: self.counters.len(),
        }
    }

    /// Per-name totals of the spans and counters recorded since `mark`.
    pub fn totals_since(&self, mark: Mark) -> Totals {
        let mut totals = Totals::default();
        for span in &self.spans[mark.spans..] {
            *totals.seconds.entry(span.name).or_default() +=
                (span.end_ns - span.start_ns) as f64 * 1e-9;
        }
        for &(_, name, value) in &self.counters[mark.counters..] {
            let slot = totals.counts.entry(name).or_default();
            if name.contains("peak") {
                *slot = slot.max(value);
            } else {
                *slot += value;
            }
        }
        totals
    }

    /// Writes every span as one JSON line (`id`, `campaign`, `parent`,
    /// `name`, `start_us`, `end_us`, `self_us` and its counters).
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut counters: Vec<Vec<(&str, f64)>> = vec![Vec::new(); self.spans.len()];
        for &(span, name, value) in &self.counters {
            counters[span].push((name, value));
        }
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let duration = span.end_ns - span.start_ns;
            let _ = write!(
                out,
                "{{\"id\": {id}, \"campaign\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_us\": {}, \"end_us\": {}, \"self_us\": {}, \"counters\": {{",
                span.campaign,
                span.name,
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3,
                duration.saturating_sub(child_ns[id]) as f64 / 1e3,
            );
            for (k, (name, value)) in counters[id].iter().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{name}\": {value}");
            }
            out.push_str("}}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_ids_are_inherited_and_totals_aggregate() {
        let mut tr = Tracer::new(true);
        let mark = tr.mark();
        let c = tr.begin_campaign("campaign");
        let inner = tr.begin("core.atpg_run");
        tr.count("core.faults", 3.0);
        tr.count("bdd.peak_live_nodes", 10.0);
        tr.end(inner);
        let inner = tr.begin("core.atpg_run");
        tr.count("core.faults", 4.0);
        tr.count("bdd.peak_live_nodes", 7.0);
        tr.end(inner);
        tr.end(c);
        assert_eq!(tr.spans[1].campaign, tr.spans[0].campaign);
        assert_eq!(tr.spans[1].parent, Some(0));
        let totals = tr.totals_since(mark);
        assert_eq!(totals.count("core.faults"), 7.0);
        assert_eq!(totals.count("bdd.peak_live_nodes"), 10.0);
        assert!(totals.secs("campaign") >= totals.secs("core.atpg_run"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let span = tr.begin_campaign("campaign");
        tr.count("core.faults", 1.0);
        tr.end(span);
        assert!(tr.spans.is_empty() && tr.counters.is_empty());
    }
}
