//! The traced run's span analysis: bench-side spans around each layer call
//! merged with the spans the program already emits (`lower/*`,
//! `compile/*`, and serve's `request`/`queued`/`compile`/`realize`/
//! `respond`), nested by time on each thread, with each span's self time.

use std::collections::HashMap;

use halide_trace::PID_SERVE;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub cat: &'static str,
    /// Start, in nanoseconds since the trace epoch.
    pub start: i128,
    pub dur: i128,
    pub pid: u32,
    pub tid: u64,
    pub args: Vec<(String, String)>,
    /// Index of the innermost span on the same thread that encloses this
    /// one.
    pub parent: Option<usize>,
    /// Duration minus the time its direct children cover.
    pub self_ns: i128,
}

impl Span {
    pub fn end(&self) -> i128 {
        self.start + self.dur
    }

    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn is_bench(&self, name: &str) -> bool {
        self.cat == "bench" && self.name == name
    }
}

/// Moves everything recorded so far out of the global sink.
///
/// Serve spans are timed against the server's clock; `serve_offset_ns`
/// (trace epoch minus server clock, read together) shifts them onto the
/// trace epoch.
///
/// # Panics
///
/// Panics if the sink's ring overflowed, since a partial trace would
/// under-count every layer.
pub fn drain(serve_offset_ns: i128) -> Vec<Span> {
    let sink = halide_trace::global();
    let events = sink.events();
    sink.clear();
    assert_eq!(sink.dropped(), 0, "the trace ring overflowed");
    events
        .into_iter()
        .map(|e| {
            let shift = if e.pid == PID_SERVE {
                serve_offset_ns
            } else {
                0
            };
            Span {
                name: e.name,
                cat: e.cat,
                start: e.ts_ns as i128 + shift,
                dur: e.dur_ns as i128,
                pid: e.pid,
                tid: e.tid,
                args: e.args,
                parent: None,
                self_ns: e.dur_ns as i128,
            }
        })
        .collect()
}

/// Nests spans by containment within each (pid, tid) row and computes
/// self times. Sorted by start; a span that starts where its parent starts
/// and is no longer nests inside it.
pub fn nest(mut spans: Vec<Span>) -> Vec<Span> {
    spans.sort_by(|a, b| {
        (a.pid, a.tid, a.start, std::cmp::Reverse(a.dur)).cmp(&(
            b.pid,
            b.tid,
            b.start,
            std::cmp::Reverse(b.dur),
        ))
    });
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while let Some(&top) = stack.last() {
            let same_row = spans[top].pid == spans[i].pid && spans[top].tid == spans[i].tid;
            if same_row && spans[i].end() <= spans[top].end() {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            spans[i].parent = Some(parent);
            let d = spans[i].dur;
            spans[parent].self_ns -= d;
        }
        stack.push(i);
    }
    spans
}

/// For each serve `request` span, the bench `call` span that issued it:
/// the same app, enclosing it in time, started latest. Keyed by the
/// request's tid (one request per tid).
pub fn link_requests(spans: &[Span]) -> HashMap<u64, usize> {
    // Tolerance for the clock alignment in `drain`.
    const SLACK_NS: i128 = 50_000;
    let calls: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].is_bench("call"))
        .collect();
    let mut links = HashMap::new();
    for (i, r) in spans.iter().enumerate() {
        if r.pid != PID_SERVE || r.name != "request" {
            continue;
        }
        let best = calls
            .iter()
            .copied()
            .filter(|&c| {
                let c = &spans[c];
                c.arg("app") == r.arg("app")
                    && c.start <= r.start + SLACK_NS
                    && r.end() <= c.end() + SLACK_NS
            })
            .max_by_key(|&c| spans[c].start);
        if let Some(c) = best {
            links.insert(spans[i].tid, c);
        }
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: i128, dur: i128) -> Span {
        Span {
            name: name.to_string(),
            cat: "bench",
            start,
            dur,
            pid: 1,
            tid: 1,
            args: Vec::new(),
            parent: None,
            self_ns: dur,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = nest(vec![
            span("op", 0, 100),
            span("build", 10, 50),
            span("lower/inline", 20, 10),
            span("lower/flatten", 30, 15),
            span("realize", 60, 30),
        ]);
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by("op").self_ns, 20);
        assert_eq!(by("build").self_ns, 25);
        assert_eq!(by("lower/flatten").self_ns, 15);
        assert_eq!(
            by("lower/inline").parent.map(|p| spans[p].name.as_str()),
            Some("build")
        );
    }
}
