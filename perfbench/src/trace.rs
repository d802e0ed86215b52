//! Benchmark-side spans: the benchmark wraps each call into a layer's
//! public functions in a span (name, start, end, parent), keeps them in
//! memory, and writes them out when the run ends.
//!
//! Spans nest strictly (the benchmark is single-threaded on its side of
//! the API), so a span's self time is its duration minus the summed
//! durations of its direct children.

use std::time::Instant;

use rocescale_monitor::Json;

/// One closed or open span. Times are nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone)]
struct Span {
    /// Span name: the layer, then the call (`core.build`).
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start, ns since origin.
    start_ns: u64,
    /// End, ns since origin (equal to `start_ns` while open).
    end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span, returned by [`Spans::begin`].
#[must_use = "close the span with Spans::end"]
pub struct Open(usize);

/// In-memory span recorder for one workload run.
pub struct Spans {
    /// Identifier every span of this run shares.
    pub run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new(run_id: String) -> Spans {
        Spans {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let now = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close a span (spans close innermost first).
    pub fn end(&mut self, open: Open) {
        let now = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end_ns = now;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Summed duration, in seconds, of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .sum::<u64>() as f64
            / 1e9
    }

    /// Self time of every span: duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur_ns();
            }
        }
        out
    }

    /// Summed self time, in seconds, per span name (first-seen order).
    pub fn self_s_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, v)) => *v += ns as f64 / 1e9,
                None => out.push((s.name, ns as f64 / 1e9)),
            }
        }
        out
    }

    /// The spans as a JSON array of `{id, parent, name, start_ns,
    /// end_ns, self_ns}`; ids are `<run_id>.<index>`.
    pub fn to_json(&self) -> Json {
        let id = |i: usize| Json::Str(format!("{}.{}", self.run_id, i));
        let spans = self.spans.iter().zip(self.self_ns()).enumerate();
        Json::Arr(
            spans
                .map(|(i, (s, self_ns))| {
                    Json::obj(vec![
                        ("id", id(i)),
                        ("parent", s.parent.map_or(Json::Null, id)),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::U64(s.start_ns)),
                        ("end_ns", Json::U64(s.end_ns)),
                        ("self_ns", Json::U64(self_ns)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children_only() {
        let mut sp = Spans::new("t".into());
        let outer = sp.begin("outer");
        let mid = sp.begin("mid");
        sp.time("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.end(mid);
        sp.end(outer);
        let own = sp.self_ns();
        let dur: Vec<u64> = sp.spans.iter().map(Span::dur_ns).collect();
        assert_eq!(own[0], dur[0] - dur[1], "outer minus mid, not minus leaf");
        assert_eq!(own[1], dur[1] - dur[2]);
        assert_eq!(own[2], dur[2]);
        assert!(dur[2] >= 2_000_000);
        let by_name = sp.self_s_by_name();
        assert_eq!(
            by_name.iter().map(|p| p.0).collect::<Vec<_>>(),
            ["outer", "mid", "leaf"]
        );
        assert!(
            sp.to_json().render().contains("\"parent\":\"t.1\""),
            "leaf's parent is mid"
        );
    }
}
