//! In-memory spans, written out when the run ends.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer. A span the program only *reports* (a `PhaseStats`
//! time) is laid out inside its parent and flagged `reported`.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub round: usize,
    /// True when the duration comes from the program's own statistics.
    pub reported: bool,
}

#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; the id is meaningless when tracing is off.
    pub fn open(&mut self, name: &str, parent: Option<usize>, round: usize) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent,
            round,
            reported: false,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now_us();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_us = now;
        }
    }

    /// Lays `children` (name, seconds) end to end from the parent's
    /// start, as the program reported them.
    pub fn reported(&mut self, parent: usize, round: usize, children: &[(String, f64)]) {
        if !self.enabled {
            return;
        }
        let Some(mut at) = self.spans.get(parent).map(|p| p.start_us) else {
            return;
        };
        for (name, seconds) in children {
            let end = at + seconds * 1e6;
            self.spans.push(Span {
                name: name.clone(),
                start_us: at,
                end_us: end,
                parent: Some(parent),
                round,
                reported: true,
            });
            at = end;
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.clone())),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("round", Json::Num(s.round as f64)),
                        ("reported", Json::Bool(s.reported)),
                    ])
                })
                .collect(),
        )
    }
}
