//! In-memory spans recorded by the benchmark around each call into a
//! library layer, written out as JSON lines when the run ends.
//!
//! Every layer is measured from outside: the library has no span hooks yet,
//! so a span here is "the benchmark called this public function".

use crate::json::Json;
use omen_linalg::FlopScope;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Where in the sweep a span happened; `-1` marks an axis that does not apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    pub bias: i32,
    pub scf_iter: i32,
    pub k: i32,
    pub e: i32,
}

impl Key {
    pub const NONE: Key = Key {
        bias: -1,
        scf_iter: -1,
        k: -1,
        e: -1,
    };

    pub fn bias(bias: usize) -> Key {
        Key {
            bias: bias as i32,
            ..Key::NONE
        }
    }

    pub fn at_iter(self, scf_iter: usize) -> Key {
        Key {
            scf_iter: scf_iter as i32,
            ..self
        }
    }

    pub fn at_k(self, k: usize) -> Key {
        Key {
            k: k as i32,
            ..self
        }
    }

    pub fn at_e(self, e: usize) -> Key {
        Key {
            e: e as i32,
            ..self
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub key: Key,
    /// Flops the global counter advanced by while the span was open
    /// (children included; exact only while one thread computes).
    pub flops: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
pub struct Open {
    id: usize,
    flops: FlopScope,
}

/// Span recorder of one thread. With tracing off `begin`/`end` record
/// nothing, so one daemon pass serves the end-to-end and the traced runs.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer::with_origin(on, Instant::now())
    }

    /// A recorder sharing another thread's time origin, for [`Tracer::absorb`].
    pub fn with_origin(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str, key: Key) -> Open {
        let id = self.spans.len();
        if self.on {
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                key,
                flops: 0,
            });
            self.stack.push(id);
        }
        Open {
            id,
            flops: FlopScope::new(),
        }
    }

    pub fn end(&mut self, open: Open) {
        if self.on {
            let now = self.origin.elapsed().as_nanos() as u64;
            let span = &mut self.spans[open.id];
            span.end_ns = now;
            span.flops = open.flops.take();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(open.id), "spans must close innermost-first");
        }
    }

    /// Appends another thread's spans, renumbering their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds the recorder itself takes for this run's spans: the same
    /// `begin`/`end` calls made again with no work between them. The wall
    /// of a replay with spans minus one without is the same quantity plus
    /// the host's noise, which on replays of seconds is ±5 % — a thousand
    /// times what a few hundred spans cost.
    pub fn bookkeeping_s(&self) -> f64 {
        let mut again = Tracer::new(true);
        let t0 = Instant::now();
        for s in &self.spans {
            let open = again.begin(s.name, s.key);
            again.end(open);
        }
        std::hint::black_box(&again.spans);
        t0.elapsed().as_secs_f64()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj(vec![
                ("id", Json::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("bias", Json::Num(f64::from(s.key.bias))),
                ("scf_iter", Json::Num(f64::from(s.key.scf_iter))),
                ("k", Json::Num(f64::from(s.key.k))),
                ("e", Json::Num(f64::from(s.key.e))),
                ("flops", Json::Num(s.flops as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub calls: usize,
    pub dur_s: f64,
    pub self_s: f64,
    pub flops: u64,
}

pub fn total(spans: &[Span], self_ns: &[u64], name: &str) -> Total {
    let mut t = Total::default();
    for (s, &own) in spans.iter().zip(self_ns) {
        if s.name == name {
            t.calls += 1;
            t.dur_s += s.dur_ns() as f64 * 1e-9;
            t.self_s += own as f64 * 1e-9;
            t.flops += s.flops;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            key: Key::NONE,
            flops: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_child_intervals() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 40, 70),
            span(3, Some(2), "c", 45, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two client threads' jobs under one root overlap in time.
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "job", 10, 60),
            span(2, Some(0), "job", 40, 90),
            span(3, Some(0), "job", 50, 55),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn totals_sum_per_name() {
        let spans = vec![
            span(0, None, "root", 0, 1_000_000_000),
            span(1, Some(0), "x", 0, 250_000_000),
            span(2, Some(0), "x", 500_000_000, 750_000_000),
        ];
        let own = self_times_ns(&spans);
        let t = total(&spans, &own, "x");
        assert_eq!(t.calls, 2);
        assert!((t.dur_s - 0.5).abs() < 1e-12);
        assert!((total(&spans, &own, "root").self_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_switches_off() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", Key::bias(2).at_iter(1));
        let inner = t.begin("inner", Key::NONE.at_e(7));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].key.bias, 2);
        assert_eq!(t.spans()[1].key.e, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let o = off.begin("x", Key::NONE);
        off.end(o);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let mut a = Tracer::new(true);
        let o = a.begin("a", Key::NONE);
        a.end(o);
        let mut b = Tracer::with_origin(true, a.origin());
        let o = b.begin("b0", Key::NONE);
        let i = b.begin("b1", Key::NONE);
        b.end(i);
        b.end(o);
        a.absorb(b);
        let ids: Vec<usize> = a.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
