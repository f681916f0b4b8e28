//! Spans taken from outside: a host `Instant` pair plus the `IoScope` and
//! `PoolStats` deltas around one call into a layer's public function.
//!
//! Spans are kept in memory and written as JSON when the run ends. With the
//! tracer off, [`Tracer::span`] is a plain call of its body, so the same
//! statement code serves the untraced repetitions and the traced one.

use std::time::Instant;

use bd_storage::{BufferPool, DiskStats, IoScope, PoolStats};

use crate::json::Json;

/// One recorded call into a layer.
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Disk charges made on the recording thread while the span was open
    /// (children included; a layer's self time is its span minus them).
    pub io: DiskStats,
    /// Pool counters moved while the span was open. Pool counters are
    /// global, so on `live15` a span also sees the other thread's pins.
    /// `None` where a call inside the span reset them and no report says
    /// what they were (see [`Tracer::span_measured`]).
    pub pool: Option<PoolStats>,
}

impl Span {
    pub fn wall_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn sim_s(&self) -> f64 {
        self.io.sim_ms / 1e3
    }
}

/// `after - before`, field by field, of counters nothing reset in between.
pub fn pool_since(before: PoolStats, after: PoolStats) -> PoolStats {
    PoolStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        prefetched: after.prefetched - before.prefetched,
        writebacks: after.writebacks - before.writebacks,
    }
}

pub fn add_pool(a: &mut PoolStats, b: &PoolStats) {
    a.hits += b.hits;
    a.misses += b.misses;
    a.prefetched += b.prefetched;
    a.writebacks += b.writebacks;
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u32,
    stack: Vec<u32>,
    /// Parent of this tracer's top-level spans (a second thread's tracer
    /// hangs its spans under the statement span of the first).
    root: Option<u32>,
    /// Measured calls recorded so far; a span during which it moved cannot
    /// take its pool counters as a difference.
    measured: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            next_id: 0,
            stack: Vec::new(),
            root: None,
            measured: 0,
            spans: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A tracer for another thread: same clock, its own id range, its
    /// top-level spans parented to this tracer's innermost open span.
    pub fn fork(&self, id_base: u32) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            next_id: id_base,
            stack: Vec::new(),
            root: self.stack.last().copied(),
            measured: 0,
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Run `body` as one span of `layer`. The span is recorded when the
    /// body returns, so children precede their parent in `spans`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        pool: &BufferPool,
        body: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.record(layer, name.into(), pool, body, None::<fn(&T) -> _>)
    }

    /// A span around a call that goes through `bd_core::measure`, which
    /// resets the pool's counters when it starts: they cannot be read as a
    /// difference, so the span takes them from the report the call returns
    /// (`report_pool`; `None` when the call failed). Every span open around
    /// this one records no pool counters.
    pub fn span_measured<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        pool: &BufferPool,
        body: impl FnOnce(&mut Tracer) -> T,
        report_pool: impl FnOnce(&T) -> Option<PoolStats>,
    ) -> T {
        self.record(layer, name.into(), pool, body, Some(report_pool))
    }

    fn record<T>(
        &mut self,
        layer: &'static str,
        name: String,
        pool: &BufferPool,
        body: impl FnOnce(&mut Tracer) -> T,
        report_pool: Option<impl FnOnce(&T) -> Option<PoolStats>>,
    ) -> T {
        if !self.on {
            return body(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().or(self.root);
        self.stack.push(id);
        let measured_before = self.measured;
        let pool_before = pool.pool_stats();
        let scope = IoScope::new();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let value = {
            let _guard = scope.enter();
            body(self)
        };
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
        let pool = match report_pool {
            Some(of) => {
                self.measured += 1;
                of(&value)
            }
            None if self.measured != measured_before => None,
            None => Some(pool_since(pool_before, pool.pool_stats())),
        };
        self.spans.push(Span {
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns,
            io: scope.stats(),
            pool,
        });
        value
    }

    /// The most recently closed span (the one a `span` call just recorded).
    pub fn last(&self) -> Option<&Span> {
        self.spans.last()
    }

    /// Spans of `layer` whose name starts with `prefix`.
    pub fn select<'a>(
        &'a self,
        layer: &'a str,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.name.starts_with(prefix))
    }

    /// The span file's objects, one per span, in start order.
    pub fn to_json(&self, workload: &str, rep: usize) -> Vec<Json> {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
            .into_iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    (
                        "stmt",
                        Json::obj([
                            ("workload", Json::Str(workload.to_string())),
                            ("rep", Json::Num(rep as f64)),
                        ]),
                    ),
                    ("layer", Json::Str(s.layer.to_string())),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("sim_ms", Json::Num(s.io.sim_ms)),
                    (
                        "disk",
                        Json::obj([
                            ("random_reads", Json::Num(s.io.random_reads as f64)),
                            ("seq_reads", Json::Num(s.io.sequential_reads as f64)),
                            ("random_writes", Json::Num(s.io.random_writes as f64)),
                            ("seq_writes", Json::Num(s.io.sequential_writes as f64)),
                            ("pages_read", Json::Num(s.io.pages_read as f64)),
                            ("pages_written", Json::Num(s.io.pages_written as f64)),
                            ("retries", Json::Num(s.io.retries as f64)),
                        ]),
                    ),
                    (
                        "pool",
                        s.pool.map_or(Json::Null, |p| {
                            Json::obj([
                                ("hits", Json::Num(p.hits as f64)),
                                ("misses", Json::Num(p.misses as f64)),
                                ("prefetched", Json::Num(p.prefetched as f64)),
                                ("writebacks", Json::Num(p.writebacks as f64)),
                            ])
                        }),
                    ),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bd_storage::{CostModel, SimDisk};

    #[test]
    fn a_measured_span_takes_the_reports_pool_and_blanks_the_spans_around_it() {
        let pool = BufferPool::new(SimDisk::new(CostModel::default()), 2);
        let reported = PoolStats {
            hits: 7,
            ..PoolStats::default()
        };
        let mut t = Tracer::on();
        t.span("layer", "parent", &pool, |t| {
            t.span_measured(
                "layer",
                "measured",
                &pool,
                |_| {
                    pool.reset_stats();
                    reported
                },
                |r| Some(*r),
            );
            t.span("layer", "after the reset", &pool, |_| ());
        });
        let pools: Vec<_> = t.spans.iter().map(|s| (s.name.as_str(), s.pool)).collect();
        assert_eq!(
            pools,
            [
                ("measured", Some(reported)),
                ("after the reset", Some(PoolStats::default())),
                ("parent", None),
            ]
        );
    }
}
