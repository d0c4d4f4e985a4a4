//! Benchmark-side spans: `workload → repetition → op → layer call`, kept in
//! memory and written as Chrome trace-event JSON when the run ends.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing here reaches inside the product crates.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fork_telemetry::json::quote;

/// Spans kept per lane; later ones are counted in `dropped` so a long
/// traced slice cannot grow the trace file without bound.
pub const MAX_SPANS_PER_LANE: usize = 40_000;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-call or structural name (`op`, `query.run`, `serve.stage.read` …).
    pub name: &'static str,
    /// Start, nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, nanoseconds since the trace origin.
    pub end_ns: u64,
    /// This span's id (unique within the trace).
    pub id: u64,
    /// Id of the span that caused it (0 for the root).
    pub parent: u64,
    /// The op this span belongs to (the wire correlation id on `serve-*`;
    /// 0 for structural spans).
    pub op: u64,
}

/// The spans of one thread (Chrome `tid`).
#[derive(Debug)]
pub struct Lane {
    origin: Instant,
    tid: u32,
    next_id: u64,
    open: Vec<(u64, &'static str, u64, u64)>,
    spans: Vec<Span>,
    dropped: u64,
}

/// Lanes made so far in this process. A trace holds several repetitions
/// and every repetition makes new lanes for the same `tid`s, so span ids
/// are prefixed with the lane's serial, not its `tid`.
static LANES_MADE: AtomicU64 = AtomicU64::new(0);

impl Lane {
    /// A lane for thread `tid` sharing `origin` with its siblings.
    pub fn new(origin: Instant, tid: u32) -> Lane {
        let serial = LANES_MADE.fetch_add(1, Ordering::Relaxed) + 1;
        Lane {
            origin,
            tid,
            // One atomic per lane; after that lanes never coordinate.
            next_id: (serial << 32) + 1,
            open: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str, op: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push((id, name, self.now_ns(), op));
        id
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let Some((id, name, start_ns, op)) = self.open.pop() else {
            return;
        };
        let parent = self.open.last().map_or(0, |o| o.0);
        self.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            op,
        });
    }

    /// Adds an already-timed span under `parent` (server-side stages, and
    /// open-loop requests whose interval is only known afterwards) and
    /// returns its id.
    pub fn attach(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            op,
        });
        id
    }

    fn push(&mut self, span: Span) {
        // Structural spans (op == 0) are few and always kept.
        if span.op != 0 && self.spans.len() >= MAX_SPANS_PER_LANE {
            self.dropped += 1;
        } else {
            self.spans.push(span);
        }
    }

    /// The closed spans so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Chrome `tid` of the lane holding the root span; client threads count
/// up from 0.
const ROOT_TID: u32 = 1 << 16;

/// Closes the trace under one root: a span called `name` from the origin
/// to now, on a lane of its own, which every parentless span (the
/// repetitions) becomes a child of.
pub fn add_root(lanes: &mut Vec<Lane>, origin: Instant, name: &'static str) {
    let mut root = Lane::new(origin, ROOT_TID);
    let end_ns = root.now_ns();
    let id = root.attach(name, 0, 0, 0, end_ns);
    for span in lanes.iter_mut().flat_map(|l| &mut l.spans) {
        if span.parent == 0 {
            span.parent = id;
        }
    }
    lanes.push(root);
}

/// Opens a span when tracing is on; does nothing when off.
pub fn enter(lane: &mut Option<Lane>, name: &'static str, op: u64) {
    if let Some(l) = lane {
        l.enter(name, op);
    }
}

/// Closes the innermost span when tracing is on.
pub fn exit(lane: &mut Option<Lane>) {
    if let Some(l) = lane {
        l.exit();
    }
}

/// Calls and self time per span name over all lanes: a span's self time is
/// its duration minus the part its direct children cover.
pub fn self_times(lanes: &[Lane]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in lanes.iter().flat_map(|l| &l.spans) {
        *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in lanes.iter().flat_map(|l| &l.spans) {
        let children = covered.get(&s.id).copied().unwrap_or(0);
        let slot = out.entry(s.name).or_default();
        slot.0 += 1;
        slot.1 += (s.end_ns - s.start_ns).saturating_sub(children);
    }
    out
}

/// Renders lanes as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
pub fn chrome_json(workload: &str, lanes: &[Lane]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
        quote(&format!("forkbench {workload}"))
    ));
    for lane in lanes {
        for s in &lane.spans {
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                lane.tid,
                quote(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.op
            ));
        }
    }
    let dropped: u64 = lanes.iter().map(|l| l.dropped).sum();
    out.push_str(&format!("\n],\"droppedSpans\":{dropped}}}\n"));
    out
}

/// Writes `<dir>/<workload>.trace.json`.
pub fn write(dir: &Path, workload: &str, lanes: &[Lane]) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, chrome_json(workload, lanes))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fork_telemetry::json::Value;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut lane = Lane::new(Instant::now(), 3);
        let root = lane.enter("workload", 0);
        let op = lane.enter("op", 7);
        lane.enter("query.run", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        lane.exit();
        lane.exit();
        lane.exit();
        let spans = lane.spans().to_vec();
        assert_eq!(spans.len(), 3);
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by("op").parent, root);
        assert_eq!(by("query.run").parent, op);
        assert_eq!(by("workload").parent, 0);
        assert_eq!(by("query.run").op, 7);
        let inner = by("query.run").end_ns - by("query.run").start_ns;
        assert!(inner >= 2_000_000);
        let op_total = by("op").end_ns - by("op").start_ns;
        let times = self_times(std::slice::from_ref(&lane));
        assert_eq!(times["op"], (1, op_total - inner));
        assert_eq!(times["query.run"], (1, inner));
    }

    #[test]
    fn the_root_span_adopts_every_lanes_repetitions() {
        let origin = Instant::now();
        let mut lanes: Vec<Lane> = (0..2).map(|t| Lane::new(origin, t)).collect();
        for lane in &mut lanes {
            lane.enter("repetition", 0);
            lane.enter("op", 1);
            lane.exit();
            lane.exit();
        }
        add_root(&mut lanes, origin, "workload");
        let root = lanes.last().unwrap().spans()[0].clone();
        assert_eq!((root.name, root.parent, root.start_ns), ("workload", 0, 0));
        for lane in &lanes[..2] {
            let by = |n: &str| lane.spans().iter().find(|s| s.name == n).unwrap();
            assert_eq!(by("repetition").parent, root.id);
            assert_eq!(by("op").parent, by("repetition").id);
            assert!(by("repetition").end_ns <= root.end_ns);
        }
    }

    #[test]
    fn repetitions_on_the_same_thread_never_share_span_ids() {
        let origin = Instant::now();
        let mut lanes: Vec<Lane> = (0..3).map(|_| Lane::new(origin, 0)).collect();
        for lane in &mut lanes {
            lane.enter("repetition", 0);
            lane.enter("op", 1);
            lane.exit();
            lane.exit();
        }
        let ids: std::collections::HashSet<u64> =
            lanes.iter().flat_map(|l| l.spans()).map(|s| s.id).collect();
        assert_eq!(ids.len(), 6);
        // Self times therefore count each repetition's op under its own
        // repetition, not under whichever came first.
        assert_eq!(self_times(&lanes)["op"].0, 3);
    }

    #[test]
    fn chrome_json_parses_and_keeps_ids() {
        let mut lane = Lane::new(Instant::now(), 1);
        let mut traced = Some(lane_with_one_op(&mut lane));
        enter(&mut traced, "extra", 9);
        exit(&mut traced);
        let lanes = [traced.unwrap()];
        let v = Value::parse(&chrome_json("serve-closed", &lanes)).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 1 + 2);
        let x = &events[1];
        assert_eq!(x.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(x.get("args").unwrap().get("op").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("droppedSpans").unwrap().as_u64(), Some(0));
    }

    fn lane_with_one_op(lane: &mut Lane) -> Lane {
        lane.enter("op", 5);
        lane.exit();
        std::mem::replace(lane, Lane::new(Instant::now(), 1))
    }

    #[test]
    fn untraced_enter_and_exit_do_nothing() {
        let mut none = None;
        enter(&mut none, "x", 1);
        exit(&mut none);
        assert!(none.is_none());
    }
}
