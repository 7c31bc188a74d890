//! Sink B — the wall-clock half of `cod-trace`.
//!
//! Real-time span records for Perfetto / `about://tracing`. Everything here
//! varies run to run by design, which is exactly why none of it is ever
//! serialized into a fingerprinted report: this file (and only this file in
//! the crate) appears on the `cod_audit` R1 (`wall-clock`) allowlist in
//! `audit.toml`, so an `Instant` creeping into the deterministic half of
//! the crate is a lint error, not a flaky seed-diff.

use std::sync::Mutex;
use std::time::Instant;

use cod_json::Json;

/// One wall-clock record: a complete span (`ph: "X"`) or an instant
/// (`ph: "i"`), in Chrome trace-event terms.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WallEvent {
    name: String,
    cat: &'static str,
    /// `'X'` complete span, `'i'` instant.
    ph: char,
    ts_us: u64,
    dur_us: u64,
}

/// The wall-clock sink: per-lane real-time span records, exported as Chrome
/// trace-event JSON for Perfetto / `about://tracing`. Lane 0 is the fleet
/// driver's tick loop; lanes `1..=workers` are the executor's stepping
/// threads, worker 0 being the driver thread itself while it steps. Lanes are
/// independently locked so workers never contend with each other on the hot
/// path.
///
/// Everything here is real time and varies run to run — which is exactly why
/// none of it is ever serialized into a fingerprinted report.
#[derive(Debug)]
pub struct WallTrace {
    epoch: Instant,
    lanes: Vec<Mutex<Vec<WallEvent>>>,
}

/// The driver's lane in a [`WallTrace`].
pub const DRIVER_LANE: usize = 0;

impl WallTrace {
    /// Creates a trace with `workers` worker lanes plus the driver lane.
    pub fn new(workers: usize) -> WallTrace {
        WallTrace {
            epoch: Instant::now(),
            lanes: (0..=workers).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// The lane of worker thread `index`.
    pub fn worker_lane(index: usize) -> usize {
        index + 1
    }

    /// Number of lanes (driver + workers).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Microseconds since the trace was created — the `ts` clock every
    /// record uses.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records a complete span on `lane` from `start_us` to now.
    pub fn complete(&self, lane: usize, name: String, cat: &'static str, start_us: u64) {
        let end = self.now_us();
        let event =
            WallEvent { name, cat, ph: 'X', ts_us: start_us, dur_us: end.saturating_sub(start_us) };
        self.push(lane, event);
    }

    /// Records an instant on `lane`.
    pub fn instant(&self, lane: usize, name: &str, cat: &'static str) {
        let event =
            WallEvent { name: name.to_owned(), cat, ph: 'i', ts_us: self.now_us(), dur_us: 0 };
        self.push(lane, event);
    }

    fn push(&self, lane: usize, event: WallEvent) {
        if let Some(lane) = self.lanes.get(lane) {
            lane.lock().expect("wall-trace lane poisoned").push(event);
        }
    }

    /// Total records across every lane.
    pub fn event_count(&self) -> usize {
        self.lanes.iter().map(|l| l.lock().expect("wall-trace lane poisoned").len()).sum()
    }

    /// Records on `lane` matching `cat` (all records when `cat` is empty).
    pub fn count_of(&self, lane: usize, cat: &str) -> usize {
        self.lanes
            .get(lane)
            .map(|l| {
                l.lock()
                    .expect("wall-trace lane poisoned")
                    .iter()
                    .filter(|e| cat.is_empty() || e.cat == cat)
                    .count()
            })
            .unwrap_or(0)
    }

    /// Serializes every lane to Chrome trace-event JSON: a `traceEvents`
    /// array of complete (`"X"`) and instant (`"i"`) events, preceded by one
    /// `thread_name` metadata record per lane so Perfetto labels the driver
    /// and each `fleet-worker-N`. Load the written file in
    /// <https://ui.perfetto.dev> or `about://tracing`.
    pub fn to_chrome_json(&self) -> Json {
        let mut events = Vec::new();
        for (lane, records) in self.lanes.iter().enumerate() {
            let label = if lane == DRIVER_LANE {
                "fleet-driver".to_owned()
            } else {
                format!("fleet-worker-{}", lane - 1)
            };
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str("thread_name".into())),
                ("ph".into(), Json::Str("M".into())),
                ("pid".into(), Json::Num(1.0)),
                ("tid".into(), Json::Num(lane as f64)),
                ("args".into(), Json::Obj(vec![("name".into(), Json::Str(label))])),
            ]));
            for e in records.lock().expect("wall-trace lane poisoned").iter() {
                let mut members = vec![
                    ("name".into(), Json::Str(e.name.clone())),
                    ("cat".into(), Json::Str(e.cat.into())),
                    ("ph".into(), Json::Str(e.ph.to_string())),
                    ("ts".into(), Json::Num(e.ts_us as f64)),
                ];
                if e.ph == 'X' {
                    members.push(("dur".into(), Json::Num(e.dur_us as f64)));
                } else {
                    // Thread-scoped instants render as lane-local marks.
                    members.push(("s".into(), Json::Str("t".into())));
                }
                members.push(("pid".into(), Json::Num(1.0)));
                members.push(("tid".into(), Json::Num(lane as f64)));
                events.push(Json::Obj(members));
            }
        }
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_trace_exports_labeled_lanes_with_spans_and_instants() {
        let wall = WallTrace::new(2);
        assert_eq!(wall.lanes(), 3);
        let t0 = wall.now_us();
        wall.complete(DRIVER_LANE, "tick 0".into(), "tick", t0);
        wall.instant(WallTrace::worker_lane(0), "mark", "note");
        wall.complete(WallTrace::worker_lane(1), "shard1".into(), "step", t0);
        assert_eq!(wall.event_count(), 3);
        assert_eq!(wall.count_of(WallTrace::worker_lane(0), "note"), 1);
        let text = wall.to_chrome_json().to_pretty();
        let parsed = Json::parse(&text).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        // 3 metadata records + 3 events.
        assert_eq!(events.len(), 6);
        let names: Vec<&str> =
            events.iter().filter_map(|e| e.get("name").and_then(Json::as_str)).collect();
        assert!(names.contains(&"thread_name"));
        assert!(names.contains(&"mark"));
        let phases: Vec<&str> =
            events.iter().filter_map(|e| e.get("ph").and_then(Json::as_str)).collect();
        assert!(phases.contains(&"X") && phases.contains(&"i") && phases.contains(&"M"));
    }

    #[test]
    fn out_of_range_lane_records_are_dropped_not_panicking() {
        let wall = WallTrace::new(1);
        wall.instant(99, "nowhere", "note");
        assert_eq!(wall.event_count(), 0);
    }
}
