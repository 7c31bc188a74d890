//! Sink A — the deterministic half of `cod-trace`.
//!
//! Everything in this module is a pure function of modeled time and seeded
//! identifiers: counters, log2 histograms and discrete scheduling events,
//! drained into `OBS_cod.json` with its own FNV-1a fingerprint. Nothing
//! here may read a clock or the environment — `clippy.toml` bans
//! `Instant`, `SystemTime` and the `std::env` reads workspace-wide, so
//! clippy enforces that split mechanically; the wall-clock half lives in
//! [`crate::wall`], the one file of the crate that allows the clock.

use std::collections::BTreeMap;

use cod_json::Json;
use sim_math::Fnv1a;

/// Schema version of `OBS_cod.json`; bump on breaking layout changes.
pub const OBS_SCHEMA: &str = "cod-obs-v1";

/// A log2-bucketed histogram of `u64` samples (modeled microseconds, tick
/// counts, ...). Bucket `i` holds samples whose bit length is `i`, so the
/// shape is scale-free and the memory constant — and, because bucketing is
/// pure integer arithmetic on deterministic values, two runs of the same
/// seed fill identical histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 65], count: 0, sum: 0, min: 0, max: 0 }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = if self.count == 0 { value } else { self.min.min(value) };
        self.max = self.max.max(value);
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    fn fold_into(&self, h: &mut Fnv1a) {
        h.write_u64(self.count);
        h.write_u64(self.sum);
        h.write_u64(self.min);
        h.write_u64(self.max);
        for (i, n) in self.buckets.iter().enumerate() {
            if *n > 0 {
                h.write_u64(i as u64);
                h.write_u64(*n);
            }
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count as f64)),
            ("sum".into(), Json::Str(format!("{:#x}", self.sum))),
            ("min".into(), Json::Str(format!("{:#x}", self.min))),
            ("max".into(), Json::Str(format!("{:#x}", self.max))),
            ("mean".into(), Json::Num(self.mean())),
            (
                "log2_buckets".into(),
                Json::Obj(
                    self.buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| **n > 0)
                        .map(|(i, n)| (format!("{i}"), Json::Num(*n as f64)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One discrete deterministic event: something the fleet driver decided at a
/// modeled instant, about a seeded session. No wall-clock field by
/// construction. The fleet records each decision once, in
/// `cod_fleet::FleetOutcome::events`, and renders that log into these at the
/// end of a traced run; nothing appends one while the fleet runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetEvent {
    /// Fleet tick the event happened at.
    pub tick: u64,
    /// What happened (`"place"`, `"reject"`, `"preempt"`, `"migrate"`,
    /// `"promote"`, `"demote"`).
    pub kind: &'static str,
    /// The seeded session id the event concerns.
    pub id: u64,
    /// The shard involved, or `-1` when none is (a rejection never reached
    /// one).
    pub shard: i64,
}

/// The deterministic sink: counters, histograms and events derived from
/// modeled time and seeded identifiers only. Serialized to `OBS_cod.json`
/// by [`DetTrace::to_report_json`]; the bytes are byte-identical per seed
/// across execution modes and thread counts because nothing wall-clock ever
/// enters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetTrace {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    events: Vec<DetEvent>,
}

impl DetTrace {
    /// Creates an empty trace.
    pub fn new() -> DetTrace {
        DetTrace::default()
    }

    /// Adds `n` to the counter `key` (created at zero on first use).
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    /// Sets the counter `key` to `n` (overwriting any previous value).
    pub fn set(&mut self, key: &'static str, n: u64) {
        self.counters.insert(key, n);
    }

    /// The current value of counter `key` (0 when never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Records `value` into the histogram `key` (created on first use).
    pub fn record(&mut self, key: &'static str, value: u64) {
        self.histograms.entry(key).or_default().record(value);
    }

    /// The histogram `key`, if any sample was recorded.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Appends a discrete event.
    pub fn event(&mut self, tick: u64, kind: &'static str, id: u64, shard: i64) {
        self.events.push(DetEvent { tick, kind, id, shard });
    }

    /// The recorded events, in recording order.
    pub fn events(&self) -> &[DetEvent] {
        &self.events
    }

    /// Number of events of one kind.
    pub fn events_of(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// FNV-1a fingerprint over every counter, histogram and event. Two runs
    /// of the same seed must agree bit for bit.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.counters.len() as u64);
        for (key, value) in &self.counters {
            h.write_bytes(key.as_bytes());
            h.write_u64(*value);
        }
        h.write_u64(self.histograms.len() as u64);
        for (key, hist) in &self.histograms {
            h.write_bytes(key.as_bytes());
            hist.fold_into(&mut h);
        }
        h.write_u64(self.events.len() as u64);
        for e in &self.events {
            h.write_u64(e.tick);
            h.write_bytes(e.kind.as_bytes());
            h.write_u64(e.id);
            h.write_u64(e.shard as u64);
        }
        h.finish()
    }

    /// Serializes the trace to the `OBS_cod.json` schema: own schema string,
    /// the run's seed, sorted counters and histograms, the event log and a
    /// fingerprint of all of it. Deliberately a *separate* document from
    /// `FLEET_cod.json` with a separate fingerprint: observability data must
    /// never perturb the serving report's byte-identity gate.
    pub fn to_report_json(&self, seed: u64) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(OBS_SCHEMA.into())),
            ("seed".into(), Json::Str(format!("{seed:#x}"))),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), Json::Str(format!("{v:#x}"))))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(
                    self.histograms.iter().map(|(k, h)| ((*k).to_owned(), h.to_json())).collect(),
                ),
            ),
            (
                "events".into(),
                Json::Arr(
                    self.events
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("tick".into(), Json::Num(e.tick as f64)),
                                ("kind".into(), Json::Str(e.kind.into())),
                                ("id".into(), Json::Str(format!("{:#x}", e.id))),
                                ("shard".into(), Json::Num(e.shard as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("fingerprint".into(), Json::Str(format!("{:016x}", self.fingerprint()))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length_and_tracks_extremes() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.mean() > 0.0);
        // 0 -> bucket 0, 1 -> 1, 2..3 -> 2, 4 -> 3, 1024 -> 11, MAX -> 64.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[11], 1);
        assert_eq!(h.buckets[64], 1);
    }

    #[test]
    fn det_trace_is_a_pure_function_of_its_inputs() {
        let build = || {
            let mut t = DetTrace::new();
            t.add("frames", 7);
            t.add("frames", 3);
            t.set("ticks", 4);
            t.record("latency_ticks", 3);
            t.record("latency_ticks", 9);
            t.event(1, "place", 0xAB, 2);
            t.event(2, "reject", 0xCD, -1);
            t
        };
        let a = build();
        let b = build();
        assert_eq!(a.counter("frames"), 10);
        assert_eq!(a.events_of("place"), 1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.to_report_json(0xC0D).to_pretty(),
            b.to_report_json(0xC0D).to_pretty(),
            "same inputs must serialize to identical bytes"
        );
        // Any divergence in inputs must change the fingerprint.
        let mut c = build();
        c.add("frames", 1);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn obs_report_parses_and_carries_the_schema() {
        let mut t = DetTrace::new();
        t.add("ticks", 2);
        t.record("tick_makespan_us", 1500);
        t.event(0, "place", 1, 0);
        let text = t.to_report_json(0x5EED).to_pretty();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(OBS_SCHEMA));
        assert_eq!(parsed.get("seed").and_then(Json::as_str), Some("0x5eed"));
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("ticks")).and_then(Json::as_str),
            Some("0x2")
        );
        let hist = parsed.get("histograms").and_then(|h| h.get("tick_makespan_us")).unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_f64), Some(1.0));
        assert!(parsed.get("fingerprint").and_then(Json::as_str).is_some());
    }
}
