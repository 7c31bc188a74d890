//! Experiment E5 — virtual-channel routing: co-resident versus cross-machine.
//!
//! The push/pull data plane of the Communication Backbone routes an update
//! either directly to a co-resident subscriber or over the LAN on an
//! established virtual channel. The timed routine is a full cross-machine
//! update → deliver round with a 1 KiB payload; the local fast path and the
//! payload sweep appear as derived metrics and in the reproduction table.

use cod_cb::{AttributeId, CbKernel, ClassRegistry, Value};
use cod_net::{LanConfig, Micros, SimLan};

use super::ExperimentCtx;
use crate::measure::{measure, MeasureConfig, Measurement};
use crate::report::{DerivedMetric, ExperimentResult};
use crate::EstablishedPair;

const HEADLINE_PAYLOAD: usize = 1_024;

/// Times one remote update→deliver round (two 10 ms LAN rounds) for a
/// payload of the given size.
fn measure_remote(config: &MeasureConfig, payload: usize) -> Measurement {
    let mut pair = EstablishedPair::new(LanConfig::fast_ethernet(3));
    let object = pair.publisher.register_object_instance(pair.publisher_lp, pair.class).unwrap();
    let blob = Value::Bytes(vec![0xAB; payload]);
    measure(config, || {
        pair.publisher
            .update_attribute_values(
                pair.publisher_lp,
                object,
                [(AttributeId(0), blob.clone())].into(),
                pair.now,
            )
            .unwrap();
        pair.round();
        pair.round();
        let got = pair.subscriber.reflections(pair.subscriber_lp);
        assert!(!got.is_empty());
        std::hint::black_box(got.len());
    })
}

/// Times the co-resident fast path (publisher and subscriber LP on one CB).
fn measure_local(config: &MeasureConfig, payload: usize) -> Measurement {
    let mut registry = ClassRegistry::new();
    let class = registry.register_object_class("Bench", &["payload"]).unwrap();
    let lan = SimLan::shared(LanConfig::ideal(1));
    let mut kernel = CbKernel::new(SimLan::attach(&lan, "pc"), registry);
    let producer = kernel.register_lp("producer");
    let consumer = kernel.register_lp("consumer");
    kernel.publish_object_class(producer, class).unwrap();
    kernel.subscribe_object_class(consumer, class).unwrap();
    let object = kernel.register_object_instance(producer, class).unwrap();
    let blob = Value::Bytes(vec![0xCD; payload]);
    measure(config, || {
        kernel
            .update_attribute_values(
                producer,
                object,
                [(AttributeId(0), blob.clone())].into(),
                Micros::ZERO,
            )
            .unwrap();
        let got = kernel.reflections(consumer);
        assert_eq!(got.len(), 1);
    })
}

/// Prints the payload sweep, reusing the already-measured 1 KiB medians for
/// that row instead of re-measuring them.
fn print_table(config: &MeasureConfig, headline_local_ns: f64, headline_remote_ns: f64) {
    println!("\n=== E5: virtual-channel routing, co-resident vs cross-machine ===");
    println!("payload (B) | local median | remote median | remote/local");
    for payload in [16usize, 256, HEADLINE_PAYLOAD, 4_096] {
        let (local_ns, remote_ns) = if payload == HEADLINE_PAYLOAD {
            (headline_local_ns, headline_remote_ns)
        } else {
            (
                measure_local(config, payload).stats.median,
                measure_remote(config, payload).stats.median,
            )
        };
        println!(
            "{payload:>11} | {:>12} | {:>13} | {:>11.1}x",
            crate::report::format_ns(local_ns),
            crate::report::format_ns(remote_ns),
            remote_ns / local_ns.max(1.0)
        );
    }
    println!();
}

/// Runs E5 and returns its result.
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let m = measure_remote(&ctx.measure, HEADLINE_PAYLOAD);
    let local = measure_local(&ctx.secondary_measure(), HEADLINE_PAYLOAD);
    if ctx.tables {
        print_table(&ctx.secondary_measure(), local.stats.median, m.stats.median);
    }
    let throughput_mb_s = HEADLINE_PAYLOAD as f64 * 1e9 / m.stats.median.max(1.0) / 1e6;
    ExperimentResult {
        id: "E5".into(),
        name: "routing".into(),
        metric: "cross-machine update->deliver round, 1 KiB payload".into(),
        timing: m.stats,
        iters_per_sample: m.iters_per_sample,
        comparison: None,
        derived: vec![
            DerivedMetric::new("local_round_median_ns", "ns", local.stats.median),
            DerivedMetric::new(
                "remote_vs_local_ratio",
                "x",
                m.stats.median / local.stats.median.max(1.0),
            ),
            DerivedMetric::new("remote_throughput", "MB/s", throughput_mb_s),
        ],
        notes: "Remote rounds include two simulated 10 ms LAN rounds of kernel work; the \
                simulated link delay itself costs no wall-clock time."
            .into(),
    }
}
