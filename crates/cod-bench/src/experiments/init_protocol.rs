//! Experiment E6 — the initialization protocol of the Communication Backbone.
//!
//! The reproduction table shows how long (in simulated time) establishing
//! virtual channels takes as the subscriber count, the SUBSCRIPTION broadcast
//! interval and the packet loss change.

use cod_cb::{CbKernel, ClassRegistry};
use cod_net::{FaultPlan, LanConfig, Micros, SimLan};

use crate::report::{DerivedMetric, ExperimentResult};

/// Runs discovery for `subscribers` computers until every subscriber has
/// recorded its setup latency (its CHANNEL ACK arrived), or 2 000 rounds,
/// and returns `(rounds, mean setup latency in simulated time)`.
fn establish(subscribers: usize, interval: Micros, loss: f64) -> (usize, Micros) {
    let mut registry = ClassRegistry::new();
    let class = registry.register_object_class("CraneState", &["x"]).unwrap();
    let mut lan = SimLan::new(LanConfig::fast_ethernet(17));
    lan.set_fault_plan(FaultPlan::seeded(17).with_drop_probability(loss));

    let mut publisher = CbKernel::with_broadcast_interval(lan.attach(), registry.clone(), interval);
    let p = publisher.register_lp();
    publisher.publish_object_class(p, class).unwrap();

    let mut subs: Vec<_> = (0..subscribers)
        .map(|_| {
            let mut kernel =
                CbKernel::with_broadcast_interval(lan.attach(), registry.clone(), interval);
            let lp = kernel.register_lp();
            kernel.subscribe_object_class(lp, class).unwrap();
            kernel
        })
        .collect();

    let mut rounds = 0;
    while subs.iter().any(|s| s.stats().mean_setup_latency().is_none()) && rounds < 2_000 {
        let now = lan.now();
        publisher.tick(now, &mut lan).unwrap();
        for s in subs.iter_mut() {
            s.tick(now, &mut lan).unwrap();
        }
        lan.advance_to(now + Micros::from_millis(5));
        rounds += 1;
    }
    let latencies: Vec<Micros> =
        subs.iter().filter_map(|s| s.stats().mean_setup_latency()).collect();
    let mean = if latencies.is_empty() {
        Micros::ZERO
    } else {
        Micros(latencies.iter().map(|m| m.0).sum::<u64>() / latencies.len() as u64)
    };
    (rounds, mean)
}

fn print_table() {
    println!("\n=== E6: initialization protocol convergence ===");
    println!("subscribers | broadcast interval | loss | mean setup latency");
    for subscribers in [1usize, 4, 16, 48] {
        let (_, latency) = establish(subscribers, Micros::from_millis(50), 0.0);
        println!("{subscribers:>11} | {:>18} | {:>4} | {}", "50 ms", "0%", latency);
    }
    for interval_ms in [10u64, 50, 200] {
        let (_, latency) = establish(8, Micros::from_millis(interval_ms), 0.0);
        println!("{:>11} | {:>15} ms | {:>4} | {}", 8, interval_ms, "0%", latency);
    }
    for loss in [0.0f64, 0.1, 0.3] {
        let (_, latency) = establish(8, Micros::from_millis(50), loss);
        println!("{:>11} | {:>18} | {:>3.0}% | {}", 8, "50 ms", loss * 100.0, latency);
    }
    println!();
}

/// Runs E6 and returns its result.
pub fn run() -> ExperimentResult {
    print_table();
    let (rounds, latency) = establish(8, Micros::from_millis(50), 0.0);
    ExperimentResult {
        id: "E6".into(),
        name: "init_protocol".into(),
        comparison: None,
        derived: vec![
            DerivedMetric::new("mean_setup_latency_sim", "us", latency.0 as f64),
            DerivedMetric::new("convergence_rounds_5ms", "rounds", rounds as f64),
        ],
        notes: "Setup latency is simulated LAN time, measured once every subscriber has heard \
                its CHANNEL ACK; the paper only says initialization completes within seconds \
                of power-on. The broadcast-interval rows read the same latency because the \
                first SUBSCRIPTION goes out on a kernel's first tick whatever the interval; \
                the interval paces only the re-broadcasts that loss needs."
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_clean_row_measures_a_setup_latency() {
        for subscribers in [1usize, 4, 16, 48] {
            let (_, latency) = establish(subscribers, Micros::from_millis(50), 0.0);
            assert!(latency > Micros::ZERO, "{subscribers} subscribers: no latency measured");
        }
        for interval_ms in [10u64, 50, 200] {
            let (_, latency) = establish(8, Micros::from_millis(interval_ms), 0.0);
            assert!(latency > Micros::ZERO, "{interval_ms} ms interval: no latency measured");
        }
    }
}
