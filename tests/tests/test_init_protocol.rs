//! Integration tests of the Communication Backbone initialization protocol
//! across many computers (experiment E4) — subscription broadcast, channel
//! establishment, dynamic join, and behaviour over a lossy LAN.

use cod_cb::{CbKernel, ClassRegistry, Value};
use cod_net::{LanConfig, Micros, SimLan, SimTransport};

fn crane_fom() -> ClassRegistry {
    let mut fom = ClassRegistry::new();
    fom.register_object_class("CraneState", &["position", "boom_angle"]).unwrap();
    fom
}

fn run_round(kernels: &mut [CbKernel<SimTransport>], lan: &cod_net::SharedLan, now: &mut Micros) {
    for k in kernels.iter_mut() {
        k.tick(*now).unwrap();
    }
    *now += Micros::from_millis(10);
    SimLan::advance_to(lan, *now);
}

#[test]
fn one_publisher_serves_many_subscriber_computers() {
    let fom = crane_fom();
    let class = fom.object_class_by_name("CraneState").unwrap();
    let lan = SimLan::shared(LanConfig::fast_ethernet(21));
    let mut now = Micros::ZERO;

    let mut publisher = CbKernel::new(SimLan::attach(&lan, "dynamics"), fom.clone());
    let dynamics = publisher.register_lp();
    publisher.publish_object_class(dynamics, class).unwrap();

    let mut subscribers: Vec<_> = (0..12)
        .map(|i| {
            let mut kernel =
                CbKernel::new(SimLan::attach(&lan, &format!("display-{i}")), fom.clone());
            let lp = kernel.register_lp();
            kernel.subscribe_object_class(lp, class).unwrap();
            (kernel, lp)
        })
        .collect();

    for _ in 0..40 {
        publisher.tick(now).unwrap();
        for (kernel, _) in subscribers.iter_mut() {
            kernel.tick(now).unwrap();
        }
        now += Micros::from_millis(10);
        SimLan::advance_to(&lan, now);
    }

    assert_eq!(publisher.established_channel_count(), 12);
    for (kernel, _) in &subscribers {
        assert_eq!(kernel.established_channel_count(), 1);
    }

    // One update fans out to every display computer.
    let object = publisher.register_object_instance(dynamics, class).unwrap();
    let attr = fom.attribute_id(class, "boom_angle").unwrap();
    publisher
        .update_attribute_values(dynamics, object, [(attr, Value::F64(1.0))].into(), now)
        .unwrap();
    for _ in 0..5 {
        publisher.tick(now).unwrap();
        for (kernel, _) in subscribers.iter_mut() {
            kernel.tick(now).unwrap();
        }
        now += Micros::from_millis(10);
        SimLan::advance_to(&lan, now);
    }
    for (kernel, lp) in subscribers.iter_mut() {
        assert_eq!(kernel.reflections(*lp).len(), 1);
    }
}

#[test]
fn setup_latency_is_reported_and_bounded_by_the_broadcast_interval() {
    let fom = crane_fom();
    let class = fom.object_class_by_name("CraneState").unwrap();
    let lan = SimLan::shared(LanConfig::fast_ethernet(5));
    let mut now = Micros::ZERO;
    let mut publisher = CbKernel::new(SimLan::attach(&lan, "pub"), fom.clone());
    let p = publisher.register_lp();
    publisher.publish_object_class(p, class).unwrap();
    let mut subscriber = CbKernel::new(SimLan::attach(&lan, "sub"), fom.clone());
    let s = subscriber.register_lp();
    subscriber.subscribe_object_class(s, class).unwrap();

    let mut kernels = [publisher, subscriber];
    for _ in 0..30 {
        run_round(&mut kernels, &lan, &mut now);
    }
    let stats = kernels[1].stats();
    assert_eq!(stats.setup_latencies.len(), 1);
    // On a healthy LAN the three-way handshake completes within a few
    // protocol rounds (well under half a second).
    assert!(stats.setup_latencies[0] < Micros::from_millis(500));
    assert!(stats.subscription_broadcasts >= 1);
}

#[test]
fn protocol_converges_even_on_a_very_lossy_lan() {
    let fom = crane_fom();
    let class = fom.object_class_by_name("CraneState").unwrap();
    let lan = SimLan::shared(LanConfig::fast_ethernet(77).with_loss(0.4));
    let mut now = Micros::ZERO;
    let mut publisher = CbKernel::new(SimLan::attach(&lan, "pub"), fom.clone());
    let p = publisher.register_lp();
    publisher.publish_object_class(p, class).unwrap();
    let mut subscriber = CbKernel::new(SimLan::attach(&lan, "sub"), fom.clone());
    let s = subscriber.register_lp();
    subscriber.subscribe_object_class(s, class).unwrap();

    let mut kernels = [publisher, subscriber];
    for _ in 0..500 {
        run_round(&mut kernels, &lan, &mut now);
    }
    assert!(kernels[0].established_channel_count() >= 1);
    assert!(kernels[1].established_channel_count() >= 1);
}

#[test]
fn late_joining_publisher_is_discovered_by_readvertisement() {
    let fom = crane_fom();
    let class = fom.object_class_by_name("CraneState").unwrap();
    let lan = SimLan::shared(LanConfig::fast_ethernet(9));
    let mut now = Micros::ZERO;
    let mut subscriber = CbKernel::new(SimLan::attach(&lan, "sub"), fom.clone());
    let s = subscriber.register_lp();
    subscriber.subscribe_object_class(s, class).unwrap();

    // The subscriber runs alone for a while: no channel can exist yet.
    let mut kernels = vec![subscriber];
    for _ in 0..50 {
        run_round(&mut kernels, &lan, &mut now);
    }
    assert_eq!(kernels[0].established_channel_count(), 0);

    // A publisher computer is switched on later.
    let mut publisher = CbKernel::new(SimLan::attach(&lan, "pub"), fom.clone());
    let p = publisher.register_lp();
    publisher.publish_object_class(p, class).unwrap();
    kernels.push(publisher);
    for _ in 0..60 {
        run_round(&mut kernels, &lan, &mut now);
    }
    assert_eq!(kernels[0].established_channel_count(), 1);
    assert_eq!(kernels[1].established_channel_count(), 1);
}
