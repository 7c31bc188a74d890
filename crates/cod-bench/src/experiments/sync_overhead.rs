//! Experiment E7 — the cost of the frame-synchronization server.
//!
//! The paper attributes the drop to 16 fps to "the overhead of the
//! synchronization among the three graphical computers". The reproduction
//! table quantifies the swap-lock barrier for 1–6 display channels through
//! the analytic model; the timed routine runs the real barrier protocol over
//! the Communication Backbone for three channels.

use cod_cb::{CbApi, CbError, ClassRegistry};
use cod_cluster::{
    Cluster, ClusterConfig, FrameSyncClient, FrameSyncFom, FrameSyncServer, LogicalProcess,
    SyncBarrierModel,
};
use cod_net::Micros;

use super::ExperimentCtx;
use crate::measure::measure;
use crate::report::{Comparison, DerivedMetric, ExperimentResult};

struct BenchDisplay {
    client: FrameSyncClient,
}

impl LogicalProcess for BenchDisplay {
    fn name(&self) -> &str {
        "bench-display"
    }
    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        self.client.init(cb)
    }
    fn step(&mut self, cb: &mut dyn CbApi, _dt: f64) -> Result<(), CbError> {
        if self.client.is_waiting() {
            self.client.poll_release(cb);
        } else {
            self.client.report_ready(cb)?;
        }
        Ok(())
    }
}

fn barrier_model() -> SyncBarrierModel {
    SyncBarrierModel { round_trip: Micros::from_millis(1), server_processing: Micros(500) }
}

/// Per-channel render times for the paper's scene: every channel renders the
/// same 3 235-polygon view, with a small spread from load.
fn render_times(channels: usize) -> Vec<Micros> {
    (0..channels).map(|i| Micros::from_millis(58 + i as u64)).collect()
}

fn print_table() {
    println!("\n=== E7: swap-lock overhead vs number of display channels ===");
    println!("channels | free-run fps | synchronized fps | overhead %");
    let model = barrier_model();
    for channels in 1..=6usize {
        let times = render_times(channels);
        let free = SyncBarrierModel::unsynchronized_period(&times);
        let sync = model.synchronized_period(&times);
        println!(
            "{channels:>8} | {:>12.1} | {:>16.1} | {:>9.1}",
            1.0 / free.as_secs_f64(),
            1.0 / sync.as_secs_f64(),
            model.overhead_fraction(&times) * 100.0
        );
    }
    println!();
}

/// Builds a cluster running the barrier protocol for `channels` displays.
fn build_cluster(channels: usize) -> Cluster {
    let mut fom = ClassRegistry::new();
    let sync_fom = FrameSyncFom::register(&mut fom).unwrap();
    let mut cluster = Cluster::new(ClusterConfig::default(), fom);
    for i in 0..channels {
        let pc = cluster.add_computer(&format!("display-{i}"));
        cluster
            .add_lp(pc, Box::new(BenchDisplay { client: FrameSyncClient::new(sync_fom, i as u32) }))
            .unwrap();
    }
    let server_pc = cluster.add_computer("sync-server");
    cluster.add_lp(server_pc, Box::new(FrameSyncServer::new(sync_fom, channels))).unwrap();
    cluster.initialize().unwrap();
    cluster
}

/// Runs E7 and returns its result.
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    if ctx.tables {
        print_table();
    }

    let channels = 3;
    let mut cluster = build_cluster(channels);
    let m = measure(&ctx.measure, || {
        cluster.run_frames(10).unwrap();
    });

    let model = barrier_model();
    let times = render_times(channels);
    let sync_fps = 1.0 / model.synchronized_period(&times).as_secs_f64();
    ExperimentResult {
        id: "E7".into(),
        name: "sync_overhead".into(),
        metric: "10 swap-lock barrier rounds over the CB, 3 display channels".into(),
        timing: m.stats,
        iters_per_sample: m.iters_per_sample,
        comparison: Some(Comparison {
            quantity: "synchronized fps with 3 channels at ~60 ms render (barrier model)".into(),
            unit: "fps".into(),
            measured: sync_fps,
            paper: 16.0,
        }),
        derived: vec![DerivedMetric::new(
            "swap_lock_overhead_3_channels",
            "%",
            model.overhead_fraction(&times) * 100.0,
        )],
        notes: "The paper's 16 fps already includes this overhead; the model isolates it.".into(),
    }
}
