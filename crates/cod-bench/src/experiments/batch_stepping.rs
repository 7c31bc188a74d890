//! Experiment E11 — batched SoA stepping: scalar versus lockstep cohorts of
//! same-shape residents on one shard.
//!
//! A shard hosting N sessions of the same [`SessionShape`] can advance them
//! one at a time ([`SteppingMode::Scalar`]) or as one frame-major lockstep
//! cohort ([`SteppingMode::Batched`]) that shares per-frame work which is
//! provably identical across members — chiefly the memoized audio waveform
//! columns, which depend on source parameters and age but not on seed, gain
//! or listener. E11 sweeps the cohort size and reports the wall-clock
//! speedup of batched over scalar serving, while asserting the part that
//! must not move: every session's telemetry digest is bit-identical between
//! the two paths at every cohort size.
//!
//! The speedup was ~2x at 8 residents while a waveform column cost thousands
//! of libm calls. Since the block-oscillator kernel (E15) a column costs
//! about a microsecond whether memoized or not, and E11 reads ~1.0x at every
//! cohort size: the memo was the whole batching win. The gate is therefore a
//! non-regression floor — batched may not cost more than scalar — and
//! ROADMAP open item 2 carries the verdict on the memo machinery.
//!
//! The paper's cluster never did this — it had one operator per rack. The
//! experiment quantifies what the consolidated serving layer gains from the
//! paper's own determinism discipline: lockstep cohorts are only sound
//! because every module steps on a fixed shared clock.

use cod_fleet::{Priority, SessionShape, SessionSpec, Shard, ShardConfig, SteppingMode};
use cod_net::FaultPlan;
use crane_sim::{OperatorKind, SimulatorConfig};

use super::ExperimentCtx;
use crate::measure::measure;
use crate::report::{DerivedMetric, ExperimentResult};

/// Cohort sizes swept by the reproduction table.
const COHORTS: [usize; 4] = [1, 2, 4, 8];

/// Frames per session: a few full shard ticks at the default batch of 8.
const FRAMES: usize = 24;

/// One member of the same-shape cohort: the E11 shape (exam operator, two
/// 64x48 display channels, full fidelity) with a per-member seed, so members
/// share every shape field while their physics diverge.
fn member_spec(k: usize) -> SessionSpec {
    let config = SimulatorConfig {
        operator: OperatorKind::Exam,
        display_channels: 2,
        display_width: 64,
        display_height: 48,
        exam_frames: FRAMES,
        seed: 0x0E11_C0D ^ ((k as u64) * 0x9E37_79B9),
        ..SimulatorConfig::default()
    };
    SessionSpec {
        id: k as u64,
        name: format!("e11-member-{k}"),
        config,
        fault_plan: FaultPlan::none(),
        frames: FRAMES,
        priority: Priority::Training,
    }
}

/// A one-shard fleet sized for an `n`-member cohort, with a recycling pool
/// deep enough that every serve after the first reuses its racks.
fn shard(n: usize, stepping: SteppingMode) -> Shard {
    Shard::new(0, ShardConfig { slots: n, batch_frames: 8, pool_per_shape: n, stepping }, 1.0)
}

/// Serves the `n`-member cohort to drain and returns each member's telemetry
/// fingerprint in session order.
fn serve(shard: &mut Shard, n: usize) -> Vec<u64> {
    for k in 0..n {
        shard.admit(member_spec(k), 0, 0).expect("shard admits the cohort");
    }
    let mut digests = Vec::with_capacity(n);
    while shard.resident_count() > 0 {
        let (completed, _) = shard.step_batch().expect("cohort steps");
        digests.extend(completed.iter().map(|c| (c.id, c.telemetry)));
    }
    digests.sort_unstable();
    digests.into_iter().map(|(_, t)| t).collect()
}

/// Runs E11 and returns its result.
pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    // The cohort really is one shape: the batched path groups by this key.
    let shape = SessionShape::of(&member_spec(0).config);
    for k in 1..8 {
        assert_eq!(shape, SessionShape::of(&member_spec(k).config), "cohort must share a shape");
    }

    if ctx.tables {
        println!("\n=== E11: batched SoA stepping (same-shape cohorts, 1 shard) ===");
        println!("residents | scalar ms/serve | batched ms/serve | speedup | digests");
    }
    let secondary = ctx.secondary_measure();
    let mut speedups = Vec::new();
    for n in COHORTS {
        // Identity first: the speedup below is only worth reporting because
        // both paths retire bit-identical sessions.
        let scalar_digests = serve(&mut shard(n, SteppingMode::Scalar), n);
        let batched_digests = serve(&mut shard(n, SteppingMode::Batched), n);
        assert_eq!(
            scalar_digests, batched_digests,
            "batched stepping changed a telemetry digest at {n} residents"
        );

        // Long-lived shards, as in a real fleet: the first serve builds the
        // racks (warmup), every timed serve recycles them from the pool.
        let mut scalar_shard = shard(n, SteppingMode::Scalar);
        let scalar = measure(&secondary, || {
            serve(&mut scalar_shard, n);
        });
        let mut batched_shard = shard(n, SteppingMode::Batched);
        let batched = measure(&secondary, || {
            serve(&mut batched_shard, n);
        });
        let speedup = scalar.stats.median / batched.stats.median.max(1e-12);
        if ctx.tables {
            println!(
                "{n:>9} | {:>15.2} | {:>16.2} | {speedup:>6.2}x | identical",
                scalar.stats.median / 1e6,
                batched.stats.median / 1e6,
            );
        }
        speedups.push(speedup);
    }
    if ctx.tables {
        println!(
            "speedup at 8 residents: {:.2}x (bench_report --quick gates >= 0.9x)\n",
            speedups[3]
        );
    }

    // Headline routine: serve the 8-member cohort batched to drain.
    let mut headline_shard = shard(8, SteppingMode::Batched);
    let m = measure(&ctx.measure, || {
        serve(&mut headline_shard, 8);
    });

    ExperimentResult {
        id: "E11".into(),
        name: "batch_stepping".into(),
        bench_target: "batch_stepping".into(),
        metric: "serve an 8-resident same-shape cohort to drain with batched lockstep stepping"
            .into(),
        timing: m.stats,
        iters_per_sample: m.iters_per_sample,
        comparison: None,
        derived: vec![
            DerivedMetric::new("batched_speedup_1_resident", "x", speedups[0]),
            DerivedMetric::new("batched_speedup_2_residents", "x", speedups[1]),
            DerivedMetric::new("batched_speedup_4_residents", "x", speedups[2]),
            DerivedMetric::new("batched_speedup_8_residents", "x", speedups[3]),
        ],
        notes: "Scalar and batched serving retire bit-identical sessions (asserted per cohort \
                size on the telemetry digests). Batching shares per-frame work that is \
                invariant across same-shape cohort members, chiefly memoized audio waveform \
                columns; since the block-oscillator kernel made a column cheap to recompute \
                that sharing is worth ~1.0x at every cohort size, and `bench_report --quick` \
                gates only non-regression: >= 0.9x at 8 residents."
            .into(),
    }
}
