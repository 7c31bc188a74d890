//! The dashboard module (paper §3.2) as a Logical Process.
//!
//! In the original trainer this module reads the physical steering wheel, gas
//! pedal, brake and the two boom joysticks, translates the signals into
//! messages for the other modules, and drives the meters and indicators when
//! messages arrive from the instructor monitor. Here the physical operator is
//! replaced by an [`Operator`] policy, and the meters are modelled with
//! rate-limited needles so fault injections and mirroring behave like the
//! original instrument cluster.

use std::collections::BTreeMap;

use cod_cb::{CbApi, CbError, ClassRegistry, ObjectId};
use cod_cluster::LogicalProcess;
use cod_net::Micros;
use sim_math::RateLimiter;

use crate::fom::{CraneFom, FaultMsg, OperatorInputMsg};
use crate::operator::{Observation, Operator};
use crate::telemetry::SharedTelemetry;

/// The instrument cluster of the mockup (speedometer, engine gauge, load-moment
/// indicator), with needle dynamics and instructor fault overrides.
#[derive(Debug)]
pub struct InstrumentPanel {
    speedometer: RateLimiter,
    engine_gauge: RateLimiter,
    load_moment: RateLimiter,
    faults: BTreeMap<String, f64>,
}

impl Default for InstrumentPanel {
    fn default() -> Self {
        InstrumentPanel {
            speedometer: RateLimiter::new(40.0),
            engine_gauge: RateLimiter::new(2.0),
            load_moment: RateLimiter::new(1.5),
            faults: BTreeMap::new(),
        }
    }
}

impl InstrumentPanel {
    /// Applies (or clears, when `value` is NaN) an instructor fault override.
    pub fn inject_fault(&mut self, fault: &FaultMsg) {
        if fault.value.is_nan() {
            self.faults.remove(&fault.instrument);
        } else {
            self.faults.insert(fault.instrument.clone(), fault.value);
        }
    }

    /// Advances the needles toward the true values and returns what the
    /// instruments display (fault overrides win).
    pub fn update(
        &mut self,
        speed_kmh: f64,
        engine: f64,
        load_moment: f64,
        dt: f64,
    ) -> (f64, f64, f64) {
        let displayed_speed = self
            .faults
            .get("speedometer")
            .copied()
            .unwrap_or_else(|| self.speedometer.update(speed_kmh, dt));
        let displayed_engine = self
            .faults
            .get("engine")
            .copied()
            .unwrap_or_else(|| self.engine_gauge.update(engine, dt));
        let displayed_moment = self
            .faults
            .get("load_moment")
            .copied()
            .unwrap_or_else(|| self.load_moment.update(load_moment, dt));
        (displayed_speed, displayed_engine, displayed_moment)
    }
}

/// The dashboard Logical Process.
pub struct DashboardLp {
    fom: CraneFom,
    operator: Box<dyn Operator>,
    observation: Observation,
    panel: InstrumentPanel,
    input_object: Option<ObjectId>,
    telemetry: SharedTelemetry,
    last_input: OperatorInputMsg,
}

impl DashboardLp {
    /// Creates the dashboard module with an operator policy at the controls.
    ///
    /// `_registry` is unused (an attribute's id is its position); the parameter
    /// stays until `benchmark/`, which calls this constructor, is re-bound.
    pub fn new(
        _registry: ClassRegistry,
        fom: CraneFom,
        operator: Box<dyn Operator>,
        telemetry: SharedTelemetry,
    ) -> DashboardLp {
        DashboardLp {
            fom,
            operator,
            observation: Observation::default(),
            panel: InstrumentPanel::default(),
            input_object: None,
            telemetry,
            last_input: OperatorInputMsg::default(),
        }
    }

    /// The most recent control inputs sent to the cluster.
    pub fn last_input(&self) -> OperatorInputMsg {
        self.last_input
    }
}

impl LogicalProcess for DashboardLp {
    fn name(&self) -> &str {
        "dashboard"
    }

    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        cb.publish_object_class(self.fom.operator_input)?;
        cb.subscribe_object_class(self.fom.crane_state)?;
        cb.subscribe_object_class(self.fom.hook_state)?;
        cb.subscribe_object_class(self.fom.scenario_state)?;
        cb.subscribe_interaction_class(self.fom.fault)?;
        self.input_object = Some(cb.register_object(self.fom.operator_input)?);
        Ok(())
    }

    fn step(&mut self, cb: &mut dyn CbApi, dt: f64) -> Result<(), CbError> {
        // Reflect the world state onto the operator's observation.
        self.observation.reflect(&self.fom, cb);
        // Instructor fault injections drive the meters directly (Figure 6).
        for interaction in cb.interactions() {
            if interaction.class == self.fom.fault {
                let fault = FaultMsg::from_values(&interaction.parameters);
                self.panel.inject_fault(&fault);
            }
        }

        // Read the "input devices" and publish the translated message.
        let input = self.operator.control(&self.observation, dt);
        self.last_input = input;
        cb.update_attributes(
            self.input_object.expect("init registered the input object"),
            input.to_values(),
        )?;

        // Drive the instrument needles and mirror them into telemetry (the
        // instructor's Dashboard window shows the same values).
        let (speed, engine, moment) = self.panel.update(
            self.observation.crane.speed.abs() * 3.6,
            self.observation.crane.engine_intensity,
            self.observation.crane.moment_utilization,
            dt,
        );
        self.telemetry.update(|t| {
            t.dashboard_window.speed_kmh = speed;
            t.dashboard_window.engine_load = engine;
            t.dashboard_window.load_moment = moment;
            t.dashboard_window.steering = input.steering;
            t.dashboard_window.reverse = input.reverse;
        });
        Ok(())
    }

    fn last_step_cost(&self) -> Micros {
        Micros::from_millis(2)
    }

    fn begin_session(&mut self, _cb: &mut dyn CbApi, _seed: u64) -> Result<(), CbError> {
        self.operator.reset();
        self.observation = Observation::default();
        self.panel = InstrumentPanel::default();
        self.last_input = OperatorInputMsg::default();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::RecklessOperator;
    use cod_cluster::{Cluster, ClusterConfig};

    #[test]
    fn panel_needles_are_rate_limited_and_faultable() {
        let mut panel = InstrumentPanel::default();
        let (first, _, _) = panel.update(0.0, 0.0, 0.0, 0.1);
        assert_eq!(first, 0.0);
        let (jump, _, _) = panel.update(100.0, 0.5, 0.5, 0.1);
        assert!(jump < 10.0, "needle jumped instantly to {jump}");
        panel.inject_fault(&FaultMsg { instrument: "speedometer".into(), value: 77.0 });
        let (faulted, _, _) = panel.update(0.0, 0.0, 0.0, 0.1);
        assert_eq!(faulted, 77.0);
        panel.inject_fault(&FaultMsg { instrument: "speedometer".into(), value: f64::NAN });
        let (cleared, _, _) = panel.update(0.0, 0.0, 0.0, 0.1);
        assert!(cleared < 10.0);
    }

    #[test]
    fn dashboard_publishes_operator_input() {
        let (registry, fom) = CraneFom::standard();
        let telemetry = SharedTelemetry::new();
        let mut cluster = Cluster::new(ClusterConfig::default(), registry.clone());
        let pc = cluster.add_computer("dashboard-pc");
        cluster
            .add_lp(
                pc,
                Box::new(DashboardLp::new(
                    registry,
                    fom,
                    Box::new(RecklessOperator::default()),
                    telemetry.clone(),
                )),
            )
            .unwrap();
        cluster.initialize().unwrap();
        cluster.run_frames(10).unwrap();
        let stats = cluster.computer(pc).kernel().stats().clone();
        assert_eq!(stats.updates_published, 10);
        let snap = telemetry.snapshot();
        assert!(snap.dashboard_window.engine_load >= 0.0);
    }
}
