//! One desktop computer of the cluster.

use cod_cb::{CbError, CbKernel, ClassRegistry, LpContext, LpId};
use cod_net::{Micros, SimTransport};

use crate::lp::LogicalProcess;

/// A desktop PC of the COD: a Communication Backbone kernel plus the Logical
/// Processes resident on it.
///
/// "One or many LPs can run on a computer, depending upon the computational
/// load of each LP" (paper §2.1).
#[derive(Debug)]
pub struct Computer {
    name: String,
    kernel: CbKernel<SimTransport>,
    lps: Vec<(LpId, Box<dyn LogicalProcess>)>,
    /// Relative CPU speed: 1.0 is the reference desktop PC; larger is faster.
    cpu_speed: f64,
}

impl std::fmt::Debug for dyn LogicalProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LogicalProcess({})", self.name())
    }
}

impl Computer {
    /// Creates a computer around a transport already attached to the cluster LAN.
    pub fn new(name: &str, transport: SimTransport, fom: ClassRegistry) -> Computer {
        Computer {
            name: name.to_owned(),
            kernel: CbKernel::new(transport, fom),
            lps: Vec::new(),
            cpu_speed: 1.0,
        }
    }

    /// Sets the relative CPU speed (1.0 = reference desktop PC).
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive.
    pub fn set_cpu_speed(&mut self, speed: f64) {
        assert!(speed > 0.0, "cpu speed must be positive");
        self.cpu_speed = speed;
    }

    /// The computer's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relative CPU speed.
    pub fn cpu_speed(&self) -> f64 {
        self.cpu_speed
    }

    /// The resident CB kernel.
    pub fn kernel(&self) -> &CbKernel<SimTransport> {
        &self.kernel
    }

    /// Mutable access to the resident CB kernel.
    pub fn kernel_mut(&mut self) -> &mut CbKernel<SimTransport> {
        &mut self.kernel
    }

    /// Names of the LPs resident on this computer.
    pub fn lp_names(&self) -> Vec<&str> {
        self.lps.iter().map(|(_, lp)| lp.name()).collect()
    }

    /// Number of resident LPs.
    pub fn lp_count(&self) -> usize {
        self.lps.len()
    }

    /// Plugs a Logical Process into this computer: registers it with the CB
    /// and runs its `init` so it can declare publications and subscriptions.
    ///
    /// # Errors
    ///
    /// Returns an error if the LP's `init` fails.
    pub fn add_lp(&mut self, mut lp: Box<dyn LogicalProcess>) -> Result<LpId, CbError> {
        let id = self.kernel.register_lp(lp.name());
        {
            let mut ctx = LpContext::new(&mut self.kernel, id);
            lp.init(&mut ctx)?;
        }
        self.lps.push((id, lp));
        Ok(id)
    }

    /// Removes an LP from this computer (e.g. to unplug a display channel).
    ///
    /// # Errors
    ///
    /// Returns an error if the LP is not resident here.
    pub fn remove_lp(&mut self, id: LpId) -> Result<Box<dyn LogicalProcess>, CbError> {
        let index =
            self.lps.iter().position(|(lp_id, _)| *lp_id == id).ok_or(CbError::UnknownLp(id.0))?;
        self.kernel.deregister_lp(id)?;
        let (_, lp) = self.lps.remove(index);
        Ok(lp)
    }

    /// Resets this computer for a new session: the CB kernel's session state
    /// is rewound to `epoch` and every resident LP gets its
    /// [`LogicalProcess::begin_session`] call.
    ///
    /// # Errors
    ///
    /// Returns the first error raised by an LP's session reset.
    pub fn begin_session(&mut self, epoch: Micros, seed: u64) -> Result<(), CbError> {
        self.kernel.begin_session(epoch);
        for (id, lp) in self.lps.iter_mut() {
            let mut ctx = LpContext::new(&mut self.kernel, *id);
            lp.begin_session(&mut ctx, seed)?;
        }
        Ok(())
    }

    /// Runs one simulation frame on this computer: every resident LP steps
    /// once, then the CB kernel is pumped at time `now`.
    ///
    /// Returns the modeled CPU cost of the frame (sum of LP step costs divided
    /// by the CPU speed factor).
    ///
    /// # Errors
    ///
    /// Returns the first error raised by an LP step or the kernel tick.
    pub fn step_frame(&mut self, now: Micros, dt: f64) -> Result<Micros, CbError> {
        let mut cost_us = 0.0;
        for (id, lp) in self.lps.iter_mut() {
            let mut ctx = LpContext::new(&mut self.kernel, *id);
            lp.step(&mut ctx, dt)?;
            cost_us += lp.last_step_cost().0 as f64;
        }
        self.kernel.tick(now)?;
        Ok(Micros((cost_us / self.cpu_speed).round() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_cb::CbApi;
    use cod_net::{LanConfig, SimLan};

    struct Counter {
        steps: u32,
        cost: Micros,
    }

    impl LogicalProcess for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn init(&mut self, _cb: &mut dyn CbApi) -> Result<(), CbError> {
            Ok(())
        }
        fn step(&mut self, _cb: &mut dyn CbApi, _dt: f64) -> Result<(), CbError> {
            self.steps += 1;
            Ok(())
        }
        fn last_step_cost(&self) -> Micros {
            self.cost
        }
    }

    #[test]
    fn frame_cost_scales_with_cpu_speed() {
        let lan = SimLan::shared(LanConfig::ideal(1));
        let mut pc = Computer::new("pc", SimLan::attach(&lan, "pc"), ClassRegistry::new());
        pc.add_lp(Box::new(Counter { steps: 0, cost: Micros::from_millis(10) })).unwrap();
        pc.add_lp(Box::new(Counter { steps: 0, cost: Micros::from_millis(20) })).unwrap();
        let cost = pc.step_frame(Micros::ZERO, 1.0 / 60.0).unwrap();
        assert_eq!(cost, Micros::from_millis(30));

        pc.set_cpu_speed(2.0);
        let cost = pc.step_frame(Micros::from_millis(16), 1.0 / 60.0).unwrap();
        assert_eq!(cost, Micros::from_millis(15));
        assert_eq!(pc.lp_count(), 2);
        assert_eq!(pc.lp_names(), vec!["counter", "counter"]);
    }

    #[test]
    fn remove_lp_unplugs_module() {
        let lan = SimLan::shared(LanConfig::ideal(2));
        let mut pc = Computer::new("pc", SimLan::attach(&lan, "pc"), ClassRegistry::new());
        let id = pc.add_lp(Box::new(Counter { steps: 0, cost: Micros::ZERO })).unwrap();
        assert_eq!(pc.lp_count(), 1);
        pc.remove_lp(id).unwrap();
        assert_eq!(pc.lp_count(), 0);
        assert!(pc.remove_lp(id).is_err());
    }

    #[test]
    #[should_panic]
    fn cpu_speed_must_be_positive() {
        let lan = SimLan::shared(LanConfig::ideal(3));
        let mut pc = Computer::new("pc", SimLan::attach(&lan, "pc"), ClassRegistry::new());
        pc.set_cpu_speed(0.0);
    }
}
