//! The audio module (paper §3.7) as a Logical Process.
//!
//! Produces the static background noise of the construction site plus the
//! dynamic effects — engine load, hoist/slew motor whine, collision clangs,
//! alarm beeps — by driving the `audio-sim` mixer from the reflected state and
//! the interactions the other modules send.

use audio_sim::{Mixer, SoundEvent};
use cod_cb::{CbApi, CbError, ClassRegistry};
use cod_cluster::LogicalProcess;
use cod_net::Micros;

use crate::fom::{AlarmMsg, CollisionMsg, CraneFom};
use crate::operator::Observation;
use crate::telemetry::SharedTelemetry;

/// The audio Logical Process.
pub struct AudioLp {
    fom: CraneFom,
    telemetry: SharedTelemetry,
    mixer: Mixer,
    observation: Observation,
    collisions_heard: u64,
    /// The last rendered block, kept for its capacity.
    block: Vec<f32>,
}

impl AudioLp {
    /// Creates the audio module.
    ///
    /// `_registry` is unused (an attribute's id is its position); the parameter
    /// stays until `benchmark/`, which calls this constructor, is re-bound.
    pub fn new(_registry: ClassRegistry, fom: CraneFom, telemetry: SharedTelemetry) -> AudioLp {
        // Every session starts with the site's background noise only.
        let mut mixer = Mixer::new(11_025);
        mixer.add_background_noise();
        AudioLp {
            fom,
            telemetry,
            mixer,
            observation: Observation::default(),
            collisions_heard: 0,
            block: Vec::new(),
        }
    }

    /// Number of collision sounds triggered so far.
    pub fn collisions_heard(&self) -> u64 {
        self.collisions_heard
    }
}

impl LogicalProcess for AudioLp {
    fn name(&self) -> &str {
        "audio"
    }

    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        cb.subscribe_object_class(self.fom.crane_state)?;
        cb.subscribe_object_class(self.fom.operator_input)?;
        cb.subscribe_interaction_class(self.fom.collision)?;
        cb.subscribe_interaction_class(self.fom.alarm)?;
        Ok(())
    }

    fn step(&mut self, cb: &mut dyn CbApi, dt: f64) -> Result<(), CbError> {
        self.observation.reflect(&self.fom, cb);
        for interaction in cb.interactions() {
            if interaction.class == self.fom.collision {
                let collision = CollisionMsg::from_values(&interaction.parameters);
                self.collisions_heard += 1;
                self.mixer.handle_event(SoundEvent::Collision {
                    location: collision.location,
                    impulse: collision.impulse,
                });
            } else if interaction.class == self.fom.alarm {
                let alarm = AlarmMsg::from_values(&interaction.parameters);
                self.mixer.handle_event(SoundEvent::Alarm { active: alarm.active });
            }
        }

        // Continuous sources follow the reflected state.
        let Observation { crane, input, .. } = &self.observation;
        self.mixer.set_listener(crane.chassis_position);
        self.mixer.handle_event(SoundEvent::EngineLoad { intensity: crane.engine_intensity });
        let motor_active = input.slew.abs() > 0.05
            || input.luff.abs() > 0.05
            || input.telescope.abs() > 0.05
            || input.hoist.abs() > 0.05;
        self.mixer.handle_event(SoundEvent::MotorWorking { active: motor_active });

        // A block is capped at 0.25 s to bound its cost (a Coarse frame is
        // 0.5 s), but every source ages by the whole frame, so a one-shot
        // plays for its duration of session time on every tier.
        let rms = self.mixer.render_into(dt.min(0.25), dt, &mut self.block);
        self.telemetry.update(|t| t.audio_rms = rms);
        Ok(())
    }

    fn last_step_cost(&self) -> Micros {
        Micros::from_millis(3)
    }

    fn begin_session(&mut self, _cb: &mut dyn CbApi, _seed: u64) -> Result<(), CbError> {
        self.mixer.reset_to_background();
        self.observation = Observation::default();
        self.collisions_heard = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FidelityTier;
    use cod_cluster::cluster::frame_period_for_fps;
    use cod_cluster::{Cluster, ClusterConfig};

    #[test]
    fn audio_module_produces_background_sound_in_a_cluster() {
        let (registry, fom) = CraneFom::standard();
        let telemetry = SharedTelemetry::new();
        let mut cluster = Cluster::new(ClusterConfig::default(), registry.clone());
        let pc = cluster.add_computer("audio-pc");
        cluster.add_lp(pc, Box::new(AudioLp::new(registry, fom, telemetry.clone()))).unwrap();
        cluster.initialize().unwrap();
        cluster.run_frames(5).unwrap();
        assert!(telemetry.snapshot().audio_rms > 0.001, "background noise should be audible");
    }

    /// Sends one collision interaction in cluster frame `at_frame`.
    struct Striker {
        fom: CraneFom,
        at_frame: Option<u64>,
        frame: u64,
    }

    impl LogicalProcess for Striker {
        fn name(&self) -> &str {
            "striker"
        }

        fn init(&mut self, _cb: &mut dyn CbApi) -> Result<(), CbError> {
            Ok(())
        }

        fn step(&mut self, cb: &mut dyn CbApi, _dt: f64) -> Result<(), CbError> {
            if self.at_frame == Some(self.frame) {
                let clang = CollisionMsg {
                    location: sim_math::Vec3::ZERO,
                    impulse: 4.0,
                    obstacle: "bar".into(),
                    scored: false,
                };
                cb.send_interaction(self.fom.collision, clang.to_values())?;
            }
            self.frame += 1;
            Ok(())
        }
    }

    /// The audio level of each of `frames` cluster frames at the Coarse
    /// tier's frame period, with a collision sent in frame `strike_at`.
    fn coarse_audio_levels(strike_at: Option<u64>, frames: usize) -> Vec<f64> {
        let (registry, fom) = CraneFom::standard();
        let telemetry = SharedTelemetry::new();
        let config = ClusterConfig {
            frame_period: frame_period_for_fps(16.0 / FidelityTier::Coarse.decimation() as f64),
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(config, registry.clone());
        let pc = cluster.add_computer("audio-pc");
        cluster.add_lp(pc, Box::new(Striker { fom, at_frame: strike_at, frame: 0 })).unwrap();
        cluster.add_lp(pc, Box::new(AudioLp::new(registry, fom, telemetry.clone()))).unwrap();
        cluster.initialize().unwrap();
        (0..frames)
            .map(|_| {
                cluster.run_frames(1).unwrap();
                telemetry.snapshot().audio_rms
            })
            .collect()
    }

    #[test]
    fn a_strike_is_heard_for_its_duration_on_a_coarse_rack() {
        // A collision clang lasts 1.2 s and a Coarse cluster frame is 0.5 s:
        // the clang plays in exactly three frames, not the five it took while
        // sources aged only by the 0.25 s the LP renders per frame.
        let quiet = coarse_audio_levels(None, 12);
        let struck = coarse_audio_levels(Some(2), 12);
        let heard: Vec<usize> = (0..quiet.len()).filter(|&f| struck[f] != quiet[f]).collect();
        assert_eq!(heard.len(), 3, "clang heard in frames {heard:?}");
        assert!(heard.windows(2).all(|w| w[1] == w[0] + 1), "frames {heard:?}");
    }

    #[test]
    fn fresh_module_has_heard_no_collisions() {
        let (registry, fom) = CraneFom::standard();
        let lp = AudioLp::new(registry, fom, SharedTelemetry::new());
        assert_eq!(lp.collisions_heard(), 0);
    }
}
