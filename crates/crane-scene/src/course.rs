//! The training scenario and licensing-exam course.
//!
//! Figures 8 and 9 of the paper describe the evaluation scenario: the trainee
//! drives the mobile crane from the starting point to the testing ground, lifts
//! a cargo located in a circular zone, moves it along a trajectory obstructed
//! by bars to the far end and back, and is penalized for every bar collision.

use sim_math::Vec3;

/// One obstacle bar placed across the cargo trajectory (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bar {
    /// One end of the bar.
    pub from: Vec3,
    /// The other end of the bar.
    pub to: Vec3,
    /// Thickness of the bar (square cross-section).
    pub thickness: f64,
}

impl Bar {
    /// Midpoint of the bar.
    pub fn center(&self) -> Vec3 {
        (self.from + self.to) * 0.5
    }

    /// Distance from a point to the bar's axis segment.
    pub fn distance_to(&self, p: Vec3) -> f64 {
        let ab = self.to - self.from;
        let denom = ab.length_squared();
        if denom <= f64::EPSILON {
            return p.distance(self.from);
        }
        let t = ((p - self.from).dot(ab) / denom).clamp(0.0, 1.0);
        p.distance(self.from + ab * t)
    }
}

/// Phases of the licensing exam, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CoursePhase {
    /// Drive the crane from the start point to the testing ground.
    Driving,
    /// Position the boom and lift the cargo out of the pickup circle.
    Lifting,
    /// Carry the cargo along the barred trajectory to the far turn-around zone.
    Traverse,
    /// Bring the cargo back and set it down in the original circle.
    Return,
    /// The exam is finished.
    Complete,
}

impl CoursePhase {
    /// The phase that follows this one (Complete is terminal).
    pub fn next(self) -> CoursePhase {
        match self {
            CoursePhase::Driving => CoursePhase::Lifting,
            CoursePhase::Lifting => CoursePhase::Traverse,
            CoursePhase::Traverse => CoursePhase::Return,
            CoursePhase::Return | CoursePhase::Complete => CoursePhase::Complete,
        }
    }
}

/// The full course layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Course {
    /// Where the crane starts (parking area).
    pub start_position: Vec3,
    /// Initial heading of the crane in radians (yaw about +Y).
    pub start_heading: f64,
    /// Waypoints of the driving leg from the start to the testing ground.
    pub driving_waypoints: Vec<Vec3>,
    /// Centre of the circular cargo pickup zone (white circle of Figure 9).
    pub pickup_center: Vec3,
    /// Radius of the pickup/set-down circle.
    pub pickup_radius: f64,
    /// Centre of the far turn-around zone on the right side of the course.
    pub turnaround_center: Vec3,
    /// Radius of the turn-around zone.
    pub turnaround_radius: f64,
    /// Waypoints of the cargo trajectory from pickup to turn-around.
    pub trajectory: Vec<Vec3>,
    /// Bars obstructing the trajectory.
    pub bars: Vec<Bar>,
    /// Height above ground the cargo must be carried at (metres).
    pub carry_height: f64,
}

impl Course {
    /// The standard licensing-exam course used by the training centre.
    ///
    /// Dimensions follow the mobile-crane licensing practice course: a roughly
    /// 40 m testing ground with the pickup circle on the left, the turn-around
    /// zone on the right and three bars across the cargo path.
    pub fn licensing_exam() -> Course {
        let pickup = Vec3::new(-15.0, 0.0, 60.0);
        let turnaround = Vec3::new(15.0, 0.0, 60.0);
        let trajectory = vec![
            pickup,
            Vec3::new(-10.0, 0.0, 58.0),
            Vec3::new(-5.0, 0.0, 57.0),
            Vec3::new(0.0, 0.0, 57.0),
            Vec3::new(5.0, 0.0, 57.0),
            Vec3::new(10.0, 0.0, 58.0),
            turnaround,
        ];
        let bar_y = 2.0;
        let bars = vec![
            Bar {
                from: Vec3::new(-7.5, bar_y, 52.0),
                to: Vec3::new(-7.5, bar_y, 62.0),
                thickness: 0.25,
            },
            Bar {
                from: Vec3::new(0.0, bar_y, 52.0),
                to: Vec3::new(0.0, bar_y, 62.0),
                thickness: 0.25,
            },
            Bar {
                from: Vec3::new(7.5, bar_y, 52.0),
                to: Vec3::new(7.5, bar_y, 62.0),
                thickness: 0.25,
            },
        ];
        Course {
            start_position: Vec3::new(0.0, 0.0, -40.0),
            start_heading: 0.0,
            driving_waypoints: vec![
                Vec3::new(0.0, 0.0, -40.0),
                Vec3::new(0.0, 0.0, -20.0),
                Vec3::new(-5.0, 0.0, 0.0),
                Vec3::new(-5.0, 0.0, 20.0),
                Vec3::new(0.0, 0.0, 40.0),
                Vec3::new(0.0, 0.0, 50.0),
            ],
            pickup_center: pickup,
            pickup_radius: 2.5,
            turnaround_center: turnaround,
            turnaround_radius: 2.5,
            trajectory,
            bars,
            carry_height: 3.0,
        }
    }

    /// Whether a ground-plane position is inside the pickup circle.
    pub fn in_pickup_zone(&self, p: Vec3) -> bool {
        p.horizontal().distance(self.pickup_center.horizontal()) <= self.pickup_radius
    }

    /// Whether a ground-plane position is inside the turn-around circle.
    pub fn in_turnaround_zone(&self, p: Vec3) -> bool {
        p.horizontal().distance(self.turnaround_center.horizontal()) <= self.turnaround_radius
    }

    /// Distance from `p` to the nearest point of the cargo trajectory polyline.
    pub fn distance_to_trajectory(&self, p: Vec3) -> f64 {
        self.trajectory
            .windows(2)
            .map(|seg| {
                let bar = Bar { from: seg[0], to: seg[1], thickness: 0.0 };
                bar.distance_to(p.horizontal())
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The index and distance of the closest bar to `p`, if any bars exist.
    pub fn closest_bar(&self, p: Vec3) -> Option<(usize, f64)> {
        self.bars
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.distance_to(p)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are finite"))
    }

    /// Total length of the driving leg.
    pub fn driving_distance(&self) -> f64 {
        self.driving_waypoints.windows(2).map(|w| w[0].distance(w[1])).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exam_course_is_well_formed() {
        let c = Course::licensing_exam();
        assert!(c.bars.len() >= 3, "Figure 9 shows several bars");
        assert!(c.trajectory.len() >= 2);
        assert_eq!(c.trajectory.first().copied(), Some(c.pickup_center));
        assert_eq!(c.trajectory.last().copied(), Some(c.turnaround_center));
        assert!(c.driving_distance() > 50.0);
        assert!(c.pickup_radius > 0.0 && c.carry_height > 0.0);
    }

    #[test]
    fn zone_membership() {
        let c = Course::licensing_exam();
        assert!(c.in_pickup_zone(c.pickup_center));
        assert!(c.in_pickup_zone(c.pickup_center + Vec3::new(1.0, 5.0, 0.0)));
        assert!(!c.in_pickup_zone(c.turnaround_center));
        assert!(c.in_turnaround_zone(c.turnaround_center));
    }

    #[test]
    fn bar_distance() {
        let bar =
            Bar { from: Vec3::new(-1.0, 2.0, 0.0), to: Vec3::new(1.0, 2.0, 0.0), thickness: 0.2 };
        assert!((bar.distance_to(Vec3::new(0.0, 2.0, 0.0))).abs() < 1e-12);
        assert!((bar.distance_to(Vec3::new(0.0, 4.0, 0.0)) - 2.0).abs() < 1e-12);
        assert!((bar.distance_to(Vec3::new(3.0, 2.0, 0.0)) - 2.0).abs() < 1e-12);
        assert!((bar.center() - Vec3::new(0.0, 2.0, 0.0)).length() < 1e-12);
    }

    #[test]
    fn trajectory_distance_is_zero_on_path() {
        let c = Course::licensing_exam();
        for p in &c.trajectory {
            assert!(c.distance_to_trajectory(*p) < 1e-9);
        }
        assert!(c.distance_to_trajectory(Vec3::new(0.0, 0.0, 0.0)) > 10.0);
    }

    #[test]
    fn closest_bar_identifies_nearest() {
        let c = Course::licensing_exam();
        let (index, dist) = c.closest_bar(c.bars[1].center()).unwrap();
        assert_eq!(index, 1);
        assert!(dist < 1e-9);
    }

    #[test]
    fn phases_advance_to_completion() {
        let mut phase = CoursePhase::Driving;
        let mut seen = vec![phase];
        for _ in 0..6 {
            phase = phase.next();
            seen.push(phase);
        }
        assert_eq!(seen[0], CoursePhase::Driving);
        assert!(seen.contains(&CoursePhase::Traverse));
        assert_eq!(*seen.last().unwrap(), CoursePhase::Complete);
        assert_eq!(CoursePhase::Complete.next(), CoursePhase::Complete);
    }
}
