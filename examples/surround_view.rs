//! The three-channel surround view (experiment E1): renders real images of
//! the training world with the software rasterizer and prints the frame-rate
//! table the paper's §4 reports a single point of (16 fps at 3 235 polygons).
//!
//! ```text
//! cargo run --release --example surround_view
//! ```

use cod_cluster::{synchronized_period, SWAP_LOCK_BARRIER};
use crane_scene::world::TrainingWorld;
use render_sim::{channel_yaw_offset, Camera, GpuCostModel, Renderer};
use sim_math::Vec3;

fn main() {
    let world = TrainingWorld::build();
    println!("training world: {} polygons (paper: 3 235)", world.polygon_count());

    // Render one frame of each channel to a PPM screenshot under target/
    // (screenshots are build artifacts, not repository content).
    let out_dir = std::path::Path::new("target").join("surround");
    std::fs::create_dir_all(&out_dir).expect("output directory created");
    let gpu = GpuCostModel::tnt2_class();
    let camera = Camera::look_at(Vec3::new(0.0, 5.0, -55.0), Vec3::new(0.0, 2.0, 40.0));
    let mut channel_times = Vec::new();
    for channel in 0..3 {
        let mut renderer = Renderer::new(320, 240);
        let stats =
            renderer.render(&world.scene, &camera.with_yaw_offset(channel_yaw_offset(channel, 3)));
        let path = out_dir.join(format!("surround_channel_{channel}.ppm"));
        std::fs::write(&path, renderer.framebuffer().to_ppm()).expect("screenshot written");
        channel_times.push(stats.frame_time(&gpu));
        println!(
            "channel {channel}: {} triangles submitted, {} drawn, {} px -> {} ({})",
            stats.triangles_submitted,
            stats.triangles_drawn,
            stats.pixels_written,
            channel_times[channel],
            path.display(),
        );
    }
    let free = channel_times.iter().copied().max().expect("three channels");
    let sync = synchronized_period(&channel_times, SWAP_LOCK_BARRIER);
    println!(
        "synchronized: {:.1} fps   free-running: {:.1} fps   sync overhead: {:.1}%",
        GpuCostModel::fps(sync),
        GpuCostModel::fps(free),
        SWAP_LOCK_BARRIER.0 as f64 / sync.0 as f64 * 100.0
    );

    // E1/E2: frame rate vs polygon budget, TNT2-class vs next-generation hardware.
    // Every channel renders the same budget, so one channel's time is the slowest.
    let sync_fps = |channel: cod_net::Micros| {
        GpuCostModel::fps(synchronized_period(&[channel], SWAP_LOCK_BARRIER))
    };
    println!("\n  polygons | TNT2 sync fps | TNT2 free fps | next-gen sync fps");
    println!("  ---------+---------------+---------------+------------------");
    for polygons in [500usize, 1_000, 2_000, 3_235, 5_000, 8_000, 12_000, 20_000] {
        let old = gpu.frame_time_for_scene(polygons);
        let new = GpuCostModel::next_generation().frame_time_for_scene(polygons);
        println!(
            "  {polygons:>8} | {:>13.1} | {:>13.1} | {:>17.1}",
            sync_fps(old),
            GpuCostModel::fps(old),
            sync_fps(new)
        );
    }
}
