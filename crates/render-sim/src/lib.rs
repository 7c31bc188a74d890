//! Visual display substrate.
//!
//! The original system drove three monitors with TNT2 M64 graphics cards and
//! measured 16 frames per second for the synchronized surround view of a
//! 3 235-polygon scene (paper §4). Physical late-1990s GPUs are not available
//! here, so this crate substitutes two things that together reproduce the
//! paper's visual pipeline:
//!
//! * a real **software rasterizer** ([`raster`], [`pipeline`]) that renders the
//!   training world into a z-buffered framebuffer (the examples write PPM
//!   screenshots with it), and
//! * a **period-accurate cost model** ([`cost`]) calibrated to a TNT2-class
//!   accelerator, which converts "triangles submitted + pixels filled" into a
//!   frame time so the frame-rate experiments (E1–E3) can be regenerated
//!   deterministically.
//!
//! A surround-view channel (three of them cover roughly 120° of horizontal
//! view, §3.7) is a [`Renderer`] whose [`Camera`] is turned by
//! [`channel_yaw_offset`]. The swap lock that keeps the channels in step, and
//! the frame period it imposes, belong to `cod_cluster::framesync`.

pub mod camera;
pub mod cost;
pub mod framebuffer;
pub mod frustum;
pub mod pipeline;
pub mod raster;

pub use camera::{channel_yaw_offset, Camera};
pub use cost::GpuCostModel;
pub use framebuffer::Framebuffer;
pub use frustum::Frustum;
pub use pipeline::{RenderStats, Renderer};
