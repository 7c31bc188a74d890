//! Cluster scaling (experiment E8): what frame rate the crane simulator
//! sustains on one desktop PC versus on the eight-computer COD, read off the
//! per-computer costs the executive records over a 120-frame idle session,
//! and how the rack's computers pack onto intermediate cluster sizes.
//!
//! ```text
//! cargo run --release --example cluster_scaling
//! ```

fn main() {
    cod_bench::experiments::cluster_speedup::run();
}
