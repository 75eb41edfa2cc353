//! The shared fixture of the CI guard bins: one simulator output,
//! generated once per process.

use mtls_netsim::{generate, SimConfig, SimOutput};
use std::sync::OnceLock;

/// The fixture scale (≈ 13 k connections, ≈ 5 k certificates).
pub const BENCH_SCALE: f64 = 0.05;

/// The simulator output, generated once.
pub fn sim_output() -> &'static SimOutput {
    static CELL: OnceLock<SimOutput> = OnceLock::new();
    CELL.get_or_init(|| {
        generate(&SimConfig {
            seed: 0xBEEF,
            scale: BENCH_SCALE,
            ..Default::default()
        })
    })
}
