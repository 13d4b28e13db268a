//! # iqpaths-bench — experiment harnesses
//!
//! One binary per single-run figure or study of the paper's evaluation
//! (see `DESIGN.md` §4 for the index and `EXPERIMENTS.md` for recorded
//! results); the sweep-style studies run through `iqpaths-harness`.
//! Every harness prints the rows/series the paper reports and writes
//! CSVs under `target/experiments/`.
//!
//! Environment knobs (all harnesses):
//! * `IQP_DURATION` — measured seconds per run (default 150, the
//!   paper's timescale; use ~20 for quick smoke runs).
//! * `IQP_SEED` — cross-traffic / probe seed (default 42).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::io::Write;
use std::path::PathBuf;

/// Default experiment duration in seconds.
pub const DEFAULT_DURATION: f64 = 150.0;
/// Default seed.
pub const DEFAULT_SEED: u64 = 42;

/// Reads the run duration from `IQP_DURATION`.
pub fn duration() -> f64 {
    std::env::var("IQP_DURATION")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_DURATION)
}

/// Reads the seed from `IQP_SEED`.
pub fn seed() -> u64 {
    std::env::var("IQP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// The experiment output directory (`target/experiments`), created on
/// first use.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiment output dir");
    dir
}

/// Writes a CSV artifact and logs where it went.
pub fn write_artifact(name: &str, contents: &str) {
    let path = out_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create artifact");
    f.write_all(contents.as_bytes()).expect("write artifact");
    println!("  [artifact] {}", path.display());
}

/// Builds a standard Figure 8 experiment with env-provided knobs.
pub fn experiment() -> iqpaths_middleware::builder::Figure8Experiment {
    iqpaths_middleware::builder::Figure8Experiment::new(seed(), duration())
}

/// Formats bits/s as Mbps with two decimals.
pub fn mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1.0e6)
}

#[cfg(test)]
mod tests {
    #[test]
    fn env_defaults() {
        // Without env vars the defaults apply.
        std::env::remove_var("IQP_DURATION");
        std::env::remove_var("IQP_SEED");
        assert_eq!(super::duration(), super::DEFAULT_DURATION);
        assert_eq!(super::seed(), super::DEFAULT_SEED);
    }

    #[test]
    fn mbps_formatting() {
        assert_eq!(super::mbps(3_249_000.0), "3.25");
    }

    #[test]
    fn out_dir_is_created() {
        let d = super::out_dir();
        assert!(d.exists());
    }
}
