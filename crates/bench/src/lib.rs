//! # rvaas-bench
//!
//! The experiment harness regenerating every table and figure documented in
//! `EXPERIMENTS.md`. Each experiment is a pure function returning printable
//! rows; the `experiments` binary runs one (or all) of them and prints the
//! table, and the Criterion benches under `benches/` cover the
//! latency-oriented figures (protocol walk-through, HSA scaling, monitor
//! churn).
//!
//! The RVaaS paper (DSN 2016) contains no quantitative evaluation of its own
//! — the experiment set here operationalises its qualitative claims; see
//! `DESIGN.md` §4 for the mapping from experiment id to paper anchor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod incremental_churn;
pub mod query_scale;
pub mod service_throughput;

pub use experiments::{run_experiment, EXPERIMENT_IDS};
pub use incremental_churn::{
    exp_s2_incremental_churn, measure_incremental_churn, smoke_mode, IncrementalChurnExperiment,
};
pub use query_scale::{exp_s3_query_scale, measure_query_scale, soak_mode, QueryScaleExperiment};
pub use service_throughput::{exp_s1_service_throughput, measure, ServiceThroughputReport};

/// Whether the boolean environment flag `name` is on. Unset, empty or `"0"`
/// mean off, as for `RVAAS_FUZZ_SMOKE`.
pub(crate) fn env_flag(name: &str) -> bool {
    flag_on(std::env::var(name).ok().as_deref())
}

fn flag_on(value: Option<&str>) -> bool {
    value.is_some_and(|v| !v.is_empty() && v != "0")
}

#[cfg(test)]
mod tests {
    use super::flag_on;

    #[test]
    fn env_flags_are_off_when_unset_empty_or_zero() {
        assert!(!flag_on(None));
        assert!(!flag_on(Some("")));
        assert!(!flag_on(Some("0")));
        assert!(flag_on(Some("1")));
        assert!(flag_on(Some("yes")));
    }
}
