//! The eight workloads, by name.

pub mod ingest;
pub mod reanalyze;
pub mod serve;
pub mod sims;

use crate::harness::Workload;

/// A fresh instance of the workload called `name`.
pub fn make(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "reanalyze-cold" => Box::<reanalyze::Cold>::default(),
        "reanalyze-hot" => Box::<reanalyze::Hot>::default(),
        "serve-closed" => Box::<serve::Closed>::default(),
        "serve-open" => Box::<serve::Open>::default(),
        "ingest" => Box::<ingest::Ingest>::default(),
        "sim-meso" => Box::<sims::Meso>::default(),
        "sim-micro" => Box::<sims::Micro>::default(),
        "sim-macro" => Box::<sims::Macro>::default(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_catalogued_workload_can_be_made() {
        for w in &crate::catalog::WORKLOADS {
            assert!(super::make(w.name).is_some(), "{}", w.name);
        }
        assert!(super::make("nope").is_none());
    }
}
