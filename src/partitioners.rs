//! Registry of every [`Partitioner`] in the workspace.
//!
//! The CLI's `--method` flag, the bench harness, and the
//! cross-implementation contract tests all resolve algorithms here, so a
//! new partitioner becomes available everywhere by adding one arm to
//! [`by_name`].
//!
//! The `ml*` names wrap their flat counterparts in the generic multilevel
//! V-cycle ([`gapart_graph::multilevel::MultilevelPartitioner`]): coarsen
//! with heavy-edge matching, run the inner algorithm on the coarsest
//! graph, project back level by level with shared k-way refinement. The
//! GA-based inners use the coarse-level sizings
//! ([`GaConfig::coarse_defaults`] / [`DpgaConfig::coarse`]) because the
//! coarsest graph has only ~64–128 nodes.

use crate::core::{DpgaConfig, DpgaPartitioner, GaConfig, GaPartitioner};
use crate::graph::multilevel::MultilevelPartitioner;
use crate::graph::partitioner::Partitioner;
use crate::ibp::IbpPartitioner;
use crate::rsb::RsbPartitioner;

/// Names accepted by [`by_name`], in documentation order: the flat
/// algorithms first, then their multilevel wrappers.
pub const NAMES: [&str; 8] = [
    "dpga", "ga", "rsb", "ibp", "mldpga", "mlga", "mlrsb", "mlibp",
];

/// Resolves a registry name to a boxed [`Partitioner`] with the paper's
/// default configuration. Returns `None` for unknown names.
///
/// GA and DPGA default to the §4 protocol (population 320, DKNUX,
/// `p_c = 0.7`, `p_m = 0.01`); their multilevel variants use the smaller
/// coarse-level sizing since the inner GA only ever sees the coarsest
/// graph. Callers needing other knobs construct [`GaPartitioner`] /
/// [`DpgaPartitioner`] (or [`multilevel`]) directly — the trait object
/// interface is identical.
pub fn by_name(name: &str) -> Option<Box<dyn Partitioner>> {
    match name {
        "dpga" => Some(Box::new(DpgaPartitioner::default())),
        "ga" => Some(Box::new(GaPartitioner::default())),
        "rsb" => Some(Box::new(RsbPartitioner)),
        "ibp" => Some(Box::new(IbpPartitioner)),
        "mldpga" => Some(multilevel(
            "mldpga",
            Box::new(DpgaPartitioner::new(DpgaConfig::coarse(2))),
        )),
        "mlga" => Some(multilevel(
            "mlga",
            Box::new(GaPartitioner::new(GaConfig::coarse_defaults(2))),
        )),
        "mlrsb" => Some(multilevel("mlrsb", Box::new(RsbPartitioner))),
        "mlibp" => Some(multilevel("mlibp", Box::new(IbpPartitioner))),
        _ => None,
    }
}

/// The former name of [`by_name`]; it goes once `perfbench` calls
/// `by_name`.
pub use self::by_name as by_name_with;

/// One instance of every registered partitioner, in [`NAMES`] order.
pub fn all() -> Vec<Box<dyn Partitioner>> {
    NAMES
        .iter()
        .map(|n| by_name(n).expect("every registry name resolves"))
        .collect()
}

/// GA partitioner tuned like the CLI's `partition` subcommand: smaller
/// budget knobs than the paper protocol, boundary mutation and offspring
/// hill climbing on.
pub fn tuned_ga(config: GaConfig) -> Box<dyn Partitioner> {
    Box::new(GaPartitioner::new(config))
}

/// DPGA partitioner from an explicit configuration.
pub fn tuned_dpga(config: DpgaConfig) -> Box<dyn Partitioner> {
    Box::new(DpgaPartitioner::new(config))
}

/// Wraps any partitioner in the generic multilevel V-cycle under the
/// given registry name (e.g. a custom-budget GA as the coarsest-level
/// algorithm).
pub fn multilevel(name: &'static str, inner: Box<dyn Partitioner>) -> Box<dyn Partitioner> {
    Box::new(MultilevelPartitioner::new(name, inner))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_closed() {
        for name in NAMES {
            let p = by_name(name).unwrap();
            assert_eq!(p.name(), name);
        }
        assert!(by_name("metis").is_none());
        assert_eq!(all().len(), NAMES.len());
    }

    #[test]
    fn every_flat_method_has_a_multilevel_twin() {
        for name in NAMES {
            if let Some(flat) = name.strip_prefix("ml") {
                assert!(
                    NAMES.contains(&flat),
                    "{name} wraps unregistered method {flat}"
                );
            } else {
                let ml = format!("ml{name}");
                assert!(by_name(&ml).is_some(), "{name} has no multilevel twin");
            }
        }
    }
}
