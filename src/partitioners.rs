//! Registry of every [`Partitioner`] in the workspace: the one place a
//! method is named and configured.
//!
//! The CLI's `partition`, `stream` and `serve` subcommands, the bench
//! harness and the cross-implementation contract tests all resolve
//! methods here, so each name means one run on every surface, and a new
//! partitioner becomes available everywhere by adding one arm to
//! [`by_name_tuned`].
//!
//! The `ml*` names wrap their flat counterparts in the generic multilevel
//! V-cycle ([`gapart_graph::multilevel::MultilevelPartitioner`]): coarsen
//! with heavy-edge matching, run the inner algorithm on the coarsest
//! graph, project back level by level with shared k-way refinement. The
//! GA-based inners use the coarse-level sizings
//! ([`GaConfig::coarse_defaults`] / [`DpgaConfig::coarse`]) because the
//! coarsest graph has only ~64–128 nodes.

use crate::core::{DpgaConfig, DpgaPartitioner, GaConfig, GaPartitioner, HillClimbMode};
use crate::graph::multilevel::MultilevelPartitioner;
use crate::graph::partitioner::Partitioner;
use crate::ibp::IbpPartitioner;
use crate::rsb::RsbPartitioner;

/// Names accepted by [`by_name`], in documentation order: the flat
/// algorithms first, then their multilevel wrappers.
pub const NAMES: [&str; 8] = [
    "dpga", "ga", "rsb", "ibp", "mldpga", "mlga", "mlrsb", "mlibp",
];

/// Resolves a registry name to a boxed [`Partitioner`] in its registered
/// configuration. Returns `None` for unknown names.
pub fn by_name(name: &str) -> Option<Box<dyn Partitioner>> {
    by_name_tuned(name, |_| {})
}

/// [`by_name`], with `tune` applied to the GA configuration of the four
/// GA methods (for `dpga` and `mldpga`, to the per-island template
/// [`DpgaConfig::base`]). The `partition` subcommand passes its
/// `--fitness`, `--gens` and `--pop` through it; `rsb`, `ibp`, `mlrsb` and
/// `mlibp` have no GA configuration and ignore it.
///
/// Flat `ga` and `dpga` run the paper's §4 setup (population 320, DKNUX,
/// DPGA's 16 islands on a 4-d hypercube) for 150 generations, with
/// offspring hill climbing and boundary mutation 0.05.
pub fn by_name_tuned(name: &str, tune: impl Fn(&mut GaConfig)) -> Option<Box<dyn Partitioner>> {
    let ga = |mut config: GaConfig| {
        tune(&mut config);
        Box::new(GaPartitioner::new(config))
    };
    let dpga = |mut config: DpgaConfig| {
        tune(&mut config.base);
        Box::new(DpgaPartitioner::new(config))
    };
    let ml = |inner: Box<dyn Partitioner>| Box::new(MultilevelPartitioner::new(inner));
    let mut flat = GaConfig::paper_defaults(2)
        .with_generations(150)
        .with_hill_climb(HillClimbMode::Offspring { passes: 1 });
    flat.boundary_mutation_rate = 0.05;
    Some(match name {
        "dpga" => dpga(DpgaConfig::paper(2).with_base(flat)),
        "ga" => ga(flat),
        "rsb" => Box::new(RsbPartitioner),
        "ibp" => Box::new(IbpPartitioner),
        "mldpga" => ml(dpga(DpgaConfig::coarse(2))),
        "mlga" => ml(ga(GaConfig::coarse_defaults(2))),
        "mlrsb" => ml(Box::new(RsbPartitioner)),
        "mlibp" => ml(Box::new(IbpPartitioner)),
        _ => return None,
    })
}

/// The former name of [`by_name`]; it goes once `perfbench` calls
/// `by_name`.
pub use self::by_name as by_name_with;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_closed() {
        for name in NAMES {
            assert!(by_name(name).is_some(), "{name} is not registered");
        }
        assert!(by_name("metis").is_none());
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
