//! What is left of the interprocedural summaries: the compiler summarises
//! no callee, so every call kills custody and every pointer parameter or
//! call result is of unknown provenance.

use crate::points_to::PointsTo;
use tfm_ir::Module;

/// The per-function [`PointsTo`] of a whole module. Kept only while
/// `tfm-perf`'s `analysis.summaries_us` row times
/// [`ModuleSummaries::compute`]; nothing in the compiler reads it.
#[derive(Clone, Debug)]
pub struct ModuleSummaries {
    /// One classification per function, in function-id order.
    pub points_to: Vec<PointsTo>,
}

impl ModuleSummaries {
    /// Classifies every function of `module`. `roots` is ignored.
    pub fn compute(module: &Module, _roots: &[&str]) -> Self {
        let points_to = module
            .functions()
            .map(|(_, f)| PointsTo::compute(f))
            .collect();
        ModuleSummaries { points_to }
    }
}
