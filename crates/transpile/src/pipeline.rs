//! Named pipelines: [`PassSpec`], [`PipelineSpec`] and [`PipelineId`].
//!
//! A pipeline is *data*: an ordered list of [`PassSpec`]s under a stable
//! name. The name is what downstream layers hash — the content-addressed
//! run store folds it into cache keys, the CLI accepts it via
//! `--pipeline`, and `transpile passes` lists every built-in pipeline —
//! so two runs differing only in pipeline never collide in the store.

use crate::pass::Pass;
use crate::passes::{
    DecomposePass, OptimizeLogicalPass, OptimizePhysicalPass, PlacePass, RoutePass, SchedulePass,
    VerifyFinalPass, VerifyLogicalPass, VerifyNativePass, VerifyRoutedPass,
};
use crate::placement::PlacementStrategy;

/// One pass slot in a pipeline, as pure data.
///
/// The place pass reads its strategy from the
/// [`Transpiler`](crate::Transpiler) at instantiation time, so the same
/// `PassSpec` list serves every placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassSpec {
    /// Logical fuse + cancel (one round, matching the legacy sequence).
    OptimizeLogical,
    /// Structural checks on the logical circuit (stage `logical-optimize`).
    VerifyLogical,
    /// Initial program-to-physical placement.
    Place,
    /// SWAP-insertion routing.
    Route,
    /// Coupling-map conformance + Closed-Division routing audit (stage
    /// `route`).
    VerifyRouted,
    /// Native-gate lowering.
    Decompose,
    /// Full checks on the freshly decomposed circuit (stage `decompose`).
    VerifyNative,
    /// Physical fuse + cancel (one round), then re-lowering.
    OptimizePhysical,
    /// Full checks on the final circuit (stage `optimize`).
    VerifyFinal,
    /// ASAP scheduling: records depth and two-qubit gate count.
    Schedule,
}

impl PassSpec {
    /// Every pass, in canonical pipeline order.
    pub const ALL: [PassSpec; 10] = [
        PassSpec::OptimizeLogical,
        PassSpec::VerifyLogical,
        PassSpec::Place,
        PassSpec::Route,
        PassSpec::VerifyRouted,
        PassSpec::Decompose,
        PassSpec::VerifyNative,
        PassSpec::OptimizePhysical,
        PassSpec::VerifyFinal,
        PassSpec::Schedule,
    ];

    /// Stable kebab-case identifier (what `transpile passes` prints).
    pub fn id(self) -> &'static str {
        match self {
            PassSpec::OptimizeLogical => "optimize-logical",
            PassSpec::VerifyLogical => "verify-logical",
            PassSpec::Place => "place",
            PassSpec::Route => "route",
            PassSpec::VerifyRouted => "verify-routed",
            PassSpec::Decompose => "decompose",
            PassSpec::VerifyNative => "verify-native",
            PassSpec::OptimizePhysical => "optimize-physical",
            PassSpec::VerifyFinal => "verify-final",
            PassSpec::Schedule => "schedule",
        }
    }

    /// One-line description for `transpile passes`.
    pub fn describe(self) -> &'static str {
        match self {
            PassSpec::OptimizeLogical => "logical single-qubit fusion + adjacent-gate cancellation",
            PassSpec::VerifyLogical => "structural checks on the logical circuit",
            PassSpec::Place => "initial program-to-physical placement",
            PassSpec::Route => "SWAP-insertion routing onto the coupling map",
            PassSpec::VerifyRouted => "coupling-map checks + Closed-Division routing audit",
            PassSpec::Decompose => "lowering to the device's native gate set",
            PassSpec::VerifyNative => "full checks on the freshly decomposed circuit",
            PassSpec::OptimizePhysical => "physical fusion + cancellation, re-lowered to native",
            PassSpec::VerifyFinal => "full checks on the final circuit",
            PassSpec::Schedule => "ASAP scheduling: depth and two-qubit gate count",
        }
    }

    /// Instantiates the pass, binding the place pass's strategy.
    pub fn instantiate(self, placement: PlacementStrategy) -> Box<dyn Pass> {
        match self {
            PassSpec::OptimizeLogical => Box::new(OptimizeLogicalPass),
            PassSpec::VerifyLogical => Box::new(VerifyLogicalPass),
            PassSpec::Place => Box::new(PlacePass {
                strategy: placement,
            }),
            PassSpec::Route => Box::new(RoutePass),
            PassSpec::VerifyRouted => Box::new(VerifyRoutedPass),
            PassSpec::Decompose => Box::new(DecomposePass),
            PassSpec::VerifyNative => Box::new(VerifyNativePass),
            PassSpec::OptimizePhysical => Box::new(OptimizePhysicalPass),
            PassSpec::VerifyFinal => Box::new(VerifyFinalPass),
            PassSpec::Schedule => Box::new(SchedulePass),
        }
    }
}

/// A named, ordered list of passes; cache keys reference it by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSpec {
    name: String,
    passes: Vec<PassSpec>,
}

impl PipelineSpec {
    /// A pipeline named `name` running `passes` in order.
    pub(crate) fn new(name: impl Into<String>, passes: Vec<PassSpec>) -> PipelineSpec {
        PipelineSpec {
            name: name.into(),
            passes,
        }
    }

    /// The cache-key name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The passes, in execution order.
    pub(crate) fn passes(&self) -> &[PassSpec] {
        &self.passes
    }

    /// The pass ids, in execution order.
    pub(crate) fn pass_ids(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.id()).collect()
    }

    /// Whether the route pass must snapshot its input for a downstream
    /// audit pass.
    pub(crate) fn needs_route_snapshot(&self) -> bool {
        self.passes.contains(&PassSpec::VerifyRouted)
    }

    /// The one-line `name: pass pass ...` form `transpile passes` prints.
    pub fn render(&self) -> String {
        format!("{}: {}", self.name, self.pass_ids().join(" "))
    }
}

/// The built-in pipelines: optimization on or off, crossed with no
/// verification, final-output verification or verification after every
/// stage. `closed-default` reproduces the pre-pass-manager pipeline
/// bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PipelineId {
    /// Optimizations on, final-output verification — the default.
    #[default]
    ClosedDefault,
    /// Optimizations on, verification interleaved after every stage.
    ClosedStages,
    /// Optimizations on, no verification.
    ClosedUnverified,
    /// No optimization passes, final-output verification.
    NoOptimize,
    /// No optimization passes, per-stage verification.
    NoOptimizeStages,
    /// No optimization passes, no verification.
    NoOptimizeUnverified,
}

impl PipelineId {
    /// Every built-in pipeline.
    pub const ALL: [PipelineId; 6] = [
        PipelineId::ClosedDefault,
        PipelineId::ClosedStages,
        PipelineId::ClosedUnverified,
        PipelineId::NoOptimize,
        PipelineId::NoOptimizeStages,
        PipelineId::NoOptimizeUnverified,
    ];

    /// The stable name — what `--pipeline` accepts and the run store
    /// hashes.
    pub fn as_str(self) -> &'static str {
        match self {
            PipelineId::ClosedDefault => "closed-default",
            PipelineId::ClosedStages => "closed-stages",
            PipelineId::ClosedUnverified => "closed-unverified",
            PipelineId::NoOptimize => "no-optimize",
            PipelineId::NoOptimizeStages => "no-optimize-stages",
            PipelineId::NoOptimizeUnverified => "no-optimize-unverified",
        }
    }

    /// Parses a pipeline name.
    pub fn parse(s: &str) -> Option<PipelineId> {
        PipelineId::ALL.into_iter().find(|p| p.as_str() == s)
    }

    /// The pass list this id names. `*-stages` variants are the base
    /// pipeline with verify passes spliced in — per-stage verification is
    /// ordinary pipeline composition, not a special case.
    pub fn spec(self) -> PipelineSpec {
        use PassSpec::*;
        let passes = match self {
            PipelineId::ClosedDefault => vec![
                OptimizeLogical,
                Place,
                Route,
                Decompose,
                OptimizePhysical,
                VerifyFinal,
                Schedule,
            ],
            PipelineId::ClosedStages => vec![
                OptimizeLogical,
                VerifyLogical,
                Place,
                Route,
                VerifyRouted,
                Decompose,
                VerifyNative,
                OptimizePhysical,
                VerifyFinal,
                Schedule,
            ],
            PipelineId::ClosedUnverified => vec![
                OptimizeLogical,
                Place,
                Route,
                Decompose,
                OptimizePhysical,
                Schedule,
            ],
            PipelineId::NoOptimize => vec![Place, Route, Decompose, VerifyFinal, Schedule],
            PipelineId::NoOptimizeStages => vec![
                VerifyLogical,
                Place,
                Route,
                VerifyRouted,
                Decompose,
                VerifyNative,
                VerifyFinal,
                Schedule,
            ],
            PipelineId::NoOptimizeUnverified => vec![Place, Route, Decompose, Schedule],
        };
        PipelineSpec::new(self.as_str(), passes)
    }
}

impl std::fmt::Display for PipelineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_ids_round_trip() {
        for id in PipelineId::ALL {
            assert_eq!(PipelineId::parse(id.as_str()), Some(id));
            assert_eq!(id.to_string(), id.as_str());
        }
        assert_eq!(PipelineId::parse("open-default"), None);
    }

    #[test]
    fn stages_is_default_with_verify_passes_spliced_in() {
        // The acceptance criterion: per-stage verification is pipeline
        // composition. Removing the verify passes from closed-stages must
        // yield exactly closed-default minus its final verify.
        let stages: Vec<PassSpec> = PipelineId::ClosedStages
            .spec()
            .passes()
            .iter()
            .copied()
            .filter(|p| {
                !matches!(
                    p,
                    PassSpec::VerifyLogical | PassSpec::VerifyRouted | PassSpec::VerifyNative
                )
            })
            .collect();
        assert_eq!(stages, PipelineId::ClosedDefault.spec().passes());
    }

    #[test]
    fn snapshot_is_requested_exactly_when_audited() {
        for id in PipelineId::ALL {
            let spec = id.spec();
            assert_eq!(
                spec.needs_route_snapshot(),
                matches!(id, PipelineId::ClosedStages | PipelineId::NoOptimizeStages),
                "{id}"
            );
        }
    }

    #[test]
    fn every_pass_instantiates_with_matching_name() {
        for pass in PassSpec::ALL {
            let boxed = pass.instantiate(PlacementStrategy::Greedy);
            assert_eq!(boxed.name(), pass.id());
            assert!(boxed.span_name().starts_with("transpile."));
        }
    }
}
