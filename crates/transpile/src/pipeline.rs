//! Named pipelines: [`PassSpec`] and [`PipelineId`].
//!
//! A pipeline is *data*: a static, ordered list of [`PassSpec`]s under a
//! stable name. The name is what downstream layers hash — the
//! content-addressed run store folds it into cache keys, the CLI accepts
//! it via `--pipeline`, and `transpile passes` lists every built-in
//! pipeline — so two runs differing only in pipeline never collide in the
//! store.

/// One pass of a pipeline.
///
/// Each variant is the pass itself: `PassSpec` implements
/// [`Pass`](crate::Pass), and the place pass reads its strategy from the
/// [`PassContext`](crate::PassContext), so one static list of passes
/// serves every placement.
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

    /// Stable kebab-case identifier (what `transpile passes` prints, and
    /// the pass name blame reports).
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

    /// The passes this pipeline runs, in order. `*-stages` variants are
    /// the base pipeline with verify passes spliced in — per-stage
    /// verification is ordinary pipeline composition, not a special case.
    pub(crate) fn passes(self) -> &'static [PassSpec] {
        use PassSpec::*;
        match self {
            PipelineId::ClosedDefault => &[
                OptimizeLogical,
                Place,
                Route,
                Decompose,
                OptimizePhysical,
                VerifyFinal,
                Schedule,
            ],
            PipelineId::ClosedStages => &[
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
            PipelineId::ClosedUnverified => &[
                OptimizeLogical,
                Place,
                Route,
                Decompose,
                OptimizePhysical,
                Schedule,
            ],
            PipelineId::NoOptimize => &[Place, Route, Decompose, VerifyFinal, Schedule],
            PipelineId::NoOptimizeStages => &[
                VerifyLogical,
                Place,
                Route,
                VerifyRouted,
                Decompose,
                VerifyNative,
                VerifyFinal,
                Schedule,
            ],
            PipelineId::NoOptimizeUnverified => &[Place, Route, Decompose, Schedule],
        }
    }

    /// Whether the route pass must snapshot its input for a downstream
    /// audit pass.
    pub(crate) fn needs_route_snapshot(self) -> bool {
        self.passes().contains(&PassSpec::VerifyRouted)
    }

    /// The one-line `name: pass pass ...` form `transpile passes` prints.
    pub fn render(self) -> String {
        let ids: Vec<&str> = self.passes().iter().map(|p| p.id()).collect();
        format!("{}: {}", self.as_str(), ids.join(" "))
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
        assert_eq!(stages, PipelineId::ClosedDefault.passes());
    }

    #[test]
    fn snapshot_is_requested_exactly_when_audited() {
        for id in PipelineId::ALL {
            assert_eq!(
                id.needs_route_snapshot(),
                matches!(id, PipelineId::ClosedStages | PipelineId::NoOptimizeStages),
                "{id}"
            );
        }
    }
}
