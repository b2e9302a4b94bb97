//! Pass-based static analysis for SupermarQ circuits.
//!
//! The SupermarQ Closed Division (Sec. VI of the paper) constrains what a
//! legal compilation may do: decompose into the target's native gates, route
//! two-qubit gates onto coupled physical pairs, and only apply semantics
//! preserving optimizations. The transpiler in this workspace historically
//! enforced those rules with scattered `assert!`/`debug_assert!` calls that
//! panic, disappear in release builds, and report nothing structured.
//!
//! This crate replaces that with an analysis pipeline: a [`Verifier`] runs a
//! sequence of [`Pass`]es over a [`Context`] (a [`Circuit`], optionally a
//! [`Device`], optionally a [`RoutingAudit`]) and collects structured
//! [`Diagnostic`]s into a [`Report`]. Nothing here panics on a malformed
//! circuit — malformed input is precisely what the passes exist to describe.
//!
//! # Checks
//!
//! | id   | name                   | flags                                               |
//! |------|------------------------|-----------------------------------------------------|
//! | V001 | operand-validity       | out-of-range qubit indices, wrong operand arity     |
//! | V002 | duplicate-operands     | repeated qubit within one instruction               |
//! | V003 | measurement-discipline | unitaries after final measurement, re-measurement   |
//! | V004 | native-gates           | gates outside the target device's native set        |
//! | V005 | coupling-map           | two-qubit gates on non-adjacent physical qubits     |
//! | V006 | closed-division-audit  | routed circuit disagrees with input up to permutation |
//! | V007 | lint                   | adjacent self-inverse pairs, ~0 rotations, unused qubits |
//! | V008 | dead-gate              | unitaries outside every measurement lightcone       |
//! | V009 | clobbered-qubit        | resets that discard unconsumed quantum state        |
//! | V010 | clifford-preservation  | non-Clifford gates under a Clifford-preserving claim |
//!
//! V006 is *tiered*: routed Clifford circuits get a symbolic stabilizer
//! proof at any size, non-Clifford circuits fall back to the statevector
//! probe when tractable, and otherwise the audit degrades to gate
//! accounting with an explicit lint naming the skipped tier (see
//! [`audit::AuditTier`]). V008–V010 are powered by the abstract
//! interpretation engine in [`dataflow`] with the concrete domains in
//! [`lightcone`] and [`stabilizer`].
//!
//! # Example
//!
//! ```
//! use supermarq_circuit::Circuit;
//! use supermarq_device::Device;
//! use supermarq_verify::{verify_on_device, CheckId};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1); // `h` is not native on IBM-style hardware
//! let report = verify_on_device(&c, &Device::ibm_casablanca());
//! assert!(report.has_errors());
//! assert!(report.diagnostics.iter().any(|d| d.check == CheckId::NativeGates));
//! ```

pub mod audit;
pub mod checks;
pub mod dataflow;
pub mod differential;
pub mod lightcone;
pub mod stabilizer;

pub use audit::{audit_tier, statevector_probe, AuditTier, RoutingAudit};
pub use dataflow::{interpret, interpret_rev, Domain};
pub use differential::{
    clifford_corpus, differential, CompiledOutput, DifferentialCase, DifferentialReport,
    EquivalenceVerdict,
};
pub use lightcone::{Lightcone, LightconeAnalysis, Liveness, LivenessAnalysis};
pub use stabilizer::{
    prove_permutation_equivalence, CliffordFlowAnalysis, CliffordSummary, StabilizerVerdict,
};

use supermarq_circuit::{Circuit, Gate, GateKind, PropertySet};
use supermarq_device::{Device, NativeGateSet};

/// How serious a finding is.
///
/// Only [`Severity::Error`] findings represent Closed-Division violations;
/// warnings flag suspicious-but-legal structure and lints are stylistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Stylistic or efficiency finding; never a correctness problem.
    Lint,
    /// Suspicious structure that can be legitimate (e.g. routing may swap
    /// through a qubit after its final measurement).
    Warning,
    /// A malformed circuit or a Closed-Division rule violation.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Lint => "lint",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable identifier of a verification pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckId {
    /// V001: qubit indices in range, operand count matches gate arity.
    OperandValidity,
    /// V002: no repeated qubit within a single instruction.
    DuplicateOperands,
    /// V003: no unitary on fully-measured operands, no re-measurement
    /// without an intervening reset.
    MeasurementDiscipline,
    /// V004: every gate is native to the target device.
    NativeGates,
    /// V005: every two-qubit gate acts on coupled physical qubits.
    CouplingMap,
    /// V006: the routed circuit implements the input circuit up to the
    /// reported output permutation.
    ClosedDivisionAudit,
    /// V007: lint-grade findings (cancellable pairs, ~0 rotations, unused
    /// qubits).
    Lint,
    /// V008: unitaries outside every measurement lightcone (dead gates).
    DeadGate,
    /// V009: resets that discard unconsumed quantum state.
    ClobberedQubit,
    /// V010: non-Clifford gates in a pipeline that claimed
    /// Clifford-preserving input.
    CliffordPreservation,
}

impl CheckId {
    /// All checks, in pass-execution order.
    pub const ALL: [CheckId; 10] = [
        CheckId::OperandValidity,
        CheckId::DuplicateOperands,
        CheckId::MeasurementDiscipline,
        CheckId::NativeGates,
        CheckId::CouplingMap,
        CheckId::ClosedDivisionAudit,
        CheckId::Lint,
        CheckId::DeadGate,
        CheckId::ClobberedQubit,
        CheckId::CliffordPreservation,
    ];

    /// Short machine-readable code (`V001` … `V010`).
    pub fn code(&self) -> &'static str {
        match self {
            CheckId::OperandValidity => "V001",
            CheckId::DuplicateOperands => "V002",
            CheckId::MeasurementDiscipline => "V003",
            CheckId::NativeGates => "V004",
            CheckId::CouplingMap => "V005",
            CheckId::ClosedDivisionAudit => "V006",
            CheckId::Lint => "V007",
            CheckId::DeadGate => "V008",
            CheckId::ClobberedQubit => "V009",
            CheckId::CliffordPreservation => "V010",
        }
    }

    /// Human-readable kebab-case name.
    pub fn name(&self) -> &'static str {
        match self {
            CheckId::OperandValidity => "operand-validity",
            CheckId::DuplicateOperands => "duplicate-operands",
            CheckId::MeasurementDiscipline => "measurement-discipline",
            CheckId::NativeGates => "native-gates",
            CheckId::CouplingMap => "coupling-map",
            CheckId::ClosedDivisionAudit => "closed-division-audit",
            CheckId::Lint => "lint",
            CheckId::DeadGate => "dead-gate",
            CheckId::ClobberedQubit => "clobbered-qubit",
            CheckId::CliffordPreservation => "clifford-preservation",
        }
    }

    /// One-line description, used by `supermarq lint --list`.
    pub fn description(&self) -> &'static str {
        match self {
            CheckId::OperandValidity => {
                "qubit indices are in range and operand counts match gate arity"
            }
            CheckId::DuplicateOperands => "no instruction repeats a qubit operand",
            CheckId::MeasurementDiscipline => {
                "no unitary acts on fully-measured qubits; no re-measurement without reset"
            }
            CheckId::NativeGates => "every gate belongs to the target device's native gate set",
            CheckId::CouplingMap => "every two-qubit gate acts on a coupled physical pair",
            CheckId::ClosedDivisionAudit => {
                "routed circuit matches the input up to the reported output permutation"
            }
            CheckId::Lint => "adjacent self-inverse pairs, ~0-angle rotations, unused qubits",
            CheckId::DeadGate => "no unitary lies outside every measurement lightcone",
            CheckId::ClobberedQubit => "no reset discards unconsumed quantum state",
            CheckId::CliffordPreservation => {
                "a pipeline with Clifford input emits only Clifford gates"
            }
        }
    }
}

impl std::fmt::Display for CheckId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.code(), self.name())
    }
}

/// One finding from one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The pass that produced this finding.
    pub check: CheckId,
    /// How serious it is.
    pub severity: Severity,
    /// Index of the offending instruction in the analyzed circuit, when the
    /// finding is attributable to one.
    pub instruction: Option<usize>,
    /// Human-readable description of the finding.
    pub message: String,
    /// Name of the pipeline pass that introduced or last moved the
    /// offending instruction (`"input"` when it came in untouched). Filled
    /// by the pass manager's provenance domain; `None` outside pipeline
    /// runs.
    pub blame: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic attached to instruction `index`.
    pub fn at(
        check: CheckId,
        severity: Severity,
        index: usize,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            check,
            severity,
            instruction: Some(index),
            message: message.into(),
            blame: None,
        }
    }

    /// Creates a circuit-level diagnostic (no single offending instruction).
    pub fn global(check: CheckId, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            check,
            severity,
            instruction: None,
            message: message.into(),
            blame: None,
        }
    }

    /// Attaches provenance blame (the pass that introduced or last moved
    /// the offending instruction).
    pub fn with_blame(mut self, blame: impl Into<String>) -> Self {
        self.blame = Some(blame.into());
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.severity, self.check.code())?;
        if let Some(i) = self.instruction {
            write!(f, " at instruction {i}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(blame) = &self.blame {
            write!(f, " [pass: {blame}]")?;
        }
        Ok(())
    }
}

/// The collected output of a verification run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// All findings, in pass order then instruction order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// `true` if no pass produced any finding.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` if any finding is [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The set of checks that produced at least one finding.
    pub fn checks_hit(&self) -> Vec<CheckId> {
        let mut hit: Vec<CheckId> = CheckId::ALL
            .into_iter()
            .filter(|c| self.diagnostics.iter().any(|d| d.check == *c))
            .collect();
        hit.dedup();
        hit
    }

    /// The diagnostics in render order: severity descending, then
    /// instruction location (circuit-level findings last), then check code
    /// and message. Total and value-determined, so output built from it is
    /// byte-deterministic.
    pub fn sorted(&self) -> Vec<&Diagnostic> {
        let mut sorted: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        sorted.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| {
                    a.instruction
                        .unwrap_or(usize::MAX)
                        .cmp(&b.instruction.unwrap_or(usize::MAX))
                })
                .then_with(|| a.check.code().cmp(b.check.code()))
                .then_with(|| a.message.cmp(&b.message))
                .then_with(|| a.blame.cmp(&b.blame))
        });
        sorted
    }

    /// Renders every diagnostic, one per line, in [`Report::sorted`] order.
    pub fn render(&self) -> String {
        self.sorted()
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Everything a pass may look at.
///
/// `circuit` is always present; `device` enables the hardware-conformance
/// passes (V004/V005) and `routing` enables the Closed-Division audit
/// (V006). Passes whose inputs are absent are silent no-ops, so a single
/// [`Verifier`] pipeline serves every verification site.
#[derive(Clone, Copy)]
pub struct Context<'a> {
    /// The circuit under analysis.
    pub circuit: &'a Circuit,
    /// Target device, when hardware conformance should be checked.
    pub device: Option<&'a Device>,
    /// Routing provenance, when the circuit is the output of the router.
    pub routing: Option<&'a RoutingAudit<'a>>,
    /// Shared analysis cache: when present (pipeline runs), dataflow
    /// results land here and are reused across passes; when absent, each
    /// pass interprets fresh.
    pub properties: Option<&'a PropertySet>,
    /// Whether the pipeline's *input* circuit was all-Clifford — the claim
    /// V010 holds the output to. `false` outside pipeline runs (V010 is
    /// then silent).
    pub clifford_input: bool,
}

impl<'a> Context<'a> {
    /// A device- and routing-free context: structural checks only.
    pub fn bare(circuit: &'a Circuit) -> Self {
        Context {
            circuit,
            device: None,
            routing: None,
            properties: None,
            clifford_input: false,
        }
    }

    /// A context with a target device.
    pub fn on_device(circuit: &'a Circuit, device: &'a Device) -> Self {
        Context {
            device: Some(device),
            ..Context::bare(circuit)
        }
    }

    /// Attaches a shared analysis cache.
    pub fn with_properties(mut self, properties: &'a PropertySet) -> Self {
        self.properties = Some(properties);
        self
    }

    /// Sets the Clifford-preservation claim checked by V010.
    pub fn with_clifford_claim(mut self, claim: bool) -> Self {
        self.clifford_input = claim;
        self
    }
}

/// A single verification pass.
pub trait Pass {
    /// The stable identifier of this pass.
    fn id(&self) -> CheckId;

    /// Analyzes `ctx`, appending findings to `out`.
    fn run(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>);
}

/// A pipeline of verification passes.
///
/// # Example
///
/// ```
/// use supermarq_circuit::{Circuit, Gate};
/// use supermarq_verify::{Context, Verifier};
///
/// let mut broken = Circuit::new(2);
/// broken.push_unchecked(Gate::Cx, &[0, 5]); // out of range
/// let report = Verifier::all().verify(&Context::bare(&broken));
/// assert!(report.has_errors());
/// ```
#[derive(Default)]
pub struct Verifier {
    passes: Vec<Box<dyn Pass>>,
}

impl Verifier {
    /// An empty pipeline; add passes with [`Verifier::with_pass`].
    pub fn new() -> Self {
        Verifier { passes: Vec::new() }
    }

    /// The full pipeline: all ten checks, in [`CheckId::ALL`] order.
    pub fn all() -> Self {
        Verifier::new()
            .with_pass(checks::OperandValidity)
            .with_pass(checks::DuplicateOperands)
            .with_pass(checks::MeasurementDiscipline)
            .with_pass(checks::NativeGates)
            .with_pass(checks::CouplingMap)
            .with_pass(audit::ClosedDivisionAudit)
            .with_pass(checks::LintPass)
            .with_pass(lightcone::DeadGate)
            .with_pass(lightcone::ClobberedQubit)
            .with_pass(stabilizer::CliffordPreservation)
    }

    /// The pipeline for auditing the router's output: the circuit is on
    /// physical wires (so V005 and the V006 audit apply) but has not been
    /// decomposed yet, so native-gate conformance (V004) is excluded.
    pub fn post_routing() -> Self {
        Verifier::new()
            .with_pass(checks::OperandValidity)
            .with_pass(checks::DuplicateOperands)
            .with_pass(checks::MeasurementDiscipline)
            .with_pass(checks::CouplingMap)
            .with_pass(audit::ClosedDivisionAudit)
            .with_pass(checks::LintPass)
            .with_pass(lightcone::DeadGate)
            .with_pass(lightcone::ClobberedQubit)
            .with_pass(stabilizer::CliffordPreservation)
    }

    /// The structural subset (V001–V003, V007–V009): meaningful without a
    /// device.
    pub fn structural() -> Self {
        Verifier::new()
            .with_pass(checks::OperandValidity)
            .with_pass(checks::DuplicateOperands)
            .with_pass(checks::MeasurementDiscipline)
            .with_pass(checks::LintPass)
            .with_pass(lightcone::DeadGate)
            .with_pass(lightcone::ClobberedQubit)
    }

    /// Appends a pass to the pipeline.
    pub fn with_pass(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// The ids of the registered passes, in execution order.
    pub fn pass_ids(&self) -> Vec<CheckId> {
        self.passes.iter().map(|p| p.id()).collect()
    }

    /// Runs every pass over `ctx` and collects the findings.
    pub fn verify(&self, ctx: &Context<'_>) -> Report {
        let mut diagnostics = Vec::new();
        for pass in &self.passes {
            pass.run(ctx, &mut diagnostics);
        }
        Report { diagnostics }
    }
}

/// Runs the structural checks (V001–V003, V007–V009) on a bare circuit.
pub fn verify_circuit(circuit: &Circuit) -> Report {
    Verifier::structural().verify(&Context::bare(circuit))
}

/// Runs every device-applicable check (V001–V005, V007) on a circuit
/// targeting `device`.
pub fn verify_on_device(circuit: &Circuit, device: &Device) -> Report {
    Verifier::all().verify(&Context::on_device(circuit, device))
}

/// Runs the full pipeline, including the Closed-Division audit, on a routed
/// circuit with its provenance.
pub fn verify_routed(audit: &RoutingAudit<'_>, device: Option<&Device>) -> Report {
    let ctx = Context {
        routing: Some(audit),
        device,
        ..Context::bare(audit.routed)
    };
    Verifier::all().verify(&ctx)
}

/// `true` if `gate` is native to `gate_set`.
///
/// This is the single source of truth for native-gate membership: the
/// transpiler's decomposer and the V004 pass both consult it. Measurements,
/// resets and barriers are native everywhere; the identity is free on every
/// architecture.
pub fn is_native(gate: &Gate, gate_set: NativeGateSet) -> bool {
    match gate.kind() {
        GateKind::Measurement | GateKind::Reset | GateKind::Barrier => true,
        GateKind::OneQubitUnitary => match gate_set {
            // IBM basis: rz, sx, x (plus the free identity).
            NativeGateSet::IbmLike => matches!(gate, Gate::Rz(_) | Gate::Sx | Gate::X | Gate::I),
            // Trapped ions drive arbitrary single-qubit rotations natively.
            NativeGateSet::IonLike => true,
            // AQT@LBNL basis: rz, sx (plus the free identity).
            NativeGateSet::AqtLike => matches!(gate, Gate::Rz(_) | Gate::Sx | Gate::I),
        },
        GateKind::TwoQubitUnitary => match gate_set {
            NativeGateSet::IbmLike => matches!(gate, Gate::Cx),
            NativeGateSet::IonLike => matches!(gate, Gate::Rxx(_)),
            NativeGateSet::AqtLike => matches!(gate, Gate::Cz),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_ids_are_stable_and_distinct() {
        let codes: Vec<&str> = CheckId::ALL.iter().map(|c| c.code()).collect();
        assert_eq!(
            codes,
            ["V001", "V002", "V003", "V004", "V005", "V006", "V007", "V008", "V009", "V010"]
        );
        let names: std::collections::BTreeSet<&str> =
            CheckId::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn severity_orders_lint_below_error() {
        assert!(Severity::Lint < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn diagnostic_renders_with_code_and_instruction() {
        let d = Diagnostic::at(CheckId::CouplingMap, Severity::Error, 7, "cx on (0, 4)");
        assert_eq!(d.to_string(), "error[V005] at instruction 7: cx on (0, 4)");
        let g = Diagnostic::global(CheckId::Lint, Severity::Lint, "qubit 3 is unused");
        assert_eq!(g.to_string(), "lint[V007]: qubit 3 is unused");
        let blamed = d.with_blame("route");
        assert_eq!(
            blamed.to_string(),
            "error[V005] at instruction 7: cx on (0, 4) [pass: route]"
        );
    }

    #[test]
    fn render_orders_by_severity_then_location() {
        let report = Report {
            diagnostics: vec![
                Diagnostic::global(CheckId::Lint, Severity::Lint, "style"),
                Diagnostic::at(CheckId::DeadGate, Severity::Warning, 9, "dead"),
                Diagnostic::at(CheckId::CouplingMap, Severity::Error, 4, "uncoupled"),
                Diagnostic::global(CheckId::ClosedDivisionAudit, Severity::Error, "mismatch"),
                Diagnostic::at(CheckId::OperandValidity, Severity::Error, 1, "bad index"),
            ],
        };
        let rendered = report.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(
            lines,
            vec![
                "error[V001] at instruction 1: bad index",
                "error[V005] at instruction 4: uncoupled",
                "error[V006]: mismatch",
                "warning[V008] at instruction 9: dead",
                "lint[V007]: style",
            ]
        );
        // Byte-deterministic: rendering twice is identical.
        assert_eq!(rendered, report.render());
    }

    #[test]
    fn clean_circuit_produces_clean_report() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let report = verify_circuit(&c);
        assert!(
            report.is_clean(),
            "unexpected findings:\n{}",
            report.render()
        );
        assert!(!report.has_errors());
    }

    #[test]
    fn full_pipeline_registers_all_ten_passes() {
        assert_eq!(Verifier::all().pass_ids(), CheckId::ALL.to_vec());
    }

    #[test]
    fn report_counts_by_severity() {
        let report = Report {
            diagnostics: vec![
                Diagnostic::global(CheckId::Lint, Severity::Lint, "a"),
                Diagnostic::global(CheckId::NativeGates, Severity::Error, "b"),
                Diagnostic::global(CheckId::NativeGates, Severity::Error, "c"),
            ],
        };
        assert_eq!(report.count(Severity::Lint), 1);
        assert_eq!(report.count(Severity::Error), 2);
        assert_eq!(report.errors().len(), 2);
        assert_eq!(
            report.checks_hit(),
            vec![CheckId::NativeGates, CheckId::Lint]
        );
    }

    #[test]
    fn native_membership_matches_table_ii_architectures() {
        use NativeGateSet::*;
        assert!(is_native(&Gate::Rz(0.3), IbmLike));
        assert!(is_native(&Gate::Cx, IbmLike));
        assert!(!is_native(&Gate::H, IbmLike));
        assert!(!is_native(&Gate::Cz, IbmLike));
        assert!(is_native(&Gate::H, IonLike));
        assert!(is_native(&Gate::Rxx(0.4), IonLike));
        assert!(!is_native(&Gate::Cx, IonLike));
        assert!(is_native(&Gate::Cz, AqtLike));
        assert!(!is_native(&Gate::X, AqtLike));
        for set in [IbmLike, IonLike, AqtLike] {
            assert!(is_native(&Gate::Measure, set));
            assert!(is_native(&Gate::Reset, set));
            assert!(is_native(&Gate::Barrier, set));
        }
    }
}
