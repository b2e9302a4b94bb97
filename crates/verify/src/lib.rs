//! Static analysis for SupermarQ circuits.
//!
//! The SupermarQ Closed Division (Sec. VI of the paper) constrains what a
//! legal compilation may do: decompose into the target's native gates, route
//! two-qubit gates onto coupled physical pairs, and only apply semantics
//! preserving optimizations. The transpiler in this workspace historically
//! enforced those rules with scattered `assert!`/`debug_assert!` calls that
//! panic, disappear in release builds, and report nothing structured.
//!
//! This crate replaces that with static checks: a [`Verifier`] is a static
//! list of [`CheckId`]s, each run in order over a [`Context`] (a
//! [`Circuit`], optionally a [`Device`], optionally a [`RoutingAudit`]),
//! and it collects structured [`Diagnostic`]s into a [`Report`]. Nothing
//! here panics on a malformed circuit — malformed input is precisely what
//! the checks exist to describe.
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
//! [`audit::AuditTier`]). V008–V010 read three analyses, each one walk
//! over the instruction list: `liveness` and `lightcone()` (V008/V009)
//! and `clifford_summary` (V010). Each check calls the analysis it
//! needs on the circuit in its [`Context`]; nothing is cached between
//! checks.
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

pub(crate) mod audit;
pub(crate) mod checks;
pub mod differential;
pub(crate) mod lightcone;
pub(crate) mod stabilizer;

pub use audit::{audit_tier, statevector_probe, AuditTier, RoutingAudit};
pub use differential::{
    clifford_corpus, differential, CompiledOutput, DifferentialCase, DifferentialReport,
    EquivalenceVerdict,
};
pub use stabilizer::{prove_permutation_equivalence, CliffordSummary, StabilizerVerdict};

use supermarq_circuit::{Circuit, Gate, GateKind};
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

/// A verification check: its stable identifier, and what [`Verifier`]
/// runs.
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
    /// All checks, in execution order.
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

    /// Runs this check over `ctx`, appending its findings to `out`.
    pub(crate) fn run(self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        match self {
            CheckId::OperandValidity => checks::operand_validity(ctx, out),
            CheckId::DuplicateOperands => checks::duplicate_operands(ctx, out),
            CheckId::MeasurementDiscipline => checks::measurement_discipline(ctx, out),
            CheckId::NativeGates => checks::native_gates(ctx, out),
            CheckId::CouplingMap => checks::coupling_map(ctx, out),
            CheckId::ClosedDivisionAudit => audit::closed_division_audit(ctx, out),
            CheckId::Lint => checks::lint(ctx, out),
            CheckId::DeadGate => lightcone::dead_gate(ctx, out),
            CheckId::ClobberedQubit => lightcone::clobbered_qubit(ctx, out),
            CheckId::CliffordPreservation => stabilizer::clifford_preservation(ctx, out),
        }
    }
}

impl std::fmt::Display for CheckId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.code(), self.name())
    }
}

/// One finding from one check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The check that produced this finding.
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
    pub(crate) fn global(check: CheckId, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            check,
            severity,
            instruction: None,
            message: message.into(),
            blame: None,
        }
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
    /// All findings, in check order then instruction order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// `true` if no check produced any finding.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` if any finding is [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
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

/// Everything a check may look at.
///
/// `circuit` is always present; `device` enables the hardware-conformance
/// checks (V004/V005) and `routing` enables the Closed-Division audit
/// (V006). Checks whose inputs are absent are silent no-ops, so one
/// [`Verifier`] serves every verification site.
#[derive(Clone, Copy)]
pub struct Context<'a> {
    /// The circuit under analysis.
    pub circuit: &'a Circuit,
    /// Target device, when hardware conformance should be checked.
    pub device: Option<&'a Device>,
    /// Routing provenance, when the circuit is the output of the router.
    pub routing: Option<&'a RoutingAudit<'a>>,
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

    /// Sets the Clifford-preservation claim checked by V010.
    pub fn with_clifford_claim(mut self, claim: bool) -> Self {
        self.clifford_input = claim;
        self
    }
}

/// A list of checks, run in order over one [`Context`].
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
pub struct Verifier {
    checks: &'static [CheckId],
}

impl Verifier {
    /// All ten checks, in [`CheckId::ALL`] order: for a native circuit on
    /// its device. Without routing provenance in the [`Context`] V006 is
    /// silent, and without a Clifford claim V010 is.
    pub fn all() -> Self {
        Verifier {
            checks: &CheckId::ALL,
        }
    }

    /// Every check but V004: for the router's output, which is on
    /// physical wires (so V005 and the V006 audit apply) but not yet
    /// decomposed to native gates.
    pub fn post_routing() -> Self {
        use CheckId::*;
        Verifier {
            checks: &[
                OperandValidity,
                DuplicateOperands,
                MeasurementDiscipline,
                CouplingMap,
                ClosedDivisionAudit,
                Lint,
                DeadGate,
                ClobberedQubit,
                CliffordPreservation,
            ],
        }
    }

    /// The checks meaningful without a device (V001–V003, V007–V009):
    /// for logical circuits.
    pub fn structural() -> Self {
        use CheckId::*;
        Verifier {
            checks: &[
                OperandValidity,
                DuplicateOperands,
                MeasurementDiscipline,
                Lint,
                DeadGate,
                ClobberedQubit,
            ],
        }
    }

    /// Runs every check over `ctx` and collects the findings.
    pub fn verify(&self, ctx: &Context<'_>) -> Report {
        let mut diagnostics = Vec::new();
        for check in self.checks {
            check.run(ctx, &mut diagnostics);
        }
        Report { diagnostics }
    }
}

/// Runs [`Verifier::structural`] on a bare circuit.
pub fn verify_circuit(circuit: &Circuit) -> Report {
    Verifier::structural().verify(&Context::bare(circuit))
}

/// Runs [`Verifier::all`] on a circuit targeting `device`. With no
/// routing provenance and no Clifford claim, V006 and V010 stay silent.
pub fn verify_on_device(circuit: &Circuit, device: &Device) -> Report {
    Verifier::all().verify(&Context::on_device(circuit, device))
}

/// `true` if `gate` is native to `gate_set`.
///
/// This is the single source of truth for native-gate membership: the
/// transpiler's decomposer and the V004 check both consult it. Measurements,
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
        let blamed = Diagnostic {
            blame: Some("route".to_string()),
            ..d
        };
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
