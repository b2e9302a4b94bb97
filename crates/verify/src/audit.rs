//! V006: the Closed-Division audit.
//!
//! The Closed Division allows routing to change *where* a logical qubit
//! lives, but not *what* the circuit computes: the routed circuit must
//! implement the input circuit up to the output permutation the router
//! reports. This check tests that claim from the router's own provenance
//! record ([`RoutingAudit`]):
//!
//! - **Mapping sanity** — `initial_mapping`/`final_mapping` have one entry
//!   per logical qubit, are injective, and land on the routed register.
//! - **Gate accounting** (always) — routing may only *insert SWAPs*: the
//!   multiset of non-SWAP gates is preserved exactly, and the SWAP surplus
//!   equals the reported `swap_count`.
//! - **Equivalence** (tiered, see [`AuditTier`]) — semantic agreement with
//!   the input up to the reported output permutation:
//!   1. **Stabilizer proof** — when both circuits are Clifford (after
//!      quarter-turn snapping) and reset-free, a symbolic Pauli-tableau
//!      comparison proves equivalence at *any* size in polynomial time
//!      ([`crate::stabilizer::prove_permutation_equivalence`]);
//!   2. **Statevector probe** — otherwise, when the live wires fit in a
//!      statevector, random product states are pushed through both sides;
//!   3. **Skipped** — otherwise the audit degrades to gate accounting and
//!      says so with a lint-severity diagnostic naming the blockers.
//!
//! The tier taken is recorded on the `verify.audit` obs span.

use crate::stabilizer::{prove_permutation_equivalence, StabilizerVerdict};
use crate::{CheckId, Context, Diagnostic, Severity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use supermarq_circuit::{Circuit, Gate, GateKind};
use supermarq_clifford::is_clifford_circuit;
use supermarq_obs::Span;
use supermarq_sim::StateVector;

/// Largest number of live wires for which the audit runs the exact
/// statevector probe; beyond this only gate accounting applies.
pub(crate) const MAX_PROBE_QUBITS: usize = 12;

/// Number of random product-state probes per audit.
const PROBE_TRIALS: usize = 4;

/// Fidelity below `1 - EQUIV_TOL` counts as a semantic mismatch.
const EQUIV_TOL: f64 = 1e-9;

/// What the router claims it did: the provenance record V006 audits.
///
/// All circuit and mapping data is *borrowed*: an audit is a cheap,
/// copyable view assembled at the verification site from data the caller
/// already owns (the pass manager's pre-route snapshot, its working
/// circuit, and its layout), so attaching provenance costs no clones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingAudit<'a> {
    /// The circuit that entered the router (logical indices).
    pub logical: &'a Circuit,
    /// The circuit the router produced (physical indices).
    pub routed: &'a Circuit,
    /// Physical home of each logical qubit before the first instruction.
    pub initial_mapping: &'a [usize],
    /// Physical home of each logical qubit after the last instruction.
    pub final_mapping: &'a [usize],
    /// Number of SWAPs the router claims to have inserted.
    pub swap_count: usize,
}

/// Which equivalence tier the V006 audit can run for a given
/// [`RoutingAudit`] — the fallback ladder is stabilizer proof, then
/// statevector probe, then gate accounting only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditTier {
    /// Symbolic Pauli-tableau proof: Clifford, reset-free, any size.
    StabilizerProof,
    /// Exact statevector probe: reset-free, few live wires.
    StatevectorProbe,
    /// Neither applies; the audit degrades to gate accounting and says so.
    Skipped,
}

impl AuditTier {
    /// Stable name, used in diagnostics and obs spans.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            AuditTier::StabilizerProof => "stabilizer-proof",
            AuditTier::StatevectorProbe => "statevector-probe",
            AuditTier::Skipped => "skipped",
        }
    }
}

/// The equivalence tier the audit will use for this provenance record.
pub fn audit_tier(audit: &RoutingAudit<'_>) -> AuditTier {
    let reset_free = audit.logical.reset_count() == 0 && audit.routed.reset_count() == 0;
    if reset_free && is_clifford_circuit(audit.logical) && is_clifford_circuit(audit.routed) {
        AuditTier::StabilizerProof
    } else if probe_is_tractable(audit) {
        AuditTier::StatevectorProbe
    } else {
        AuditTier::Skipped
    }
}

/// V006: audits a [`RoutingAudit`] attached to the [`Context`].
/// Silent when no routing provenance is present.
pub(crate) fn closed_division_audit(ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    let Some(audit) = ctx.routing else { return };
    if !check_mappings(audit, out) {
        return; // malformed mappings make the other stages meaningless
    }
    check_accounting(audit, out);
    let tier = audit_tier(audit);
    let mut span = Span::open("verify.audit");
    span.record("tier", tier.name());
    span.record("live_wires", live_wires(audit).len());
    match tier {
        AuditTier::StabilizerProof => check_stabilizer(audit, out),
        AuditTier::StatevectorProbe => check_statevector(audit, out),
        AuditTier::Skipped => out.push(Diagnostic::global(
            CheckId::ClosedDivisionAudit,
            Severity::Lint,
            format!(
                "equivalence not audited ({}): gate accounting only",
                skip_reason(audit)
            ),
        )),
    }
}

/// Why neither equivalence tier applies (for the skipped-tier diagnostic).
fn skip_reason(audit: &RoutingAudit<'_>) -> String {
    let mut reasons = Vec::new();
    if audit.logical.reset_count() > 0 || audit.routed.reset_count() > 0 {
        reasons.push("circuit contains resets".to_string());
    } else {
        reasons.push("circuit is not Clifford".to_string());
    }
    let wires = live_wires(audit).len();
    if wires > MAX_PROBE_QUBITS {
        reasons.push(format!(
            "{wires} live wires exceed the {MAX_PROBE_QUBITS}-wire statevector limit"
        ));
    }
    reasons.join("; ")
}

/// Tier 1: the symbolic stabilizer proof.
fn check_stabilizer(audit: &RoutingAudit<'_>, out: &mut Vec<Diagnostic>) {
    match prove_permutation_equivalence(
        audit.logical,
        audit.routed,
        audit.initial_mapping,
        audit.final_mapping,
    ) {
        StabilizerVerdict::Proven => {}
        StabilizerVerdict::Refuted { detail } => out.push(Diagnostic::global(
            CheckId::ClosedDivisionAudit,
            Severity::Error,
            format!(
                "routed circuit is not equivalent to its input up to the reported \
                 permutation (stabilizer proof: {detail})"
            ),
        )),
        // audit_tier checked applicability, so this is defensive only.
        StabilizerVerdict::NotApplicable { reason } => out.push(Diagnostic::global(
            CheckId::ClosedDivisionAudit,
            Severity::Lint,
            format!("stabilizer tier withdrew: {reason}; gate accounting only"),
        )),
    }
}

/// Runs the statevector probe in isolation: `Some(true)` when the probe
/// agrees the routed circuit implements its input, `Some(false)` on a
/// counterexample, `None` when the probe is intractable (resets, or too
/// many live wires). Exposed so the stabilizer tier can be cross-checked
/// against the probe on small circuits.
pub fn statevector_probe(audit: &RoutingAudit<'_>) -> Option<bool> {
    if !probe_is_tractable(audit) {
        return None;
    }
    let mut out = Vec::new();
    check_statevector(audit, &mut out);
    Some(out.is_empty())
}

/// Validates mapping shape: one entry per logical qubit, injective, on-chip.
/// Returns `false` if the mappings are too broken to audit further.
fn check_mappings(audit: &RoutingAudit<'_>, out: &mut Vec<Diagnostic>) -> bool {
    let n_logical = audit.logical.num_qubits();
    let n_phys = audit.routed.num_qubits();
    let mut ok = true;
    for (label, mapping) in [
        ("initial_mapping", audit.initial_mapping),
        ("final_mapping", audit.final_mapping),
    ] {
        if mapping.len() != n_logical {
            out.push(Diagnostic::global(
                CheckId::ClosedDivisionAudit,
                Severity::Error,
                format!(
                    "{label} has {} entries for {n_logical} logical qubit(s)",
                    mapping.len()
                ),
            ));
            ok = false;
            continue;
        }
        let distinct: BTreeSet<usize> = mapping.iter().copied().collect();
        if distinct.len() != mapping.len() {
            out.push(Diagnostic::global(
                CheckId::ClosedDivisionAudit,
                Severity::Error,
                format!("{label} is not injective: {mapping:?}"),
            ));
            ok = false;
        }
        if let Some(&bad) = mapping.iter().find(|&&p| p >= n_phys) {
            out.push(Diagnostic::global(
                CheckId::ClosedDivisionAudit,
                Severity::Error,
                format!("{label} places a qubit on wire {bad} of a {n_phys}-wire register"),
            ));
            ok = false;
        }
    }
    ok
}

/// Gate accounting: routing may only insert SWAPs. Every non-SWAP gate of
/// the logical circuit must appear in the routed circuit with identical
/// multiplicity (keyed by the gate's display form, so rotation angles
/// count), and the SWAP surplus must equal the reported `swap_count`.
fn check_accounting(audit: &RoutingAudit<'_>, out: &mut Vec<Diagnostic>) {
    let logical = gate_multiset(audit.logical);
    let routed = gate_multiset(audit.routed);
    let swap_key = Gate::Swap.to_string();
    let logical_swaps = logical.get(&swap_key).copied().unwrap_or(0);
    let routed_swaps = routed.get(&swap_key).copied().unwrap_or(0);

    if routed_swaps < logical_swaps {
        out.push(Diagnostic::global(
            CheckId::ClosedDivisionAudit,
            Severity::Error,
            format!("routing removed SWAPs: {logical_swaps} in, {routed_swaps} out"),
        ));
    } else if routed_swaps - logical_swaps != audit.swap_count {
        out.push(Diagnostic::global(
            CheckId::ClosedDivisionAudit,
            Severity::Error,
            format!(
                "router reports {} inserted SWAP(s) but the circuits show {}",
                audit.swap_count,
                routed_swaps - logical_swaps
            ),
        ));
    }

    let keys: BTreeSet<&String> = logical
        .keys()
        .chain(routed.keys())
        .filter(|k| **k != swap_key)
        .collect();
    for key in keys {
        let want = logical.get(key).copied().unwrap_or(0);
        let got = routed.get(key).copied().unwrap_or(0);
        if want != got {
            out.push(Diagnostic::global(
                CheckId::ClosedDivisionAudit,
                Severity::Error,
                format!("gate count for '{key}' changed across routing: {want} in, {got} out"),
            ));
        }
    }
}

/// Multiset of gate display forms, barriers excluded.
fn gate_multiset(circuit: &Circuit) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for instr in circuit.iter() {
        if instr.gate.kind() == GateKind::Barrier {
            continue;
        }
        *counts.entry(instr.gate.to_string()).or_insert(0) += 1;
    }
    counts
}

/// The probe needs unitary-only semantics (resets collapse) and a live-wire
/// count small enough for a statevector.
fn probe_is_tractable(audit: &RoutingAudit<'_>) -> bool {
    if audit.logical.reset_count() > 0 || audit.routed.reset_count() > 0 {
        return false;
    }
    live_wires(audit).len() <= MAX_PROBE_QUBITS
}

/// The physical wires the audit must simulate: everything the routed
/// circuit touches plus the images of both mappings.
fn live_wires(audit: &RoutingAudit<'_>) -> BTreeSet<usize> {
    let mut wires: BTreeSet<usize> = audit.initial_mapping.iter().copied().collect();
    wires.extend(audit.final_mapping.iter().copied());
    for instr in audit.routed.iter() {
        wires.extend(instr.qubits.iter().copied());
    }
    wires
}

/// Exact equivalence probe on the compacted live wires.
///
/// Let `E` be the logical circuit embedded at `initial_mapping` and `R` the
/// routed circuit followed by correction SWAPs returning every logical
/// qubit from `final_mapping` back to `initial_mapping`. For any state that
/// is `|0>` outside the mapped wires, `R` and `E` must agree exactly:
/// routing is wire permutation plus nothing. Measurements and barriers are
/// stripped (both sides identically); the probe states are random product
/// states on the mapped wires plus an entangling ladder, so coincidental
/// agreement on all probes is vanishingly unlikely.
fn check_statevector(audit: &RoutingAudit<'_>, out: &mut Vec<Diagnostic>) {
    let wires = live_wires(audit);
    let dense: BTreeMap<usize, usize> = wires
        .iter()
        .copied()
        .enumerate()
        .map(|(i, w)| (w, i))
        .collect();
    let n = wires.len();
    if n == 0 {
        return;
    }

    // Embedded logical circuit on the dense register.
    let mut embedded = Circuit::new(n);
    for instr in audit.logical.iter() {
        if matches!(instr.gate.kind(), GateKind::Barrier | GateKind::Measurement) {
            continue;
        }
        let qubits: Vec<usize> = instr
            .qubits
            .iter()
            .map(|&q| dense[&audit.initial_mapping[q]])
            .collect();
        embedded.push_unchecked(instr.gate, &qubits);
    }

    // Routed circuit on the dense register, plus correction SWAPs that
    // undo the output permutation (selection-sort of final -> initial).
    let mut corrected = Circuit::new(n);
    for instr in audit.routed.iter() {
        if matches!(instr.gate.kind(), GateKind::Barrier | GateKind::Measurement) {
            continue;
        }
        let qubits: Vec<usize> = instr.qubits.iter().map(|&q| dense[&q]).collect();
        corrected.push_unchecked(instr.gate, &qubits);
    }
    let mut location: Vec<usize> = audit.final_mapping.to_vec();
    for q in 0..location.len() {
        let target = audit.initial_mapping[q];
        if location[q] == target {
            continue;
        }
        let from = location[q];
        corrected.push_unchecked(Gate::Swap, &[dense[&from], dense[&target]]);
        // The swap moves whichever logical qubit held `target` onto `from`.
        for loc in location.iter_mut() {
            if *loc == target {
                *loc = from;
                break;
            }
        }
        location[q] = target;
    }

    // Probe with random product states on the mapped wires (the rest stay
    // |0>, which wire permutation preserves) plus a CZ ladder for spread.
    let mapped_dense: Vec<usize> = audit.initial_mapping.iter().map(|w| dense[w]).collect();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for trial in 0..PROBE_TRIALS {
        let mut prep = Circuit::new(n);
        for &d in &mapped_dense {
            prep.push_unchecked(Gate::Ry(rng.gen_range(0.0..3.0)), &[d]);
            prep.push_unchecked(Gate::Rz(rng.gen_range(0.0..3.0)), &[d]);
        }
        for pair in mapped_dense.windows(2) {
            prep.push_unchecked(Gate::Cz, &[pair[0], pair[1]]);
        }
        let via_embedded = run_unitary(&prep, &embedded, n);
        let via_routed = run_unitary(&prep, &corrected, n);
        let fidelity = via_embedded.fidelity(&via_routed);
        if fidelity < 1.0 - EQUIV_TOL {
            out.push(Diagnostic::global(
                CheckId::ClosedDivisionAudit,
                Severity::Error,
                format!(
                    "routed circuit is not equivalent to its input up to the reported \
                     permutation (probe {trial}: fidelity {fidelity:.12})"
                ),
            ));
            return; // one counterexample suffices
        }
    }
}

/// Applies `prep` then `body` to `|0...0>` on `n` dense wires.
fn run_unitary(prep: &Circuit, body: &Circuit, n: usize) -> StateVector {
    let mut state = StateVector::zero_state(n);
    for instr in prep.iter().chain(body.iter()) {
        state.apply_instruction(instr);
    }
    state
}

/// Convenience: instruction stream of correction swaps is internal; expose
/// the audit itself for construction at routing sites.
impl<'a> RoutingAudit<'a> {
    /// Builds the provenance record for a routing step, borrowing the
    /// circuits and mappings from the caller.
    pub fn new(
        logical: &'a Circuit,
        routed: &'a Circuit,
        initial_mapping: &'a [usize],
        final_mapping: &'a [usize],
        swap_count: usize,
    ) -> Self {
        RoutingAudit {
            logical,
            routed,
            initial_mapping,
            final_mapping,
            swap_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckId, Context, Report, Severity, Verifier};

    /// Runs every check, the Closed-Division audit included, on a routed
    /// circuit with its provenance.
    fn verify_routed(audit: &RoutingAudit<'_>) -> Report {
        let ctx = Context {
            routing: Some(audit),
            ..Context::bare(audit.routed)
        };
        Verifier::all().verify(&ctx)
    }

    /// Owned backing data for the honest fixture: logical cx(0,1) placed at
    /// wires [0, 2] of a 3-wire line; routing swaps wires (1, 2) to bring
    /// the operands together, then applies the gate at (0, 1). Final homes:
    /// [0, 1]. Tests mutate these owned parts, then borrow them into a
    /// [`RoutingAudit`] view.
    struct Parts {
        logical: Circuit,
        routed: Circuit,
        initial: Vec<usize>,
        last: Vec<usize>,
        swap_count: usize,
    }

    impl Parts {
        fn audit(&self) -> RoutingAudit<'_> {
            RoutingAudit::new(
                &self.logical,
                &self.routed,
                &self.initial,
                &self.last,
                self.swap_count,
            )
        }
    }

    fn honest_parts() -> Parts {
        let mut logical = Circuit::new(2);
        logical.rz(0.25, 0).cx(0, 1).rz(-0.5, 1);
        let mut routed = Circuit::new(3);
        routed.swap(1, 2).rz(0.25, 0).cx(0, 1).rz(-0.5, 1);
        Parts {
            logical,
            routed,
            initial: vec![0, 2],
            last: vec![0, 1],
            swap_count: 1,
        }
    }

    #[test]
    fn honest_routing_passes_the_audit() {
        let parts = honest_parts();
        let report = verify_routed(&parts.audit());
        assert!(!report.has_errors(), "findings:\n{}", report.render());
    }

    #[test]
    fn identity_routing_passes_the_audit() {
        let mut logical = Circuit::new(2);
        logical.h(0).cx(0, 1).measure_all();
        // The borrowed audit lets identity routing share one circuit for
        // both sides — no clone needed.
        let mapping = vec![0, 1];
        let audit = RoutingAudit::new(&logical, &logical, &mapping, &mapping, 0);
        let report = verify_routed(&audit);
        assert!(!report.has_errors(), "findings:\n{}", report.render());
    }

    // --- seeded mutations: each must be caught by V006 and only V006 ----

    fn v006_errors_only(audit: &RoutingAudit<'_>) {
        let report = verify_routed(audit);
        let mut hit: Vec<CheckId> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity >= Severity::Error)
            .map(|d| d.check)
            .collect();
        hit.sort();
        hit.dedup();
        assert_eq!(
            hit,
            vec![CheckId::ClosedDivisionAudit],
            "report:\n{}",
            report.render()
        );
    }

    #[test]
    fn v006_catches_dropped_gate() {
        let mut parts = honest_parts();
        let mut routed = Circuit::new(3);
        routed.swap(1, 2).rz(0.25, 0).cx(0, 1); // mutation: trailing rz dropped
        parts.routed = routed;
        v006_errors_only(&parts.audit());
    }

    #[test]
    fn v006_catches_tampered_rotation_angle() {
        let mut parts = honest_parts();
        let mut routed = Circuit::new(3);
        routed.swap(1, 2).rz(0.26, 0).cx(0, 1).rz(-0.5, 1); // mutation: 0.25 -> 0.26
        parts.routed = routed;
        v006_errors_only(&parts.audit());
    }

    #[test]
    fn v006_catches_misreported_swap_count() {
        let mut parts = honest_parts();
        parts.swap_count = 0; // mutation: router under-reports its swaps
        v006_errors_only(&parts.audit());
    }

    #[test]
    fn v006_statevector_probe_catches_swapped_control_and_target() {
        // Gate multiset is identical, so only the semantic probe can see
        // that cx(1, 0) is not cx(0, 1).
        let mut parts = honest_parts();
        let mut routed = Circuit::new(3);
        routed.swap(1, 2).rz(0.25, 0).cx(1, 0).rz(-0.5, 1); // mutation: flipped cx
        parts.routed = routed;
        v006_errors_only(&parts.audit());
    }

    #[test]
    fn v006_statevector_probe_catches_wrong_permutation_claim() {
        let mut parts = honest_parts();
        parts.last = vec![0, 2]; // mutation: claims qubit 1 never moved
        v006_errors_only(&parts.audit());
    }

    #[test]
    fn v006_catches_non_injective_mapping() {
        let mut parts = honest_parts();
        parts.last = vec![0, 0];
        v006_errors_only(&parts.audit());
    }

    #[test]
    fn v006_catches_mapping_length_mismatch() {
        let mut parts = honest_parts();
        parts.initial = vec![0];
        v006_errors_only(&parts.audit());
    }

    #[test]
    fn v006_catches_off_register_mapping() {
        let mut parts = honest_parts();
        parts.last = vec![0, 3];
        v006_errors_only(&parts.audit());
    }

    #[test]
    fn accounting_still_works_beyond_probe_size() {
        // 14 live wires: probe is skipped, accounting still audits.
        let n = 14;
        let mut logical = Circuit::new(n);
        for q in 0..n - 1 {
            logical.cx(q, q + 1);
        }
        let identity: Vec<usize> = (0..n).collect();
        let mut tampered = logical.clone();
        tampered.x(0); // mutation: an extra gate appears post-routing
        let audit = RoutingAudit::new(&logical, &tampered, &identity, &identity, 0);
        assert!(!probe_is_tractable(&audit));
        v006_errors_only(&audit);
    }

    #[test]
    fn tier_selection_follows_the_fallback_ladder() {
        // Non-Clifford but small: probe tier.
        let parts = honest_parts();
        assert_eq!(audit_tier(&parts.audit()), AuditTier::StatevectorProbe);

        // Clifford at any size: stabilizer tier.
        let n = 14;
        let mut logical = Circuit::new(n);
        for q in 0..n - 1 {
            logical.cx(q, q + 1);
        }
        let identity: Vec<usize> = (0..n).collect();
        let audit = RoutingAudit::new(&logical, &logical, &identity, &identity, 0);
        assert_eq!(audit_tier(&audit), AuditTier::StabilizerProof);

        // Non-Clifford and too big: skipped.
        let mut big = logical.clone();
        big.rz(0.3, 0);
        let audit = RoutingAudit::new(&big, &big, &identity, &identity, 0);
        assert_eq!(audit_tier(&audit), AuditTier::Skipped);

        // Resets disqualify both equivalence tiers.
        let mut with_reset = Circuit::new(2);
        with_reset.h(0).reset(0);
        let id = vec![0, 1];
        let audit = RoutingAudit::new(&with_reset, &with_reset, &id, &id, 0);
        assert_eq!(audit_tier(&audit), AuditTier::Skipped);
    }

    #[test]
    fn stabilizer_tier_catches_flipped_cx_beyond_probe_size() {
        // 14 live wires with identical gate multisets: only the symbolic
        // proof can catch the flipped control/target.
        let n = 14;
        let mut logical = Circuit::new(n);
        logical.h(0);
        for q in 0..n - 1 {
            logical.cx(q, q + 1);
        }
        let mut tampered = Circuit::new(n);
        tampered.h(0);
        for q in 0..n - 1 {
            if q == 7 {
                tampered.cx(q + 1, q); // mutation: one flipped cx
            } else {
                tampered.cx(q, q + 1);
            }
        }
        let identity: Vec<usize> = (0..n).collect();
        let audit = RoutingAudit::new(&logical, &tampered, &identity, &identity, 0);
        assert_eq!(audit_tier(&audit), AuditTier::StabilizerProof);
        assert!(!probe_is_tractable(&audit));
        v006_errors_only(&audit);
    }

    #[test]
    fn skipped_tier_reports_a_lint_naming_the_blockers() {
        let n = 14;
        let mut logical = Circuit::new(n);
        for q in 0..n - 1 {
            logical.cx(q, q + 1);
        }
        logical.rz(0.3, 0); // non-Clifford, and 14 wires exceed the probe
        let identity: Vec<usize> = (0..n).collect();
        let audit = RoutingAudit::new(&logical, &logical, &identity, &identity, 0);
        let report = verify_routed(&audit);
        assert!(!report.has_errors(), "findings:\n{}", report.render());
        let lint = report
            .diagnostics
            .iter()
            .find(|d| d.check == CheckId::ClosedDivisionAudit && d.severity == Severity::Lint)
            .expect("skipped tier must say so");
        assert!(lint.message.contains("not Clifford"), "{}", lint.message);
        assert!(lint.message.contains("live wires"), "{}", lint.message);
    }

    #[test]
    fn audit_pass_is_silent_without_provenance() {
        let mut c = Circuit::new(2);
        c.swap(0, 1); // a bare swap is fine when nothing was claimed
        let report = Verifier::all().verify(&crate::Context::bare(&c));
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.check != CheckId::ClosedDivisionAudit));
    }
}
