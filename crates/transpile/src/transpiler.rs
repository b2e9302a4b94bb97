//! The end-to-end transpilation pipeline, as a pass-manager run.

use supermarq_circuit::Circuit;
use supermarq_device::Device;
use supermarq_obs::Span;
use supermarq_sim::Counts;
use supermarq_verify::Diagnostic;

use crate::pass::{run_pass, PassContext};
use crate::pipeline::PipelineId;
use crate::placement::PlacementStrategy;
use crate::routing::RouteError;

/// Errors from transpilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranspileError {
    /// The circuit needs more qubits than the device has (the "black X"
    /// cases of the paper's Fig. 2).
    TooManyQubits { needed: usize, available: usize },
    /// Routing failed (malformed mapping or disconnected topology).
    Routing(RouteError),
    /// A verification pass found error-level diagnostics after `stage`.
    /// Replaces the `debug_assert!` that used to guard the pipeline output:
    /// the check now runs in release builds too and reports *what* broke.
    Verification {
        /// Pipeline stage after which verification failed.
        stage: &'static str,
        /// Every diagnostic the verifier produced (not just the errors).
        diagnostics: Vec<Diagnostic>,
    },
}

impl std::fmt::Display for TranspileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranspileError::TooManyQubits { needed, available } => {
                write!(f, "circuit needs {needed} qubits, device has {available}")
            }
            TranspileError::Routing(e) => write!(f, "routing failed: {e}"),
            TranspileError::Verification { stage, diagnostics } => {
                let errors: Vec<&Diagnostic> = diagnostics
                    .iter()
                    .filter(|d| d.severity == supermarq_verify::Severity::Error)
                    .collect();
                write!(
                    f,
                    "verification failed after {stage}: {} error(s)",
                    errors.len()
                )?;
                if let Some(first) = errors.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for TranspileError {}

impl From<RouteError> for TranspileError {
    fn from(e: RouteError) -> Self {
        TranspileError::Routing(e)
    }
}

/// Output of [`Transpiler::run`].
#[derive(Debug, Clone)]
pub struct TranspileResult {
    /// The final physical circuit in the device's native gate set.
    pub circuit: Circuit,
    /// Program-to-physical mapping at circuit start.
    pub initial_mapping: Vec<usize>,
    /// Program-to-physical mapping after execution.
    pub final_mapping: Vec<usize>,
    /// SWAPs inserted by routing (before native decomposition).
    pub swap_count: usize,
    /// Two-qubit gate count of the final native circuit.
    pub two_qubit_gates: usize,
    /// ASAP-schedule depth of the final native circuit.
    pub depth: usize,
    /// For each program qubit, where its last measurement landed.
    pub measured_on: Vec<Option<usize>>,
}

impl TranspileResult {
    /// The circuit to execute and its readout map: the physical circuit
    /// compacted to the wires it touches, and for each program qubit the
    /// compacted wire its last measurement landed on (`None` if never
    /// measured). [`relabel_counts`] with that map puts the executed
    /// outcomes back in program-qubit order.
    pub fn compacted(&self) -> (Circuit, Vec<Option<usize>>) {
        let (circuit, phys_to_dense) = self.circuit.compacted();
        let readout = self
            .measured_on
            .iter()
            .map(|m| m.map(|p| phys_to_dense[p].expect("measured qubit is used")))
            .collect();
        (circuit, readout)
    }

    /// Builds the result from a finished pipeline context: the final
    /// circuit with its depth and two-qubit gate count, and the mappings
    /// of its [`Layout`](crate::pass::Layout).
    fn from_context(ctx: PassContext<'_>) -> TranspileResult {
        let (circuit, layout, swap_count) = ctx.into_parts();
        let depth = circuit.depth();
        let two_qubit_gates = circuit.two_qubit_gate_count();
        TranspileResult {
            circuit,
            initial_mapping: layout.initial,
            final_mapping: layout.current,
            swap_count,
            two_qubit_gates,
            depth,
            measured_on: layout.measured_on,
        }
    }
}

/// Relabels a histogram into program-qubit order: bit `readout[q]` of
/// every outcome becomes bit `q`, and a program qubit mapped to `None`
/// reads 0. One histogram update per outcome, not one per shot.
pub fn relabel_counts(counts: &Counts, readout: &[Option<usize>]) -> Counts {
    let mut out = Counts::new(readout.len());
    for (bits, count) in counts.iter() {
        let relabeled = readout
            .iter()
            .enumerate()
            .filter_map(|(q, wire)| wire.map(|w| (bits >> w & 1) << q))
            .fold(0, |acc, bit| acc | bit);
        out.record_n(relabeled, count);
    }
    out
}

/// The Closed-Division transpiler: placement, routing, native
/// decomposition, fusion and cancellation, run as one of the built-in
/// [`PipelineId`] pass lists.
///
/// # Example
///
/// ```
/// use supermarq_circuit::Circuit;
/// use supermarq_device::Device;
/// use supermarq_transpile::Transpiler;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1).measure_all();
/// let r = Transpiler::for_device(&Device::ionq()).run(&c).unwrap();
/// assert_eq!(r.swap_count, 0); // all-to-all device never swaps
/// ```
#[derive(Debug, Clone)]
pub struct Transpiler {
    device: Device,
    placement: PlacementStrategy,
    pipeline: PipelineId,
}

impl Transpiler {
    /// A transpiler for `device` with default settings: greedy placement
    /// and the `closed-default` pipeline (optimizations on, final-output
    /// verification).
    pub fn for_device(device: &Device) -> Self {
        Transpiler {
            device: device.clone(),
            placement: PlacementStrategy::default(),
            pipeline: PipelineId::default(),
        }
    }

    /// Selects the placement strategy.
    pub fn with_placement(mut self, placement: PlacementStrategy) -> Self {
        self.placement = placement;
        self
    }

    /// Selects the built-in pipeline [`run`](Self::run) executes.
    pub fn with_pipeline(mut self, pipeline: PipelineId) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// The pipeline [`run`](Self::run) executes.
    pub fn pipeline_id(&self) -> PipelineId {
        self.pipeline
    }

    /// Runs the full pipeline on a logical circuit.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::TooManyQubits`] when the circuit does not
    /// fit on the device, [`TranspileError::Routing`] when no legal SWAP
    /// schedule exists, and [`TranspileError::Verification`] when a verify
    /// pass in the selected pipeline finds error-grade diagnostics.
    pub fn run(&self, circuit: &Circuit) -> Result<TranspileResult, TranspileError> {
        Ok(TranspileResult::from_context(
            self.run_with_context(circuit)?,
        ))
    }

    /// Like [`run`](Self::run), but returns the finished [`PassContext`]
    /// so callers (tests, analyses) can inspect the final layout and the
    /// accumulated diagnostics.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with_context(&self, circuit: &Circuit) -> Result<PassContext<'_>, TranspileError> {
        let needed = circuit.num_qubits();
        let available = self.device.num_qubits();
        if needed > available {
            return Err(TranspileError::TooManyQubits { needed, available });
        }
        let mut run_span = Span::open("transpile.run").with("qubits", needed);
        run_span.record_with("device", || self.device.name().to_string());
        run_span.record("pipeline", self.pipeline.as_str());
        let mut ctx = PassContext::new(
            &self.device,
            self.placement,
            circuit.clone(),
            self.pipeline.needs_route_snapshot(),
        );
        for pass in self.pipeline.passes() {
            run_pass(pass, &mut ctx)?;
        }
        run_span.record("swaps_added", ctx.swap_count());
        Ok(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_device::NativeGateSet;
    use supermarq_sim::Executor;
    use supermarq_verify::is_native;

    fn ghz(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        c.measure_all();
        c
    }

    #[test]
    fn output_is_native_and_fits_topology() {
        for device in Device::all_paper_devices() {
            let c = ghz(4.min(device.num_qubits()));
            let r = Transpiler::for_device(&device).run(&c).unwrap();
            for instr in r.circuit.iter() {
                assert!(
                    is_native(&instr.gate, device.gate_set()),
                    "{}: {:?} not native",
                    device.name(),
                    instr.gate
                );
                if instr.is_two_qubit() {
                    assert!(
                        device
                            .topology()
                            .are_adjacent(instr.qubits[0], instr.qubits[1]),
                        "{}: non-adjacent 2q gate",
                        device.name()
                    );
                }
            }
        }
    }

    #[test]
    fn ghz_distribution_survives_transpilation() {
        for device in [Device::ibm_casablanca(), Device::ionq(), Device::aqt()] {
            let c = ghz(4);
            let r = Transpiler::for_device(&device).run(&c).unwrap();
            let (circuit, readout) = r.compacted();
            let counts = Executor::noiseless().run(&circuit, 2000, 23);
            let relabeled = relabel_counts(&counts, &readout);
            let good = relabeled.count(0) + relabeled.count(0b1111);
            assert_eq!(good, 2000, "{}: {relabeled}", device.name());
            let p0 = relabeled.probability(0);
            assert!((p0 - 0.5).abs() < 0.05, "{}: p0={p0}", device.name());
        }
    }

    #[test]
    fn relabel_counts_maps_readout_wires_to_program_order() {
        // Wire 2 -> program bit 0, wire 0 -> program bit 1, program
        // qubit 2 never measured; one histogram entry per outcome.
        let counts = Counts::from_pairs(3, [(0b100, 1), (0b001, 2), (0b101, 3), (0b010, 4)]);
        let relabeled = relabel_counts(&counts, &[Some(2), Some(0), None]);
        assert_eq!(
            relabeled,
            Counts::from_pairs(3, [(0b01, 1), (0b10, 2), (0b11, 3), (0b00, 4)])
        );
    }

    #[test]
    fn compacted_readout_points_at_dense_wires() {
        // A 2-qubit circuit placed on a 27-qubit lattice executes on two
        // dense wires, and each program qubit reads the wire it landed on.
        let mut c = Circuit::new(2);
        c.x(1).cx(1, 0).measure_all();
        let r = Transpiler::for_device(&Device::ibm_montreal())
            .run(&c)
            .unwrap();
        let (circuit, readout) = r.compacted();
        assert_eq!(circuit.num_qubits(), 2);
        let mut wires: Vec<usize> = readout.iter().flatten().copied().collect();
        wires.sort_unstable();
        assert_eq!(wires, [0, 1]);
        let counts = Executor::noiseless().run(&circuit, 50, 3);
        assert_eq!(relabel_counts(&counts, &readout).count(0b11), 50);
    }

    #[test]
    fn oversized_circuit_is_rejected() {
        let c = ghz(8);
        let err = Transpiler::for_device(&Device::ibm_casablanca())
            .run(&c)
            .unwrap_err();
        assert_eq!(
            err,
            TranspileError::TooManyQubits {
                needed: 8,
                available: 7
            }
        );
    }

    #[test]
    fn stage_verification_accepts_honest_pipeline() {
        for device in Device::all_paper_devices() {
            let c = ghz(4.min(device.num_qubits()));
            let r = Transpiler::for_device(&device)
                .with_pipeline(PipelineId::ClosedStages)
                .run(&c);
            assert!(r.is_ok(), "{}: {:?}", device.name(), r.err());
        }
    }

    #[test]
    fn disconnected_device_reports_routing_error() {
        use supermarq_device::{Calibration, NativeGateSet, Topology};
        let topo = Topology::from_edges("split", 4, &[(0, 1), (2, 3)]);
        let cal = Calibration::from_table_row(100.0, 100.0, 0.03, 0.4, 5.0, 0.05, 1.0, 2.0);
        let device = Device::new("split", topo, cal, NativeGateSet::IbmLike, 0.0);
        // An all-pairs circuit cannot stay inside one component.
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(1, 2).cx(2, 3).cx(0, 3);
        let err = Transpiler::for_device(&device)
            .with_placement(PlacementStrategy::Trivial)
            .run(&c)
            .unwrap_err();
        assert!(
            matches!(
                err,
                TranspileError::Routing(RouteError::Disconnected { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn verify_off_still_produces_native_output() {
        let device = Device::ibm_casablanca();
        let c = ghz(4);
        let r = Transpiler::for_device(&device)
            .with_pipeline(PipelineId::ClosedUnverified)
            .run(&c)
            .unwrap();
        assert!(r
            .circuit
            .iter()
            .all(|i| is_native(&i.gate, device.gate_set())));
    }

    #[test]
    fn verification_error_renders_stage_and_first_diagnostic() {
        use supermarq_verify::{CheckId, Diagnostic, Severity};
        let err = TranspileError::Verification {
            stage: "route",
            diagnostics: vec![Diagnostic::at(
                CheckId::CouplingMap,
                Severity::Error,
                3,
                "cx on (0, 4)",
            )],
        };
        let rendered = err.to_string();
        assert!(rendered.contains("after route"), "{rendered}");
        assert!(rendered.contains("V005"), "{rendered}");
    }

    #[test]
    fn all_to_all_connectivity_avoids_swaps() {
        // Complete-graph circuit: zero swaps on IonQ, nonzero on IBM line-ish
        // lattices — the paper's central connectivity finding.
        let n = 5;
        let mut c = Circuit::new(n);
        for a in 0..n {
            for b in a + 1..n {
                c.rzz(0.4, a, b);
            }
        }
        c.measure_all();
        let ion = Transpiler::for_device(&Device::ionq()).run(&c).unwrap();
        assert_eq!(ion.swap_count, 0);
        let ibm = Transpiler::for_device(&Device::ibm_casablanca())
            .run(&c)
            .unwrap();
        assert!(ibm.swap_count > 0, "expected swaps on sparse topology");
    }

    #[test]
    fn greedy_placement_beats_trivial_on_offset_chain() {
        // A chain interacting as 0-2, 2-4, 4-6 (even qubits only): trivial
        // placement wastes topology, greedy should use fewer or equal swaps.
        let mut c = Circuit::new(7);
        c.cx(0, 2).cx(2, 4).cx(4, 6);
        let device = Device::ibm_casablanca();
        let greedy = Transpiler::for_device(&device).run(&c).unwrap();
        let trivial = Transpiler::for_device(&device)
            .with_placement(PlacementStrategy::Trivial)
            .run(&c)
            .unwrap();
        assert!(greedy.swap_count <= trivial.swap_count);
        assert_eq!(greedy.swap_count, 0);
    }

    #[test]
    fn optimization_reduces_or_preserves_gate_count() {
        let mut c = Circuit::new(3);
        c.h(0)
            .h(0)
            .cx(0, 1)
            .cx(0, 1)
            .rz(0.5, 2)
            .rz(-0.5, 2)
            .h(2)
            .cx(1, 2)
            .measure_all();
        let device = Device::ibm_montreal();
        let optimized = Transpiler::for_device(&device).run(&c).unwrap();
        let raw = Transpiler::for_device(&device)
            .with_pipeline(PipelineId::NoOptimize)
            .run(&c)
            .unwrap();
        assert!(optimized.circuit.gate_count() <= raw.circuit.gate_count());
        assert!(optimized.two_qubit_gates <= raw.two_qubit_gates);
    }

    #[test]
    fn reset_and_mid_circuit_measure_pass_through() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).measure(1).reset(1).cx(1, 2).measure_all();
        let r = Transpiler::for_device(&Device::ibm_guadalupe())
            .run(&c)
            .unwrap();
        assert!(r.circuit.reset_count() >= 1);
        assert!(r.circuit.measurement_count() >= 4);
        assert!(r
            .circuit
            .iter()
            .all(|i| is_native(&i.gate, NativeGateSet::IbmLike)));
    }

    #[test]
    fn semantics_preserved_on_random_circuits_across_devices() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        for device in [Device::ibm_casablanca(), Device::ionq(), Device::aqt()] {
            let n = 4.min(device.num_qubits());
            let mut c = Circuit::new(n);
            for _ in 0..12 {
                match rng.gen_range(0..3) {
                    0 => {
                        c.ry(rng.gen_range(-3.0..3.0), rng.gen_range(0..n));
                    }
                    1 => {
                        c.rz(rng.gen_range(-3.0..3.0), rng.gen_range(0..n));
                    }
                    _ => {
                        let a = rng.gen_range(0..n);
                        let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
                        if a != b {
                            c.cx(a, b);
                        }
                    }
                }
            }
            c.measure_all();
            let r = Transpiler::for_device(&device).run(&c).unwrap();
            let ideal = Executor::noiseless().run(&c, 3000, 31);
            let (circuit, readout) = r.compacted();
            let phys = Executor::noiseless().run(&circuit, 3000, 31);
            let relabeled = relabel_counts(&phys, &readout);
            // Compare total-variation distance of the two histograms.
            let mut tv = 0.0;
            for k in 0..(1u64 << n) {
                tv += (ideal.probability(k) - relabeled.probability(k)).abs();
            }
            tv /= 2.0;
            assert!(tv < 0.05, "{}: tv={tv}", device.name());
        }
    }

    #[test]
    fn context_exposes_layout_and_diagnostics() {
        let device = Device::ibm_casablanca();
        let c = ghz(4);
        let t = Transpiler::for_device(&device).with_pipeline(PipelineId::ClosedStages);
        let ctx = t.run_with_context(&c).unwrap();
        assert_eq!(ctx.layout().initial.len(), 4);
        assert_eq!(ctx.layout().measured_on.iter().flatten().count(), 4);
        // Stage verification ran clean: no error-grade diagnostics stuck.
        assert!(ctx
            .diagnostics()
            .iter()
            .all(|d| d.severity != supermarq_verify::Severity::Error));
    }

    #[test]
    fn result_matches_context_fields() {
        let device = Device::ibm_montreal();
        let c = ghz(5);
        let t = Transpiler::for_device(&device);
        let ctx = t.run_with_context(&c).unwrap();
        let (circuit, layout, swaps) = ctx.into_parts();
        let r = t.run(&c).unwrap();
        assert_eq!(r.circuit, circuit);
        assert_eq!(r.initial_mapping, layout.initial);
        assert_eq!(r.final_mapping, layout.current);
        assert_eq!(r.measured_on, layout.measured_on);
        assert_eq!(r.swap_count, swaps);
        assert_eq!(r.depth, circuit.depth());
        assert_eq!(r.two_qubit_gates, circuit.two_qubit_gate_count());
    }
}
