//! Scale acceptance for the stabilizer tier: a 200-qubit Clifford mirror
//! circuit is proven equivalent post-routing in under a second — far past
//! anything a statevector could touch.

use std::time::Instant;

use supermarq_circuit::Circuit;
use supermarq_device::{Calibration, Device, NativeGateSet, Topology};
use supermarq_transpile::{PipelineId, Transpiler};
use supermarq_verify::{audit_tier, AuditTier, RoutingAudit, StabilizerVerdict};

const N: usize = 200;

fn line_device(n: usize) -> Device {
    let edges: Vec<(usize, usize)> = (0..n - 1).map(|q| (q, q + 1)).collect();
    let topo = Topology::from_edges("line200", n, &edges);
    let cal = Calibration::from_table_row(100.0, 100.0, 0.03, 0.4, 5.0, 0.05, 1.0, 2.0);
    Device::new("line200", topo, cal, NativeGateSet::IbmLike, 0.0)
}

/// A Clifford mirror: an H/S wall with a CX brick pattern, then its exact
/// inverse, measured at the end. Line-adjacent entanglers keep routing
/// honest but cheap at this size.
fn mirror(n: usize) -> Circuit {
    let mut half = Circuit::new(n);
    for layer in 0..3 {
        for q in 0..n {
            if (q + layer) % 2 == 0 {
                half.h(q);
            } else {
                half.s(q);
            }
        }
        for q in (layer % 2..n - 1).step_by(2) {
            half.cx(q, q + 1);
        }
    }
    let mut c = half.clone();
    let inverse = half.adjoint().expect("unitary circuit has an adjoint");
    c.extend_from(&inverse);
    c.measure_all();
    c
}

#[test]
fn two_hundred_qubit_mirror_is_proven_post_routing_under_a_second() {
    let device = line_device(N);
    let c = mirror(N);
    let r = Transpiler::for_device(&device)
        .with_pipeline(PipelineId::ClosedStages) // interleaved verify incl. tiered V006
        .run(&c)
        .expect("pipeline must verify clean");

    // The audit of the *final* output must sit on the symbolic tier and
    // prove equivalence — and do it fast.
    let audit = RoutingAudit::new(
        &c,
        &r.circuit,
        &r.initial_mapping,
        &r.final_mapping,
        r.swap_count,
    );
    assert_eq!(audit_tier(&audit), AuditTier::StabilizerProof);

    let start = Instant::now();
    let verdict = supermarq_verify::prove_permutation_equivalence(
        &c,
        &r.circuit,
        &r.initial_mapping,
        &r.final_mapping,
    );
    let elapsed = start.elapsed();
    assert_eq!(verdict, StabilizerVerdict::Proven);
    assert!(
        elapsed.as_secs_f64() < 1.0,
        "stabilizer proof took {elapsed:?} at {N} qubits"
    );
}

#[test]
fn scale_tamper_is_refuted_symbolically() {
    let device = line_device(N);
    let c = mirror(N);
    let r = Transpiler::for_device(&device).run(&c).unwrap();
    let mut tampered = r.circuit.clone();
    tampered.z(r.initial_mapping[N / 2]);
    let verdict = supermarq_verify::prove_permutation_equivalence(
        &c,
        &tampered,
        &r.initial_mapping,
        &r.final_mapping,
    );
    assert!(
        matches!(verdict, StabilizerVerdict::Refuted { .. }),
        "{verdict:?}"
    );
}
