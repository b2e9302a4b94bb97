//! Corpus-wide OpenQASM round-trips: every circuit of every Table I suite
//! serializes to OpenQASM 2.0 and parses back structurally identical —
//! the paper's "benchmarks specified at the level of OpenQASM" contract,
//! enforced over hundreds of generated circuits.

use supermarq_repro::circuit::Circuit;
use supermarq_repro::core::coverage::{
    cbg2021_suite, ppl2020_suite, qasmbench_suite, supermarq_suite, triq_suite,
};
use supermarq_repro::core::FeatureVector;

fn assert_round_trips(name: &str, circuits: &[Circuit]) {
    for (i, c) in circuits.iter().enumerate() {
        let qasm = c.to_qasm();
        let back = Circuit::from_qasm(&qasm)
            .unwrap_or_else(|e| panic!("{name}[{i}] failed to parse: {e}"));
        assert_eq!(back.num_qubits(), c.num_qubits(), "{name}[{i}] width");
        assert_eq!(
            back.instructions().len(),
            c.instructions().len(),
            "{name}[{i}] instruction count"
        );
        // Feature vectors are invariant under the round trip (angles are
        // serialized with enough precision).
        let f1 = FeatureVector::of(c).as_array();
        let f2 = FeatureVector::of(&back).as_array();
        for (a, b) in f1.iter().zip(f2) {
            assert!(
                (a - b).abs() < 1e-9,
                "{name}[{i}] feature drift: {a} vs {b}"
            );
        }
    }
}

#[test]
fn supermarq_corpus_round_trips() {
    assert_round_trips("supermarq", &supermarq_suite());
}

#[test]
fn qasmbench_corpus_round_trips() {
    assert_round_trips("qasmbench", &qasmbench_suite());
}

#[test]
fn small_suite_corpora_round_trip() {
    assert_round_trips("cbg2021", &cbg2021_suite());
    assert_round_trips("triq", &triq_suite());
    assert_round_trips("ppl2020", &ppl2020_suite());
}

/// Negative corpus: malformed OpenQASM inputs must come back as parse
/// errors — never as panics and never as silently-accepted circuits. This
/// is the front door of the verifier pipeline: a hostile file reaches
/// `supermarq lint <file.qasm>` before any pass runs.
#[test]
fn malformed_qasm_errors_instead_of_panicking() {
    let cases: &[(&str, &str)] = &[
        ("missing header", "qreg q[2];\ncx q[0], q[1];\n"),
        (
            "missing qreg",
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nh q[0];\n",
        ),
        ("gate before qreg", "OPENQASM 2.0;\nh q[0];\nqreg q[2];\n"),
        ("second qreg", "OPENQASM 2.0;\nqreg q[2];\nqreg r[2];\n"),
        ("unknown gate", "OPENQASM 2.0;\nqreg q[2];\nfrob q[0];\n"),
        ("out-of-range qubit", "OPENQASM 2.0;\nqreg q[2];\nh q[5];\n"),
        (
            "duplicate operand",
            "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[0];\n",
        ),
        ("arity mismatch", "OPENQASM 2.0;\nqreg q[3];\ncx q[0];\n"),
        ("malformed index", "OPENQASM 2.0;\nqreg q[2];\nh q[x];\n"),
        (
            "truncated measure",
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[0] ->\n",
        ),
    ];
    for (label, text) in cases {
        let result = Circuit::from_qasm(text);
        assert!(
            result.is_err(),
            "{label}: expected a parse error, got {result:?}"
        );
    }
}

/// The error messages carry enough context to act on (QASM line text or
/// the structural violation), matching the diagnostics philosophy of the
/// verifier crate.
#[test]
fn qasm_errors_name_the_offense() {
    let err = Circuit::from_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[0];\n").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("duplicate") || msg.contains("q[0]"), "{msg}");
    let err = Circuit::from_qasm("OPENQASM 2.0;\nqreg q[2];\nfrob q[0];\n").unwrap_err();
    assert!(err.to_string().contains("frob"), "{err}");
}
