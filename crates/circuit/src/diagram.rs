//! Plain-text circuit diagrams.
//!
//! Renders a circuit as one wire per qubit with gates placed at their ASAP
//! layer — the quick visual check every circuit library needs:
//!
//! ```text
//! q0: ─[h]─●───────[M]─
//! q1: ─────X──●────[M]─
//! q2: ────────X────[M]─
//! ```

use crate::analysis::CircuitLayers;
use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind};

/// The body of [`Circuit::to_diagram`].
pub(crate) fn to_diagram(circuit: &Circuit) -> String {
    let n = circuit.num_qubits();
    if n == 0 {
        return String::new();
    }
    let layers = CircuitLayers::of(circuit);
    let instrs = circuit.instructions();
    // Column text per qubit per layer.
    let mut columns: Vec<Vec<String>> = Vec::new();
    for layer in layers.layers() {
        let mut col = vec![String::new(); n];
        for &i in layer {
            let instr = &instrs[i];
            match instr.gate.kind() {
                GateKind::OneQubitUnitary => {
                    col[instr.qubits[0]] = format!("[{}]", short_name(&instr.gate));
                }
                GateKind::TwoQubitUnitary => {
                    let (a, b) = (instr.qubits[0], instr.qubits[1]);
                    match instr.gate {
                        Gate::Cx => {
                            col[a] = "●".to_string();
                            col[b] = "X".to_string();
                        }
                        Gate::Cz => {
                            col[a] = "●".to_string();
                            col[b] = "●".to_string();
                        }
                        Gate::Swap => {
                            col[a] = "x".to_string();
                            col[b] = "x".to_string();
                        }
                        ref g => {
                            let name = short_name(g);
                            col[a] = format!("[{name}a]");
                            col[b] = format!("[{name}b]");
                        }
                    }
                }
                GateKind::Measurement => col[instr.qubits[0]] = "[M]".to_string(),
                GateKind::Reset => col[instr.qubits[0]] = "[R]".to_string(),
                GateKind::Barrier => {}
            }
        }
        columns.push(col);
    }
    // Pad columns to uniform width and join with wire segments.
    let widths: Vec<usize> = columns
        .iter()
        .map(|col| col.iter().map(String::len).max().unwrap_or(0).max(1))
        .collect();
    let label_width = format!("q{}", n - 1).len();
    let mut out = String::new();
    for q in 0..n {
        let mut line = format!("{:<label_width$}: ─", format!("q{q}"));
        for (col, &w) in columns.iter().zip(&widths) {
            let cell = &col[q];
            let pad = w - cell.chars().count().min(w);
            if cell.is_empty() {
                line.push_str(&"─".repeat(w));
            } else {
                line.push_str(cell);
                line.push_str(&"─".repeat(pad));
            }
            line.push('─');
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// A compact mnemonic for diagram cells.
fn short_name(gate: &Gate) -> String {
    match gate {
        Gate::Rx(t) => format!("rx({t:.2})"),
        Gate::Ry(t) => format!("ry({t:.2})"),
        Gate::Rz(t) => format!("rz({t:.2})"),
        Gate::P(t) => format!("p({t:.2})"),
        Gate::U(a, b, c) => format!("u({a:.1},{b:.1},{c:.1})"),
        Gate::Cp(t) => format!("cp({t:.2})"),
        Gate::Rxx(t) => format!("rxx({t:.2})"),
        Gate::Ryy(t) => format!("ryy({t:.2})"),
        Gate::Rzz(t) => format!("rzz({t:.2})"),
        g => g.qasm_name().to_string(),
    }
}

impl Circuit {
    /// Renders the circuit as an ASCII diagram, one line per qubit.
    ///
    /// Controlled gates draw `●` on the control wire; CX targets draw `X`, CZ
    /// draws `●` on both wires; other two-qubit gates draw their mnemonic on
    /// both wires. Measurement is `[M]`, reset `[R]`, barriers a `|` column.
    ///
    /// # Example
    ///
    /// ```
    /// use supermarq_circuit::Circuit;
    ///
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(0, 1).measure_all();
    /// let d = c.to_diagram();
    /// assert!(d.contains("[h]"));
    /// assert!(d.contains("[M]"));
    /// ```
    pub fn to_diagram(&self) -> String {
        to_diagram(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_diagram_shape() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let d = c.to_diagram();
        let lines: Vec<&str> = d.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("q0:"));
        assert!(lines[0].contains("[h]"));
        assert!(lines[0].contains("●"));
        assert!(lines[1].contains("X"));
        assert!(lines[2].contains("[M]"));
    }

    #[test]
    fn rotations_show_angles() {
        let mut c = Circuit::new(1);
        c.rz(0.5, 0);
        assert!(c.to_diagram().contains("rz(0.50)"));
    }

    #[test]
    fn swap_and_cz_symbols() {
        let mut c = Circuit::new(2);
        c.swap(0, 1).cz(0, 1);
        let d = c.to_diagram();
        assert!(d.contains('x'));
        assert!(d.lines().all(|l| l.contains('●') || !l.contains("[")));
    }

    #[test]
    fn reset_cell() {
        let mut c = Circuit::new(1);
        c.x(0).reset(0);
        assert!(c.to_diagram().contains("[R]"));
    }

    #[test]
    fn empty_and_zero_qubit_circuits() {
        assert!(Circuit::new(0).to_diagram().is_empty());
        let d = Circuit::new(2).to_diagram();
        assert_eq!(d.lines().count(), 2);
    }

    #[test]
    fn wide_register_labels_align() {
        let mut c = Circuit::new(11);
        c.h(0).h(10);
        let d = c.to_diagram();
        let lines: Vec<&str> = d.lines().collect();
        // All lines begin the wire at the same column.
        let starts: std::collections::BTreeSet<usize> =
            lines.iter().map(|l| l.find('─').unwrap()).collect();
        assert_eq!(starts.len(), 1, "{d}");
    }
}
