//! OpenQASM 2.0 export and import.
//!
//! SupermarQ's benchmarks are "specified at the level of OpenQASM" (paper
//! Sec. IV contribution list), so every circuit in this workspace can be
//! serialized to OpenQASM 2.0 text and parsed back. The parser supports the
//! subset of OpenQASM 2.0 that the emitter produces (single `qreg`/`creg`,
//! `qelib1.inc` gates, `measure`, `reset`, `barrier`), which is sufficient
//! for round-tripping every benchmark in the suite.

use crate::circuit::Circuit;
use crate::gate::Gate;

impl Circuit {
    /// Serializes the circuit to OpenQASM 2.0.
    ///
    /// # Example
    ///
    /// ```
    /// use supermarq_circuit::Circuit;
    ///
    /// let mut c = Circuit::new(2);
    /// c.h(0).cx(0, 1).measure_all();
    /// let qasm = c.to_qasm();
    /// assert!(qasm.starts_with("OPENQASM 2.0;"));
    /// let back = Circuit::from_qasm(&qasm).unwrap();
    /// assert_eq!(c, back);
    /// ```
    pub fn to_qasm(&self) -> String {
        let mut out = String::new();
        out.push_str("OPENQASM 2.0;\n");
        out.push_str("include \"qelib1.inc\";\n");
        out.push_str(&format!("qreg q[{}];\n", self.num_qubits()));
        out.push_str(&format!("creg c[{}];\n", self.num_qubits()));
        for instr in self.iter() {
            match instr.gate {
                Gate::Measure => {
                    let q = instr.qubits[0];
                    out.push_str(&format!("measure q[{q}] -> c[{q}];\n"));
                }
                Gate::Reset => {
                    out.push_str(&format!("reset q[{}];\n", instr.qubits[0]));
                }
                Gate::Barrier => {
                    let ops: Vec<String> = instr.qubits.iter().map(|q| format!("q[{q}]")).collect();
                    out.push_str(&format!("barrier {};\n", ops.join(",")));
                }
                gate => {
                    let params = gate.params();
                    let name = gate.qasm_name();
                    let ops: Vec<String> = instr.qubits.iter().map(|q| format!("q[{q}]")).collect();
                    if params.is_empty() {
                        out.push_str(&format!("{} {};\n", name, ops.join(",")));
                    } else {
                        let ps: Vec<String> = params.iter().map(|p| format!("{p:.15e}")).collect();
                        out.push_str(&format!("{}({}) {};\n", name, ps.join(","), ops.join(",")));
                    }
                }
            }
        }
        out
    }

    /// Parses a circuit from OpenQASM 2.0 text.
    ///
    /// # Errors
    ///
    /// Returns [`ParseQasmError`] on malformed input or on statements
    /// outside the supported subset (see module docs).
    pub fn from_qasm(text: &str) -> Result<Circuit, ParseQasmError> {
        parse_qasm(text)
    }
}

/// Error type for OpenQASM parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQasmError {
    /// 1-based statement number (semicolon-delimited) the error occurred at.
    pub statement: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "qasm parse error at statement {}: {}",
            self.statement, self.message
        )
    }
}

impl std::error::Error for ParseQasmError {}

fn err(statement: usize, message: impl Into<String>) -> ParseQasmError {
    ParseQasmError {
        statement,
        message: message.into(),
    }
}

/// Strips `//` comments from a line.
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Evaluates a restricted arithmetic parameter expression: floats, `pi`,
/// unary minus, `*`, `/`, `+`, `-` and parentheses.
fn eval_expr(s: &str, statement: usize) -> Result<f64, ParseQasmError> {
    let tokens = tokenize_expr(s, statement)?;
    let mut pos = 0;
    let v = parse_add(&tokens, &mut pos, statement)?;
    if pos != tokens.len() {
        return Err(err(
            statement,
            format!("trailing tokens in expression '{s}'"),
        ));
    }
    Ok(v)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Op(char),
}

fn tokenize_expr(s: &str, statement: usize) -> Result<Vec<Tok>, ParseQasmError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = s.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_ascii_digit() || c == '.' {
            let start = i;
            while i < chars.len()
                && (chars[i].is_ascii_digit()
                    || chars[i] == '.'
                    || chars[i] == 'e'
                    || chars[i] == 'E'
                    || ((chars[i] == '+' || chars[i] == '-')
                        && i > start
                        && (chars[i - 1] == 'e' || chars[i - 1] == 'E')))
            {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            let v = text
                .parse::<f64>()
                .map_err(|_| err(statement, format!("bad number '{text}'")))?;
            tokens.push(Tok::Num(v));
        } else if c.is_alphabetic() {
            let start = i;
            while i < chars.len() && chars[i].is_alphanumeric() {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            if word == "pi" {
                tokens.push(Tok::Num(std::f64::consts::PI));
            } else {
                return Err(err(statement, format!("unknown identifier '{word}'")));
            }
        } else if "+-*/()".contains(c) {
            tokens.push(Tok::Op(c));
            i += 1;
        } else {
            return Err(err(statement, format!("unexpected character '{c}'")));
        }
    }
    Ok(tokens)
}

fn parse_add(tokens: &[Tok], pos: &mut usize, st: usize) -> Result<f64, ParseQasmError> {
    let mut v = parse_mul(tokens, pos, st)?;
    while let Some(Tok::Op(op @ ('+' | '-'))) = tokens.get(*pos) {
        let op = *op;
        *pos += 1;
        let rhs = parse_mul(tokens, pos, st)?;
        v = if op == '+' { v + rhs } else { v - rhs };
    }
    Ok(v)
}

fn parse_mul(tokens: &[Tok], pos: &mut usize, st: usize) -> Result<f64, ParseQasmError> {
    let mut v = parse_unary(tokens, pos, st)?;
    while let Some(Tok::Op(op @ ('*' | '/'))) = tokens.get(*pos) {
        let op = *op;
        *pos += 1;
        let rhs = parse_unary(tokens, pos, st)?;
        v = if op == '*' { v * rhs } else { v / rhs };
    }
    Ok(v)
}

fn parse_unary(tokens: &[Tok], pos: &mut usize, st: usize) -> Result<f64, ParseQasmError> {
    match tokens.get(*pos) {
        Some(Tok::Op('-')) => {
            *pos += 1;
            Ok(-parse_unary(tokens, pos, st)?)
        }
        Some(Tok::Op('+')) => {
            *pos += 1;
            parse_unary(tokens, pos, st)
        }
        Some(Tok::Op('(')) => {
            *pos += 1;
            let v = parse_add(tokens, pos, st)?;
            match tokens.get(*pos) {
                Some(Tok::Op(')')) => {
                    *pos += 1;
                    Ok(v)
                }
                _ => Err(err(st, "expected ')'")),
            }
        }
        Some(Tok::Num(v)) => {
            let v = *v;
            *pos += 1;
            Ok(v)
        }
        _ => Err(err(st, "expected expression")),
    }
}

/// Parses `q[3]` into `3`, checking the register name.
fn parse_operand(text: &str, reg: &str, statement: usize) -> Result<usize, ParseQasmError> {
    let text = text.trim();
    let open = text
        .find('[')
        .ok_or_else(|| err(statement, format!("expected indexed operand, got '{text}'")))?;
    let close = text
        .find(']')
        .ok_or_else(|| err(statement, format!("missing ']' in '{text}'")))?;
    let name = &text[..open];
    if name != reg {
        return Err(err(
            statement,
            format!("unknown register '{name}' (expected '{reg}')"),
        ));
    }
    text[open + 1..close]
        .trim()
        .parse::<usize>()
        .map_err(|_| err(statement, format!("bad index in '{text}'")))
}

fn parse_qasm(text: &str) -> Result<Circuit, ParseQasmError> {
    // Join lines, strip comments, split on ';'.
    let joined: String = text
        .lines()
        .map(strip_comment)
        .collect::<Vec<_>>()
        .join("\n");
    let statements: Vec<String> = joined
        .split(';')
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
        .filter(|s| !s.is_empty())
        .collect();

    let mut circuit: Option<Circuit> = None;
    let mut qreg_name = String::from("q");
    let mut creg_name = String::from("c");
    let mut header_seen = false;

    for (idx, stmt) in statements.iter().enumerate() {
        let st = idx + 1;
        if stmt.starts_with("OPENQASM") {
            header_seen = true;
            continue;
        }
        if stmt.starts_with("include") {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("qreg ") {
            let open = rest.find('[').ok_or_else(|| err(st, "malformed qreg"))?;
            let close = rest.find(']').ok_or_else(|| err(st, "malformed qreg"))?;
            qreg_name = rest[..open].trim().to_string();
            let n: usize = rest[open + 1..close]
                .trim()
                .parse()
                .map_err(|_| err(st, "bad qreg size"))?;
            if circuit.is_some() {
                return Err(err(st, "multiple qreg declarations are not supported"));
            }
            circuit = Some(Circuit::new(n));
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("creg ") {
            let open = rest.find('[').ok_or_else(|| err(st, "malformed creg"))?;
            creg_name = rest[..open].trim().to_string();
            continue;
        }

        let circ = circuit
            .as_mut()
            .ok_or_else(|| err(st, "gate statement before qreg declaration"))?;

        if let Some(rest) = stmt.strip_prefix("measure ") {
            let parts: Vec<&str> = rest.split("->").collect();
            if parts.len() != 2 {
                return Err(err(st, "malformed measure statement"));
            }
            let q = parse_operand(parts[0], &qreg_name, st)?;
            let _c = parse_operand(parts[1], &creg_name, st)?;
            circ.push(Gate::Measure, &[q])
                .map_err(|e| err(st, e.to_string()))?;
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("reset ") {
            let q = parse_operand(rest, &qreg_name, st)?;
            circ.push(Gate::Reset, &[q])
                .map_err(|e| err(st, e.to_string()))?;
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("barrier ") {
            let qubits: Result<Vec<usize>, _> = rest
                .split(',')
                .map(|op| parse_operand(op, &qreg_name, st))
                .collect();
            circ.push(Gate::Barrier, &qubits?)
                .map_err(|e| err(st, e.to_string()))?;
            continue;
        }

        // General gate statement: name[(params)] operands. The parameter
        // list may itself contain spaces, so split at the first space that
        // occurs outside parentheses.
        let mut split_at = None;
        let mut paren_depth = 0usize;
        for (i, ch) in stmt.char_indices() {
            match ch {
                '(' => paren_depth += 1,
                ')' => paren_depth = paren_depth.saturating_sub(1),
                ' ' if paren_depth == 0 => {
                    split_at = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let (head, operands_text) = match split_at {
            Some(pos) => (&stmt[..pos], &stmt[pos + 1..]),
            None => return Err(err(st, format!("malformed statement '{stmt}'"))),
        };
        let (name, params) = match head.find('(') {
            Some(open) => {
                let close = head
                    .rfind(')')
                    .ok_or_else(|| err(st, "missing ')' in gate params"))?;
                let params: Result<Vec<f64>, _> = head[open + 1..close]
                    .split(',')
                    .map(|p| eval_expr(p, st))
                    .collect();
                (&head[..open], params?)
            }
            None => (head, Vec::new()),
        };
        let qubits: Result<Vec<usize>, _> = operands_text
            .split(',')
            .map(|op| parse_operand(op, &qreg_name, st))
            .collect();
        let qubits = qubits?;
        let gate = gate_from_name(name, &params).ok_or_else(|| {
            err(
                st,
                format!("unsupported gate '{name}' with {} params", params.len()),
            )
        })?;
        circ.push(gate, &qubits)
            .map_err(|e| err(st, e.to_string()))?;
    }

    if !header_seen {
        return Err(err(0, "missing OPENQASM header"));
    }
    circuit.ok_or_else(|| err(0, "missing qreg declaration"))
}

/// Maps an OpenQASM gate mnemonic plus parameters to a [`Gate`].
fn gate_from_name(name: &str, params: &[f64]) -> Option<Gate> {
    let gate = match (name, params.len()) {
        ("id", 0) => Gate::I,
        ("h", 0) => Gate::H,
        ("x", 0) => Gate::X,
        ("y", 0) => Gate::Y,
        ("z", 0) => Gate::Z,
        ("s", 0) => Gate::S,
        ("sdg", 0) => Gate::Sdg,
        ("t", 0) => Gate::T,
        ("tdg", 0) => Gate::Tdg,
        ("sx", 0) => Gate::Sx,
        ("sxdg", 0) => Gate::Sxdg,
        ("rx", 1) => Gate::Rx(params[0]),
        ("ry", 1) => Gate::Ry(params[0]),
        ("rz", 1) => Gate::Rz(params[0]),
        ("p", 1) | ("u1", 1) => Gate::P(params[0]),
        ("u3", 3) | ("u", 3) => Gate::U(params[0], params[1], params[2]),
        ("u2", 2) => Gate::U(std::f64::consts::FRAC_PI_2, params[0], params[1]),
        ("cx", 0) | ("CX", 0) => Gate::Cx,
        ("cz", 0) => Gate::Cz,
        ("cp", 1) | ("cu1", 1) => Gate::Cp(params[0]),
        ("swap", 0) => Gate::Swap,
        ("rxx", 1) => Gate::Rxx(params[0]),
        ("ryy", 1) => Gate::Ryy(params[0]),
        ("rzz", 1) => Gate::Rzz(params[0]),
        _ => return None,
    };
    Some(gate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_gate_kinds() {
        let mut c = Circuit::new(3);
        c.h(0)
            .x(1)
            .y(2)
            .z(0)
            .s(1)
            .sdg(2)
            .t(0)
            .tdg(1)
            .sx(2)
            .rx(0.25, 0)
            .ry(-1.5, 1)
            .rz(3.0, 2)
            .p(0.7, 0)
            .u(0.1, 0.2, 0.3, 1)
            .cx(0, 1)
            .cz(1, 2)
            .cp(0.9, 0, 2)
            .swap(0, 1)
            .rxx(0.4, 1, 2)
            .append(Gate::Ryy(0.5), &[0, 2])
            .rzz(0.6, 0, 1)
            .reset(2)
            .barrier(&[0, 1])
            .measure_all();
        let qasm = c.to_qasm();
        let back = Circuit::from_qasm(&qasm).expect("round trip parse");
        assert_eq!(back.num_qubits(), 3);
        assert_eq!(back.instructions().len(), c.instructions().len());
        for (a, b) in c.iter().zip(back.iter()) {
            assert_eq!(a.qubits, b.qubits);
            match (a.gate.matrix1(), b.gate.matrix1()) {
                (Some(ma), Some(mb)) => {
                    for r in 0..2 {
                        for col in 0..2 {
                            assert!(ma[r][col].approx_eq(mb[r][col], 1e-9));
                        }
                    }
                }
                _ => assert_eq!(a.gate.qasm_name(), b.gate.qasm_name()),
            }
        }
    }

    #[test]
    fn parses_pi_expressions() {
        let qasm = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[1];
            creg c[1];
            rz(pi/2) q[0];
            rx(-pi) q[0];
            ry(2*pi/3) q[0];
            p(pi/4 + pi/4) q[0];
        "#;
        let c = Circuit::from_qasm(qasm).unwrap();
        let params: Vec<f64> = c.iter().map(|i| i.gate.params()[0]).collect();
        use std::f64::consts::PI;
        assert!((params[0] - PI / 2.0).abs() < 1e-12);
        assert!((params[1] + PI).abs() < 1e-12);
        assert!((params[2] - 2.0 * PI / 3.0).abs() < 1e-12);
        assert!((params[3] - PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn parses_comments_and_whitespace() {
        let qasm = "OPENQASM 2.0; // header\nqreg q[2]; creg c[2];\n  h   q[0] ; // hadamard\ncx q[0],q[1];";
        let c = Circuit::from_qasm(qasm).unwrap();
        assert_eq!(c.gate_count(), 2);
    }

    #[test]
    fn rejects_unknown_gate() {
        let qasm = "OPENQASM 2.0; qreg q[1]; creg c[1]; ccx q[0],q[0],q[0];";
        let e = Circuit::from_qasm(qasm).unwrap_err();
        assert!(e.message.contains("unsupported gate") || e.message.contains("duplicate"));
    }

    #[test]
    fn rejects_missing_header() {
        let qasm = "qreg q[1]; h q[0];";
        assert!(Circuit::from_qasm(qasm).is_err());
    }

    #[test]
    fn rejects_gate_before_qreg() {
        let qasm = "OPENQASM 2.0; h q[0]; qreg q[1];";
        let e = Circuit::from_qasm(qasm).unwrap_err();
        assert!(e.message.contains("before qreg"));
    }

    #[test]
    fn rejects_out_of_range_operand() {
        let qasm = "OPENQASM 2.0; qreg q[1]; h q[3];";
        let e = Circuit::from_qasm(qasm).unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn u2_maps_to_u3_with_half_pi_theta() {
        let qasm = "OPENQASM 2.0; qreg q[1]; u2(0,pi) q[0];";
        let c = Circuit::from_qasm(qasm).unwrap();
        // u2(0, pi) == H up to global phase.
        let m = c.instructions()[0].gate.matrix1().unwrap();
        let h = Gate::H.matrix1().unwrap();
        for r in 0..2 {
            for col in 0..2 {
                assert!(m[r][col].approx_eq(h[r][col], 1e-12));
            }
        }
    }

    #[test]
    fn expression_evaluator_handles_precedence() {
        assert!((eval_expr("1+2*3", 1).unwrap() - 7.0).abs() < 1e-12);
        assert!((eval_expr("(1+2)*3", 1).unwrap() - 9.0).abs() < 1e-12);
        assert!((eval_expr("-pi/2", 1).unwrap() + std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((eval_expr("2e-3", 1).unwrap() - 0.002).abs() < 1e-15);
        assert!(eval_expr("1+", 1).is_err());
        assert!(eval_expr("foo", 1).is_err());
    }
}
