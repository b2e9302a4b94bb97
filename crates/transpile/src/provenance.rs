//! Gate provenance: which pass introduced (or last rewrote) each
//! instruction of the working circuit.
//!
//! The tracker is deliberately pass-agnostic: passes do not report what
//! they did, the runner *observes* it by diffing the circuit before and
//! after each mutating pass. Instructions that survive a rewrite keep
//! their existing tag; instructions the diff cannot match to a survivor
//! are blamed on the pass that just ran. Verify passes then stamp the tag
//! onto every [`Diagnostic`](supermarq_verify::Diagnostic) they emit, so
//! `supermarq lint` can say not just *what* is wrong but *which pass* put
//! it there.
//!
//! The diff is deferred: a rewrite is queued when it is recorded and
//! diffed, in order, only when a tag is first read. A pipeline that reads
//! no tag, such as one whose diagnostics name no instruction, never
//! diffs at all.
//!
//! Matching is an instruction-level LCS keyed on `(gate, operands)`,
//! anchored by the common prefix/suffix (the overwhelmingly common case:
//! passes touch a few gates and leave the rest in place). The quadratic
//! middle is capped at [`MAX_LCS_CELLS`]; past the cap the unmatched
//! middle is blamed wholesale on the running pass — a conservative
//! over-attribution, never a missed one.

use std::cell::RefCell;

use supermarq_circuit::{Circuit, Instruction};

/// Cap on the LCS table size (`old_middle * new_middle`). 64k cells keeps
/// the diff comfortably sub-millisecond on every paper benchmark.
const MAX_LCS_CELLS: usize = 64_000;

/// The tag given to instructions present in the pipeline's input circuit.
pub const INPUT_TAG: &str = "input";

/// Per-instruction blame tags for the working circuit of a pipeline run.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Tags of the circuit the first queued rewrite starts from: the
    /// working circuit's tags once the queue is replayed.
    tags: RefCell<Vec<&'static str>>,
    queue: RefCell<Queue>,
    last_mutator: Option<&'static str>,
}

/// Rewrites recorded but not yet diffed, as the chain of circuits they
/// produced: `passes[i]` rewrote `circuits[i]` into `circuits[i + 1]`.
#[derive(Debug, Clone, Default)]
struct Queue {
    circuits: Vec<Circuit>,
    passes: Vec<&'static str>,
}

impl Provenance {
    /// Provenance for a pipeline's input: every instruction tagged
    /// [`INPUT_TAG`], no mutator yet.
    ///
    /// Tags are indexed by raw instruction position — barriers included —
    /// because diagnostics carry raw positions (`gate_count()` would skip
    /// barriers and shear every index after the first one).
    pub fn for_input(circuit: &Circuit) -> Self {
        Provenance {
            tags: RefCell::new(vec![INPUT_TAG; circuit.iter().count()]),
            queue: RefCell::default(),
            last_mutator: None,
        }
    }

    /// The blame tag of instruction `index` in the current circuit.
    /// Out-of-range indices (a diagnostic about a since-rewritten circuit)
    /// fall back to [`INPUT_TAG`]. The first read after a rewrite diffs
    /// every queued rewrite, in order.
    pub fn tag(&self, index: usize) -> &'static str {
        let Queue { circuits, passes } = self.queue.take();
        let mut tags = self.tags.borrow_mut();
        for (pair, pass) in circuits.windows(2).zip(passes) {
            *tags = retag(&tags, &pair[0], &pair[1], pass);
        }
        tags.get(index).copied().unwrap_or(INPUT_TAG)
    }

    /// The most recent pass that mutated the circuit, if any.
    pub fn last_mutator(&self) -> Option<&'static str> {
        self.last_mutator
    }

    /// Records that `pass` rewrote `old` into `new`: surviving
    /// instructions keep their tags, everything else is blamed on `pass`.
    /// The diff waits in a queue until a tag is read.
    pub fn record_rewrite(&mut self, old: &Circuit, new: &Circuit, pass: &'static str) {
        let queue = self.queue.get_mut();
        match queue.circuits.last() {
            None => {
                debug_assert_eq!(
                    self.tags.get_mut().len(),
                    old.iter().count(),
                    "stale provenance"
                );
                queue.circuits.push(old.clone());
            }
            // The last rewrite's output is this one's input, because only
            // passes that report `Mutated` change the circuit (the
            // invalidation contract `run_pass` already relies on), so the
            // queue keeps one copy of each intermediate circuit.
            Some(last) => debug_assert!(last == old, "rewrite does not follow the last one"),
        }
        queue.circuits.push(new.clone());
        queue.passes.push(pass);
        self.last_mutator = Some(pass);
    }
}

/// One instruction's diff identity: equal gates on equal operands match.
fn key(instr: &Instruction) -> (String, &[usize]) {
    (instr.gate.to_string(), instr.qubits.as_slice())
}

fn retag(
    old_tags: &[&'static str],
    old: &Circuit,
    new: &Circuit,
    pass: &'static str,
) -> Vec<&'static str> {
    let old_keys: Vec<_> = old.iter().map(key).collect();
    let new_keys: Vec<_> = new.iter().map(key).collect();

    // Anchor on the common prefix and suffix.
    let mut prefix = 0;
    while prefix < old_keys.len() && prefix < new_keys.len() && old_keys[prefix] == new_keys[prefix]
    {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < old_keys.len() - prefix
        && suffix < new_keys.len() - prefix
        && old_keys[old_keys.len() - 1 - suffix] == new_keys[new_keys.len() - 1 - suffix]
    {
        suffix += 1;
    }

    let old_mid = &old_keys[prefix..old_keys.len() - suffix];
    let new_mid = &new_keys[prefix..new_keys.len() - suffix];

    let mut tags = Vec::with_capacity(new_keys.len());
    tags.extend_from_slice(&old_tags[..prefix]);

    if old_mid.is_empty() || new_mid.is_empty() || old_mid.len() * new_mid.len() > MAX_LCS_CELLS {
        // Pure insertion/deletion, or too big to diff precisely: blame the
        // whole middle on the running pass.
        let filled = tags.len() + new_mid.len();
        tags.resize(filled, pass);
    } else {
        // LCS over the middle; matched instructions inherit their old tag.
        let matches = lcs_matches(old_mid, new_mid);
        let mut next = 0usize; // next new-middle index to emit
        for (i, j) in matches {
            while next < j {
                tags.push(pass);
                next += 1;
            }
            tags.push(old_tags[prefix + i]);
            next += 1;
        }
        while next < new_mid.len() {
            tags.push(pass);
            next += 1;
        }
    }

    tags.extend_from_slice(&old_tags[old_tags.len() - suffix..]);
    tags
}

/// Longest-common-subsequence match pairs `(old_index, new_index)` in
/// increasing order, via the classic DP table.
fn lcs_matches<T: PartialEq>(a: &[T], b: &[T]) -> Vec<(usize, usize)> {
    let (n, m) = (a.len(), b.len());
    let mut table = vec![0u32; (n + 1) * (m + 1)];
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            table[idx(i, j)] = if a[i] == b[j] {
                table[idx(i + 1, j + 1)] + 1
            } else {
                table[idx(i + 1, j)].max(table[idx(i, j + 1)])
            };
        }
    }
    let mut pairs = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            pairs.push((i, j));
            i += 1;
            j += 1;
        } else if table[idx(i + 1, j)] >= table[idx(i, j + 1)] {
            i += 1;
        } else {
            j += 1;
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    #[test]
    fn input_starts_fully_input_tagged() {
        let c = bell();
        let p = Provenance::for_input(&c);
        assert!((0..c.gate_count()).all(|i| p.tag(i) == INPUT_TAG));
        assert_eq!(p.last_mutator(), None);
        assert_eq!(p.tag(999), INPUT_TAG);
    }

    #[test]
    fn appended_gate_is_blamed_on_the_pass() {
        let old = bell();
        let mut new = old.clone();
        new.z(0);
        let mut p = Provenance::for_input(&old);
        p.record_rewrite(&old, &new, "evil");
        // measure_all appends per-qubit measurements, so the appended z is
        // the last instruction.
        let last = new.gate_count() - 1;
        assert_eq!(p.tag(last), "evil");
        assert!((0..last).all(|i| p.tag(i) == INPUT_TAG));
        assert_eq!(p.last_mutator(), Some("evil"));
    }

    #[test]
    fn inserted_gate_mid_circuit_keeps_neighbors_input_tagged() {
        let old = bell();
        let mut new = Circuit::new(2);
        new.h(0).s(1).cx(0, 1).measure_all();
        let mut p = Provenance::for_input(&old);
        p.record_rewrite(&old, &new, "inject");
        let tags: Vec<_> = (0..new.gate_count()).map(|i| p.tag(i)).collect();
        assert_eq!(tags[0], INPUT_TAG); // h
        assert_eq!(tags[1], "inject"); // s
        assert_eq!(tags[2], INPUT_TAG); // cx
    }

    #[test]
    fn full_rewrite_is_blamed_wholesale() {
        let old = bell();
        let mut new = Circuit::new(2);
        new.x(0).x(1).y(0);
        let mut p = Provenance::for_input(&old);
        p.record_rewrite(&old, &new, "route");
        assert!((0..new.gate_count()).all(|i| p.tag(i) == "route"));
    }

    #[test]
    fn tags_survive_chained_rewrites() {
        let old = bell();
        let mut mid = old.clone();
        mid.z(0);
        let mut newer = mid.clone();
        newer.x(1);
        let mut p = Provenance::for_input(&old);
        p.record_rewrite(&old, &mid, "a");
        p.record_rewrite(&mid, &newer, "b");
        let n = newer.gate_count();
        assert_eq!(p.tag(n - 1), "b");
        assert_eq!(p.tag(n - 2), "a");
        assert_eq!(p.tag(0), INPUT_TAG);
        assert_eq!(p.last_mutator(), Some("b"));
    }

    #[test]
    fn barriers_occupy_tag_slots_like_any_instruction() {
        // Regression: `gate_count()` skips barriers, so sizing the tag
        // vector with it sheared every index past the first barrier (and
        // underflowed the suffix anchor on barrier-heavy circuits).
        let mut old = Circuit::new(2);
        old.h(0).barrier_all().cx(0, 1).measure_all();
        let mut p = Provenance::for_input(&old);

        // record_rewrite debug-asserts the tag vector matches the raw
        // instruction count, so a barrier-skipping size would panic here.
        let mut new = Circuit::new(2);
        new.h(0).barrier_all().s(1).cx(0, 1).measure_all();
        p.record_rewrite(&old, &new, "inject");
        let tags: Vec<_> = (0..new.iter().count()).map(|i| p.tag(i)).collect();
        assert_eq!(tags[0], INPUT_TAG); // h
        assert_eq!(tags[1], INPUT_TAG); // barrier
        assert_eq!(tags[2], "inject"); // s
        assert_eq!(tags[3], INPUT_TAG); // cx
    }

    #[test]
    fn same_gate_moved_to_other_operands_counts_as_new() {
        let mut old = Circuit::new(2);
        old.h(0);
        let mut new = Circuit::new(2);
        new.h(1);
        let mut p = Provenance::for_input(&old);
        p.record_rewrite(&old, &new, "mover");
        assert_eq!(p.tag(0), "mover");
    }
}

/// Oracle for the blame tags: whatever `Provenance` does between
/// `record_rewrite` and `tag`, the tags it reads must equal `retag`
/// folded eagerly over the same chain of rewrites.
#[cfg(test)]
mod oracle {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use supermarq_circuit::Gate;

    const PASSES: [&str; 4] = ["first", "second", "third", "fourth"];

    fn random_instruction(rng: &mut StdRng, n: usize) -> Instruction {
        let q = rng.gen_range(0..n);
        let gate = match rng.gen_range(0..8) {
            0 => Gate::H,
            1 => Gate::X,
            2 => Gate::S,
            3 => Gate::Rz([0.5, 1.0][rng.gen_range(0..2usize)]),
            4 => Gate::Measure,
            5 => Gate::Barrier,
            _ if n > 1 => {
                let r = (q + rng.gen_range(1..n)) % n;
                let gate = if rng.gen_bool(0.5) {
                    Gate::Cx
                } else {
                    Gate::Cz
                };
                return Instruction::new(gate, vec![q, r]);
            }
            _ => Gate::Z,
        };
        Instruction::new(gate, vec![q])
    }

    fn build(n: usize, instrs: &[Instruction]) -> Circuit {
        let mut c = Circuit::new(n);
        for i in instrs {
            c.push_unchecked(i.gate, &i.qubits);
        }
        c
    }

    fn random_circuit(rng: &mut StdRng, n: usize, len: usize) -> Circuit {
        let instrs: Vec<_> = (0..len).map(|_| random_instruction(rng, n)).collect();
        build(n, &instrs)
    }

    /// One random pass: an insertion, deletion, replacement or
    /// reordering of a few instructions.
    fn random_rewrite(rng: &mut StdRng, old: &Circuit) -> Circuit {
        let n = old.num_qubits();
        let mut instrs = old.instructions().to_vec();
        let len = instrs.len();
        match rng.gen_range(0..4) {
            0 => {
                let at = rng.gen_range(0..=len);
                for _ in 0..rng.gen_range(1..=3) {
                    instrs.insert(at, random_instruction(rng, n));
                }
            }
            1 if len > 0 => {
                let at = rng.gen_range(0..len);
                let end = (at + rng.gen_range(1..=3usize)).min(len);
                instrs.drain(at..end);
            }
            2 if len > 0 => {
                let at = rng.gen_range(0..len);
                instrs[at] = random_instruction(rng, n);
            }
            3 if len > 1 => {
                let a = rng.gen_range(0..len);
                let b = rng.gen_range(0..len);
                instrs.swap(a, b);
            }
            _ => instrs.push(random_instruction(rng, n)),
        }
        build(n, &instrs)
    }

    fn tags_of(p: &Provenance, circuit: &Circuit) -> Vec<&'static str> {
        (0..circuit.iter().count()).map(|i| p.tag(i)).collect()
    }

    /// Records `chain` on a tracker and folds `retag` eagerly beside it,
    /// checking `last_mutator` after every step. Tags are read after the
    /// chain, and also after each step where `read_between` says so.
    fn check_chain(input: &Circuit, chain: &[Circuit], read_between: &[bool], label: &str) {
        let mut p = Provenance::for_input(input);
        let mut eager = vec![INPUT_TAG; input.iter().count()];
        let mut old = input;
        for (step, new) in chain.iter().enumerate() {
            let pass = PASSES[step];
            eager = retag(&eager, old, new, pass);
            p.record_rewrite(old, new, pass);
            assert_eq!(p.last_mutator(), Some(pass), "{label}: step {step}");
            if read_between[step] {
                assert_eq!(tags_of(&p, new), eager, "{label}: after step {step}");
            }
            old = new;
        }
        assert_eq!(tags_of(&p, old), eager, "{label}: after the chain");
        assert_eq!(p.tag(eager.len()), INPUT_TAG, "{label}: out of range");
    }

    #[test]
    fn tags_after_random_rewrite_chains_match_an_eager_fold_of_retag() {
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..400 {
            let n = rng.gen_range(1..=4);
            let len = rng.gen_range(0..=20);
            let input = random_circuit(&mut rng, n, len);
            let steps = rng.gen_range(1..=4);
            let mut chain: Vec<Circuit> = Vec::with_capacity(steps);
            for _ in 0..steps {
                let next = random_rewrite(&mut rng, chain.last().unwrap_or(&input));
                chain.push(next);
            }
            let read_between: Vec<bool> = (0..steps).map(|_| rng.gen_bool(0.3)).collect();
            check_chain(&input, &chain, &read_between, &format!("case {case}"));
        }
    }

    #[test]
    fn a_chain_whose_middle_rewrite_passes_the_lcs_cap_matches_the_fold() {
        let mut rng = StdRng::seed_from_u64(29);
        for case in 0..4 {
            let n = 4;
            let input = random_circuit(&mut rng, n, 300);
            let first = random_rewrite(&mut rng, &input);
            // The middle pass rebuilds the circuit from scratch, with first
            // and last instructions no anchor can match, so its whole
            // middle is past the cap and blamed wholesale.
            let mut middle = Circuit::new(n);
            middle.reset(0);
            for instr in random_circuit(&mut rng, n, 290).iter() {
                middle.push_unchecked(instr.gate, &instr.qubits);
            }
            middle.reset(n - 1);
            let (old_len, new_len) = (first.iter().count(), middle.iter().count());
            assert!(old_len * new_len > MAX_LCS_CELLS);
            assert_ne!(first.instructions()[0], middle.instructions()[0]);
            assert_ne!(
                first.instructions()[old_len - 1],
                middle.instructions()[new_len - 1]
            );
            let last = random_rewrite(&mut rng, &middle);
            let chain = [first, middle, last];
            let read_between = [case & 1 == 1, case & 2 == 2, false];
            check_chain(
                &input,
                &chain,
                &read_between,
                &format!("capped case {case}"),
            );
        }
    }
}
