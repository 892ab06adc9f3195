//! Semantic analysis and lowering into the `oneq_circuit` IR.
//!
//! The lowering walks a parsed [`Program`] statement by statement:
//!
//! * `qreg` declarations allocate contiguous wire ranges in declaration
//!   order (the flat index space of the output [`Circuit`]);
//! * `creg`, `measure` and `barrier` are validated but emit nothing — the
//!   OneQ pipeline measures every photon as part of the pattern anyway;
//! * `gate` definitions become macros, checked and resolved at definition
//!   time: every referenced gate must already exist with matching
//!   parameter and argument counts (so expansion can never recurse), each
//!   body operation names its callee, parameter slots and formal qubit
//!   positions directly, and the macro's nesting depth and expanded gate
//!   count are computed once;
//! * gate applications broadcast over whole-register arguments and expand
//!   through macros down to *builtin* gates, evaluating parameters against
//!   the enclosing application's values on a reused stack.
//!
//! Two bounds keep any input inside a worker's stack and memory: a gate
//! definition may nest macros at most [`MAX_NESTING`] levels deep, and a
//! program may lower to at most [`MAX_LOWERED_GATES`] IR gates. Both are
//! checked before anything is emitted.
//!
//! Builtins map onto the IR as directly as possible — `h`/`x`/`y`/`z`/
//! `s`/`sdg`/`t`/`tdg`/`rz`/`rx`/`cz`/`cx`/`swap`/`cu1`/`cp`/`ccx` are
//! single IR gates — while `U`/`u1`/`u2`/`u3`/`ry`/`id` decompose into the
//! existing gate set:
//!
//! | QASM | IR (program order) |
//! |---|---|
//! | `u1(λ)` | `Rz(λ)` |
//! | `ry(θ)` | `Sdg; Rx(θ); S` |
//! | `u3(θ,φ,λ)`, `U(θ,φ,λ)` | `Rz(λ); Sdg; Rx(θ); S; Rz(φ)` |
//! | `u2(φ,λ)` | `u3(π/2, φ, λ)` |
//! | `id` | (nothing) |
//!
//! (`ry` uses `Y = S·X·S†`, so `Ry(θ) = S·Rx(θ)·S†`; `u3` is
//! `Rz(φ)·Ry(θ)·Rz(λ)` with the `Rz`s as phase gates, equal to the
//! standard `U` up to global phase.)
//!
//! Without `include "qelib1.inc";` only the OpenQASM primitives `U` and
//! `CX` exist; the include unlocks the named builtins above plus a prelude
//! of composite qelib1 gates (`cy`, `ch`, `crz`, `cu3`, `cswap`, `rzz`)
//! that are themselves defined as macros over the builtins — parsed with
//! this crate's own parser, once per process.

use crate::ast::{eval, first_unbound, Argument, GateDef, Op, Program, Stmt, MAX_NESTING};
use crate::error::{ParseError, Span};
use crate::parser::parse_program;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::sync::OnceLock;

use oneq_circuit::{Circuit, Gate, Qubit};

/// The most IR gates one program may lower to: about 330 times the
/// largest benchmark input (QAOA-64, 3,152 gates), and small enough that
/// a program of doubling macros is refused before it allocates.
const MAX_LOWERED_GATES: usize = 1 << 20;

/// qelib1 composite gates, defined over the builtins with the standard
/// qelib1.inc bodies. Parsed by this crate's own parser, once per process.
const QELIB1_PRELUDE: &str = r#"OPENQASM 2.0;
gate cy a,b { sdg b; cx a,b; s b; }
gate ch a,b { h b; sdg b; cx a,b; h b; t b; cx a,b; t b; h b; s b; x b; s a; }
gate crz(lambda) a,b { u1(lambda/2) b; cx a,b; u1(-lambda/2) b; cx a,b; }
gate cu3(theta,phi,lambda) c,t { u1((lambda+phi)/2) c; u1((lambda-phi)/2) t; cx c,t; u3(-theta/2,0,-(phi+lambda)/2) t; cx c,t; u3(theta/2,phi,0) t; }
gate cswap a,b,c { cx c,b; ccx a,b,c; cx c,b; }
gate rzz(theta) a,b { cx a,b; u1(theta) b; cx a,b; }
"#;

/// Gate names `include "qelib1.inc";` would provide, for the
/// "did you forget the include?" hint.
const QELIB1_NAMES: &[&str] = &[
    "u3", "u2", "u1", "p", "cx", "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "rx", "ry",
    "rz", "cz", "cy", "ch", "swap", "ccx", "cswap", "crz", "cu1", "cp", "cu3", "rzz",
];

/// A builtin gate: lowers to one or a few IR gates with no macro table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Builtin {
    U3,
    U2,
    U1,
    Cx,
    Id,
    H,
    X,
    Y,
    Z,
    S,
    Sdg,
    T,
    Tdg,
    Rx,
    Ry,
    Rz,
    Cz,
    Cp,
    Swap,
    Ccx,
}

impl Builtin {
    /// The OpenQASM primitives, defined with or without the include.
    fn primitive(name: &str) -> Option<Builtin> {
        match name {
            "U" => Some(Builtin::U3),
            "CX" => Some(Builtin::Cx),
            _ => None,
        }
    }

    /// The builtins `include "qelib1.inc";` adds.
    fn qelib1(name: &str) -> Option<Builtin> {
        Some(match name {
            "u3" => Builtin::U3,
            "u2" => Builtin::U2,
            "u1" | "p" => Builtin::U1,
            "cx" => Builtin::Cx,
            "id" => Builtin::Id,
            "h" => Builtin::H,
            "x" => Builtin::X,
            "y" => Builtin::Y,
            "z" => Builtin::Z,
            "s" => Builtin::S,
            "sdg" => Builtin::Sdg,
            "t" => Builtin::T,
            "tdg" => Builtin::Tdg,
            "rx" => Builtin::Rx,
            "ry" => Builtin::Ry,
            "rz" => Builtin::Rz,
            "cz" => Builtin::Cz,
            "cu1" | "cp" => Builtin::Cp,
            "swap" => Builtin::Swap,
            "ccx" => Builtin::Ccx,
            _ => return None,
        })
    }

    /// `(parameter count, qubit count)`.
    fn signature(self) -> (usize, usize) {
        match self {
            Builtin::U3 => (3, 1),
            Builtin::U2 => (2, 1),
            Builtin::U1 | Builtin::Rx | Builtin::Ry | Builtin::Rz => (1, 1),
            Builtin::Cx | Builtin::Cz | Builtin::Swap => (0, 2),
            Builtin::Cp => (1, 2),
            Builtin::Ccx => (0, 3),
            Builtin::Id
            | Builtin::H
            | Builtin::X
            | Builtin::Y
            | Builtin::Z
            | Builtin::S
            | Builtin::Sdg
            | Builtin::T
            | Builtin::Tdg => (0, 1),
        }
    }

    /// IR gates one application emits.
    fn size(self) -> usize {
        match self {
            Builtin::U3 | Builtin::U2 => 5,
            Builtin::Ry => 3,
            Builtin::Id => 0,
            _ => 1,
        }
    }
}

/// A gate a name resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Callee {
    Builtin(Builtin),
    Macro(MacroId),
}

/// Where a macro's definition lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MacroId {
    /// Index into the qelib1 prelude.
    Prelude(usize),
    /// Index into the program's own definitions.
    User(usize),
}

/// One operation of a macro body, resolved at definition time.
#[derive(Debug)]
struct MacroOp<'s> {
    callee: Callee,
    /// Postfix code of the parameter expressions, over the macro's
    /// parameter slots.
    code: Vec<Op<'s>>,
    /// The macro's formal qubit positions the callee acts on.
    qubits: Vec<usize>,
}

/// A user (or prelude) gate definition ready for expansion.
#[derive(Debug)]
struct MacroDef<'s> {
    n_params: usize,
    n_qubits: usize,
    body: Vec<MacroOp<'s>>,
    /// IR gates one application emits (saturating).
    size: usize,
    /// Macro levels of one application, this one included.
    depth: usize,
}

/// The qelib1 prelude's macros with their names, parsed and checked once
/// per process.
fn prelude() -> &'static [(&'static str, MacroDef<'static>)] {
    static PRELUDE: OnceLock<Vec<(&'static str, MacroDef<'static>)>> = OnceLock::new();
    PRELUDE.get_or_init(|| {
        let program = parse_program(QELIB1_PRELUDE).expect("embedded qelib1 prelude must parse");
        // Prelude bodies reference only builtins, so the table under
        // construction is never consulted.
        let mut lw = Lowerer::new(QELIB1_PRELUDE, true, &[]);
        for stmt in program.stmts {
            let Stmt::Gate(def) = stmt else {
                unreachable!("prelude contains only gate definitions");
            };
            lw.define_gate(def, &program.ops)
                .expect("embedded qelib1 prelude must lower");
        }
        lw.gates.macros
    })
}

/// Lowers a parsed program into the IR.
///
/// `source` must be the text `program` was parsed from; it is used to
/// render caret snippets in semantic errors.
///
/// # Errors
///
/// Returns a [`ParseError`] for unknown gates or registers, arity or
/// parameter-count mismatches, out-of-range indices, broadcast size
/// mismatches, duplicate qubit arguments, redefinitions, macros nested
/// past [`MAX_NESTING`], and programs past [`MAX_LOWERED_GATES`].
pub(crate) fn lower<'s>(program: Program<'s>, source: &'s str) -> Result<Circuit, ParseError> {
    let prelude = if program.includes_qelib1 {
        prelude()
    } else {
        &[]
    };
    Lowerer::new(source, program.includes_qelib1, prelude).run(program)
}

/// A declared register.
#[derive(Debug, Clone, Copy)]
enum Reg {
    /// Contiguous wires `offset..offset + size`.
    Quantum {
        offset: usize,
        size: usize,
    },
    Classical {
        size: usize,
    },
}

/// An argument resolved against the register table.
#[derive(Debug, Clone, Copy)]
enum Resolved {
    One(usize),
    Whole { offset: usize, size: usize },
}

/// The gates a name can resolve to.
struct Gates<'s> {
    qelib1: bool,
    prelude: &'s [(&'static str, MacroDef<'static>)],
    /// The program's own definitions with their names, in order.
    macros: Vec<(&'s str, MacroDef<'s>)>,
    by_name: HashMap<&'s str, usize>,
}

impl<'s> Gates<'s> {
    fn lookup(&self, name: &str) -> Option<Callee> {
        if let Some(b) = Builtin::primitive(name) {
            return Some(Callee::Builtin(b));
        }
        if self.qelib1 {
            if let Some(b) = Builtin::qelib1(name) {
                return Some(Callee::Builtin(b));
            }
            if let Some(i) = self.prelude.iter().position(|(n, _)| *n == name) {
                return Some(Callee::Macro(MacroId::Prelude(i)));
            }
        }
        let &i = self.by_name.get(name)?;
        Some(Callee::Macro(MacroId::User(i)))
    }

    fn macro_def(&self, id: MacroId) -> &MacroDef<'s> {
        match id {
            MacroId::Prelude(i) => &self.prelude[i].1,
            MacroId::User(i) => &self.macros[i].1,
        }
    }

    /// `(parameter count, qubit count)`.
    fn signature(&self, callee: Callee) -> (usize, usize) {
        match callee {
            Callee::Builtin(b) => b.signature(),
            Callee::Macro(id) => {
                let m = self.macro_def(id);
                (m.n_params, m.n_qubits)
            }
        }
    }

    /// `(IR gates one application emits, macro levels it expands)`.
    fn cost(&self, callee: Callee) -> (usize, usize) {
        match callee {
            Callee::Builtin(b) => (b.size(), 0),
            Callee::Macro(id) => {
                let m = self.macro_def(id);
                (m.size, m.depth)
            }
        }
    }
}

/// The lowered gates, plus the scratch state of expanding applications
/// into them: every application's parameters and wires live on two stacks
/// reused across the program, so an expansion allocates nothing once they
/// have grown.
struct Emitter<'s> {
    source: &'s str,
    gates: Vec<Gate>,
    /// Parameter values of the applications being expanded, outermost
    /// first.
    slots: Vec<f64>,
    /// Their wires, likewise.
    wires: Vec<usize>,
    /// Expression evaluation stack.
    stack: Vec<f64>,
}

impl Emitter<'_> {
    /// Emits `callee` applied to the parameters `slots[params..]` and the
    /// wires `wires[wires..]`.
    fn expand(
        &mut self,
        gates: &Gates<'_>,
        callee: Callee,
        params: usize,
        wires: usize,
        span: Span,
    ) -> Result<(), ParseError> {
        let m = match callee {
            Callee::Macro(id) => gates.macro_def(id),
            Callee::Builtin(b) => {
                let (n_params, n_qubits) = b.signature();
                let values = &self.slots[params..params + n_params];
                // Checked here, not at the call site, so values computed
                // inside a macro body are caught too.
                if let Some(v) = values.iter().find(|v| !v.is_finite()) {
                    return Err(ParseError::at(
                        self.source,
                        span,
                        format!("gate parameter evaluates to {v}; angles must be finite"),
                    ));
                }
                emit_builtin(
                    &mut self.gates,
                    b,
                    values,
                    &self.wires[wires..wires + n_qubits],
                );
                return Ok(());
            }
        };
        for op in &m.body {
            let (inner_params, inner_wires) = (self.slots.len(), self.wires.len());
            let scope = &self.slots[params..params + m.n_params];
            eval(&op.code, scope, &mut self.stack).map_err(|(pspan, p)| {
                ParseError::at(self.source, pspan, format!("unknown identifier `{p}`"))
            })?;
            self.slots.extend_from_slice(&self.stack);
            for &q in &op.qubits {
                let wire = self.wires[wires + q];
                self.wires.push(wire);
            }
            self.expand(gates, op.callee, inner_params, inner_wires, span)?;
            self.slots.truncate(inner_params);
            self.wires.truncate(inner_wires);
        }
        Ok(())
    }
}

struct Lowerer<'s> {
    source: &'s str,
    gates: Gates<'s>,
    regs: HashMap<&'s str, Reg>,
    n_qubits: usize,
    /// Scratch for one application's resolved arguments.
    resolved: Vec<Resolved>,
    out: Emitter<'s>,
}

impl<'s> Lowerer<'s> {
    fn new(
        source: &'s str,
        qelib1: bool,
        prelude: &'s [(&'static str, MacroDef<'static>)],
    ) -> Self {
        Lowerer {
            source,
            gates: Gates {
                qelib1,
                prelude,
                macros: Vec::new(),
                by_name: HashMap::new(),
            },
            regs: HashMap::new(),
            n_qubits: 0,
            resolved: Vec::new(),
            out: Emitter {
                source,
                gates: Vec::new(),
                slots: Vec::new(),
                wires: Vec::new(),
                stack: Vec::new(),
            },
        }
    }

    fn error(&self, span: Span, message: impl Into<String>) -> ParseError {
        ParseError::at(self.source, span, message)
    }

    fn qelib1_hint(&self, name: &str) -> &'static str {
        if !self.gates.qelib1 && QELIB1_NAMES.contains(&name) {
            "; did you forget `include \"qelib1.inc\";`?"
        } else {
            ""
        }
    }

    fn run(mut self, program: Program<'s>) -> Result<Circuit, ParseError> {
        let Program {
            stmts, args, ops, ..
        } = program;
        for stmt in stmts {
            match stmt {
                Stmt::QReg { name, size, span } => self.declare_qreg(name, size, span)?,
                Stmt::CReg { name, size, span } => self.declare_creg(name, size, span)?,
                Stmt::Gate(def) => {
                    // User definitions shadow nothing: redefinition of any
                    // known name (builtin or macro) is an error.
                    if self.gates.lookup(def.name).is_some() {
                        return Err(
                            self.error(def.span, format!("gate `{}` is already defined", def.name))
                        );
                    }
                    self.define_gate(def, &ops)?;
                }
                Stmt::Apply {
                    name,
                    params,
                    args: range,
                    span,
                } => self.apply(name, &ops[params.ops], params.len, &args[range], span)?,
                Stmt::Barrier { args: range } => {
                    for arg in &args[range] {
                        self.resolve_quantum(arg)?;
                    }
                }
                Stmt::Measure { args: range, span } => {
                    self.measure(&args[range.start], &args[range.start + 1], span)?;
                }
            }
        }
        let mut circuit = Circuit::new(self.n_qubits);
        for gate in self.out.gates {
            // Wires are below the final width (registers only add wires,
            // and the total is checked) and distinct (checked per shot and
            // per body operation), so the push cannot fail.
            circuit
                .push(gate)
                .expect("lowered gates act on distinct in-range wires");
        }
        Ok(circuit)
    }

    fn declare(&mut self, name: &'s str, reg: Reg, span: Span) -> Result<(), ParseError> {
        if self.regs.contains_key(name) {
            return Err(self.error(span, format!("register `{name}` is already declared")));
        }
        self.regs.insert(name, reg);
        Ok(())
    }

    fn declare_qreg(&mut self, name: &'s str, size: usize, span: Span) -> Result<(), ParseError> {
        let offset = self.n_qubits;
        self.declare(name, Reg::Quantum { offset, size }, span)?;
        self.n_qubits = offset.checked_add(size).ok_or_else(|| {
            self.error(
                span,
                format!(
                    "register `{name}` takes the qubit count past {}",
                    usize::MAX
                ),
            )
        })?;
        Ok(())
    }

    fn declare_creg(&mut self, name: &'s str, size: usize, span: Span) -> Result<(), ParseError> {
        self.declare(name, Reg::Classical { size }, span)
    }

    /// Validates a definition and installs it as a macro; `ops` is the
    /// program's postfix-code pool.
    fn define_gate(&mut self, def: GateDef<'s>, ops: &[Op<'s>]) -> Result<(), ParseError> {
        let name = def.name;
        for (i, p) in def.params.iter().enumerate() {
            if def.params[i + 1..].contains(p) {
                return Err(self.error(
                    def.span,
                    format!("duplicate parameter `{p}` in gate `{name}`"),
                ));
            }
        }
        for (i, q) in def.qargs.iter().enumerate() {
            if def.qargs[i + 1..].contains(q) {
                return Err(self.error(
                    def.span,
                    format!("duplicate qubit argument `{q}` in gate `{name}`"),
                ));
            }
        }
        let (mut size, mut depth) = (0usize, 1usize);
        let mut body = Vec::with_capacity(def.body.len());
        for op in def.body {
            let callee = self.gates.lookup(op.name).ok_or_else(|| {
                let hint = self.qelib1_hint(op.name);
                self.error(
                    op.span,
                    format!("unknown gate `{}` in body of `{name}`{hint}", op.name),
                )
            })?;
            let (n_params, n_qubits) = self.gates.signature(callee);
            if op.params.len != n_params {
                return Err(self.error(
                    op.span,
                    format!(
                        "gate `{}` takes {n_params} parameter(s), got {}",
                        op.name, op.params.len
                    ),
                ));
            }
            if op.args.len() != n_qubits {
                return Err(self.error(
                    op.span,
                    format!(
                        "gate `{}` acts on {n_qubits} qubit(s), got {}",
                        op.name,
                        op.args.len()
                    ),
                ));
            }
            let mut qubits = Vec::with_capacity(op.args.len());
            for arg in &op.args {
                let Some(q) = def.qargs.iter().position(|a| a == arg) else {
                    return Err(self.error(
                        op.span,
                        format!("`{arg}` is not a qubit argument of gate `{name}`"),
                    ));
                };
                qubits.push(q);
            }
            for (i, a) in op.args.iter().enumerate() {
                if op.args[i + 1..].contains(a) {
                    return Err(self.error(
                        op.span,
                        format!("gate `{}` applied to duplicate qubit `{a}`", op.name),
                    ));
                }
            }
            let code = &ops[op.params.ops];
            if let Some((span, p)) = first_unbound(code) {
                return Err(self.error(
                    span,
                    format!("unknown identifier `{p}` in body of gate `{name}`"),
                ));
            }
            let (op_size, op_depth) = self.gates.cost(callee);
            size = size.saturating_add(op_size);
            depth = depth.max(op_depth + 1);
            body.push(MacroOp {
                callee,
                code: code.to_vec(),
                qubits,
            });
        }
        if depth > MAX_NESTING {
            return Err(self.error(
                def.span,
                format!("gate `{name}` nests gate definitions more than {MAX_NESTING} levels deep"),
            ));
        }
        self.gates.by_name.insert(name, self.gates.macros.len());
        self.gates.macros.push((
            name,
            MacroDef {
                n_params: def.params.len(),
                n_qubits: def.qargs.len(),
                body,
                size,
                depth,
            },
        ));
        Ok(())
    }

    fn resolve_quantum(&self, arg: &Argument<'_>) -> Result<Resolved, ParseError> {
        let (offset, size) = match self.regs.get(arg.reg) {
            Some(&Reg::Quantum { offset, size }) => (offset, size),
            Some(Reg::Classical { .. }) => {
                return Err(self.error(
                    arg.span,
                    format!(
                        "`{}` is a classical register; a quantum register is required",
                        arg.reg
                    ),
                ))
            }
            None => {
                return Err(self.error(arg.span, format!("unknown quantum register `{}`", arg.reg)))
            }
        };
        match arg.index {
            Some(i) if i >= size => Err(self.error(
                arg.span,
                format!(
                    "index {i} out of range for register `{}` of size {size}",
                    arg.reg
                ),
            )),
            Some(i) => Ok(Resolved::One(offset + i)),
            None => Ok(Resolved::Whole { offset, size }),
        }
    }

    fn resolve_classical(&self, arg: &Argument<'_>) -> Result<(usize, Option<usize>), ParseError> {
        let size = match self.regs.get(arg.reg) {
            Some(&Reg::Classical { size }) => size,
            Some(Reg::Quantum { .. }) => {
                return Err(self.error(
                    arg.span,
                    format!(
                        "`{}` is a quantum register; a classical register is required",
                        arg.reg
                    ),
                ))
            }
            None => {
                return Err(self.error(
                    arg.span,
                    format!("unknown classical register `{}`", arg.reg),
                ))
            }
        };
        match arg.index {
            Some(i) if i >= size => Err(self.error(
                arg.span,
                format!(
                    "index {i} out of range for register `{}` of size {size}",
                    arg.reg
                ),
            )),
            index => Ok((size, index)),
        }
    }

    fn measure(
        &mut self,
        src: &Argument<'_>,
        dst: &Argument<'_>,
        span: Span,
    ) -> Result<(), ParseError> {
        let q = self.resolve_quantum(src)?;
        let (c_size, c_index) = self.resolve_classical(dst)?;
        match (q, c_index) {
            (Resolved::Whole { size, .. }, None) if size != c_size => Err(self.error(
                span,
                format!(
                    "measure width mismatch: `{}` has {size} qubits, `{}` has {c_size} bits",
                    src.reg, dst.reg
                ),
            )),
            (Resolved::Whole { .. }, Some(_)) | (Resolved::One(_), None) => Err(self.error(
                span,
                "measure must map register -> register or bit -> bit".to_string(),
            )),
            _ => Ok(()),
        }
    }

    /// Lowers one application: `code` holds its `n_given` parameter
    /// expressions.
    fn apply(
        &mut self,
        name: &str,
        code: &[Op<'_>],
        n_given: usize,
        args: &[Argument<'_>],
        span: Span,
    ) -> Result<(), ParseError> {
        let callee = self.gates.lookup(name).ok_or_else(|| {
            let hint = self.qelib1_hint(name);
            self.error(span, format!("unknown gate `{name}`{hint}"))
        })?;
        let (n_params, n_qubits) = self.gates.signature(callee);
        if n_given != n_params {
            return Err(self.error(
                span,
                format!("gate `{name}` takes {n_params} parameter(s), got {n_given}"),
            ));
        }
        if args.len() != n_qubits {
            return Err(self.error(
                span,
                format!(
                    "gate `{name}` acts on {n_qubits} qubit(s), got {}",
                    args.len()
                ),
            ));
        }
        eval(code, &[], &mut self.out.stack).map_err(|(pspan, p)| {
            self.error(
                pspan,
                format!(
                    "unknown identifier `{p}` in parameter expression \
                     (only constants and `pi` are allowed here)"
                ),
            )
        })?;
        self.resolved.clear();
        for arg in args {
            let r = self.resolve_quantum(arg)?;
            self.resolved.push(r);
        }

        // Broadcast: whole-register arguments must agree on size; single
        // qubits repeat across the broadcast.
        let mut width: Option<usize> = None;
        for (arg, r) in args.iter().zip(&self.resolved) {
            if let Resolved::Whole { size, .. } = *r {
                match width {
                    None => width = Some(size),
                    Some(w) if w != size => {
                        return Err(self.error(
                            arg.span,
                            format!(
                                "broadcast size mismatch: register `{}` has {size} qubits, \
                                 expected {w}",
                                arg.reg
                            ),
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        let shots = width.unwrap_or(1);
        let lowered = self
            .gates
            .cost(callee)
            .0
            .saturating_mul(shots)
            .saturating_add(self.out.gates.len());
        if lowered > MAX_LOWERED_GATES {
            return Err(self.error(
                span,
                format!(
                    "gate `{name}` would lower the program to more than \
                     {MAX_LOWERED_GATES} gates"
                ),
            ));
        }

        // The top-level application's frame is the bottom of both stacks.
        self.out.slots.clear();
        self.out.slots.extend_from_slice(&self.out.stack);
        for shot in 0..shots {
            self.out.wires.clear();
            self.out
                .wires
                .extend(self.resolved.iter().map(|r| match *r {
                    Resolved::One(q) => q,
                    Resolved::Whole { offset, .. } => offset + shot,
                }));
            let wires = &self.out.wires;
            for (i, &q) in wires.iter().enumerate() {
                if wires[i + 1..].contains(&q) {
                    return Err(self.error(
                        span,
                        format!("gate `{name}` applied to duplicate qubit (wire {q})"),
                    ));
                }
            }
            self.out.expand(&self.gates, callee, 0, 0, span)?;
        }
        Ok(())
    }
}

fn emit_builtin(out: &mut Vec<Gate>, b: Builtin, params: &[f64], qs: &[usize]) {
    if b == Builtin::U2 {
        // u2(φ,λ) = u3(π/2, φ, λ).
        return emit_builtin(out, Builtin::U3, &[PI / 2.0, params[0], params[1]], qs);
    }
    let q = |i: usize| Qubit::new(qs[i]);
    let mut push = |gate: Gate| out.push(gate);
    match b {
        Builtin::H => push(Gate::H(q(0))),
        Builtin::X => push(Gate::X(q(0))),
        Builtin::Y => push(Gate::Y(q(0))),
        Builtin::Z => push(Gate::Z(q(0))),
        Builtin::S => push(Gate::S(q(0))),
        Builtin::Sdg => push(Gate::Sdg(q(0))),
        Builtin::T => push(Gate::T(q(0))),
        Builtin::Tdg => push(Gate::Tdg(q(0))),
        Builtin::Rx => push(Gate::Rx(q(0), params[0])),
        Builtin::Rz | Builtin::U1 => push(Gate::Rz(q(0), params[0])),
        Builtin::Id => {}
        Builtin::Ry => {
            // Ry(θ) = S · Rx(θ) · S† (from Y = S·X·S†), program order
            // rightmost-first.
            push(Gate::Sdg(q(0)));
            push(Gate::Rx(q(0), params[0]));
            push(Gate::S(q(0)));
        }
        Builtin::U3 => {
            // U(θ,φ,λ) = Rz(φ)·Ry(θ)·Rz(λ) up to global phase.
            let (theta, phi, lambda) = (params[0], params[1], params[2]);
            push(Gate::Rz(q(0), lambda));
            push(Gate::Sdg(q(0)));
            push(Gate::Rx(q(0), theta));
            push(Gate::S(q(0)));
            push(Gate::Rz(q(0), phi));
        }
        Builtin::U2 => unreachable!("U2 delegates to U3 above"),
        Builtin::Cx => push(Gate::Cnot {
            control: q(0),
            target: q(1),
        }),
        Builtin::Cz => push(Gate::Cz(q(0), q(1))),
        Builtin::Cp => push(Gate::Cp(q(0), q(1), params[0])),
        Builtin::Swap => push(Gate::Swap(q(0), q(1))),
        Builtin::Ccx => push(Gate::Ccx {
            c1: q(0),
            c2: q(1),
            target: q(2),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn lower_src(src: &str) -> Result<Circuit, ParseError> {
        lower(parse_program(src)?, src)
    }

    fn gates(src: &str) -> Vec<Gate> {
        lower_src(src)
            .expect("program should lower")
            .gates()
            .to_vec()
    }

    const HDR: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    #[test]
    fn direct_builtins_map_one_to_one() {
        let src = format!(
            "{HDR}qreg q[3];\nh q[0];\nx q[1];\ncz q[0], q[1];\ncx q[0], q[2];\n\
             swap q[1], q[2];\nccx q[0], q[1], q[2];\ncu1(pi/2) q[0], q[1];\n\
             rz(0.5) q[2];\nrx(0.25) q[0];"
        );
        let g = gates(&src);
        assert_eq!(g.len(), 9);
        assert_eq!(g[0], Gate::H(Qubit::new(0)));
        assert_eq!(
            g[3],
            Gate::Cnot {
                control: Qubit::new(0),
                target: Qubit::new(2)
            }
        );
        assert_eq!(g[6], Gate::Cp(Qubit::new(0), Qubit::new(1), PI / 2.0));
        assert_eq!(g[7], Gate::Rz(Qubit::new(2), 0.5));
    }

    #[test]
    fn primitives_work_without_include() {
        let g = gates("OPENQASM 2.0;\nqreg q[2];\nU(0,0,pi) q[0];\nCX q[0], q[1];");
        assert!(matches!(g.last(), Some(Gate::Cnot { .. })));
    }

    #[test]
    fn named_gates_require_include() {
        let err = lower_src("OPENQASM 2.0;\nqreg q[1];\nh q[0];").unwrap_err();
        assert!(err.message().contains("include \"qelib1.inc\""), "{err}");
        assert_eq!(err.line(), 3);
    }

    #[test]
    fn broadcast_over_register() {
        let g = gates(&format!("{HDR}qreg q[4];\nh q;"));
        assert_eq!(g.len(), 4);
        assert_eq!(g[3], Gate::H(Qubit::new(3)));
    }

    #[test]
    fn broadcast_register_pair_and_mixed() {
        let g = gates(&format!("{HDR}qreg a[3];\nqreg b[3];\ncx a, b;"));
        assert_eq!(g.len(), 3);
        assert_eq!(
            g[2],
            Gate::Cnot {
                control: Qubit::new(2),
                target: Qubit::new(5)
            }
        );
        // Single control broadcast against a register target.
        let g = gates(&format!("{HDR}qreg a[2];\nqreg b[2];\ncx a[0], b;"));
        assert_eq!(g.len(), 2);
        assert_eq!(
            g[1],
            Gate::Cnot {
                control: Qubit::new(0),
                target: Qubit::new(3)
            }
        );
    }

    #[test]
    fn broadcast_size_mismatch_is_rejected() {
        let err = lower_src(&format!("{HDR}qreg a[2];\nqreg b[3];\ncx a, b;")).unwrap_err();
        assert!(err.message().contains("broadcast size mismatch"));
    }

    #[test]
    fn macro_expansion_substitutes_params_and_qubits() {
        let g = gates(&format!(
            "{HDR}qreg q[2];\n\
             gate pair(theta) a,b {{ rz(theta/2) a; cx a,b; rz(-theta/2) b; }}\n\
             pair(pi) q[1], q[0];"
        ));
        assert_eq!(g.len(), 3);
        assert_eq!(g[0], Gate::Rz(Qubit::new(1), PI / 2.0));
        assert_eq!(
            g[1],
            Gate::Cnot {
                control: Qubit::new(1),
                target: Qubit::new(0)
            }
        );
        assert_eq!(g[2], Gate::Rz(Qubit::new(0), -(PI / 2.0)));
    }

    #[test]
    fn macros_can_build_on_macros() {
        let g = gates(&format!(
            "{HDR}qreg q[3];\n\
             gate maj a,b,c {{ cx c,b; cx c,a; ccx a,b,c; }}\n\
             gate twomaj a,b,c {{ maj a,b,c; maj a,b,c; }}\n\
             twomaj q[0], q[1], q[2];"
        ));
        assert_eq!(g.len(), 6);
        assert!(matches!(g[2], Gate::Ccx { .. }));
    }

    #[test]
    fn prelude_gates_expand() {
        let g = gates(&format!("{HDR}qreg q[2];\ncrz(pi/2) q[0], q[1];"));
        // u1(λ/2) b; cx; u1(-λ/2) b; cx  ->  4 IR gates.
        assert_eq!(g.len(), 4);
        assert_eq!(g[0], Gate::Rz(Qubit::new(1), PI / 4.0));
        let g = gates(&format!("{HDR}qreg q[3];\ncswap q[0], q[1], q[2];"));
        assert_eq!(g.len(), 3);
        assert!(matches!(g[1], Gate::Ccx { .. }));
    }

    #[test]
    fn u_family_decomposes() {
        let g = gates(&format!("{HDR}qreg q[1];\nu1(0.3) q[0];"));
        assert_eq!(g, vec![Gate::Rz(Qubit::new(0), 0.3)]);
        let g = gates(&format!("{HDR}qreg q[1];\nry(0.3) q[0];"));
        assert_eq!(
            g,
            vec![
                Gate::Sdg(Qubit::new(0)),
                Gate::Rx(Qubit::new(0), 0.3),
                Gate::S(Qubit::new(0))
            ]
        );
        let g = gates(&format!("{HDR}qreg q[1];\nu3(0.1,0.2,0.3) q[0];"));
        assert_eq!(g.len(), 5);
        assert_eq!(g[0], Gate::Rz(Qubit::new(0), 0.3));
        assert_eq!(g[4], Gate::Rz(Qubit::new(0), 0.2));
        let g = gates(&format!("{HDR}qreg q[1];\nid q[0];"));
        assert!(g.is_empty());
    }

    #[test]
    fn measure_barrier_creg_are_graceful_noops() {
        let lowered = lower_src(&format!(
            "{HDR}qreg q[2];\ncreg c[2];\nh q;\nbarrier q;\nmeasure q -> c;"
        ))
        .unwrap();
        assert_eq!(lowered.gate_count(), 2);
        assert_eq!(lowered.n_qubits(), 2, "classical bits add no wires");
    }

    #[test]
    fn measure_width_mismatch_is_rejected() {
        let err = lower_src(&format!("{HDR}qreg q[2];\ncreg c[3];\nmeasure q -> c;")).unwrap_err();
        assert!(err.message().contains("width mismatch"));
    }

    #[test]
    fn measure_mixed_forms_are_rejected() {
        let err =
            lower_src(&format!("{HDR}qreg q[2];\ncreg c[2];\nmeasure q -> c[0];")).unwrap_err();
        assert!(err.message().contains("register -> register"));
    }

    #[test]
    fn index_out_of_range_reports_span() {
        let err = lower_src(&format!("{HDR}qreg q[2];\nh q[5];")).unwrap_err();
        assert!(err.message().contains("out of range"));
        assert_eq!(err.line(), 4);
        assert_eq!(err.col(), 3);
    }

    #[test]
    fn unknown_register_and_wrong_kind() {
        let err = lower_src(&format!("{HDR}h nope[0];")).unwrap_err();
        assert!(err.message().contains("unknown quantum register"));
        let err = lower_src(&format!("{HDR}creg c[2];\nh c[0];")).unwrap_err();
        assert!(err.message().contains("classical register"));
    }

    #[test]
    fn arity_and_param_count_mismatches() {
        let err = lower_src(&format!("{HDR}qreg q[2];\nh q[0], q[1];")).unwrap_err();
        assert!(err.message().contains("acts on 1 qubit(s)"));
        let err = lower_src(&format!("{HDR}qreg q[1];\nrz q[0];")).unwrap_err();
        assert!(err.message().contains("takes 1 parameter(s)"));
    }

    #[test]
    fn duplicate_qubit_is_rejected() {
        let err = lower_src(&format!("{HDR}qreg q[2];\ncx q[0], q[0];")).unwrap_err();
        assert!(err.message().contains("duplicate qubit"));
    }

    #[test]
    fn redefinition_is_rejected() {
        let err = lower_src(&format!("{HDR}gate h a {{ x a; }}")).unwrap_err();
        assert!(err.message().contains("already defined"));
        let err = lower_src(&format!("{HDR}qreg q[2];\nqreg q[3];")).unwrap_err();
        assert!(err.message().contains("already declared"));
    }

    #[test]
    fn gate_body_unknown_name_is_definition_time_error() {
        let err = lower_src(&format!("{HDR}gate g a {{ mystery a; }}")).unwrap_err();
        assert!(err.message().contains("unknown gate `mystery`"));
    }

    #[test]
    fn gate_body_unknown_param_is_definition_time_error() {
        let err = lower_src(&format!("{HDR}gate g(theta) a {{ rz(phi) a; }}")).unwrap_err();
        assert!(err.message().contains("unknown identifier `phi`"));
    }

    #[test]
    fn top_level_param_identifier_is_rejected() {
        let err = lower_src(&format!("{HDR}qreg q[1];\nrz(theta) q[0];")).unwrap_err();
        assert!(err.message().contains("only constants and `pi`"));
    }

    #[test]
    fn non_finite_parameters_are_rejected() {
        for angle in ["0/0", "1/0", "sqrt(-1)", "ln(0)", "exp(1000)", "pi^1000"] {
            let err = lower_src(&format!("{HDR}qreg q[2];\nrz({angle}) q[0];")).unwrap_err();
            assert!(err.message().contains("must be finite"), "rz({angle})");
            assert_eq!((err.line(), err.col()), (4, 1), "rz({angle})");
        }
        let err = lower_src(&format!(
            "{HDR}qreg q[2];\ngate g(x) a {{ rz(1/x) a; }}\ng(0) q[0];"
        ))
        .unwrap_err();
        assert!(err.message().contains("must be finite"));
        assert_eq!(err.line(), 5, "reported at the macro application");
    }

    #[test]
    fn qubits_accumulate_across_qregs() {
        let lowered = lower_src(&format!("{HDR}qreg a[2];\nqreg b[3];\nx b[0];")).unwrap();
        assert_eq!(lowered.n_qubits(), 5);
        assert_eq!(lowered.gates()[0], Gate::X(Qubit::new(2)));
    }

    /// `gate g0 a { x a; }` and `n` more definitions, each applying the
    /// previous one `copies` times.
    fn macro_tower(n: usize, copies: usize) -> String {
        let mut src = format!("{HDR}qreg q[2];\ngate g0 a {{ x a; }}\n");
        for i in 1..=n {
            let body = format!("g{} a; ", i - 1).repeat(copies);
            src.push_str(&format!("gate g{i} a {{ {body}}}\n"));
        }
        src
    }

    #[test]
    fn macro_nesting_is_bounded_at_definition() {
        // g0 is one level deep, so g255 is MAX_NESTING levels deep.
        let g = gates(&format!("{}g255 q[1];", macro_tower(255, 1)));
        assert_eq!(g, vec![Gate::X(Qubit::new(1))]);
        let err = lower_src(&macro_tower(256, 1)).unwrap_err();
        assert_eq!(
            err.message(),
            format!("gate `g256` nests gate definitions more than {MAX_NESTING} levels deep")
        );
        assert_eq!((err.line(), err.col()), (260, 1), "at the definition");
    }

    #[test]
    fn lowered_gate_count_is_capped_before_emitting() {
        // g20 doubles up to exactly the cap; one more gate is refused.
        let tower = macro_tower(20, 2);
        assert_eq!(gates(&format!("{tower}g20 q[0];")).len(), MAX_LOWERED_GATES);
        let err = lower_src(&format!("{tower}g20 q[0];\nh q[1];")).unwrap_err();
        assert_eq!(
            err.message(),
            format!("gate `h` would lower the program to more than {MAX_LOWERED_GATES} gates")
        );
        assert_eq!((err.line(), err.col()), (26, 1));
        // A broadcast counts every shot (two here); sizes saturate instead
        // of overflowing.
        let err = lower_src(&format!("{tower}g20 q;")).unwrap_err();
        assert!(err.message().starts_with("gate `g20` would lower"), "{err}");
        let huge = macro_tower(80, 2);
        let err = lower_src(&format!("{huge}g80 q[0];")).unwrap_err();
        assert!(err.message().starts_with("gate `g80` would lower"), "{err}");
    }

    #[test]
    fn total_qubit_count_cannot_overflow() {
        let err =
            lower_src(&format!("{HDR}qreg a[18446744073709551615];\nqreg b[1];")).unwrap_err();
        assert_eq!(
            err.message(),
            format!("register `b` takes the qubit count past {}", usize::MAX)
        );
        assert_eq!((err.line(), err.col()), (4, 1));
    }
}
