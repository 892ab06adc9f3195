//! Semantic analysis and lowering into the `oneq_circuit` IR.
//!
//! The lowering walks a parsed [`Program`] statement by statement:
//!
//! * `qreg` declarations allocate contiguous wire ranges in declaration
//!   order (the flat index space of the output [`Circuit`]);
//! * `creg`, `measure` and `barrier` are validated but emit nothing — the
//!   OneQ pipeline measures every photon as part of the pattern anyway;
//! * `gate` definitions become macros, checked at definition time (every
//!   referenced gate must already exist with matching parameter and
//!   argument counts, so expansion can never recurse);
//! * gate applications broadcast over whole-register arguments and expand
//!   through macros down to *builtin* gates.
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
//! this crate's own parser.

use crate::ast::{Argument, Expr, GateOp, Program, Stmt};
use crate::error::{ParseError, Span};
use crate::parser::parse_program;
use std::collections::HashMap;
use std::f64::consts::PI;
use std::rc::Rc;

use oneq_circuit::{Circuit, Gate, Qubit};

/// qelib1 composite gates, defined over the builtins with the standard
/// qelib1.inc bodies. Parsed by this crate's own parser at lowering time.
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
}

/// A user (or prelude) gate definition ready for expansion.
#[derive(Debug)]
struct MacroDef {
    params: Vec<String>,
    qargs: Vec<String>,
    body: Vec<GateOp>,
}

#[derive(Debug, Clone)]
enum GateEntry {
    Builtin(Builtin),
    Macro(Rc<MacroDef>),
}

impl GateEntry {
    fn signature(&self) -> (usize, usize) {
        match self {
            GateEntry::Builtin(b) => b.signature(),
            GateEntry::Macro(m) => (m.params.len(), m.qargs.len()),
        }
    }
}

/// A declared register: contiguous wires `offset..offset + size`.
#[derive(Debug, Clone, Copy)]
struct RegInfo {
    offset: usize,
    size: usize,
}

/// The result of lowering a program.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The circuit over all declared qubits (qregs concatenated in
    /// declaration order).
    pub circuit: Circuit,
    /// Quantum registers as `(name, size)` in declaration order.
    pub qregs: Vec<(String, usize)>,
    /// Classical registers as `(name, size)` in declaration order.
    pub cregs: Vec<(String, usize)>,
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
/// mismatches, duplicate qubit arguments, and redefinitions.
pub fn lower(program: &Program, source: &str) -> Result<Lowered, ParseError> {
    Lowerer::new(source, program.includes_qelib1).run(program)
}

/// An argument resolved against the register table.
#[derive(Debug, Clone, Copy)]
enum Resolved {
    One(usize),
    Whole { offset: usize, size: usize },
}

struct Lowerer<'s> {
    lines: Vec<&'s str>,
    gates: HashMap<String, GateEntry>,
    qregs: HashMap<String, RegInfo>,
    cregs: HashMap<String, RegInfo>,
    qreg_order: Vec<(String, usize)>,
    creg_order: Vec<(String, usize)>,
    n_qubits: usize,
    emitted: Vec<(Gate, Span)>,
    qelib1: bool,
}

impl<'s> Lowerer<'s> {
    fn new(source: &'s str, qelib1: bool) -> Self {
        let mut lw = Lowerer {
            lines: source.lines().collect(),
            gates: HashMap::new(),
            qregs: HashMap::new(),
            cregs: HashMap::new(),
            qreg_order: Vec::new(),
            creg_order: Vec::new(),
            n_qubits: 0,
            emitted: Vec::new(),
            qelib1,
        };
        lw.gates.insert("U".into(), GateEntry::Builtin(Builtin::U3));
        lw.gates
            .insert("CX".into(), GateEntry::Builtin(Builtin::Cx));
        if qelib1 {
            lw.install_qelib1();
        }
        lw
    }

    fn install_qelib1(&mut self) {
        for (name, b) in [
            ("u3", Builtin::U3),
            ("u2", Builtin::U2),
            ("u1", Builtin::U1),
            ("p", Builtin::U1),
            ("cx", Builtin::Cx),
            ("id", Builtin::Id),
            ("h", Builtin::H),
            ("x", Builtin::X),
            ("y", Builtin::Y),
            ("z", Builtin::Z),
            ("s", Builtin::S),
            ("sdg", Builtin::Sdg),
            ("t", Builtin::T),
            ("tdg", Builtin::Tdg),
            ("rx", Builtin::Rx),
            ("ry", Builtin::Ry),
            ("rz", Builtin::Rz),
            ("cz", Builtin::Cz),
            ("cu1", Builtin::Cp),
            ("cp", Builtin::Cp),
            ("swap", Builtin::Swap),
            ("ccx", Builtin::Ccx),
        ] {
            self.gates.insert(name.into(), GateEntry::Builtin(b));
        }
        let prelude = parse_program(QELIB1_PRELUDE).expect("embedded qelib1 prelude must parse");
        for stmt in &prelude.stmts {
            let Stmt::Gate(def) = stmt else {
                unreachable!("prelude contains only gate definitions");
            };
            // Prelude bodies reference only builtins, so definition-time
            // checking against the already-filled table must succeed.
            self.define_gate(def.name.clone(), def, QELIB1_PRELUDE)
                .expect("embedded qelib1 prelude must lower");
        }
    }

    fn error(&self, span: Span, message: impl Into<String>) -> ParseError {
        let text = self
            .lines
            .get(span.line.saturating_sub(1))
            .copied()
            .unwrap_or("");
        ParseError::new(message, span, text)
    }

    /// Like [`Lowerer::error`] but rendering the snippet from an alternate
    /// source (used while installing the embedded prelude).
    fn error_in(&self, span: Span, message: impl Into<String>, source: &str) -> ParseError {
        let text = source
            .lines()
            .nth(span.line.saturating_sub(1))
            .unwrap_or("");
        ParseError::new(message, span, text)
    }

    fn unknown_gate(&self, name: &str, span: Span) -> ParseError {
        let hint = if !self.qelib1 && QELIB1_NAMES.contains(&name) {
            "; did you forget `include \"qelib1.inc\";`?"
        } else {
            ""
        };
        self.error(span, format!("unknown gate `{name}`{hint}"))
    }

    fn run(mut self, program: &Program) -> Result<Lowered, ParseError> {
        for stmt in &program.stmts {
            match stmt {
                Stmt::QReg { name, size, span } => self.declare_qreg(name, *size, *span)?,
                Stmt::CReg { name, size, span } => self.declare_creg(name, *size, *span)?,
                Stmt::Gate(def) => {
                    // User definitions shadow nothing: redefinition of any
                    // known name (builtin or macro) is an error.
                    self.define_gate_checked(def)?;
                }
                Stmt::Apply {
                    name,
                    params,
                    args,
                    span,
                } => self.apply(name, params, args, *span)?,
                Stmt::Barrier { args, span: _ } => {
                    for arg in args {
                        self.resolve_quantum(arg)?;
                    }
                }
                Stmt::Measure { src, dst, span } => self.measure(src, dst, *span)?,
            }
        }
        let mut circuit = Circuit::new(self.n_qubits);
        for (gate, span) in self.emitted {
            if let Err(e) = circuit.push(gate) {
                // Duplicate qubits are caught during emission and offsets
                // are in range by construction, so this is unreachable in
                // practice; report it cleanly rather than panicking.
                let text = self
                    .lines
                    .get(span.line.saturating_sub(1))
                    .copied()
                    .unwrap_or("");
                return Err(ParseError::new(format!("invalid gate: {e}"), span, text));
            }
        }
        Ok(Lowered {
            circuit,
            qregs: self.qreg_order,
            cregs: self.creg_order,
        })
    }

    fn declare_qreg(&mut self, name: &str, size: usize, span: Span) -> Result<(), ParseError> {
        if self.qregs.contains_key(name) || self.cregs.contains_key(name) {
            return Err(self.error(span, format!("register `{name}` is already declared")));
        }
        self.qregs.insert(
            name.to_string(),
            RegInfo {
                offset: self.n_qubits,
                size,
            },
        );
        self.qreg_order.push((name.to_string(), size));
        self.n_qubits += size;
        Ok(())
    }

    fn declare_creg(&mut self, name: &str, size: usize, span: Span) -> Result<(), ParseError> {
        if self.qregs.contains_key(name) || self.cregs.contains_key(name) {
            return Err(self.error(span, format!("register `{name}` is already declared")));
        }
        self.cregs
            .insert(name.to_string(), RegInfo { offset: 0, size });
        self.creg_order.push((name.to_string(), size));
        Ok(())
    }

    fn define_gate_checked(&mut self, def: &crate::ast::GateDef) -> Result<(), ParseError> {
        if self.gates.contains_key(&def.name) {
            return Err(self.error(def.span, format!("gate `{}` is already defined", def.name)));
        }
        let name = def.name.clone();
        self.define_gate(name, def, "")
    }

    /// Validates a definition and installs it as a macro. `prelude_source`
    /// is non-empty while installing the embedded prelude (for snippets).
    fn define_gate(
        &mut self,
        name: String,
        def: &crate::ast::GateDef,
        prelude_source: &str,
    ) -> Result<(), ParseError> {
        let mk_err = |lw: &Self, span: Span, msg: String| -> ParseError {
            if prelude_source.is_empty() {
                lw.error(span, msg)
            } else {
                lw.error_in(span, msg, prelude_source)
            }
        };
        for (i, p) in def.params.iter().enumerate() {
            if def.params[i + 1..].contains(p) {
                return Err(mk_err(
                    self,
                    def.span,
                    format!("duplicate parameter `{p}` in gate `{name}`"),
                ));
            }
        }
        for (i, q) in def.qargs.iter().enumerate() {
            if def.qargs[i + 1..].contains(q) {
                return Err(mk_err(
                    self,
                    def.span,
                    format!("duplicate qubit argument `{q}` in gate `{name}`"),
                ));
            }
        }
        for op in &def.body {
            let entry = self
                .gates
                .get(&op.name)
                .ok_or_else(|| {
                    let hint = if !self.qelib1 && QELIB1_NAMES.contains(&op.name.as_str()) {
                        "; did you forget `include \"qelib1.inc\";`?"
                    } else {
                        ""
                    };
                    mk_err(
                        self,
                        op.span,
                        format!("unknown gate `{}` in body of `{name}`{hint}", op.name),
                    )
                })?
                .clone();
            let (n_params, n_qubits) = entry.signature();
            if op.params.len() != n_params {
                return Err(mk_err(
                    self,
                    op.span,
                    format!(
                        "gate `{}` takes {n_params} parameter(s), got {}",
                        op.name,
                        op.params.len()
                    ),
                ));
            }
            if op.args.len() != n_qubits {
                return Err(mk_err(
                    self,
                    op.span,
                    format!(
                        "gate `{}` acts on {n_qubits} qubit(s), got {}",
                        op.name,
                        op.args.len()
                    ),
                ));
            }
            for arg in &op.args {
                if !def.qargs.contains(arg) {
                    return Err(mk_err(
                        self,
                        op.span,
                        format!("`{arg}` is not a qubit argument of gate `{name}`"),
                    ));
                }
            }
            for (i, a) in op.args.iter().enumerate() {
                if op.args[i + 1..].contains(a) {
                    return Err(mk_err(
                        self,
                        op.span,
                        format!("gate `{}` applied to duplicate qubit `{a}`", op.name),
                    ));
                }
            }
            for expr in &op.params {
                check_expr_params(expr, &def.params).map_err(|(span, p)| {
                    mk_err(
                        self,
                        span,
                        format!("unknown identifier `{p}` in body of gate `{name}`"),
                    )
                })?;
            }
        }
        self.gates.insert(
            name,
            GateEntry::Macro(Rc::new(MacroDef {
                params: def.params.clone(),
                qargs: def.qargs.clone(),
                body: def.body.clone(),
            })),
        );
        Ok(())
    }

    fn resolve_quantum(&self, arg: &Argument) -> Result<Resolved, ParseError> {
        let info = self.qregs.get(&arg.reg).ok_or_else(|| {
            if self.cregs.contains_key(&arg.reg) {
                self.error(
                    arg.span,
                    format!(
                        "`{}` is a classical register; a quantum register is required",
                        arg.reg
                    ),
                )
            } else {
                self.error(arg.span, format!("unknown quantum register `{}`", arg.reg))
            }
        })?;
        match arg.index {
            Some(i) if i >= info.size => Err(self.error(
                arg.span,
                format!(
                    "index {i} out of range for register `{}` of size {}",
                    arg.reg, info.size
                ),
            )),
            Some(i) => Ok(Resolved::One(info.offset + i)),
            None => Ok(Resolved::Whole {
                offset: info.offset,
                size: info.size,
            }),
        }
    }

    fn resolve_classical(&self, arg: &Argument) -> Result<(usize, Option<usize>), ParseError> {
        let info = self.cregs.get(&arg.reg).ok_or_else(|| {
            if self.qregs.contains_key(&arg.reg) {
                self.error(
                    arg.span,
                    format!(
                        "`{}` is a quantum register; a classical register is required",
                        arg.reg
                    ),
                )
            } else {
                self.error(
                    arg.span,
                    format!("unknown classical register `{}`", arg.reg),
                )
            }
        })?;
        match arg.index {
            Some(i) if i >= info.size => Err(self.error(
                arg.span,
                format!(
                    "index {i} out of range for register `{}` of size {}",
                    arg.reg, info.size
                ),
            )),
            index => Ok((info.size, index)),
        }
    }

    fn measure(&mut self, src: &Argument, dst: &Argument, span: Span) -> Result<(), ParseError> {
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

    fn apply(
        &mut self,
        name: &str,
        params: &[Expr],
        args: &[Argument],
        span: Span,
    ) -> Result<(), ParseError> {
        let entry = self
            .gates
            .get(name)
            .ok_or_else(|| self.unknown_gate(name, span))?
            .clone();
        let (n_params, n_qubits) = entry.signature();
        if params.len() != n_params {
            return Err(self.error(
                span,
                format!(
                    "gate `{name}` takes {n_params} parameter(s), got {}",
                    params.len()
                ),
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
        let values: Vec<f64> = params
            .iter()
            .map(|e| {
                e.eval(&HashMap::new()).map_err(|(pspan, p)| {
                    self.error(
                        pspan,
                        format!(
                            "unknown identifier `{p}` in parameter expression \
                             (only constants and `pi` are allowed here)"
                        ),
                    )
                })
            })
            .collect::<Result<_, _>>()?;
        let resolved: Vec<Resolved> = args
            .iter()
            .map(|a| self.resolve_quantum(a))
            .collect::<Result<_, _>>()?;

        // Broadcast: whole-register arguments must agree on size; single
        // qubits repeat across the broadcast.
        let mut width: Option<usize> = None;
        for (arg, r) in args.iter().zip(&resolved) {
            if let Resolved::Whole { size, .. } = r {
                match width {
                    None => width = Some(*size),
                    Some(w) if w != *size => {
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
        for shot in 0..width.unwrap_or(1) {
            let qubits: Vec<usize> = resolved
                .iter()
                .map(|r| match *r {
                    Resolved::One(q) => q,
                    Resolved::Whole { offset, .. } => offset + shot,
                })
                .collect();
            for (i, &q) in qubits.iter().enumerate() {
                if qubits[i + 1..].contains(&q) {
                    return Err(self.error(
                        span,
                        format!("gate `{name}` applied to duplicate qubit (wire {q})"),
                    ));
                }
            }
            self.emit(&entry, &values, &qubits, span)?;
        }
        Ok(())
    }

    /// Emits one fully-resolved application (post-broadcast).
    fn emit(
        &mut self,
        entry: &GateEntry,
        params: &[f64],
        qubits: &[usize],
        span: Span,
    ) -> Result<(), ParseError> {
        match entry {
            GateEntry::Builtin(b) => {
                // Checked here, not at the call site, so values computed
                // inside a macro body are caught too.
                if let Some(v) = params.iter().find(|v| !v.is_finite()) {
                    return Err(self.error(
                        span,
                        format!("gate parameter evaluates to {v}; angles must be finite"),
                    ));
                }
                self.emit_builtin(*b, params, qubits, span);
                Ok(())
            }
            GateEntry::Macro(m) => {
                let env: HashMap<String, f64> = m
                    .params
                    .iter()
                    .cloned()
                    .zip(params.iter().copied())
                    .collect();
                let binding: HashMap<&str, usize> = m
                    .qargs
                    .iter()
                    .map(String::as_str)
                    .zip(qubits.iter().copied())
                    .collect();
                for op in &m.body {
                    // Definition-time checks guarantee these lookups
                    // succeed; expansion therefore cannot recurse (a body
                    // can only reference gates defined strictly earlier).
                    let inner = self
                        .gates
                        .get(&op.name)
                        .cloned()
                        .ok_or_else(|| self.unknown_gate(&op.name, op.span))?;
                    let values: Vec<f64> = op
                        .params
                        .iter()
                        .map(|e| {
                            e.eval(&env).map_err(|(pspan, p)| {
                                self.error(pspan, format!("unknown identifier `{p}`"))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    let inner_qubits: Vec<usize> = op
                        .args
                        .iter()
                        .map(|a| {
                            binding.get(a.as_str()).copied().ok_or_else(|| {
                                self.error(op.span, format!("unbound qubit argument `{a}`"))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    self.emit(&inner, &values, &inner_qubits, span)?;
                }
                Ok(())
            }
        }
    }

    fn emit_builtin(&mut self, b: Builtin, params: &[f64], qs: &[usize], span: Span) {
        if b == Builtin::U2 {
            // u2(φ,λ) = u3(π/2, φ, λ).
            return self.emit_builtin(Builtin::U3, &[PI / 2.0, params[0], params[1]], qs, span);
        }
        let q = |i: usize| Qubit::new(qs[i]);
        let mut push = |gate: Gate| self.emitted.push((gate, span));
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
}

/// Walks an expression checking that every `Param` is in `allowed`.
fn check_expr_params(expr: &Expr, allowed: &[String]) -> Result<(), (Span, String)> {
    match expr {
        Expr::Param(name, span) => {
            if allowed.contains(name) {
                Ok(())
            } else {
                Err((*span, name.clone()))
            }
        }
        Expr::Neg(e) | Expr::Call(_, e) => check_expr_params(e, allowed),
        Expr::Binary(_, a, b) => {
            check_expr_params(a, allowed)?;
            check_expr_params(b, allowed)
        }
        Expr::Real(_) | Expr::Int(_) | Expr::Pi => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn lower_src(src: &str) -> Result<Lowered, ParseError> {
        lower(&parse_program(src)?, src)
    }

    fn gates(src: &str) -> Vec<Gate> {
        lower_src(src)
            .expect("program should lower")
            .circuit
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
        assert_eq!(lowered.circuit.gate_count(), 2);
        assert_eq!(lowered.qregs, vec![("q".to_string(), 2)]);
        assert_eq!(lowered.cregs, vec![("c".to_string(), 2)]);
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
        assert_eq!(lowered.circuit.n_qubits(), 5);
        assert_eq!(lowered.circuit.gates()[0], Gate::X(Qubit::new(2)));
    }
}
