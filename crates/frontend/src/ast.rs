//! Abstract syntax tree for the supported OpenQASM 2.0 subset, plus
//! parameter-expression evaluation. Names borrow from the source.

use crate::error::Span;
use std::fmt;
use std::ops::Range;

/// How deeply an expression may nest (parentheses, unary minus, function
/// calls, `^` operands) and how deeply gate definitions may nest inside
/// one another. The bound keeps the recursive-descent parser and macro
/// expansion inside a worker thread's stack whatever the input.
pub(crate) const MAX_NESTING: usize = 256;

/// A binary operator in a parameter expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `^` (right-associative power)
    Pow,
}

impl BinOp {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Pow => a.powf(b),
        }
    }
}

/// A unary function usable in parameter expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Func {
    /// `sin`
    Sin,
    /// `cos`
    Cos,
    /// `tan`
    Tan,
    /// `exp`
    Exp,
    /// `ln`
    Ln,
    /// `sqrt`
    Sqrt,
}

impl Func {
    /// Looks a function name up.
    pub(crate) fn from_name(name: &str) -> Option<Func> {
        Some(match name {
            "sin" => Func::Sin,
            "cos" => Func::Cos,
            "tan" => Func::Tan,
            "exp" => Func::Exp,
            "ln" => Func::Ln,
            "sqrt" => Func::Sqrt,
            _ => return None,
        })
    }

    fn apply(self, x: f64) -> f64 {
        match self {
            Func::Sin => x.sin(),
            Func::Cos => x.cos(),
            Func::Tan => x.tan(),
            Func::Exp => x.exp(),
            Func::Ln => x.ln(),
            Func::Sqrt => x.sqrt(),
        }
    }
}

/// One step of a parameter expression in postfix order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op<'s> {
    /// Pushes a constant: a literal or `pi`.
    Const(f64),
    /// Pushes the value of a gate's formal parameter (its position in the
    /// definition's parameter list).
    Slot(usize),
    /// An identifier that names no formal parameter in scope; evaluating
    /// it is an error.
    Unbound(&'s str, Span),
    /// Negates the top of the stack.
    Neg,
    /// Combines the top two values.
    Binary(BinOp),
    /// Applies a function to the top of the stack.
    Call(Func),
}

/// The first identifier in `code`, in evaluation order, that names no
/// formal parameter.
pub(crate) fn first_unbound<'s>(code: &[Op<'s>]) -> Option<(Span, &'s str)> {
    code.iter().find_map(|op| match *op {
        Op::Unbound(name, span) => Some((span, name)),
        _ => None,
    })
}

/// Evaluates postfix `code` (one or more expressions in a row) against the
/// formal parameter values `slots`, leaving one value per expression on
/// `stack`, in order. A loop over a value stack: neither evaluating nor
/// dropping an expression recurses, however long it is.
///
/// # Errors
///
/// Returns the span and name of the first [`Op::Unbound`].
pub(crate) fn eval<'s>(
    code: &[Op<'s>],
    slots: &[f64],
    stack: &mut Vec<f64>,
) -> Result<(), (Span, &'s str)> {
    stack.clear();
    for op in code {
        match *op {
            Op::Const(v) => stack.push(v),
            Op::Slot(i) => stack.push(slots[i]),
            Op::Unbound(name, span) => return Err((span, name)),
            Op::Neg => {
                if let Some(a) = stack.last_mut() {
                    *a = -*a;
                }
            }
            Op::Call(f) => {
                if let Some(a) = stack.last_mut() {
                    *a = f.apply(*a);
                }
            }
            Op::Binary(b) => {
                let y = stack.pop().unwrap_or(f64::NAN);
                if let Some(x) = stack.last_mut() {
                    *x = b.apply(*x, y);
                }
            }
        }
    }
    Ok(())
}

/// Where one application's parameter expressions sit in the program's op
/// pool ([`Program::ops`]), and how many there are.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Params {
    /// The expressions' postfix code, one after another.
    pub(crate) ops: Range<usize>,
    /// Number of parameters.
    pub(crate) len: usize,
}

/// A qubit (or classical-bit) argument at statement level: a whole register
/// or one indexed element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Argument<'s> {
    /// Register name.
    pub(crate) reg: &'s str,
    /// `Some(i)` for `reg[i]`, `None` for the whole register.
    pub(crate) index: Option<usize>,
    /// Where the argument starts.
    pub(crate) span: Span,
}

impl fmt::Display for Argument<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some(i) => write!(f, "{}[{i}]", self.reg),
            None => write!(f, "{}", self.reg),
        }
    }
}

/// One operation inside a `gate` body. Arguments are the definition's
/// formal qubit names (OpenQASM 2.0 forbids indexing inside bodies).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GateOp<'s> {
    /// Gate name being applied.
    pub(crate) name: &'s str,
    /// Parameter expressions; identifiers naming a formal parameter are
    /// already [`Op::Slot`]s.
    pub(crate) params: Params,
    /// Formal qubit argument names.
    pub(crate) args: Vec<&'s str>,
    /// Where the operation starts.
    pub(crate) span: Span,
}

/// A user `gate` definition (a macro over its body).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GateDef<'s> {
    /// Gate name.
    pub(crate) name: &'s str,
    /// Formal parameter names.
    pub(crate) params: Vec<&'s str>,
    /// Formal qubit argument names.
    pub(crate) qargs: Vec<&'s str>,
    /// Body operations in program order.
    pub(crate) body: Vec<GateOp<'s>>,
    /// Where the definition starts.
    pub(crate) span: Span,
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Stmt<'s> {
    /// `qreg name[n];`
    QReg {
        /// Register name.
        name: &'s str,
        /// Number of qubits.
        size: usize,
        /// Statement span.
        span: Span,
    },
    /// `creg name[n];`
    CReg {
        /// Register name.
        name: &'s str,
        /// Number of bits.
        size: usize,
        /// Statement span.
        span: Span,
    },
    /// `gate name(params) qargs { ... }`
    Gate(GateDef<'s>),
    /// `name(params) args;` — a gate application.
    Apply {
        /// Gate name.
        name: &'s str,
        /// Parameter expressions (fully constant at top level).
        params: Params,
        /// Qubit arguments (registers broadcast), in [`Program::args`].
        args: Range<usize>,
        /// Statement span.
        span: Span,
    },
    /// `barrier args;` — validated, no IR effect.
    Barrier {
        /// Qubit arguments, in [`Program::args`].
        args: Range<usize>,
    },
    /// `measure src -> dst;` — validated, no IR effect (the OneQ pipeline
    /// measures every photon as part of the pattern).
    Measure {
        /// Quantum source and classical destination, in [`Program::args`].
        args: Range<usize>,
        /// Statement span.
        span: Span,
    },
}

/// A parsed program: the statement list plus whether `qelib1.inc` was
/// included (which unlocks the standard gate names). Every statement's
/// arguments and parameter expressions live in two pools, so parsing a
/// statement allocates nothing once the pools have grown.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Program<'s> {
    /// Top-level statements in source order.
    pub(crate) stmts: Vec<Stmt<'s>>,
    /// Statement arguments, in source order.
    pub(crate) args: Vec<Argument<'s>>,
    /// Parameter expressions' postfix code, in source order.
    pub(crate) ops: Vec<Op<'s>>,
    /// `true` once `include "qelib1.inc";` was seen.
    pub(crate) includes_qelib1: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn value(code: &[Op<'static>], slots: &[f64]) -> Result<f64, (Span, &'static str)> {
        let mut stack = Vec::new();
        eval(code, slots, &mut stack)?;
        assert_eq!(stack.len(), 1);
        Ok(stack[0])
    }

    #[test]
    fn eval_constant_folds() {
        let quarter = [Op::Const(PI), Op::Const(4.0), Op::Binary(BinOp::Div)];
        assert_eq!(value(&quarter, &[]).unwrap(), PI / 4.0);
        // Two expressions in a row evaluate to two values.
        let mut stack = Vec::new();
        eval(&[Op::Const(1.0), Op::Slot(0), Op::Neg], &[2.0], &mut stack).unwrap();
        assert_eq!(stack, vec![1.0, -2.0]);
    }

    #[test]
    fn eval_resolves_params() {
        let c = [Op::Slot(1), Op::Neg];
        assert_eq!(value(&c, &[2.0, 0.5]).unwrap(), -0.5);
    }

    #[test]
    fn eval_unbound_param_reports_span() {
        let c = [
            Op::Const(1.0),
            Op::Unbound("phi", Span::new(3, 7)),
            Op::Binary(BinOp::Add),
            Op::Unbound("psi", Span::new(3, 9)),
            Op::Binary(BinOp::Mul),
        ];
        assert_eq!(value(&c, &[]).unwrap_err(), (Span::new(3, 7), "phi"));
        assert_eq!(first_unbound(&c), Some((Span::new(3, 7), "phi")));
    }

    #[test]
    fn eval_pow_and_funcs() {
        let c = [Op::Const(2.0), Op::Const(10.0), Op::Binary(BinOp::Pow)];
        assert_eq!(value(&c, &[]).unwrap(), 1024.0);
        let s = [Op::Slot(0), Op::Call(Func::Sqrt)];
        assert_eq!(value(&s, &[9.0]).unwrap(), 3.0);
        assert_eq!(Func::from_name("cos"), Some(Func::Cos));
        assert_eq!(Func::from_name("nope"), None);
    }

    #[test]
    fn argument_display() {
        let a = Argument {
            reg: "q",
            index: Some(2),
            span: Span::new(1, 1),
        };
        assert_eq!(a.to_string(), "q[2]");
        let whole = Argument {
            reg: "q",
            index: None,
            span: Span::new(1, 1),
        };
        assert_eq!(whole.to_string(), "q");
    }
}
