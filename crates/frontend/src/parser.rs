//! Recursive-descent parser for the supported OpenQASM 2.0 subset.
//!
//! Grammar (after the mandatory `OPENQASM 2.0;` header):
//!
//! ```text
//! statement := "include" string ";"
//!            | "qreg" id "[" int "]" ";"
//!            | "creg" id "[" int "]" ";"
//!            | "gate" id [ "(" [ids] ")" ] ids "{" {gop} "}"
//!            | "barrier" args ";"
//!            | "measure" arg "->" arg ";"
//!            | id [ "(" exprs ")" ] args ";"          // gate application
//! gop       := id [ "(" exprs ")" ] ids ";" | "barrier" ids ";"
//! arg       := id [ "[" int "]" ]
//! expr      := term  { ("+"|"-") term }               // precedence climbing
//! term      := unary { ("*"|"/") unary }
//! unary     := "-" unary | pow
//! pow       := atom [ "^" unary ]                     // right-associative
//! atom      := real | int | "pi" | id | id "(" expr ")" | "(" expr ")"
//! ```
//!
//! The parser pulls tokens from the [`Lexer`] one at a time. A lexical
//! error anywhere in the source takes precedence over a syntax
//! error: on a syntax error the rest of the source is lexed, and its first
//! lexical error, if any, is returned instead. Statement arguments and
//! parameter expressions go into the program's two pools; expressions are
//! built in postfix order ([`Op`]), with identifiers that name a formal
//! parameter of the enclosing gate definition resolved to its position.
//! An expression may nest at most [`MAX_NESTING`] levels deep.
//!
//! Unsupported OpenQASM 2.0 constructs — `opaque`, `if`, `reset`, includes
//! other than `qelib1.inc` — are rejected with a targeted message rather
//! than a generic syntax error.

use crate::ast::{Argument, BinOp, Func, GateDef, GateOp, Op, Params, Program, Stmt, MAX_NESTING};
use crate::error::{ParseError, Span};
use crate::lexer::{Lexer, Token, TokenKind};
use std::f64::consts::PI;
use std::ops::Range;

/// Parses `source` into a [`Program`] (syntax only; see
/// [`crate::lower`] for semantic analysis).
///
/// # Errors
///
/// Returns the first lexical error, or else the first syntactic error,
/// with its source span.
pub(crate) fn parse_program(source: &str) -> Result<Program<'_>, ParseError> {
    let mut lexer = Lexer::new(source);
    let tok = lexer.next_token()?;
    let mut parser = Parser {
        source,
        lexer,
        tok,
        formals: Vec::new(),
        depth: 0,
        args: Vec::new(),
        ops: Vec::new(),
    };
    parser
        .program()
        .map_err(|e| parser.lexer.first_error().unwrap_or(e))
}

struct Parser<'s> {
    source: &'s str,
    lexer: Lexer<'s>,
    /// The current (not yet consumed) token.
    tok: Token<'s>,
    /// Formal parameters of the gate definition being parsed (empty at top
    /// level).
    formals: Vec<&'s str>,
    /// Expression levels currently open.
    depth: usize,
    /// The program's argument pool.
    args: Vec<Argument<'s>>,
    /// The program's postfix-code pool.
    ops: Vec<Op<'s>>,
}

impl<'s> Parser<'s> {
    fn bump(&mut self) -> Result<(), ParseError> {
        self.tok = self.lexer.next_token()?;
        Ok(())
    }

    /// Whether the current token is of `kind`'s variant. The parser asks
    /// this only of variants without a payload; comparing discriminants
    /// skips the payload comparison `==` would compile to.
    fn at(&self, kind: TokenKind<'_>) -> bool {
        std::mem::discriminant(&self.tok.kind) == std::mem::discriminant(&kind)
    }

    fn error(&self, span: Span, message: impl Into<String>) -> ParseError {
        ParseError::at(self.source, span, message)
    }

    fn unexpected(&self, what: &str) -> ParseError {
        self.error(
            self.tok.span,
            format!("expected {what}, found {}", self.tok.kind),
        )
    }

    fn expect(&mut self, kind: TokenKind<'_>, what: &str) -> Result<(), ParseError> {
        if self.at(kind) {
            self.bump()
        } else {
            Err(self.unexpected(what))
        }
    }

    fn expect_semicolon(&mut self) -> Result<(), ParseError> {
        self.expect(TokenKind::Semicolon, "`;` after statement")
    }

    fn expect_ident(&mut self, what: &str) -> Result<(&'s str, Span), ParseError> {
        match self.tok.kind {
            TokenKind::Ident(name) => {
                let span = self.tok.span;
                self.bump()?;
                Ok((name, span))
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn expect_index(&mut self, what: &str) -> Result<usize, ParseError> {
        match self.tok.kind {
            TokenKind::Int(v) => {
                let span = self.tok.span;
                self.bump()?;
                usize::try_from(v)
                    .map_err(|_| self.error(span, format!("{what} `{v}` is out of range")))
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn program(&mut self) -> Result<Program<'s>, ParseError> {
        self.header()?;
        let mut program = Program {
            stmts: Vec::new(),
            args: Vec::new(),
            ops: Vec::new(),
            includes_qelib1: false,
        };
        while !self.at(TokenKind::Eof) {
            if let Some(stmt) = self.statement(&mut program)? {
                program.stmts.push(stmt);
            }
        }
        program.args = std::mem::take(&mut self.args);
        program.ops = std::mem::take(&mut self.ops);
        Ok(program)
    }

    fn header(&mut self) -> Result<(), ParseError> {
        if self.tok.kind != TokenKind::Ident("OPENQASM") {
            return Err(self.error(
                self.tok.span,
                "expected `OPENQASM 2.0;` header as the first statement",
            ));
        }
        self.bump()?;
        match self.tok.kind {
            TokenKind::Real(2.0) => self.bump()?,
            TokenKind::Real(x) => {
                return Err(self.error(
                    self.tok.span,
                    format!("unsupported OpenQASM version {x}; only 2.0 is supported"),
                ));
            }
            _ => return Err(self.unexpected("version `2.0`")),
        }
        self.expect_semicolon()
    }

    /// Parses one top-level statement. `include` statements mutate
    /// `program` directly and yield `None`.
    fn statement(&mut self, program: &mut Program<'s>) -> Result<Option<Stmt<'s>>, ParseError> {
        let span = self.tok.span;
        let TokenKind::Ident(word) = self.tok.kind else {
            return Err(self.unexpected("a statement"));
        };
        match word {
            "include" => {
                self.include(program)?;
                Ok(None)
            }
            "qreg" | "creg" => self.register(word == "qreg", span).map(Some),
            "gate" => self.gate_def(span).map(Some),
            "barrier" => {
                self.bump()?;
                let args = self.argument_list()?;
                self.expect_semicolon()?;
                Ok(Some(Stmt::Barrier { args }))
            }
            "measure" => {
                self.bump()?;
                let start = self.args.len();
                self.argument()?;
                self.expect(TokenKind::Arrow, "`->` in measure statement")?;
                self.argument()?;
                self.expect_semicolon()?;
                Ok(Some(Stmt::Measure {
                    args: start..self.args.len(),
                    span,
                }))
            }
            "opaque" => Err(self.error(
                span,
                "unsupported construct: `opaque` gates have no body to lower; \
                 define the gate with `gate ... { ... }` instead",
            )),
            "if" => Err(self.error(
                span,
                "unsupported construct: classically-controlled `if` statements \
                 (the OneQ pipeline compiles straight-line circuits)",
            )),
            "reset" => Err(self.error(
                span,
                "unsupported construct: `reset` (mid-circuit re-initialization \
                 has no one-way equivalent in this pipeline)",
            )),
            _ => self.apply(span).map(Some),
        }
    }

    fn include(&mut self, program: &mut Program<'s>) -> Result<(), ParseError> {
        self.bump()?; // `include`
        let TokenKind::Str(path) = self.tok.kind else {
            return Err(self.unexpected("include path"));
        };
        if path != "qelib1.inc" {
            return Err(self.error(
                self.tok.span,
                format!("unsupported include \"{path}\"; only \"qelib1.inc\" is available"),
            ));
        }
        program.includes_qelib1 = true;
        self.bump()?;
        self.expect_semicolon()
    }

    fn register(&mut self, quantum: bool, span: Span) -> Result<Stmt<'s>, ParseError> {
        self.bump()?; // `qreg` / `creg`
        let (name, _) = self.expect_ident("register name")?;
        self.expect(TokenKind::LBracket, "`[` after register name")?;
        let size_span = self.tok.span;
        let size = self.expect_index("register size")?;
        if size == 0 {
            return Err(self.error(size_span, format!("register `{name}` must not be empty")));
        }
        self.expect(TokenKind::RBracket, "`]` after register size")?;
        self.expect_semicolon()?;
        if quantum {
            Ok(Stmt::QReg { name, size, span })
        } else {
            Ok(Stmt::CReg { name, size, span })
        }
    }

    fn gate_def(&mut self, span: Span) -> Result<Stmt<'s>, ParseError> {
        self.bump()?; // `gate`
        let (name, _) = self.expect_ident("gate name")?;
        let params = if self.at(TokenKind::LParen) {
            self.bump()?;
            let names = if self.at(TokenKind::RParen) {
                Vec::new()
            } else {
                self.ident_list("parameter name")?
            };
            self.expect(TokenKind::RParen, "`)` after gate parameters")?;
            names
        } else {
            Vec::new()
        };
        let qargs = self.ident_list("qubit argument name")?;
        self.expect(TokenKind::LBrace, "`{` before gate body")?;
        // The body's expressions resolve these names to their positions.
        self.formals = params;
        let mut body = Vec::new();
        while !self.at(TokenKind::RBrace) {
            if self.at(TokenKind::Eof) {
                return Err(self.error(self.tok.span, format!("unclosed body of gate `{name}`")));
            }
            if let Some(op) = self.gate_op(name)? {
                body.push(op);
            }
        }
        self.bump()?; // `}`
        Ok(Stmt::Gate(GateDef {
            name,
            params: std::mem::take(&mut self.formals),
            qargs,
            body,
            span,
        }))
    }

    /// One operation inside a gate body; `barrier` yields `None`.
    fn gate_op(&mut self, gate: &str) -> Result<Option<GateOp<'s>>, ParseError> {
        let (word, span) = self.expect_ident("gate application")?;
        match word {
            "barrier" => {
                // Barriers are scheduling hints; the lowering keeps program
                // order anyway, so they are validated and dropped.
                self.ident_list("qubit argument name")?;
                self.expect_semicolon()?;
                Ok(None)
            }
            "measure" | "reset" | "if" | "gate" | "qreg" | "creg" | "opaque" | "include" => {
                Err(self.error(
                    span,
                    format!("`{word}` is not allowed inside the body of gate `{gate}`"),
                ))
            }
            _ => {
                let params = self.call_params()?;
                let args = self.ident_list("qubit argument name")?;
                self.expect_semicolon()?;
                Ok(Some(GateOp {
                    name: word,
                    params,
                    args,
                    span,
                }))
            }
        }
    }

    fn apply(&mut self, span: Span) -> Result<Stmt<'s>, ParseError> {
        let (name, _) = self.expect_ident("gate name")?;
        let params = self.call_params()?;
        let args = self.argument_list()?;
        self.expect_semicolon()?;
        Ok(Stmt::Apply {
            name,
            params,
            args,
            span,
        })
    }

    /// `( expr, ... )` if present; empty otherwise.
    fn call_params(&mut self) -> Result<Params, ParseError> {
        let start = self.ops.len();
        let mut len = 0;
        if self.at(TokenKind::LParen) {
            self.bump()?;
            if !self.at(TokenKind::RParen) {
                loop {
                    self.expr()?;
                    len += 1;
                    if self.at(TokenKind::Comma) {
                        self.bump()?;
                    } else {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen, "`)` after gate parameters")?;
        }
        Ok(Params {
            ops: start..self.ops.len(),
            len,
        })
    }

    fn ident_list(&mut self, what: &str) -> Result<Vec<&'s str>, ParseError> {
        let mut names = vec![self.expect_ident(what)?.0];
        while self.at(TokenKind::Comma) {
            self.bump()?;
            names.push(self.expect_ident(what)?.0);
        }
        Ok(names)
    }

    /// Parses one argument into the pool.
    fn argument(&mut self) -> Result<(), ParseError> {
        let (reg, span) = self.expect_ident("register name")?;
        let index = if self.at(TokenKind::LBracket) {
            self.bump()?;
            let i = self.expect_index("register index")?;
            self.expect(TokenKind::RBracket, "`]` after register index")?;
            Some(i)
        } else {
            None
        };
        self.args.push(Argument { reg, index, span });
        Ok(())
    }

    /// Parses a comma-separated argument list into the pool.
    fn argument_list(&mut self) -> Result<Range<usize>, ParseError> {
        let start = self.args.len();
        self.argument()?;
        while self.at(TokenKind::Comma) {
            self.bump()?;
            self.argument()?;
        }
        Ok(start..self.args.len())
    }

    // --- parameter expressions -------------------------------------------

    /// Parses one more level of expression, opened by the token at `span`.
    fn nested(
        &mut self,
        span: Span,
        parse: fn(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(
                span,
                format!("expression nests more than {MAX_NESTING} levels deep"),
            ));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn expr(&mut self) -> Result<(), ParseError> {
        self.term()?;
        loop {
            let op = match self.tok.kind {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(()),
            };
            self.bump()?;
            self.term()?;
            self.ops.push(Op::Binary(op));
        }
    }

    fn term(&mut self) -> Result<(), ParseError> {
        self.unary()?;
        loop {
            let op = match self.tok.kind {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                _ => return Ok(()),
            };
            self.bump()?;
            self.unary()?;
            self.ops.push(Op::Binary(op));
        }
    }

    fn unary(&mut self) -> Result<(), ParseError> {
        if self.at(TokenKind::Minus) {
            let span = self.tok.span;
            self.bump()?;
            self.nested(span, Self::unary)?;
            self.ops.push(Op::Neg);
            return Ok(());
        }
        self.pow()
    }

    fn pow(&mut self) -> Result<(), ParseError> {
        self.atom()?;
        if self.at(TokenKind::Caret) {
            let span = self.tok.span;
            self.bump()?;
            self.nested(span, Self::unary)?;
            self.ops.push(Op::Binary(BinOp::Pow));
        }
        Ok(())
    }

    fn atom(&mut self) -> Result<(), ParseError> {
        let span = self.tok.span;
        match self.tok.kind {
            TokenKind::Real(v) => {
                self.bump()?;
                self.ops.push(Op::Const(v));
            }
            TokenKind::Int(v) => {
                self.bump()?;
                self.ops.push(Op::Const(v as f64));
            }
            TokenKind::LParen => {
                self.bump()?;
                self.nested(span, Self::expr)?;
                self.expect(TokenKind::RParen, "`)` closing the expression")?;
            }
            TokenKind::Ident("pi") => {
                self.bump()?;
                self.ops.push(Op::Const(PI));
            }
            TokenKind::Ident(name) => {
                self.bump()?;
                if let Some(f) = Func::from_name(name) {
                    self.expect(TokenKind::LParen, "`(` after function name")?;
                    self.nested(span, Self::expr)?;
                    self.expect(TokenKind::RParen, "`)` after function argument")?;
                    self.ops.push(Op::Call(f));
                } else {
                    let op = match self.formals.iter().position(|&f| f == name) {
                        Some(slot) => Op::Slot(slot),
                        None => Op::Unbound(name, span),
                    };
                    self.ops.push(op);
                }
            }
            _ => return Err(self.unexpected("an expression")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{eval, first_unbound};

    fn parse_ok(src: &str) -> Program<'_> {
        parse_program(src).expect("program should parse")
    }

    /// The values of a parameter list of `p` evaluated with `slots` bound.
    fn values(p: &Program<'_>, params: &Params, slots: &[f64]) -> Vec<f64> {
        let mut stack = Vec::new();
        eval(&p.ops[params.ops.clone()], slots, &mut stack).expect("bound parameters");
        stack
    }

    #[test]
    fn minimal_program_parses() {
        let p = parse_ok("OPENQASM 2.0;\nqreg q[3];\n");
        assert_eq!(p.stmts.len(), 1);
        assert!(matches!(
            p.stmts[0],
            Stmt::QReg {
                name: "q",
                size: 3,
                ..
            }
        ));
        assert!(!p.includes_qelib1);
    }

    #[test]
    fn include_qelib1_sets_flag() {
        let p = parse_ok("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
        assert!(p.includes_qelib1);
        assert!(p.stmts.is_empty());
    }

    #[test]
    fn other_includes_are_rejected() {
        let err = parse_program("OPENQASM 2.0;\ninclude \"other.inc\";").unwrap_err();
        assert!(err.message().contains("other.inc"));
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn missing_header_is_an_error() {
        let err = parse_program("qreg q[1];").unwrap_err();
        assert!(err.message().contains("OPENQASM 2.0"));
        assert_eq!((err.line(), err.col()), (1, 1));
        // A lexical error later in the source takes precedence.
        let err = parse_program("qreg q[1];\n@").unwrap_err();
        assert!(err.message().contains('@'), "{err}");
        assert_eq!((err.line(), err.col()), (2, 1));
    }

    #[test]
    fn qasm3_is_rejected_with_version() {
        let err = parse_program("OPENQASM 3.0;").unwrap_err();
        assert!(err.message().contains("only 2.0"));
    }

    #[test]
    fn missing_semicolon_points_at_next_token() {
        let err = parse_program("OPENQASM 2.0;\nqreg q[4]\nqreg r[2];").unwrap_err();
        assert!(err.message().contains("`;`"));
        assert_eq!((err.line(), err.col()), (3, 1));
    }

    #[test]
    fn apply_with_params_and_indices() {
        let p = parse_ok("OPENQASM 2.0;\nqreg q[2];\ncu1(pi/4) q[1], q[0];");
        let Stmt::Apply {
            name,
            ref params,
            ref args,
            ..
        } = p.stmts[1]
        else {
            panic!("expected apply");
        };
        assert_eq!(name, "cu1");
        assert_eq!(params.len, 1);
        assert_eq!(values(&p, params, &[]), vec![PI / 4.0]);
        let args = &p.args[args.clone()];
        assert_eq!(args[0].to_string(), "q[1]");
        assert_eq!(args[1].to_string(), "q[0]");
    }

    #[test]
    fn gate_definition_roundtrip() {
        let p = parse_ok(
            "OPENQASM 2.0;\n\
             gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }\n",
        );
        let Stmt::Gate(ref def) = p.stmts[0] else {
            panic!("expected gate def");
        };
        assert_eq!(def.name, "majority");
        assert!(def.params.is_empty());
        assert_eq!(def.qargs, vec!["a", "b", "c"]);
        assert_eq!(def.body.len(), 3);
        assert_eq!(def.body[2].name, "ccx");
    }

    #[test]
    fn parameterized_gate_definition() {
        let p = parse_ok(
            "OPENQASM 2.0;\n\
             gate rot(theta, phi) a { rx(theta/2) a; rx(phi - lambda) a; }\n",
        );
        let Stmt::Gate(ref def) = p.stmts[0] else {
            panic!("expected gate def");
        };
        assert_eq!(def.params, vec!["theta", "phi"]);
        assert_eq!(values(&p, &def.body[0].params, &[PI, 0.0]), vec![PI / 2.0]);
        // A name that is no formal parameter stays unbound for the
        // lowering to report.
        let unbound = first_unbound(&p.ops[def.body[1].params.ops.clone()]);
        assert_eq!(unbound, Some((Span::new(2, 50), "lambda")));
    }

    #[test]
    fn barrier_in_gate_body_is_dropped() {
        let p = parse_ok("OPENQASM 2.0;\ngate g a,b { cx a,b; barrier a,b; cx a,b; }");
        let Stmt::Gate(ref def) = p.stmts[0] else {
            panic!("expected gate def");
        };
        assert_eq!(def.body.len(), 2);
    }

    #[test]
    fn measure_and_barrier_statements() {
        let p =
            parse_ok("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nbarrier q;\nmeasure q[0] -> c[0];");
        assert!(matches!(p.stmts[2], Stmt::Barrier { .. }));
        assert!(matches!(p.stmts[3], Stmt::Measure { .. }));
    }

    #[test]
    fn unsupported_constructs_have_targeted_messages() {
        for (src, needle) in [
            ("OPENQASM 2.0;\nopaque magic q;", "opaque"),
            (
                "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c==1) x q[0];",
                "if",
            ),
            ("OPENQASM 2.0;\nqreg q[1];\nreset q[0];", "reset"),
        ] {
            let err = parse_program(src).unwrap_err();
            assert!(err.message().contains(needle), "{src}: {}", err.message());
        }
    }

    #[test]
    fn expression_precedence() {
        for (expr, value) in [
            ("1+2*3", 7.0),
            ("-2^2", -4.0),
            ("(1+2)*sin(0)", 0.0),
            ("2^3^2", 512.0),
            ("8/2/2", 2.0),
            ("1-2-3", -4.0),
        ] {
            let src = format!("OPENQASM 2.0;\nqreg q[1];\nrz({expr}) q[0];");
            let p = parse_ok(&src);
            let Stmt::Apply { ref params, .. } = p.stmts[1] else {
                panic!()
            };
            assert_eq!(values(&p, params, &[]), vec![value], "{expr}");
        }
    }

    #[test]
    fn empty_register_is_rejected() {
        let err = parse_program("OPENQASM 2.0;\nqreg q[0];").unwrap_err();
        assert!(err.message().contains("must not be empty"));
        assert_eq!((err.line(), err.col()), (2, 8));
    }

    #[test]
    fn unclosed_gate_body_is_reported() {
        let err = parse_program("OPENQASM 2.0;\ngate g a { cx a,a;").unwrap_err();
        assert!(err.message().contains("unclosed body"));
    }

    #[test]
    fn expression_nesting_is_bounded() {
        // (opener, closer, offset of the opener's nesting token within it)
        for (opener, closer, offset) in
            [("(", ")", 0), ("-", "", 0), ("sin(", ")", 0), ("2^", "", 1)]
        {
            let src = |depth: usize| {
                format!(
                    "OPENQASM 2.0;\nqreg q[1];\nU({}1{},0,0) q[0];",
                    opener.repeat(depth),
                    closer.repeat(depth)
                )
            };
            assert!(parse_program(&src(MAX_NESTING)).is_ok(), "{opener}");
            let err = parse_program(&src(MAX_NESTING + 1)).unwrap_err();
            assert_eq!(
                err.message(),
                format!("expression nests more than {MAX_NESTING} levels deep"),
                "{opener}"
            );
            // The error points at the token that opens the level past the
            // bound.
            let col = 3 + opener.len() * MAX_NESTING + offset;
            assert_eq!((err.line(), err.col()), (3, col), "{opener}");
        }
    }
}
