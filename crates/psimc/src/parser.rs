//! Recursive-descent parser for PsimC.

use crate::ast::*;
use crate::token::{lex, Pos, Spanned, Tok};
use std::fmt;

/// A parse error with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Error position.
    pub pos: Pos,
    /// Message.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of statements, expressions and prefix operators the
/// parser accepts. It bounds the recursion of the parser and of every
/// later pass that walks the tree, so hostile input gets a located error
/// instead of a stack overflow. C11 (§5.2.4.1) asks compilers for 63
/// levels of parentheses; at 64 levels an unoptimized build still compiles
/// and serves a source on a 2 MiB thread stack.
pub const MAX_NESTING: usize = 64;

struct Parser {
    toks: Vec<Spanned>,
    i: usize,
    /// Statements, expressions and prefix operators currently open.
    depth: usize,
}

type PResult<T> = Result<T, ParseError>;

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.i].tok.clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            pos: self.pos(),
            msg: msg.into(),
        })
    }

    /// Runs `parse` one nesting level deeper, refusing to pass
    /// [`MAX_NESTING`].
    fn nested<T>(&mut self, parse: fn(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let r = parse(self);
        self.depth -= 1;
        r
    }

    fn eat_punct(&mut self, p: &str) -> PResult<()> {
        match self.peek() {
            Tok::Punct(q) if *q == p => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected `{p}`, found {other:?}")),
        }
    }

    fn try_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self) -> PResult<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn base_ty(name: &str) -> Option<PTy> {
        Some(match name {
            "void" => PTy::Void,
            "bool" => PTy::Bool,
            "i8" => PTy::I8,
            "i16" => PTy::I16,
            "i32" => PTy::I32,
            "i64" => PTy::I64,
            "u8" => PTy::U8,
            "u16" => PTy::U16,
            "u32" => PTy::U32,
            "u64" => PTy::U64,
            "f32" => PTy::F32,
            "f64" => PTy::F64,
            _ => return None,
        })
    }

    /// If the next tokens form a type, parse it (base type plus `*`s).
    fn try_ty(&mut self) -> Option<PTy> {
        let Tok::Ident(name) = self.peek().clone() else {
            return None;
        };
        let base = Self::base_ty(&name)?;
        self.bump();
        let mut ty = base;
        while self.try_punct("*") {
            ty = PTy::Ptr(Box::new(ty));
        }
        Some(ty)
    }

    fn suffix_ty(s: &Option<String>) -> Option<PTy> {
        s.as_deref().and_then(Self::base_ty)
    }

    // ---- expressions -------------------------------------------------------

    fn primary(&mut self) -> PResult<Expr> {
        let pos = self.pos();
        match self.peek().clone() {
            Tok::Int(v, suf) => {
                self.bump();
                Ok(Expr::Int(v, Self::suffix_ty(&suf), pos))
            }
            Tok::Float(v, suf) => {
                self.bump();
                Ok(Expr::Float(v, Self::suffix_ty(&suf), pos))
            }
            Tok::Ident(name) => {
                if name == "true" || name == "false" {
                    self.bump();
                    return Ok(Expr::Bool(name == "true", pos));
                }
                self.bump();
                if self.try_punct("(") {
                    let mut args = Vec::new();
                    if !self.try_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if self.try_punct(")") {
                                break;
                            }
                            self.eat_punct(",")?;
                        }
                    }
                    Ok(Expr::Call(name, args, pos))
                } else {
                    Ok(Expr::Var(name, pos))
                }
            }
            Tok::Punct("(") => {
                self.bump();
                // Could be a cast `(ty) e` or a parenthesized expression.
                let save = self.i;
                if let Some(ty) = self.try_ty() {
                    if self.try_punct(")") {
                        let e = self.nested(Self::unary)?;
                        return Ok(Expr::Cast(ty, Box::new(e), pos));
                    }
                    self.i = save;
                }
                let e = self.expr()?;
                self.eat_punct(")")?;
                Ok(e)
            }
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        loop {
            let pos = self.pos();
            if self.try_punct("[") {
                let idx = self.expr()?;
                self.eat_punct("]")?;
                e = Expr::Index(Box::new(e), Box::new(idx), pos);
            } else {
                return Ok(e);
            }
        }
    }

    fn unary(&mut self) -> PResult<Expr> {
        let pos = self.pos();
        if self.try_punct("-") {
            let e = self.nested(Self::unary)?;
            return Ok(Expr::Un(UnOpKind::Neg, Box::new(e), pos));
        }
        if self.try_punct("!") {
            let e = self.nested(Self::unary)?;
            return Ok(Expr::Un(UnOpKind::Not, Box::new(e), pos));
        }
        if self.try_punct("~") {
            let e = self.nested(Self::unary)?;
            return Ok(Expr::Un(UnOpKind::BitNot, Box::new(e), pos));
        }
        if self.try_punct("*") {
            let e = self.nested(Self::unary)?;
            return Ok(Expr::Deref(Box::new(e), pos));
        }
        self.postfix()
    }

    fn bin_op(p: &str) -> Option<(BinOpKind, u8)> {
        // (operator, binding power); higher binds tighter
        Some(match p {
            "*" => (BinOpKind::Mul, 10),
            "/" => (BinOpKind::Div, 10),
            "%" => (BinOpKind::Rem, 10),
            "+" => (BinOpKind::Add, 9),
            "-" => (BinOpKind::Sub, 9),
            "<<" => (BinOpKind::Shl, 8),
            ">>" => (BinOpKind::Shr, 8),
            "<" => (BinOpKind::Lt, 7),
            "<=" => (BinOpKind::Le, 7),
            ">" => (BinOpKind::Gt, 7),
            ">=" => (BinOpKind::Ge, 7),
            "==" => (BinOpKind::EqEq, 6),
            "!=" => (BinOpKind::Ne, 6),
            "&" => (BinOpKind::And, 5),
            "^" => (BinOpKind::Xor, 4),
            "|" => (BinOpKind::Or, 3),
            "&&" => (BinOpKind::LAnd, 2),
            "||" => (BinOpKind::LOr, 1),
            _ => return None,
        })
    }

    fn binary(&mut self, min_bp: u8) -> PResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let pos = self.pos();
            let Tok::Punct(p) = self.peek() else {
                return Ok(lhs);
            };
            let Some((op, bp)) = Self::bin_op(p) else {
                return Ok(lhs);
            };
            if bp < min_bp {
                return Ok(lhs);
            }
            self.bump();
            let rhs = self.binary(bp + 1)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs), pos);
        }
    }

    fn expr(&mut self) -> PResult<Expr> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let pos = self.pos();
        let c = self.binary(0)?;
        if self.try_punct("?") {
            let t = self.expr()?;
            self.eat_punct(":")?;
            let f = self.expr()?;
            return Ok(Expr::Ternary(Box::new(c), Box::new(t), Box::new(f), pos));
        }
        Ok(c)
    }

    // ---- statements --------------------------------------------------------

    fn place_from_expr(e: Expr) -> PResult<Place> {
        match e {
            Expr::Var(n, p) => Ok(Place::Var(n, p)),
            Expr::Index(a, i, p) => Ok(Place::Index(*a, *i, p)),
            Expr::Deref(a, p) => Ok(Place::Deref(*a, p)),
            other => Err(ParseError {
                pos: other.pos(),
                msg: "expression is not assignable".into(),
            }),
        }
    }

    fn assign_op(p: &str) -> Option<Option<BinOpKind>> {
        Some(match p {
            "=" => None,
            "+=" => Some(BinOpKind::Add),
            "-=" => Some(BinOpKind::Sub),
            "*=" => Some(BinOpKind::Mul),
            "/=" => Some(BinOpKind::Div),
            "%=" => Some(BinOpKind::Rem),
            "&=" => Some(BinOpKind::And),
            "|=" => Some(BinOpKind::Or),
            "^=" => Some(BinOpKind::Xor),
            "<<=" => Some(BinOpKind::Shl),
            ">>=" => Some(BinOpKind::Shr),
            _ => return None,
        })
    }

    fn simple_stmt(&mut self) -> PResult<Stmt> {
        // decl | assignment | expr — WITHOUT the trailing `;` (shared with for-headers)
        let pos = self.pos();
        let save = self.i;
        if let Some(ty) = self.try_ty() {
            if let Tok::Ident(_) = self.peek() {
                let name = self.eat_ident()?;
                if self.try_punct("[") {
                    let size = match self.bump() {
                        Tok::Int(v, _) if v > 0 && v <= (1 << 20) => v as u64,
                        other => {
                            return self.err(format!(
                                "array size must be a positive integer literal, found {other:?}"
                            ))
                        }
                    };
                    self.eat_punct("]")?;
                    return Ok(Stmt::DeclArray(ty, name, size, pos));
                }
                self.eat_punct("=")?;
                let init = self.expr()?;
                return Ok(Stmt::Decl(ty, name, init, pos));
            }
            self.i = save;
        }
        let e = self.expr()?;
        if let Tok::Punct(p) = self.peek() {
            if let Some(op) = Self::assign_op(p) {
                self.bump();
                let rhs = self.expr()?;
                let place = Self::place_from_expr(e)?;
                return Ok(Stmt::Assign(place, op, rhs, pos));
            }
            if *p == "++" || *p == "--" {
                let op = if *p == "++" {
                    BinOpKind::Add
                } else {
                    BinOpKind::Sub
                };
                self.bump();
                let place = Self::place_from_expr(e)?;
                return Ok(Stmt::Assign(place, Some(op), Expr::Int(1, None, pos), pos));
            }
        }
        Ok(Stmt::Expr(e, pos))
    }

    fn block(&mut self) -> PResult<Vec<Stmt>> {
        self.eat_punct("{")?;
        let mut stmts = Vec::new();
        while !self.try_punct("}") {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        self.nested(Self::stmt_inner)
    }

    fn stmt_inner(&mut self) -> PResult<Stmt> {
        let pos = self.pos();
        if self.try_keyword("if") {
            self.eat_punct("(")?;
            let c = self.expr()?;
            self.eat_punct(")")?;
            let then_b = self.block()?;
            let else_b = if self.try_keyword("else") {
                if matches!(self.peek(), Tok::Ident(s) if s == "if") {
                    vec![self.stmt()?]
                } else {
                    self.block()?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If(c, then_b, else_b, pos));
        }
        if self.try_keyword("while") {
            self.eat_punct("(")?;
            let c = self.expr()?;
            self.eat_punct(")")?;
            let body = self.block()?;
            return Ok(Stmt::While(c, body, pos));
        }
        if self.try_keyword("for") {
            self.eat_punct("(")?;
            let init = self.simple_stmt()?;
            self.eat_punct(";")?;
            let cond = self.expr()?;
            self.eat_punct(";")?;
            let step = self.simple_stmt()?;
            self.eat_punct(")")?;
            let mut body = self.block()?;
            body.push(step);
            return Ok(Stmt::Block(vec![init, Stmt::While(cond, body, pos)]));
        }
        if self.try_keyword("return") {
            if self.try_punct(";") {
                return Ok(Stmt::Return(None, pos));
            }
            let e = self.expr()?;
            self.eat_punct(";")?;
            return Ok(Stmt::Return(Some(e), pos));
        }
        if self.try_keyword("psim") {
            // psim gang(G) threads(N) { body }
            if !self.try_keyword("gang") {
                return self.err("expected `gang(<const>)` after `psim`");
            }
            self.eat_punct("(")?;
            let gang = match self.bump() {
                Tok::Int(v, _) if v > 0 && v <= 4096 => v as u32,
                other => {
                    return self.err(format!(
                        "gang size must be a positive integer literal, found {other:?}"
                    ))
                }
            };
            self.eat_punct(")")?;
            if !self.try_keyword("threads") {
                return self.err("expected `threads(<expr>)`");
            }
            self.eat_punct("(")?;
            let threads = self.expr()?;
            self.eat_punct(")")?;
            let body = self.block()?;
            return Ok(Stmt::Psim {
                gang,
                threads,
                body,
                pos,
            });
        }
        if matches!(self.peek(), Tok::Punct("{")) {
            return Ok(Stmt::Block(self.block()?));
        }
        let s = self.simple_stmt()?;
        self.eat_punct(";")?;
        Ok(s)
    }

    fn func(&mut self) -> PResult<FnDef> {
        let pos = self.pos();
        let ret = self.try_ty().ok_or_else(|| ParseError {
            pos,
            msg: "expected return type".into(),
        })?;
        let name = self.eat_ident()?;
        self.eat_punct("(")?;
        let mut params = Vec::new();
        if !self.try_punct(")") {
            loop {
                let ppos = self.pos();
                let ty = self.try_ty().ok_or_else(|| ParseError {
                    pos: ppos,
                    msg: "expected parameter type".into(),
                })?;
                let restrict = self.try_keyword("restrict");
                let pname = self.eat_ident()?;
                params.push(FnParam {
                    name: pname,
                    ty,
                    restrict,
                });
                if self.try_punct(")") {
                    break;
                }
                self.eat_punct(",")?;
            }
        }
        let body = self.block()?;
        Ok(FnDef {
            name,
            params,
            ret,
            body,
            pos,
        })
    }

    fn unit(&mut self) -> PResult<Unit> {
        let mut funcs = Vec::new();
        while !matches!(self.peek(), Tok::Eof) {
            funcs.push(self.func()?);
        }
        Ok(Unit { funcs })
    }
}

/// Parses a PsimC compilation unit.
///
/// # Errors
/// Returns [`ParseError`] with a source position on malformed input.
pub fn parse(src: &str) -> PResult<Unit> {
    let toks = lex(src).map_err(|e| ParseError {
        pos: e.pos,
        msg: e.msg,
    })?;
    Parser {
        toks,
        i: 0,
        depth: 0,
    }
    .unit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_serial_function() {
        let u = parse(
            "void add(u8* restrict a, u8* restrict b, i64 n) {
                for (i64 i = 0; i < n; i += 1) {
                    a[i] = a[i] + b[i];
                }
            }",
        )
        .unwrap();
        assert_eq!(u.funcs.len(), 1);
        assert!(u.funcs[0].params[0].restrict);
        // for desugars to Block[Decl, While]
        match &u.funcs[0].body[0] {
            Stmt::Block(inner) => {
                assert!(matches!(inner[0], Stmt::Decl(..)));
                assert!(matches!(inner[1], Stmt::While(..)));
            }
            other => panic!("expected Block, got {other:?}"),
        }
    }

    #[test]
    fn parses_psim_region() {
        let u = parse(
            "void k(f32* a, i64 n) {
                psim gang(16) threads(n) {
                    i64 i = psim_thread_num();
                    a[i] = a[i] * 2.0f32;
                }
            }",
        )
        .unwrap();
        match &u.funcs[0].body[0] {
            Stmt::Psim { gang, .. } => assert_eq!(*gang, 16),
            other => panic!("expected Psim, got {other:?}"),
        }
    }

    #[test]
    fn precedence_and_ternary() {
        let u = parse("i32 f(i32 x) { return x + 2 * 3 < 10 ? x << 1 : x & 7; }").unwrap();
        match &u.funcs[0].body[0] {
            Stmt::Return(Some(Expr::Ternary(c, ..)), _) => {
                assert!(matches!(**c, Expr::Bin(BinOpKind::Lt, ..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cast_vs_parenthesized() {
        let u = parse("f32 f(i32 x) { return (f32) x; } i32 g(i32 x) { return (x); }").unwrap();
        assert!(matches!(
            &u.funcs[0].body[0],
            Stmt::Return(Some(Expr::Cast(PTy::F32, ..)), _)
        ));
        assert!(matches!(
            &u.funcs[1].body[0],
            Stmt::Return(Some(Expr::Var(..)), _)
        ));
    }

    #[test]
    fn error_on_non_literal_gang() {
        let err = parse("void f(i64 n) { psim gang(n) threads(n) { } }").unwrap_err();
        assert!(err.msg.contains("gang size"));
    }

    #[test]
    fn nesting_past_the_cap_is_a_located_error() {
        // Function body statement (1), return value (2), parentheses.
        let parens =
            |d: usize| format!("i32 f() {{ return {}1{}; }}", "(".repeat(d), ")".repeat(d));
        assert!(parse(&parens(MAX_NESTING - 2)).is_ok());
        let err = parse(&parens(MAX_NESTING - 1)).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        // Located at the first token past the cap: the innermost `1`.
        assert_eq!(
            (err.pos.line, err.pos.col as usize),
            (1, 18 + MAX_NESTING - 1)
        );
        // Prefix operators, casts and statements count the same way, and
        // far past the cap the parser still returns instead of overflowing.
        for src in [
            parens(100_000),
            format!("i32 f() {{ return {}1; }}", "- ".repeat(100_000)),
            format!("f32 f() {{ return {}1.0; }}", "(f32) ".repeat(100_000)),
            format!("void f() {{ {} }}", "{".repeat(100_000)),
            format!(
                "void f(i32 x) {{ if (x) {{}} {} }}",
                "else if (x) {} ".repeat(100_000)
            ),
        ] {
            let err = parse(&src).unwrap_err();
            assert!(err.msg.contains("nesting"), "{err}");
        }
    }

    #[test]
    fn increment_sugar() {
        let u = parse("void f() { i64 i = 0; i++; }").unwrap();
        assert!(matches!(
            &u.funcs[0].body[1],
            Stmt::Assign(Place::Var(..), Some(BinOpKind::Add), ..)
        ));
    }
}
