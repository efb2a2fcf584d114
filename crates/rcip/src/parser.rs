//! Parser for rate-constant definition files.
//!
//! Grammar (one statement per `;`, `#` comments to end of line):
//!
//! ```text
//! program   := (definition | bound)*
//! definition:= "rate" IDENT "=" expr ";"
//! bound     := "bound" IDENT "in" "[" number "," number "]" ";"
//! expr      := term (("+" | "-") term)*
//! term      := factor (("*" | "/") factor)*
//! factor    := number | IDENT | "(" expr ")" | "-" factor
//! ```
//!
//! Numbers may be integers or decimal floats with optional exponent; the
//! paper's inputs "define some constants as integer constants, and other
//! constants as expressions of these integer constants".

use crate::error::{RcipError, Result};

/// Expression AST for a rate-constant definition.
#[derive(Debug, Clone, PartialEq)]
pub enum RateExpr {
    /// Literal number.
    Number(f64),
    /// Reference to another constant.
    Ref(String),
    /// Sum.
    Add(Box<RateExpr>, Box<RateExpr>),
    /// Difference.
    Sub(Box<RateExpr>, Box<RateExpr>),
    /// Product.
    Mul(Box<RateExpr>, Box<RateExpr>),
    /// Quotient.
    Div(Box<RateExpr>, Box<RateExpr>),
    /// Negation.
    Neg(Box<RateExpr>),
}

impl RateExpr {
    /// Names referenced by this expression, in first-occurrence order.
    pub fn references(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_refs(&mut out);
        out
    }

    fn collect_refs<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            RateExpr::Number(_) => {}
            RateExpr::Ref(name) => {
                if !out.contains(&name.as_str()) {
                    out.push(name);
                }
            }
            RateExpr::Add(a, b)
            | RateExpr::Sub(a, b)
            | RateExpr::Mul(a, b)
            | RateExpr::Div(a, b) => {
                a.collect_refs(out);
                b.collect_refs(out);
            }
            RateExpr::Neg(a) => a.collect_refs(out),
        }
    }
}

/// One parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `rate NAME = expr;`
    Definition {
        /// Constant name.
        name: String,
        /// Defining expression.
        expr: RateExpr,
    },
    /// `bound NAME in [lo, hi];`
    Bound {
        /// Constant name.
        name: String,
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
}

/// A 1-based (line, column) position.
type Pos = (usize, usize);

fn syntax_error((line, column): Pos, message: impl Into<String>) -> RcipError {
    RcipError::Syntax {
        line,
        column,
        message: message.into(),
    }
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
    /// Where the token [`next_token`](Lexer::next_token) last read starts.
    token_start: Pos,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Equals,
    Semi,
    Eof,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
            token_start: (1, 1),
        }
    }

    fn bump_char(&mut self) -> Option<char> {
        let c = self.src[self.pos..].chars().next()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek_char(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek_char() {
                Some(c) if c.is_whitespace() => {
                    self.bump_char();
                }
                Some('#') => {
                    while let Some(c) = self.bump_char() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn next_token(&mut self) -> Result<Tok> {
        self.skip_trivia();
        self.token_start = (self.line, self.col);
        let Some(c) = self.peek_char() else {
            return Ok(Tok::Eof);
        };
        match c {
            '+' => {
                self.bump_char();
                Ok(Tok::Plus)
            }
            '-' => {
                self.bump_char();
                Ok(Tok::Minus)
            }
            '*' => {
                self.bump_char();
                Ok(Tok::Star)
            }
            '/' => {
                self.bump_char();
                Ok(Tok::Slash)
            }
            '(' => {
                self.bump_char();
                Ok(Tok::LParen)
            }
            ')' => {
                self.bump_char();
                Ok(Tok::RParen)
            }
            '[' => {
                self.bump_char();
                Ok(Tok::LBracket)
            }
            ']' => {
                self.bump_char();
                Ok(Tok::RBracket)
            }
            ',' => {
                self.bump_char();
                Ok(Tok::Comma)
            }
            '=' => {
                self.bump_char();
                Ok(Tok::Equals)
            }
            ';' => {
                self.bump_char();
                Ok(Tok::Semi)
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = self.pos;
                while self
                    .peek_char()
                    .is_some_and(|c| c.is_ascii_digit() || c == '.')
                {
                    self.bump_char();
                }
                // Exponent part.
                if self.peek_char().is_some_and(|c| c == 'e' || c == 'E') {
                    self.bump_char();
                    if self.peek_char().is_some_and(|c| c == '+' || c == '-') {
                        self.bump_char();
                    }
                    while self.peek_char().is_some_and(|c| c.is_ascii_digit()) {
                        self.bump_char();
                    }
                }
                let text = &self.src[start..self.pos];
                text.parse::<f64>()
                    .map(Tok::Number)
                    .map_err(|_| syntax_error(self.token_start, format!("bad number '{text}'")))
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = self.pos;
                while self
                    .peek_char()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
                {
                    self.bump_char();
                }
                Ok(Tok::Ident(self.src[start..self.pos].to_string()))
            }
            other => Err(syntax_error(
                self.token_start,
                format!("unexpected character '{other}'"),
            )),
        }
    }
}

/// Most factors (numbers, names, parenthesized groups, negations) one
/// definition may hold. Far past any rate expression a chemist writes, it
/// bounds the depth of the expression tree, and so the recursion that
/// parses, evaluates and drops it.
const MAX_FACTORS: usize = 128;

struct Parser<'a> {
    lexer: Lexer<'a>,
    current: Tok,
    /// Where `current` starts: errors point at the offending token, not
    /// at the lexer, which has already read past it.
    current_start: Pos,
    /// Factors parsed in the current definition.
    factors: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>> {
        let mut lexer = Lexer::new(src);
        let current = lexer.next_token()?;
        Ok(Parser {
            current_start: lexer.token_start,
            lexer,
            current,
            factors: 0,
        })
    }

    /// Advance, returning the token that was current and where it starts.
    fn bump(&mut self) -> Result<(Tok, Pos)> {
        let next = self.lexer.next_token()?;
        let start = std::mem::replace(&mut self.current_start, self.lexer.token_start);
        Ok((std::mem::replace(&mut self.current, next), start))
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<()> {
        if self.current == tok {
            self.bump()?;
            Ok(())
        } else {
            Err(syntax_error(
                self.current_start,
                format!("expected {what}, found {:?}", self.current),
            ))
        }
    }

    fn parse_program(&mut self) -> Result<Vec<Statement>> {
        let mut stmts = Vec::new();
        while self.current != Tok::Eof {
            stmts.push(self.parse_statement()?);
        }
        Ok(stmts)
    }

    fn parse_statement(&mut self) -> Result<Statement> {
        let (tok, start) = self.bump()?;
        let Tok::Ident(keyword) = tok else {
            return Err(syntax_error(start, "expected 'rate' or 'bound'"));
        };
        match keyword.as_str() {
            "rate" => {
                let name = self.expect_name("rate")?;
                self.expect(Tok::Equals, "'='")?;
                self.factors = 0;
                let expr = self.parse_expr()?;
                self.expect(Tok::Semi, "';'")?;
                Ok(Statement::Definition { name, expr })
            }
            "bound" => {
                let name = self.expect_name("bound")?;
                match self.bump()? {
                    (Tok::Ident(kw), _) if kw == "in" => {}
                    (_, start) => return Err(syntax_error(start, "expected 'in'")),
                }
                self.expect(Tok::LBracket, "'['")?;
                let lo = self.parse_signed_number()?;
                self.expect(Tok::Comma, "','")?;
                let hi = self.parse_signed_number()?;
                self.expect(Tok::RBracket, "']'")?;
                self.expect(Tok::Semi, "';'")?;
                Ok(Statement::Bound { name, lo, hi })
            }
            other => Err(syntax_error(
                start,
                format!("expected 'rate' or 'bound', found '{other}'"),
            )),
        }
    }

    /// The constant name after `keyword`.
    fn expect_name(&mut self, keyword: &str) -> Result<String> {
        match self.bump()? {
            (Tok::Ident(name), _) => Ok(name),
            (_, start) => Err(syntax_error(
                start,
                format!("expected constant name after '{keyword}'"),
            )),
        }
    }

    fn parse_signed_number(&mut self) -> Result<f64> {
        let neg = if self.current == Tok::Minus {
            self.bump()?;
            true
        } else {
            false
        };
        match self.bump()? {
            (Tok::Number(v), _) => Ok(if neg { -v } else { v }),
            (other, start) => Err(syntax_error(
                start,
                format!("expected number, found {other:?}"),
            )),
        }
    }

    fn parse_expr(&mut self) -> Result<RateExpr> {
        let mut lhs = self.parse_term()?;
        loop {
            match self.current {
                Tok::Plus => {
                    self.bump()?;
                    let rhs = self.parse_term()?;
                    lhs = RateExpr::Add(Box::new(lhs), Box::new(rhs));
                }
                Tok::Minus => {
                    self.bump()?;
                    let rhs = self.parse_term()?;
                    lhs = RateExpr::Sub(Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_term(&mut self) -> Result<RateExpr> {
        let mut lhs = self.parse_factor()?;
        loop {
            match self.current {
                Tok::Star => {
                    self.bump()?;
                    let rhs = self.parse_factor()?;
                    lhs = RateExpr::Mul(Box::new(lhs), Box::new(rhs));
                }
                Tok::Slash => {
                    self.bump()?;
                    let rhs = self.parse_factor()?;
                    lhs = RateExpr::Div(Box::new(lhs), Box::new(rhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_factor(&mut self) -> Result<RateExpr> {
        self.factors += 1;
        if self.factors > MAX_FACTORS {
            return Err(syntax_error(
                self.current_start,
                format!("expression has more than {MAX_FACTORS} factors"),
            ));
        }
        match self.bump()? {
            (Tok::Number(v), _) => Ok(RateExpr::Number(v)),
            (Tok::Ident(name), _) => Ok(RateExpr::Ref(name)),
            (Tok::LParen, _) => {
                let inner = self.parse_expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(inner)
            }
            (Tok::Minus, _) => Ok(RateExpr::Neg(Box::new(self.parse_factor()?))),
            (other, start) => Err(syntax_error(
                start,
                format!("expected expression, found {other:?}"),
            )),
        }
    }
}

/// Parse a rate-constant definition file into statements.
pub fn parse_rcip(src: &str) -> Result<Vec<Statement>> {
    Parser::new(src)?.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_integer_definition() {
        let stmts = parse_rcip("rate K_A = 2;").unwrap();
        assert_eq!(
            stmts,
            vec![Statement::Definition {
                name: "K_A".to_string(),
                expr: RateExpr::Number(2.0),
            }]
        );
    }

    #[test]
    fn parses_expression_with_precedence() {
        let stmts = parse_rcip("rate K = 1 + 2 * 3;").unwrap();
        let Statement::Definition { expr, .. } = &stmts[0] else {
            panic!()
        };
        // 1 + (2*3), not (1+2)*3
        assert_eq!(
            *expr,
            RateExpr::Add(
                Box::new(RateExpr::Number(1.0)),
                Box::new(RateExpr::Mul(
                    Box::new(RateExpr::Number(2.0)),
                    Box::new(RateExpr::Number(3.0))
                ))
            )
        );
    }

    #[test]
    fn parses_references_and_parens() {
        let stmts = parse_rcip("rate K_CD = (K_A + 1) * 3;").unwrap();
        let Statement::Definition { expr, .. } = &stmts[0] else {
            panic!()
        };
        assert_eq!(expr.references(), vec!["K_A"]);
    }

    #[test]
    fn parses_bounds() {
        let stmts = parse_rcip("bound K_A in [0.1, 1e2];").unwrap();
        assert_eq!(
            stmts,
            vec![Statement::Bound {
                name: "K_A".to_string(),
                lo: 0.1,
                hi: 100.0,
            }]
        );
    }

    #[test]
    fn negative_bound_and_unary_minus() {
        let stmts = parse_rcip("bound K in [-1, 1]; rate J = -2 * -3;").unwrap();
        assert_eq!(stmts.len(), 2);
        let Statement::Bound { lo, .. } = &stmts[0] else {
            panic!()
        };
        assert_eq!(*lo, -1.0);
    }

    #[test]
    fn comments_and_whitespace() {
        let src = "# kinetics from Gaussian '03 regression\nrate K_A = 2; # base scission rate\n\nrate K_B = K_A;\n";
        let stmts = parse_rcip(src).unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn syntax_errors_have_positions() {
        // Each error points at the first character of the offending
        // token, not at the lexer's lookahead past it.
        for (src, line, column) in [
            ("rate = 2;", 1, 6),
            ("rate K = 2", 1, 11),
            ("frob K = 2;", 1, 1),
            ("bound K on [1, 2];", 1, 9),
            ("bound K in [1, x];", 1, 16),
            ("rate A = 1;\nrate K = A / ;", 2, 14),
            ("rate K = (1 + 2;", 1, 16),
            ("rate K = 2 $;", 1, 12),
            ("rate K = 1.2.3;", 1, 10),
        ] {
            match parse_rcip(src).unwrap_err() {
                RcipError::Syntax {
                    line: l, column: c, ..
                } => assert_eq!((l, c), (line, column), "{src:?}"),
                other => panic!("{src:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn reference_collection_dedupes() {
        let stmts = parse_rcip("rate K = A * A + B;").unwrap();
        let Statement::Definition { expr, .. } = &stmts[0] else {
            panic!()
        };
        assert_eq!(expr.references(), vec!["A", "B"]);
    }
}
