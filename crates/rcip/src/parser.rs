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

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
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
        }
    }

    fn error(&self, message: impl Into<String>) -> RcipError {
        RcipError::Syntax {
            line: self.line,
            column: self.col,
            message: message.into(),
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
                    .map_err(|_| self.error(format!("bad number '{text}'")))
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
            other => Err(self.error(format!("unexpected character '{other}'"))),
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
    /// Factors parsed in the current definition.
    factors: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>> {
        let mut lexer = Lexer::new(src);
        let current = lexer.next_token()?;
        Ok(Parser {
            lexer,
            current,
            factors: 0,
        })
    }

    fn bump(&mut self) -> Result<Tok> {
        let next = self.lexer.next_token()?;
        Ok(std::mem::replace(&mut self.current, next))
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<()> {
        if self.current == tok {
            self.bump()?;
            Ok(())
        } else {
            Err(self
                .lexer
                .error(format!("expected {what}, found {:?}", self.current)))
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
        let Tok::Ident(keyword) = self.bump()? else {
            return Err(self.lexer.error("expected 'rate' or 'bound'"));
        };
        match keyword.as_str() {
            "rate" => {
                let Tok::Ident(name) = self.bump()? else {
                    return Err(self.lexer.error("expected constant name after 'rate'"));
                };
                self.expect(Tok::Equals, "'='")?;
                self.factors = 0;
                let expr = self.parse_expr()?;
                self.expect(Tok::Semi, "';'")?;
                Ok(Statement::Definition { name, expr })
            }
            "bound" => {
                let Tok::Ident(name) = self.bump()? else {
                    return Err(self.lexer.error("expected constant name after 'bound'"));
                };
                match self.bump()? {
                    Tok::Ident(kw) if kw == "in" => {}
                    _ => return Err(self.lexer.error("expected 'in'")),
                }
                self.expect(Tok::LBracket, "'['")?;
                let lo = self.parse_signed_number()?;
                self.expect(Tok::Comma, "','")?;
                let hi = self.parse_signed_number()?;
                self.expect(Tok::RBracket, "']'")?;
                self.expect(Tok::Semi, "';'")?;
                Ok(Statement::Bound { name, lo, hi })
            }
            other => Err(self
                .lexer
                .error(format!("expected 'rate' or 'bound', found '{other}'"))),
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
            Tok::Number(v) => Ok(if neg { -v } else { v }),
            other => Err(self
                .lexer
                .error(format!("expected number, found {other:?}"))),
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
            return Err(self
                .lexer
                .error(format!("expression has more than {MAX_FACTORS} factors")));
        }
        match self.bump()? {
            Tok::Number(v) => Ok(RateExpr::Number(v)),
            Tok::Ident(name) => Ok(RateExpr::Ref(name)),
            Tok::LParen => {
                let inner = self.parse_expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(inner)
            }
            Tok::Minus => Ok(RateExpr::Neg(Box::new(self.parse_factor()?))),
            other => Err(self
                .lexer
                .error(format!("expected expression, found {other:?}"))),
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
        let err = parse_rcip("rate = 2;").unwrap_err();
        assert!(matches!(err, RcipError::Syntax { line: 1, .. }));
        let err = parse_rcip("rate K = 2").unwrap_err();
        assert!(matches!(err, RcipError::Syntax { .. }));
        let err = parse_rcip("frob K = 2;").unwrap_err();
        assert!(matches!(err, RcipError::Syntax { .. }));
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
