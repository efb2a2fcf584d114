//! Parser for RDL source files.
//!
//! Surface syntax (comments start with `#`):
//!
//! ```text
//! # kinetic constants (RCIP sub-language, passed through verbatim)
//! rate K_sc = 2;
//! rate K_cl = K_sc * 3;
//! bound K_sc in [0.1, 10];
//!
//! # molecules, with compact chain-length variants
//! molecule Rubber  = "CC=C(C)C" init 1.0;
//! molecule Sx      = "CS{n}C" for n in 2..8 init 0.5;
//!
//! # reaction rules: site + one of the six primitive actions + rate
//! rule scission {
//!     on Sx;
//!     site bond S & chain(S) >= 3 ~ S & chain(S) >= 3 order single;
//!     action disconnect;
//!     rate K_sc;
//! }
//! rule crosslink {
//!     site pair S & radical, C & allylic;
//!     action connect single;
//!     rate K_cl;
//! }
//!
//! # generation limits and forbidden forms
//! limit atoms 40;
//! limit species 500;
//! limit generations 6;
//! forbid chain S > 8;
//! ```

use rms_molecule::{AtomPredicate, BondOrder, Element};

use crate::ast::{Action, Forbid, MoleculeDecl, Program, RuleDecl, Scope, Site};
use crate::error::{RdlError, Result};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(u64),
    Float(f64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Equals,
    EqEq,
    Tilde,
    Bang,
    Amp,
    Pipe,
    Gt,
    Ge,
    DotDot,
    Plus,
    Minus,
    Star,
    Slash,
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
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

    fn error(&self, message: impl Into<String>) -> RdlError {
        RdlError::Syntax {
            line: self.line,
            column: self.col,
            message: message.into(),
        }
    }

    fn peek_char(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump_char(&mut self) -> Option<char> {
        let c = self.peek_char()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
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
                _ => return,
            }
        }
    }

    /// Next token plus the byte offset where it starts (post-trivia).
    fn next_token(&mut self) -> Result<(Tok, usize)> {
        self.skip_trivia();
        let start = self.pos;
        let Some(c) = self.peek_char() else {
            return Ok((Tok::Eof, start));
        };
        let tok = match c {
            '{' => {
                self.bump_char();
                Tok::LBrace
            }
            '}' => {
                self.bump_char();
                Tok::RBrace
            }
            '(' => {
                self.bump_char();
                Tok::LParen
            }
            ')' => {
                self.bump_char();
                Tok::RParen
            }
            '[' => {
                self.bump_char();
                Tok::LBracket
            }
            ']' => {
                self.bump_char();
                Tok::RBracket
            }
            ';' => {
                self.bump_char();
                Tok::Semi
            }
            ',' => {
                self.bump_char();
                Tok::Comma
            }
            '~' => {
                self.bump_char();
                Tok::Tilde
            }
            '!' => {
                self.bump_char();
                Tok::Bang
            }
            '&' => {
                self.bump_char();
                Tok::Amp
            }
            '|' => {
                self.bump_char();
                Tok::Pipe
            }
            '+' => {
                self.bump_char();
                Tok::Plus
            }
            '-' => {
                self.bump_char();
                Tok::Minus
            }
            '*' => {
                self.bump_char();
                Tok::Star
            }
            '/' => {
                self.bump_char();
                Tok::Slash
            }
            '=' => {
                self.bump_char();
                if self.peek_char() == Some('=') {
                    self.bump_char();
                    Tok::EqEq
                } else {
                    Tok::Equals
                }
            }
            '>' => {
                self.bump_char();
                if self.peek_char() == Some('=') {
                    self.bump_char();
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            '.' => {
                self.bump_char();
                if self.peek_char() == Some('.') {
                    self.bump_char();
                    Tok::DotDot
                } else {
                    return Err(self.error("unexpected '.'"));
                }
            }
            '"' => {
                self.bump_char();
                let s_start = self.pos;
                while let Some(c) = self.peek_char() {
                    if c == '"' {
                        break;
                    }
                    self.bump_char();
                }
                let text = self.src[s_start..self.pos].to_string();
                if self.bump_char() != Some('"') {
                    return Err(self.error("unterminated string"));
                }
                Tok::Str(text)
            }
            c if c.is_ascii_digit() => {
                let n_start = self.pos;
                while self.peek_char().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump_char();
                }
                // Careful: `2..8` must lex as Int(2) DotDot Int(8).
                let is_float =
                    self.peek_char() == Some('.') && !self.src[self.pos + 1..].starts_with('.');
                if is_float {
                    self.bump_char();
                    while self.peek_char().is_some_and(|c| c.is_ascii_digit()) {
                        self.bump_char();
                    }
                }
                if self.peek_char().is_some_and(|c| c == 'e' || c == 'E') {
                    self.bump_char();
                    if self.peek_char().is_some_and(|c| c == '+' || c == '-') {
                        self.bump_char();
                    }
                    while self.peek_char().is_some_and(|c| c.is_ascii_digit()) {
                        self.bump_char();
                    }
                    let text = &self.src[n_start..self.pos];
                    return Ok((
                        Tok::Float(
                            text.parse()
                                .map_err(|_| self.error(format!("bad number '{text}'")))?,
                        ),
                        start,
                    ));
                }
                let text = &self.src[n_start..self.pos];
                if text.contains('.') {
                    Tok::Float(
                        text.parse()
                            .map_err(|_| self.error(format!("bad number '{text}'")))?,
                    )
                } else {
                    Tok::Int(
                        text.parse()
                            .map_err(|_| self.error(format!("bad number '{text}'")))?,
                    )
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let i_start = self.pos;
                while self
                    .peek_char()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
                {
                    self.bump_char();
                }
                Tok::Ident(self.src[i_start..self.pos].to_string())
            }
            other => return Err(self.error(format!("unexpected character '{other}'"))),
        };
        Ok((tok, start))
    }
}

/// Deepest a site predicate may nest parentheses and `!`: far past any
/// rule a chemist writes, and shallow enough that parsing, matching and
/// dropping the predicate stay well inside a thread's stack.
const MAX_PREDICATE_NESTING: usize = 64;

struct Parser<'a> {
    lexer: Lexer<'a>,
    current: Tok,
    current_start: usize,
    src: &'a str,
    /// Parentheses and `!` open around the predicate being parsed.
    nesting: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>> {
        let mut lexer = Lexer::new(src);
        let (current, current_start) = lexer.next_token()?;
        Ok(Parser {
            lexer,
            current,
            current_start,
            src,
            nesting: 0,
        })
    }

    fn bump(&mut self) -> Result<Tok> {
        let (next, start) = self.lexer.next_token()?;
        self.current_start = start;
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

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.bump()? {
            Tok::Ident(name) => Ok(name),
            other => Err(self
                .lexer
                .error(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.bump()? {
            Tok::Ident(name) if name == kw => Ok(()),
            other => Err(self
                .lexer
                .error(format!("expected '{kw}', found {other:?}"))),
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<u64> {
        match self.bump()? {
            Tok::Int(v) => Ok(v),
            other => Err(self
                .lexer
                .error(format!("expected {what}, found {other:?}"))),
        }
    }

    fn parse_program(&mut self) -> Result<Program> {
        let mut program = Program::default();
        while self.current != Tok::Eof {
            let Tok::Ident(kw) = self.current.clone() else {
                return Err(self
                    .lexer
                    .error(format!("expected statement, found {:?}", self.current)));
            };
            match kw.as_str() {
                "rate" | "bound" => self.pass_through_rate_statement(&mut program)?,
                "molecule" => {
                    let decl = self.parse_molecule()?;
                    if program.molecules.iter().any(|m| m.name == decl.name) {
                        return Err(RdlError::DuplicateMolecule(decl.name));
                    }
                    program.molecules.push(decl);
                }
                "rule" => {
                    let rule = self.parse_rule()?;
                    if program.rules.iter().any(|r| r.name == rule.name) {
                        return Err(RdlError::DuplicateRule(rule.name));
                    }
                    program.rules.push(rule);
                }
                "limit" => self.parse_limit(&mut program)?,
                "forbid" => {
                    let forbid = self.parse_forbid()?;
                    program.forbids.push(forbid);
                }
                other => {
                    return Err(self
                        .lexer
                        .error(format!("unknown statement keyword '{other}'")))
                }
            }
        }
        Ok(program)
    }

    /// Copy a `rate`/`bound` statement verbatim (through the `;`) into the
    /// program's RCIP source buffer.
    fn pass_through_rate_statement(&mut self, program: &mut Program) -> Result<()> {
        let start = self.current_start;
        loop {
            let tok = self.bump()?;
            if tok == Tok::Semi {
                break;
            }
            if tok == Tok::Eof {
                return Err(self.lexer.error("unterminated rate statement"));
            }
        }
        // current_start now points at the token *after* the semicolon; the
        // statement text ends at the semicolon we just consumed.
        let end = self
            .src(start)
            .find(';')
            .map(|i| start + i + 1)
            .unwrap_or(self.current_start);
        program.rate_source.push_str(&self.src[start..end]);
        program.rate_source.push('\n');
        Ok(())
    }

    fn src(&self, from: usize) -> &str {
        &self.src[from..]
    }

    fn parse_molecule(&mut self) -> Result<MoleculeDecl> {
        self.expect_keyword("molecule")?;
        let name = self.expect_ident("molecule name")?;
        self.expect(Tok::Equals, "'='")?;
        let template = match self.bump()? {
            Tok::Str(s) => s,
            other => {
                return Err(self
                    .lexer
                    .error(format!("expected SMILES string, found {other:?}")))
            }
        };
        let mut variants = None;
        let mut initial = 0.0;
        loop {
            match &self.current {
                Tok::Ident(kw) if kw == "for" => {
                    self.bump()?;
                    let var = self.expect_ident("variant parameter")?;
                    if var != "n" {
                        return Err(self.lexer.error("variant parameter must be 'n'"));
                    }
                    self.expect_keyword("in")?;
                    let lo = self.expect_int("range start")? as u32;
                    self.expect(Tok::DotDot, "'..'")?;
                    let hi = self.expect_int("range end")? as u32;
                    variants = Some((lo, hi));
                }
                Tok::Ident(kw) if kw == "init" => {
                    self.bump()?;
                    initial = match self.bump()? {
                        Tok::Int(v) => v as f64,
                        Tok::Float(v) => v,
                        other => {
                            return Err(self
                                .lexer
                                .error(format!("expected number after 'init', found {other:?}")))
                        }
                    };
                }
                Tok::Semi => {
                    self.bump()?;
                    break;
                }
                other => {
                    return Err(self
                        .lexer
                        .error(format!("expected 'for', 'init' or ';', found {other:?}")))
                }
            }
        }
        Ok(MoleculeDecl {
            name,
            template,
            variants,
            initial_concentration: initial,
        })
    }

    fn parse_rule(&mut self) -> Result<RuleDecl> {
        self.expect_keyword("rule")?;
        let name = self.expect_ident("rule name")?;
        self.expect(Tok::LBrace, "'{'")?;
        let mut scope = Scope::Any;
        let mut site = None;
        let mut action = None;
        let mut rate = None;
        while self.current != Tok::RBrace {
            let kw = self.expect_ident("rule item")?;
            match kw.as_str() {
                "on" => {
                    let mut names = vec![self.expect_ident("molecule name")?];
                    while self.current == Tok::Comma {
                        self.bump()?;
                        names.push(self.expect_ident("molecule name")?);
                    }
                    scope = if names.len() == 1 && names[0] == "any" {
                        Scope::Any
                    } else {
                        Scope::Named(names)
                    };
                    self.expect(Tok::Semi, "';'")?;
                }
                "site" => {
                    site = Some(self.parse_site()?);
                    self.expect(Tok::Semi, "';'")?;
                }
                "action" => {
                    action = Some(self.parse_action()?);
                    self.expect(Tok::Semi, "';'")?;
                }
                "rate" => {
                    rate = Some(self.expect_ident("rate constant name")?);
                    self.expect(Tok::Semi, "';'")?;
                }
                other => return Err(self.lexer.error(format!("unknown rule item '{other}'"))),
            }
        }
        self.bump()?; // consume '}'
        let site = site.ok_or_else(|| RdlError::InvalidRule {
            rule: name.clone(),
            message: "missing 'site'".to_string(),
        })?;
        let action = action.ok_or_else(|| RdlError::InvalidRule {
            rule: name.clone(),
            message: "missing 'action'".to_string(),
        })?;
        let rate = rate.ok_or_else(|| RdlError::InvalidRule {
            rule: name.clone(),
            message: "missing 'rate'".to_string(),
        })?;
        validate_site_action(&name, &site, action)?;
        Ok(RuleDecl {
            name,
            scope,
            site,
            action,
            rate,
        })
    }

    fn parse_site(&mut self) -> Result<Site> {
        let kind = self.expect_ident("site kind ('bond', 'atom' or 'pair')")?;
        match kind.as_str() {
            "bond" => {
                let left = self.parse_predicate()?;
                self.expect(Tok::Tilde, "'~'")?;
                let right = self.parse_predicate()?;
                let order = if matches!(&self.current, Tok::Ident(kw) if kw == "order") {
                    self.bump()?;
                    Some(self.parse_order()?)
                } else {
                    None
                };
                Ok(Site::Bond { left, right, order })
            }
            "atom" => Ok(Site::Atom(self.parse_predicate()?)),
            "pair" => {
                let first = self.parse_predicate()?;
                self.expect(Tok::Comma, "','")?;
                let second = self.parse_predicate()?;
                Ok(Site::Pair { first, second })
            }
            other => Err(self.lexer.error(format!("unknown site kind '{other}'"))),
        }
    }

    fn parse_order(&mut self) -> Result<BondOrder> {
        let word = self.expect_ident("bond order")?;
        match word.as_str() {
            "single" => Ok(BondOrder::Single),
            "double" => Ok(BondOrder::Double),
            "triple" => Ok(BondOrder::Triple),
            other => Err(self.lexer.error(format!("unknown bond order '{other}'"))),
        }
    }

    fn parse_action(&mut self) -> Result<Action> {
        let word = self.expect_ident("action")?;
        match word.as_str() {
            "disconnect" => Ok(Action::Disconnect),
            "connect" => {
                let order = if matches!(self.current, Tok::Ident(_)) {
                    self.parse_order()?
                } else {
                    BondOrder::Single
                };
                Ok(Action::Connect(order))
            }
            "increase" => Ok(Action::IncreaseBond),
            "decrease" => Ok(Action::DecreaseBond),
            "remove_h" => Ok(Action::RemoveHydrogen),
            "add_h" => Ok(Action::AddHydrogen),
            other => Err(self.lexer.error(format!("unknown action '{other}'"))),
        }
    }

    /// Predicate grammar: `|` over `&` over unary.
    fn parse_predicate(&mut self) -> Result<AtomPredicate> {
        let mut terms = vec![self.parse_pred_conj()?];
        while self.current == Tok::Pipe {
            self.bump()?;
            terms.push(self.parse_pred_conj()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().unwrap()
        } else {
            AtomPredicate::Any(terms)
        })
    }

    fn parse_pred_conj(&mut self) -> Result<AtomPredicate> {
        let mut terms = vec![self.parse_pred_atom()?];
        while self.current == Tok::Amp {
            self.bump()?;
            terms.push(self.parse_pred_atom()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().unwrap()
        } else {
            AtomPredicate::All(terms)
        })
    }

    /// Run `parse` one predicate nesting level deeper.
    fn nested<T>(&mut self, parse: fn(&mut Self) -> Result<T>) -> Result<T> {
        if self.nesting == MAX_PREDICATE_NESTING {
            return Err(self.lexer.error(format!(
                "predicate nested deeper than {MAX_PREDICATE_NESTING} levels"
            )));
        }
        self.nesting += 1;
        let parsed = parse(self);
        self.nesting -= 1;
        parsed
    }

    fn parse_pred_atom(&mut self) -> Result<AtomPredicate> {
        match self.bump()? {
            Tok::LParen => {
                let inner = self.nested(Self::parse_predicate)?;
                self.expect(Tok::RParen, "')'")?;
                Ok(inner)
            }
            Tok::Bang => {
                // Only negations we support directly: !radical, !bonded(E).
                match self.nested(Self::parse_pred_atom)? {
                    AtomPredicate::Radical => Ok(AtomPredicate::NotRadical),
                    AtomPredicate::BondedTo(e) => Ok(AtomPredicate::NotBondedTo(e)),
                    other => Err(self.lexer.error(format!(
                        "'!' only supported on 'radical' and 'bonded(..)', found {other:?}"
                    ))),
                }
            }
            Tok::Ident(word) => match word.as_str() {
                "radical" => Ok(AtomPredicate::Radical),
                "allylic" => Ok(AtomPredicate::Allylic),
                "hydrogens" => {
                    self.expect(Tok::Ge, "'>='")?;
                    let n = self.expect_int("hydrogen count")?;
                    Ok(AtomPredicate::MinHydrogens(n as u8))
                }
                "degree" => match self.bump()? {
                    Tok::Ge => {
                        let n = self.expect_int("degree")?;
                        Ok(AtomPredicate::MinDegree(n as usize))
                    }
                    Tok::EqEq => {
                        let n = self.expect_int("degree")?;
                        Ok(AtomPredicate::Degree(n as usize))
                    }
                    other => Err(self
                        .lexer
                        .error(format!("expected '>=' or '==', found {other:?}"))),
                },
                "chain" => {
                    self.expect(Tok::LParen, "'('")?;
                    let elem = self.parse_element()?;
                    self.expect(Tok::RParen, "')'")?;
                    self.expect(Tok::Ge, "'>='")?;
                    let n = self.expect_int("chain depth")?;
                    Ok(AtomPredicate::MinChainDepth(elem, n as usize))
                }
                "bonded" => {
                    self.expect(Tok::LParen, "'('")?;
                    let elem = self.parse_element()?;
                    self.expect(Tok::RParen, "')'")?;
                    Ok(AtomPredicate::BondedTo(elem))
                }
                sym => match Element::from_symbol(sym) {
                    Some(e) => Ok(AtomPredicate::Is(e)),
                    None => Err(self
                        .lexer
                        .error(format!("unknown predicate or element '{sym}'"))),
                },
            },
            other => Err(self
                .lexer
                .error(format!("expected predicate, found {other:?}"))),
        }
    }

    fn parse_element(&mut self) -> Result<Element> {
        let sym = self.expect_ident("element symbol")?;
        Element::from_symbol(&sym)
            .ok_or_else(|| self.lexer.error(format!("unknown element '{sym}'")))
    }

    fn parse_limit(&mut self, program: &mut Program) -> Result<()> {
        let start = self.current_start;
        self.expect_keyword("limit")?;
        let what = self.expect_ident("limit kind")?;
        let value = self.expect_int("limit value")? as usize;
        self.expect(Tok::Semi, "';'")?;
        match what.as_str() {
            "atoms" => program.limits.max_atoms = value,
            "species" => program.limits.max_species = value,
            "generations" => {
                program.limits.max_generations = value;
                program.generations_span = Some(line_col_at(self.src, start));
            }
            other => return Err(self.lexer.error(format!("unknown limit '{other}'"))),
        }
        Ok(())
    }

    fn parse_forbid(&mut self) -> Result<Forbid> {
        self.expect_keyword("forbid")?;
        let what = self.expect_ident("forbid kind")?;
        let forbid = match what.as_str() {
            "chain" => {
                let elem = self.parse_element()?;
                self.expect(Tok::Gt, "'>'")?;
                let len = self.expect_int("chain length")? as usize;
                Forbid::ChainLongerThan(elem, len)
            }
            "atom" => Forbid::AtomMatching(self.parse_predicate()?),
            other => return Err(self.lexer.error(format!("unknown forbid kind '{other}'"))),
        };
        self.expect(Tok::Semi, "';'")?;
        Ok(forbid)
    }
}

/// Reject site/action combinations that make no chemical sense.
fn validate_site_action(rule: &str, site: &Site, action: Action) -> Result<()> {
    let ok = matches!(
        (site, action),
        (
            Site::Bond { .. },
            Action::Disconnect | Action::IncreaseBond | Action::DecreaseBond
        ) | (Site::Atom(_), Action::RemoveHydrogen | Action::AddHydrogen)
            | (Site::Pair { .. }, Action::Connect(_))
    );
    if ok {
        Ok(())
    } else {
        Err(RdlError::InvalidRule {
            rule: rule.to_string(),
            message: format!(
                "action '{}' incompatible with site kind '{}'",
                action.keyword(),
                site.keyword()
            ),
        })
    }
}

/// 1-based (line, column) of a byte offset within `src`.
fn line_col_at(src: &str, offset: usize) -> (usize, usize) {
    let prefix = &src[..offset.min(src.len())];
    let line = prefix.bytes().filter(|&b| b == b'\n').count() + 1;
    let column = offset - prefix.rfind('\n').map(|i| i + 1).unwrap_or(0) + 1;
    (line, column)
}

/// Parse an RDL program.
pub fn parse_rdl(src: &str) -> Result<Program> {
    Parser::new(src)?.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
        # kinetics
        rate K_sc = 2;
        rate K_cl = K_sc * 3;
        bound K_sc in [0.1, 10];

        molecule Rubber = "CC=C(C)C" init 1.0;
        molecule Sx = "CS{n}C" for n in 2..8 init 0.5;

        rule scission {
            on Sx;
            site bond S & chain(S) >= 3 ~ S & chain(S) >= 3 order single;
            action disconnect;
            rate K_sc;
        }
        rule crosslink {
            site pair S & radical, C & allylic;
            action connect single;
            rate K_cl;
        }

        limit atoms 40;
        limit species 500;
        limit generations 6;
        forbid chain S > 8;
    "#;

    #[test]
    fn full_example_parses() {
        let p = parse_rdl(EXAMPLE).unwrap();
        assert_eq!(p.molecules.len(), 2);
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.limits.max_atoms, 40);
        assert_eq!(p.limits.max_species, 500);
        assert_eq!(p.limits.max_generations, 6);
        assert_eq!(p.forbids.len(), 1);
        assert!(p.rate_source.contains("rate K_sc = 2;"));
        assert!(p.rate_source.contains("bound K_sc in [0.1, 10];"));
    }

    #[test]
    fn generations_limit_records_span() {
        let p = parse_rdl(EXAMPLE).unwrap();
        // `limit generations 6;` sits on line 24, column 9 of EXAMPLE.
        assert_eq!(p.generations_span, Some((24, 9)));
        // A program without an explicit generations limit has no span.
        let q = parse_rdl("molecule A = \"C\" init 1.0;").unwrap();
        assert_eq!(q.generations_span, None);
    }

    #[test]
    fn molecule_variants_and_init() {
        let p = parse_rdl(EXAMPLE).unwrap();
        let sx = &p.molecules[1];
        assert_eq!(sx.name, "Sx");
        assert_eq!(sx.variants, Some((2, 8)));
        assert_eq!(sx.initial_concentration, 0.5);
        let rubber = &p.molecules[0];
        assert_eq!(rubber.variants, None);
        assert_eq!(rubber.initial_concentration, 1.0);
    }

    #[test]
    fn rule_structure() {
        let p = parse_rdl(EXAMPLE).unwrap();
        let sc = &p.rules[0];
        assert_eq!(sc.name, "scission");
        assert_eq!(sc.scope, Scope::Named(vec!["Sx".to_string()]));
        assert_eq!(sc.action, Action::Disconnect);
        assert_eq!(sc.rate, "K_sc");
        let Site::Bond { order, .. } = &sc.site else {
            panic!("expected bond site")
        };
        assert_eq!(*order, Some(BondOrder::Single));
        let cl = &p.rules[1];
        assert_eq!(cl.scope, Scope::Any);
        assert_eq!(cl.action, Action::Connect(BondOrder::Single));
    }

    #[test]
    fn predicate_grammar() {
        let p = parse_rdl(
            "rule r { site atom (S | O) & !radical & hydrogens >= 1 & degree == 2; action remove_h; rate K; }",
        )
        .unwrap();
        let Site::Atom(pred) = &p.rules[0].site else {
            panic!()
        };
        let AtomPredicate::All(terms) = pred else {
            panic!("expected conjunction, got {pred:?}")
        };
        assert_eq!(terms.len(), 4);
        assert!(matches!(terms[0], AtomPredicate::Any(_)));
        assert!(matches!(terms[1], AtomPredicate::NotRadical));
    }

    #[test]
    fn invalid_site_action_combo_rejected() {
        let err = parse_rdl("rule r { site atom S; action disconnect; rate K; }").unwrap_err();
        assert!(matches!(err, RdlError::InvalidRule { .. }));
        let err = parse_rdl("rule r { site bond S ~ S; action connect; rate K; }").unwrap_err();
        assert!(matches!(err, RdlError::InvalidRule { .. }));
    }

    #[test]
    fn missing_rule_parts_rejected() {
        let err = parse_rdl("rule r { site atom S; rate K; }").unwrap_err();
        assert!(
            matches!(err, RdlError::InvalidRule { ref message, .. } if message.contains("action"))
        );
        let err = parse_rdl("rule r { site atom S; action add_h; }").unwrap_err();
        assert!(
            matches!(err, RdlError::InvalidRule { ref message, .. } if message.contains("rate"))
        );
    }

    #[test]
    fn duplicate_declarations_rejected() {
        let err = parse_rdl("molecule A = \"C\"; molecule A = \"CC\";").unwrap_err();
        assert_eq!(err, RdlError::DuplicateMolecule("A".to_string()));
        let err = parse_rdl(
            "rule r { site atom S; action add_h; rate K; } rule r { site atom S; action add_h; rate K; }",
        )
        .unwrap_err();
        assert_eq!(err, RdlError::DuplicateRule("r".to_string()));
    }

    #[test]
    fn syntax_error_positions() {
        let err = parse_rdl("molecule = \"C\";").unwrap_err();
        assert!(matches!(err, RdlError::Syntax { line: 1, .. }));
        let err = parse_rdl("\n\nmolecule A \"C\";").unwrap_err();
        assert!(matches!(err, RdlError::Syntax { line: 3, .. }));
    }

    #[test]
    fn forbid_atom_predicate() {
        let p = parse_rdl("forbid atom Zn;").unwrap();
        assert!(matches!(
            p.forbids[0],
            Forbid::AtomMatching(AtomPredicate::Is(Element::Zn))
        ));
    }

    #[test]
    fn range_lexing_not_float() {
        let p = parse_rdl("molecule S8 = \"S{n}\" for n in 2..8;").unwrap();
        assert_eq!(p.molecules[0].variants, Some((2, 8)));
    }

    #[test]
    fn predicate_nesting_is_bounded_not_overflowed() {
        // 100,000 levels used to run the parser off the stack.
        let rule = |predicate: String| {
            format!(
                "rule r {{ site bond {predicate} ~ S order single; action disconnect; rate K; }}"
            )
        };
        let deep = 100_000;
        for predicate in [
            format!("{}S{}", "(".repeat(deep), ")".repeat(deep)),
            format!("{}radical", "!".repeat(deep)),
        ] {
            match parse_rdl(&rule(predicate)) {
                Err(RdlError::Syntax { message, .. }) => {
                    assert_eq!(message, "predicate nested deeper than 64 levels")
                }
                other => panic!("{other:?}"),
            }
        }
        let at_the_limit = format!("{}S | radical{}", "(".repeat(64), ")".repeat(64));
        assert!(parse_rdl(&rule(at_the_limit)).is_ok());
    }
}
