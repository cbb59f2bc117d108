//! The textual notation of the action language.
//!
//! The paper describes behaviour with "statechart diagrams combined with
//! the UML 2.0 textual notation" (§4.1). This module is the concrete
//! syntax: a recursive-descent parser from text to the [`crate::action`]
//! AST, so guards and effect lists can be written the way a designer
//! would type them into a tool:
//!
//! ```text
//! seq := seq + 1;
//! if len($payload) > 256 {
//!     compute mem len($payload) / 4;
//!     send pOut.TxPdu(slice($payload, 0, 256), seq);
//! } else {
//!     send pOut.TxPdu($payload, seq);
//! }
//! set_timer ackT, 200000;
//! log "queued fragment {}", seq;
//! ```
//!
//! Grammar (expressions in precedence order):
//!
//! ```text
//! statements := statement*
//! statement  := ident ":=" expr ";"
//!             | "send" ident "." ident "(" args ")" ";"
//!             | "if" expr block ("else" (block | if-statement))?
//!             | "while" expr ("bound" INT)? block
//!             | "compute" ("control"|"dsp"|"bit"|"mem") expr ";"
//!             | "log" STRING ("," args)? ";"
//!             | "set_timer" ident "," expr ";"
//!             | "cancel_timer" ident ";"
//! expr  := or
//! or    := and ("||" and)*
//! and   := cmp ("&&" cmp)*
//! cmp   := bitor (("=="|"!="|"<="|"<"|">="|">") bitor)?
//! bitor := add (("|"|"^") add)*
//! add   := mul (("+"|"-") mul)*
//! mul   := shift (("*"|"/"|"%") shift)*
//! shift := unary (("<<"|">>"|"&") unary)*
//! unary := ("!"|"-") unary | primary
//! primary := INT | "true" | "false" | STRING | x"hex"
//!          | "$" ident | ident "(" args ")" | ident | "(" expr ")"
//! ```
//!
//! # Error recovery
//!
//! [`parse_program`] is the diagnostics-aware entry point: instead of
//! failing on the first syntax error, it records a spanned
//! [`Diagnostic`] and synchronises to the next statement boundary (a `;`
//! at the current brace depth, or the `}` closing the enclosing block),
//! so one pass reports every broken statement. Codes: `E0110` for syntax
//! errors, `E0111` for unknown names (signals, builtins, cost classes),
//! `E0112` for malformed literals and arity mismatches.

use tut_diag::{Diagnostic, DiagnosticBag, Span};

use crate::action::{BinOp, Builtin, CostClass, Expr, Statement, UnaryOp};
use crate::error::{Error, Result};
use crate::model::Model;
use crate::value::Value;

/// Action-language syntax error.
pub const E_SYNTAX: &str = "E0110";
/// Unknown name: signal, builtin function, or cost class.
pub const E_UNKNOWN_NAME: &str = "E0111";
/// Malformed literal or wrong argument count.
pub const E_LITERAL: &str = "E0112";

/// A parse error local to this module, carrying the span and stable code
/// that the diagnostics path needs. Converted to [`Error::Action`] at the
/// fail-fast public boundary.
#[derive(Clone, Debug)]
struct ParseErr {
    span: Span,
    code: &'static str,
    message: String,
}

impl ParseErr {
    fn into_error(self) -> Error {
        Error::Action(format!("at byte {}: {}", self.span.start, self.message))
    }

    fn into_diagnostic(self) -> Diagnostic {
        Diagnostic::error(self.code, self.message).with_span(self.span)
    }
}

type PResult<T> = std::result::Result<T, ParseErr>;

/// The result of parsing with error recovery: every statement that parsed
/// cleanly, the source span of each, and the diagnostics for the parts
/// that did not.
#[derive(Clone, Debug, Default)]
pub struct ParsedProgram {
    /// Statements that parsed successfully, in source order.
    pub statements: Vec<Statement>,
    /// Source span of each top-level statement, parallel to `statements`.
    pub spans: Vec<Span>,
    /// Syntax diagnostics accumulated during recovery.
    pub diagnostics: DiagnosticBag,
}

/// Parses an expression from its textual form.
///
/// # Errors
///
/// Returns [`Error::Action`] with a byte offset on malformed input.
///
/// # Example
///
/// ```
/// use tut_uml::textual::parse_expr;
/// use tut_uml::action::Env;
/// use tut_uml::Value;
///
/// let expr = parse_expr("crc32(x\"deadbeef\") & 255")?;
/// let value = expr.eval(&Env::new())?;
/// assert_eq!(value.data_type(), tut_uml::DataType::Int);
/// # Ok::<(), tut_uml::Error>(())
/// ```
pub fn parse_expr(text: &str) -> Result<Expr> {
    let mut parser = Parser::new(text, None);
    let expr = parser.expr().map_err(ParseErr::into_error)?;
    parser.skip_ws();
    if !parser.at_end() {
        return Err(parser.error("trailing input after expression").into_error());
    }
    Ok(expr)
}

/// Parses a statement list, failing on the first error. `model` is needed
/// to resolve signal names in `send` statements.
///
/// # Errors
///
/// Returns [`Error::Action`] on syntax errors or unknown signal names.
/// Use [`parse_program`] to collect *all* errors with spans instead.
///
/// # Example
///
/// ```
/// use tut_uml::textual::parse_statements;
/// use tut_uml::Model;
///
/// let mut model = Model::new("M");
/// let sig = model.add_signal("Ping");
/// let program = parse_statements("n := n + 1; send out.Ping(n);", &model)?;
/// assert_eq!(program.len(), 2);
/// # Ok::<(), tut_uml::Error>(())
/// ```
pub fn parse_statements(text: &str, model: &Model) -> Result<Vec<Statement>> {
    let mut parser = Parser::new(text, Some(model));
    let statements = parser.statements().map_err(ParseErr::into_error)?;
    parser.skip_ws();
    if !parser.at_end() {
        return Err(parser.error("trailing input after statements").into_error());
    }
    Ok(statements)
}

/// Parses a statement list with statement-level error recovery.
///
/// On a syntax error the parser records a spanned diagnostic and skips to
/// the next statement boundary — the next `;` at the current brace depth,
/// or the `}` that closes the enclosing block — then keeps parsing, so a
/// program with three broken statements yields three diagnostics, not one.
/// Recovery works at every block nesting level.
///
/// # Example
///
/// ```
/// use tut_uml::textual::parse_program;
///
/// let parsed = parse_program("a := 1;\nb := ;\nc := 3;", None);
/// assert_eq!(parsed.statements.len(), 2, "a and c survive");
/// assert_eq!(parsed.diagnostics.len(), 1);
/// assert!(parsed.diagnostics.has_errors());
/// ```
pub fn parse_program(text: &str, model: Option<&Model>) -> ParsedProgram {
    let mut parser = Parser::new(text, model);
    parser.recovering = true;
    let mut program = ParsedProgram::default();
    loop {
        parser.statements_recovering(&mut program);
        parser.skip_ws();
        if parser.at_end() {
            break;
        }
        // A stray `}` at top level: report it once and continue after it.
        let diag = parser.error("unexpected `}` with no open block");
        program.diagnostics.push(diag.into_diagnostic());
        parser.pos += 1;
    }
    program
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    model: Option<&'a Model>,
    /// True for [`parse_program`]: blocks re-enter the recovering
    /// statement loop so errors inside nested blocks are also collected.
    recovering: bool,
    /// Diagnostics from nested blocks while recovering.
    nested: Vec<ParseErr>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, model: Option<&'a Model>) -> Parser<'a> {
        Parser {
            text,
            pos: 0,
            model,
            recovering: false,
            nested: Vec::new(),
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseErr {
        self.error_code(E_SYNTAX, message)
    }

    fn error_code(&self, code: &'static str, message: impl Into<String>) -> ParseErr {
        ParseErr {
            span: Span::point(self.pos),
            code,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.text.len()
    }

    fn skip_ws(&mut self) {
        loop {
            let rest = self.rest();
            let trimmed = rest.trim_start();
            self.pos += rest.len() - trimmed.len();
            // Line comments.
            if self.rest().starts_with("//") {
                match self.rest().find('\n') {
                    Some(nl) => self.pos += nl + 1,
                    None => self.pos = self.text.len(),
                }
            } else {
                return;
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> PResult<()> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{token}`")))
        }
    }

    /// Eats a keyword: like [`eat`] but only when not followed by an
    /// identifier character (so `sender` is not `send` + `er`).
    fn eat_keyword(&mut self, keyword: &str) -> bool {
        self.skip_ws();
        let rest = self.rest();
        if !rest.starts_with(keyword) {
            return false;
        }
        match rest[keyword.len()..].chars().next() {
            Some(c) if c.is_ascii_alphanumeric() || c == '_' => false,
            _ => {
                self.pos += keyword.len();
                true
            }
        }
    }

    fn ident(&mut self) -> PResult<String> {
        self.skip_ws();
        let rest = self.rest();
        let mut len = 0;
        for (i, c) in rest.char_indices() {
            let ok = if i == 0 {
                c.is_ascii_alphabetic() || c == '_'
            } else {
                c.is_ascii_alphanumeric() || c == '_'
            };
            if !ok {
                break;
            }
            len = i + c.len_utf8();
        }
        if len == 0 {
            return Err(self.error("expected an identifier"));
        }
        let ident = &rest[..len];
        self.pos += len;
        Ok(ident.to_owned())
    }

    fn string_literal(&mut self) -> PResult<String> {
        self.skip_ws();
        if !self.rest().starts_with('"') {
            return Err(self.error("expected a string literal"));
        }
        self.pos += 1;
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, other)) => out.push(other),
                    None => break,
                },
                other => out.push(other),
            }
        }
        Err(self.error("unterminated string literal"))
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat("||") {
            let rhs = self.and_expr()?;
            lhs = lhs.bin(BinOp::Or, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.cmp_expr()?;
        while self.eat("&&") {
            let rhs = self.cmp_expr()?;
            lhs = lhs.bin(BinOp::And, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> PResult<Expr> {
        let lhs = self.bitor_expr()?;
        // Note order: multi-char operators first.
        for (token, op) in [
            ("==", BinOp::Eq),
            ("!=", BinOp::Ne),
            ("<=", BinOp::Le),
            (">=", BinOp::Ge),
            ("<<", BinOp::Shl), // guard: `<<` is not a comparison
            (">>", BinOp::Shr),
            ("<", BinOp::Lt),
            (">", BinOp::Gt),
        ] {
            self.skip_ws();
            if matches!(op, BinOp::Shl | BinOp::Shr) {
                // Shifts are handled at the `shift` level; seeing one here
                // means precedence already consumed it. Skip.
                if self.rest().starts_with(token) {
                    break;
                }
                continue;
            }
            if self.rest().starts_with(token) {
                self.pos += token.len();
                let rhs = self.bitor_expr()?;
                return Ok(lhs.bin(op, rhs));
            }
        }
        Ok(lhs)
    }

    fn bitor_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.add_expr()?;
        loop {
            self.skip_ws();
            if self.rest().starts_with("||") {
                break; // logical or, handled above
            }
            if self.rest().starts_with('|') {
                self.pos += 1;
                let rhs = self.add_expr()?;
                lhs = lhs.bin(BinOp::BitOr, rhs);
            } else if self.rest().starts_with('^') {
                self.pos += 1;
                let rhs = self.add_expr()?;
                lhs = lhs.bin(BinOp::BitXor, rhs);
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            self.skip_ws();
            if self.rest().starts_with('+') {
                self.pos += 1;
                let rhs = self.mul_expr()?;
                lhs = lhs.bin(BinOp::Add, rhs);
            } else if self.rest().starts_with('-') {
                self.pos += 1;
                let rhs = self.mul_expr()?;
                lhs = lhs.bin(BinOp::Sub, rhs);
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.shift_expr()?;
        loop {
            self.skip_ws();
            let rest = self.rest();
            if rest.starts_with("//") {
                break; // comment
            }
            if rest.starts_with('*') {
                self.pos += 1;
                let rhs = self.shift_expr()?;
                lhs = lhs.bin(BinOp::Mul, rhs);
            } else if rest.starts_with('/') {
                self.pos += 1;
                let rhs = self.shift_expr()?;
                lhs = lhs.bin(BinOp::Div, rhs);
            } else if rest.starts_with('%') {
                self.pos += 1;
                let rhs = self.shift_expr()?;
                lhs = lhs.bin(BinOp::Mod, rhs);
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn shift_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            self.skip_ws();
            let rest = self.rest();
            if rest.starts_with("<<") {
                self.pos += 2;
                let rhs = self.unary_expr()?;
                lhs = lhs.bin(BinOp::Shl, rhs);
            } else if rest.starts_with(">>") {
                self.pos += 2;
                let rhs = self.unary_expr()?;
                lhs = lhs.bin(BinOp::Shr, rhs);
            } else if rest.starts_with('&') && !rest.starts_with("&&") {
                self.pos += 1;
                let rhs = self.unary_expr()?;
                lhs = lhs.bin(BinOp::BitAnd, rhs);
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        self.skip_ws();
        if self.rest().starts_with('!') && !self.rest().starts_with("!=") {
            self.pos += 1;
            let inner = self.unary_expr()?;
            return Ok(Expr::Unary(UnaryOp::Not, Box::new(inner)));
        }
        if self.rest().starts_with('-') {
            self.pos += 1;
            let inner = self.unary_expr()?;
            return Ok(Expr::Unary(UnaryOp::Neg, Box::new(inner)));
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> PResult<Expr> {
        self.skip_ws();
        let rest = self.rest();
        // Parenthesised.
        if rest.starts_with('(') {
            self.pos += 1;
            let inner = self.expr()?;
            self.expect(")")?;
            return Ok(inner);
        }
        // Signal parameter.
        if rest.starts_with('$') {
            self.pos += 1;
            let name = self.ident()?;
            return Ok(Expr::Param(name));
        }
        // Hex byte-buffer literal: x"dead beef".
        if rest.starts_with("x\"") {
            self.pos += 1;
            let hex = self.string_literal()?;
            let cleaned: String = hex.chars().filter(|c| !c.is_whitespace()).collect();
            if !cleaned.len().is_multiple_of(2) {
                return Err(self.error_code(E_LITERAL, "hex literal needs an even digit count"));
            }
            let mut bytes = Vec::with_capacity(cleaned.len() / 2);
            for i in (0..cleaned.len()).step_by(2) {
                let byte = u8::from_str_radix(&cleaned[i..i + 2], 16)
                    .map_err(|_| self.error_code(E_LITERAL, "bad hex digit in byte literal"))?;
                bytes.push(byte);
            }
            return Ok(Expr::Lit(Value::from(bytes)));
        }
        // String literal.
        if rest.starts_with('"') {
            let s = self.string_literal()?;
            return Ok(Expr::Lit(Value::Str(s)));
        }
        // Integer.
        if rest.starts_with(|c: char| c.is_ascii_digit()) {
            let digits: String = if rest.starts_with("0x") || rest.starts_with("0X") {
                let hex: String = rest[2..]
                    .chars()
                    .take_while(|c| c.is_ascii_hexdigit())
                    .collect();
                self.pos += 2 + hex.len();
                return i64::from_str_radix(&hex, 16)
                    .map(Expr::int)
                    .map_err(|_| self.error_code(E_LITERAL, "bad hex integer"));
            } else {
                rest.chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '_')
                    .collect()
            };
            self.pos += digits.len();
            let cleaned: String = digits.chars().filter(|c| *c != '_').collect();
            return cleaned
                .parse::<i64>()
                .map(Expr::int)
                .map_err(|_| self.error_code(E_LITERAL, "bad integer literal"));
        }
        // Keywords, builtins, variables.
        if self.eat_keyword("true") {
            return Ok(Expr::bool(true));
        }
        if self.eat_keyword("false") {
            return Ok(Expr::bool(false));
        }
        let name = self.ident()?;
        self.skip_ws();
        if self.rest().starts_with('(') {
            let builtin = Builtin::from_name(&name).ok_or_else(|| {
                self.error_code(E_UNKNOWN_NAME, format!("unknown builtin `{name}`"))
            })?;
            self.pos += 1;
            let args = self.args()?;
            self.expect(")")?;
            if args.len() != builtin.arity() {
                return Err(self.error_code(
                    E_LITERAL,
                    format!(
                        "builtin `{name}` expects {} arguments, got {}",
                        builtin.arity(),
                        args.len()
                    ),
                ));
            }
            return Ok(Expr::Call(builtin, args));
        }
        Ok(Expr::Var(name))
    }

    fn args(&mut self) -> PResult<Vec<Expr>> {
        let mut args = Vec::new();
        self.skip_ws();
        if self.rest().starts_with(')') {
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if !self.eat(",") {
                return Ok(args);
            }
        }
    }

    // ---- statements -------------------------------------------------------

    fn statements(&mut self) -> PResult<Vec<Statement>> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            if self.at_end() || self.rest().starts_with('}') {
                return Ok(out);
            }
            out.push(self.statement()?);
        }
    }

    /// The recovering statement loop: parse errors become diagnostics and
    /// the parser resynchronises at the next statement boundary instead of
    /// giving up. Stops at end of input or at a `}` for the caller (a
    /// [`Parser::block`]) to consume.
    fn statements_recovering(&mut self, program: &mut ParsedProgram) {
        loop {
            self.skip_ws();
            if self.at_end() || self.rest().starts_with('}') {
                return;
            }
            let start = self.pos;
            match self.statement() {
                Ok(stmt) => {
                    for nested in self.nested.drain(..) {
                        program.diagnostics.push(nested.into_diagnostic());
                    }
                    program.statements.push(stmt);
                    program.spans.push(Span::new(start, self.pos));
                }
                Err(err) => {
                    for nested in self.nested.drain(..) {
                        program.diagnostics.push(nested.into_diagnostic());
                    }
                    program.diagnostics.push(err.into_diagnostic());
                    self.synchronize();
                    if self.pos == start {
                        // Zero progress: consume one character so the loop
                        // always terminates.
                        let step = self.rest().chars().next().map_or(1, char::len_utf8);
                        self.pos = (self.pos + step).min(self.text.len());
                    }
                }
            }
        }
    }

    /// Skips forward to the next statement boundary: just past a `;` at
    /// the current brace depth, or *onto* a `}` that closes the enclosing
    /// block (left for the block parser to consume). Strings and line
    /// comments are skipped so their contents cannot fake a boundary.
    fn synchronize(&mut self) {
        let bytes = self.text.as_bytes();
        let mut depth = 0usize;
        while self.pos < bytes.len() {
            match bytes[self.pos] {
                b';' if depth == 0 => {
                    self.pos += 1;
                    return;
                }
                b'{' => {
                    depth += 1;
                    self.pos += 1;
                }
                b'}' => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                    self.pos += 1;
                }
                b'"' => {
                    self.pos += 1;
                    while self.pos < bytes.len() {
                        match bytes[self.pos] {
                            b'\\' => self.pos = (self.pos + 2).min(bytes.len()),
                            b'"' => {
                                self.pos += 1;
                                break;
                            }
                            _ => self.pos += 1,
                        }
                    }
                }
                b'/' if bytes.get(self.pos + 1) == Some(&b'/') => {
                    while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => self.pos += 1,
            }
        }
    }

    fn block(&mut self) -> PResult<Vec<Statement>> {
        self.expect("{")?;
        let body = if self.recovering {
            // Collect nested errors as diagnostics (via the `nested`
            // buffer) so a broken statement inside a block doesn't lose
            // its siblings — recovery works at every nesting level.
            let mut inner = ParsedProgram::default();
            self.statements_recovering(&mut inner);
            self.nested
                .extend(inner.diagnostics.into_iter().map(|d| ParseErr {
                    span: d.span.unwrap_or(Span::NONE),
                    code: d.code,
                    message: d.message,
                }));
            inner.statements
        } else {
            self.statements()?
        };
        self.expect("}")?;
        Ok(body)
    }

    fn statement(&mut self) -> PResult<Statement> {
        if self.eat_keyword("send") {
            let port = self.ident()?;
            self.expect(".")?;
            let signal_name = self.ident()?;
            let model = self
                .model
                .ok_or_else(|| self.error("send statements need a model for signal lookup"))?;
            let signal = model.find_signal(&signal_name).ok_or_else(|| {
                self.error_code(E_UNKNOWN_NAME, format!("unknown signal `{signal_name}`"))
            })?;
            self.expect("(")?;
            let args = self.args()?;
            self.expect(")")?;
            self.expect(";")?;
            return Ok(Statement::Send { port, signal, args });
        }
        if self.eat_keyword("if") {
            let cond = self.expr()?;
            let then_branch = self.block()?;
            let else_branch = if self.eat_keyword("else") {
                self.skip_ws();
                if self.rest().starts_with("if") {
                    vec![self.statement()?]
                } else {
                    self.block()?
                }
            } else {
                Vec::new()
            };
            return Ok(Statement::If {
                cond,
                then_branch,
                else_branch,
            });
        }
        if self.eat_keyword("while") {
            let cond = self.expr()?;
            let max_iter = if self.eat_keyword("bound") {
                match self.expr()? {
                    Expr::Lit(Value::Int(n)) if n > 0 => n as u32,
                    _ => {
                        return Err(
                            self.error_code(E_LITERAL, "`bound` needs a positive integer literal")
                        )
                    }
                }
            } else {
                1024
            };
            let body = self.block()?;
            return Ok(Statement::While {
                cond,
                body,
                max_iter,
            });
        }
        if self.eat_keyword("compute") {
            let class_name = self.ident()?;
            let class = CostClass::from_name(&class_name).ok_or_else(|| {
                self.error_code(E_UNKNOWN_NAME, format!("unknown cost class `{class_name}`"))
            })?;
            let amount = self.expr()?;
            self.expect(";")?;
            return Ok(Statement::Compute { class, amount });
        }
        if self.eat_keyword("log") {
            let message = self.string_literal()?;
            let args = if self.eat(",") {
                self.args()?
            } else {
                Vec::new()
            };
            self.expect(";")?;
            return Ok(Statement::Log { message, args });
        }
        if self.eat_keyword("set_timer") {
            let name = self.ident()?;
            self.expect(",")?;
            let duration = self.expr()?;
            self.expect(";")?;
            return Ok(Statement::SetTimer { name, duration });
        }
        if self.eat_keyword("cancel_timer") {
            let name = self.ident()?;
            self.expect(";")?;
            return Ok(Statement::CancelTimer { name });
        }
        if self.eat_keyword("count") {
            // Counter names may be dotted (`arq.retries`) to group
            // related tallies in the profiling report.
            let mut counter = self.ident()?;
            while self.eat(".") {
                counter.push('.');
                counter.push_str(&self.ident()?);
            }
            self.expect(",")?;
            let amount = self.expr()?;
            self.expect(";")?;
            return Ok(Statement::Count { counter, amount });
        }
        // Assignment.
        let var = self.ident()?;
        self.expect(":=")?;
        let expr = self.expr()?;
        self.expect(";")?;
        Ok(Statement::Assign { var, expr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Env;

    fn eval(text: &str) -> Value {
        parse_expr(text)
            .expect("parse")
            .eval(&Env::new())
            .expect("eval")
    }

    #[test]
    fn arithmetic_precedence() {
        assert_eq!(eval("2 + 3 * 4"), Value::Int(14));
        assert_eq!(eval("(2 + 3) * 4"), Value::Int(20));
        assert_eq!(eval("10 - 4 - 3"), Value::Int(3), "left associative");
        assert_eq!(eval("7 % 3 + 1"), Value::Int(2));
    }

    #[test]
    fn comparison_and_logic() {
        assert_eq!(eval("1 < 2 && 3 >= 3"), Value::Bool(true));
        assert_eq!(eval("1 == 2 || !false"), Value::Bool(true));
        assert_eq!(eval("2 != 2"), Value::Bool(false));
    }

    #[test]
    fn bitwise_and_shifts() {
        assert_eq!(eval("1 << 4"), Value::Int(16));
        assert_eq!(eval("255 & 15"), Value::Int(15));
        assert_eq!(eval("8 | 1"), Value::Int(9));
        assert_eq!(eval("5 ^ 1"), Value::Int(4));
        assert_eq!(eval("256 >> 4"), Value::Int(16));
    }

    #[test]
    fn literals() {
        assert_eq!(eval("0xff"), Value::Int(255));
        assert_eq!(eval("1_000_000"), Value::Int(1_000_000));
        assert_eq!(eval("true"), Value::Bool(true));
        assert_eq!(eval("\"hi\""), Value::Str("hi".into()));
        assert_eq!(
            eval("x\"dead beef\""),
            Value::Bytes(vec![0xde, 0xad, 0xbe, 0xef].into())
        );
        assert_eq!(eval("-5"), Value::Int(-5));
    }

    #[test]
    fn builtins_and_params() {
        assert_eq!(eval("len(x\"0102\")"), Value::Int(2));
        assert_eq!(eval("min(3, max(1, 2))"), Value::Int(2));
        assert_eq!(eval("unpack_int(pack_int(513, 2))"), Value::Int(513));
        let e = parse_expr("$payload").unwrap();
        assert_eq!(e, Expr::Param("payload".into()));
        assert!(parse_expr("nosuch(1)").is_err());
        assert!(parse_expr("len(1, 2)").is_err(), "arity checked");
    }

    #[test]
    fn display_form_reparses() {
        for text in [
            "((a + 1) * 2)",
            "(len($p) > 256)",
            "crc32(buf)",
            "!(flag)",
            "((x << 2) | 1)",
        ] {
            let parsed = parse_expr(text).unwrap();
            let reparsed = parse_expr(&parsed.to_string()).unwrap();
            assert_eq!(parsed, reparsed, "display of `{text}` must reparse");
        }
    }

    #[test]
    fn statements_full_program() {
        let mut model = Model::new("M");
        model.add_signal("TxPdu");
        let program = parse_statements(
            r#"
            // fragmentation step
            seq := seq + 1;
            if len($payload) > 256 {
                compute mem len($payload) / 4;
                send pOut.TxPdu(slice($payload, 0, 256), seq);
            } else {
                send pOut.TxPdu($payload, seq);
            }
            while n > 0 bound 64 { n := n - 1; }
            set_timer ackT, 200000;
            log "queued {}", seq;
            cancel_timer ackT;
            count arq.tx, 1;
            "#,
            &model,
        )
        .expect("parse");
        assert_eq!(program.len(), 7);
        assert!(matches!(&program[0], Statement::Assign { var, .. } if var == "seq"));
        assert!(matches!(&program[1], Statement::If { .. }));
        assert!(matches!(&program[2], Statement::While { max_iter: 64, .. }));
        assert!(matches!(&program[3], Statement::SetTimer { .. }));
        assert!(matches!(&program[4], Statement::Log { .. }));
        assert!(matches!(&program[5], Statement::CancelTimer { .. }));
        assert!(matches!(&program[6], Statement::Count { counter, .. } if counter == "arq.tx"));
    }

    #[test]
    fn else_if_chains() {
        let model = Model::new("M");
        let program = parse_statements(
            "if a > 1 { x := 1; } else if a > 0 { x := 2; } else { x := 3; }",
            &model,
        )
        .unwrap();
        let Statement::If { else_branch, .. } = &program[0] else {
            panic!("expected if");
        };
        assert!(matches!(&else_branch[0], Statement::If { .. }));
    }

    #[test]
    fn unknown_signal_rejected() {
        let model = Model::new("M");
        let err = parse_statements("send p.Nope();", &model).unwrap_err();
        assert!(err.to_string().contains("Nope"));
    }

    #[test]
    fn error_reports_offset() {
        let err = parse_expr("1 + + 2").unwrap_err();
        assert!(err.to_string().contains("at byte"));
        assert!(parse_expr("").is_err());
        assert!(parse_expr("(1").is_err());
        assert!(parse_expr("1 2").is_err());
    }

    #[test]
    fn executed_parsed_program_matches_built_ast() {
        use crate::action::{execute, Effect};
        let mut model = Model::new("M");
        let sig = model.add_signal("Out");
        let program = parse_statements(
            "total := 0; while total < 10 bound 32 { total := total + 3; } send p.Out(total);",
            &model,
        )
        .unwrap();
        let mut env = Env::new();
        let mut effects = Vec::new();
        let mut weight = 0;
        execute(&program, &mut env, &mut effects, &mut weight).unwrap();
        assert_eq!(env.vars["total"], Value::Int(12));
        assert_eq!(
            effects,
            vec![Effect::Send {
                port: "p",
                signal: sig,
                values: vec![Value::Int(12)],
            }]
        );
    }

    // ---- error recovery ---------------------------------------------------

    #[test]
    fn recovery_collects_every_broken_statement() {
        let text = "a := 1;\nb := ;\nc := 3;\nd % 4;\ne := 5;\nsend p.Nope();\n";
        let model = Model::new("M");
        let parsed = parse_program(text, Some(&model));
        assert_eq!(
            parsed.statements.len(),
            3,
            "a, c, e survive: {:?}",
            parsed.statements
        );
        assert_eq!(parsed.spans.len(), parsed.statements.len());
        assert_eq!(parsed.diagnostics.len(), 3, "{}", parsed.diagnostics);
        let codes: Vec<_> = parsed.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, [E_SYNTAX, E_SYNTAX, E_UNKNOWN_NAME]);
        for d in &parsed.diagnostics {
            assert!(d.span.is_some(), "recovery diagnostics carry spans");
        }
    }

    #[test]
    fn recovery_inside_nested_blocks() {
        let text = "if a > 0 {\n  x := ;\n  y := 2;\n}\nz := 3;";
        let parsed = parse_program(text, None);
        assert_eq!(parsed.diagnostics.len(), 1, "{}", parsed.diagnostics);
        assert_eq!(
            parsed.statements.len(),
            2,
            "the if (with its surviving body) and z"
        );
        let Statement::If { then_branch, .. } = &parsed.statements[0] else {
            panic!("expected if");
        };
        assert_eq!(then_branch.len(), 1, "y survives inside the block");
    }

    #[test]
    fn recovery_skips_boundaries_inside_strings_and_comments() {
        // The `;`/`}` inside the string and comment must not be treated as
        // statement boundaries while synchronising.
        let text = "a := % \"; } fake\"; // ; also fake\nb := 2;";
        let parsed = parse_program(text, None);
        assert_eq!(parsed.diagnostics.len(), 1, "{}", parsed.diagnostics);
        assert_eq!(parsed.statements.len(), 1);
        assert!(matches!(&parsed.statements[0], Statement::Assign { var, .. } if var == "b"));
    }

    #[test]
    fn recovery_terminates_on_pathological_input() {
        for text in ["}", "}}}", "{", ";;;", "@#!", "if {", "a :="] {
            let parsed = parse_program(text, None);
            assert!(!parsed.diagnostics.is_empty(), "input {text:?}");
        }
    }

    #[test]
    fn recovered_spans_point_at_the_failure() {
        let text = "good := 1;\nbad := ;\n";
        let parsed = parse_program(text, None);
        let diag = parsed.diagnostics.first().expect("one diagnostic");
        let span = diag.span.expect("span");
        // The failure is at the `;` where an expression should start.
        assert_eq!(&text[span.start..span.start + 1], ";");
    }
}
