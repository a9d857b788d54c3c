//! Parser for Boolean fault expressions (§3.5.5).
//!
//! Grammar (precedence low → high):
//!
//! ```text
//! expr   := term ( '|' term )*
//! term   := factor ( '&' factor )*
//! factor := '~' factor | '(' inner ')'
//! inner  := NAME ':' NAME        -- an atom, e.g. (SM1:ELECT)
//!         | expr                 -- a parenthesized subexpression
//! ```
//!
//! This accepts exactly the thesis's examples, e.g.
//! `((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))`, and round-trips
//! with [`FaultExpr`]'s `Display` implementation.

use crate::error::ParseError;
use loki_core::fault::FaultExpr;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Token {
    LParen,
    RParen,
    And,
    Or,
    Not,
    Colon,
    Name(String),
}

fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let mut tokens = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(i, c)) = chars.peek() {
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                chars.next();
            }
            '(' => {
                tokens.push(Token::LParen);
                chars.next();
            }
            ')' => {
                tokens.push(Token::RParen);
                chars.next();
            }
            '&' => {
                tokens.push(Token::And);
                chars.next();
            }
            '|' => {
                tokens.push(Token::Or);
                chars.next();
            }
            '~' | '!' => {
                tokens.push(Token::Not);
                chars.next();
            }
            ':' => {
                tokens.push(Token::Colon);
                chars.next();
            }
            c if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' => {
                let mut name = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' {
                        name.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Name(name));
            }
            other => {
                return Err(ParseError::at(
                    1,
                    format!("unexpected character `{other}` at offset {i} in fault expression"),
                ))
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Token, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(ref got) if got == t => Ok(()),
            Some(got) => Err(ParseError::at(1, format!("expected {what}, found {got:?}"))),
            None => Err(ParseError::eof(format!("expected {what}"))),
        }
    }

    fn expr(&mut self) -> Result<FaultExpr, ParseError> {
        let mut lhs = self.term()?;
        while self.peek() == Some(&Token::Or) {
            self.next();
            let rhs = self.term()?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<FaultExpr, ParseError> {
        let mut lhs = self.factor()?;
        while self.peek() == Some(&Token::And) {
            self.next();
            let rhs = self.factor()?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<FaultExpr, ParseError> {
        match self.next() {
            Some(Token::Not) => Ok(self.factor()?.not()),
            Some(Token::LParen) => {
                // Either an atom `NAME : NAME` or a nested expression.
                let inner = match (self.tokens.get(self.pos), self.tokens.get(self.pos + 1)) {
                    (Some(Token::Name(sm)), Some(Token::Colon)) => {
                        let sm = sm.clone();
                        self.pos += 2;
                        let state = match self.next() {
                            Some(Token::Name(n)) => n,
                            Some(other) => {
                                return Err(ParseError::at(
                                    1,
                                    format!("expected state name after `:`, found {other:?}"),
                                ))
                            }
                            None => return Err(ParseError::eof("expected state name after `:`")),
                        };
                        FaultExpr::atom(&sm, &state)
                    }
                    _ => self.expr()?,
                };
                self.expect(&Token::RParen, "`)`")?;
                Ok(inner)
            }
            Some(other) => Err(ParseError::at(
                1,
                format!("expected `(` or `~` in fault expression, found {other:?}"),
            )),
            None => Err(ParseError::eof("unexpected end of fault expression")),
        }
    }
}

/// Parses a Boolean fault expression.
///
/// # Errors
///
/// Returns a [`ParseError`] for malformed syntax.
///
/// # Examples
///
/// ```
/// use loki_spec::expr::parse_expr;
///
/// let e = parse_expr("((SM1:ELECT) & (SM2:FOLLOW))")?;
/// assert_eq!(e.to_string(), "((SM1:ELECT) & (SM2:FOLLOW))");
/// # Ok::<(), loki_spec::error::ParseError>(())
/// ```
pub fn parse_expr(input: &str) -> Result<FaultExpr, ParseError> {
    let tokens = tokenize(input)?;
    if tokens.is_empty() {
        return Err(ParseError::eof("empty fault expression"));
    }
    let mut p = Parser { tokens, pos: 0 };
    let expr = p.expr()?;
    if p.pos != p.tokens.len() {
        return Err(ParseError::at(
            1,
            format!(
                "trailing tokens after fault expression: {:?}",
                &p.tokens[p.pos..]
            ),
        ));
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms() {
        assert_eq!(
            parse_expr("(black:LEAD)").unwrap(),
            FaultExpr::atom("black", "LEAD")
        );
        assert_eq!(
            parse_expr("( SM1 : ELECT )").unwrap(),
            FaultExpr::atom("SM1", "ELECT")
        );
    }

    #[test]
    fn thesis_examples() {
        let e = parse_expr("((SM1:ELECT) & (SM2:FOLLOW))").unwrap();
        assert_eq!(
            e,
            FaultExpr::atom("SM1", "ELECT").and(FaultExpr::atom("SM2", "FOLLOW"))
        );
        let e = parse_expr("((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))").unwrap();
        assert_eq!(
            e,
            FaultExpr::atom("black", "CRASH")
                .and(FaultExpr::atom("green", "FOLLOW").or(FaultExpr::atom("green", "ELECT")))
        );
        let e = parse_expr("((green:FOLLOW) | (green:ELECT))").unwrap();
        assert_eq!(
            e,
            FaultExpr::atom("green", "FOLLOW").or(FaultExpr::atom("green", "ELECT"))
        );
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let e = parse_expr("(a:X) | (b:Y) & (c:Z)").unwrap();
        assert_eq!(
            e,
            FaultExpr::atom("a", "X").or(FaultExpr::atom("b", "Y").and(FaultExpr::atom("c", "Z")))
        );
    }

    #[test]
    fn negation() {
        let e = parse_expr("~(a:X)").unwrap();
        assert_eq!(e, FaultExpr::atom("a", "X").not());
        let e = parse_expr("~~(a:X)").unwrap();
        assert_eq!(e, FaultExpr::atom("a", "X").not().not());
        let e = parse_expr("~((a:X) & (b:Y))").unwrap();
        assert_eq!(
            e,
            FaultExpr::atom("a", "X")
                .and(FaultExpr::atom("b", "Y"))
                .not()
        );
    }

    #[test]
    fn display_roundtrip() {
        for src in [
            "(black:LEAD)",
            "((SM1:ELECT) & (SM2:FOLLOW))",
            "((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))",
            "~((a:X) | ~(b:Y))",
        ] {
            let e = parse_expr(src).unwrap();
            let printed = e.to_string();
            let reparsed = parse_expr(&printed).unwrap();
            assert_eq!(e, reparsed, "roundtrip failed for {src}");
        }
    }

    #[test]
    fn errors() {
        assert!(parse_expr("").is_err());
        assert!(parse_expr("(a:)").is_err());
        assert!(parse_expr("(a:X").is_err());
        assert!(parse_expr("(a:X) &").is_err());
        assert!(parse_expr("(a:X) (b:Y)").is_err());
        assert!(parse_expr("(a:X) @ (b:Y)").is_err());
    }

    #[test]
    fn names_with_punctuation() {
        let e = parse_expr("(node-1:STATE_2)").unwrap();
        assert_eq!(e, FaultExpr::atom("node-1", "STATE_2"));
    }
}
