//! An ERB-like template engine with taint propagation.
//!
//! The paper's frontend renders pages with ERB; label propagation through
//! template rendering is part of the measured overhead (Figure 5's
//! "template rendering 63 ms + label propagation 17 ms"). This engine
//! supports the subset the MDT portal needs:
//!
//! ```text
//! <h1>MDT <%= mdt_name %></h1>
//! <% for p in patients %>
//!   <tr><td><%= p.name %></td><td><%= p.age %></td></tr>
//! <% end %>
//! <% if is_admin %> <a href="/admin">admin</a> <% end %>
//! ```
//!
//! Interpolated values are labelled strings or fields of labelled
//! documents; the rendered page carries the union of all interpolated
//! labels. Everything is written straight into the one output buffer —
//! a document field is borrowed from the store's own allocation, escaped
//! in place and never becomes a value of its own. Values still marked
//! user-tainted are HTML-escaped automatically on interpolation
//! (SafeWeb's XSS safety net).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use safeweb_docstore::Document;
use safeweb_json::Value;
use safeweb_labels::LabelSet;
use safeweb_taint::{SStr, SValue};

/// A labelled document sharing the store's allocation: what
/// [`crate::Ctx::records_by`] returns and a template iterates.
pub type SDoc = SValue<Document>;

/// A value bindable in a template context.
#[derive(Debug, Clone)]
pub enum TValue {
    /// A labelled string, rendered by `<%= name %>`.
    Str(SStr),
    /// A boolean, tested by `<% if name %>`.
    Bool(bool),
    /// One labelled document, or its absence: `<%= name.field %>`.
    Doc(Option<SDoc>),
    /// Labelled documents, iterated by `<% for x in name %>`.
    Docs(Vec<SDoc>),
}

impl From<SStr> for TValue {
    fn from(s: SStr) -> TValue {
        TValue::Str(s)
    }
}

impl From<&str> for TValue {
    fn from(s: &str) -> TValue {
        TValue::Str(SStr::public(s))
    }
}

impl From<bool> for TValue {
    fn from(b: bool) -> TValue {
        TValue::Bool(b)
    }
}

/// A template rendering context: named bindings.
#[derive(Debug, Clone, Default)]
pub struct TContext {
    vars: BTreeMap<String, TValue>,
}

impl TContext {
    /// An empty context.
    pub fn new() -> TContext {
        TContext::default()
    }

    /// Binds a value (builder style).
    pub fn bind(mut self, name: &str, value: impl Into<TValue>) -> TContext {
        self.vars.insert(name.to_string(), value.into());
        self
    }
}

/// Error raised when a template fails to parse or render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateError {
    message: String,
}

impl TemplateError {
    fn new(message: impl Into<String>) -> TemplateError {
        TemplateError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "template error: {}", self.message)
    }
}

impl std::error::Error for TemplateError {}

/// A parsed template.
#[derive(Debug, Clone)]
pub struct Template {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone)]
enum Node {
    Literal(String),
    /// `<%= path %>` — interpolate, escaping HTML; `<%= raw path %>` —
    /// interpolate trusted HTML as is (user-tainted values still escaped).
    Interp {
        path: String,
        raw: bool,
    },
    /// `<% for var in list %> body <% end %>`
    For {
        var: String,
        list: String,
        body: Vec<Node>,
    },
    /// `<% if cond %> body <% end %>`
    If {
        cond: String,
        body: Vec<Node>,
    },
}

impl Template {
    /// Parses template source.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError`] for unterminated tags, unknown directives
    /// or unbalanced `for`/`if`/`end`.
    pub fn parse(source: &str) -> Result<Template, TemplateError> {
        let tokens = lex(source)?;
        let mut pos = 0;
        let nodes = parse_nodes(&tokens, &mut pos, false)?;
        if pos != tokens.len() {
            return Err(TemplateError::new("unexpected <% end %>"));
        }
        Ok(Template { nodes })
    }

    /// Renders with the given context, producing a labelled string that
    /// carries the union of every interpolated value's labels.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError`] for unbound variables or type mismatches
    /// (e.g. `for` over a non-list).
    pub fn render(&self, ctx: &TContext) -> Result<SStr, TemplateError> {
        let mut out = SStr::public("");
        let mut scope = Vec::new();
        render_nodes(&self.nodes, ctx, &mut scope, &mut out)?;
        Ok(out)
    }
}

/// Loop-variable bindings, innermost last: the variable's name, the JSON
/// node it stands for and the labels of the document that node belongs to
/// — all borrowed, so iterating a 1000-row list allocates nothing per row.
type Scope<'a> = Vec<(&'a str, &'a Value, LabelSet)>;

/// What a path resolves to.
enum Resolved<'a> {
    Str(&'a SStr),
    Bool(bool),
    Docs(&'a [SDoc]),
    /// A node of a labelled document; `None` where the document or the
    /// field is absent.
    Json(Option<&'a Value>, LabelSet),
}

/// Resolves a dotted path: `p.name` is field `name` of the document (or
/// document node) `p`, where `p` is a loop variable — innermost first,
/// shadowing the root context — or a [`TValue::Doc`] binding.
fn resolve<'a>(ctx: &'a TContext, scope: &Scope<'a>, path: &str) -> Option<Resolved<'a>> {
    let mut parts = path.split('.');
    let first = parts.next()?;
    let (mut node, labels) = match scope.iter().rev().find(|(name, ..)| *name == first) {
        Some((_, node, labels)) => (Some(*node), *labels),
        None => match ctx.vars.get(first)? {
            TValue::Doc(Some(doc)) => (Some(doc.value()), *doc.labels()),
            TValue::Doc(None) => (None, LabelSet::new()),
            // Strings, booleans and lists have no fields.
            _ if parts.next().is_some() => return None,
            TValue::Str(s) => return Some(Resolved::Str(s)),
            TValue::Bool(b) => return Some(Resolved::Bool(*b)),
            TValue::Docs(docs) => return Some(Resolved::Docs(docs)),
        },
    };
    for part in parts {
        node = node.and_then(|n| n.get(part));
    }
    Some(Resolved::Json(node, labels))
}

/// The one rule for showing a document field: a string is escaped (kept
/// verbatim under `raw` — stored text is not user-tainted), an integer is
/// printed in decimal, any other number as `{f}`; what is missing or not
/// a scalar shows as a public "—".
fn push_field(out: &mut SStr, node: Option<&Value>, labels: &LabelSet, raw: bool) {
    match node {
        Some(Value::Str(s)) if raw => out.append_labelled(labels).push_str(s),
        Some(Value::Str(s)) => out.push_html_escaped(s, labels),
        // Writing to a `String` cannot fail.
        Some(v) => match (v.as_i64(), v.as_f64()) {
            (Some(n), _) => write!(out.append_labelled(labels), "{n}").expect("infallible"),
            (None, Some(f)) => write!(out.append_labelled(labels), "{f}").expect("infallible"),
            (None, None) => out.push_str("—"),
        },
        None => out.push_str("—"),
    }
}

enum Token {
    Literal(String),
    Tag(String), // the inside of <% ... %> (with = prefix retained)
}

fn lex(source: &str) -> Result<Vec<Token>, TemplateError> {
    let mut tokens = Vec::new();
    let mut rest = source;
    while let Some(start) = rest.find("<%") {
        if start > 0 {
            tokens.push(Token::Literal(rest[..start].to_string()));
        }
        let after = &rest[start + 2..];
        let end = after
            .find("%>")
            .ok_or_else(|| TemplateError::new("unterminated <% tag"))?;
        tokens.push(Token::Tag(after[..end].trim().to_string()));
        rest = &after[end + 2..];
    }
    if !rest.is_empty() {
        tokens.push(Token::Literal(rest.to_string()));
    }
    Ok(tokens)
}

fn parse_nodes(
    tokens: &[Token],
    pos: &mut usize,
    in_block: bool,
) -> Result<Vec<Node>, TemplateError> {
    let mut nodes = Vec::new();
    while *pos < tokens.len() {
        match &tokens[*pos] {
            Token::Literal(s) => {
                nodes.push(Node::Literal(s.clone()));
                *pos += 1;
            }
            Token::Tag(tag) => {
                if tag == "end" {
                    if in_block {
                        return Ok(nodes); // caller consumes the `end`
                    }
                    return Err(TemplateError::new("<% end %> without open block"));
                } else if let Some(expr) = tag.strip_prefix('=') {
                    let expr = expr.trim();
                    *pos += 1;
                    let raw = expr.strip_prefix("raw ");
                    nodes.push(Node::Interp {
                        path: raw.unwrap_or(expr).trim().to_string(),
                        raw: raw.is_some(),
                    });
                } else if let Some(rest) = tag.strip_prefix("for ") {
                    let (var, list) = rest
                        .split_once(" in ")
                        .ok_or_else(|| TemplateError::new("for requires `for x in list`"))?;
                    *pos += 1;
                    let body = parse_nodes(tokens, pos, true)?;
                    expect_end(tokens, pos)?;
                    nodes.push(Node::For {
                        var: var.trim().to_string(),
                        list: list.trim().to_string(),
                        body,
                    });
                } else if let Some(cond) = tag.strip_prefix("if ") {
                    *pos += 1;
                    let body = parse_nodes(tokens, pos, true)?;
                    expect_end(tokens, pos)?;
                    nodes.push(Node::If {
                        cond: cond.trim().to_string(),
                        body,
                    });
                } else {
                    return Err(TemplateError::new(format!("unknown directive {tag:?}")));
                }
            }
        }
    }
    if in_block {
        return Err(TemplateError::new("missing <% end %>"));
    }
    Ok(nodes)
}

fn expect_end(tokens: &[Token], pos: &mut usize) -> Result<(), TemplateError> {
    match tokens.get(*pos) {
        Some(Token::Tag(t)) if t == "end" => {
            *pos += 1;
            Ok(())
        }
        _ => Err(TemplateError::new("missing <% end %>")),
    }
}

fn render_nodes<'a>(
    nodes: &'a [Node],
    ctx: &'a TContext,
    scope: &mut Scope<'a>,
    out: &mut SStr,
) -> Result<(), TemplateError> {
    for node in nodes {
        match node {
            Node::Literal(s) => out.push_str(s),
            Node::Interp { path, raw } => {
                let raw = *raw;
                match resolve(ctx, scope, path)
                    .ok_or_else(|| TemplateError::new(format!("unbound variable {path:?}")))?
                {
                    // SafeWeb's XSS safety net: user-tainted data is
                    // escaped on interpolation even in `raw` mode.
                    Resolved::Str(s) if s.is_user_tainted() || !raw => {
                        out.push_html_escaped(s.as_str(), s.labels())
                    }
                    Resolved::Str(s) => out.push_sstr(s),
                    Resolved::Bool(b) => out.push_str(if b { "true" } else { "false" }),
                    Resolved::Json(node, labels) => push_field(out, node, &labels, raw),
                    Resolved::Docs(_) => {
                        return Err(TemplateError::new(format!(
                            "cannot interpolate list {path:?}"
                        )))
                    }
                }
            }
            Node::For { var, list, body } => {
                let mut row = |scope: &mut Scope<'a>, item: &'a Value, labels: LabelSet| {
                    scope.push((var, item, labels));
                    let result = render_nodes(body, ctx, scope, out);
                    scope.pop();
                    result
                };
                match resolve(ctx, scope, list)
                    .ok_or_else(|| TemplateError::new(format!("unbound list {list:?}")))?
                {
                    Resolved::Docs(docs) => {
                        for doc in docs {
                            row(scope, doc.value(), *doc.labels())?;
                        }
                    }
                    // An array inside a document: its elements carry the
                    // document's labels.
                    Resolved::Json(Some(Value::Array(items)), labels) => {
                        for item in items.iter() {
                            row(scope, item, labels)?;
                        }
                    }
                    _ => return Err(TemplateError::new(format!("{list:?} is not a list"))),
                }
            }
            Node::If { cond, body } => {
                let truthy = match resolve(ctx, scope, cond)
                    .ok_or_else(|| TemplateError::new(format!("unbound condition {cond:?}")))?
                {
                    Resolved::Bool(b) => b,
                    Resolved::Str(s) => !s.is_empty(),
                    Resolved::Docs(docs) => !docs.is_empty(),
                    Resolved::Json(node, _) => {
                        !matches!(node, None | Some(Value::Null | Value::Bool(false)))
                    }
                };
                if truthy {
                    render_nodes(body, ctx, scope, out)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeweb_labels::Label;

    fn patient_label() -> Label {
        Label::conf("e", "patient/1")
    }

    #[test]
    fn interpolation_carries_labels() {
        let t = Template::parse("<h1><%= name %></h1>").unwrap();
        let ctx = TContext::new().bind("name", SStr::labelled("Ann", [patient_label()]));
        let out = t.render(&ctx).unwrap();
        assert_eq!(out.as_str(), "<h1>Ann</h1>");
        assert!(out.labels().contains(&patient_label()));
    }

    #[test]
    fn if_blocks() {
        let t = Template::parse("<% if admin %>secret<% end %>ok").unwrap();
        let shown = t.render(&TContext::new().bind("admin", true)).unwrap();
        assert_eq!(shown.as_str(), "secretok");
        let hidden = t.render(&TContext::new().bind("admin", false)).unwrap();
        assert_eq!(hidden.as_str(), "ok");
    }

    #[test]
    fn interp_escapes_html() {
        let t = Template::parse("<%= v %>").unwrap();
        let out = t
            .render(&TContext::new().bind("v", SStr::public("<b>&")))
            .unwrap();
        assert_eq!(out.as_str(), "&lt;b&gt;&amp;");
        // raw mode keeps trusted HTML.
        let t = Template::parse("<%= raw v %>").unwrap();
        let out = t
            .render(&TContext::new().bind("v", SStr::public("<b>&")))
            .unwrap();
        assert_eq!(out.as_str(), "<b>&");
    }

    #[test]
    fn user_taint_is_escaped_even_in_raw_mode() {
        let t = Template::parse("<%= raw v %>").unwrap();
        let out = t
            .render(&TContext::new().bind("v", SStr::from_user("<script>x</script>")))
            .unwrap();
        assert!(out.as_str().contains("&lt;script&gt;"));
        assert!(!out.is_user_tainted());
    }

    #[test]
    fn errors_on_unbound_and_malformed() {
        assert!(Template::parse("<% bogus %>").is_err());
        assert!(Template::parse("<% for x %>").is_err());
        assert!(Template::parse("<% if x %>no end").is_err());
        assert!(Template::parse("<% end %>").is_err());
        assert!(Template::parse("<%= x").is_err());

        let t = Template::parse("<%= missing %>").unwrap();
        assert!(t.render(&TContext::new()).is_err());
        let t = Template::parse("<% for x in notlist %><% end %>").unwrap();
        assert!(t
            .render(&TContext::new().bind("notlist", SStr::public("s")))
            .is_err());
    }
}
