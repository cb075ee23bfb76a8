//! XSS escape coverage for the template engine: every sink that renders
//! an [`SStr`] or a document field must HTML-escape `<`, `>`, `&`, `"`
//! and `'` whenever the value is user-tainted (and always in `<%= %>`
//! mode), across all template constructs — top-level interpolation, loop
//! bodies over documents, `if` bodies, dotted paths and `raw` mode.
//!
//! The suite is written as a mutation check: each test asserts the
//! *exact* escaped output (or the absence of raw metacharacters via the
//! [`assert_escaped`] oracle), so deleting the in-place escape in the
//! renderer — or weakening the taint condition around it — fails the
//! suite. A final negative control proves the oracle has teeth by showing
//! it fires on the one legitimately-unescaped path (`raw` + trusted).
//!
//! The second half holds the render path to its label semantics: the page
//! carries exactly the union of the labels of the documents shown, and the
//! one boundary check on that union decides the whole page.

use proptest::prelude::*;
use safeweb_docstore::DocStore;
use safeweb_http::{Method, Request};
use safeweb_json::{jobject, Value};
use safeweb_labels::{Label, LabelSet, Privilege, PrivilegeSet};
use safeweb_relstore::Database;
use safeweb_taint::{SStr, SValue};
use safeweb_web::{
    AuthConfig, Ctx, FrontendOptions, SDoc, SResponse, SafeWebApp, TContext, TValue, Template,
    UserStore,
};

/// Labelled documents the way a handler gets them: shared with a store.
fn docs(rows: Vec<(Value, LabelSet)>) -> Vec<SDoc> {
    let store = DocStore::new("t");
    rows.into_iter()
        .enumerate()
        .map(|(i, (body, labels))| {
            let id = format!("doc-{i:03}");
            store.put(&id, body, labels, None).unwrap();
            SValue::with_label_set(store.get(&id).unwrap(), labels)
        })
        .collect()
}

fn named(names: &[&str]) -> Vec<SDoc> {
    docs(
        names
            .iter()
            .map(|n| (jobject! {"name" => *n}, LabelSet::new()))
            .collect(),
    )
}

/// All five characters `sanitize_html` must neutralise, in one payload.
const METACHARS: &str = "<>&\"'";

/// The payload as it must appear after escaping.
const METACHARS_ESCAPED: &str = "&lt;&gt;&amp;&quot;&#39;";

/// Oracle: `rendered` contains no raw HTML metacharacter outside the five
/// known escape entities. Returns rather than panicking so the negative
/// control can observe a failure without aborting.
fn is_escaped(rendered: &str) -> bool {
    if rendered.contains(['<', '>', '"', '\'']) {
        return false;
    }
    // Every `&` must begin one of the entities the sanitiser emits.
    let bytes = rendered.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'&' {
            let rest = &rendered[i..];
            if !["&amp;", "&lt;", "&gt;", "&quot;", "&#39;"]
                .iter()
                .any(|e| rest.starts_with(e))
            {
                return false;
            }
        }
    }
    true
}

/// Panicking form of the oracle for positive tests.
fn assert_escaped(rendered: &SStr) {
    assert!(
        is_escaped(rendered.as_str()),
        "raw HTML metacharacter survived: {:?}",
        rendered.as_str()
    );
    assert!(
        !rendered.is_user_tainted(),
        "escaped output must shed the user-taint bit"
    );
}

#[test]
fn interp_escapes_every_metacharacter_exactly() {
    let t = Template::parse("<%= v %>").unwrap();
    // Public value: `<%= %>` escapes unconditionally.
    let out = t
        .render(&TContext::new().bind("v", SStr::public(METACHARS)))
        .unwrap();
    assert_eq!(out.as_str(), METACHARS_ESCAPED);
    // User-tainted value: same result, taint cleared.
    let out = t
        .render(&TContext::new().bind("v", SStr::from_user(METACHARS)))
        .unwrap();
    assert_eq!(out.as_str(), METACHARS_ESCAPED);
    assert!(!out.is_user_tainted());
}

#[test]
fn raw_mode_still_escapes_user_taint() {
    let t = Template::parse("<%= raw v %>").unwrap();
    let out = t
        .render(&TContext::new().bind("v", SStr::from_user(METACHARS)))
        .unwrap();
    assert_eq!(out.as_str(), METACHARS_ESCAPED);
    assert!(!out.is_user_tainted());
}

#[test]
fn loop_body_sink_escapes() {
    let t = Template::parse("<% for p in rows %><td><%= p.name %></td><% end %>").unwrap();
    let rows = named(&["<script>alert(1)</script>", "\"'&"]);
    let out = t
        .render(&TContext::new().bind("rows", TValue::Docs(rows)))
        .unwrap();
    assert_eq!(
        out.as_str(),
        "<td>&lt;script&gt;alert(1)&lt;/script&gt;</td><td>&quot;&#39;&amp;</td>"
    );
}

#[test]
fn loop_body_raw_sink_is_verbatim_only_for_stored_text() {
    // Stored text never carries the user-taint bit (that marks request
    // input), so `raw` shows it as written — and the same loop still
    // escapes a user-tainted string it interpolates beside it.
    let t = Template::parse("<% for p in rows %><%= raw p.name %><%= raw q %><% end %>").unwrap();
    let ctx = TContext::new()
        .bind("rows", TValue::Docs(named(&["<b>stored</b>"])))
        .bind("q", SStr::from_user("<img onerror=x>"));
    let out = t.render(&ctx).unwrap();
    assert_eq!(out.as_str(), "<b>stored</b>&lt;img onerror=x&gt;");
    assert!(!out.is_user_tainted());
}

#[test]
fn if_body_sink_escapes() {
    let t = Template::parse("<% if show %><%= v %><% end %>").unwrap();
    let ctx = TContext::new()
        .bind("show", true)
        .bind("v", SStr::from_user("';alert(String.fromCharCode(88))//"));
    let out = t.render(&ctx).unwrap();
    assert_escaped(&out);
    assert!(out.as_str().starts_with("&#39;;alert"));
}

#[test]
fn attribute_context_cannot_be_broken_out_of() {
    // Quote escaping is what keeps a payload inside an HTML attribute.
    let t = Template::parse("<a title=\"<%= v %>\">x</a>").unwrap();
    let ctx = TContext::new().bind("v", SStr::from_user("\" onmouseover=\"evil()"));
    let out = t.render(&ctx).unwrap();
    assert_eq!(
        out.as_str(),
        "<a title=\"&quot; onmouseover=&quot;evil()\">x</a>"
    );
}

#[test]
fn dotted_path_single_item_sink_escapes() {
    let t = Template::parse("<%= row.v %>").unwrap();
    let row = docs(vec![(jobject! {"v" => METACHARS}, LabelSet::new())]).pop();
    let out = t
        .render(&TContext::new().bind("row", TValue::Doc(row)))
        .unwrap();
    assert_eq!(out.as_str(), METACHARS_ESCAPED);
}

#[test]
fn oracle_has_teeth() {
    // Negative control for the mutation check: the one path that is
    // *supposed* to emit raw markup (`raw` + trusted server HTML) must
    // trip the oracle. If this stops failing the oracle, the oracle —
    // and therefore every assert_escaped above — has gone blind.
    let t = Template::parse("<%= raw v %>").unwrap();
    let out = t
        .render(&TContext::new().bind("v", SStr::public("<b>bold</b>")))
        .unwrap();
    assert!(
        !is_escaped(out.as_str()),
        "oracle failed to flag deliberately raw markup"
    );
}

proptest! {
    /// Any printable user payload, rendered through any escaping sink,
    /// leaves no raw metacharacter in the page.
    #[test]
    fn arbitrary_user_payloads_are_neutralised(payload in "\\PC{0,48}") {
        for template in ["<%= v %>", "<%= raw v %>", "<% if g %><%= v %><% end %>"] {
            let t = Template::parse(template).expect("static template parses");
            let ctx = TContext::new()
                .bind("g", true)
                .bind("v", SStr::from_user(payload.clone()));
            let out = t.render(&ctx).expect("render succeeds");
            prop_assert!(
                is_escaped(out.as_str()),
                "template {template:?} leaked metacharacters for {payload:?}: {:?}",
                out.as_str()
            );
            // The in-place escape writes what the by-value sanitiser
            // returns, `raw` or not, and the page comes out untainted.
            let sanitized = SStr::from_user(payload.clone()).sanitize_html();
            prop_assert_eq!(out.as_str(), sanitized.as_str());
            prop_assert!(!out.is_user_tainted());
        }
        // The same payload as stored text, through the document sinks.
        let stored = docs(vec![(jobject! {"v" => payload.as_str()}, LabelSet::new())]);
        let ctx = TContext::new().bind("d", TValue::Doc(stored.first().cloned())).bind("rows", TValue::Docs(stored));
        for template in ["<%= d.v %>", "<% for r in rows %><%= r.v %><% end %>"] {
            let out = Template::parse(template).expect("parses").render(&ctx).expect("renders");
            prop_assert!(is_escaped(out.as_str()), "{template:?} leaked {payload:?}");
        }
    }

    /// The page label is exactly the union of the labels of the documents
    /// shown — whatever the order and however often a label set repeats
    /// (the renderer joins a repeated set once).
    #[test]
    fn page_label_is_the_union_of_the_documents_shown(
        picks in proptest::collection::vec(proptest::collection::vec(0usize..5, 0..3), 1..24),
    ) {
        let label_sets: Vec<LabelSet> = picks
            .iter()
            .map(|p| p.iter().map(|i| Label::conf("e", &format!("mdt/{i}"))).collect())
            .collect();
        let rows = docs(label_sets.iter().map(|l| (jobject! {"v" => 1, "w" => "x"}, *l)).collect());
        let t = Template::parse("<% for r in rows %><%= r.v %><%= r.w %><%= r.gone %><% end %>")
            .expect("parses");
        let out = t.render(&TContext::new().bind("rows", TValue::Docs(rows))).expect("renders");
        let expected = label_sets.iter().fold(LabelSet::new(), |acc, l| acc.union(l));
        prop_assert_eq!(*out.labels(), expected);
        prop_assert_eq!(out.as_str(), "1x—".repeat(label_sets.len()));
    }
}

fn patient_label() -> Label {
    Label::conf("e", "patient/1")
}

#[test]
fn for_loop_renders_items_and_unions_labels() {
    let t = Template::parse("<% for p in patients %><td><%= p.name %></td><% end %>").unwrap();
    let patients = docs(vec![
        (
            jobject! {"name" => "Ann"},
            LabelSet::singleton(Label::conf("e", "p/1")),
        ),
        (
            jobject! {"name" => "Bob"},
            LabelSet::singleton(Label::conf("e", "p/2")),
        ),
    ]);
    let ctx = TContext::new().bind("patients", TValue::Docs(patients));
    let out = t.render(&ctx).unwrap();
    assert_eq!(out.as_str(), "<td>Ann</td><td>Bob</td>");
    assert!(out.labels().contains(&Label::conf("e", "p/1")));
    assert!(out.labels().contains(&Label::conf("e", "p/2")));
}

#[test]
fn document_fields_follow_one_formatting_rule() {
    let t = Template::parse(
        "<%= d.s %>|<%= raw d.s %>|<%= d.i %>|<%= d.whole %>|<%= d.f %>|<%= d.gone %>|<%= d.null %>|<%= d.obj.in %>|<%= none.x %>",
    )
    .unwrap();
    let doc = docs(vec![(
        jobject! {
            "s" => "<b>&'\"", "i" => 42, "whole" => 83.0, "f" => 87.5,
            "null" => Value::Null, "obj" => jobject! {"in" => "deep"},
        },
        LabelSet::singleton(patient_label()),
    )])
    .pop();
    let ctx = TContext::new()
        .bind("d", TValue::Doc(doc))
        .bind("none", TValue::Doc(None));
    let out = t.render(&ctx).unwrap();
    assert_eq!(
        out.as_str(),
        "&lt;b&gt;&amp;&#39;&quot;|<b>&'\"|42|83|87.5|—|—|deep|—"
    );
    assert_eq!(*out.labels(), LabelSet::singleton(patient_label()));
    assert!(!out.is_user_tainted());
    // A document none of whose shown fields exist adds no label.
    let out = Template::parse("<%= d.gone %>")
        .unwrap()
        .render(&ctx)
        .unwrap();
    assert!(out.labels().is_empty());
}

#[test]
fn nested_loops() {
    let t = Template::parse(
        "<% for m in mdts %>[<%= m.name %>:<% for p in m.patients %><%= p.id %>,<% end %>]<% end %>",
    )
    .unwrap();
    let ctx = TContext::new().bind(
        "mdts",
        TValue::Docs(docs(vec![(
            jobject! {
                "name" => "a",
                "patients" => Value::from(vec![jobject! {"id" => 1}, jobject! {"id" => 2}]),
            },
            LabelSet::singleton(patient_label()),
        )])),
    );
    let out = t.render(&ctx).unwrap();
    assert_eq!(out.as_str(), "[a:1,2,]");
    // Elements of an array inside a document carry its labels.
    assert!(out.labels().contains(&patient_label()));
}

/// A frontend over `rows` documents of MDT `a`, the `foreign`-th of which
/// (if any) belongs to MDT `b`; user `a` is cleared for MDT `a` only.
fn table_app(rows: usize, foreign: Option<usize>, options: FrontendOptions) -> SafeWebApp {
    let users = UserStore::new(
        Database::new("web"),
        AuthConfig {
            hash_iterations: 300,
        },
    );
    let mut privs = PrivilegeSet::new();
    privs.grant(Privilege::clearance(Label::conf("e", "mdt/a")));
    users.create_user("a", "pw", &privs, false).unwrap();
    let records = DocStore::new("app");
    records.create_view("by_kind", "kind");
    for i in 0..rows {
        let mdt = if foreign == Some(i) { "mdt/b" } else { "mdt/a" };
        records
            .put(
                &format!("row-{i:03}"),
                jobject! {"kind" => "row", "name" => format!("patient-{i}")},
                LabelSet::singleton(Label::conf("e", mdt)),
                None,
            )
            .unwrap();
    }
    let template = Template::parse(
        "<table><% for r in rows %><tr><td><%= r.name %></td></tr><% end %></table>",
    )
    .unwrap();
    let mut app = SafeWebApp::new(users, records).with_options(options);
    app.get("/table", move |ctx: &Ctx<'_>| {
        let tctx = TContext::new().bind("rows", TValue::Docs(ctx.records_by("by_kind", "row")));
        SResponse::html(template.render(&tctx).unwrap())
    });
    app
}

fn get_table(app: &SafeWebApp) -> (u16, String) {
    let resp = app.handle(&Request::new(Method::Get, "/table").with_basic_auth("a", "pw"));
    (resp.status(), resp.body_str().unwrap().to_string())
}

#[test]
fn one_foreign_row_among_a_hundred_denies_the_whole_page() {
    let (status, body) = get_table(&table_app(100, None, FrontendOptions::default()));
    assert_eq!(status, 200);
    assert_eq!(body.matches("<tr>").count(), 100);
    // Wherever the foreign row sits — first, amid a run of equal label
    // sets, last — the one check on the page's union refuses it all.
    for at in [0, 57, 99] {
        let app = table_app(100, Some(at), FrontendOptions::default());
        let (status, body) = get_table(&app);
        assert_eq!(status, 403, "foreign row at {at}");
        assert!(
            !body.contains("patient-"),
            "row bytes in the denial: {body}"
        );
        assert_eq!(app.stats().denied(), 1);
    }
}

#[test]
fn unchecked_baseline_serves_the_same_page_through_the_same_path() {
    let checked = get_table(&table_app(100, None, FrontendOptions::default()));
    let baseline = FrontendOptions {
        label_checking: false,
    };
    assert_eq!(get_table(&table_app(100, None, baseline.clone())), checked);
    // With checking off even the foreign row is served (measured
    // configuration only — §5.3's "without taint tracking").
    let (status, body) = get_table(&table_app(100, Some(57), baseline));
    assert_eq!(status, 200);
    assert_eq!(body.matches("<tr>").count(), 100);
}
