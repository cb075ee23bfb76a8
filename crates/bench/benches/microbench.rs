//! Ablation microbenchmarks: the cost of each SafeWeb mechanism in
//! isolation. These back the design choices DESIGN.md calls out (label
//! sets as ordered sets of URIs, selector evaluation per delivery, STOMP
//! header escaping, taint-propagating string ops, template rendering,
//! deliberately slow password hashing).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use safeweb_broker::wire::{event_to_frame, frame_to_event};
use safeweb_docstore::DocStore;
use safeweb_events::Event;
use safeweb_json::jobject;
use safeweb_labels::{Label, LabelSet, Privilege, PrivilegeSet};
use safeweb_regex::Regex;
use safeweb_selector::Selector;
use safeweb_stomp::codec::{encode, Decoder};
use safeweb_stomp::Command;
use safeweb_taint::{SStr, SValue};
use safeweb_web::{hash_password, SDoc, TContext, TValue, Template};

fn labels_of(n: usize) -> LabelSet {
    (0..n)
        .map(|i| Label::conf("ecric.org.uk", &format!("patient/{i}")))
        .collect()
}

fn bench_labels(c: &mut Criterion) {
    let mut group = c.benchmark_group("labels");
    let a = labels_of(4);
    let b = labels_of(8);
    let privs: PrivilegeSet = a.iter().cloned().map(Privilege::clearance).collect();
    let wire = b.to_wire();

    group.bench_function("combine_4x8", |bench| {
        bench.iter(|| a.combine(&b));
    });
    group.bench_function("flows_to_4_labels", |bench| {
        bench.iter(|| a.flows_to(&privs));
    });
    group.bench_function("wire_roundtrip_8_labels", |bench| {
        bench.iter(|| LabelSet::from_wire(&wire).unwrap());
    });
    group.bench_function("wildcard_privilege_check", |bench| {
        let mut wild = PrivilegeSet::new();
        wild.grant(Privilege::new(
            safeweb_labels::PrivilegeKind::Clearance,
            "label:conf:ecric.org.uk/patient/*".parse().unwrap(),
        ));
        let l = Label::conf("ecric.org.uk", "patient/12345");
        bench.iter(|| wild.has_clearance(&l));
    });
    group.finish();
}

fn bench_selector(c: &mut Criterion) {
    let mut group = c.benchmark_group("selector");
    let sel = Selector::parse(
        "type = 'cancer' AND age BETWEEN 40 AND 75 AND site IN ('breast','lung') AND name LIKE 'p%'",
    )
    .unwrap();
    let event = Event::new("/t")
        .unwrap()
        .with_attr("type", "cancer")
        .with_attr("age", "61")
        .with_attr("site", "breast")
        .with_attr("name", "patient-1");
    group.bench_function("parse", |b| {
        b.iter(|| {
            Selector::parse("type = 'cancer' AND age > 50 AND site IN ('breast','lung')").unwrap()
        });
    });
    group.bench_function("evaluate_4_clauses", |b| {
        b.iter(|| sel.matches(&event));
    });
    group.finish();
}

fn bench_stomp(c: &mut Criterion) {
    let mut group = c.benchmark_group("stomp");
    let event = Event::new("/patient_report")
        .unwrap()
        .with_attr("type", "cancer")
        .with_attr("case_id", "33812769")
        .with_payload("z".repeat(1024))
        .with_labels(labels_of(4));
    let frame = event_to_frame(&event, Command::Send);
    let bytes = encode(&frame);

    group.bench_function("encode_1kb_event", |b| {
        b.iter(|| encode(&frame));
    });
    group.bench_function("decode_1kb_event", |b| {
        b.iter_batched(
            Decoder::new,
            |mut d| {
                d.feed(&bytes);
                d.next_frame().unwrap().unwrap()
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("frame_to_event", |b| {
        b.iter(|| frame_to_event(&frame).unwrap());
    });
    group.finish();
}

fn bench_taint(c: &mut Criterion) {
    let mut group = c.benchmark_group("taint");
    let labelled = SStr::labelled("patient record body ", [Label::conf("e", "p/1")]);
    let other = SStr::labelled("appendix", [Label::conf("e", "p/2")]);

    group.bench_function("concat_labelled", |b| {
        b.iter(|| labelled.clone() + &other);
    });
    group.bench_function("concat_plain_string_baseline", |b| {
        let x = "patient record body ".to_string();
        let y = "appendix";
        b.iter(|| {
            let mut s = x.clone();
            s.push_str(y);
            s
        });
    });
    let re = Regex::new(r"(\w+)-(\d+)").unwrap();
    let subject = SStr::labelled("case patient-33812769 review", [Label::conf("e", "p/1")]);
    group.bench_function("regex_captures_labelled", |b| {
        b.iter(|| subject.regex_captures(&re));
    });
    group.bench_function("check_release_4_labels", |b| {
        let body = SStr::with_label_set("page".to_string(), labels_of(4));
        let privs: PrivilegeSet = labels_of(4)
            .iter()
            .cloned()
            .map(Privilege::clearance)
            .collect();
        b.iter(|| body.check_release(&privs).is_ok());
    });
    group.finish();
}

fn bench_template(c: &mut Criterion) {
    let mut group = c.benchmark_group("template");
    let template = Template::parse(
        "<table><% for r in rows %><tr><td><%= r.name %></td><td><%= r.value %></td></tr><% end %></table>",
    )
    .unwrap();
    // Rows the way a handler gets them: documents shared with a store.
    let store = DocStore::new("bench");
    store.create_view("by_kind", "kind");
    let labels = LabelSet::singleton(Label::conf("e", "p/1"));
    for i in 0..100 {
        let body = jobject! {"kind" => "row", "name" => format!("row-{i}"), "value" => i};
        store
            .put(&format!("row-{i:03}"), body, labels, None)
            .unwrap();
    }
    let rows: Vec<SDoc> = store
        .query_view("by_kind", &"row".into())
        .unwrap()
        .into_iter()
        .map(|doc| SValue::with_label_set(doc, labels))
        .collect();
    let ctx = TContext::new().bind("rows", TValue::Docs(rows));
    group.bench_function("render_100_labelled_rows", |b| {
        b.iter(|| template.render(&ctx).unwrap());
    });
    group.finish();
}

fn bench_auth(c: &mut Criterion) {
    let mut group = c.benchmark_group("auth");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("password_hash_default_cost", |b| {
        b.iter(|| hash_password("mdt-0-0-0", "pw-mdt-0-0-0", 2_000_000));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_labels,
    bench_selector,
    bench_stomp,
    bench_taint,
    bench_template,
    bench_auth
);
criterion_main!(benches);
