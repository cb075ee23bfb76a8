//! SEEDED VIOLATION (query-hygiene): `format!` output flows into
//! structure-consuming sinks, directly and through a `let` binding —
//! the SQLi shape the typed query surfaces exist to forbid.

/// Direct: `format!` inside the sink's argument list.
pub fn find_direct(db: &Db, user: &str) -> Vec<Record> {
    db.select_spec(&format!("name = '{user}'"))
}

/// Indirect: the taint flows through a local binding into the
/// untrusted-text parser and into a view name.
pub fn find_indirect(ctx: &Ctx<'_>, user: &str) -> Vec<Record> {
    let source = format!("mdt = '{user}'");
    let sel = Selector::parse(&source);
    let view = "by_".to_string() + user + "'";
    ctx.records_by(&view, sel)
}
