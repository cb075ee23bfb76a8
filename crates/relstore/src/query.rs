//! Typed, parameter-bound query specs: the secure-by-construction query
//! surface of the relational store.
//!
//! [`QuerySpec`] separates query *structure* (table and column names —
//! [`safeweb_safeq::TrustedLiteral`], obtainable only from compile-time
//! literals, taint-checked strings or an audited declassify) from query
//! *values* ([`safeweb_safeq::Param`], which any string may become: bound
//! values are compared as data, so quoting metacharacters cannot change
//! what the query means). The classic injection is structurally
//! impossible:
//!
//! ```
//! use safeweb_relstore::{CellValue, ColumnDef, ColumnType, Database, Filter, QuerySpec, Schema};
//!
//! let db = Database::new("web");
//! db.create_table("accounts", Schema::new(vec![
//!     ColumnDef::new("name", ColumnType::Text),
//!     ColumnDef::new("secret", ColumnType::Text),
//! ], "name"))?;
//! db.insert("accounts", vec!["alice".into(), "s3cret".into()])?;
//!
//! // The attacker's payload is bound as a value — it matches nothing.
//! let payload = "alice' OR '1'='1";
//! let rows = db.select_spec(
//!     &QuerySpec::table("accounts").filter(Filter::eq("name", payload)),
//! )?;
//! assert!(rows.is_empty());
//! # Ok::<(), safeweb_relstore::RelError>(())
//! ```
//!
//! Evaluation is two-valued: a comparison against SQL `NULL` is simply
//! `false` (and `Filter::not` of it `true`) rather than SQL's
//! three-valued `UNKNOWN` — the store's predicates are Rust closures
//! elsewhere, so boolean semantics keep the two surfaces consistent.
//! Numeric comparisons coerce `Int`/`Real` like the primary-key order
//! does.

use safeweb_safeq::{Param, TrustedLiteral};

use crate::db::{Database, RelError, Row};
use crate::types::{CellValue, Schema};

/// Comparison operators available to [`Filter::cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A typed filter tree over one table's columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches every row.
    All,
    /// Compares one column against a bound parameter.
    Cmp {
        /// The column name (trusted structure).
        column: TrustedLiteral,
        /// The comparison operator.
        op: SpecOp,
        /// The bound value (untrusted data is fine here).
        value: Param,
    },
    /// Both sub-filters match.
    And(Box<Filter>, Box<Filter>),
    /// Either sub-filter matches.
    Or(Box<Filter>, Box<Filter>),
    /// The sub-filter does not match.
    Not(Box<Filter>),
}

impl Filter {
    /// A comparison filter.
    pub fn cmp(column: impl Into<TrustedLiteral>, op: SpecOp, value: impl Into<Param>) -> Filter {
        Filter::Cmp {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    /// `column = value`.
    pub fn eq(column: impl Into<TrustedLiteral>, value: impl Into<Param>) -> Filter {
        Filter::cmp(column, SpecOp::Eq, value)
    }

    /// `column < value`.
    pub fn lt(column: impl Into<TrustedLiteral>, value: impl Into<Param>) -> Filter {
        Filter::cmp(column, SpecOp::Lt, value)
    }

    /// `column > value`.
    pub fn gt(column: impl Into<TrustedLiteral>, value: impl Into<Param>) -> Filter {
        Filter::cmp(column, SpecOp::Gt, value)
    }

    /// Conjunction (builder style).
    pub fn and(self, other: Filter) -> Filter {
        Filter::And(Box::new(self), Box::new(other))
    }

    /// Disjunction (builder style).
    pub fn or(self, other: Filter) -> Filter {
        Filter::Or(Box::new(self), Box::new(other))
    }

    /// Negation (builder style; also available as the `!` operator).
    pub fn negate(self) -> Filter {
        Filter::Not(Box::new(self))
    }
}

impl std::ops::Not for Filter {
    type Output = Filter;

    fn not(self) -> Filter {
        self.negate()
    }
}

/// A complete query: a trusted table name plus a [`Filter`].
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    table: TrustedLiteral,
    filter: Filter,
}

impl QuerySpec {
    /// A spec selecting every row of `table`.
    pub fn table(table: impl Into<TrustedLiteral>) -> QuerySpec {
        QuerySpec {
            table: table.into(),
            filter: Filter::All,
        }
    }

    /// Sets the filter (builder style).
    pub fn filter(mut self, filter: Filter) -> QuerySpec {
        self.filter = filter;
        self
    }

    /// The target table name.
    pub fn table_name(&self) -> &str {
        self.table.as_str()
    }
}

/// The filter with every column resolved to its cell index, so per-row
/// evaluation is index arithmetic with no name lookups.
enum Compiled {
    All,
    Cmp {
        idx: usize,
        op: SpecOp,
        value: CellValue,
    },
    And(Box<Compiled>, Box<Compiled>),
    Or(Box<Compiled>, Box<Compiled>),
    Not(Box<Compiled>),
}

fn param_to_cell(p: &Param) -> CellValue {
    match p {
        Param::Null => CellValue::Null,
        Param::Bool(b) => CellValue::Bool(*b),
        Param::Int(n) => CellValue::Int(*n),
        Param::Real(n) => CellValue::Real(*n),
        Param::Text(s) => CellValue::Text(s.clone()),
    }
}

fn compile(filter: &Filter, schema: &Schema) -> Result<Compiled, RelError> {
    match filter {
        Filter::All => Ok(Compiled::All),
        Filter::Cmp { column, op, value } => {
            let idx = schema
                .column_index(column.as_str())
                .ok_or_else(|| RelError::UnknownColumn(column.as_str().to_string()))?;
            Ok(Compiled::Cmp {
                idx,
                op: *op,
                value: param_to_cell(value),
            })
        }
        Filter::And(a, b) => Ok(Compiled::And(
            Box::new(compile(a, schema)?),
            Box::new(compile(b, schema)?),
        )),
        Filter::Or(a, b) => Ok(Compiled::Or(
            Box::new(compile(a, schema)?),
            Box::new(compile(b, schema)?),
        )),
        Filter::Not(inner) => Ok(Compiled::Not(Box::new(compile(inner, schema)?))),
    }
}

fn eval(c: &Compiled, cells: &[CellValue]) -> bool {
    match c {
        Compiled::All => true,
        Compiled::Cmp { idx, op, value } => {
            let Some(cell) = cells.get(*idx) else {
                return false;
            };
            // NULL compares false under every operator (two-valued; see
            // module docs) unless both sides are NULL under Eq/Ne.
            if cell.is_null() || value.is_null() {
                return match op {
                    SpecOp::Eq => cell.is_null() && value.is_null(),
                    SpecOp::Ne => cell.is_null() != value.is_null(),
                    _ => false,
                };
            }
            let ord = cell.cmp(value);
            match op {
                SpecOp::Eq => ord.is_eq(),
                SpecOp::Ne => ord.is_ne(),
                SpecOp::Lt => ord.is_lt(),
                SpecOp::Le => ord.is_le(),
                SpecOp::Gt => ord.is_gt(),
                SpecOp::Ge => ord.is_ge(),
            }
        }
        Compiled::And(a, b) => eval(a, cells) && eval(b, cells),
        Compiled::Or(a, b) => eval(a, cells) || eval(b, cells),
        Compiled::Not(inner) => !eval(inner, cells),
    }
}

impl Database {
    /// Runs a typed, parameter-bound query: resolves the table and every
    /// filter column once under a single read lock, then scans rows
    /// comparing cells by index.
    ///
    /// # Errors
    ///
    /// [`RelError::UnknownTable`], [`RelError::UnknownColumn`].
    pub fn select_spec(&self, spec: &QuerySpec) -> Result<Vec<Row>, RelError> {
        self.with_table(spec.table_name(), |schema, rows| {
            let compiled = compile(&spec.filter, schema)?;
            Ok(rows
                .values()
                .filter(|row| eval(&compiled, row.cells()))
                .cloned()
                .collect())
        })?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ColumnDef, ColumnType};
    use safeweb_taint::SStr;

    fn accounts_db() -> Database {
        let db = Database::new("t");
        db.create_table(
            "accounts",
            Schema::new(
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("name", ColumnType::Text),
                    ColumnDef::nullable("age", ColumnType::Int),
                    ColumnDef::new("admin", ColumnType::Bool),
                ],
                "id",
            ),
        )
        .unwrap();
        for (id, name, age, admin) in [
            (1i64, "alice", Some(34i64), false),
            (2, "bob", Some(51), true),
            (3, "carol", None, false),
        ] {
            db.insert(
                "accounts",
                vec![
                    id.into(),
                    name.into(),
                    age.map(CellValue::Int).unwrap_or(CellValue::Null),
                    admin.into(),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn eq_filter_selects_by_index() {
        let db = accounts_db();
        let rows = db
            .select_spec(&QuerySpec::table("accounts").filter(Filter::eq("name", "bob")))
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].int("id"), Some(2));
    }

    #[test]
    fn injection_payload_is_inert_data() {
        let db = accounts_db();
        // In string-concatenated SQL this classic would match every row;
        // as a bound parameter it is just a name nobody has.
        for payload in [
            "alice' OR '1'='1",
            "alice'; DROP TABLE accounts; --",
            "' OR ''='",
            "alice\" OR \"1\"=\"1",
        ] {
            let rows = db
                .select_spec(&QuerySpec::table("accounts").filter(Filter::eq("name", payload)))
                .unwrap();
            assert!(rows.is_empty(), "payload {payload:?} matched rows");
        }
    }

    #[test]
    fn boolean_combinators() {
        let db = accounts_db();
        let grownups_not_admin = db
            .select_spec(
                &QuerySpec::table("accounts")
                    .filter(Filter::cmp("age", SpecOp::Ge, 30i64).and(!Filter::eq("admin", true))),
            )
            .unwrap();
        assert_eq!(grownups_not_admin.len(), 1);
        assert_eq!(grownups_not_admin[0].text("name"), Some("alice"));

        let either = db
            .select_spec(
                &QuerySpec::table("accounts")
                    .filter(Filter::eq("name", "alice").or(Filter::eq("name", "carol"))),
            )
            .unwrap();
        assert_eq!(either.len(), 2);
    }

    #[test]
    fn null_semantics_are_two_valued() {
        let db = accounts_db();
        // age NULL: every ordering comparison is false...
        let lt = db
            .select_spec(&QuerySpec::table("accounts").filter(Filter::lt("age", 100i64)))
            .unwrap();
        assert_eq!(lt.len(), 2, "NULL age must not satisfy age < 100");
        // ...equality against NULL matches only NULL...
        let nulls = db
            .select_spec(&QuerySpec::table("accounts").filter(Filter::eq("age", Param::Null)))
            .unwrap();
        assert_eq!(nulls.len(), 1);
        assert_eq!(nulls[0].text("name"), Some("carol"));
        // ...and NOT of a false comparison is true (boolean, not 3VL).
        let not_lt = db
            .select_spec(&QuerySpec::table("accounts").filter(!Filter::lt("age", 100i64)))
            .unwrap();
        assert_eq!(not_lt.len(), 1);
        assert_eq!(not_lt[0].text("name"), Some("carol"));
    }

    #[test]
    fn numeric_coercion_matches_pk_order() {
        let db = accounts_db();
        let rows = db
            .select_spec(&QuerySpec::table("accounts").filter(Filter::eq("age", 34.0f64)))
            .unwrap();
        assert_eq!(rows.len(), 1, "Real(34.0) must equal Int(34)");
    }

    #[test]
    fn unknown_table_and_column_are_typed_errors() {
        let db = accounts_db();
        assert_eq!(
            db.select_spec(&QuerySpec::table("nope")),
            Err(RelError::UnknownTable("nope".into()))
        );
        assert_eq!(
            db.select_spec(&QuerySpec::table("accounts").filter(Filter::eq("nope", 1i64))),
            Err(RelError::UnknownColumn("nope".into()))
        );
    }

    #[test]
    fn checked_literals_flow_through() {
        let db = accounts_db();
        let column = TrustedLiteral::checked(&SStr::public("name")).unwrap();
        let rows = db
            .select_spec(&QuerySpec::table("accounts").filter(Filter::eq(column, "alice")))
            .unwrap();
        assert_eq!(rows.len(), 1);

        // The tainted path cannot even build the filter.
        assert!(TrustedLiteral::checked(&SStr::from_user("name")).is_err());
    }
}
