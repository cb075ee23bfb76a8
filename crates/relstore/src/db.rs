//! Tables and the database handle.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use safeweb_sync::RwLock;

use crate::types::{CellValue, Schema};

/// Errors from relational operations.
#[derive(Debug, Clone, PartialEq)]
pub enum RelError {
    /// No such table.
    UnknownTable(String),
    /// Table already exists.
    TableExists(String),
    /// No such column in the table's schema.
    UnknownColumn(String),
    /// A value does not fit its column type, or NULL in a non-nullable
    /// column.
    TypeMismatch {
        /// The offending column.
        column: String,
    },
    /// Insert with a primary key that already exists.
    DuplicateKey(CellValue),
    /// Row not found for the given key.
    NotFound(CellValue),
    /// Wrong number of values for the schema.
    ArityMismatch {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            RelError::TableExists(t) => write!(f, "table {t:?} already exists"),
            RelError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            RelError::TypeMismatch { column } => write!(f, "type mismatch in column {column:?}"),
            RelError::DuplicateKey(k) => write!(f, "duplicate primary key {k}"),
            RelError::NotFound(k) => write!(f, "no row with primary key {k}"),
            RelError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
        }
    }
}

impl std::error::Error for RelError {}

/// An immutable row with schema-aware access. A table stores its rows
/// in this form, so a read hands out the stored row itself: cloning a
/// `Row` bumps two reference counts and copies no cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    schema: Arc<Schema>,
    cells: Arc<[CellValue]>,
}

impl Row {
    /// Cell by column name.
    pub fn get(&self, column: &str) -> Option<&CellValue> {
        let idx = self.schema.column_index(column)?;
        self.cells.get(idx)
    }

    /// Integer cell by column name.
    pub fn int(&self, column: &str) -> Option<i64> {
        self.get(column)?.as_int()
    }

    /// Text cell by column name.
    pub fn text(&self, column: &str) -> Option<&str> {
        self.get(column)?.as_text()
    }

    /// Float cell by column name.
    pub fn real(&self, column: &str) -> Option<f64> {
        self.get(column)?.as_real()
    }

    /// Boolean cell by column name.
    pub fn bool(&self, column: &str) -> Option<bool> {
        self.get(column)?.as_bool()
    }

    /// All cells in schema order.
    pub fn cells(&self) -> &[CellValue] {
        &self.cells
    }

    /// The row's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
}

#[derive(Debug)]
struct Table {
    schema: Arc<Schema>,
    pk_index: usize,
    rows: BTreeMap<CellValue, Row>,
}

impl Table {
    fn validate(&self, values: &[CellValue]) -> Result<(), RelError> {
        if values.len() != self.schema.columns().len() {
            return Err(RelError::ArityMismatch {
                expected: self.schema.columns().len(),
                got: values.len(),
            });
        }
        for (col, val) in self.schema.columns().iter().zip(values) {
            if !val.fits(col.ty()) || (val.is_null() && !col.is_nullable()) {
                return Err(RelError::TypeMismatch {
                    column: col.name().to_string(),
                });
            }
        }
        Ok(())
    }

    fn row(&self, values: Vec<CellValue>) -> Row {
        Row {
            schema: Arc::clone(&self.schema),
            cells: values.into(),
        }
    }
}

/// An embedded relational database standing in for the main registry
/// database and the SQLite web database of the paper's deployment.
/// Cheap to clone; all clones share state.
///
/// ```
/// use safeweb_relstore::{CellValue, ColumnDef, ColumnType, Database, Schema};
///
/// let db = Database::new("registry");
/// db.create_table("patients", Schema::new(vec![
///     ColumnDef::new("id", ColumnType::Int),
///     ColumnDef::new("name", ColumnType::Text),
/// ], "id"))?;
/// db.insert("patients", vec![1i64.into(), "A. Patient".into()])?;
/// let row = db.get("patients", &CellValue::Int(1))?.expect("row");
/// assert_eq!(row.text("name"), Some("A. Patient"));
/// # Ok::<(), safeweb_relstore::RelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Database {
    name: String,
    tables: Arc<RwLock<BTreeMap<String, Table>>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new(name: &str) -> Database {
        Database {
            name: name.to_string(),
            tables: Arc::new(RwLock::new(BTreeMap::new())),
        }
    }

    /// The database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// [`RelError::TableExists`] if the name is taken.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<(), RelError> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(RelError::TableExists(name.to_string()));
        }
        let pk_index = schema
            .column_index(schema.primary_key())
            .expect("validated by Schema::new");
        tables.insert(
            name.to_string(),
            Table {
                schema: Arc::new(schema),
                pk_index,
                rows: BTreeMap::new(),
            },
        );
        Ok(())
    }

    /// Inserts a row (values in schema column order).
    ///
    /// # Errors
    ///
    /// Type/arity violations, duplicate primary keys, unknown table.
    pub fn insert(&self, table: &str, values: Vec<CellValue>) -> Result<(), RelError> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| RelError::UnknownTable(table.to_string()))?;
        t.validate(&values)?;
        let key = values[t.pk_index].clone();
        if t.rows.contains_key(&key) {
            return Err(RelError::DuplicateKey(key));
        }
        let row = t.row(values);
        t.rows.insert(key, row);
        Ok(())
    }

    /// Fetches a row by primary key.
    ///
    /// # Errors
    ///
    /// [`RelError::UnknownTable`].
    pub fn get(&self, table: &str, key: &CellValue) -> Result<Option<Row>, RelError> {
        let tables = self.tables.read();
        let t = tables
            .get(table)
            .ok_or_else(|| RelError::UnknownTable(table.to_string()))?;
        Ok(t.rows.get(key).cloned())
    }

    /// Replaces a row by primary key.
    ///
    /// # Errors
    ///
    /// [`RelError::NotFound`] if the key is absent, plus validation errors.
    pub fn update(&self, table: &str, values: Vec<CellValue>) -> Result<(), RelError> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| RelError::UnknownTable(table.to_string()))?;
        t.validate(&values)?;
        let key = values[t.pk_index].clone();
        if !t.rows.contains_key(&key) {
            return Err(RelError::NotFound(key));
        }
        let row = t.row(values);
        t.rows.insert(key, row);
        Ok(())
    }

    /// Deletes by primary key. Returns whether a row was removed.
    ///
    /// # Errors
    ///
    /// [`RelError::UnknownTable`].
    pub fn delete(&self, table: &str, key: &CellValue) -> Result<bool, RelError> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| RelError::UnknownTable(table.to_string()))?;
        Ok(t.rows.remove(key).is_some())
    }

    /// Selects rows matching a predicate, in primary-key order. The
    /// predicate sees each stored row by reference; only matching rows are
    /// handed out (as shared [`Row`]s, so the result is a snapshot that
    /// later writes do not change).
    ///
    /// # Errors
    ///
    /// [`RelError::UnknownTable`].
    pub fn select(
        &self,
        table: &str,
        mut predicate: impl FnMut(&Row) -> bool,
    ) -> Result<Vec<Row>, RelError> {
        let tables = self.tables.read();
        let t = tables
            .get(table)
            .ok_or_else(|| RelError::UnknownTable(table.to_string()))?;
        Ok(t.rows
            .values()
            .filter(|row| predicate(row))
            .cloned()
            .collect())
    }

    /// Runs `f` over one table's schema and row storage under a single
    /// read-lock acquisition — the shared fast path for index-resolved
    /// scans ([`Database::select_eq`], [`Database::select_spec`]).
    ///
    /// # Errors
    ///
    /// [`RelError::UnknownTable`].
    pub(crate) fn with_table<R>(
        &self,
        table: &str,
        f: impl FnOnce(&Schema, &BTreeMap<CellValue, Row>) -> R,
    ) -> Result<R, RelError> {
        let tables = self.tables.read();
        let t = tables
            .get(table)
            .ok_or_else(|| RelError::UnknownTable(table.to_string()))?;
        Ok(f(&t.schema, &t.rows))
    }

    /// Selects rows where `column == value`, in primary-key order: the
    /// column index is resolved once against the schema and every row
    /// compares by index, all under one table-map lock acquisition. There
    /// is no secondary index: this is a full scan of the table, `O(rows)`
    /// per call — join by reading each table once, not by calling this
    /// per outer row.
    ///
    /// # Errors
    ///
    /// [`RelError::UnknownTable`], [`RelError::UnknownColumn`].
    pub fn select_eq(
        &self,
        table: &str,
        column: &str,
        value: &CellValue,
    ) -> Result<Vec<Row>, RelError> {
        self.with_table(table, |schema, rows| {
            let idx = schema
                .column_index(column)
                .ok_or_else(|| RelError::UnknownColumn(column.to_string()))?;
            Ok(rows
                .values()
                .filter(|row| row.cells.get(idx) == Some(value))
                .cloned()
                .collect())
        })?
    }

    /// Row count of a table.
    ///
    /// # Errors
    ///
    /// [`RelError::UnknownTable`].
    pub fn count(&self, table: &str) -> Result<usize, RelError> {
        let tables = self.tables.read();
        let t = tables
            .get(table)
            .ok_or_else(|| RelError::UnknownTable(table.to_string()))?;
        Ok(t.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ColumnDef, ColumnType};

    fn patients_db() -> Database {
        let db = Database::new("t");
        db.create_table(
            "patients",
            Schema::new(
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("name", ColumnType::Text),
                    ColumnDef::nullable("age", ColumnType::Int),
                ],
                "id",
            ),
        )
        .unwrap();
        db
    }

    #[test]
    fn insert_get_update_delete() {
        let db = patients_db();
        db.insert("patients", vec![1i64.into(), "Ann".into(), 61i64.into()])
            .unwrap();
        let row = db.get("patients", &CellValue::Int(1)).unwrap().unwrap();
        assert_eq!(row.text("name"), Some("Ann"));
        assert_eq!(row.int("age"), Some(61));

        db.update(
            "patients",
            vec![1i64.into(), "Ann B".into(), CellValue::Null],
        )
        .unwrap();
        let row = db.get("patients", &CellValue::Int(1)).unwrap().unwrap();
        assert_eq!(row.text("name"), Some("Ann B"));
        assert!(row.get("age").unwrap().is_null());

        assert!(db.delete("patients", &CellValue::Int(1)).unwrap());
        assert!(!db.delete("patients", &CellValue::Int(1)).unwrap());
        assert!(db.get("patients", &CellValue::Int(1)).unwrap().is_none());
    }

    #[test]
    fn constraints_enforced() {
        let db = patients_db();
        db.insert("patients", vec![1i64.into(), "Ann".into(), CellValue::Null])
            .unwrap();
        // Duplicate key.
        assert!(matches!(
            db.insert("patients", vec![1i64.into(), "Bob".into(), CellValue::Null]),
            Err(RelError::DuplicateKey(_))
        ));
        // Type mismatch.
        assert!(matches!(
            db.insert("patients", vec![2i64.into(), 42i64.into(), CellValue::Null]),
            Err(RelError::TypeMismatch { .. })
        ));
        // NULL in non-nullable.
        assert!(matches!(
            db.insert(
                "patients",
                vec![CellValue::Null, "X".into(), CellValue::Null]
            ),
            Err(RelError::TypeMismatch { .. })
        ));
        // Arity.
        assert!(matches!(
            db.insert("patients", vec![2i64.into()]),
            Err(RelError::ArityMismatch { .. })
        ));
        // Update of a missing row.
        assert!(matches!(
            db.update("patients", vec![9i64.into(), "X".into(), CellValue::Null]),
            Err(RelError::NotFound(_))
        ));
    }

    #[test]
    fn select_with_predicates() {
        let db = patients_db();
        for (id, name, age) in [(1, "Ann", 61), (2, "Bob", 45), (3, "Cyd", 61)] {
            db.insert(
                "patients",
                vec![(id as i64).into(), name.into(), (age as i64).into()],
            )
            .unwrap();
        }
        let aged = db.select("patients", |r| r.int("age") == Some(61)).unwrap();
        assert_eq!(aged.len(), 2);
        let bob = db
            .select_eq("patients", "name", &CellValue::from("Bob"))
            .unwrap();
        assert_eq!(bob.len(), 1);
        assert_eq!(bob[0].int("id"), Some(2));
        assert!(db.select_eq("patients", "nope", &CellValue::Null).is_err());
        assert_eq!(db.count("patients").unwrap(), 3);
    }

    #[test]
    fn unknown_table_errors() {
        let db = Database::new("t");
        assert!(db.insert("x", vec![]).is_err());
        assert!(db.get("x", &CellValue::Int(1)).is_err());
        assert!(db.select("x", |_| true).is_err());
        assert!(db.count("x").is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = patients_db();
        assert!(matches!(
            db.create_table(
                "patients",
                Schema::new(vec![ColumnDef::new("id", ColumnType::Int)], "id")
            ),
            Err(RelError::TableExists(_))
        ));
    }
}
