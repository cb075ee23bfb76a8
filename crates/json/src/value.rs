//! The JSON value tree.

use std::fmt;

use crate::key::Key;
use crate::map::Map;
use crate::text::Str;

/// A JSON document node, 24 bytes.
///
/// Objects are a [`Map`], which keeps its members sorted by key so that
/// serialisation is deterministic — the document store relies on
/// byte-identical re-serialisation for revision hashing and replication
/// comparison. An array is an exact-size boxed slice and an object a
/// 16-byte [`Map`], so the largest variant is a [`Str`]: its unused tag
/// values carry this enum's own, and an object member is 40 bytes.
///
/// ```
/// use safeweb_json::Value;
///
/// let v = Value::parse(r#"{"patient":"33812769","age":61}"#)?;
/// assert_eq!(v.get("age").and_then(Value::as_i64), Some(61));
/// # Ok::<(), safeweb_json::ParseJsonError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    /// The JSON `null` literal.
    #[default]
    Null,
    /// A JSON boolean.
    Bool(bool),
    /// A JSON number with no fractional part that fits in `i64`.
    Int(i64),
    /// Any other JSON number.
    Float(f64),
    /// A JSON string, inline up to 22 bytes (see [`Str`]).
    Str(Str),
    /// A JSON array (build one from a `Vec` with [`Value::from`]).
    Array(Box<[Value]>),
    /// A JSON object, its members sorted by key.
    Object(Map),
}

impl Value {
    /// Shorthand for an empty object.
    pub fn object() -> Value {
        Value::Object(Map::new())
    }

    /// Shorthand for an empty array.
    pub fn array() -> Value {
        Value::Array(Box::default())
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload; `Float` values with an exact integral value are
    /// converted.
    pub fn as_i64(&self) -> Option<i64> {
        // `i64::MAX as f64` rounds up to 2⁶³, which is out of range, so the
        // upper bound is strict; the lower bound −2⁶³ is `i64::MIN` exactly.
        const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f)
                if f.fract() == 0.0 && f.is_finite() && *f >= -TWO_POW_63 && *f < TWO_POW_63 =>
            {
                Some(*f as i64)
            }
            _ => None,
        }
    }

    /// The numeric payload as `f64` for either number representation.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The array payload, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object payload, if this is an `Object`.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Mutable access to the object payload.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Member lookup on objects; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// Mutable member lookup on objects.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.as_object_mut().and_then(|o| o.get_mut(key))
    }

    /// Element lookup on arrays; `None` for other variants or out-of-range
    /// indices.
    pub fn at(&self, index: usize) -> Option<&Value> {
        self.as_array().and_then(|a| a.get(index))
    }

    /// Inserts `key: value` into an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object; use [`Value::as_object_mut`] for a
    /// fallible alternative.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> &mut Value {
        match self {
            Value::Object(o) => {
                o.insert(key, value.into());
                self
            }
            other => panic!("Value::set on non-object {other:?}"),
        }
    }

    /// Follows a `/`-separated path of object keys and array indices, e.g.
    /// `"records/0/patient_id"`.
    pub fn pointer(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('/') {
            if seg.is_empty() {
                continue;
            }
            cur = match cur {
                Value::Object(o) => o.get(seg)?,
                Value::Array(a) => a.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// The variant name, for diagnostics ("null", "bool", "number",
    /// "string", "array", "object").
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

impl fmt::Display for Value {
    /// Displays the compact JSON encoding.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i as i64)
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Value {
        Value::Int(i as i64)
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Value {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(Str::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(Str::from(s))
    }
}

impl From<Str> for Value {
    fn from(s: Str) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(opt: Option<T>) -> Value {
        match opt {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

/// Reflexive, so code generic over "something that holds a JSON tree" (an
/// owned value, a borrowed node, a shared document) also takes a `Value`.
impl AsRef<Value> for Value {
    fn as_ref(&self) -> &Value {
        self
    }
}

impl<K: Into<Key>> FromIterator<(K, Value)> for Value {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Value {
        Value::Object(iter.into_iter().collect())
    }
}

/// Builds a [`Value::Object`] from `key => value` pairs.
///
/// ```
/// use safeweb_json::{jobject, Value};
///
/// let v = jobject! {
///     "patient_id" => 33812769,
///     "name" => "A. Patient",
///     "metrics" => Value::from(vec![1, 2]),
/// };
/// assert_eq!(v.get("patient_id").and_then(Value::as_i64), Some(33812769));
/// ```
#[macro_export]
macro_rules! jobject {
    () => { $crate::Value::object() };
    ($($key:expr => $value:expr),+ $(,)?) => {
        $crate::Value::Object(<$crate::Map as ::std::iter::FromIterator<_>>::from_iter([
            $(($crate::Key::from($key), $crate::Value::from($value))),+
        ]))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let v = jobject! {
            "a" => 1,
            "b" => "two",
            "c" => vec![1i64, 2, 3],
            "d" => 2.5,
            "e" => true,
        };
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(1));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("two"));
        assert_eq!(
            v.get("c").and_then(|c| c.at(2)).and_then(Value::as_i64),
            Some(3)
        );
        assert_eq!(v.get("d").and_then(Value::as_f64), Some(2.5));
        assert_eq!(v.get("e").and_then(Value::as_bool), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn pointer_walks_nested_structure() {
        let v = jobject! {
            "records" => Value::from(vec![jobject! {"id" => 7}]),
        };
        assert_eq!(v.pointer("records/0/id").and_then(Value::as_i64), Some(7));
        assert!(v.pointer("records/1/id").is_none());
        assert!(v.pointer("records/x").is_none());
    }

    #[test]
    fn float_int_coercion() {
        assert_eq!(Value::Float(3.0).as_i64(), Some(3));
        assert_eq!(Value::Float(3.5).as_i64(), None);
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
    }

    /// 2⁶³ is not an `i64`, although `i64::MAX as f64` rounds to it;
    /// −2⁶³ is `i64::MIN`, and the largest `f64` below 2⁶³ converts exactly.
    #[test]
    fn float_to_int_is_exact_at_the_i64_bounds() {
        let two_pow_63 = 9_223_372_036_854_775_808.0_f64;
        assert_eq!(i64::MAX as f64, two_pow_63);
        assert_eq!(Value::Float(two_pow_63).as_i64(), None);
        assert_eq!(Value::Float(-two_pow_63).as_i64(), Some(i64::MIN));
        let below = f64::from_bits(two_pow_63.to_bits() - 1);
        assert_eq!(below, 9_223_372_036_854_774_784.0);
        assert_eq!(
            Value::Float(below).as_i64(),
            Some(9_223_372_036_854_774_784)
        );
    }

    #[test]
    fn set_inserts_into_object() {
        let mut v = Value::object();
        v.set("x", 1).set("y", "z");
        assert_eq!(v.get("x").and_then(Value::as_i64), Some(1));
        assert_eq!(v.get("y").and_then(Value::as_str), Some("z"));
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn set_panics_on_array() {
        Value::array().set("x", 1);
    }

    /// A value is its largest variant, a `Str`, with no tag of its own,
    /// and a member stays one key and one value.
    #[test]
    fn a_value_is_24_bytes_and_a_member_40() {
        assert_eq!(std::mem::size_of::<Value>(), std::mem::size_of::<Str>());
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<(Key, Value)>(), 40);
    }

    #[test]
    fn kind_names() {
        assert_eq!(Value::Null.kind(), "null");
        assert_eq!(Value::Int(1).kind(), "number");
        assert_eq!(Value::Float(1.5).kind(), "number");
        assert_eq!(Value::from("s").kind(), "string");
    }
}
