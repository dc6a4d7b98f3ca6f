//! Scalar values stored in tuples.
//!
//! The engine supports four scalar types plus `NULL`. Values carry a *total*
//! order (doubles are ordered by `f64::total_cmp`) so they can be used as
//! keys in ordered containers and sorted deterministically for display.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a scalar value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 double, totally ordered via `total_cmp`.
    Double,
    /// Immutable UTF-8 string.
    Str,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Bool => write!(f, "BOOL"),
            ValueType::Int => write!(f, "INT"),
            ValueType::Double => write!(f, "DOUBLE"),
            ValueType::Str => write!(f, "STRING"),
        }
    }
}

/// A scalar value.
///
/// `Null` is a member of every type (nullable columns); comparisons against
/// `Null` in predicates evaluate to false, mirroring SQL's three-valued logic
/// collapsed to two values at the filter boundary.
#[derive(Debug, Clone)]
pub enum Value {
    /// The SQL NULL marker.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// Shared immutable string (cheap to clone).
    Str(Arc<str>),
}

impl Value {
    /// Build a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The runtime type of this value, or `None` for `Null`.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Int(_) => Some(ValueType::Int),
            Value::Double(_) => Some(ValueType::Double),
            Value::Str(_) => Some(ValueType::Str),
        }
    }

    /// Whether this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value may inhabit a column of type `ty` (`Null` always may).
    pub fn conforms_to(&self, ty: ValueType) -> bool {
        self.value_type().is_none_or(|t| t == ty)
    }

    /// SQL comparison: returns `None` when either side is `Null` or the types
    /// are incomparable, otherwise the ordering. Predicate evaluation treats
    /// `None` as "not satisfied".
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Double(a), Value::Double(b)) => Some(a.total_cmp(b)),
            (Value::Int(a), Value::Double(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Double(a), Value::Int(b)) => Some(a.total_cmp(&(*b as f64))),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

/// Total order used for container keys and deterministic display.
///
/// Unlike [`Value::sql_cmp`], this order is total: `Null` sorts first, then
/// values sort by a fixed type rank and within types by their natural order.
/// Mixed int/double do *not* compare equal here (they are distinct storage
/// values); equality under this order is structural identity.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Double(_) => 3,
                Value::Str(_) => 4,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            // The multiply of an FxHash fold carries entropy only upward,
            // and an integral `f64` (every normalized join key) varies only
            // in its top bits: folded down, or the low bits `HashMap` picks
            // buckets with would be the same for every such key.
            Value::Double(d) => {
                3u8.hash(state);
                let b = d.to_bits();
                (b ^ (b >> 26) ^ (b >> 42) ^ (b >> 52)).hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn integral_doubles_spread_over_low_bits() {
        use crate::hasher::{FxBuildHasher, FxHashSet};
        use std::hash::BuildHasher;
        // Normalized join keys are integral `f64`s; their hashes must
        // differ where `HashMap` picks buckets.
        let mut buckets = FxHashSet::default();
        for i in 0..2048 {
            let key = [Value::Double(i as f64)];
            buckets.insert(FxBuildHasher::default().hash_one(&key[..]) & 0x7ff);
        }
        assert!(buckets.len() > 1024, "only {} buckets", buckets.len());
    }

    #[test]
    fn type_of_values() {
        assert_eq!(Value::Int(1).value_type(), Some(ValueType::Int));
        assert_eq!(Value::str("x").value_type(), Some(ValueType::Str));
        assert_eq!(Value::Null.value_type(), None);
        assert_eq!(Value::Bool(true).value_type(), Some(ValueType::Bool));
        assert_eq!(Value::Double(1.5).value_type(), Some(ValueType::Double));
    }

    #[test]
    fn null_conforms_to_everything() {
        for ty in [
            ValueType::Bool,
            ValueType::Int,
            ValueType::Double,
            ValueType::Str,
        ] {
            assert!(Value::Null.conforms_to(ty));
        }
        assert!(Value::Int(3).conforms_to(ValueType::Int));
        assert!(!Value::Int(3).conforms_to(ValueType::Str));
    }

    #[test]
    fn sql_cmp_null_is_none() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_numeric_coercion() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Double(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_incomparable_types() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::str("1")), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_is_total_and_consistent_with_eq() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(7),
            Value::Double(-0.5),
            Value::Double(f64::NAN),
            Value::str(""),
            Value::str("abc"),
        ];
        for a in &vals {
            for b in &vals {
                let ord = a.cmp(b);
                assert_eq!(ord == Ordering::Equal, a == b);
                assert_eq!(b.cmp(a), ord.reverse());
            }
        }
    }

    #[test]
    fn nan_is_self_equal_under_total_order() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn eq_values_hash_equal() {
        let a = Value::str("hello");
        let b = Value::str("hello");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn int_and_double_distinct_in_storage_order() {
        // SQL comparison coerces, but storage identity does not.
        assert_ne!(Value::Int(2), Value::Double(2.0));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::str("hi").to_string(), "'hi'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(1.5f64), Value::Double(1.5));
        assert_eq!(Value::from(String::from("t")), Value::str("t"));
    }
}
