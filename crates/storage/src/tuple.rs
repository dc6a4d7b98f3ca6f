//! Tuples: immutable, reference-counted rows.
//!
//! A [`Tuple`] is an `Arc<[Value]>`, so cloning a tuple (which bag operations
//! do constantly) is a reference-count bump, never a deep copy.

use crate::value::Value;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// An immutable row of scalar values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values.into())
    }

    /// The empty (0-ary) tuple.
    pub fn empty() -> Self {
        Tuple(Arc::from(Vec::new()))
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Field at position `i`, if present.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// The allocation's address: equal for exactly the clones of one tuple
    /// (not merely equal values) while any of them is alive.
    pub fn addr(&self) -> usize {
        Arc::as_ptr(&self.0) as *const Value as usize
    }

    /// All fields as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Concatenate two tuples (used by the product operator).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Tuple(v.into())
    }

    /// Project onto the given positions (duplicate positions allowed, order
    /// preserved — this is bag projection, so no deduplication happens here).
    ///
    /// # Panics
    /// Panics if any index is out of range; projections are validated against
    /// the schema before evaluation.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        let v: Vec<Value> = indices.iter().map(|&i| self.0[i].clone()).collect();
        Tuple(v.into())
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

impl FromIterator<Value> for Tuple {
    /// One allocation when the iterator knows its length.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Convenience constructor: `tuple![1, "a", 2.5]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_access() {
        let t = tuple![1, "a", true];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t[1], Value::str("a"));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn empty_tuple() {
        let t = Tuple::empty();
        assert_eq!(t.arity(), 0);
        assert_eq!(t.to_string(), "[]");
    }

    #[test]
    fn concat() {
        let a = tuple![1, 2];
        let b = tuple!["x"];
        let c = a.concat(&b);
        assert_eq!(c, tuple![1, 2, "x"]);
        assert_eq!(a.arity(), 2, "concat must not mutate operands");
    }

    #[test]
    fn project_preserves_order_and_duplicates() {
        let t = tuple![10, 20, 30];
        assert_eq!(t.project(&[2, 0]), tuple![30, 10]);
        assert_eq!(t.project(&[1, 1]), tuple![20, 20]);
        assert_eq!(t.project(&[]), Tuple::empty());
    }

    #[test]
    #[should_panic]
    fn project_out_of_range_panics() {
        tuple![1].project(&[1]);
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(tuple![1, "a"], tuple![1, "a"]);
        assert_ne!(tuple![1, "a"], tuple!["a", 1]);
    }

    #[test]
    fn display() {
        assert_eq!(tuple![1, "a"].to_string(), "[1, 'a']");
    }

    #[test]
    fn clone_is_shallow() {
        let t = tuple![1, 2, 3];
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.0, &u.0));
    }
}
