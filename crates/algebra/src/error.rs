//! Algebra-layer errors.

use dvm_storage::StorageError;
use std::fmt;

/// Errors raised while type-checking, compiling, or evaluating queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// Underlying storage error (missing table, bad column, ...).
    Storage(StorageError),
    /// A binary bag operator was applied to schemas that are not
    /// union-compatible (same arity and positional types).
    NotUnionCompatible {
        /// The operator, e.g. "⊎".
        op: &'static str,
        /// Left schema rendered for diagnostics.
        left: String,
        /// Right schema rendered for diagnostics.
        right: String,
    },
    /// A comparison predicate was applied to incomparable operand types.
    IncomparableOperands {
        /// Left operand rendered.
        left: String,
        /// Right operand rendered.
        right: String,
    },
    /// A literal bag did not conform to its declared schema.
    BadLiteral(String),
    /// EXCEPT expansion requires distinct, nonempty column names.
    UnexpandableExcept(String),
    /// An aggregate call is ill-typed or ill-formed (non-numeric SUM/AVG
    /// argument, argument-less function other than `COUNT(*)`, …).
    BadAggregate(String),
    /// A change could not be folded into a count-annotated aggregate state
    /// (a delete from an unknown group, more rows than the group holds, or
    /// a MIN/MAX argument taken back).
    AggregateState(String),
    /// Joining two tuples overflowed the `u64` multiplicity counter.
    ///
    /// Deferred maintenance trades in exact multiplicities (the differential
    /// formulas of Lemma 1 cancel occurrence counts), so clamping here would
    /// silently corrupt every downstream delta — surface it instead.
    MultiplicityOverflow {
        /// Multiplicity of the probe-side tuple.
        left: u64,
        /// Multiplicity of the build-side tuple.
        right: u64,
    },
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::Storage(e) => write!(f, "{e}"),
            AlgebraError::NotUnionCompatible { op, left, right } => {
                write!(
                    f,
                    "operands of {op} are not union-compatible: {left} vs {right}"
                )
            }
            AlgebraError::IncomparableOperands { left, right } => {
                write!(f, "cannot compare {left} with {right}")
            }
            AlgebraError::BadLiteral(msg) => write!(f, "bad literal bag: {msg}"),
            AlgebraError::UnexpandableExcept(msg) => {
                write!(f, "cannot expand EXCEPT: {msg}")
            }
            AlgebraError::BadAggregate(msg) => write!(f, "bad aggregate: {msg}"),
            AlgebraError::AggregateState(msg) => write!(f, "aggregate state: {msg}"),
            AlgebraError::MultiplicityOverflow { left, right } => {
                write!(f, "joined multiplicity overflows u64: {left} * {right}")
            }
        }
    }
}

impl std::error::Error for AlgebraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlgebraError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for AlgebraError {
    fn from(e: StorageError) -> Self {
        AlgebraError::Storage(e)
    }
}

/// Result alias for algebra operations.
pub type Result<T> = std::result::Result<T, AlgebraError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = AlgebraError::from(StorageError::NoSuchTable("r".into()));
        assert_eq!(e.to_string(), "no such table 'r'");
        assert!(std::error::Error::source(&e).is_some());

        let e = AlgebraError::NotUnionCompatible {
            op: "⊎",
            left: "(a: INT)".into(),
            right: "(b: STRING)".into(),
        };
        assert!(e.to_string().contains("union-compatible"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
