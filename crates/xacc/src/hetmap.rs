//! A small heterogeneous option map, standing in for XACC's
//! `HeterogeneousMap` that configures accelerators
//! (e.g. `{{"shots", 1024}, {"threads", 12}}`).

use crate::XaccError;
use std::collections::BTreeMap;

/// A value in a [`HetMap`].
#[derive(Debug, Clone, PartialEq)]
pub enum HetValue {
    /// Integer option.
    Int(i64),
    /// Floating-point option.
    Float(f64),
    /// String option.
    Str(String),
    /// Boolean option.
    Bool(bool),
}

impl From<i64> for HetValue {
    fn from(v: i64) -> Self {
        HetValue::Int(v)
    }
}
impl From<usize> for HetValue {
    fn from(v: usize) -> Self {
        HetValue::Int(v as i64)
    }
}
impl From<f64> for HetValue {
    fn from(v: f64) -> Self {
        HetValue::Float(v)
    }
}
impl From<&str> for HetValue {
    fn from(v: &str) -> Self {
        HetValue::Str(v.to_string())
    }
}
impl From<String> for HetValue {
    fn from(v: String) -> Self {
        HetValue::Str(v)
    }
}
impl From<bool> for HetValue {
    fn from(v: bool) -> Self {
        HetValue::Bool(v)
    }
}

/// String-keyed heterogeneous option map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HetMap {
    entries: BTreeMap<String, HetValue>,
}

impl HetMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insert.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<HetValue>) -> Self {
        self.entries.insert(key.into(), value.into());
        self
    }

    /// Insert a value.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<HetValue>) {
        self.entries.insert(key.into(), value.into());
    }

    /// Raw lookup.
    pub fn get(&self, key: &str) -> Option<&HetValue> {
        self.entries.get(key)
    }

    /// Remove a key, returning its previous value.
    pub fn remove(&mut self, key: &str) -> Option<HetValue> {
        self.entries.remove(key)
    }

    /// Integer lookup (accepts `Int`; `Float` values with zero fraction).
    pub fn get_int(&self, key: &str) -> Option<i64> {
        match self.entries.get(key)? {
            HetValue::Int(v) => Some(*v),
            HetValue::Float(v) if v.fract() == 0.0 => Some(*v as i64),
            _ => None,
        }
    }

    /// Non-negative integer lookup.
    pub fn get_usize(&self, key: &str) -> Option<usize> {
        self.get_int(key).and_then(|v| usize::try_from(v).ok())
    }

    /// Float lookup (accepts `Float` or `Int`).
    pub fn get_float(&self, key: &str) -> Option<f64> {
        match self.entries.get(key)? {
            HetValue::Float(v) => Some(*v),
            HetValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String lookup.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.entries.get(key)? {
            HetValue::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Bool lookup.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.entries.get(key)? {
            HetValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Checked non-negative integer lookup for a backend param: `Ok(None)`
    /// when `key` is absent, [`XaccError::InvalidParam`] when it is present
    /// but not a non-negative integer — a bad value never falls back to the
    /// default silently.
    pub fn try_usize(&self, key: &str) -> Result<Option<usize>, XaccError> {
        self.checked(key, "a non-negative integer", Self::get_usize)
    }

    /// Checked positive integer lookup, erroring like
    /// [`HetMap::try_usize`] on zero too: a zero thread count or chunk size
    /// is refused, never clamped to one.
    pub fn try_positive(&self, key: &str) -> Result<Option<usize>, XaccError> {
        self.checked(key, "a positive integer", |map, key| map.get_usize(key).filter(|&v| v > 0))
    }

    /// Checked float lookup (accepts what [`HetMap::get_float`] accepts),
    /// erroring like [`HetMap::try_usize`].
    pub fn try_float(&self, key: &str) -> Result<Option<f64>, XaccError> {
        self.checked(key, "a number", Self::get_float)
    }

    /// Checked string lookup, erroring like [`HetMap::try_usize`].
    pub fn try_str(&self, key: &str) -> Result<Option<&str>, XaccError> {
        self.checked(key, "a string", Self::get_str)
    }

    fn checked<'a, T>(
        &'a self,
        key: &str,
        expected: &str,
        get: impl Fn(&'a Self, &str) -> Option<T>,
    ) -> Result<Option<T>, XaccError> {
        match self.entries.get(key) {
            None => Ok(None),
            Some(value) => get(self, key)
                .map(Some)
                .ok_or_else(|| XaccError::InvalidParam(format!("{key} must be {expected}, got {value:?}"))),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no options are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let m = HetMap::new()
            .with("shots", 1024usize)
            .with("noise", 0.01)
            .with("backend", "qpp")
            .with("verbose", true);
        assert_eq!(m.get_usize("shots"), Some(1024));
        assert_eq!(m.get_float("noise"), Some(0.01));
        assert_eq!(m.get_str("backend"), Some("qpp"));
        assert_eq!(m.get_bool("verbose"), Some(true));
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn numeric_coercions() {
        let m = HetMap::new().with("a", 3i64).with("b", 2.0);
        assert_eq!(m.get_float("a"), Some(3.0));
        assert_eq!(m.get_int("b"), Some(2));
        assert_eq!(m.get_usize("missing"), None);
    }

    #[test]
    fn negative_not_usize() {
        let m = HetMap::new().with("n", -1i64);
        assert_eq!(m.get_int("n"), Some(-1));
        assert_eq!(m.get_usize("n"), None);
    }

    #[test]
    fn type_mismatch_returns_none() {
        let m = HetMap::new().with("s", "text");
        assert_eq!(m.get_int("s"), None);
        assert_eq!(m.get_bool("s"), None);
    }
}
