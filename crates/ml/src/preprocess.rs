//! Feature preprocessing: one-hot encoding.
//!
//! §III-B: "MAC and channel features were considered as categorical and
//! one-hot encoded", after dropping MACs with fewer than 16 samples. The
//! paper-specific sample filtering lives in `aerorem-core`; the reusable
//! encoder lives here.

use std::collections::BTreeMap;

/// A one-hot encoder over arbitrary ordered keys.
///
/// Categories are assigned columns in sorted order so the encoding is
/// independent of input order (reproducible feature layouts).
///
/// # Examples
///
/// ```
/// use aerorem_ml::preprocess::OneHotEncoder;
///
/// let enc = OneHotEncoder::fit(["b", "a", "b", "c"]);
/// assert_eq!(enc.width(), 3);
/// assert_eq!(enc.encode(&"a"), Some(vec![1.0, 0.0, 0.0]));
/// assert_eq!(enc.encode(&"zz"), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneHotEncoder<K: Ord> {
    columns: BTreeMap<K, usize>,
}

impl<K: Ord + Clone> OneHotEncoder<K> {
    /// Learns the category set from an iterator of keys.
    pub fn fit<I: IntoIterator<Item = K>>(keys: I) -> Self {
        let unique: std::collections::BTreeSet<K> = keys.into_iter().collect();
        let columns = unique
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i))
            .collect();
        OneHotEncoder { columns }
    }

    /// Number of one-hot columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column index of a category, if known.
    pub fn column(&self, key: &K) -> Option<usize> {
        self.columns.get(key).copied()
    }

    /// Encodes one key as a one-hot vector, or `None` for unknown keys.
    pub fn encode(&self, key: &K) -> Option<Vec<f64>> {
        let col = self.column(key)?;
        let mut v = vec![0.0; self.width()];
        v[col] = 1.0;
        Some(v)
    }

    /// Appends the one-hot encoding of `key` onto `out` without allocating.
    ///
    /// Always appends exactly [`OneHotEncoder::width`] values: a one-hot
    /// row for known keys, all zeros for unknown ones — so batched rows
    /// built via `push_row_with` stay aligned no matter what arrives at
    /// inference time. The return value says which case occurred.
    pub fn encode_into(&self, key: &K, out: &mut Vec<f64>) -> CategoryEncoding {
        let start = out.len();
        out.resize(start + self.width(), 0.0);
        match self.column(key) {
            Some(col) => {
                out[start + col] = 1.0;
                CategoryEncoding::Known
            }
            None => CategoryEncoding::Unknown,
        }
    }

    /// The known categories in column order.
    pub fn categories(&self) -> Vec<&K> {
        let mut pairs: Vec<(&K, usize)> = self.columns.iter().map(|(k, &c)| (k, c)).collect();
        pairs.sort_by_key(|&(_, c)| c);
        pairs.into_iter().map(|(k, _)| k).collect()
    }
}

/// Whether [`OneHotEncoder::encode_into`] saw a fitted category or
/// zero-filled an unknown one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "unknown categories are zero-filled; callers deciding admission must check"]
pub enum CategoryEncoding {
    /// The key was seen at fit time; one column is hot.
    Known,
    /// The key was never fitted; the full width was zero-filled.
    Unknown,
}

impl CategoryEncoding {
    /// True for [`CategoryEncoding::Known`].
    pub fn is_known(self) -> bool {
        matches!(self, CategoryEncoding::Known)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_sorted_stable_columns() {
        let enc = OneHotEncoder::fit(["x", "a", "m", "a"]);
        assert_eq!(enc.width(), 3);
        assert_eq!(enc.column(&"a"), Some(0));
        assert_eq!(enc.column(&"m"), Some(1));
        assert_eq!(enc.column(&"x"), Some(2));
        assert_eq!(enc.categories(), vec![&"a", &"m", &"x"]);
        // Order of fit input does not matter.
        let enc2 = OneHotEncoder::fit(["m", "x", "a"]);
        assert_eq!(enc, enc2);
    }

    #[test]
    fn one_hot_encoding_vectors() {
        let enc = OneHotEncoder::fit([2u32, 5, 9]);
        assert_eq!(enc.encode(&5), Some(vec![0.0, 1.0, 0.0]));
        assert_eq!(enc.encode(&7), None);
    }

    #[test]
    fn encode_into_known_key_appends_one_hot() {
        let enc = OneHotEncoder::fit([2u32, 5, 9]);
        let mut out = vec![-1.0];
        assert!(enc.encode_into(&9, &mut out).is_known());
        assert_eq!(out, vec![-1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn encode_into_unknown_key_zero_fills_full_width() {
        // An unknown key must not leave the row short/misaligned: it
        // appends width() zeros (the all-zero category) and says so.
        let enc = OneHotEncoder::fit([2u32, 5, 9]);
        let mut out = vec![7.0];
        let signal = enc.encode_into(&1234, &mut out);
        assert_eq!(signal, CategoryEncoding::Unknown);
        assert!(!signal.is_known());
        assert_eq!(out, vec![7.0, 0.0, 0.0, 0.0]);
    }
}
