//! A cache-friendly store of equal-dimension vectors.

/// A growable collection of fixed-dimension `f32` vectors stored contiguously.
///
/// KV caches hold one key and one value vector per token per head; storing
/// them as `Vec<Vec<f32>>` would scatter every vector across the heap. This
/// keeps them in one buffer with O(1) slice access.
///
/// # Example
///
/// ```
/// use longsight_tensor::FlatVecs;
///
/// let mut kv = FlatVecs::new(4);
/// kv.push(&[1.0, 2.0, 3.0, 4.0]);
/// kv.push(&[5.0, 6.0, 7.0, 8.0]);
/// assert_eq!(kv.len(), 2);
/// assert_eq!(kv.get(1)[0], 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatVecs {
    dim: usize,
    data: Vec<f32>,
}

impl FlatVecs {
    /// Creates an empty store of `dim`-dimensional vectors.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "FlatVecs dimension must be positive");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty store with capacity for `n` vectors.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "FlatVecs dimension must be positive");
        Self {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a vector.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim`.
    pub fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch on push");
        self.data.extend_from_slice(v);
    }

    /// Borrows vector `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> &[f32] {
        let start = i * self.dim;
        assert!(
            start + self.dim <= self.data.len(),
            "vector index out of bounds"
        );
        &self.data[start..start + self.dim]
    }

    /// Mutably borrows vector `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut [f32] {
        let start = i * self.dim;
        assert!(
            start + self.dim <= self.data.len(),
            "vector index out of bounds"
        );
        &mut self.data[start..start + self.dim]
    }

    /// Borrows vectors `range` as one contiguous key-major slice.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `len`.
    pub fn slice(&self, range: core::ops::Range<usize>) -> &[f32] {
        &self.data[range.start * self.dim..range.end * self.dim]
    }

    /// Iterates over the stored vectors as slices.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.dim)
    }

    /// Removes all vectors, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Truncates to the first `n` vectors.
    pub fn truncate(&mut self, n: usize) {
        self.data.truncate(n * self.dim);
    }
}

impl Extend<Vec<f32>> for FlatVecs {
    fn extend<T: IntoIterator<Item = Vec<f32>>>(&mut self, iter: T) {
        for v in iter {
            self.push(&v);
        }
    }
}

impl<'a> IntoIterator for &'a FlatVecs {
    type Item = &'a [f32];
    type IntoIter = std::slice::ChunksExact<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.chunks_exact(self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_round_trip() {
        let mut s = FlatVecs::new(3);
        s.push(&[1.0, 2.0, 3.0]);
        s.push(&[4.0, 5.0, 6.0]);
        assert_eq!(s.get(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.get(1), &[4.0, 5.0, 6.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn borrowing_into_iterator_yields_slices() {
        let mut s = FlatVecs::new(2);
        s.extend([vec![1.0, 2.0], vec![3.0, 4.0]]);
        let rows: Vec<&[f32]> = (&s).into_iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn truncate_and_clear() {
        let mut s = FlatVecs::new(2);
        s.push(&[1.0, 2.0]);
        s.push(&[3.0, 4.0]);
        s.truncate(1);
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_push_panics() {
        let mut s = FlatVecs::new(2);
        s.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let s = FlatVecs::new(2);
        let _ = s.get(0);
    }
}
