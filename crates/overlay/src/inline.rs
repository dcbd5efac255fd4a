//! A tiny small-vector: the first `N` elements live inline, longer lists
//! spill to the heap. Used for [`KeyRangeSet`](crate::KeyRangeSet)
//! segment storage (where the overwhelming majority of m-cast splits
//! produce one or two segments) and for the routing tables and location
//! cache entries a node keeps in place.
//!
//! The crate forbids `unsafe_code`, so instead of `MaybeUninit` tricks the
//! inline buffer requires `T: Copy + Default` and keeps unused slots at
//! `T::default()`.

/// Inline-first vector of `Copy` elements.
#[derive(Clone, Debug)]
pub enum InlineVec<T: Copy + Default, const N: usize> {
    /// Up to `N` elements stored in place.
    Inline {
        /// Number of live elements in `buf`.
        len: u8,
        /// Backing array; slots at `len..` hold `T::default()`.
        buf: [T; N],
    },
    /// Spilled representation (never shrinks back inline).
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector. `N` must fit the inline length byte.
    pub fn new() -> Self {
        debug_assert!(N > 0 && N <= u8::MAX as usize);
        InlineVec::Inline {
            len: 0,
            buf: [T::default(); N],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            InlineVec::Inline { len, .. } => *len as usize,
            InlineVec::Heap(v) => v.len(),
        }
    }

    /// `true` when no element is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, buf } => &buf[..*len as usize],
            InlineVec::Heap(v) => v,
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline { len, buf } => &mut buf[..*len as usize],
            InlineVec::Heap(v) => v,
        }
    }

    /// `true` while the elements still live in the inline buffer.
    pub fn is_inline(&self) -> bool {
        matches!(self, InlineVec::Inline { .. })
    }

    /// Elements the current storage holds without allocating: `N` in
    /// place, the buffer's capacity once spilled.
    pub fn capacity(&self) -> usize {
        match self {
            InlineVec::Inline { .. } => N,
            InlineVec::Heap(v) => v.capacity(),
        }
    }

    /// Makes room for exactly `total` elements: nothing while they fit in
    /// place, otherwise one spill or `reserve_exact` — for owners that
    /// bound their storage instead of riding the doubling ladder.
    pub fn reserve_exact_to(&mut self, total: usize) {
        match self {
            InlineVec::Inline { .. } if total <= N => {}
            InlineVec::Inline { len, buf } => {
                let mut v = Vec::with_capacity(total);
                v.extend_from_slice(&buf[..*len as usize]);
                *self = InlineVec::Heap(v);
            }
            InlineVec::Heap(v) => v.reserve_exact(total.saturating_sub(v.len())),
        }
    }

    /// Removes every element (the spilled buffer, if any, is kept).
    pub fn clear(&mut self) {
        match self {
            InlineVec::Inline { len, .. } => *len = 0,
            InlineVec::Heap(v) => v.clear(),
        }
    }

    /// Appends an element, spilling to the heap on overflow.
    pub fn push(&mut self, value: T) {
        match self {
            InlineVec::Inline { len, buf } => {
                if (*len as usize) < N {
                    buf[*len as usize] = value;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(N * 2);
                    v.extend_from_slice(buf);
                    v.push(value);
                    *self = InlineVec::Heap(v);
                }
            }
            InlineVec::Heap(v) => v.push(value),
        }
    }

    /// Inserts an element at `i`, shifting everything after it right
    /// (like [`Vec::insert`]); spills to the heap on overflow.
    ///
    /// # Panics
    ///
    /// Panics if `i > len`.
    pub fn insert(&mut self, i: usize, value: T) {
        match self {
            InlineVec::Inline { len, buf } => {
                let n = *len as usize;
                assert!(i <= n, "insert index {i} out of bounds");
                if n < N {
                    buf.copy_within(i..n, i + 1);
                    buf[i] = value;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(N * 2);
                    v.extend_from_slice(&buf[..i]);
                    v.push(value);
                    v.extend_from_slice(&buf[i..]);
                    *self = InlineVec::Heap(v);
                }
            }
            InlineVec::Heap(v) => v.insert(i, value),
        }
    }

    /// Removes and returns the element at `i`, shifting everything after
    /// it left (like [`Vec::remove`]).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn remove(&mut self, i: usize) -> T {
        match self {
            InlineVec::Inline { len, buf } => {
                let n = *len as usize;
                assert!(i < n, "remove index {i} out of bounds");
                let out = buf[i];
                buf.copy_within(i + 1..n, i);
                buf[n - 1] = T::default();
                *len -= 1;
                out
            }
            InlineVec::Heap(v) => v.remove(i),
        }
    }

    /// Removes and returns the element at `i`, replacing it with the last
    /// element (like [`Vec::swap_remove`]).
    pub fn swap_remove(&mut self, i: usize) -> T {
        match self {
            InlineVec::Inline { len, buf } => {
                let last = *len as usize - 1;
                assert!(i <= last, "swap_remove index {i} out of bounds");
                let out = buf[i];
                buf[i] = buf[last];
                buf[last] = T::default();
                *len -= 1;
                out
            }
            InlineVec::Heap(v) => v.swap_remove(i),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_spills_and_swap_remove_everywhere() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..4 {
            v.push(i);
        }
        assert!(matches!(v, InlineVec::Inline { .. }));
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(v.swap_remove(0), 0);
        assert_eq!(v.as_slice(), &[3, 1, 2]);
        for i in 4..10 {
            v.push(i);
        }
        assert!(matches!(v, InlineVec::Heap(_)));
        assert_eq!(v.len(), 9);
        assert_eq!(v.swap_remove(1), 1);
        assert_eq!(v.as_slice(), &[3, 9, 2, 4, 5, 6, 7, 8]);
        v.as_mut_slice()[0] = 42;
        assert_eq!(v.as_slice()[0], 42);
    }

    #[test]
    fn ordered_insert_and_remove() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        v.insert(0, 3);
        v.insert(0, 1);
        v.insert(1, 2);
        v.insert(3, 4);
        assert!(v.is_inline() && v.len() == v.capacity());
        assert_eq!(v.as_slice(), &[1, 2, 3, 4]);
        // Inserting into a full inline buffer spills, preserving order.
        v.insert(2, 99);
        assert!(!v.is_inline());
        assert_eq!(v.as_slice(), &[1, 2, 99, 3, 4]);
        assert_eq!(v.remove(2), 99);
        assert_eq!(v.as_slice(), &[1, 2, 3, 4]);
        assert!(!v.is_inline());
    }
}
