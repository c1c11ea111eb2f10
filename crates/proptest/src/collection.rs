//! Collection strategies: [`vec()`] with exact or ranged lengths.

use crate::strategy::Strategy;
use crate::TestRng;

/// A length specification for [`vec()`]: an exact length, `a..b`, or
/// `a..=b`.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    min: usize,
    max_inclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(exact: usize) -> Self {
        SizeRange {
            min: exact,
            max_inclusive: exact,
        }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(range: core::ops::Range<usize>) -> Self {
        assert!(range.start < range.end, "empty vec length range");
        SizeRange {
            min: range.start,
            max_inclusive: range.end - 1,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(range: core::ops::RangeInclusive<usize>) -> Self {
        assert!(range.start() <= range.end(), "empty vec length range");
        SizeRange {
            min: *range.start(),
            max_inclusive: *range.end(),
        }
    }
}

/// Strategy generating `Vec`s whose elements come from `element` and
/// whose length is drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The result of [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        let span = (self.size.max_inclusive - self.size.min) as u64;
        let len = self.size.min
            + if span == 0 {
                0
            } else {
                rng.below(span + 1) as usize
            };
        (0..len).map(|_| self.element.new_value(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::any;

    #[test]
    fn exact_and_ranged_lengths() {
        let mut rng = TestRng::from_name("collection::tests");
        for _ in 0..200 {
            assert_eq!(vec(any::<u8>(), 1027).new_value(&mut rng).len(), 1027);
            let ranged = vec(any::<u8>(), 1..6).new_value(&mut rng);
            assert!((1..6).contains(&ranged.len()));
            let inclusive = vec(any::<u8>(), 0..=2).new_value(&mut rng);
            assert!(inclusive.len() <= 2);
        }
    }

    #[test]
    fn nests() {
        let mut rng = TestRng::from_name("collection::tests::nests");
        let nested = vec(vec((0u8..4, 1u8..3), 1..4), 2..5).new_value(&mut rng);
        assert!((2..5).contains(&nested.len()));
        for inner in nested {
            assert!((1..4).contains(&inner.len()));
            for (a, b) in inner {
                assert!(a < 4);
                assert!((1..3).contains(&b));
            }
        }
    }
}
