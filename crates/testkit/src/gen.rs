//! Generator combinators: a `Gen<T>` is a reusable recipe turning a
//! [`TestRng`] into a value of `T`, mirroring the subset of proptest's
//! `Strategy` algebra the GMT test suites actually use (`prop_oneof!`,
//! `prop_map`, `collection::vec`, `prop_recursive`, weighted choice).

use crate::rng::TestRng;
use std::rc::Rc;

/// A cloneable value generator.
pub struct Gen<T> {
    f: Rc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Gen<T> {
        Gen { f: Rc::clone(&self.f) }
    }
}

impl<T: 'static> Gen<T> {
    /// Wraps a sampling function.
    pub fn new(f: impl Fn(&mut TestRng) -> T + 'static) -> Gen<T> {
        Gen { f: Rc::new(f) }
    }

    /// A generator that always yields `value`.
    pub fn just(value: T) -> Gen<T>
    where
        T: Clone,
    {
        Gen::new(move |_| value.clone())
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(rng)
    }

    /// Applies `g` to every generated value.
    pub fn map<U: 'static>(self, g: impl Fn(T) -> U + 'static) -> Gen<U> {
        Gen::new(move |rng| g(self.sample(rng)))
    }

    /// Feeds each generated value into a dependent generator.
    pub fn flat_map<U: 'static>(self, g: impl Fn(T) -> Gen<U> + 'static) -> Gen<U> {
        Gen::new(move |rng| g(self.sample(rng)).sample(rng))
    }

    /// Pairs this generator with another.
    pub fn zip<U: 'static>(self, other: Gen<U>) -> Gen<(T, U)> {
        Gen::new(move |rng| (self.sample(rng), other.sample(rng)))
    }
}

/// A uniform draw from a numeric range (exclusive upper bound), for
/// any type convertible from/to `i64` losslessly via the helper trait.
pub fn ranged<T: RangedValue>(lo: T, hi: T) -> Gen<T> {
    let (a, b) = (lo.into_wide(), hi.into_wide());
    Gen::new(move |rng| T::from_wide(rng.range_i64(a, b)))
}

/// Numeric types [`ranged`] can generate.
pub trait RangedValue: Copy + 'static {
    /// Widens to `i64`.
    fn into_wide(self) -> i64;
    /// Narrows from `i64` (the value is guaranteed in range).
    fn from_wide(v: i64) -> Self;
}

macro_rules! ranged_impl {
    ($($t:ty),*) => {$(
        impl RangedValue for $t {
            fn into_wide(self) -> i64 { self as i64 }
            fn from_wide(v: i64) -> $t { v as $t }
        }
    )*};
}
ranged_impl!(u8, i8, u16, i16, u32, i32, u64, i64, usize);

/// The full `u64` range (seeds, hashes); [`ranged`] is limited to
/// spans that fit `i64`.
pub fn full_u64() -> Gen<u64> {
    Gen::new(TestRng::next_u64)
}

/// Uniform choice between alternative generators (proptest's
/// `prop_oneof!`).
pub fn one_of<T: 'static>(options: Vec<Gen<T>>) -> Gen<T> {
    assert!(!options.is_empty(), "one_of needs at least one option");
    Gen::new(move |rng| {
        let k = rng.range_usize(0, options.len());
        options[k].sample(rng)
    })
}

/// Weighted choice between alternative generators.
pub fn weighted<T: 'static>(options: Vec<(u32, Gen<T>)>) -> Gen<T> {
    let total: u64 = options.iter().map(|(w, _)| u64::from(*w)).sum();
    assert!(total > 0, "weighted needs positive total weight");
    Gen::new(move |rng| {
        let mut roll = rng.range_u64(0, total);
        for (w, g) in &options {
            let w = u64::from(*w);
            if roll < w {
                return g.sample(rng);
            }
            roll -= w;
        }
        unreachable!("roll < total")
    })
}

/// A vector of `len` in `[lo, hi)` elements drawn from `element`.
pub fn vec_of<T: 'static>(element: Gen<T>, lo: usize, hi: usize) -> Gen<Vec<T>> {
    Gen::new(move |rng| {
        let n = rng.range_usize(lo, hi);
        (0..n).map(|_| element.sample(rng)).collect()
    })
}

/// A bounded-depth recursive generator (proptest's `prop_recursive`):
/// `branch` receives the generator for the next-shallower level and
/// returns the compound cases; every level also falls back to `leaf`
/// half the time so trees thin out toward the leaves.
pub fn recursive<T: 'static>(
    depth: u32,
    leaf: Gen<T>,
    branch: impl Fn(Gen<T>) -> Gen<T>,
) -> Gen<T> {
    let mut level = leaf.clone();
    for _ in 0..depth {
        level = weighted(vec![(1, leaf.clone()), (1, branch(level))]);
    }
    level
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranged_and_map() {
        let g = ranged(0u8, 10).map(|v| v * 2);
        let mut rng = TestRng::new(5);
        for _ in 0..100 {
            let v = g.sample(&mut rng);
            assert!(v < 20 && v.is_multiple_of(2));
        }
    }

    #[test]
    fn one_of_hits_every_option() {
        let g = one_of(vec![Gen::just(1), Gen::just(2), Gen::just(3)]);
        let mut rng = TestRng::new(11);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[g.sample(&mut rng) as usize - 1] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn vec_of_respects_bounds() {
        let g = vec_of(ranged(0u8, 4), 1, 5);
        let mut rng = TestRng::new(3);
        for _ in 0..100 {
            let v = g.sample(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    #[test]
    fn recursive_terminates_and_nests() {
        #[derive(Debug)]
        #[allow(dead_code)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(c) => 1 + c.iter().map(depth).max().unwrap_or(0),
            }
        }
        let g = recursive(3, ranged(0u8, 255).map(Tree::Leaf), |inner| {
            vec_of(inner, 1, 4).map(Tree::Node)
        });
        let mut rng = TestRng::new(17);
        let mut max_depth = 0;
        for _ in 0..200 {
            max_depth = max_depth.max(depth(&g.sample(&mut rng)));
        }
        assert!(max_depth >= 1, "some nesting must occur");
        assert!(max_depth <= 3, "depth bound respected, saw {max_depth}");
    }

    #[test]
    fn weighted_biases_choice() {
        let g = weighted(vec![(9, Gen::just(0u8)), (1, Gen::just(1u8))]);
        let mut rng = TestRng::new(23);
        let ones = (0..1000).filter(|_| g.sample(&mut rng) == 1).count();
        assert!((20..400).contains(&ones), "~10% expected, saw {ones}");
    }

    #[test]
    fn flat_map_threads_dependency() {
        let g = ranged(1usize, 4).flat_map(|n| vec_of(Gen::just(7u8), n, n + 1));
        let mut rng = TestRng::new(29);
        for _ in 0..50 {
            let v = g.sample(&mut rng);
            assert!((1..4).contains(&v.len()));
            assert!(v.iter().all(|&x| x == 7));
        }
    }
}
