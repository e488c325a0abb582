//! Dense, copyable identifiers for every entity in a [`crate::Schema`].
//!
//! All identifiers are newtypes over `u32` indexing arenas inside the schema.
//! They are cheap to copy, hash and order, and deliberately carry no
//! lifetime or reference — the schema is the single source of truth and the
//! projection algorithms mutate it heavily.

use std::fmt;
use std::marker::PhantomData;

/// An id that is a dense arena index, so a [`BitSet`] can hold it.
pub trait ArenaId: Copy {
    /// The raw arena index.
    fn index(self) -> usize;
    /// The id at a raw arena index.
    fn from_index(index: usize) -> Self;
}

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw arena index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a raw arena index.
            ///
            /// # Panics
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(u32::try_from(index).expect("arena index overflows u32"))
            }
        }

        impl ArenaId for $name {
            fn index(self) -> usize {
                $name::index(self)
            }
            fn from_index(index: usize) -> Self {
                $name::from_index(index)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// Identifies a type (class) in the hierarchy.
    TypeId,
    "T"
);
id_newtype!(
    /// Identifies a named attribute. Attribute names are globally unique
    /// (a simplifying assumption stated in §2 of the paper).
    AttrId,
    "a"
);
id_newtype!(
    /// Identifies a generic function (a named operation with a set of
    /// type-specific methods).
    GfId,
    "g"
);
id_newtype!(
    /// Identifies one method of a generic function.
    MethodId,
    "m"
);
id_newtype!(
    /// Identifies a local variable within one method body.
    VarId,
    "v"
);
id_newtype!(
    /// Identifies an interned name in a schema's [`crate::intern::NameTable`].
    /// Type, attribute and generic-function names plus method labels are
    /// stored as `NameId`s in the runtime model; only the text parser and
    /// the renderers deal in strings.
    NameId,
    "n"
);

/// A dense set of ids of one kind: one bit per arena slot of the schema
/// it was sized for, so operations between sets sized for the same
/// schema are word-parallel. An id past the sized capacity reads as
/// absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet<I> {
    words: Vec<u64>,
    id: PhantomData<I>,
}

/// A set of attributes: the footprints of [`crate::appindex`].
pub type AttrBitSet = BitSet<AttrId>;

/// A set of types: what the hierarchy queries answer.
pub type TypeSet = BitSet<TypeId>;

impl<I: ArenaId> Default for BitSet<I> {
    fn default() -> Self {
        BitSet::new(0)
    }
}

impl<I: ArenaId> BitSet<I> {
    /// An empty set sized for `n` arena slots.
    pub fn new(n: usize) -> Self {
        BitSet {
            words: vec![0u64; n.div_ceil(64).max(1)],
            id: PhantomData,
        }
    }

    /// Inserts an id (growing the set if the id is beyond the sized
    /// capacity, so stale sizing degrades to allocation, not loss).
    pub fn insert(&mut self, id: I) {
        let w = id.index() / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (id.index() % 64);
    }

    /// True iff the id is in the set.
    pub fn contains(&self, id: I) -> bool {
        self.words
            .get(id.index() / 64)
            .is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &Self) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (dst, &src) in self.words.iter_mut().zip(other.words.iter()) {
            *dst |= src;
        }
    }

    /// True iff every id of `self` is in `other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Iterates the members in id order.
    pub fn iter(&self) -> impl Iterator<Item = I> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(I::from_index(wi * 64 + bit))
            })
        })
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let t = TypeId::from_index(7);
        assert_eq!(t.index(), 7);
        assert_eq!(t, TypeId(7));
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(TypeId(3).to_string(), "T3");
        assert_eq!(AttrId(0).to_string(), "a0");
        assert_eq!(GfId(1).to_string(), "g1");
        assert_eq!(MethodId(9).to_string(), "m9");
        assert_eq!(VarId(2).to_string(), "v2");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(TypeId(1) < TypeId(2));
        assert!(MethodId(0) < MethodId(10));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn from_index_overflow_panics() {
        let _ = TypeId::from_index(usize::MAX);
    }
}
