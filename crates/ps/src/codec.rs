//! The strict little-endian byte codec under the checkpoint format ([`crate::Checkpoint`]):
//! scalars ([`LeScalar`]) and length-prefixed runs, written by [`put_run`] and read by a
//! [`Reader`], which refuses truncation, a declared count the bytes left cannot hold
//! (before anything is sized from it) and trailing bytes. A run's count is a [`RunLen`]:
//! `u64` in a checkpoint, `u32` on the wire, whose frames (`dssp_net::wire`) take their
//! scalars' and runs' bytes from [`LeScalar`] and read them back through the wire's own
//! stream reader. Everything is `#[inline]`.

use std::marker::PhantomData;

/// What a [`Reader`] refuses; each format converts it into its own error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes ended before a field.
    Truncated,
    /// Bytes were left after the last field.
    Trailing {
        /// How many bytes were left.
        extra: usize,
    },
    /// A run declared more elements than the bytes left can hold.
    Oversized {
        /// The declared element count.
        declared: usize,
    },
}

mod sealed {
    pub trait Sealed {}
}

/// A fixed-size value written as its little-endian bytes. Sealed: the impls below are
/// plain data with no padding bytes and every bit pattern a valid value, which the
/// wire's zero-copy views of a run rely on.
pub trait LeScalar: sealed::Sealed + Copy {
    /// Appends the value's bytes.
    fn put_le(self, buf: &mut Vec<u8>);
    /// Appends every value's bytes, in order.
    fn put_all(values: &[Self], buf: &mut Vec<u8>);
    /// Reads one value.
    fn get<L>(r: &mut Reader<'_, L>) -> Result<Self, CodecError>;
    /// Appends the values `bytes` holds, a whole number of them.
    fn extend_from_le(out: &mut Vec<Self>, bytes: &[u8]);
}

macro_rules! le_scalar {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl LeScalar for $t {
            #[inline]
            fn put_le(self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn put_all(values: &[Self], buf: &mut Vec<u8>) {
                // Exact-size: one reservation, and a copy loop at about `memcpy` speed.
                buf.extend(values.iter().flat_map(|v| v.to_le_bytes()));
            }
            #[inline]
            fn get<L>(r: &mut Reader<'_, L>) -> Result<Self, CodecError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
            #[inline]
            fn extend_from_le(out: &mut Vec<Self>, bytes: &[u8]) {
                let (elems, _) = bytes.as_chunks::<{ std::mem::size_of::<$t>() }>();
                out.extend(elems.iter().map(|e| <$t>::from_le_bytes(*e)));
            }
        }
    )*};
}
le_scalar!(u8, u16, u32, u64, f32, f64);

/// The integer a run's element count is written as: `u32` on the wire, `u64` in a
/// checkpoint.
pub trait RunLen: LeScalar + TryFrom<usize> + TryInto<usize> {
    /// The count of `len` elements. Panics if `len` does not fit; a frame writer
    /// refuses a frame that large before it counts a run.
    #[inline]
    fn from_len(len: usize) -> Self {
        Self::try_from(len).unwrap_or_else(|_| panic!("length {len} fits in a run count"))
    }
}
impl RunLen for u32 {}
impl RunLen for u64 {}

/// Appends a run: its element count as an `L`, then the elements.
#[inline]
pub fn put_run<L: RunLen, T: LeScalar>(buf: &mut Vec<u8>, values: &[T]) {
    L::from_len(values.len()).put_le(buf);
    T::put_all(values, buf);
}

/// Appends a run of records: the count as an `L`, then each record through `put`.
#[inline]
pub fn put_run_with<L: RunLen, T>(
    buf: &mut Vec<u8>,
    records: &[T],
    put: impl Fn(&T, &mut Vec<u8>),
) {
    L::from_len(records.len()).put_le(buf);
    records.iter().for_each(|record| put(record, buf));
}

/// Appends an optional record: a presence flag (one byte, 0 or 1, as [`Reader::flag`]
/// reads it), then the record through `put`.
#[inline]
pub fn put_opt<T>(buf: &mut Vec<u8>, record: Option<&T>, put: impl FnOnce(&T, &mut Vec<u8>)) {
    buf.push(u8::from(record.is_some()));
    if let Some(record) = record {
        put(record, buf);
    }
}

/// Bounds-checked reader over one payload whose runs count their elements as `L`s.
pub struct Reader<'a, L> {
    bytes: &'a [u8],
    pos: usize,
    width: PhantomData<L>,
}

impl<'a, L> Reader<'a, L> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            width: PhantomData,
        }
    }

    /// Bytes not read yet.
    #[inline]
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let taken = self.bytes[self.pos..]
            .get(..n)
            .ok_or(CodecError::Truncated)?;
        self.pos += n;
        Ok(taken)
    }

    /// The next `N` bytes, by value.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.take(N)?.try_into().map_err(|_| CodecError::Truncated)
    }

    /// The next scalar.
    #[inline]
    pub fn get<T: LeScalar>(&mut self) -> Result<T, CodecError> {
        T::get(self)
    }

    /// The next flag; a byte `b` other than 0 and 1 is refused as `bad(b)`.
    #[inline]
    pub fn flag<E: From<CodecError>>(&mut self, bad: impl FnOnce(u8) -> E) -> Result<bool, E> {
        match self.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(bad(other)),
        }
    }

    /// An optional record: a presence flag (refused as in [`Reader::flag`]), then the
    /// record through `get`.
    #[inline]
    pub fn opt<T, E: From<CodecError>>(
        &mut self,
        bad: impl FnOnce(u8) -> E,
        get: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<Option<T>, E> {
        self.flag(bad)?.then(|| get(self)).transpose()
    }

    /// Refuses bytes left over.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(CodecError::Trailing { extra }),
        }
    }
}

impl<L: RunLen> Reader<'_, L> {
    /// A run's declared count, refused unless the bytes left hold that many elements
    /// of at least `elem_bytes` each.
    #[inline]
    pub fn run_len(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let declared = self.get::<L>()?.try_into().unwrap_or(usize::MAX);
        if declared.saturating_mul(elem_bytes) > self.remaining() {
            return Err(CodecError::Oversized { declared });
        }
        Ok(declared)
    }

    /// A run of scalars, in a new vector.
    #[inline]
    pub fn run<T: LeScalar>(&mut self) -> Result<Vec<T>, CodecError> {
        let mut out = Vec::new();
        self.run_into(&mut out).map(|()| out)
    }

    /// A run of scalars, over `out` (no allocation once it is large enough; untouched
    /// when the run is refused).
    #[inline]
    pub fn run_into<T: LeScalar>(&mut self, out: &mut Vec<T>) -> Result<(), CodecError> {
        let size = std::mem::size_of::<T>();
        let declared = self.run_len(size)?;
        let bytes = self.take(declared * size)?;
        out.clear();
        T::extend_from_le(out, bytes);
        Ok(())
    }

    /// A run of records of at least `min_bytes` each, each read by `get`.
    #[inline]
    pub fn run_with<T, E: From<CodecError>>(
        &mut self,
        min_bytes: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let count = self.run_len(min_bytes)?;
        (0..count).map(|_| get(self)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_round_trip_at_either_width() {
        let values: Vec<f32> = (0..257)
            .map(|i| f32::from_bits(0x9e37_79b9_u32.wrapping_mul(i + 1)))
            .collect();
        let mut reference = (values.len() as u32).to_le_bytes().to_vec();
        for v in &values {
            reference.extend_from_slice(&v.to_le_bytes());
        }
        let mut narrow = Vec::new();
        put_run::<u32, f32>(&mut narrow, &values);
        assert_eq!(narrow, reference);
        let mut wide = Vec::new();
        put_run::<u64, f32>(&mut wide, &values);
        assert_eq!(wide[..8], (values.len() as u64).to_le_bytes());
        assert_eq!(wide[8..], reference[4..]);
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let mut r = Reader::<u32>::new(&narrow);
        assert_eq!(r.run::<f32>().map(bits), Ok(bits(values.clone())));
        assert_eq!(r.finish(), Ok(()));
        let mut r = Reader::<u64>::new(&wide);
        assert_eq!(r.run::<f32>().map(bits), Ok(bits(values)));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn refusals_are_typed() {
        let mut r = Reader::<u32>::new(&[1, 2, 3]);
        assert_eq!(r.get::<u32>(), Err(CodecError::Truncated));
        assert_eq!(r.get::<u16>(), Ok(0x0201));
        assert_eq!(r.finish(), Err(CodecError::Trailing { extra: 1 }));
        // A count the bytes left cannot hold is refused before the run is read.
        let bytes = [u64::MAX.to_le_bytes(), [0; 8]].concat();
        let mut r = Reader::<u64>::new(&bytes);
        assert_eq!(
            r.run::<u64>(),
            Err(CodecError::Oversized {
                declared: usize::MAX
            })
        );
        let mut out = vec![7u64];
        let mut r = Reader::<u32>::new(&[2, 0, 0, 0, 9]);
        assert_eq!(
            r.run_into(&mut out),
            Err(CodecError::Oversized { declared: 2 })
        );
        assert_eq!(out, [7], "a refused run leaves the buffer alone");
    }
}
