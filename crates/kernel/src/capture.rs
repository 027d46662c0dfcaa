//! State capture primitives.
//!
//! A stateless model checker does not *store* states, but the paper's
//! coverage experiments (Table 2) require extracting a finite
//! representation of a program state on demand. [`StateWriter`] is the
//! sink guests write their abstracted state into; [`Capture`] is the trait
//! the shared state of a program implements. The companion `chess-state`
//! crate builds heap canonicalization and coverage tracking on top.

use std::fmt;

/// Trait for types that can write an abstraction of themselves into a
/// [`StateWriter`].
///
/// Implementations must be *canonical*: two behaviorally equivalent states
/// must produce identical byte sequences. For states that contain heap
/// object identities, use the canonicalizer from `chess-state` to
/// renumber them in first-visit order.
///
/// # Examples
///
/// ```
/// use chess_kernel::{Capture, StateWriter};
///
/// struct Counter { value: u64 }
///
/// impl Capture for Counter {
///     fn capture(&self, w: &mut StateWriter) {
///         w.write_u64(self.value);
///     }
/// }
/// ```
pub trait Capture {
    /// Writes the canonical state representation into `w`.
    fn capture(&self, w: &mut StateWriter);

    /// The named cells of this state, matching the `(name, index)` pairs
    /// guests use in their `shared_effects` declarations. The default —
    /// no cells — means the state is opaque to per-cell diffing, and
    /// effect validation falls back to whole-state comparison.
    fn cells(&self) -> Vec<(&'static str, u32)> {
        Vec::new()
    }

    /// Writes the canonical representation of one named cell into `w`.
    ///
    /// Called only for pairs returned by [`Capture::cells`]; the default
    /// writes nothing (every cell compares equal, disabling per-cell
    /// validation).
    fn capture_cell(&self, name: &'static str, index: u32, w: &mut StateWriter) {
        let _ = (name, index, w);
    }
}

impl Capture for () {
    fn capture(&self, _w: &mut StateWriter) {}
}

macro_rules! capture_scalar {
    ($($ty:ty),*) => {
        $(impl Capture for $ty {
            fn capture(&self, w: &mut StateWriter) {
                w.write_u64(*self as u64);
            }
        })*
    };
}

capture_scalar!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

impl<T: Capture> Capture for Vec<T> {
    fn capture(&self, w: &mut StateWriter) {
        w.write_usize(self.len());
        for item in self {
            item.capture(w);
        }
    }
}

impl<T: Capture> Capture for Option<T> {
    fn capture(&self, w: &mut StateWriter) {
        match self {
            None => w.write_u8(0),
            Some(v) => {
                w.write_u8(1);
                v.capture(w);
            }
        }
    }
}

impl<T: Capture> Capture for std::collections::VecDeque<T> {
    fn capture(&self, w: &mut StateWriter) {
        w.write_usize(self.len());
        for item in self {
            item.capture(w);
        }
    }
}

impl<A: Capture, B: Capture> Capture for (A, B) {
    fn capture(&self, w: &mut StateWriter) {
        self.0.capture(w);
        self.1.capture(w);
    }
}

impl<A: Capture, B: Capture, C: Capture> Capture for (A, B, C) {
    fn capture(&self, w: &mut StateWriter) {
        self.0.capture(w);
        self.1.capture(w);
        self.2.capture(w);
    }
}

/// An append-only byte sink for state capture, with a 64-bit FNV-1a
/// fingerprint computed incrementally.
///
/// The full byte vector is the exact state signature (used for visited
/// sets where collisions must not conflate states); the fingerprint is a
/// cheap 64-bit summary.
pub struct StateWriter {
    bytes: Vec<u8>,
    hash: u64,
}

impl Clone for StateWriter {
    fn clone(&self) -> Self {
        StateWriter {
            bytes: self.bytes.clone(),
            hash: self.hash,
        }
    }

    // Reuses the byte buffer (see `Kernel::reset_from`).
    fn clone_from(&mut self, source: &Self) {
        self.bytes.clone_from(&source.bytes);
        self.hash = source.hash;
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a hash state through additional bytes, as if they
/// had been appended to the writer whose state is `h`. Lets the kernel's
/// fingerprint cache compose a segment hash from separately cached parts
/// without re-hashing the prefix.
pub(crate) fn fnv_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

impl StateWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        StateWriter {
            bytes: Vec::new(),
            hash: FNV_OFFSET,
        }
    }

    /// Appends a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.bytes.push(v);
        self.hash = (self.hash ^ v as u64).wrapping_mul(FNV_PRIME);
    }

    /// Appends a `bool` as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Appends a `u32` in little-endian order.
    pub fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Appends a `u64` in little-endian order.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Appends an `i64` in little-endian order.
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Appends a `usize` as a `u64`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Appends raw bytes (length-prefixed so adjacent fields cannot alias).
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.write_usize(v.len());
        for &b in v {
            self.write_u8(b);
        }
    }

    /// Appends a string (length-prefixed UTF-8).
    pub fn write_str(&mut self, v: &str) {
        self.write_bytes(v.as_bytes());
    }

    /// Returns the number of bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Returns the incremental 64-bit FNV-1a fingerprint of the bytes
    /// written so far.
    pub fn fingerprint(&self) -> u64 {
        self.hash
    }

    /// Resets the writer to the empty state, keeping the byte buffer's
    /// allocation for reuse across captures.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.hash = FNV_OFFSET;
    }

    /// Consumes the writer and returns the exact byte signature.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Borrows the exact byte signature.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl Default for StateWriter {
    fn default() -> Self {
        StateWriter::new()
    }
}

impl fmt::Debug for StateWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "StateWriter({} bytes, fp={:016x})",
            self.bytes.len(),
            self.hash
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = StateWriter::new();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = StateWriter::new();
        b.write_u32(2);
        b.write_u32(1);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = StateWriter::new();
        c.write_u32(1);
        c.write_u32(2);
        assert_eq!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.as_bytes(), c.as_bytes());
    }

    #[test]
    fn length_prefix_prevents_aliasing() {
        let mut a = StateWriter::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = StateWriter::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn empty_writer() {
        let w = StateWriter::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.fingerprint(), FNV_OFFSET);
    }

    #[test]
    fn clear_resets_bytes_and_hash() {
        let mut w = StateWriter::new();
        w.write_u64(42);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.fingerprint(), FNV_OFFSET);
        w.write_u32(7);
        let mut fresh = StateWriter::new();
        fresh.write_u32(7);
        assert_eq!(w.as_bytes(), fresh.as_bytes());
        assert_eq!(w.fingerprint(), fresh.fingerprint());
    }

    #[test]
    fn scalar_round_trip() {
        let mut w = StateWriter::new();
        w.write_bool(true);
        w.write_u64(u64::MAX);
        w.write_i64(-1);
        w.write_str("hi");
        assert_eq!(w.len(), 1 + 8 + 8 + (8 + 2));
    }
}
