//! Runtime values and data types shared by the action language, signal
//! payloads, and tagged values.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// The data types understood by the action language and signal parameters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// Boolean.
    Bool,
    /// Byte buffer (frames, payloads).
    Bytes,
    /// UTF-8 string (identifiers, log text).
    Str,
}

impl DataType {
    /// The C type the code generator emits for this data type.
    pub fn c_type(self) -> &'static str {
        match self {
            DataType::Int => "int64_t",
            DataType::Bool => "bool",
            DataType::Bytes => "tut_bytes_t",
            DataType::Str => "const char *",
        }
    }

    /// A zero/empty value of this type.
    pub fn default_value(self) -> Value {
        match self {
            DataType::Int => Value::Int(0),
            DataType::Bool => Value::Bool(false),
            DataType::Bytes => Value::Bytes(Bytes::new()),
            DataType::Str => Value::Str(String::new()),
        }
    }

    /// The name used in XMI serialisation.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "Int",
            DataType::Bool => "Bool",
            DataType::Bytes => "Bytes",
            DataType::Str => "Str",
        }
    }

    /// Parses a type from its XMI name.
    pub fn from_name(name: &str) -> Option<DataType> {
        match name {
            "Int" => Some(DataType::Int),
            "Bool" => Some(DataType::Bool),
            "Bytes" => Some(DataType::Bytes),
            "Str" => Some(DataType::Str),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime value: variable contents, signal payload field, or the result
/// of evaluating an action-language expression.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Boolean value.
    Bool(bool),
    /// Byte-buffer value (a shared view; cloning it copies no bytes).
    Bytes(Bytes),
    /// String value.
    Str(String),
}

impl Value {
    /// Returns the [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Bool(_) => DataType::Bool,
            Value::Bytes(_) => DataType::Bytes,
            Value::Str(_) => DataType::Str,
        }
    }

    /// Returns the integer if this is an `Int` value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean if this is a `Bool` value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the bytes if this is a `Bytes` value.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the string if this is a `Str` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True if the value is "truthy": non-zero int, `true`, non-empty buffer
    /// or string. Used by guard evaluation when a non-bool leaks into a
    /// boolean position.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Int(i) => *i != 0,
            Value::Bool(b) => *b,
            Value::Bytes(b) => !b.is_empty(),
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// An abstract "size" of the value, used for communication-cost
    /// accounting: bytes for buffers/strings, 8 for ints, 1 for bools.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Int(_) => 8,
            Value::Bool(_) => 1,
            Value::Bytes(b) => b.len(),
            Value::Str(s) => s.len(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// An immutable byte buffer that shares its storage: the payload of
/// [`Value::Bytes`].
///
/// A `Bytes` is a view `start..end` into a reference-counted allocation,
/// so cloning one (a send, a multicast copy, `buf = $frame`) bumps a count
/// instead of copying the buffer, and the `slice` builtin is O(1). Writes
/// go through copy-on-write: `+` appends in place only when the left
/// operand is its allocation's sole owner, and [`Bytes::make_mut`] copies
/// a shared view before handing out `&mut [u8]`, so a write through one
/// value never shows through another.
///
/// Equality, hashing and `Debug` go by content and match `Vec<u8>`'s.
#[derive(Clone, Default)]
pub struct Bytes {
    /// The shared allocation; `None` for an empty buffer.
    buf: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (allocates nothing).
    pub const fn new() -> Bytes {
        Bytes {
            buf: None,
            start: 0,
            end: 0,
        }
    }

    /// The bytes `range` (relative to this view) as a new buffer.
    ///
    /// The result shares this buffer's allocation unless it is shorter
    /// than half of that allocation; then it is copied, so a small slice
    /// never pins a large buffer and every view covers at least half of
    /// the allocation it keeps alive.
    ///
    /// # Panics
    ///
    /// Panics when `range` is out of bounds or decreasing, like slice
    /// indexing.
    pub(crate) fn slice(&self, range: Range<usize>) -> Bytes {
        let bytes = &self[range.clone()];
        match &self.buf {
            Some(buf) if !bytes.is_empty() && 2 * bytes.len() >= buf.len() => Bytes {
                buf: Some(Arc::clone(buf)),
                start: self.start + range.start,
                end: self.start + range.end,
            },
            _ => Bytes::from(bytes.to_vec()),
        }
    }

    /// Appends `tail`.
    ///
    /// When this view is the only owner of its allocation the bytes are
    /// appended in place, after dropping whatever lies past the view and,
    /// once the dead prefix is at least as long as the live bytes, the
    /// prefix too. Otherwise the view is copied once into a new buffer
    /// with room to grow, and other owners keep seeing the old bytes.
    pub(crate) fn extend_from_slice(&mut self, tail: &[u8]) {
        if tail.is_empty() {
            return;
        }
        if let Some(vec) = self.buf.as_mut().and_then(Arc::get_mut) {
            vec.truncate(self.end);
            if self.start > 0 && self.start >= self.end - self.start {
                vec.drain(..self.start);
                self.start = 0;
            }
            vec.extend_from_slice(tail);
            self.end = vec.len();
            return;
        }
        let mut vec = Vec::with_capacity(2 * (self.len() + tail.len()));
        vec.extend_from_slice(self);
        vec.extend_from_slice(tail);
        *self = Bytes::from(vec);
    }

    /// Mutable access to the bytes, copying them first unless this view
    /// is the only owner of its allocation (copy-on-write).
    pub fn make_mut(&mut self) -> &mut [u8] {
        if self.buf.as_mut().and_then(Arc::get_mut).is_none() {
            *self = Bytes::from(self.to_vec());
        }
        match self.buf.as_mut().and_then(Arc::get_mut) {
            Some(vec) => &mut vec[self.start..self.end],
            None => &mut [],
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf[self.start..self.end],
            None => &[],
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        if v.is_empty() {
            return Bytes::new();
        }
        Bytes {
            start: 0,
            end: v.len(),
            buf: Some(Arc::new(v)),
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    /// Hashes the content exactly as `[u8]` (and so `Vec<u8>`) does, so
    /// fingerprints do not depend on how a buffer is shared.
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_types_match() {
        assert_eq!(Value::Int(3).data_type(), DataType::Int);
        assert_eq!(Value::Bool(true).data_type(), DataType::Bool);
        assert_eq!(Value::from(vec![1]).data_type(), DataType::Bytes);
        assert_eq!(Value::Str("x".into()).data_type(), DataType::Str);
    }

    #[test]
    fn default_values_are_zeroish() {
        assert_eq!(DataType::Int.default_value(), Value::Int(0));
        assert_eq!(DataType::Bool.default_value(), Value::Bool(false));
        assert!(!DataType::Bytes.default_value().is_truthy());
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(-1).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Str("a".into()).is_truthy());
        assert!(!Value::from(vec![]).is_truthy());
    }

    #[test]
    fn size_accounting() {
        assert_eq!(Value::Int(9).size_bytes(), 8);
        assert_eq!(Value::from(vec![0; 42]).size_bytes(), 42);
        assert_eq!(Value::Bool(true).size_bytes(), 1);
    }

    #[test]
    fn type_names_round_trip() {
        for t in [
            DataType::Int,
            DataType::Bool,
            DataType::Bytes,
            DataType::Str,
        ] {
            assert_eq!(DataType::from_name(t.name()), Some(t));
        }
        assert_eq!(DataType::from_name("Float"), None);
    }

    fn shares(a: &Bytes, b: &Bytes) -> bool {
        match (&a.buf, &b.buf) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    #[test]
    fn slice_is_a_view_unless_shorter_than_half_the_allocation() {
        let buf = Bytes::from((0..100).collect::<Vec<u8>>());
        let tail = buf.slice(40..100);
        assert_eq!(&tail[..], &(40..100).collect::<Vec<u8>>()[..]);
        assert!(shares(&buf, &tail), "60 of 100 bytes: a view");
        let half = tail.slice(10..60);
        assert_eq!(half.first(), Some(&50));
        assert!(shares(&buf, &half), "50 of 100 bytes: still a view");
        // Measured against the allocation, not the view it came from:
        // 49 of `tail`'s 60 bytes is most of `tail` but under half of
        // the 100-byte allocation it would pin.
        let small = tail.slice(0..49);
        assert_eq!(&small[..], &(40..89).collect::<Vec<u8>>()[..]);
        assert!(!shares(&buf, &small), "49 of 100 bytes: copied");
        assert_eq!(small.buf.as_ref().map(|b| b.len()), Some(49));
        assert!(buf.slice(7..7).buf.is_none(), "empty slices pin nothing");
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics_like_indexing() {
        let _ = Bytes::from(vec![1, 2, 3]).slice(2..4);
    }

    #[test]
    fn append_is_in_place_only_for_the_sole_owner() {
        let mut owned = Bytes::from(Vec::with_capacity(64));
        owned.extend_from_slice(&[1, 2]);
        let before = owned.as_ptr();
        owned.extend_from_slice(&[3]);
        assert_eq!(owned.as_ptr(), before, "sole owner: appended in place");
        assert_eq!(&owned[..], &[1, 2, 3]);

        let alias = owned.clone();
        owned.extend_from_slice(&[4]);
        assert_ne!(owned.as_ptr(), before, "shared: copied before the append");
        assert!(!shares(&owned, &alias));
        assert_eq!(&owned[..], &[1, 2, 3, 4]);
        assert_eq!(&alias[..], &[1, 2, 3], "the other owner is unchanged");
        assert!(
            owned.buf.as_ref().unwrap().capacity() > owned.len(),
            "the copy leaves room to grow"
        );
    }

    #[test]
    fn append_to_a_sole_view_drops_the_tail_and_a_dominant_prefix() {
        let mut view = Bytes::from((0..10).collect::<Vec<u8>>()).slice(2..8);
        view.extend_from_slice(&[99]);
        assert_eq!(&view[..], &[2, 3, 4, 5, 6, 7, 99]);
        assert_eq!(view.start, 2, "a prefix shorter than the live bytes stays");
        assert_eq!(
            view.buf.as_ref().unwrap().len(),
            9,
            "bytes past the view went"
        );

        let mut view = Bytes::from((0..10).collect::<Vec<u8>>()).slice(5..10);
        view.extend_from_slice(&[99]);
        assert_eq!(&view[..], &[5, 6, 7, 8, 9, 99]);
        assert_eq!(
            view.start, 0,
            "a prefix as long as the live bytes is dropped"
        );
        assert_eq!(view.buf.as_ref().unwrap().len(), 6);
    }

    #[test]
    fn make_mut_copies_a_shared_buffer() {
        let original = Bytes::from(vec![1, 2, 3]);
        let mut copy = original.clone();
        copy.make_mut()[0] = 9;
        assert_eq!(&original[..], &[1, 2, 3]);
        assert_eq!(&copy[..], &[9, 2, 3]);
        let before = copy.as_ptr();
        copy.make_mut()[1] = 8;
        assert_eq!(copy.as_ptr(), before, "sole owner: written in place");
        assert_eq!(&copy[..], &[9, 8, 3]);
        assert_eq!(Bytes::new().make_mut(), &mut [] as &mut [u8]);
    }

    #[test]
    fn equality_hash_and_debug_go_by_content() {
        use std::collections::hash_map::DefaultHasher;
        fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }
        let whole = Bytes::from(vec![7, 1, 2, 3]);
        let view = whole.slice(1..4);
        let fresh = Bytes::from(vec![1, 2, 3]);
        assert_eq!(view, fresh);
        assert_eq!(hash_of(&view), hash_of(&fresh));
        assert_eq!(
            hash_of(&view),
            hash_of(&vec![1u8, 2, 3]),
            "hashes like Vec<u8>"
        );
        assert_eq!(format!("{view:?}"), format!("{:?}", vec![1u8, 2, 3]));
        assert_eq!(Bytes::new(), Bytes::from(Vec::new()));
        assert_eq!(hash_of(&Bytes::new()), hash_of(&Vec::<u8>::new()));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(vec![1u8, 2]).as_bytes(), Some(&[1u8, 2][..]));
    }
}
