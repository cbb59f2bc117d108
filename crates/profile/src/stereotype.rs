//! Stereotype and tagged-value definitions.

use std::fmt;

use tut_uml::ids::Metaclass;

/// Identifies a stereotype within a [`crate::Profile`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StereotypeId(u32);

impl StereotypeId {
    /// Creates an id from a raw index (used by deserialisation and tests).
    pub fn from_index(index: usize) -> StereotypeId {
        StereotypeId(index as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StereotypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "st{}", self.0)
    }
}

/// The type of a tagged value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TagType {
    /// 64-bit signed integer (e.g. `CodeMemory`, `BufferSize`).
    Int,
    /// Boolean (e.g. `Fixed`).
    Bool,
    /// Free-form string (e.g. `ID`).
    Str,
    /// Real number (e.g. `Area`, `Power`).
    Real,
    /// One of a fixed set of literals (e.g. `RealTimeType ∈
    /// {hard, soft, none}`).
    Enum(Vec<String>),
}

impl TagType {
    /// Human-readable description used in error messages and Table 2/3
    /// renderings.
    pub fn describe(&self) -> String {
        match self {
            TagType::Int => "Int".to_owned(),
            TagType::Bool => "Bool".to_owned(),
            TagType::Str => "Str".to_owned(),
            TagType::Real => "Real".to_owned(),
            TagType::Enum(literals) => format!("Enum({})", literals.join("|")),
        }
    }

    /// Checks that `value` conforms to this type.
    pub(crate) fn admits(&self, value: &TagValue) -> bool {
        match (self, value) {
            (TagType::Int, TagValue::Int(_)) => true,
            (TagType::Bool, TagValue::Bool(_)) => true,
            (TagType::Str, TagValue::Str(_)) => true,
            (TagType::Real, TagValue::Real(_)) => true,
            // Ints are accepted where reals are expected.
            (TagType::Real, TagValue::Int(_)) => true,
            (TagType::Enum(literals), TagValue::Enum(lit)) => literals.contains(lit),
            _ => false,
        }
    }
}

impl fmt::Display for TagType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A tagged value attached to a stereotype application.
#[derive(Clone, PartialEq, Debug)]
pub enum TagValue {
    /// Integer value.
    Int(i64),
    /// Boolean value.
    Bool(bool),
    /// String value.
    Str(String),
    /// Real value.
    Real(f64),
    /// Enumeration literal.
    Enum(String),
}

impl TagValue {
    /// Returns the integer content of `Int` (and of `Real` with integral
    /// value) tags.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            TagValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean content if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            TagValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the string content if this is a `Str` or `Enum`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TagValue::Str(s) | TagValue::Enum(s) => Some(s),
            _ => None,
        }
    }

    /// Short description of the value's type for error messages.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            TagValue::Int(_) => "Int",
            TagValue::Bool(_) => "Bool",
            TagValue::Str(_) => "Str",
            TagValue::Real(_) => "Real",
            TagValue::Enum(_) => "Enum",
        }
    }
}

impl fmt::Display for TagValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagValue::Int(i) => write!(f, "{i}"),
            TagValue::Bool(b) => write!(f, "{b}"),
            TagValue::Str(s) => write!(f, "{s}"),
            TagValue::Real(r) => write!(f, "{r}"),
            TagValue::Enum(e) => write!(f, "{e}"),
        }
    }
}

impl From<i64> for TagValue {
    fn from(v: i64) -> Self {
        TagValue::Int(v)
    }
}
impl From<bool> for TagValue {
    fn from(v: bool) -> Self {
        TagValue::Bool(v)
    }
}
impl From<f64> for TagValue {
    fn from(v: f64) -> Self {
        TagValue::Real(v)
    }
}
impl From<&str> for TagValue {
    fn from(v: &str) -> Self {
        TagValue::Str(v.to_owned())
    }
}

/// The definition of one tagged value on a stereotype (a row of Table 2/3
/// in the paper).
#[derive(Clone, PartialEq, Debug)]
pub struct TagDef {
    /// Tag name (e.g. `CodeMemory`).
    pub name: String,
    /// Tag type.
    pub tag_type: TagType,
    /// Default used when the designer leaves the tag unset.
    pub default: Option<TagValue>,
    /// One-line description (the "Description" column of Tables 2–3).
    pub description: String,
}

/// A stereotype: a named extension of one UML metaclass with tagged-value
/// definitions, possibly specialising another stereotype.
#[derive(Clone, PartialEq, Debug)]
pub struct Stereotype {
    pub(crate) name: String,
    pub(crate) extends: Metaclass,
    pub(crate) description: String,
    pub(crate) tags: Vec<TagDef>,
    pub(crate) specializes: Option<StereotypeId>,
}

impl Stereotype {
    /// The stereotype name (without guillemets).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The metaclass this stereotype extends.
    pub fn extends(&self) -> Metaclass {
        self.extends
    }

    /// One-line description (the "Description" column of Table 1).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Tag definitions declared directly on this stereotype (not
    /// inherited ones — [`crate::Profile::tag_def`] searches the whole
    /// chain).
    pub fn own_tags(&self) -> &[TagDef] {
        &self.tags
    }

    /// The stereotype this one specialises, if any.
    pub(crate) fn specializes(&self) -> Option<StereotypeId> {
        self.specializes
    }

    /// The guillemet form, e.g. `«PlatformComponent»`.
    pub fn guillemets(&self) -> String {
        format!("\u{ab}{}\u{bb}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_types_admit_matching_values() {
        assert!(TagType::Int.admits(&TagValue::Int(1)));
        assert!(!TagType::Int.admits(&TagValue::Bool(true)));
        assert!(TagType::Real.admits(&TagValue::Real(1.5)));
        assert!(
            TagType::Real.admits(&TagValue::Int(2)),
            "ints widen to real"
        );
        let rt = TagType::Enum(vec!["hard".into(), "soft".into(), "none".into()]);
        assert!(rt.admits(&TagValue::Enum("soft".into())));
        assert!(!rt.admits(&TagValue::Enum("firm".into())));
        assert!(!rt.admits(&TagValue::Str("soft".into())));
    }

    #[test]
    fn tag_value_accessors() {
        assert_eq!(TagValue::Int(5).as_int(), Some(5));
        assert_eq!(TagValue::Enum("dsp".into()).as_str(), Some("dsp"));
        assert_eq!(TagValue::Bool(true).as_bool(), Some(true));
        assert_eq!(TagValue::Str("x".into()).as_int(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(TagValue::Real(2.5).to_string(), "2.5");
        assert_eq!(
            TagType::Enum(vec!["a".into(), "b".into()]).to_string(),
            "Enum(a|b)"
        );
        assert_eq!(StereotypeId::from_index(3).to_string(), "st3");
    }
}
