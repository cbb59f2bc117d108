//! Profile definition: a named collection of stereotypes.

use std::fmt;

use tut_uml::ids::Metaclass;

use crate::error::{ProfileError, Result};
use crate::stereotype::{Stereotype, StereotypeId, TagDef, TagType, TagValue};

/// A UML profile: a coherent set of stereotypes for one domain.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Profile {
    name: String,
    stereotypes: Vec<Stereotype>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new(name: impl Into<String>) -> Profile {
        Profile {
            name: name.into(),
            stereotypes: Vec::new(),
        }
    }

    /// The profile name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Starts defining a stereotype that extends `metaclass`. Finish with
    /// [`StereotypeBuilder::finish`].
    pub fn stereotype(
        &mut self,
        name: impl Into<String>,
        metaclass: Metaclass,
    ) -> StereotypeBuilder<'_> {
        StereotypeBuilder {
            profile: self,
            stereotype: Stereotype {
                name: name.into(),
                extends: metaclass,
                description: String::new(),
                tags: Vec::new(),
                specializes: None,
            },
        }
    }

    /// Starts defining a stereotype that specialises `parent`, inheriting
    /// its metaclass and (virtually) its tag definitions.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not belong to this profile (a profile
    /// definition bug).
    pub fn specialize(
        &mut self,
        name: impl Into<String>,
        parent: StereotypeId,
    ) -> StereotypeBuilder<'_> {
        let metaclass = self.get(parent).extends();
        StereotypeBuilder {
            profile: self,
            stereotype: Stereotype {
                name: name.into(),
                extends: metaclass,
                description: String::new(),
                tags: Vec::new(),
                specializes: Some(parent),
            },
        }
    }

    /// Returns a stereotype by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this profile.
    pub fn get(&self, id: StereotypeId) -> &Stereotype {
        &self.stereotypes[id.index()]
    }

    /// Iterates over all stereotypes with ids, in definition order.
    pub fn stereotypes(&self) -> impl Iterator<Item = (StereotypeId, &Stereotype)> + '_ {
        self.stereotypes
            .iter()
            .enumerate()
            .map(|(i, s)| (StereotypeId::from_index(i), s))
    }

    /// Number of stereotypes in the profile.
    pub fn len(&self) -> usize {
        self.stereotypes.len()
    }

    /// True if the profile has no stereotypes.
    pub fn is_empty(&self) -> bool {
        self.stereotypes.is_empty()
    }

    /// Finds a stereotype by name.
    pub fn find(&self, name: &str) -> Option<StereotypeId> {
        self.stereotypes()
            .find(|(_, s)| s.name() == name)
            .map(|(id, _)| id)
    }

    /// Finds a stereotype by name or returns an error.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::UnknownStereotype`] when absent.
    pub fn require(&self, name: &str) -> Result<StereotypeId> {
        self.find(name)
            .ok_or_else(|| ProfileError::UnknownStereotype(name.to_owned()))
    }

    /// True if `id` is `ancestor` or (transitively) specialises it.
    pub fn is_kind_of(&self, id: StereotypeId, ancestor: StereotypeId) -> bool {
        let mut current = Some(id);
        while let Some(c) = current {
            if c == ancestor {
                return true;
            }
            current = self.get(c).specializes();
        }
        false
    }

    /// Looks up a tag definition by name, searching the specialisation
    /// chain from `id` outward, so a redefined tag shadows the inherited
    /// definition.
    pub fn tag_def(&self, id: StereotypeId, tag: &str) -> Option<&TagDef> {
        let mut current = Some(id);
        while let Some(c) = current {
            if let Some(def) = self.get(c).own_tags().iter().find(|d| d.name == tag) {
                return Some(def);
            }
            current = self.get(c).specializes();
        }
        None
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "profile `{}` ({} stereotypes)",
            self.name,
            self.stereotypes.len()
        )
    }
}

/// Builder for one stereotype; obtained from [`Profile::stereotype`] or
/// [`Profile::specialize`].
#[derive(Debug)]
pub struct StereotypeBuilder<'a> {
    profile: &'a mut Profile,
    stereotype: Stereotype,
}

impl StereotypeBuilder<'_> {
    /// Sets the one-line description (Table 1's "Description" column).
    pub fn describe(mut self, description: impl Into<String>) -> Self {
        self.stereotype.description = description.into();
        self
    }

    /// Declares a tag with no default.
    pub fn tag(self, name: impl Into<String>, tag_type: TagType) -> Self {
        self.tag_full(name, tag_type, None, "")
    }

    /// Declares a tag with every field spelled out.
    ///
    /// # Panics
    ///
    /// Panics if the default value does not conform to the tag type (a
    /// profile definition bug).
    pub fn tag_full(
        mut self,
        name: impl Into<String>,
        tag_type: TagType,
        default: Option<TagValue>,
        description: impl Into<String>,
    ) -> Self {
        if let Some(d) = &default {
            assert!(
                tag_type.admits(d),
                "default for tag does not match its type"
            );
        }
        self.stereotype.tags.push(TagDef {
            name: name.into(),
            tag_type,
            default,
            description: description.into(),
        });
        self
    }

    /// Adds the stereotype to the profile and returns its id.
    pub fn finish(self) -> StereotypeId {
        let id = StereotypeId::from_index(self.profile.stereotypes.len());
        self.profile.stereotypes.push(self.stereotype);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrapper_profile() -> (Profile, StereotypeId, StereotypeId) {
        let mut p = Profile::new("P");
        let base = p
            .stereotype("CommunicationWrapper", Metaclass::Class)
            .describe("Defines wrapper parameters of a communication agent")
            .tag("Address", TagType::Int)
            .tag_full("BufferSize", TagType::Int, Some(8i64.into()), "")
            .finish();
        let hibi = p
            .specialize("HIBIWrapper", base)
            .tag("MaxTime", TagType::Int)
            .finish();
        (p, base, hibi)
    }

    #[test]
    fn find_and_require() {
        let (p, base, _) = wrapper_profile();
        assert_eq!(p.find("CommunicationWrapper"), Some(base));
        assert!(p.find("Nope").is_none());
        assert!(p.require("Nope").is_err());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn specialisation_inherits_metaclass_and_tags() {
        let (p, base, hibi) = wrapper_profile();
        assert_eq!(p.get(hibi).extends(), Metaclass::Class);
        assert!(p.is_kind_of(hibi, base));
        assert!(!p.is_kind_of(base, hibi));
        for name in ["Address", "BufferSize", "MaxTime"] {
            assert!(
                p.tag_def(hibi, name).is_some(),
                "{name} visible on the specialisation"
            );
        }
        assert!(p.tag_def(base, "MaxTime").is_none());
    }

    #[test]
    fn redefined_tags_shadow_inherited_ones() {
        let mut p = Profile::new("P");
        let base = p
            .stereotype("Base", Metaclass::Class)
            .tag_full("Size", TagType::Int, Some(1i64.into()), "")
            .finish();
        let derived = p
            .specialize("Derived", base)
            .tag_full("Size", TagType::Int, Some(2i64.into()), "")
            .finish();
        let def = p.tag_def(derived, "Size").unwrap();
        assert_eq!(def.default, Some(TagValue::Int(2)));
        let def = p.tag_def(base, "Size").unwrap();
        assert_eq!(def.default, Some(TagValue::Int(1)));
    }

    #[test]
    #[should_panic(expected = "default for tag does not match its type")]
    fn mismatched_default_panics() {
        let mut p = Profile::new("P");
        p.stereotype("S", Metaclass::Class)
            .tag_full("T", TagType::Bool, Some(3i64.into()), "")
            .finish();
    }

    #[test]
    fn guillemets_render() {
        let (p, base, _) = wrapper_profile();
        assert_eq!(p.get(base).guillemets(), "\u{ab}CommunicationWrapper\u{bb}");
    }

    #[test]
    fn display_summarises() {
        let (p, ..) = wrapper_profile();
        assert_eq!(p.to_string(), "profile `P` (2 stereotypes)");
    }
}
