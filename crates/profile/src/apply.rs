//! Applying stereotypes to model elements and storing tagged values.

use std::collections::BTreeMap;

use tut_uml::ids::ElementRef;

use crate::error::{ProfileError, Result};
use crate::profile::Profile;
use crate::stereotype::{StereotypeId, TagValue};

/// One stereotype applied to one element, with its tagged values.
#[derive(Clone, PartialEq, Debug)]
pub struct AppliedStereotype {
    /// The applied stereotype.
    pub stereotype: StereotypeId,
    /// Explicitly set tagged values by tag name (defaults are resolved at
    /// query time, not stored).
    pub values: BTreeMap<String, TagValue>,
}

/// The set of stereotype applications for one model.
///
/// Kept separate from the [`tut_uml::Model`] so the base model remains pure
/// UML — exactly the separation the second-class extension mechanism
/// guarantees (§2).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Applications {
    entries: BTreeMap<ElementRef, Vec<AppliedStereotype>>,
}

impl Applications {
    /// Creates an empty application set.
    pub fn new() -> Applications {
        Applications::default()
    }

    /// Applies `stereotype` to `element`.
    ///
    /// # Errors
    ///
    /// * [`ProfileError::MetaclassMismatch`] if the element's metaclass is
    ///   not the one the stereotype extends.
    /// * [`ProfileError::AlreadyApplied`] if it is already applied.
    pub fn apply(
        &mut self,
        profile: &Profile,
        element: impl Into<ElementRef>,
        stereotype: StereotypeId,
    ) -> Result<()> {
        let element = element.into();
        let st = profile.get(stereotype);
        if st.extends() != element.metaclass() {
            return Err(ProfileError::MetaclassMismatch {
                stereotype: st.name().to_owned(),
                expected: st.extends(),
                found: element.metaclass(),
                element,
            });
        }
        let entry = self.entries.entry(element).or_default();
        if entry.iter().any(|a| a.stereotype == stereotype) {
            return Err(ProfileError::AlreadyApplied {
                stereotype: st.name().to_owned(),
                element,
            });
        }
        entry.push(AppliedStereotype {
            stereotype,
            values: BTreeMap::new(),
        });
        Ok(())
    }

    /// Applies a stereotype and sets tagged values in one call; convenient
    /// for model-building code.
    ///
    /// # Errors
    ///
    /// As [`Applications::apply`] and [`Applications::set_tag`].
    pub fn apply_with(
        &mut self,
        profile: &Profile,
        element: impl Into<ElementRef>,
        stereotype: StereotypeId,
        tags: impl IntoIterator<Item = (&'static str, TagValue)>,
    ) -> Result<()> {
        let element = element.into();
        self.apply(profile, element, stereotype)?;
        for (name, value) in tags {
            self.set_tag(profile, element, stereotype, name, value)?;
        }
        Ok(())
    }

    /// Sets a tagged value on an applied stereotype.
    ///
    /// # Errors
    ///
    /// * [`ProfileError::NotApplied`] if the stereotype is not applied to
    ///   the element.
    /// * [`ProfileError::UnknownTag`] if the tag is not defined on the
    ///   stereotype or its ancestors.
    /// * [`ProfileError::TagTypeMismatch`] if the value has the wrong type.
    pub fn set_tag(
        &mut self,
        profile: &Profile,
        element: impl Into<ElementRef>,
        stereotype: StereotypeId,
        tag: &str,
        value: impl Into<TagValue>,
    ) -> Result<()> {
        let element = element.into();
        let value = value.into();
        let st = profile.get(stereotype);
        let def = profile
            .tag_def(stereotype, tag)
            .ok_or_else(|| ProfileError::UnknownTag {
                stereotype: st.name().to_owned(),
                tag: tag.to_owned(),
            })?;
        if !def.tag_type.admits(&value) {
            return Err(ProfileError::TagTypeMismatch {
                stereotype: st.name().to_owned(),
                tag: tag.to_owned(),
                expected: def.tag_type.describe(),
                found: value.type_name().to_owned(),
            });
        }
        let applied = self
            .entries
            .get_mut(&element)
            .and_then(|apps| apps.iter_mut().find(|a| a.stereotype == stereotype))
            .ok_or_else(|| ProfileError::NotApplied {
                stereotype: st.name().to_owned(),
                element,
            })?;
        applied.values.insert(tag.to_owned(), value);
        Ok(())
    }

    /// The stereotypes applied to `element` (empty slice when none).
    pub fn stereotypes_of(&self, element: impl Into<ElementRef>) -> &[AppliedStereotype] {
        self.entries
            .get(&element.into())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// True if `element` carries `stereotype` or any specialisation of it.
    pub fn has_stereotype(
        &self,
        profile: &Profile,
        element: impl Into<ElementRef>,
        stereotype: StereotypeId,
    ) -> bool {
        self.stereotypes_of(element)
            .iter()
            .any(|a| profile.is_kind_of(a.stereotype, stereotype))
    }

    /// Returns the explicitly set tagged value, falling back to the tag's
    /// declared default; `None` when the stereotype is not applied, the tag
    /// is unknown, or neither value nor default exists.
    pub fn tag_value<'a>(
        &'a self,
        profile: &'a Profile,
        element: impl Into<ElementRef>,
        stereotype: StereotypeId,
        tag: &str,
    ) -> Option<&'a TagValue> {
        let applied = self
            .stereotypes_of(element)
            .iter()
            .find(|a| profile.is_kind_of(a.stereotype, stereotype))?;
        if let Some(v) = applied.values.get(tag) {
            return Some(v);
        }
        profile
            .tag_def(applied.stereotype, tag)
            .and_then(|def| def.default.as_ref())
    }

    /// Iterates over all `(element, applied)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ElementRef, &AppliedStereotype)> + '_ {
        self.entries
            .iter()
            .flat_map(|(element, apps)| apps.iter().map(move |a| (*element, a)))
    }

    /// Total number of stereotype applications.
    pub fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// True if nothing is applied.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every application from `element`, returning how many were
    /// removed. Used by exploration tools when re-stereotyping a model.
    pub fn clear_element(&mut self, element: impl Into<ElementRef>) -> usize {
        self.entries
            .remove(&element.into())
            .map(|v| v.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stereotype::TagType;
    use tut_uml::ids::Metaclass;
    use tut_uml::Model;

    fn setup() -> (Profile, StereotypeId, StereotypeId, Model) {
        let mut p = Profile::new("P");
        let seg = p
            .stereotype("CommunicationSegment", Metaclass::Class)
            .tag_full("DataWidth", TagType::Int, Some(32i64.into()), "")
            .tag(
                "Arbitration",
                TagType::Enum(vec!["priority".into(), "round-robin".into()]),
            )
            .finish();
        let hibi = p
            .specialize("HIBISegment", seg)
            .tag("Frequency", TagType::Int)
            .finish();
        let model = Model::new("M");
        (p, seg, hibi, model)
    }

    #[test]
    fn apply_and_query() {
        let (p, seg, _, mut m) = setup();
        let c = m.add_class("Bus");
        let mut apps = Applications::new();
        apps.apply(&p, c, seg).unwrap();
        assert!(apps.has_stereotype(&p, c, seg));
        assert_eq!(apps.len(), 1);
        // Default is visible without an explicit set.
        assert_eq!(
            apps.tag_value(&p, c, seg, "DataWidth"),
            Some(&TagValue::Int(32))
        );
        apps.set_tag(&p, c, seg, "DataWidth", 64i64).unwrap();
        assert_eq!(
            apps.tag_value(&p, c, seg, "DataWidth"),
            Some(&TagValue::Int(64))
        );
    }

    #[test]
    fn metaclass_mismatch_rejected() {
        let (p, seg, _, mut m) = setup();
        let c = m.add_class("Bus");
        let port = m.add_port(c, "p");
        let mut apps = Applications::new();
        let err = apps.apply(&p, port, seg).unwrap_err();
        assert!(matches!(err, ProfileError::MetaclassMismatch { .. }));
    }

    #[test]
    fn double_application_rejected() {
        let (p, seg, _, mut m) = setup();
        let c = m.add_class("Bus");
        let mut apps = Applications::new();
        apps.apply(&p, c, seg).unwrap();
        assert!(matches!(
            apps.apply(&p, c, seg),
            Err(ProfileError::AlreadyApplied { .. })
        ));
    }

    #[test]
    fn tag_type_checked() {
        let (p, seg, _, mut m) = setup();
        let c = m.add_class("Bus");
        let mut apps = Applications::new();
        apps.apply(&p, c, seg).unwrap();
        assert!(matches!(
            apps.set_tag(&p, c, seg, "DataWidth", true),
            Err(ProfileError::TagTypeMismatch { .. })
        ));
        assert!(matches!(
            apps.set_tag(&p, c, seg, "NoSuchTag", 1i64),
            Err(ProfileError::UnknownTag { .. })
        ));
        assert!(matches!(
            apps.set_tag(&p, c, seg, "Arbitration", TagValue::Enum("tdma".into())),
            Err(ProfileError::TagTypeMismatch { .. })
        ));
        apps.set_tag(&p, c, seg, "Arbitration", TagValue::Enum("priority".into()))
            .unwrap();
    }

    #[test]
    fn specialisation_counts_as_base() {
        let (p, seg, hibi, mut m) = setup();
        let c = m.add_class("HibiBus");
        let mut apps = Applications::new();
        apps.apply(&p, c, hibi).unwrap();
        apps.set_tag(&p, c, hibi, "Frequency", 100i64).unwrap();
        // Queries through the base stereotype see the specialised one.
        assert!(apps.has_stereotype(&p, c, seg));
        assert_eq!(
            apps.tag_value(&p, c, seg, "Frequency"),
            Some(&TagValue::Int(100))
        );
        assert_eq!(
            apps.tag_value(&p, c, seg, "DataWidth"),
            Some(&TagValue::Int(32)),
            "inherited default resolves through base query"
        );
    }

    #[test]
    fn set_tag_requires_application() {
        let (p, seg, _, mut m) = setup();
        let c = m.add_class("Bus");
        let mut apps = Applications::new();
        assert!(matches!(
            apps.set_tag(&p, c, seg, "DataWidth", 1i64),
            Err(ProfileError::NotApplied { .. })
        ));
    }

    #[test]
    fn apply_with_sets_tags() {
        let (p, seg, _, mut m) = setup();
        let c = m.add_class("Bus");
        let mut apps = Applications::new();
        apps.apply_with(
            &p,
            c,
            seg,
            [
                ("DataWidth", TagValue::Int(16)),
                ("Arbitration", TagValue::Enum("round-robin".into())),
            ],
        )
        .unwrap();
        assert_eq!(
            apps.tag_value(&p, c, seg, "Arbitration"),
            Some(&TagValue::Enum("round-robin".into()))
        );
    }

    #[test]
    fn clear_element_removes_applications() {
        let (p, seg, _, mut m) = setup();
        let c = m.add_class("Bus");
        let mut apps = Applications::new();
        apps.apply(&p, c, seg).unwrap();
        assert_eq!(apps.clear_element(c), 1);
        assert!(apps.is_empty());
        assert_eq!(apps.clear_element(c), 0);
    }
}
