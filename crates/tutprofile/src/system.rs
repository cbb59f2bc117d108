//! [`SystemModel`]: a UML model bundled with its TUT-Profile applications.

use tut_profile_core::{Applications, DiagnosticBag, ProfileError, StereotypeId, TagValue};
use tut_uml::ids::ElementRef;
use tut_uml::Model;

use crate::application::ApplicationView;
use crate::mapping::MappingView;
use crate::platform::PlatformView;
use crate::profile_def::TutProfile;

/// A complete TUT-Profile design: the UML model, its stereotype
/// applications, and the profile handles.
///
/// This is the value that flows through the whole tool chain — validation,
/// code generation, simulation, profiling, and exploration all take a
/// `&SystemModel`.
#[derive(Clone, PartialEq, Debug)]
pub struct SystemModel {
    /// The profile (stereotype handles + definitions).
    pub tut: TutProfile,
    /// The UML model.
    pub model: Model,
    /// The stereotype applications on `model`.
    pub apps: Applications,
}

impl SystemModel {
    /// Creates an empty system with a fresh TUT-Profile.
    pub fn new(model_name: impl Into<String>) -> SystemModel {
        SystemModel {
            tut: TutProfile::new(),
            model: Model::new(model_name),
            apps: Applications::new(),
        }
    }

    /// Applies a stereotype chosen from the profile, e.g.
    /// `system.apply(class, |tut| tut.application)`.
    ///
    /// # Errors
    ///
    /// Propagates [`ProfileError`] from the application (metaclass
    /// mismatch, double application).
    pub fn apply(
        &mut self,
        element: impl Into<ElementRef>,
        pick: impl FnOnce(&TutProfile) -> StereotypeId,
    ) -> Result<(), ProfileError> {
        let stereotype = pick(&self.tut);
        self.apps.apply(self.tut.profile(), element, stereotype)
    }

    /// Applies a stereotype and sets tagged values in one call.
    ///
    /// # Errors
    ///
    /// Propagates [`ProfileError`] from application or tag setting.
    pub fn apply_with(
        &mut self,
        element: impl Into<ElementRef>,
        pick: impl FnOnce(&TutProfile) -> StereotypeId,
        tags: impl IntoIterator<Item = (&'static str, TagValue)>,
    ) -> Result<(), ProfileError> {
        let stereotype = pick(&self.tut);
        self.apps
            .apply_with(self.tut.profile(), element, stereotype, tags)
    }

    /// Sets a tagged value on an already applied stereotype.
    ///
    /// # Errors
    ///
    /// Propagates [`ProfileError`] (unknown tag, type mismatch, not
    /// applied).
    pub fn set_tag(
        &mut self,
        element: impl Into<ElementRef>,
        pick: impl FnOnce(&TutProfile) -> StereotypeId,
        tag: &str,
        value: impl Into<TagValue>,
    ) -> Result<(), ProfileError> {
        let stereotype = pick(&self.tut);
        self.apps
            .set_tag(self.tut.profile(), element, stereotype, tag, value)
    }

    /// Reads a tagged value (explicit or default).
    pub fn tag_value(
        &self,
        element: impl Into<ElementRef>,
        stereotype: StereotypeId,
        tag: &str,
    ) -> Option<&TagValue> {
        self.apps
            .tag_value(self.tut.profile(), element, stereotype, tag)
    }

    /// True if the element carries the stereotype (or a specialisation).
    pub fn has(&self, element: impl Into<ElementRef>, stereotype: StereotypeId) -> bool {
        self.apps
            .has_stereotype(self.tut.profile(), element, stereotype)
    }

    /// The application-model view (§3.1).
    pub fn application(&self) -> ApplicationView<'_> {
        ApplicationView::new(self)
    }

    /// The platform-model view (§3.2).
    pub fn platform(&self) -> PlatformView<'_> {
        PlatformView::new(self)
    }

    /// The mapping view (§3.3).
    pub fn mapping(&self) -> MappingView<'_> {
        MappingView::new(self)
    }

    /// Serialises the model and its profile application to one XML
    /// document (the artefact the profiling tool parses).
    pub fn to_xml(&self) -> String {
        tut_profile_core::interchange::write_document(&self.model, self.tut.profile(), &self.apps)
    }

    /// Parses a system back from [`SystemModel::to_xml`] output.
    ///
    /// # Errors
    ///
    /// Propagates interchange errors.
    pub fn from_xml(text: &str) -> Result<SystemModel, ProfileError> {
        let tut = TutProfile::new();
        let (model, apps) = tut_profile_core::interchange::read_document(text, tut.profile())?;
        Ok(SystemModel { tut, model, apps })
    }

    /// The guillemet label of the first stereotype applied to `element`,
    /// for diagram rendering.
    pub fn stereotype_label(&self, element: ElementRef) -> Option<String> {
        self.apps
            .stereotypes_of(element)
            .first()
            .map(|a| self.tut.profile().get(a.stereotype).name().to_owned())
    }

    /// Runs UML well-formedness checks (including the action-language
    /// type checker) *and* the TUT-Profile design rules, returning every
    /// finding as one severity-sorted [`DiagnosticBag`].
    pub fn check(&self) -> DiagnosticBag {
        let mut bag = tut_uml::validate::check_model(&self.model);
        let rules = crate::rules::tut_profile_rules(&self.tut);
        bag.merge(rules.check_all(&self.model, self.tut.profile(), &self.apps));
        bag.sort();
        bag
    }

    /// Like [`SystemModel::check`] but rendered as one string per finding,
    /// `[severity] code: message (element)`.
    pub fn validate(&self) -> Vec<String> {
        self.check()
            .iter()
            .map(|d| {
                let mut line = format!("[{}] {}: {}", d.severity, d.code, d.message);
                if let Some(e) = &d.element {
                    line.push_str(&format!(" ({e})"));
                }
                line
            })
            .collect()
    }

    /// Like [`SystemModel::validate`] but only error-severity findings.
    pub fn validate_errors(&self) -> Vec<String> {
        self.check()
            .iter()
            .filter(|d| d.is_error())
            .map(|d| {
                let mut line = format!("[{}] {}: {}", d.severity, d.code, d.message);
                if let Some(e) = &d.element {
                    line.push_str(&format!(" ({e})"));
                }
                line
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_and_tag_through_system() {
        let mut s = SystemModel::new("S");
        let c = s.model.add_class("App");
        s.apply_with(c, |t| t.application, [("Priority", TagValue::Int(3))])
            .unwrap();
        assert!(s.has(c, s.tut.application));
        assert_eq!(
            s.tag_value(c, s.tut.application, "Priority"),
            Some(&TagValue::Int(3))
        );
        // Default still resolves.
        assert_eq!(
            s.tag_value(c, s.tut.application, "RealTimeType"),
            Some(&TagValue::Enum("none".into()))
        );
    }

    #[test]
    fn xml_round_trip_preserves_system() {
        let mut s = SystemModel::new("S");
        let c = s.model.add_class("App");
        s.apply(c, |t| t.application).unwrap();
        s.set_tag(c, |t| t.application, "CodeMemory", 4096i64)
            .unwrap();
        let text = s.to_xml();
        let parsed = SystemModel::from_xml(&text).unwrap();
        assert_eq!(parsed.model, s.model);
        assert_eq!(parsed.apps, s.apps);
    }

    #[test]
    fn stereotype_label_for_diagrams() {
        let mut s = SystemModel::new("S");
        let c = s.model.add_class("App");
        assert_eq!(s.stereotype_label(c.into()), None);
        s.apply(c, |t| t.application).unwrap();
        assert_eq!(s.stereotype_label(c.into()), Some("Application".into()));
    }
}
