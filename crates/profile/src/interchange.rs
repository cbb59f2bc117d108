//! XML interchange for profiles and stereotype applications.
//!
//! [`write_document`] produces one XML document holding the UML model *and*
//! its profile application — the artefact the paper's profiling tool parses
//! ("the XML presentation of the UML 2.0 model is parsed to gather process
//! group information", §4.4). [`read_document`] parses it back.

use tut_uml::xml::XmlNode;
use tut_uml::Model;

use crate::apply::Applications;
use crate::error::{ProfileError, Result};
use crate::profile::Profile;
use crate::stereotype::{TagType, TagValue};

/// Profile interchange error code (drivers map [`ProfileError`]s raised
/// while decoding a `<profileApplication>` subtree onto this).
pub const E_PROFILE_INTERCHANGE: &str = "E0103";

/// Serialises the stereotype applications as an XML subtree
/// (`<profileApplication>`).
pub(crate) fn applications_to_xml_node<'a>(
    profile: &'a Profile,
    applications: &'a Applications,
) -> XmlNode<'a> {
    let mut root = XmlNode::new("profileApplication");
    root.set_attr("profile", profile.name());
    for (element, applied) in applications.iter() {
        let node = root.add_child(XmlNode::new("appliedStereotype"));
        node.set_attr("element", element.to_string());
        node.set_attr("stereotype", profile.get(applied.stereotype).name());
        for (tag, value) in &applied.values {
            let v = node.add_child(XmlNode::new("taggedValue"));
            v.set_attr("name", tag.as_str());
            v.set_attr("type", value.type_name());
            v.set_attr("data", value.to_string());
        }
    }
    root
}

/// Decodes stereotype applications from the subtree produced by
/// the model writer (the `profileApplication` element of a system
/// document).
///
/// # Errors
///
/// Returns [`ProfileError`] when stereotype names don't resolve in
/// `profile`, elements are malformed, or tagged values fail type checks.
pub fn applications_from_xml_node(profile: &Profile, node: &XmlNode<'_>) -> Result<Applications> {
    if node.name != "profileApplication" {
        return Err(ProfileError::Interchange(format!(
            "expected `profileApplication`, found `{}`",
            node.name
        )));
    }
    let mut applications = Applications::new();
    for applied in node.children_named("appliedStereotype") {
        let element = tut_uml::xmi::parse_element_ref(applied.required_attr("element")?)?;
        let stereotype = profile.require(applied.required_attr("stereotype")?)?;
        applications.apply(profile, element, stereotype)?;
        for tagged in applied.children_named("taggedValue") {
            let name = tagged.required_attr("name")?;
            let value = decode_tag_value(
                profile.tag_def(stereotype, name).map(|d| &d.tag_type),
                tagged.required_attr("type")?,
                tagged.required_attr("data")?,
            )?;
            applications.set_tag(profile, element, stereotype, name, value)?;
        }
    }
    Ok(applications)
}

fn decode_tag_value(declared: Option<&TagType>, type_name: &str, data: &str) -> Result<TagValue> {
    let value =
        match type_name {
            "Int" => TagValue::Int(data.parse().map_err(|_| {
                ProfileError::Interchange(format!("bad Int tagged value `{data}`"))
            })?),
            "Bool" => TagValue::Bool(data == "true"),
            "Str" => TagValue::Str(data.to_owned()),
            "Real" => TagValue::Real(data.parse().map_err(|_| {
                ProfileError::Interchange(format!("bad Real tagged value `{data}`"))
            })?),
            "Enum" => TagValue::Enum(data.to_owned()),
            other => {
                return Err(ProfileError::Interchange(format!(
                    "unknown tagged-value type `{other}`"
                )))
            }
        };
    // When the profile declares the tag, double-check conformance early so
    // errors point at the document rather than a later query.
    if let Some(ty) = declared {
        if !ty.admits(&value) {
            return Err(ProfileError::Interchange(format!(
                "tagged value `{data}` does not conform to declared type {ty}"
            )));
        }
    }
    Ok(value)
}

/// Serialises a model together with its stereotype applications into one
/// XML document.
pub fn write_document(model: &Model, profile: &Profile, applications: &Applications) -> String {
    let mut root = tut_uml::xmi::to_xml_node(model);
    root.add_child(applications_to_xml_node(profile, applications));
    root.to_xml_string()
}

/// Parses a document produced by [`write_document`].
///
/// # Errors
///
/// Returns [`ProfileError`] on malformed XML, unknown stereotypes, or
/// tagged-value mismatches.
pub fn read_document(text: &str, profile: &Profile) -> Result<(Model, Applications)> {
    let root = XmlNode::parse(text)?;
    let model = tut_uml::xmi::from_xml_node(&root)?;
    let applications = match root.child("profileApplication") {
        Some(node) => applications_from_xml_node(profile, node)?,
        None => Applications::new(),
    };
    Ok((model, applications))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tut_uml::ids::Metaclass;

    fn sample() -> (Model, Profile, Applications) {
        let mut profile = Profile::new("TUT");
        let comp = profile
            .stereotype("Component", Metaclass::Class)
            .describe("a platform component")
            .tag_full("Area", TagType::Real, Some(1.0.into()), "")
            .tag(
                "Type",
                TagType::Enum(vec!["general".into(), "dsp".into(), "hw".into()]),
            )
            .finish();
        let cpu = profile
            .specialize("Processor", comp)
            .tag("Frequency", TagType::Int)
            .finish();

        let mut model = Model::new("M");
        let class = model.add_class("Nios");
        let other = model.add_class("Crc");

        let mut apps = Applications::new();
        apps.apply(&profile, class, cpu).unwrap();
        apps.set_tag(&profile, class, cpu, "Frequency", 50i64)
            .unwrap();
        apps.set_tag(
            &profile,
            class,
            cpu,
            "Type",
            TagValue::Enum("general".into()),
        )
        .unwrap();
        apps.apply(&profile, other, comp).unwrap();
        apps.set_tag(&profile, other, comp, "Area", 0.25).unwrap();
        (model, profile, apps)
    }

    #[test]
    fn document_round_trips() {
        let (model, profile, apps) = sample();
        let text = write_document(&model, &profile, &apps);
        let (model2, apps2) = read_document(&text, &profile).unwrap();
        assert_eq!(model2, model);
        assert_eq!(apps2, apps);
    }

    #[test]
    fn document_without_applications_reads_empty() {
        let model = Model::new("Plain");
        let profile = Profile::new("P");
        let text = tut_uml::xmi::to_xml(&model);
        let (_, apps) = read_document(&text, &profile).unwrap();
        assert!(apps.is_empty());
    }

    #[test]
    fn unknown_stereotype_in_document_rejected() {
        let (model, profile, apps) = sample();
        let text = write_document(&model, &profile, &apps);
        let other_profile = Profile::new("Empty");
        assert!(read_document(&text, &other_profile).is_err());
    }

    #[test]
    fn nonconforming_tagged_value_rejected() {
        let (model, profile, apps) = sample();
        let text =
            write_document(&model, &profile, &apps).replace("data=\"general\"", "data=\"quantum\"");
        assert!(read_document(&text, &profile).is_err());
    }
}
