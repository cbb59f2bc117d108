//! The TUT-Profile design and profiling flow (Figures 1 and 2 of the
//! paper), as a machine-readable description.
//!
//! The actual pipeline is wired together by the downstream crates
//! (`tut-codegen` → `tut-sim` → `tut-profiling`); this module names the
//! stages so reports, documentation, and the figure-reproduction binary
//! agree on terminology.

/// One stage of the Figure 2 design/profiling flow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FlowStage {
    /// UML 2.0 modelling with TUT-Profile (application, platform library,
    /// platform mapping).
    Modelling,
    /// Profile design-rule validation (the "strict rules", §2.2).
    Validation,
    /// Model parsing: extract process-group information from the XML form.
    ModelParsing,
    /// Automatic code generation (application C code).
    CodeGeneration,
    /// Compilation and linking against run-time libraries and custom
    /// functions.
    Compilation,
    /// Simulation producing the simulation log-file.
    Simulation,
    /// Profiling: combine the log-file with the process-group information.
    Profiling,
    /// Implementation: executable application on the target platform.
    Implementation,
}

impl FlowStage {
    /// All stages in flow order.
    pub const ALL: [FlowStage; 8] = [
        FlowStage::Modelling,
        FlowStage::Validation,
        FlowStage::ModelParsing,
        FlowStage::CodeGeneration,
        FlowStage::Compilation,
        FlowStage::Simulation,
        FlowStage::Profiling,
        FlowStage::Implementation,
    ];

    /// Short stage name as used in Figure 2.
    pub fn name(self) -> &'static str {
        match self {
            FlowStage::Modelling => "UML 2.0 with TUT-Profile",
            FlowStage::Validation => "Design-rule validation",
            FlowStage::ModelParsing => "Model parsing",
            FlowStage::CodeGeneration => "Code generation",
            FlowStage::Compilation => "Compilation and linking",
            FlowStage::Simulation => "Simulation",
            FlowStage::Profiling => "Profiling",
            FlowStage::Implementation => "Implementation",
        }
    }

    /// The artefact the stage produces.
    pub fn artefact(self) -> &'static str {
        match self {
            FlowStage::Modelling => "application / platform library / mapping models",
            FlowStage::Validation => "rule-violation report",
            FlowStage::ModelParsing => "process group information",
            FlowStage::CodeGeneration => "application C code",
            FlowStage::Compilation => "executable application",
            FlowStage::Simulation => "simulation log-file",
            FlowStage::Profiling => "profiling report",
            FlowStage::Implementation => "real-time embedded system",
        }
    }

    /// The crate of this repository implementing the stage.
    fn implemented_by(self) -> &'static str {
        match self {
            FlowStage::Modelling => "tut-uml + tut-profile",
            FlowStage::Validation => "tut-profile (rules)",
            FlowStage::ModelParsing => "tut-profiling (model stage)",
            FlowStage::CodeGeneration => "tut-codegen",
            FlowStage::Compilation => {
                "tut-codegen (emitted sources) / tut-sim (executable semantics)"
            }
            FlowStage::Simulation => "tut-sim",
            FlowStage::Profiling => "tut-profiling",
            FlowStage::Implementation => "tut-sim prototype execution",
        }
    }
}

impl std::fmt::Display for FlowStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Renders the Figure 2 flow as text.
pub fn render_flow() -> String {
    let mut out = String::from("TUT-Profile design and profiling flow (Figure 2)\n");
    for (i, stage) in FlowStage::ALL.iter().enumerate() {
        out.push_str(&format!(
            "  {}. {:<28} -> {:<38} [{}]\n",
            i + 1,
            stage.name(),
            stage.artefact(),
            stage.implemented_by()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_has_eight_stages_in_order() {
        assert_eq!(FlowStage::ALL.len(), 8);
        assert_eq!(FlowStage::ALL[0], FlowStage::Modelling);
        assert_eq!(FlowStage::ALL[7], FlowStage::Implementation);
    }

    #[test]
    fn render_mentions_key_artefacts() {
        let text = render_flow();
        for token in [
            "simulation log-file",
            "profiling report",
            "application C code",
        ] {
            assert!(text.contains(token), "flow missing `{token}`");
        }
    }

    #[test]
    fn stages_name_their_crates() {
        assert!(FlowStage::Simulation.implemented_by().contains("tut-sim"));
        assert!(FlowStage::Profiling
            .implemented_by()
            .contains("tut-profiling"));
    }
}
