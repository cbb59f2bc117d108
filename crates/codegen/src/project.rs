//! Whole-system code generation.

use std::fmt::Write as _;

use tut_profile::SystemModel;
use tut_uml::instances::{InstanceTree, RoutingTable};

use crate::machine::{emit_header, emit_source};
use crate::runtime::{banner, RUNTIME_HEADER};

/// One generated output file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GeneratedFile {
    /// Relative file name (e.g. `management.c`).
    pub name: String,
    /// Full file contents.
    pub contents: String,
}

/// Errors produced by project generation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CodegenError {
    /// The model has no `«Application»` top-level class.
    NoApplication,
    /// Instance unfolding failed (cyclic composition), or an instantiated
    /// state machine has no initial state.
    BadStructure(String),
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::NoApplication => {
                f.write_str("model has no \u{ab}Application\u{bb} top-level class")
            }
            CodegenError::BadStructure(msg) => write!(f, "bad structure: {msg}"),
        }
    }
}

impl std::error::Error for CodegenError {}

impl CodegenError {
    /// Stable diagnostic code for this error (`E0401` / `E0402`).
    pub fn code(&self) -> &'static str {
        match self {
            CodegenError::NoApplication => "E0401",
            CodegenError::BadStructure(_) => "E0402",
        }
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Runs only the structural prerequisites of [`generate_project`] and
/// returns the diagnostic a dry run would report, if any. Both the cold
/// `repro check` pipeline and the incremental query engine go through
/// this one function so their findings are byte-identical.
pub fn dry_run_diagnostic(system: &SystemModel) -> Option<tut_diag::Diagnostic> {
    generate_project(system)
        .err()
        .map(|e| tut_diag::Diagnostic::error(e.code(), e.to_string()))
}

/// Generates the complete C project for a system: `tut_rt.h`, one
/// `.h`/`.c` pair per `«ApplicationComponent»`, a `main.c` harness with
/// the process registry and the signal wiring derived from the model's
/// composite structure, and a `Makefile`.
///
/// # Errors
///
/// Returns [`CodegenError`] when the model has no application top, its
/// composition is cyclic, or an instantiated machine has no initial
/// state.
pub fn generate_project(system: &SystemModel) -> Result<Vec<GeneratedFile>, CodegenError> {
    let app = system.application();
    let top = app.top().ok_or(CodegenError::NoApplication)?;
    let tree = InstanceTree::build(&system.model, top)
        .map_err(|e| CodegenError::BadStructure(e.to_string()))?;
    let routing = RoutingTable::build(&system.model, &tree);
    let model = &system.model;

    let mut files = vec![GeneratedFile {
        name: "tut_rt.h".into(),
        contents: RUNTIME_HEADER.to_owned(),
    }];

    // One module per distinct active class that is actually instantiated.
    let mut classes: Vec<_> = tree
        .active_instances(model)
        .into_iter()
        .map(|i| tree.node(i).class)
        .collect();
    classes.sort();
    classes.dedup();
    for &class in &classes {
        let behavior = model.class(class).behavior();
        if let Some(sm) = behavior.map(|id| model.state_machine(id)) {
            if sm.initial().is_none() {
                return Err(CodegenError::BadStructure(format!(
                    "state machine `{}` has no initial state",
                    sm.name()
                )));
            }
        }
        let module = sanitize(model.class(class).name()).to_lowercase();
        files.push(GeneratedFile {
            name: format!("{module}.h"),
            contents: emit_header(model, class),
        });
        files.push(GeneratedFile {
            name: format!("{module}.c"),
            contents: emit_source(model, class),
        });
    }

    // main.c: contexts, registration, wiring, init, run. It is the one
    // translation unit that carries the runtime implementation.
    let mut main_c = banner(model.name());
    let _ = writeln!(main_c, "#define TUT_RT_IMPLEMENTATION");
    let _ = writeln!(main_c, "#include \"tut_rt.h\"");
    for &class in &classes {
        let module = sanitize(model.class(class).name()).to_lowercase();
        let _ = writeln!(main_c, "#include \"{module}.h\"");
    }
    let _ = writeln!(main_c);
    let actives = tree.active_instances(model);
    for &instance in &actives {
        let node = tree.node(instance);
        let module = sanitize(model.class(node.class).name()).to_lowercase();
        let ident = sanitize(&tree.display_name(model, instance));
        let display = tree.display_name(model, instance);
        let _ = writeln!(main_c, "static {module}_ctx_t ctx_{ident};");
        let _ = writeln!(
            main_c,
            "static tut_rt_process_t proc_{ident} = {{ \"{display}\", &ctx_{ident}, {module}_dispatch }};"
        );
    }
    let _ = writeln!(main_c);
    let _ = writeln!(main_c, "int main(void) {{");
    for &instance in &actives {
        let ident = sanitize(&tree.display_name(model, instance));
        let _ = writeln!(main_c, "    tut_rt_register(&proc_{ident});");
    }
    // Wiring from the precomputed routing table, in deterministic order.
    let mut wires: Vec<(String, String, String, String)> = Vec::new();
    for (&(sender, port, signal), receivers) in routing.iter() {
        for receiver in receivers {
            wires.push((
                tree.display_name(model, sender),
                model.port(port).name().to_owned(),
                model.signal(signal).name().to_owned(),
                tree.display_name(model, receiver.instance),
            ));
        }
    }
    wires.sort();
    for (sender, port, signal, receiver) in wires {
        let _ = writeln!(
            main_c,
            "    tut_rt_wire(\"{sender}\", \"{port}\", \"{signal}\", \"{receiver}\");"
        );
    }
    for &instance in &actives {
        let node = tree.node(instance);
        let module = sanitize(model.class(node.class).name()).to_lowercase();
        let ident = sanitize(&tree.display_name(model, instance));
        let _ = writeln!(main_c, "    {module}_init(&ctx_{ident}, &proc_{ident});");
    }
    let _ = writeln!(main_c, "    tut_rt_run(100000);");
    let _ = writeln!(main_c, "    return 0;");
    let _ = writeln!(main_c, "}}");
    files.push(GeneratedFile {
        name: "main.c".into(),
        contents: main_c,
    });

    // Makefile.
    let sources: Vec<String> = classes
        .iter()
        .map(|&c| format!("{}.c", sanitize(model.class(c).name()).to_lowercase()))
        .chain(["main.c".to_owned()])
        .collect();
    let mut makefile = String::new();
    let binary = sanitize(model.name()).to_lowercase();
    let _ = writeln!(makefile, "CC ?= cc");
    let _ = writeln!(makefile, "CFLAGS ?= -std=c99 -Wall -Wextra -O2");
    let _ = writeln!(makefile, "SRCS = {}", sources.join(" "));
    let _ = writeln!(makefile);
    let _ = writeln!(makefile, "{binary}: $(SRCS) tut_rt.h");
    let _ = writeln!(makefile, "\t$(CC) $(CFLAGS) -o $@ $(SRCS)");
    let _ = writeln!(makefile);
    let _ = writeln!(makefile, "clean:");
    let _ = writeln!(makefile, "\trm -f {binary}");
    files.push(GeneratedFile {
        name: "Makefile".into(),
        contents: makefile,
    });

    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tut_uml::action::{Expr, Statement};
    use tut_uml::statemachine::{StateMachine, Trigger};
    use tut_uml::value::DataType;

    fn sample_system() -> SystemModel {
        let mut s = SystemModel::new("GenSys");
        let top = s.model.add_class("Top");
        s.apply(top, |t| t.application).unwrap();
        let sig = s.model.add_signal("Data");
        s.model.signal_mut(sig).add_param("n", DataType::Int);

        let worker = s.model.add_class("Worker");
        s.apply(worker, |t| t.application_component).unwrap();
        let pin = s.model.add_port(worker, "in");
        let pout = s.model.add_port(worker, "out");
        s.model.port_mut(pin).add_provided(sig);
        s.model.port_mut(pout).add_required(sig);
        let mut sm = StateMachine::new("WorkerB");
        let st = sm.add_state("S");
        sm.set_initial(st);
        sm.add_transition(
            st,
            st,
            Trigger::Signal(sig),
            None,
            vec![Statement::Send {
                port: "out".into(),
                signal: sig,
                args: vec![Expr::param("n")],
            }],
        );
        s.model.add_state_machine(worker, sm);

        let a = s.model.add_part(top, "a", worker);
        let b = s.model.add_part(top, "b", worker);
        for part in [a, b] {
            s.apply(part, |t| t.application_process).unwrap();
        }
        s.model.add_connector(
            top,
            "ab",
            tut_uml::model::ConnectorEnd {
                part: Some(a),
                port: pout,
            },
            tut_uml::model::ConnectorEnd {
                part: Some(b),
                port: pin,
            },
        );
        s
    }

    #[test]
    fn project_contains_all_files() {
        let files = generate_project(&sample_system()).unwrap();
        let names: Vec<_> = files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["tut_rt.h", "worker.h", "worker.c", "main.c", "Makefile"]
        );
    }

    #[test]
    fn main_registers_and_wires() {
        let files = generate_project(&sample_system()).unwrap();
        let main_c = &files.iter().find(|f| f.name == "main.c").unwrap().contents;
        assert!(main_c.contains("tut_rt_register(&proc_a);"));
        assert!(main_c.contains("tut_rt_register(&proc_b);"));
        assert!(main_c.contains("tut_rt_wire(\"a\", \"out\", \"Data\", \"b\");"));
        assert!(main_c.contains("worker_init(&ctx_a, &proc_a);"));
        assert!(main_c.contains("tut_rt_run("));
    }

    #[test]
    fn makefile_lists_sources() {
        let files = generate_project(&sample_system()).unwrap();
        let makefile = &files
            .iter()
            .find(|f| f.name == "Makefile")
            .unwrap()
            .contents;
        assert!(makefile.contains("worker.c main.c"));
        assert!(makefile.contains("-std=c99"));
    }

    #[test]
    fn missing_application_rejected() {
        let s = SystemModel::new("Empty");
        assert!(matches!(
            generate_project(&s),
            Err(CodegenError::NoApplication)
        ));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_project(&sample_system()).unwrap();
        let b = generate_project(&sample_system()).unwrap();
        assert_eq!(a, b);
    }
}
