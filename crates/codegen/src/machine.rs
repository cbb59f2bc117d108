//! EFSM → C translation: one module per functional component.

use std::fmt::Write as _;

use tut_uml::action::Statement;
use tut_uml::ids::ClassId;
use tut_uml::statemachine::{StateMachine, Trigger};
use tut_uml::Model;

use crate::expr::emit_expr;

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Emits C statements for an action list, indented by `depth` levels.
fn emit_statements(model: &Model, statements: &[Statement], depth: usize, out: &mut String) {
    let indent = "    ".repeat(depth);
    for statement in statements {
        match statement {
            Statement::Assign { var, expr } => {
                let _ = writeln!(out, "{indent}ctx->var_{var} = {};", emit_expr(expr));
            }
            Statement::Send { port, signal, args } => {
                let signal_name = model.signal(*signal).name();
                if args.is_empty() {
                    let _ = writeln!(
                        out,
                        "{indent}tut_rt_send(self, \"{port}\", \"{signal_name}\", 0, NULL, NULL);"
                    );
                } else {
                    let values: Vec<String> = args.iter().map(emit_expr).collect();
                    let names: Vec<String> = model
                        .signal(*signal)
                        .params()
                        .iter()
                        .map(|p| format!("\"{}\"", p.name))
                        .collect();
                    let _ = writeln!(
                        out,
                        "{indent}tut_rt_send(self, \"{port}\", \"{signal_name}\", {}, (const tut_rt_value_t[]){{{}}}, (const char *const[]){{{}}});",
                        args.len(),
                        values.join(", "),
                        names.join(", ")
                    );
                }
            }
            Statement::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let _ = writeln!(out, "{indent}if (tut_rt_truthy({})) {{", emit_expr(cond));
                emit_statements(model, then_branch, depth + 1, out);
                if else_branch.is_empty() {
                    let _ = writeln!(out, "{indent}}}");
                } else {
                    let _ = writeln!(out, "{indent}}} else {{");
                    emit_statements(model, else_branch, depth + 1, out);
                    let _ = writeln!(out, "{indent}}}");
                }
            }
            Statement::While {
                cond,
                body,
                max_iter,
            } => {
                let _ = writeln!(out, "{indent}{{");
                let _ = writeln!(out, "{indent}    uint32_t tut_guard = 0;");
                let _ = writeln!(
                    out,
                    "{indent}    while (tut_rt_truthy({})) {{",
                    emit_expr(cond)
                );
                let _ = writeln!(
                    out,
                    "{indent}        if (tut_guard++ >= {max_iter}u) tut_rt_fatal(\"loop bound exceeded\");"
                );
                emit_statements(model, body, depth + 2, out);
                let _ = writeln!(out, "{indent}    }}");
                let _ = writeln!(out, "{indent}}}");
            }
            Statement::Compute { class, amount } => {
                let _ = writeln!(
                    out,
                    "{indent}tut_rt_compute(self, \"{}\", tut_rt_as_int({}));",
                    class.name(),
                    emit_expr(amount)
                );
            }
            Statement::Log { message, args } => {
                // Host-side rendering keeps the runtime simple: integer
                // argument values are appended after the template text.
                let rendered = message.replace('"', "'");
                if args.is_empty() {
                    let _ = writeln!(out, "{indent}tut_rt_user_log(self, \"{rendered}\");");
                } else {
                    let _ = writeln!(
                        out,
                        "{indent}{{ char tut_msg[256]; int tut_off = snprintf(tut_msg, sizeof tut_msg, \"{rendered}\");"
                    );
                    for arg in args {
                        let _ = writeln!(
                            out,
                            "{indent}  tut_off += snprintf(tut_msg + tut_off, sizeof tut_msg - (size_t)tut_off, \" %lld\", (long long)tut_rt_as_int({}));",
                            emit_expr(arg)
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{indent}  (void)tut_off; tut_rt_user_log(self, tut_msg); }}"
                    );
                }
            }
            Statement::SetTimer { name, duration } => {
                let _ = writeln!(
                    out,
                    "{indent}tut_rt_set_timer(self, \"{name}\", tut_rt_as_int({}));",
                    emit_expr(duration)
                );
            }
            Statement::CancelTimer { name } => {
                let _ = writeln!(out, "{indent}tut_rt_cancel_timer(self, \"{name}\");");
            }
            Statement::Count { counter, amount } => {
                let _ = writeln!(
                    out,
                    "{indent}tut_rt_count(self, \"{counter}\", tut_rt_as_int({}));",
                    emit_expr(amount)
                );
            }
        }
    }
}

/// Emits the header (`<component>.h`) for a functional component.
pub(crate) fn emit_header(model: &Model, class: ClassId) -> String {
    let class_data = model.class(class);
    let name = sanitize(class_data.name()).to_lowercase();
    let sm = model.state_machine(
        class_data
            .behavior()
            .expect("emit_header requires an active class"),
    );
    let guard = format!("TUT_GEN_{}_H", name.to_uppercase());
    let mut out = crate::runtime::banner(model.name());
    let _ = writeln!(out, "#ifndef {guard}");
    let _ = writeln!(out, "#define {guard}");
    let _ = writeln!(out);
    let _ = writeln!(out, "#include \"tut_rt.h\"");
    let _ = writeln!(out);
    let _ = writeln!(out, "enum {{");
    for (id, state) in sm.states() {
        let _ = writeln!(
            out,
            "    {}_STATE_{} = {},",
            name.to_uppercase(),
            sanitize(state.name()),
            id.index()
        );
    }
    let _ = writeln!(out, "}};");
    let _ = writeln!(out);
    let _ = writeln!(out, "typedef struct {{");
    let _ = writeln!(out, "    int state;");
    for var in sm.variables() {
        let _ = writeln!(out, "    tut_rt_value_t var_{};", var.name);
    }
    let _ = writeln!(out, "}} {name}_ctx_t;");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "void {name}_init({name}_ctx_t *ctx, tut_rt_process_t *self);"
    );
    let _ = writeln!(
        out,
        "void {name}_dispatch(void *raw_ctx, tut_rt_process_t *self, const tut_rt_signal_t *sig);"
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "#endif /* {guard} */");
    out
}

/// Emits the implementation (`<component>.c`) for a functional component.
pub(crate) fn emit_source(model: &Model, class: ClassId) -> String {
    let class_data = model.class(class);
    let name = sanitize(class_data.name()).to_lowercase();
    let upper = name.to_uppercase();
    let sm_id = class_data
        .behavior()
        .expect("emit_source requires an active class");
    let sm = model.state_machine(sm_id);

    let mut out = crate::runtime::banner(model.name());
    let _ = writeln!(out, "#include \"{name}.h\"");
    let _ = writeln!(out);

    // Per-state entry functions.
    for (id, state) in sm.states() {
        let state_name = sanitize(state.name());
        let _ = writeln!(
            out,
            "static void {name}_enter_{state_name}({name}_ctx_t *ctx, tut_rt_process_t *self) {{"
        );
        let _ = writeln!(out, "    ctx->state = {upper}_STATE_{state_name};");
        let _ = writeln!(out, "    (void)ctx; (void)self;");
        emit_statements(model, state.entry(), 1, &mut out);
        let _ = writeln!(out, "}}");
        let _ = writeln!(out);
        let _ = id;
    }

    // Completion-transition loop (omitted entirely when the machine has
    // no completion transitions, keeping -Wunused-label clean).
    let has_completions = sm
        .transitions()
        .any(|(_, t)| matches!(t.trigger(), Trigger::Completion));
    let _ = writeln!(
        out,
        "static void {name}_completions({name}_ctx_t *ctx, tut_rt_process_t *self) {{"
    );
    if !has_completions {
        let _ = writeln!(out, "    (void)ctx; (void)self;");
        let _ = writeln!(out, "}}");
        let _ = writeln!(out);
        return emit_source_rest(model, class, sm, &name, &upper, out);
    }
    let _ = writeln!(
        out,
        "    for (int tut_round = 0; tut_round < 64; tut_round++) {{"
    );
    let _ = writeln!(out, "        switch (ctx->state) {{");
    // The label is emitted only when some completion changes state.
    let mut chained = false;
    for (state_id, state) in sm.states() {
        let completions: Vec<_> = sm
            .transitions_from(state_id)
            .filter(|(_, t)| matches!(t.trigger(), Trigger::Completion))
            .collect();
        if completions.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "        case {upper}_STATE_{}: {{",
            sanitize(state.name())
        );
        for (_, transition) in completions {
            let guard = transition
                .guard()
                .map(|g| format!("tut_rt_truthy({})", emit_expr(g)))
                .unwrap_or_else(|| "1".to_owned());
            let _ = writeln!(out, "            if ({guard}) {{");
            emit_statements(model, transition.actions(), 4, &mut out);
            if transition.target() == state_id {
                // A completion self-loop runs its actions and ends the
                // chain, as the simulator's does.
                let _ = writeln!(out, "                return;");
            } else {
                let target = sanitize(sm.state(transition.target()).name());
                let _ = writeln!(out, "                {name}_enter_{target}(ctx, self);");
                let _ = writeln!(out, "                goto tut_continue;");
                chained = true;
            }
            let _ = writeln!(out, "            }}");
        }
        let _ = writeln!(out, "            return;");
        let _ = writeln!(out, "        }}");
    }
    let _ = writeln!(out, "        default: return;");
    let _ = writeln!(out, "        }}");
    if chained {
        let _ = writeln!(out, "        tut_continue:;");
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");
    let _ = writeln!(out);
    emit_source_rest(model, class, sm, &name, &upper, out)
}

/// Emits the `_init` and `_dispatch` functions (shared tail of
/// [`emit_source`]).
fn emit_source_rest(
    model: &Model,
    class: ClassId,
    sm: &StateMachine,
    name: &str,
    upper: &str,
    mut out: String,
) -> String {
    let _ = class;
    // Init: variables, initial state entry, completion transitions.
    let _ = writeln!(
        out,
        "void {name}_init({name}_ctx_t *ctx, tut_rt_process_t *self) {{"
    );
    for var in sm.variables() {
        let _ = writeln!(
            out,
            "    ctx->var_{} = {};",
            var.name,
            crate::expr::emit_expr(&tut_uml::action::Expr::Lit(var.init.clone()))
        );
    }
    let initial = sm
        .initial()
        .expect("checked machines have an initial state");
    let _ = writeln!(
        out,
        "    {name}_enter_{}(ctx, self);",
        sanitize(sm.state(initial).name())
    );
    let _ = writeln!(out, "    {name}_completions(ctx, self);");
    let _ = writeln!(out, "}}");
    let _ = writeln!(out);

    // Dispatch: switch on state, match signal/timer triggers in order.
    let _ = writeln!(
        out,
        "void {name}_dispatch(void *raw_ctx, tut_rt_process_t *self, const tut_rt_signal_t *sig) {{"
    );
    let _ = writeln!(out, "    {name}_ctx_t *ctx = ({name}_ctx_t *)raw_ctx;");
    let _ = writeln!(out, "    switch (ctx->state) {{");
    for (state_id, state) in sm.states() {
        let triggered: Vec<_> = sm
            .transitions_from(state_id)
            .filter(|(_, t)| !matches!(t.trigger(), Trigger::Completion))
            .collect();
        let _ = writeln!(out, "    case {upper}_STATE_{}: {{", sanitize(state.name()));
        for (_, transition) in triggered {
            let match_expr = match transition.trigger() {
                Trigger::Signal(sig_id) => format!(
                    "!sig->is_timer && strcmp(sig->name, \"{}\") == 0",
                    model.signal(*sig_id).name()
                ),
                Trigger::Timer(timer) => {
                    format!("sig->is_timer && strcmp(sig->name, \"{timer}\") == 0")
                }
                Trigger::Completion => unreachable!("filtered above"),
            };
            let guard = transition
                .guard()
                .map(|g| format!(" && tut_rt_truthy({})", emit_expr(g)))
                .unwrap_or_default();
            let _ = writeln!(out, "        if (({match_expr}){guard}) {{");
            emit_statements(model, transition.actions(), 3, &mut out);
            // Entry actions run only on a change of state (DESIGN §6).
            if transition.target() != state_id {
                let target = sanitize(sm.state(transition.target()).name());
                let _ = writeln!(out, "            {name}_enter_{target}(ctx, self);");
            }
            let _ = writeln!(out, "            {name}_completions(ctx, self);");
            let _ = writeln!(out, "            return;");
            let _ = writeln!(out, "        }}");
        }
        let _ = writeln!(out, "        break;");
        let _ = writeln!(out, "    }}");
    }
    let _ = writeln!(out, "    default: break;");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(
        out,
        "    fprintf(tut_rt_log(), \"DROP %llu %s %s\\n\", (unsigned long long)tut_rt_now, self->name, sig->name);"
    );
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tut_uml::action::{BinOp, CostClass, Expr, Statement};
    use tut_uml::value::{DataType, Value};

    fn sample_model() -> (Model, ClassId) {
        let mut m = Model::new("Gen");
        let sig = m.add_signal("Ping");
        m.signal_mut(sig).add_param("n", DataType::Int);
        let class = m.add_class("Echo");
        let port = m.add_port(class, "io");
        m.port_mut(port).add_provided(sig);
        m.port_mut(port).add_required(sig);

        let mut sm = StateMachine::new("EchoB");
        sm.add_variable("count", DataType::Int, Value::Int(0));
        let idle = sm.add_state("Idle");
        let busy = sm.add_state_with_entry(
            "Busy",
            vec![Statement::Log {
                message: "busy now".into(),
                args: vec![Expr::var("count")],
            }],
        );
        sm.set_initial(idle);
        sm.add_transition(
            idle,
            busy,
            Trigger::Signal(sig),
            Some(Expr::param("n").bin(BinOp::Gt, Expr::int(0))),
            vec![
                Statement::Assign {
                    var: "count".into(),
                    expr: Expr::var("count").bin(BinOp::Add, Expr::int(1)),
                },
                Statement::Compute {
                    class: CostClass::Dsp,
                    amount: Expr::int(32),
                },
                Statement::Send {
                    port: "io".into(),
                    signal: sig,
                    args: vec![Expr::var("count")],
                },
                Statement::SetTimer {
                    name: "cooldown".into(),
                    duration: Expr::int(100),
                },
            ],
        );
        sm.add_transition(busy, idle, Trigger::Timer("cooldown".into()), None, vec![]);
        sm.add_transition(
            busy,
            idle,
            Trigger::Completion,
            Some(Expr::var("count").bin(BinOp::Gt, Expr::int(10))),
            vec![Statement::CancelTimer {
                name: "cooldown".into(),
            }],
        );
        m.add_state_machine(class, sm);
        (m, class)
    }

    #[test]
    fn header_declares_context_and_functions() {
        let (m, class) = sample_model();
        let h = emit_header(&m, class);
        assert!(h.contains("typedef struct"));
        assert!(h.contains("tut_rt_value_t var_count;"));
        assert!(h.contains("ECHO_STATE_Idle"));
        assert!(h.contains("void echo_init"));
        assert!(h.contains("void echo_dispatch"));
        assert!(h.contains("#ifndef TUT_GEN_ECHO_H"));
    }

    #[test]
    fn source_contains_all_semantic_pieces() {
        let (m, class) = sample_model();
        let c = emit_source(&m, class);
        // Trigger matching.
        assert!(c.contains("strcmp(sig->name, \"Ping\") == 0"));
        assert!(c.contains("sig->is_timer && strcmp(sig->name, \"cooldown\") == 0"));
        // Guard.
        assert!(c.contains("tut_rt_param(sig, \"n\")"));
        // Actions.
        assert!(c.contains("ctx->var_count ="));
        assert!(c.contains("tut_rt_compute(self, \"dsp\""));
        assert!(c.contains("tut_rt_send(self, \"io\", \"Ping\""));
        assert!(c.contains("tut_rt_set_timer(self, \"cooldown\""));
        assert!(c.contains("tut_rt_cancel_timer(self, \"cooldown\")"));
        // States, entry, completion loop, drop fallback.
        assert!(c.contains("echo_enter_Busy"));
        assert!(c.contains("echo_completions"));
        assert!(c.contains("DROP"));
    }

    #[test]
    fn generation_is_deterministic() {
        let (m, class) = sample_model();
        assert_eq!(emit_source(&m, class), emit_source(&m, class));
        assert_eq!(emit_header(&m, class), emit_header(&m, class));
    }
}
