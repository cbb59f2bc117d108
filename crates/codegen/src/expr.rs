//! Action-language expression → C translation.

use tut_uml::action::{BinOp, Builtin, Expr, UnaryOp};
use tut_uml::value::Value;

/// Emits the C form of an expression.
///
/// * Variables become `ctx->var_<name>`.
/// * Signal parameters become `tut_rt_param(sig, <index by name>)`
///   accessors: ints/bools read `.i`, buffers `.b`.
/// * Builtins call their `tut_rt_*` runtime equivalents.
///
/// Buffers are runtime-managed `tut_bytes_t` values; the runtime owns
/// reference counting, so expressions can nest freely.
pub fn emit_expr(expr: &Expr) -> String {
    match expr {
        Expr::Lit(value) => emit_literal(value),
        Expr::Var(name) => format!("ctx->var_{name}"),
        Expr::Param(name) => format!("tut_rt_param(sig, \"{name}\")"),
        Expr::Unary(op, e) => match op {
            UnaryOp::Not => format!("tut_rt_bool(!tut_rt_truthy({}))", emit_expr(e)),
            UnaryOp::Neg => format!("tut_rt_int(-(tut_rt_as_int({})))", emit_expr(e)),
        },
        Expr::Binary(op, lhs, rhs) => emit_binary(*op, lhs, rhs),
        Expr::Call(builtin, args) => {
            let rendered: Vec<String> = args.iter().map(emit_expr).collect();
            format!("{}({})", builtin_function(*builtin), rendered.join(", "))
        }
    }
}

fn emit_literal(value: &Value) -> String {
    match value {
        Value::Int(i) => format!("tut_rt_int(INT64_C({i}))"),
        Value::Bool(b) => format!("tut_rt_bool({})", if *b { 1 } else { 0 }),
        Value::Bytes(bytes) => {
            if bytes.is_empty() {
                "tut_rt_bytes_empty()".to_owned()
            } else {
                let data: Vec<String> = bytes.iter().map(|b| format!("0x{b:02x}")).collect();
                format!(
                    "tut_rt_bytes_lit((const uint8_t[]){{{}}}, {})",
                    data.join(", "),
                    bytes.len()
                )
            }
        }
        Value::Str(s) => format!("tut_rt_str({:?})", s),
    }
}

fn emit_binary(op: BinOp, lhs: &Expr, rhs: &Expr) -> String {
    let l = emit_expr(lhs);
    let r = emit_expr(rhs);
    match op {
        // `+` dispatches on runtime type (int add vs buffer concat),
        // mirroring the interpreter.
        BinOp::Add => format!("tut_rt_add({l}, {r})"),
        BinOp::And => format!("tut_rt_bool(tut_rt_truthy({l}) && tut_rt_truthy({r}))"),
        BinOp::Or => format!("tut_rt_bool(tut_rt_truthy({l}) || tut_rt_truthy({r}))"),
        BinOp::Eq => format!("tut_rt_bool(tut_rt_equal({l}, {r}))"),
        BinOp::Ne => format!("tut_rt_bool(!tut_rt_equal({l}, {r}))"),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => format!(
            "tut_rt_bool(tut_rt_as_int({l}) {} tut_rt_as_int({r}))",
            op.token()
        ),
        BinOp::Div => format!("tut_rt_int(tut_rt_div(tut_rt_as_int({l}), tut_rt_as_int({r})))"),
        BinOp::Mod => format!("tut_rt_int(tut_rt_mod(tut_rt_as_int({l}), tut_rt_as_int({r})))"),
        _ => format!(
            "tut_rt_int(tut_rt_as_int({l}) {} tut_rt_as_int({r}))",
            op.token()
        ),
    }
}

fn builtin_function(builtin: Builtin) -> &'static str {
    match builtin {
        Builtin::Len => "tut_rt_len",
        Builtin::Slice => "tut_rt_slice",
        Builtin::Concat => "tut_rt_concat",
        Builtin::ByteAt => "tut_rt_byte_at",
        Builtin::PackInt => "tut_rt_pack_int",
        Builtin::UnpackInt => "tut_rt_unpack_int",
        Builtin::Crc32 => "tut_rt_crc32",
        Builtin::Min => "tut_rt_min",
        Builtin::Max => "tut_rt_max",
        Builtin::Fill => "tut_rt_fill",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tut_uml::action::Expr as E;

    #[test]
    fn literals() {
        assert_eq!(emit_expr(&E::int(5)), "tut_rt_int(INT64_C(5))");
        assert_eq!(emit_expr(&E::bool(true)), "tut_rt_bool(1)");
        assert_eq!(
            emit_expr(&E::Lit(Value::Bytes(vec![0xab, 0x01].into()))),
            "tut_rt_bytes_lit((const uint8_t[]){0xab, 0x01}, 2)"
        );
        assert_eq!(
            emit_expr(&E::Lit(Value::Bytes(vec![].into()))),
            "tut_rt_bytes_empty()"
        );
    }

    #[test]
    fn variables_and_params() {
        assert_eq!(emit_expr(&E::var("count")), "ctx->var_count");
        assert_eq!(emit_expr(&E::param("pdu")), "tut_rt_param(sig, \"pdu\")");
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = E::var("x").bin(BinOp::Mul, E::int(2));
        assert_eq!(
            emit_expr(&e),
            "tut_rt_int(tut_rt_as_int(ctx->var_x) * tut_rt_as_int(tut_rt_int(INT64_C(2))))"
        );
        let cmp = E::var("x").bin(BinOp::Le, E::int(9));
        assert!(emit_expr(&cmp).contains("<="));
    }

    /// `!` yields a runtime value like `&&`/`||`, so a negation can
    /// itself be a guard (`tut_rt_truthy` takes a value, not a C int).
    #[test]
    fn not_wraps_its_result_as_a_value() {
        let e = E::Unary(UnaryOp::Not, Box::new(E::var("busy")));
        assert_eq!(emit_expr(&e), "tut_rt_bool(!tut_rt_truthy(ctx->var_busy))");
    }

    #[test]
    fn guarded_division() {
        let e = E::int(6).bin(BinOp::Div, E::var("d"));
        assert!(emit_expr(&e).contains("tut_rt_div"));
    }

    #[test]
    fn builtin_calls() {
        let e = E::call(Builtin::Crc32, vec![E::var("buf")]);
        assert_eq!(emit_expr(&e), "tut_rt_crc32(ctx->var_buf)");
        let e = E::call(Builtin::Slice, vec![E::var("b"), E::int(0), E::int(4)]);
        assert!(emit_expr(&e).starts_with("tut_rt_slice("));
    }

    #[test]
    fn logic_short_circuits_in_c() {
        let e = E::bool(false).bin(BinOp::And, E::var("x"));
        let c = emit_expr(&e);
        assert!(c.contains("&&"), "{c}");
    }
}
