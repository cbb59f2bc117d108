//! The generated run-time library (`tut_rt.h`).
//!
//! The paper links the generated application code against "run-time
//! libraries & custom functions" that produce the simulation log-file
//! (Figure 2, §4.4). [`RUNTIME_HEADER`] is that library for the generated
//! C: a single-header (stb-style) C99 library providing
//!
//! * the tagged value type (`tut_rt_value_t`) and the action-language
//!   builtins (CRC-32 included, bit-exact with the Rust reference),
//! * signal descriptors and per-process dispatch registration,
//! * a deterministic host event loop with name-based wiring (the
//!   "reference platform" execution of §4.4 — the paper profiles on a
//!   workstation before the FPGA), and
//! * the logging hooks that write `EXEC` / `SIG` / `USER` records.
//!
//! Exactly one translation unit (the generated `main.c`) defines
//! `TUT_RT_IMPLEMENTATION` before including the header; every other
//! generated module sees only the declarations, so the scheduler state is
//! shared.
//!
//! Buffers are heap-allocated and intentionally never freed: generated
//! applications are bounded profiling runs, and leak-freedom is not worth
//! reference counting in generated code (documented limitation).

/// The complete `tut_rt.h` source.
pub const RUNTIME_HEADER: &str = r#"/* tut_rt.h - run-time library for TUT-Profile generated applications.
 * Generated by tut-codegen; do not edit. C99, stb-style single header:
 * define TUT_RT_IMPLEMENTATION in exactly one translation unit.
 */
#ifndef TUT_RT_H
#define TUT_RT_H

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* ---------------- types ---------------- */

typedef struct {
    uint8_t *data;
    size_t len;
} tut_bytes_t;

typedef enum { TUT_INT, TUT_BOOL, TUT_BYTES, TUT_STR } tut_rt_kind_t;

typedef struct {
    tut_rt_kind_t kind;
    int64_t i;
    tut_bytes_t b;
    const char *s;
} tut_rt_value_t;

#define TUT_RT_MAX_PARAMS 8

typedef struct {
    const char *name;       /* signal type name, or timer name */
    int is_timer;
    size_t nparams;
    const char *param_names[TUT_RT_MAX_PARAMS];
    tut_rt_value_t params[TUT_RT_MAX_PARAMS];
} tut_rt_signal_t;

struct tut_rt_process;
typedef void (*tut_rt_dispatch_fn)(void *ctx, struct tut_rt_process *self,
                                   const tut_rt_signal_t *sig);

typedef struct tut_rt_process {
    const char *name;
    void *ctx;
    tut_rt_dispatch_fn dispatch;
} tut_rt_process_t;

#define TUT_RT_MAX_PROCESSES 64
#define TUT_RT_MAX_WIRES 512
#define TUT_RT_MAX_EVENTS 65536

typedef struct {
    const char *sender;
    const char *port;
    const char *signal;
    const char *receiver;
} tut_rt_wire_t;

typedef struct {
    uint64_t time;
    uint64_t seq;
    int target;
    tut_rt_signal_t sig;
    const char *sender_name;
} tut_rt_event_t;

/* ---------------- API ---------------- */

tut_rt_value_t tut_rt_int(int64_t v);
tut_rt_value_t tut_rt_bool(int v);
tut_rt_value_t tut_rt_bytes_own(uint8_t *data, size_t len);
tut_rt_value_t tut_rt_bytes_lit(const uint8_t *data, size_t len);
tut_rt_value_t tut_rt_bytes_empty(void);
tut_rt_value_t tut_rt_str(const char *s);
int64_t tut_rt_as_int(tut_rt_value_t v);
int tut_rt_truthy(tut_rt_value_t v);
int tut_rt_equal(tut_rt_value_t a, tut_rt_value_t b);
size_t tut_rt_size_bytes(tut_rt_value_t v);
void tut_rt_fatal(const char *msg);
int64_t tut_rt_div(int64_t a, int64_t b);
int64_t tut_rt_mod(int64_t a, int64_t b);
tut_rt_value_t tut_rt_add(tut_rt_value_t a, tut_rt_value_t b);
tut_rt_value_t tut_rt_len(tut_rt_value_t v);
tut_rt_value_t tut_rt_concat(tut_rt_value_t a, tut_rt_value_t b);
tut_rt_value_t tut_rt_slice(tut_rt_value_t v, tut_rt_value_t from, tut_rt_value_t to);
tut_rt_value_t tut_rt_byte_at(tut_rt_value_t v, tut_rt_value_t idx);
tut_rt_value_t tut_rt_pack_int(tut_rt_value_t v, tut_rt_value_t width);
tut_rt_value_t tut_rt_unpack_int(tut_rt_value_t v);
tut_rt_value_t tut_rt_crc32(tut_rt_value_t v);
tut_rt_value_t tut_rt_min(tut_rt_value_t a, tut_rt_value_t b);
tut_rt_value_t tut_rt_max(tut_rt_value_t a, tut_rt_value_t b);
tut_rt_value_t tut_rt_fill(tut_rt_value_t byte, tut_rt_value_t count);
tut_rt_value_t tut_rt_param(const tut_rt_signal_t *sig, const char *name);
FILE *tut_rt_log(void);
void tut_rt_register(tut_rt_process_t *process);
void tut_rt_wire(const char *sender, const char *port, const char *signal,
                 const char *receiver);
int tut_rt_find_process(const char *name);
void tut_rt_send(tut_rt_process_t *self, const char *port, const char *signal,
                 size_t nargs, const tut_rt_value_t *args,
                 const char *const *param_names);
void tut_rt_compute(tut_rt_process_t *self, const char *class_name, int64_t units);
void tut_rt_user_log(tut_rt_process_t *self, const char *message);
void tut_rt_count(tut_rt_process_t *self, const char *counter, int64_t amount);
void tut_rt_set_timer(tut_rt_process_t *self, const char *name, int64_t duration);
void tut_rt_cancel_timer(tut_rt_process_t *self, const char *name);
void tut_rt_run(uint64_t max_events);

extern uint64_t tut_rt_now;
extern FILE *tut_rt_log_file;

/* ---------------- implementation ---------------- */
#ifdef TUT_RT_IMPLEMENTATION

tut_rt_value_t tut_rt_int(int64_t v) {
    tut_rt_value_t out; memset(&out, 0, sizeof out);
    out.kind = TUT_INT; out.i = v; return out;
}
tut_rt_value_t tut_rt_bool(int v) {
    tut_rt_value_t out; memset(&out, 0, sizeof out);
    out.kind = TUT_BOOL; out.i = v ? 1 : 0; return out;
}
tut_rt_value_t tut_rt_bytes_own(uint8_t *data, size_t len) {
    tut_rt_value_t out; memset(&out, 0, sizeof out);
    out.kind = TUT_BYTES; out.b.data = data; out.b.len = len; return out;
}
tut_rt_value_t tut_rt_bytes_lit(const uint8_t *data, size_t len) {
    uint8_t *copy = (uint8_t *)malloc(len ? len : 1);
    memcpy(copy, data, len);
    return tut_rt_bytes_own(copy, len);
}
tut_rt_value_t tut_rt_bytes_empty(void) {
    return tut_rt_bytes_own(NULL, 0);
}
tut_rt_value_t tut_rt_str(const char *s) {
    tut_rt_value_t out; memset(&out, 0, sizeof out);
    out.kind = TUT_STR; out.s = s; return out;
}

int64_t tut_rt_as_int(tut_rt_value_t v) {
    return v.i;
}
int tut_rt_truthy(tut_rt_value_t v) {
    switch (v.kind) {
    case TUT_INT: case TUT_BOOL: return v.i != 0;
    case TUT_BYTES: return v.b.len != 0;
    case TUT_STR: return v.s && v.s[0];
    }
    return 0;
}
int tut_rt_equal(tut_rt_value_t a, tut_rt_value_t b) {
    if (a.kind != b.kind) return 0;
    switch (a.kind) {
    case TUT_INT: case TUT_BOOL: return a.i == b.i;
    case TUT_BYTES:
        return a.b.len == b.b.len && (a.b.len == 0 || memcmp(a.b.data, b.b.data, a.b.len) == 0);
    case TUT_STR: return strcmp(a.s ? a.s : "", b.s ? b.s : "") == 0;
    }
    return 0;
}
size_t tut_rt_size_bytes(tut_rt_value_t v) {
    switch (v.kind) {
    case TUT_INT: return 8;
    case TUT_BOOL: return 1;
    case TUT_BYTES: return v.b.len;
    case TUT_STR: return v.s ? strlen(v.s) : 0;
    }
    return 0;
}

void tut_rt_fatal(const char *msg) {
    fprintf(stderr, "tut_rt: fatal: %s\n", msg);
    exit(1);
}

int64_t tut_rt_div(int64_t a, int64_t b) {
    if (b == 0) tut_rt_fatal("division by zero");
    return a / b;
}
int64_t tut_rt_mod(int64_t a, int64_t b) {
    if (b == 0) tut_rt_fatal("modulo by zero");
    return a % b;
}

tut_rt_value_t tut_rt_add(tut_rt_value_t a, tut_rt_value_t b) {
    if (a.kind == TUT_BYTES && b.kind == TUT_BYTES) {
        uint8_t *out = (uint8_t *)malloc(a.b.len + b.b.len + 1);
        memcpy(out, a.b.data, a.b.len);
        memcpy(out + a.b.len, b.b.data, b.b.len);
        return tut_rt_bytes_own(out, a.b.len + b.b.len);
    }
    return tut_rt_int(a.i + b.i);
}
tut_rt_value_t tut_rt_len(tut_rt_value_t v) {
    return tut_rt_int((int64_t)tut_rt_size_bytes(v));
}
tut_rt_value_t tut_rt_concat(tut_rt_value_t a, tut_rt_value_t b) {
    return tut_rt_add(a, b);
}
tut_rt_value_t tut_rt_slice(tut_rt_value_t v, tut_rt_value_t from, tut_rt_value_t to) {
    int64_t len = (int64_t)v.b.len;
    int64_t f = from.i < 0 ? 0 : (from.i > len ? len : from.i);
    int64_t t = to.i < f ? f : (to.i > len ? len : to.i);
    uint8_t *out = (uint8_t *)malloc((size_t)(t - f) + 1);
    memcpy(out, v.b.data + f, (size_t)(t - f));
    return tut_rt_bytes_own(out, (size_t)(t - f));
}
tut_rt_value_t tut_rt_byte_at(tut_rt_value_t v, tut_rt_value_t idx) {
    if (idx.i < 0 || (size_t)idx.i >= v.b.len) tut_rt_fatal("byte_at out of range");
    return tut_rt_int(v.b.data[idx.i]);
}
tut_rt_value_t tut_rt_pack_int(tut_rt_value_t v, tut_rt_value_t width) {
    int64_t w = width.i;
    if (w < 1 || w > 8) tut_rt_fatal("pack_int width out of range");
    uint8_t *out = (uint8_t *)malloc((size_t)w);
    for (int64_t k = 0; k < w; k++) {
        out[w - 1 - k] = (uint8_t)((uint64_t)v.i >> (8 * k));
    }
    return tut_rt_bytes_own(out, (size_t)w);
}
tut_rt_value_t tut_rt_unpack_int(tut_rt_value_t v) {
    if (v.b.len > 8) tut_rt_fatal("unpack_int buffer too long");
    int64_t out = 0;
    for (size_t k = 0; k < v.b.len; k++) out = (out << 8) | v.b.data[k];
    return tut_rt_int(out);
}
tut_rt_value_t tut_rt_crc32(tut_rt_value_t v) {
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t k = 0; k < v.b.len; k++) {
        crc ^= v.b.data[k];
        for (int bit = 0; bit < 8; bit++) {
            uint32_t mask = (uint32_t)-(int32_t)(crc & 1u);
            crc = (crc >> 1) ^ (0xEDB88320u & mask);
        }
    }
    return tut_rt_int((int64_t)(uint32_t)~crc);
}
tut_rt_value_t tut_rt_min(tut_rt_value_t a, tut_rt_value_t b) {
    return tut_rt_int(a.i < b.i ? a.i : b.i);
}
tut_rt_value_t tut_rt_max(tut_rt_value_t a, tut_rt_value_t b) {
    return tut_rt_int(a.i > b.i ? a.i : b.i);
}
tut_rt_value_t tut_rt_fill(tut_rt_value_t byte, tut_rt_value_t count) {
    if (byte.i < 0 || byte.i > 255) tut_rt_fatal("fill byte out of range");
    if (count.i < 0 || count.i > (1 << 20)) tut_rt_fatal("fill count out of range");
    uint8_t *out = (uint8_t *)malloc((size_t)count.i + 1);
    memset(out, (int)byte.i, (size_t)count.i);
    return tut_rt_bytes_own(out, (size_t)count.i);
}

tut_rt_value_t tut_rt_param(const tut_rt_signal_t *sig, const char *name) {
    for (size_t k = 0; k < sig->nparams; k++) {
        if (strcmp(sig->param_names[k], name) == 0) return sig->params[k];
    }
    tut_rt_fatal("unbound signal parameter");
    return tut_rt_int(0);
}

/* ---------------- host scheduler (reference platform) ---------------- */

static tut_rt_process_t *tut_rt_processes[TUT_RT_MAX_PROCESSES];
static size_t tut_rt_nprocesses = 0;
static tut_rt_wire_t tut_rt_wires[TUT_RT_MAX_WIRES];
static size_t tut_rt_nwires = 0;
static tut_rt_event_t tut_rt_events[TUT_RT_MAX_EVENTS];
static size_t tut_rt_nevents = 0;
uint64_t tut_rt_now = 0;
static uint64_t tut_rt_seq = 0;
FILE *tut_rt_log_file = NULL;

FILE *tut_rt_log(void) {
    return tut_rt_log_file ? tut_rt_log_file : stdout;
}

void tut_rt_register(tut_rt_process_t *process) {
    if (tut_rt_nprocesses >= TUT_RT_MAX_PROCESSES) tut_rt_fatal("too many processes");
    tut_rt_processes[tut_rt_nprocesses++] = process;
}

void tut_rt_wire(const char *sender, const char *port, const char *signal,
                 const char *receiver) {
    if (tut_rt_nwires >= TUT_RT_MAX_WIRES) tut_rt_fatal("too many wires");
    tut_rt_wire_t w = { sender, port, signal, receiver };
    tut_rt_wires[tut_rt_nwires++] = w;
}

int tut_rt_find_process(const char *name) {
    for (size_t k = 0; k < tut_rt_nprocesses; k++) {
        if (strcmp(tut_rt_processes[k]->name, name) == 0) return (int)k;
    }
    return -1;
}

static void tut_rt_enqueue(uint64_t time, int target, const tut_rt_signal_t *sig,
                           const char *sender_name) {
    if (tut_rt_nevents >= TUT_RT_MAX_EVENTS) tut_rt_fatal("event queue overflow");
    tut_rt_event_t e;
    e.time = time; e.seq = tut_rt_seq++; e.target = target; e.sig = *sig;
    e.sender_name = sender_name;
    tut_rt_events[tut_rt_nevents++] = e;
}

void tut_rt_send(tut_rt_process_t *self, const char *port, const char *signal,
                 size_t nargs, const tut_rt_value_t *args,
                 const char *const *param_names) {
    size_t delivered = 0;
    for (size_t k = 0; k < tut_rt_nwires; k++) {
        if (strcmp(tut_rt_wires[k].sender, self->name) != 0) continue;
        if (strcmp(tut_rt_wires[k].port, port) != 0) continue;
        if (strcmp(tut_rt_wires[k].signal, signal) != 0) continue;
        int target = tut_rt_find_process(tut_rt_wires[k].receiver);
        if (target < 0) continue;
        tut_rt_signal_t sig;
        memset(&sig, 0, sizeof sig);
        sig.name = signal;
        sig.nparams = nargs;
        size_t bytes = 8;
        for (size_t a = 0; a < nargs && a < TUT_RT_MAX_PARAMS; a++) {
            sig.param_names[a] = param_names[a];
            sig.params[a] = args[a];
            bytes += tut_rt_size_bytes(args[a]);
        }
        fprintf(tut_rt_log(), "SIG %llu %s %s %s %zu 0\n",
                (unsigned long long)tut_rt_now, self->name,
                tut_rt_wires[k].receiver, signal, bytes);
        tut_rt_enqueue(tut_rt_now + 1, target, &sig, self->name);
        delivered++;
    }
    if (delivered == 0) {
        fprintf(tut_rt_log(), "LOST %llu %s %s %s\n",
                (unsigned long long)tut_rt_now, self->name, port, signal);
    }
}

void tut_rt_compute(tut_rt_process_t *self, const char *class_name, int64_t units) {
    (void)class_name;
    (void)self;
    if (units > 0) tut_rt_now += (uint64_t)units;
}

void tut_rt_user_log(tut_rt_process_t *self, const char *message) {
    fprintf(tut_rt_log(), "USER %llu %s %s\n",
            (unsigned long long)tut_rt_now, self->name, message);
}

void tut_rt_count(tut_rt_process_t *self, const char *counter, int64_t amount) {
    fprintf(tut_rt_log(), "CNT %llu %s %s %lld\n",
            (unsigned long long)tut_rt_now, self->name, counter,
            (long long)amount);
}

void tut_rt_set_timer(tut_rt_process_t *self, const char *name, int64_t duration) {
    /* Re-arming replaces the pending timer of that name, as in the
     * simulator. */
    tut_rt_cancel_timer(self, name);
    tut_rt_signal_t sig;
    memset(&sig, 0, sizeof sig);
    sig.name = name;
    sig.is_timer = 1;
    int target = tut_rt_find_process(self->name);
    if (target < 0) tut_rt_fatal("timer armed by unregistered process");
    tut_rt_enqueue(tut_rt_now + (duration > 0 ? (uint64_t)duration : 0), target, &sig,
                   self->name);
}

void tut_rt_cancel_timer(tut_rt_process_t *self, const char *name) {
    for (size_t k = 0; k < tut_rt_nevents; k++) {
        if (tut_rt_events[k].sig.is_timer &&
            strcmp(tut_rt_events[k].sig.name, name) == 0 &&
            strcmp(tut_rt_processes[tut_rt_events[k].target]->name, self->name) == 0) {
            tut_rt_events[k] = tut_rt_events[--tut_rt_nevents];
            return;
        }
    }
}

/* Pops the earliest event (time, then sequence) - O(n), fine for bounded
 * profiling runs. */
static int tut_rt_pop(tut_rt_event_t *out) {
    if (tut_rt_nevents == 0) return 0;
    size_t best = 0;
    for (size_t k = 1; k < tut_rt_nevents; k++) {
        if (tut_rt_events[k].time < tut_rt_events[best].time ||
            (tut_rt_events[k].time == tut_rt_events[best].time &&
             tut_rt_events[k].seq < tut_rt_events[best].seq)) {
            best = k;
        }
    }
    *out = tut_rt_events[best];
    tut_rt_events[best] = tut_rt_events[--tut_rt_nevents];
    return 1;
}

void tut_rt_run(uint64_t max_events) {
    tut_rt_event_t event;
    uint64_t handled = 0;
    while (handled < max_events && tut_rt_pop(&event)) {
        handled++;
        if (event.time > tut_rt_now) tut_rt_now = event.time;
        tut_rt_process_t *process = tut_rt_processes[event.target];
        fprintf(tut_rt_log(), "EXEC %llu %s 0 0 - - %s%s\n",
                (unsigned long long)tut_rt_now, process->name,
                event.sig.is_timer ? "timer:" : "", event.sig.name);
        process->dispatch(process->ctx, process, &event.sig);
    }
}

#endif /* TUT_RT_IMPLEMENTATION */
#endif /* TUT_RT_H */
"#;

/// The canonical generated-file banner.
pub(crate) fn banner(source: &str) -> String {
    format!("/* Generated by tut-codegen from model `{source}`. Do not edit. */\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_declares_core_symbols() {
        for symbol in [
            "tut_rt_value_t",
            "tut_rt_signal_t",
            "tut_rt_send",
            "tut_rt_compute",
            "tut_rt_set_timer",
            "tut_rt_count",
            "tut_rt_crc32",
            "tut_rt_run",
            "tut_rt_wire",
        ] {
            assert!(RUNTIME_HEADER.contains(symbol), "missing {symbol}");
        }
    }

    #[test]
    fn header_uses_implementation_guard() {
        assert!(RUNTIME_HEADER.contains("#ifndef TUT_RT_H"));
        assert!(RUNTIME_HEADER.contains("#ifdef TUT_RT_IMPLEMENTATION"));
        assert!(RUNTIME_HEADER.trim_end().ends_with("#endif /* TUT_RT_H */"));
    }

    #[test]
    fn types_are_declared_before_api() {
        let types = RUNTIME_HEADER
            .find("typedef struct tut_rt_process")
            .unwrap();
        let api = RUNTIME_HEADER.find("void tut_rt_send").unwrap();
        assert!(types < api);
    }

    #[test]
    fn banner_names_the_model() {
        assert!(banner("Tutmac").contains("`Tutmac`"));
    }
}
