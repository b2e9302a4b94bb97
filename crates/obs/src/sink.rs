//! The JSONL trace sink.
//!
//! One line is appended per span close. Each line is built as a
//! complete `String` first and then written with a single `write_all`,
//! so concurrent closers never interleave partial lines (the writer
//! itself sits behind a mutex). Three event shapes share the stream:
//!
//! ```json
//! {"type":"span","name":"transpile.route","id":7,"parent":3,"thread":1,"start_ns":1200,"elapsed_ns":84000,"fields":{"swaps":4}}
//! {"type":"event","name":"sweep.stats","fields":{"hits":12,"misses":0}}
//! {"type":"log","message":"fig2: 3/9 cells"}
//! ```
//!
//! Spans that belong to a distributed trace additionally carry
//! `"trace":"<32 hex>"` and — when their parent closed in another
//! process — `"remote_parent":<id>`. Untraced spans omit both keys, so
//! runs without trace contexts emit byte-identical lines.
//!
//! Output is strict JSON — it round-trips through `crates/store`'s
//! ordered-JSON parser (test-enforced). Non-finite floats serialize as
//! `null`, mirroring the store's own JSON writer.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use crate::span::{FieldValue, SpanData};

fn writer() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    static WRITER: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();
    WRITER.get_or_init(|| Mutex::new(None))
}

/// Installs `path` (created or truncated) as the trace sink.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be created.
pub(crate) fn set_trace_file(path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    *writer().lock().expect("trace writer poisoned") = Some(Box::new(file));
    Ok(())
}

/// Installs an arbitrary writer as the trace sink (in-memory capture).
#[cfg(test)]
pub(crate) fn set_trace_writer(w: Box<dyn Write + Send>) {
    *writer().lock().expect("trace writer poisoned") = Some(w);
}

/// Flushes and removes the trace sink, if any.
pub(crate) fn clear_trace_writer() {
    let mut guard = writer().lock().expect("trace writer poisoned");
    if let Some(w) = guard.as_mut() {
        let _ = w.flush();
    }
    *guard = None;
}

/// Flushes the trace sink, if any.
pub(crate) fn flush() {
    if let Some(w) = writer().lock().expect("trace writer poisoned").as_mut() {
        let _ = w.flush();
    }
}

fn write_line(line: String) {
    if let Some(w) = writer().lock().expect("trace writer poisoned").as_mut() {
        // Trace I/O must never abort a computation; drop on error.
        let _ = w.write_all(line.as_bytes());
    }
}

/// Appends a JSON string literal (quoted, escaped) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_field_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => out.push_str(&v.to_string()),
        FieldValue::I64(v) => out.push_str(&v.to_string()),
        FieldValue::F64(v) if v.is_finite() => out.push_str(&format!("{v:?}")),
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        FieldValue::Str(v) => push_json_str(out, v),
    }
}

fn push_fields(out: &mut String, fields: &[(&str, FieldValue)]) {
    out.push_str(",\"fields\":{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, key);
        out.push(':');
        push_field_value(out, value);
    }
    out.push('}');
}

/// Emits the `{"type":"span",...}` close line for `data`.
pub(crate) fn write_span(data: &SpanData, elapsed_ns: u64) {
    if !crate::enabled() {
        return;
    }
    let mut line = String::with_capacity(128);
    line.push_str("{\"type\":\"span\",\"name\":");
    push_json_str(&mut line, data.name);
    line.push_str(&format!(",\"id\":{}", data.id));
    if data.parent == 0 {
        line.push_str(",\"parent\":null");
    } else {
        line.push_str(&format!(",\"parent\":{}", data.parent));
    }
    // Distributed-trace attributes only appear on spans that have
    // them, so untraced runs emit byte-identical lines to before the
    // trace fields existed.
    if data.remote_parent != 0 {
        line.push_str(&format!(",\"remote_parent\":{}", data.remote_parent));
    }
    if data.trace != 0 {
        line.push_str(&format!(",\"trace\":\"{:032x}\"", data.trace));
    }
    line.push_str(&format!(
        ",\"thread\":{},\"start_ns\":{},\"elapsed_ns\":{}",
        data.thread, data.start_ns, elapsed_ns
    ));
    let borrowed: Vec<(&str, FieldValue)> =
        data.fields.iter().map(|(k, v)| (*k, v.clone())).collect();
    push_fields(&mut line, &borrowed);
    line.push_str("}\n");
    write_line(line);
}

/// Emits a `{"type":"event",...}` line (no timing, no span id).
pub(crate) fn write_event(name: &str, fields: &[(&str, FieldValue)]) {
    let mut line = String::with_capacity(96);
    line.push_str("{\"type\":\"event\",\"name\":");
    push_json_str(&mut line, name);
    push_fields(&mut line, fields);
    line.push_str("}\n");
    write_line(line);
}

/// Emits a `{"type":"log",...}` line mirroring a progress message.
pub(crate) fn write_log(message: &str) {
    let mut line = String::with_capacity(64);
    line.push_str("{\"type\":\"log\",\"message\":");
    push_json_str(&mut line, message);
    line.push_str("}\n");
    write_line(line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A writer tests can read back after the sink releases it.
    #[derive(Clone)]
    struct Shared(Arc<StdMutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn capture() -> (Shared, Arc<StdMutex<Vec<u8>>>) {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        (Shared(buf.clone()), buf)
    }

    #[test]
    fn string_escaping() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn field_values_serialize() {
        let mut out = String::new();
        push_field_value(&mut out, &FieldValue::F64(f64::NAN));
        assert_eq!(out, "null");
        out.clear();
        push_field_value(&mut out, &FieldValue::F64(1.5));
        assert_eq!(out, "1.5");
        out.clear();
        push_field_value(&mut out, &FieldValue::Bool(true));
        assert_eq!(out, "true");
    }

    #[test]
    fn event_and_log_lines_are_jsonl() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        let (shared, buf) = capture();
        set_trace_writer(Box::new(shared));
        write_event("test.event", &[("k", FieldValue::U64(7))]);
        write_log("hello\nworld");
        clear_trace_writer();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"type\":\"event\",\"name\":\"test.event\",\"fields\":{\"k\":7}}"
        );
        assert_eq!(lines[1], "{\"type\":\"log\",\"message\":\"hello\\nworld\"}");
    }

    #[test]
    fn span_line_includes_parent_and_fields() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        crate::enable();
        let (shared, buf) = capture();
        set_trace_writer(Box::new(shared));
        {
            let _outer = crate::Span::open("test.sink.outer");
            let _inner = crate::Span::open("test.sink.inner").with("n", 3u64);
        }
        crate::disable();
        clear_trace_writer();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let inner_line = text
            .lines()
            .find(|l| l.contains("test.sink.inner"))
            .expect("inner span line");
        assert!(inner_line.contains("\"fields\":{\"n\":3}"), "{inner_line}");
        assert!(inner_line.contains("\"parent\":"), "{inner_line}");
        assert!(!inner_line.contains("\"parent\":null"), "{inner_line}");
        let outer_line = text
            .lines()
            .find(|l| l.contains("test.sink.outer"))
            .expect("outer span line");
        assert!(outer_line.contains("\"parent\":null"), "{outer_line}");
        // Untraced spans carry no distributed-trace attributes at all —
        // the non-perturbation contract extends to line bytes.
        assert!(!outer_line.contains("\"trace\""), "{outer_line}");
        assert!(!outer_line.contains("\"remote_parent\""), "{outer_line}");
        crate::reset_for_tests();
    }

    #[test]
    fn traced_span_line_carries_hex_trace_and_remote_parent() {
        let _g = crate::test_guard();
        crate::reset_for_tests();
        crate::enable();
        let (shared, buf) = capture();
        set_trace_writer(Box::new(shared));
        let ctx = {
            let root = crate::Span::open_traced("test.sink.traced");
            let ctx = root.ctx().unwrap();
            let _remote = crate::Span::open_in_context("test.sink.remote", Some(&ctx));
            ctx
        };
        crate::disable();
        clear_trace_writer();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let hex = ctx.trace.unwrap().to_hex();
        let root_line = text
            .lines()
            .find(|l| l.contains("test.sink.traced"))
            .expect("traced root line");
        assert!(
            root_line.contains(&format!("\"trace\":\"{hex}\"")),
            "{root_line}"
        );
        assert!(!root_line.contains("\"remote_parent\""), "{root_line}");
        let remote_line = text
            .lines()
            .find(|l| l.contains("test.sink.remote"))
            .expect("remote span line");
        assert!(
            remote_line.contains(&format!("\"trace\":\"{hex}\"")),
            "{remote_line}"
        );
        assert!(
            remote_line.contains(&format!("\"remote_parent\":{}", ctx.parent)),
            "{remote_line}"
        );
        crate::reset_for_tests();
    }
}
