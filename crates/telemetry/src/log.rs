//! Structured, leveled diagnostic logging as JSONL events.
//!
//! Metrics (see [`crate::Registry`]) answer *how much*; the structured log
//! answers *what happened and why*: one JSON object per line with a
//! timestamp from the pluggable [`Clock`], a severity [`Level`], a
//! `target` (the subsystem emitting), a human message, and typed
//! key=value [`Value`] fields. Events go to an optional pluggable sink
//! (any `Write + Send`, e.g. the file behind `tsn-serviced --log-out`)
//! and, always, into a fixed-size in-memory ring of the last
//! [`RING_CAPACITY`] events that the daemon's `health` request exposes as
//! a recent-log tail.
//!
//! Lines are written and read through the workspace's one JSON stack,
//! [`tsn_json`]: [`LogEvent::to_json`] / [`LogEvent::from_json`] are the
//! codec, [`LogEvent::to_line`] prints the document and
//! [`LogEvent::parse_line`] parses it back (depth-capped, returning typed
//! [`LogParseError`]s, never panicking on garbage) — so the `--log-out`
//! file, the `health` tail and every other wire document agree on number
//! and string syntax by construction.
//!
//! Determinism: with a frozen [`crate::ManualClock`] installed via
//! [`Logger::set_clock`], `to_line` output is byte-stable, which is what
//! the daemon's byte-determinism tests rely on.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tsn_json::{Json, JsonError, JsonErrorKind};

use crate::clock::{Clock, MonotonicClock};

/// Capacity of the in-memory ring of recent events.
pub const RING_CAPACITY: usize = 256;

/// Event severity, ordered from chattiest to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Fine-grained lifecycle detail (per-request tracing).
    Debug = 0,
    /// Normal operational decisions (cache outcomes, batch drains).
    Info = 1,
    /// Something was rejected, refused, or fell back — with a reason.
    Warn = 2,
    /// A request failed.
    Error = 3,
}

impl Level {
    /// The lowercase wire name (`"debug"`, `"info"`, `"warn"`, `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a wire name produced by [`Level::as_str`].
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed field value. Conversions exist from the obvious Rust types so
/// call sites can write `("tenant", tenant.into())`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean flag.
    Bool(bool),
    /// A signed integer (unsigned sources saturate at `i64::MAX`).
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One structured log event.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEvent {
    /// Nanoseconds from the logger's [`Clock`] at emission time.
    pub ts_ns: u64,
    /// Severity.
    pub level: Level,
    /// The emitting subsystem (e.g. `"service.cache"`).
    pub target: String,
    /// The human-readable message.
    pub message: String,
    /// Typed key=value fields, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl LogEvent {
    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The event as a JSON document:
    /// `{"ts_ns":N,"level":"...","target":"...","msg":"...","fields":{...}}`
    /// with `fields` omitted when empty. Non-finite float fields encode as
    /// `null` (JSON has no NaN) and decode back as [`Value::Float`] NaN.
    /// This is both the JSONL line format and the daemon's `health`
    /// `recent_log` entry.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            (
                "ts_ns".to_string(),
                Json::Int(i64::try_from(self.ts_ns).unwrap_or(i64::MAX)),
            ),
            ("level".to_string(), Json::from(self.level.as_str())),
            ("target".to_string(), Json::from(self.target.as_str())),
            ("msg".to_string(), Json::from(self.message.as_str())),
        ];
        if !self.fields.is_empty() {
            let fields = self
                .fields
                .iter()
                .map(|(key, value)| {
                    let json = match value {
                        Value::Bool(b) => Json::Bool(*b),
                        Value::Int(n) => Json::Int(*n),
                        Value::Float(f) if f.is_finite() => Json::Float(*f),
                        Value::Float(_) => Json::Null,
                        Value::Str(s) => Json::from(s.as_str()),
                    };
                    (key.clone(), json)
                })
                .collect();
            pairs.push(("fields".to_string(), Json::Obj(fields)));
        }
        Json::Obj(pairs)
    }

    /// Renders the event as one JSONL line (no trailing newline): the
    /// [`to_json`](LogEvent::to_json) document, printed.
    pub fn to_line(&self) -> String {
        self.to_json().to_string()
    }

    /// Decodes a document produced by [`LogEvent::to_json`] (or by any
    /// other JSONL logger with the same four required keys). Unknown extra
    /// keys are ignored; `fields` may be absent.
    pub fn from_json(json: &Json) -> Result<LogEvent, LogParseError> {
        let Json::Obj(pairs) = json else {
            return Err(LogParseError::NotAnObject);
        };
        let mut ts_ns = None;
        let mut level = None;
        let mut target = None;
        let mut message = None;
        let mut fields = Vec::new();
        for (key, value) in pairs {
            match (key.as_str(), value) {
                ("ts_ns", Json::Int(n)) if *n >= 0 => ts_ns = Some(*n as u64),
                ("ts_ns", _) => return Err(LogParseError::WrongType("ts_ns")),
                ("level", Json::Str(s)) => {
                    level = Some(
                        Level::parse(s).ok_or_else(|| LogParseError::UnknownLevel(s.clone()))?,
                    );
                }
                ("level", _) => return Err(LogParseError::WrongType("level")),
                ("target", Json::Str(s)) => target = Some(s.clone()),
                ("target", _) => return Err(LogParseError::WrongType("target")),
                ("msg", Json::Str(s)) => message = Some(s.clone()),
                ("msg", _) => return Err(LogParseError::WrongType("msg")),
                ("fields", Json::Obj(pairs)) => {
                    for (key, value) in pairs {
                        let value = match value {
                            Json::Bool(b) => Value::Bool(*b),
                            Json::Int(n) => Value::Int(*n),
                            Json::Float(f) => Value::Float(*f),
                            Json::Null => Value::Float(f64::NAN),
                            Json::Str(s) => Value::Str(s.clone()),
                            _ => return Err(LogParseError::WrongType("fields")),
                        };
                        fields.push((key.clone(), value));
                    }
                }
                ("fields", _) => return Err(LogParseError::WrongType("fields")),
                _ => {}
            }
        }
        Ok(LogEvent {
            ts_ns: ts_ns.ok_or(LogParseError::MissingKey("ts_ns"))?,
            level: level.ok_or(LogParseError::MissingKey("level"))?,
            target: target.ok_or(LogParseError::MissingKey("target"))?,
            message: message.ok_or(LogParseError::MissingKey("msg"))?,
            fields,
        })
    }

    /// Parses a line produced by [`LogEvent::to_line`]. Never panics on
    /// garbage — every malformed input maps to a typed [`LogParseError`].
    pub fn parse_line(line: &str) -> Result<LogEvent, LogParseError> {
        LogEvent::from_json(&Json::parse(line)?)
    }
}

/// Why a structured-log line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogParseError {
    /// The JSON itself is malformed at the given byte offset.
    Syntax(usize),
    /// Well-formed JSON followed by trailing garbage on the same line.
    TrailingGarbage,
    /// Nesting exceeded the parser's depth limit.
    TooDeep,
    /// The line is valid JSON but not an object.
    NotAnObject,
    /// A required key (`ts_ns`/`level`/`target`/`msg`) is absent.
    MissingKey(&'static str),
    /// A known key holds a value of the wrong JSON type.
    WrongType(&'static str),
    /// The `level` string is not one of the four wire names.
    UnknownLevel(String),
}

impl fmt::Display for LogParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogParseError::Syntax(at) => write!(f, "malformed JSON at byte {at}"),
            LogParseError::TrailingGarbage => write!(f, "trailing garbage after JSON value"),
            LogParseError::TooDeep => write!(f, "nesting exceeds depth limit"),
            LogParseError::NotAnObject => write!(f, "log line is not a JSON object"),
            LogParseError::MissingKey(key) => write!(f, "missing required key {key:?}"),
            LogParseError::WrongType(key) => write!(f, "key {key:?} has the wrong type"),
            LogParseError::UnknownLevel(s) => write!(f, "unknown level {s:?}"),
        }
    }
}

impl std::error::Error for LogParseError {}

impl From<JsonError> for LogParseError {
    fn from(e: JsonError) -> LogParseError {
        match e.kind {
            JsonErrorKind::Trailing => LogParseError::TrailingGarbage,
            JsonErrorKind::TooDeep => LogParseError::TooDeep,
            JsonErrorKind::Syntax | JsonErrorKind::Decode => LogParseError::Syntax(e.at),
        }
    }
}

struct LoggerState {
    sink: Option<Box<dyn Write + Send>>,
    ring: VecDeque<LogEvent>,
    clock: Arc<dyn Clock>,
}

impl fmt::Debug for LoggerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoggerState")
            .field("sink", &self.sink.is_some())
            .field("ring_len", &self.ring.len())
            .field("clock", &self.clock)
            .finish()
    }
}

/// A leveled JSONL logger: an optional sink plus the in-memory ring.
///
/// The workspace normally uses the process-wide [`logger`] (and the
/// [`debug`]/[`info`]/[`warn`]/[`error`] free functions that target it);
/// tests build private instances to stay isolated.
#[derive(Debug)]
pub struct Logger {
    state: Mutex<LoggerState>,
    /// Minimum severity emitted, as `Level as u8` — atomic so
    /// [`Logger::enabled`] costs one relaxed load on the hot path.
    min_level: AtomicU8,
}

impl Default for Logger {
    fn default() -> Self {
        Logger::new()
    }
}

impl Logger {
    /// A logger with no sink, an empty ring, the real clock, and the
    /// default [`Level::Info`] threshold.
    pub fn new() -> Self {
        Logger {
            state: Mutex::new(LoggerState {
                sink: None,
                ring: VecDeque::with_capacity(RING_CAPACITY),
                clock: Arc::new(MonotonicClock::new()),
            }),
            min_level: AtomicU8::new(Level::Info as u8),
        }
    }

    /// Installs (or with `None`, removes) the line sink. Each event is
    /// written as one `to_line()` line plus `\n`; write errors are
    /// swallowed — diagnostics must never take the daemon down.
    pub fn set_sink(&self, sink: Option<Box<dyn Write + Send>>) {
        self.state.lock().unwrap().sink = sink;
    }

    /// Substitutes the time source (a [`crate::ManualClock`] in tests).
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        self.state.lock().unwrap().clock = clock;
    }

    /// Sets the minimum severity that is emitted (default [`Level::Info`]).
    pub fn set_level(&self, level: Level) {
        self.min_level.store(level as u8, Ordering::Relaxed);
    }

    /// The current minimum severity.
    pub fn level(&self) -> Level {
        match self.min_level.load(Ordering::Relaxed) {
            0 => Level::Debug,
            1 => Level::Info,
            2 => Level::Warn,
            _ => Level::Error,
        }
    }

    /// Whether events at `level` are currently emitted.
    pub fn enabled(&self, level: Level) -> bool {
        level as u8 >= self.min_level.load(Ordering::Relaxed)
    }

    /// Emits one event (if `level` clears the threshold): timestamps it,
    /// appends it to the ring (evicting the oldest beyond
    /// [`RING_CAPACITY`]), and writes it to the sink if one is installed.
    pub fn emit(&self, level: Level, target: &str, message: &str, fields: &[(&str, Value)]) {
        if !self.enabled(level) {
            return;
        }
        let mut state = self.state.lock().unwrap();
        let event = LogEvent {
            ts_ns: state.clock.now_ns(),
            level,
            target: target.to_string(),
            message: message.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        if let Some(sink) = state.sink.as_mut() {
            let mut line = event.to_line();
            line.push('\n');
            let _ = sink.write_all(line.as_bytes());
        }
        if state.ring.len() == RING_CAPACITY {
            state.ring.pop_front();
        }
        state.ring.push_back(event);
    }

    /// The most recent `limit` events, oldest first.
    pub fn recent(&self, limit: usize) -> Vec<LogEvent> {
        let state = self.state.lock().unwrap();
        let skip = state.ring.len().saturating_sub(limit);
        state.ring.iter().skip(skip).cloned().collect()
    }

    /// Flushes the sink, if any (call before process exit so a file sink
    /// is complete on disk).
    pub fn flush(&self) {
        if let Some(sink) = self.state.lock().unwrap().sink.as_mut() {
            let _ = sink.flush();
        }
    }
}

/// The process-wide logger the daemon and free functions target.
pub fn logger() -> &'static Logger {
    static LOGGER: OnceLock<Logger> = OnceLock::new();
    LOGGER.get_or_init(Logger::new)
}

/// Emits a [`Level::Debug`] event on the process-wide logger.
pub fn debug(target: &str, message: &str, fields: &[(&str, Value)]) {
    logger().emit(Level::Debug, target, message, fields);
}

/// Emits a [`Level::Info`] event on the process-wide logger.
pub fn info(target: &str, message: &str, fields: &[(&str, Value)]) {
    logger().emit(Level::Info, target, message, fields);
}

/// Emits a [`Level::Warn`] event on the process-wide logger.
pub fn warn(target: &str, message: &str, fields: &[(&str, Value)]) {
    logger().emit(Level::Warn, target, message, fields);
}

/// Emits a [`Level::Error`] event on the process-wide logger.
pub fn error(target: &str, message: &str, fields: &[(&str, Value)]) {
    logger().emit(Level::Error, target, message, fields);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A sink that forwards every written line over a channel.
    struct ChannelSink(mpsc::Sender<String>);

    impl Write for ChannelSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let _ = self.0.send(String::from_utf8_lossy(buf).into_owned());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frozen_clock_makes_lines_byte_deterministic() {
        let logger = Logger::new();
        let clock = Arc::new(ManualClock::at_ns(1_234_000));
        logger.set_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let (tx, rx) = mpsc::channel();
        logger.set_sink(Some(Box::new(ChannelSink(tx))));
        logger.emit(
            Level::Warn,
            "service.request",
            "rejected",
            &[
                ("tenant", "plant \"A\"".into()),
                ("reason", "unknown tenant".into()),
                ("attempt", 3u64.into()),
                ("fatal", false.into()),
            ],
        );
        let line = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(
            line,
            "{\"ts_ns\":1234000,\"level\":\"warn\",\"target\":\"service.request\",\
             \"msg\":\"rejected\",\"fields\":{\"tenant\":\"plant \\\"A\\\"\",\
             \"reason\":\"unknown tenant\",\"attempt\":3,\"fatal\":false}}\n",
        );
        // Advancing the frozen clock moves exactly the timestamp.
        clock.advance(Duration::from_micros(5));
        logger.emit(Level::Error, "service.request", "failed", &[]);
        let line = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(
            line,
            "{\"ts_ns\":1239000,\"level\":\"error\",\"target\":\"service.request\",\
             \"msg\":\"failed\"}\n",
        );
    }

    #[test]
    fn lines_round_trip_through_parse() {
        let event = LogEvent {
            ts_ns: 42,
            level: Level::Info,
            target: "service.cache".to_string(),
            message: "hit with \"quotes\"\nand newline".to_string(),
            fields: vec![
                ("tenant".to_string(), Value::Str("a\\b".to_string())),
                ("entries".to_string(), Value::Int(-7)),
                ("ratio".to_string(), Value::Float(0.5)),
                ("hot".to_string(), Value::Bool(true)),
            ],
        };
        let parsed = LogEvent::parse_line(&event.to_line()).unwrap();
        assert_eq!(parsed, event);
        assert_eq!(parsed.field("entries"), Some(&Value::Int(-7)));
        assert_eq!(parsed.field("absent"), None);
    }

    #[test]
    fn numbers_keep_their_kind_across_the_line_format() {
        // A whole-valued float used to print as `2` and read back as
        // `Value::Int(2)`; the line format is now the shared printer's.
        let event = LogEvent {
            ts_ns: u64::MAX >> 1,
            level: Level::Debug,
            target: "t".to_string(),
            message: "m".to_string(),
            fields: vec![
                ("two".to_string(), Value::Float(2.0)),
                ("negative_zero".to_string(), Value::Float(-0.0)),
                ("huge".to_string(), Value::Float(1e300)),
                ("min".to_string(), Value::Int(i64::MIN)),
            ],
        };
        let line = event.to_line();
        assert_eq!(LogEvent::parse_line(&line).unwrap(), event, "{line}");
        assert_eq!(event.to_json().to_string(), line);
        assert_eq!(LogEvent::from_json(&event.to_json()).unwrap(), event);
    }

    #[test]
    fn level_threshold_filters_and_ring_keeps_the_tail() {
        let logger = Logger::new();
        logger.set_clock(Arc::new(ManualClock::new()));
        assert_eq!(logger.level(), Level::Info);
        logger.emit(Level::Debug, "t", "filtered", &[]);
        assert!(logger.recent(10).is_empty(), "debug is below info");
        assert!(!logger.enabled(Level::Debug));
        logger.set_level(Level::Debug);
        assert!(logger.enabled(Level::Debug));
        for i in 0..(RING_CAPACITY + 5) {
            logger.emit(Level::Debug, "t", &format!("event {i}"), &[]);
        }
        let recent = logger.recent(RING_CAPACITY * 2);
        assert_eq!(recent.len(), RING_CAPACITY, "ring is bounded");
        assert_eq!(
            recent.last().unwrap().message,
            format!("event {}", RING_CAPACITY + 4)
        );
        assert_eq!(recent.first().unwrap().message, "event 5", "oldest evicted");
        let tail = logger.recent(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].message, format!("event {}", RING_CAPACITY + 2));
    }

    #[test]
    fn parse_rejects_garbage_with_typed_errors() {
        use LogParseError as E;
        let cases: &[(&str, E)] = &[
            ("", E::Syntax(0)),
            ("not json", E::Syntax(0)),
            ("[1,2,3]", E::NotAnObject),
            ("42", E::NotAnObject),
            ("{\"ts_ns\":1}", E::MissingKey("level")),
            (
                "{\"ts_ns\":-5,\"level\":\"info\",\"target\":\"t\",\"msg\":\"m\"}",
                E::WrongType("ts_ns"),
            ),
            (
                "{\"ts_ns\":1,\"level\":\"loud\",\"target\":\"t\",\"msg\":\"m\"}",
                E::UnknownLevel("loud".to_string()),
            ),
            (
                "{\"ts_ns\":1,\"level\":\"info\",\"target\":7,\"msg\":\"m\"}",
                E::WrongType("target"),
            ),
            (
                "{\"ts_ns\":1,\"level\":\"info\",\"target\":\"t\",\"msg\":\"m\"} extra",
                E::TrailingGarbage,
            ),
            (
                "{\"ts_ns\":1,\"level\":\"info\",\"target\":\"t\",\"msg\":\"m\",\"fields\":[]}",
                E::WrongType("fields"),
            ),
        ];
        for (line, expected) in cases {
            assert_eq!(
                &LogEvent::parse_line(line).unwrap_err(),
                expected,
                "{line:?}"
            );
        }
        // A missing msg key.
        assert_eq!(
            LogEvent::parse_line("{\"ts_ns\":1,\"level\":\"info\",\"target\":\"t\"}"),
            Err(E::MissingKey("msg"))
        );
        // Depth bombs bail instead of recursing unboundedly.
        let deep = tsn_json::MAX_DEPTH + 1;
        let bomb = format!("{}1{}", "[".repeat(deep), "]".repeat(deep));
        assert_eq!(LogEvent::parse_line(&bomb), Err(E::TooDeep));
        // Extra keys are tolerated; \u escapes decode.
        let parsed = LogEvent::parse_line(
            "{\"v\":1,\"ts_ns\":9,\"level\":\"warn\",\"target\":\"t\",\"msg\":\"\\u00e9 \\ud83d\\ude00\"}",
        )
        .unwrap();
        assert_eq!(parsed.message, "é 😀");
        assert_eq!(parsed.ts_ns, 9);
    }

    #[test]
    fn global_logger_free_functions_work() {
        // Target-scoped so parallel tests in this binary cannot collide.
        let target = "telemetry.test.global_logger";
        warn(target, "global smoke", &[("n", 1u64.into())]);
        let seen = logger()
            .recent(RING_CAPACITY)
            .iter()
            .any(|e| e.target == target && e.message == "global smoke");
        assert!(seen);
    }
}
