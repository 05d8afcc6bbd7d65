//! The diagnostic model: stable rule IDs, severities, locations,
//! renderable reports, and what frontends do with a finished report —
//! suppress accepted findings ([`Baseline`]) and map it to an exit code
//! ([`exit_for`]).
//!
//! Rule IDs are stable across releases and partitioned into banks by
//! target representation; [`RULES`](crate::pass::RULES) lists them.

use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never affects exit status.
    Info,
    /// Suspicious but simulatable; fails only under `--deny-warnings`.
    Warning,
    /// Structural defect; the CLI fails on these.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where in the analyzed artifact a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Location {
    /// Originating file, when the artifact came from one.
    pub path: Option<String>,
    /// 1-based source line, when the artifact has text form.
    pub line: Option<usize>,
    /// The named object (net, node, gate, device, cell) at fault.
    pub object: Option<String>,
}

impl Location {
    /// A location naming only an in-memory object.
    pub fn object(name: impl Into<String>) -> Self {
        Location {
            path: None,
            line: None,
            object: Some(name.into()),
        }
    }

    /// A location in a source file.
    pub fn file_line(path: impl Into<String>, line: usize) -> Self {
        Location {
            path: Some(path.into()),
            line: Some(line),
            object: None,
        }
    }

    /// Attaches a file path, keeping line/object.
    pub fn with_path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        if let Some(path) = &self.path {
            write!(f, "{path}")?;
            if let Some(line) = self.line {
                write!(f, ":{line}")?;
            }
            wrote = true;
        } else if let Some(line) = self.line {
            write!(f, "line {line}")?;
            wrote = true;
        }
        if let Some(object) = &self.object {
            if wrote {
                write!(f, " ")?;
            }
            write!(f, "`{object}`")?;
        } else if !wrote {
            write!(f, "<artifact>")?;
        }
        Ok(())
    }
}

/// One finding from a rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `NC1401`.
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Where the finding points.
    pub location: Location,
    /// Human-readable explanation, one sentence.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(rule: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Error,
            location,
            message: message.into(),
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(rule: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Warning,
            location,
            message: message.into(),
        }
    }

    /// An info-severity diagnostic.
    pub fn info(rule: &'static str, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: Severity::Info,
            location,
            message: message.into(),
        }
    }

    /// A diagnostic at the rule's *registered* severity — the severity
    /// lives only in the [`RULES`](crate::pass::RULES) table, so a call
    /// site can never drift from the registry.
    ///
    /// # Panics
    ///
    /// Panics if `rule` is not registered; rule IDs are compile-time
    /// constants from [`crate::pass::rules`], so an unknown ID is a
    /// programming error, not an input condition.
    pub fn at(rule: &'static str, location: Location, message: impl Into<String>) -> Self {
        let info = crate::pass::rule_info(rule)
            .unwrap_or_else(|| panic!("rule `{rule}` is not registered in RULES"));
        Diagnostic {
            rule,
            severity: info.severity,
            location,
            message: message.into(),
        }
    }

    /// Compact single-line JSON object (no external serializer needed).
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"rule\":{}", json_string(self.rule)),
            format!("\"severity\":{}", json_string(&self.severity.to_string())),
        ];
        if let Some(path) = &self.location.path {
            fields.push(format!("\"path\":{}", json_string(path)));
        }
        if let Some(line) = self.location.line {
            fields.push(format!("\"line\":{line}"));
        }
        if let Some(object) = &self.location.object {
            fields.push(format!("\"object\":{}", json_string(object)));
        }
        fields.push(format!("\"message\":{}", json_string(&self.message)));
        format!("{{{}}}", fields.join(","))
    }
}

impl fmt::Display for Diagnostic {
    /// Renders as `error[NC1401] `n3`: input is floating`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule, self.location, self.message
        )
    }
}

/// `s` as a JSON string literal: escaped by `sta`'s escaper, in quotes.
pub(crate) fn json_string(s: &str) -> String {
    format!("\"{}\"", sta::report::json_escape(s))
}

/// The accumulated output of one or more rules.
#[derive(Debug, Clone, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds one diagnostic.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Merges another report into this one.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All diagnostics, in the order they were pushed.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Count at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True if any diagnostic is error-severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// True if no diagnostics at all were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Stamps every location in the report with a source path.
    pub fn with_path(mut self, path: &str) -> Self {
        for d in &mut self.diagnostics {
            if d.location.path.is_none() {
                d.location.path = Some(path.to_string());
            }
        }
        self
    }

    /// Human-readable multi-line rendering, one diagnostic per line,
    /// followed by a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} note(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }

    /// JSON array rendering, one object per diagnostic.
    pub fn render_json(&self) -> String {
        let items: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        format!("[{}]", items.join(","))
    }

    /// Sorts diagnostics into the canonical deterministic order: rule
    /// ID first, then location (path, line, object), then message.
    /// Every `check_*` function sorts before it returns, so CI diffs
    /// are stable whatever order the rules run in.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (
                a.rule,
                &a.location.path,
                a.location.line,
                &a.location.object,
                &a.message,
            )
                .cmp(&(
                    b.rule,
                    &b.location.path,
                    b.location.line,
                    &b.location.object,
                    &b.message,
                ))
        });
    }

    /// SARIF 2.1.0 rendering — one run, one result per diagnostic,
    /// with the fired rules described in the tool driver. Consumed by
    /// CI code-scanning uploads and archived as a build artifact.
    pub fn render_sarif(&self) -> String {
        let mut fired: Vec<&'static str> = self.diagnostics.iter().map(|d| d.rule).collect();
        fired.sort_unstable();
        fired.dedup();
        let rules: Vec<String> = fired
            .iter()
            .map(|id| {
                let summary = crate::pass::rule_info(id).map_or("", |r| r.summary);
                format!(
                    "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
                    json_string(id),
                    json_string(summary)
                )
            })
            .collect();
        let results: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                let level = match d.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                    Severity::Info => "note",
                };
                let uri = d.location.path.as_deref().unwrap_or("<artifact>");
                let mut region = String::new();
                if let Some(line) = d.location.line {
                    region = format!(",\"region\":{{\"startLine\":{line}}}");
                }
                let mut message = d.message.clone();
                if let Some(object) = &d.location.object {
                    message = format!("`{object}`: {message}");
                }
                format!(
                    "{{\"ruleId\":{},\"level\":\"{level}\",\"message\":{{\"text\":{}}},\
                     \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
                     {{\"uri\":{}}}{region}}}}}]}}",
                    json_string(d.rule),
                    json_string(&message),
                    json_string(uri),
                )
            })
            .collect();
        format!(
            "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
             \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"netcheck\",\
             \"version\":{},\"rules\":[{}]}}}},\"results\":[{}]}}]}}",
            json_string(env!("CARGO_PKG_VERSION")),
            rules.join(","),
            results.join(",")
        )
    }
}

/// A suppression list: known findings a project accepts. One entry per
/// line — a rule ID, whitespace, then a substring matched against the
/// rendered diagnostic; `#` comments and blank lines are skipped. An
/// empty pattern suppresses the whole rule.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    entries: Vec<(String, String)>,
}

impl Baseline {
    /// Parses baseline text. Malformed lines (no rule token) are
    /// ignored rather than fatal — a baseline must never break a lint.
    pub fn parse(text: &str) -> Baseline {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (rule, pattern) = match line.split_once(char::is_whitespace) {
                Some((r, p)) => (r, p.trim()),
                None => (line, ""),
            };
            entries.push((rule.to_string(), pattern.to_string()));
        }
        Baseline { entries }
    }

    /// Number of suppression entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are loaded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Does any entry suppress this diagnostic?
    pub fn suppresses(&self, d: &Diagnostic) -> bool {
        let rendered = d.to_string();
        self.entries
            .iter()
            .any(|(rule, pattern)| d.rule == rule && rendered.contains(pattern.as_str()))
    }

    /// Filters suppressed diagnostics out of a report.
    pub fn apply(&self, report: &Report) -> Report {
        let mut out = Report::new();
        for d in report.diagnostics() {
            if !self.suppresses(d) {
                out.push(d.clone());
            }
        }
        out
    }
}

/// The one exit-code policy every `netcheck` subcommand shares:
/// errors fail (1); warnings fail only under `--deny-warnings`;
/// clean (or info-only) runs exit 0. Parse and I/O failures are the
/// frontend's to map to 2 before a report exists.
pub fn exit_for(report: &Report, deny_warnings: bool) -> i32 {
    let failing = report.has_errors() || (deny_warnings && report.count(Severity::Warning) > 0);
    i32::from(failing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_rule_and_location() {
        let d = Diagnostic::error("NC1401", Location::object("n3"), "input is floating");
        assert_eq!(d.to_string(), "error[NC1401] `n3`: input is floating");
        let d2 = Diagnostic::warning(
            "NC0203",
            Location::file_line("ring.ckt", 12),
            "zero-valued resistor",
        );
        assert_eq!(
            d2.to_string(),
            "warning[NC0203] ring.ckt:12: zero-valued resistor"
        );
    }

    #[test]
    fn json_escapes_and_fields() {
        let d = Diagnostic::info("NC0401", Location::object("cfg \"a\""), "line1\nline2");
        let j = d.to_json();
        assert!(j.contains("\"rule\":\"NC0401\""));
        assert!(j.contains("\\\"a\\\""));
        assert!(j.contains("\\n"));
    }

    #[test]
    fn report_counts_and_errors() {
        let mut r = Report::new();
        assert!(r.is_clean() && !r.has_errors());
        r.push(Diagnostic::warning(
            "NC1403",
            Location::object("clk"),
            "high fan-out",
        ));
        assert!(!r.has_errors());
        r.push(Diagnostic::error(
            "NC1401",
            Location::object("q"),
            "floating input",
        ));
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        let text = r.render_text();
        assert!(text.contains("1 error(s), 1 warning(s), 0 note(s)"));
        let json = r.render_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
    }

    #[test]
    fn at_takes_severity_from_the_registry() {
        let d = Diagnostic::at("NC0901", Location::object("counter"), "would overflow");
        assert_eq!(d.severity, Severity::Error);
        let d = Diagnostic::at("NC1002", Location::object("deadline"), "no headroom");
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn sort_orders_by_rule_then_location() {
        let mut r = Report::new();
        r.push(Diagnostic::warning(
            "NC0203",
            Location::file_line("b.ckt", 9),
            "late",
        ));
        r.push(Diagnostic::error("NC0202", Location::object("q"), "ground"));
        r.push(Diagnostic::warning(
            "NC0203",
            Location::file_line("a.ckt", 2),
            "early",
        ));
        r.sort();
        let order: Vec<_> = r
            .diagnostics()
            .iter()
            .map(|d| (d.rule, d.location.path.clone()))
            .collect();
        assert_eq!(order[0], ("NC0202", None));
        assert_eq!(order[1], ("NC0203", Some("a.ckt".to_string())));
        assert_eq!(order[2], ("NC0203", Some("b.ckt".to_string())));
    }

    #[test]
    fn sarif_is_wellformed_and_maps_severities() {
        let mut r = Report::new();
        r.push(Diagnostic::error(
            "NC0901",
            Location::file_line("bundle.toml", 3),
            "overflow",
        ));
        r.push(Diagnostic::info("NC0402", Location::object("mix"), "note"));
        r.push(Diagnostic::warning(
            "NC1403",
            Location::object("rst"),
            "fan-out 18 exceeds budget",
        ));
        let sarif = r.render_sarif();
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"ruleId\":\"NC0901\""));
        assert!(sarif.contains("\"level\":\"error\""));
        assert!(sarif.contains("\"level\":\"note\""));
        // Warnings map to SARIF "warning" — `--deny-warnings` relies on
        // downstream viewers seeing the same severity the exit code uses.
        assert!(sarif.contains("\"level\":\"warning\""));
        assert!(sarif.contains("\"startLine\":3"));
        assert!(sarif.contains("\"uri\":\"bundle.toml\""));
    }

    #[test]
    fn with_path_stamps_missing_paths_only() {
        let mut r = Report::new();
        r.push(Diagnostic::error(
            "NC0201",
            Location::object("n1"),
            "dangling",
        ));
        r.push(Diagnostic::error(
            "NC0202",
            Location::file_line("other.ckt", 3),
            "no ground path",
        ));
        let r = r.with_path("deck.ckt");
        assert_eq!(
            r.diagnostics()[0].location.path.as_deref(),
            Some("deck.ckt")
        );
        assert_eq!(
            r.diagnostics()[1].location.path.as_deref(),
            Some("other.ckt")
        );
    }

    #[test]
    fn baseline_parses_and_suppresses_by_substring() {
        let text = "# accepted findings\nNC1401 net-of-a\n\nNC1403\n";
        let base = Baseline::parse(text);
        assert_eq!(base.len(), 2);
        let hit = Diagnostic::at(
            crate::pass::rules::NC1401,
            Location::object("net-of-a.net"),
            "floating",
        );
        let other = Diagnostic::at(
            crate::pass::rules::NC1401,
            Location::object("other"),
            "floating",
        );
        let any_fanout = Diagnostic::at(
            crate::pass::rules::NC1403,
            Location::object("clk"),
            "high fan-out",
        );
        assert!(base.suppresses(&hit));
        assert!(!base.suppresses(&other));
        assert!(base.suppresses(&any_fanout), "empty pattern = whole rule");
    }

    #[test]
    fn exit_codes_are_unified() {
        let mut clean = Report::new();
        assert_eq!(exit_for(&clean, false), 0);
        assert_eq!(exit_for(&clean, true), 0);
        clean.push(Diagnostic::info(
            crate::pass::rules::NC0402,
            Location::object("mix"),
            "note",
        ));
        assert_eq!(exit_for(&clean, true), 0, "info never fails");
        let mut warn = Report::new();
        warn.push(Diagnostic::warning(
            crate::pass::rules::NC1403,
            Location::object("clk"),
            "fan-out",
        ));
        assert_eq!(exit_for(&warn, false), 0);
        assert_eq!(exit_for(&warn, true), 1);
        let mut err = Report::new();
        err.push(Diagnostic::error(
            crate::pass::rules::NC1401,
            Location::object("q"),
            "dup",
        ));
        assert_eq!(exit_for(&err, false), 1);
    }
}
