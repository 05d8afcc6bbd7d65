//! The parallel incremental analysis driver.
//!
//! Frontends hand the driver a batch of [`AnalysisTarget`]s; it runs
//! them on a scoped-thread work-stealing pool and memoizes each
//! target's sorted report in an on-disk cache keyed by an FNV-1a
//! fingerprint of `(content, rule set, rules version)`. A re-run over
//! an unchanged tree touches the cache and skips the analysis
//! entirely; editing one file, flipping the rule set, or upgrading
//! `netcheck` invalidates exactly the affected entries.
//!
//! The cache speaks [`SimFs`], the same storage capability the runtime
//! checkpoints use, so deterministic-simulation tests can tear or rot
//! cache entries and prove the driver falls back to a cold run instead
//! of trusting a corrupt file. Every entry carries its own key and a
//! checksum of the body; any mismatch — torn write, bit rot, foreign
//! format, unknown rule ID — is a cache *miss*, never an error.
//!
//! Reports come back in one merged [`Report`], sorted into canonical
//! order, so the rendered output is byte-identical whether it was
//! produced cold, warm, serially, or on N threads.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dst::fs::{RealFs, SimFs};

use crate::diagnostic::{Diagnostic, Location, Report, Severity};
use crate::pass::{rule_info, RULES};

/// One unit of analysis work: something with stable identity
/// (`path`), cacheable content (`fingerprint_payload`), and a cold
/// analysis the driver can fall back to.
pub trait AnalysisTarget: Send + Sync {
    /// Display path stamped onto every diagnostic of this target.
    fn path(&self) -> &str;

    /// The bytes whose change must invalidate the cache entry —
    /// typically the source text of the analyzed artifact.
    fn fingerprint_payload(&self) -> Vec<u8>;

    /// Which rule families ran, e.g. `"netlist-dataflow"`. Part of the
    /// cache key: the same file linted under a different rule set is a
    /// different entry.
    fn rule_set(&self) -> &str;

    /// Runs the analysis cold. The driver stamps `path` and sorts.
    fn analyze(&self) -> Report;
}

/// How the driver runs: thread count, cache location, storage backend.
#[derive(Clone)]
pub struct DriverOptions {
    /// Worker threads; clamped to at least 1.
    pub jobs: usize,
    /// Cache directory; `None` disables the cache entirely.
    pub cache_dir: Option<PathBuf>,
    /// Storage capability the cache reads and writes through.
    pub fs: Arc<dyn SimFs>,
    /// Version tag folded into every cache key, so upgrading the rule
    /// bank invalidates stale entries wholesale.
    pub rules_version: String,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            jobs: 1,
            cache_dir: None,
            fs: Arc::new(RealFs),
            rules_version: default_rules_version(),
        }
    }
}

/// The default cache-busting tag: crate version plus registered rule
/// count, so both releases and rule additions start a fresh cache.
pub fn default_rules_version() -> String {
    format!("{}+{}", env!("CARGO_PKG_VERSION"), RULES.len())
}

/// Cache effectiveness counters for one driver run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Targets answered from the cache.
    pub hits: usize,
    /// Targets analyzed cold (including cache-disabled runs).
    pub misses: usize,
}

impl CacheStats {
    /// The `cache-hit-rate:` status line frontends print to stderr.
    pub fn render(&self) -> String {
        let total = self.hits + self.misses;
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / total as f64
        };
        format!("cache-hit-rate: {}/{total} ({pct:.1}%)", self.hits)
    }
}

/// Everything one driver run produced.
pub struct DriverOutcome {
    /// All targets' diagnostics, merged and canonically sorted.
    pub report: Report,
    /// Hit/miss counters.
    pub stats: CacheStats,
}

/// Runs every target, fanned out over `opts.jobs` worker threads by
/// [`dst::run_indexed`] (idle workers take the next undone target, so
/// one slow target never serializes the batch). The merged report is
/// canonically sorted: output is byte-identical for any job count and
/// any hit/miss mix.
pub fn run_targets(targets: &[&dyn AnalysisTarget], opts: &DriverOptions) -> DriverOutcome {
    let mut report = Report::new();
    let mut stats = CacheStats::default();
    for (r, hit) in dst::run_indexed(targets.len(), opts.jobs, |i| run_one(targets[i], opts)) {
        if hit {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        report.extend(r);
    }
    report.sort();
    DriverOutcome { report, stats }
}

fn run_one(target: &dyn AnalysisTarget, opts: &DriverOptions) -> (Report, bool) {
    let key = cache_key(target, &opts.rules_version);
    if let Some(dir) = &opts.cache_dir {
        if let Some(report) = cache_load(opts.fs.as_ref(), dir, key) {
            return (report, true);
        }
    }
    let mut report = target.analyze().with_path(target.path());
    report.sort();
    if let Some(dir) = &opts.cache_dir {
        cache_store(opts.fs.as_ref(), dir, key, &report);
    }
    (report, false)
}

/// 64-bit FNV-1a, the workspace's standard content fingerprint
/// (shared implementation — see [`dst::hash::fnv1a64`]).
pub use dst::hash::fnv1a64 as fnv1a;

fn cache_key(target: &dyn AnalysisTarget, rules_version: &str) -> u64 {
    fnv1a(&target.fingerprint_payload())
        ^ fnv1a(target.rule_set().as_bytes())
        ^ fnv1a(rules_version.as_bytes())
}

fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.ncr"))
}

// ---------------------------------------------------------------------
// Cache entry format (version 1)
//
//   NCACHE 1 <key hex16> <body checksum hex16> <diagnostic count>
//   <rule>\t<path>\t<line>\t<object>\t<message>      (count lines)
//
// String fields are backslash-escaped (`\\`, `\t`, `\n`, `\r`);
// optional fields are empty for None and `=`-prefixed for Some, so an
// empty Some("") cannot collide with None. Severity is NOT stored: it
// is re-derived from the rule registry on load, which also rejects
// entries naming rules this build does not know.
// ---------------------------------------------------------------------

fn cache_store(fs: &dyn SimFs, dir: &Path, key: u64, report: &Report) {
    let body: String = report
        .diagnostics()
        .iter()
        .map(encode_line)
        .collect::<Vec<_>>()
        .join("\n");
    let text = format!(
        "NCACHE 1 {key:016x} {:016x} {}\n{body}",
        fnv1a(body.as_bytes()),
        report.diagnostics().len()
    );
    // Best-effort atomic write: tmp, sync, rename. A failure just
    // means the next run is cold again.
    let tmp = dir.join(format!("{key:016x}.ncr.tmp"));
    let fin = entry_path(dir, key);
    let _ = fs.create_dir_all(dir);
    if fs.write_file(&tmp, text.as_bytes()).is_ok() && fs.sync(&tmp).is_ok() {
        let _ = fs.rename(&tmp, &fin);
    }
}

fn cache_load(fs: &dyn SimFs, dir: &Path, key: u64) -> Option<Report> {
    let bytes = fs.read(&entry_path(dir, key)).ok()?;
    let text = String::from_utf8(bytes).ok()?;
    let (header, body) = text.split_once('\n')?;
    let fields: Vec<&str> = header.split(' ').collect();
    let [magic, version, stored_key, checksum, count] = fields[..] else {
        return None;
    };
    if magic != "NCACHE" || version != "1" {
        return None;
    }
    if u64::from_str_radix(stored_key, 16).ok()? != key {
        return None;
    }
    if u64::from_str_radix(checksum, 16).ok()? != fnv1a(body.as_bytes()) {
        return None; // torn write or bit rot — treat as a miss
    }
    let count: usize = count.parse().ok()?;
    let mut report = Report::new();
    let lines: Vec<&str> = if body.is_empty() {
        Vec::new()
    } else {
        body.split('\n').collect()
    };
    if lines.len() != count {
        return None;
    }
    for line in lines {
        report.push(decode_line(line)?);
    }
    Some(report)
}

fn encode_line(d: &Diagnostic) -> String {
    let opt = |v: &Option<String>| match v {
        None => String::new(),
        Some(s) => format!("={}", escape(s)),
    };
    format!(
        "{}\t{}\t{}\t{}\t{}",
        d.rule,
        opt(&d.location.path),
        d.location.line.map(|l| l.to_string()).unwrap_or_default(),
        opt(&d.location.object),
        escape(&d.message)
    )
}

fn decode_line(line: &str) -> Option<Diagnostic> {
    let fields: Vec<&str> = line.split('\t').collect();
    let [rule, path, line_no, object, message] = fields[..] else {
        return None;
    };
    // Resolve through the registry to recover the &'static id and the
    // registered severity; unknown rules poison the whole entry.
    let info = rule_info(rule)?;
    let opt = |f: &str| -> Option<Option<String>> {
        match f.strip_prefix('=') {
            Some(s) => Some(Some(unescape(s)?)),
            None if f.is_empty() => Some(None),
            None => None,
        }
    };
    let location = Location {
        path: opt(path)?,
        line: if line_no.is_empty() {
            None
        } else {
            Some(line_no.parse().ok()?)
        },
        object: opt(object)?,
    };
    Some(match info.severity {
        Severity::Error => Diagnostic::error(info.id, location, unescape(message)?),
        Severity::Warning => Diagnostic::warning(info.id, location, unescape(message)?),
        Severity::Info => Diagnostic::info(info.id, location, unescape(message)?),
    })
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------

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
    use dst::fs::{SimDisk, SimDiskProfile};
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct FakeTarget {
        path: String,
        content: String,
        rules: &'static str,
        calls: AtomicUsize,
    }

    impl FakeTarget {
        fn new(path: &str, content: &str) -> Self {
            FakeTarget {
                path: path.to_string(),
                content: content.to_string(),
                rules: "fake",
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl AnalysisTarget for FakeTarget {
        fn path(&self) -> &str {
            &self.path
        }
        fn fingerprint_payload(&self) -> Vec<u8> {
            self.content.clone().into_bytes()
        }
        fn rule_set(&self) -> &str {
            self.rules
        }
        fn analyze(&self) -> Report {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let mut r = Report::new();
            r.push(Diagnostic::at(
                crate::pass::rules::NC0101,
                Location::object(format!("net-of-{}", self.path)),
                format!("cold finding for {}", self.content),
            ));
            r
        }
    }

    // The FNV-1a reference-vector test lives next to the shared
    // implementation in `dst::hash`.

    #[test]
    fn diagnostic_lines_round_trip_with_escapes() {
        let d = Diagnostic::at(
            crate::pass::rules::NC0106,
            Location {
                path: Some("a\tb.ckt".into()),
                line: Some(7),
                object: Some("clk\\net".into()),
            },
            "fan-out\nhigh",
        );
        let line = encode_line(&d);
        let back = decode_line(&line).expect("round trip");
        assert_eq!(back, d);
        assert_eq!(back.severity, Severity::Warning);
    }

    #[test]
    fn warm_run_hits_and_skips_analysis() {
        let disk = Arc::new(SimDisk::new(1, SimDiskProfile::pristine()));
        let opts = DriverOptions {
            jobs: 2,
            cache_dir: Some(PathBuf::from("/cache")),
            fs: disk,
            rules_version: "test-1".into(),
        };
        let a = FakeTarget::new("a.net", "alpha");
        let b = FakeTarget::new("b.net", "beta");
        let targets: Vec<&dyn AnalysisTarget> = vec![&a, &b];
        let cold = run_targets(&targets, &opts);
        assert_eq!(cold.stats, CacheStats { hits: 0, misses: 2 });
        let warm = run_targets(&targets, &opts);
        assert_eq!(warm.stats, CacheStats { hits: 2, misses: 0 });
        assert_eq!(a.calls.load(Ordering::Relaxed), 1, "cold ran exactly once");
        assert_eq!(
            cold.report.render_text(),
            warm.report.render_text(),
            "cached replay is byte-identical"
        );
        assert_eq!(warm.stats.render(), "cache-hit-rate: 2/2 (100.0%)");
    }

    #[test]
    fn content_change_invalidates_only_that_entry() {
        let disk = Arc::new(SimDisk::new(2, SimDiskProfile::pristine()));
        let opts = DriverOptions {
            jobs: 1,
            cache_dir: Some(PathBuf::from("/cache")),
            fs: disk,
            rules_version: "test-1".into(),
        };
        let a = FakeTarget::new("a.net", "alpha");
        let b = FakeTarget::new("b.net", "beta");
        run_targets(&[&a, &b], &opts);
        let a2 = FakeTarget::new("a.net", "alpha-edited");
        let again = run_targets(&[&a2, &b], &opts);
        assert_eq!(again.stats, CacheStats { hits: 1, misses: 1 });
        assert_eq!(a2.calls.load(Ordering::Relaxed), 1);
        assert_eq!(b.calls.load(Ordering::Relaxed), 1, "b stayed cached");
    }

    #[test]
    fn corrupt_cache_entry_falls_back_to_cold() {
        let disk = Arc::new(SimDisk::new(3, SimDiskProfile::pristine()));
        let opts = DriverOptions {
            jobs: 1,
            cache_dir: Some(PathBuf::from("/cache")),
            fs: Arc::clone(&disk) as Arc<dyn SimFs>,
            rules_version: "test-1".into(),
        };
        let a = FakeTarget::new("a.net", "alpha");
        run_targets(&[&a], &opts);
        // Rot every cache entry (flip a byte mid-file).
        for path in disk.list(Path::new("/cache")).unwrap() {
            let mut bytes = disk.read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x55;
            disk.plant(path, bytes);
        }
        let after = run_targets(&[&a], &opts);
        assert_eq!(after.stats, CacheStats { hits: 0, misses: 1 });
        assert_eq!(a.calls.load(Ordering::Relaxed), 2, "cold re-analysis ran");
        // And the rewritten entry is good again.
        let healed = run_targets(&[&a], &opts);
        assert_eq!(healed.stats, CacheStats { hits: 1, misses: 0 });
    }

    #[test]
    fn baseline_parses_and_suppresses_by_substring() {
        let text = "# accepted findings\nNC0101 net-of-a\n\nNC0106\n";
        let base = Baseline::parse(text);
        assert_eq!(base.len(), 2);
        let hit = Diagnostic::at(
            crate::pass::rules::NC0101,
            Location::object("net-of-a.net"),
            "never driven",
        );
        let other = Diagnostic::at(
            crate::pass::rules::NC0101,
            Location::object("other"),
            "never driven",
        );
        let any_fanout = Diagnostic::at(
            crate::pass::rules::NC0106,
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
            crate::pass::rules::NC0106,
            Location::object("clk"),
            "fan-out",
        ));
        assert_eq!(exit_for(&warn, false), 0);
        assert_eq!(exit_for(&warn, true), 1);
        let mut err = Report::new();
        err.push(Diagnostic::error(
            crate::pass::rules::NC0102,
            Location::object("q"),
            "dup",
        ));
        assert_eq!(exit_for(&err, false), 1);
    }
}
