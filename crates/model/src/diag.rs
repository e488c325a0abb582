//! Structured lint diagnostics (`TDL…` codes) for schemas and projection
//! requests.
//!
//! Every check the analyzer performs — whether shallow well-formedness from
//! [`crate::Schema::validate_diagnostics`] or the deeper projection-safety
//! passes in td-core — reports through one vocabulary: a [`Diagnostic`]
//! carries a stable [`LintCode`], a [`Severity`], a human-readable message
//! and provenance [`Span`]s naming the offending types, attributes, generic
//! functions and methods. A [`LintReport`] aggregates diagnostics, renders
//! them as text or JSON, and decides the exit policy (`--deny warnings`).
//!
//! Severity tiers are part of the contract: facts about the paper's own
//! machinery (the §4 optimistic cycle assumption, §6.4 Augment pressure) are
//! *notes*; schema smells that make derivations surprising (dispatch
//! ambiguity, behavior-free projections) are *warnings*; anything that makes
//! the pipeline fail outright (precedence conflicts, malformed requests,
//! validation failures) is an *error*.

use std::fmt;
use td_telemetry::json::{quote, Json};

/// How serious a diagnostic is. Ordered: `Note < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: the derivation will succeed, but rests on an
    /// assumption or side effect worth knowing about.
    Note,
    /// Suspicious: the derivation will succeed but is likely not what the
    /// schema author intended. Fails `--deny warnings`.
    Warning,
    /// The pipeline will reject this schema or request.
    Error,
}

impl Severity {
    /// Parses the rendered name (which doubles as the SARIF `level`
    /// string — the two vocabularies coincide).
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "note" => Some(Severity::Note),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable lint codes. `TDL0xx` are the analysis passes; `TDL1xx` are
/// well-formedness (validation) failures; `TDL2xx` are the deep
/// interprocedural analyses (td-analyze) — they are only emitted by
/// `tdv analyze`, never by the plain lint pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// TDL001 — an argument-type tuple has two maximal applicable methods
    /// and no most-specific winner (multi-method confusability, §3).
    DispatchAmbiguity,
    /// TDL002 — inconsistent class precedence list or broken surrogate
    /// precedence wiring; would violate invariant I2 (§2, §5).
    PrecedenceConflict,
    /// TDL003 — a method's applicability verdict rests on the §4 optimistic
    /// assumption about a call ring (call-graph SCC).
    OptimisticCycle,
    /// TDL004 — the requested projection derives a behavior-free type: no
    /// non-accessor method survives (§4).
    BehaviorFreeProjection,
    /// TDL005 — an assignment in a surviving method body forces `Augment` to
    /// create surrogates for types outside the projection closure (§6.4).
    AugmentHazard,
    /// TDL006 — the projection request itself is malformed: empty, or names
    /// attributes not available at the source type (§3.1).
    InvalidRequest,
    /// TDL100 — a dangling or duplicate identifier reference.
    InvalidReference,
    /// TDL101 — the type hierarchy contains a cycle (§2).
    HierarchyCycle,
    /// TDL102 — attribute ownership bookkeeping is inconsistent (§2.2).
    AttrOwnership,
    /// TDL103 — a method's signature disagrees with its generic function's
    /// arity (§3).
    MethodArity,
    /// TDL104 — an accessor method violates the accessor contract (§2.2).
    AccessorContract,
    /// TDL105 — a method body references parameters, variables or generic
    /// functions that do not exist (§6.3).
    BodyMalformed,
    /// TDL106 — two methods of one generic function share identical
    /// signatures (§3).
    DuplicateSignatures,
    /// TDL107 — a body assignment stores a value into a variable of an
    /// incompatible type (§6.3).
    AssignmentTypeError,
    /// TDL201 — a call site passes an argument that is provably `Null` on
    /// every path, so dispatch on a type specializer is guaranteed to
    /// fail at runtime (§3; nullability propagation).
    NullArgDispatch,
    /// TDL202 — a branch condition is a compile-time constant, leaving
    /// statements (and any `Augment` pressure they carry) unreachable
    /// (§6.4; constant propagation).
    ConstantBranch,
    /// TDL203 — an applicable method is shadowed by a more specific one
    /// at every entry and unreachable through any surviving call chain
    /// under the projection (§4; reachability).
    UnreachableMethod,
    /// TDL204 — a projected attribute is never read by any surviving
    /// non-accessor method: a semantic sharpening of the §4 load-bearing
    /// set (liveness).
    DeadAttribute,
    /// TDL205 — an interprocedural def-use chain forces `Augment` to
    /// surrogate types outside the projection closure across a call
    /// boundary — the §6.4 check generalized beyond one body.
    InterprocAugment,
}

impl LintCode {
    /// The stable code string, e.g. `"TDL001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::DispatchAmbiguity => "TDL001",
            LintCode::PrecedenceConflict => "TDL002",
            LintCode::OptimisticCycle => "TDL003",
            LintCode::BehaviorFreeProjection => "TDL004",
            LintCode::AugmentHazard => "TDL005",
            LintCode::InvalidRequest => "TDL006",
            LintCode::InvalidReference => "TDL100",
            LintCode::HierarchyCycle => "TDL101",
            LintCode::AttrOwnership => "TDL102",
            LintCode::MethodArity => "TDL103",
            LintCode::AccessorContract => "TDL104",
            LintCode::BodyMalformed => "TDL105",
            LintCode::DuplicateSignatures => "TDL106",
            LintCode::AssignmentTypeError => "TDL107",
            LintCode::NullArgDispatch => "TDL201",
            LintCode::ConstantBranch => "TDL202",
            LintCode::UnreachableMethod => "TDL203",
            LintCode::DeadAttribute => "TDL204",
            LintCode::InterprocAugment => "TDL205",
        }
    }

    /// The inverse of [`LintCode::as_str`]: resolves a stable code
    /// string. Used by the SARIF importer.
    pub fn parse(code: &str) -> Option<LintCode> {
        LintCode::ALL.iter().copied().find(|c| c.as_str() == code)
    }

    /// Every code, in code order.
    pub const ALL: &'static [LintCode] = &[
        LintCode::DispatchAmbiguity,
        LintCode::PrecedenceConflict,
        LintCode::OptimisticCycle,
        LintCode::BehaviorFreeProjection,
        LintCode::AugmentHazard,
        LintCode::InvalidRequest,
        LintCode::InvalidReference,
        LintCode::HierarchyCycle,
        LintCode::AttrOwnership,
        LintCode::MethodArity,
        LintCode::AccessorContract,
        LintCode::BodyMalformed,
        LintCode::DuplicateSignatures,
        LintCode::AssignmentTypeError,
        LintCode::NullArgDispatch,
        LintCode::ConstantBranch,
        LintCode::UnreachableMethod,
        LintCode::DeadAttribute,
        LintCode::InterprocAugment,
    ];

    /// One-line rule description for machine-readable exports (SARIF
    /// `shortDescription`).
    pub fn short_description(self) -> &'static str {
        match self {
            LintCode::DispatchAmbiguity => "argument tuple has no most-specific applicable method",
            LintCode::PrecedenceConflict => "inconsistent class precedence list",
            LintCode::OptimisticCycle => "applicability rests on the optimistic cycle assumption",
            LintCode::BehaviorFreeProjection => "projection derives a behavior-free type",
            LintCode::AugmentHazard => "assignment forces Augment to surrogate external types",
            LintCode::InvalidRequest => "malformed projection request",
            LintCode::InvalidReference => "dangling or duplicate identifier reference",
            LintCode::HierarchyCycle => "type hierarchy contains a cycle",
            LintCode::AttrOwnership => "inconsistent attribute ownership",
            LintCode::MethodArity => "method arity disagrees with its generic function",
            LintCode::AccessorContract => "accessor method violates the accessor contract",
            LintCode::BodyMalformed => "method body references unknown entities",
            LintCode::DuplicateSignatures => "two methods share identical signatures",
            LintCode::AssignmentTypeError => "assignment stores an incompatible value type",
            LintCode::NullArgDispatch => "argument is provably Null: dispatch cannot succeed",
            LintCode::ConstantBranch => "branch condition is constant: dead statements",
            LintCode::UnreachableMethod => "method shadowed and unreachable under the projection",
            LintCode::DeadAttribute => "attribute never read on any surviving path",
            LintCode::InterprocAugment => "interprocedural def-use chain forces Augment surrogates",
        }
    }

    /// The section of the paper whose machinery this check enforces.
    pub fn paper_section(self) -> &'static str {
        match self {
            LintCode::DispatchAmbiguity => "§3",
            LintCode::PrecedenceConflict => "§2/I2",
            LintCode::OptimisticCycle => "§4.1",
            LintCode::BehaviorFreeProjection => "§4",
            LintCode::AugmentHazard => "§6.4",
            LintCode::InvalidRequest => "§3.1",
            LintCode::InvalidReference => "§2",
            LintCode::HierarchyCycle => "§2",
            LintCode::AttrOwnership => "§2.2",
            LintCode::MethodArity => "§3",
            LintCode::AccessorContract => "§2.2",
            LintCode::BodyMalformed => "§6.3",
            LintCode::DuplicateSignatures => "§3",
            LintCode::AssignmentTypeError => "§6.3",
            LintCode::NullArgDispatch => "§3",
            LintCode::ConstantBranch => "§6.4",
            LintCode::UnreachableMethod => "§4",
            LintCode::DeadAttribute => "§4",
            LintCode::InterprocAugment => "§6.4",
        }
    }

    /// The default severity this code reports at.
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::OptimisticCycle
            | LintCode::AugmentHazard
            | LintCode::DeadAttribute
            | LintCode::InterprocAugment => Severity::Note,
            LintCode::DispatchAmbiguity
            | LintCode::BehaviorFreeProjection
            | LintCode::NullArgDispatch
            | LintCode::ConstantBranch
            | LintCode::UnreachableMethod => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What kind of schema entity a [`Span`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A type (or surrogate).
    Type,
    /// An attribute.
    Attr,
    /// A generic function.
    Gf,
    /// A method (named by its label).
    Method,
}

impl SpanKind {
    fn as_str(self) -> &'static str {
        match self {
            SpanKind::Type => "type",
            SpanKind::Attr => "attr",
            SpanKind::Gf => "gf",
            SpanKind::Method => "method",
        }
    }

    fn parse(s: &str) -> Option<SpanKind> {
        match s {
            "type" => Some(SpanKind::Type),
            "attr" => Some(SpanKind::Attr),
            "gf" => Some(SpanKind::Gf),
            "method" => Some(SpanKind::Method),
            _ => None,
        }
    }
}

/// Provenance: one named schema entity a diagnostic points at.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// The entity's kind.
    pub kind: SpanKind,
    /// The entity's name (type/attribute/gf name, or method label).
    pub name: String,
}

impl Span {
    /// A span naming a type.
    pub fn ty(name: impl Into<String>) -> Span {
        Span {
            kind: SpanKind::Type,
            name: name.into(),
        }
    }

    /// A span naming an attribute.
    pub fn attr(name: impl Into<String>) -> Span {
        Span {
            kind: SpanKind::Attr,
            name: name.into(),
        }
    }

    /// A span naming a generic function.
    pub fn gf(name: impl Into<String>) -> Span {
        Span {
            kind: SpanKind::Gf,
            name: name.into(),
        }
    }

    /// A span naming a method by its label.
    pub fn method(name: impl Into<String>) -> Span {
        Span {
            kind: SpanKind::Method,
            name: name.into(),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} `{}`", self.kind.as_str(), self.name)
    }
}

/// One finding: a lint code, severity, message, and the entities involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code.
    pub code: LintCode,
    /// Severity this instance reports at.
    pub severity: Severity,
    /// Human-readable description with entity names inlined.
    pub message: String,
    /// Entities the finding points at, most relevant first.
    pub spans: Vec<Span>,
}

impl Diagnostic {
    /// Builds a diagnostic at the code's default severity.
    pub fn new(code: LintCode, message: impl Into<String>, spans: Vec<Span>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            spans,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if !self.spans.is_empty() {
            write!(f, " [")?;
            for (i, s) in self.spans.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{s}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

/// An ordered collection of diagnostics with rendering and exit policy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintReport {
    /// The findings, in check order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// A report over the given findings.
    pub fn new(diagnostics: Vec<Diagnostic>) -> LintReport {
        LintReport { diagnostics }
    }

    /// True when nothing was found.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-severity findings.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    /// Whether this report should fail the run. Errors always fail;
    /// warnings fail only under `deny_warnings`.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.errors() > 0 || (deny_warnings && self.warnings() > 0)
    }

    /// Appends another report's findings to this one.
    pub fn extend(&mut self, other: &LintReport) {
        self.diagnostics.extend(other.diagnostics.iter().cloned());
    }

    /// Plain-text rendering: one line per finding plus a summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "lint: {} errors, {} warnings, {} notes\n",
            self.errors(),
            self.warnings(),
            self.notes()
        ));
        out
    }

    /// JSON rendering (stable field order, no external dependencies).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"code\": \"{}\", ", d.code.as_str()));
            out.push_str(&format!("\"severity\": \"{}\", ", d.severity));
            out.push_str(&format!(
                "\"paper_section\": {}, ",
                quote(d.code.paper_section())
            ));
            out.push_str(&format!("\"message\": {}, ", quote(&d.message)));
            out.push_str("\"spans\": [");
            for (j, s) in d.spans.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"kind\": \"{}\", \"name\": {}}}",
                    s.kind.as_str(),
                    quote(&s.name)
                ));
            }
            out.push_str("]}");
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"errors\": {},\n  \"warnings\": {},\n  \"notes\": {}\n}}\n",
            self.errors(),
            self.warnings(),
            self.notes()
        ));
        out
    }

    /// SARIF 2.1.0 rendering (hand-rolled, dependency-free): one run,
    /// one result per diagnostic, spans as logical locations. Severity
    /// maps 1:1 onto the SARIF `level` vocabulary, so the export loses
    /// nothing — [`LintReport::from_sarif`] reconstructs the report
    /// exactly (round-trip tested).
    pub fn render_sarif(&self, tool_name: &str) -> String {
        // Rules metadata: each distinct code, in first-appearance order.
        let mut rules: Vec<LintCode> = Vec::new();
        for d in &self.diagnostics {
            if !rules.contains(&d.code) {
                rules.push(d.code);
            }
        }
        let mut out = String::from("{\n");
        out.push_str(
            "  \"$schema\": \"https://docs.oasis-open.org/sarif/sarif/v2.1.0/os/schemas/sarif-schema-2.1.0.json\",\n",
        );
        out.push_str("  \"version\": \"2.1.0\",\n");
        out.push_str("  \"runs\": [\n    {\n");
        out.push_str("      \"tool\": {\n        \"driver\": {\n");
        out.push_str(&format!("          \"name\": {},\n", quote(tool_name)));
        out.push_str("          \"rules\": [");
        for (i, code) in rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n            {{\"id\": \"{}\", \
                 \"shortDescription\": {{\"text\": {}}}, \
                 \"defaultConfiguration\": {{\"level\": \"{}\"}}, \
                 \"properties\": {{\"paperSection\": {}}}}}",
                code.as_str(),
                quote(code.short_description()),
                code.default_severity(),
                quote(code.paper_section())
            ));
        }
        if !rules.is_empty() {
            out.push_str("\n          ");
        }
        out.push_str("]\n        }\n      },\n");
        out.push_str("      \"results\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n        {{\"ruleId\": \"{}\", \"level\": \"{}\", \
                 \"message\": {{\"text\": {}}}, \"locations\": [",
                d.code.as_str(),
                d.severity,
                quote(&d.message)
            ));
            if !d.spans.is_empty() {
                out.push_str("{\"logicalLocations\": [");
                for (j, s) in d.spans.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"kind\": \"{}\", \"name\": {}}}",
                        s.kind.as_str(),
                        quote(&s.name)
                    ));
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }\n  ]\n}\n");
        out
    }

    /// Reconstructs a report from SARIF produced by
    /// [`LintReport::render_sarif`] (or any SARIF 2.1.0 document using
    /// the `TDL…` rule ids and logical locations). Unknown rule ids or
    /// malformed structure are errors, not silently dropped findings.
    pub fn from_sarif(text: &str) -> Result<LintReport, String> {
        let doc = Json::parse(text)?;
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("missing `runs` array")?;
        let mut diagnostics = Vec::new();
        for run in runs {
            let results = run
                .get("results")
                .and_then(Json::as_arr)
                .ok_or("run missing `results` array")?;
            for res in results {
                let rule_id = res
                    .get("ruleId")
                    .and_then(Json::as_str)
                    .ok_or("result missing `ruleId`")?;
                let code = LintCode::parse(rule_id)
                    .ok_or_else(|| format!("unknown rule id `{rule_id}`"))?;
                let severity = match res.get("level").and_then(Json::as_str) {
                    Some(level) => {
                        Severity::parse(level).ok_or_else(|| format!("unknown level `{level}`"))?
                    }
                    None => code.default_severity(),
                };
                let message = res
                    .get("message")
                    .and_then(|m| m.get("text"))
                    .and_then(Json::as_str)
                    .ok_or("result missing `message.text`")?
                    .to_string();
                let mut spans = Vec::new();
                if let Some(locations) = res.get("locations").and_then(Json::as_arr) {
                    for loc in locations {
                        let logical = loc
                            .get("logicalLocations")
                            .and_then(Json::as_arr)
                            .ok_or("location missing `logicalLocations`")?;
                        for ll in logical {
                            let kind = ll
                                .get("kind")
                                .and_then(Json::as_str)
                                .and_then(SpanKind::parse)
                                .ok_or("logical location with unknown `kind`")?;
                            let name = ll
                                .get("name")
                                .and_then(Json::as_str)
                                .ok_or("logical location missing `name`")?;
                            spans.push(Span {
                                kind,
                                name: name.to_string(),
                            });
                        }
                    }
                }
                diagnostics.push(Diagnostic {
                    code,
                    severity,
                    message,
                    spans,
                });
            }
        }
        Ok(LintReport::new(diagnostics))
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render_text().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: LintCode) -> Diagnostic {
        Diagnostic::new(code, "msg", vec![Span::ty("A"), Span::method("x1")])
    }

    #[test]
    fn severity_is_ordered() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn codes_are_stable_and_sectioned() {
        assert_eq!(LintCode::DispatchAmbiguity.as_str(), "TDL001");
        assert_eq!(LintCode::AugmentHazard.as_str(), "TDL005");
        assert_eq!(LintCode::AssignmentTypeError.as_str(), "TDL107");
        assert_eq!(LintCode::OptimisticCycle.paper_section(), "§4.1");
        assert_eq!(LintCode::OptimisticCycle.default_severity(), Severity::Note);
        assert_eq!(
            LintCode::PrecedenceConflict.default_severity(),
            Severity::Error
        );
    }

    #[test]
    fn report_counts_and_exit_policy() {
        let report = LintReport::new(vec![
            diag(LintCode::OptimisticCycle),
            diag(LintCode::DispatchAmbiguity),
        ]);
        assert_eq!(report.errors(), 0);
        assert_eq!(report.warnings(), 1);
        assert_eq!(report.notes(), 1);
        assert!(!report.fails(false));
        assert!(report.fails(true));

        let errs = LintReport::new(vec![diag(LintCode::PrecedenceConflict)]);
        assert!(errs.fails(false));
    }

    #[test]
    fn display_mentions_code_and_spans() {
        let d = diag(LintCode::DispatchAmbiguity);
        let s = d.to_string();
        assert!(s.contains("warning[TDL001]"), "{s}");
        assert!(s.contains("type `A`"), "{s}");
        assert!(s.contains("method `x1`"), "{s}");
    }

    #[test]
    fn json_is_escaped_and_counts_match() {
        let mut d = diag(LintCode::InvalidRequest);
        d.message = "bad \"quote\"\nline".into();
        let report = LintReport::new(vec![d]);
        let json = report.render_json();
        assert!(json.contains("\\\"quote\\\"\\nline"), "{json}");
        assert!(json.contains("\"errors\": 1"), "{json}");
        assert!(json.contains("\"paper_section\""), "{json}");
    }

    #[test]
    fn empty_report_renders() {
        let r = LintReport::default();
        assert!(r.is_empty());
        assert!(r.render_json().contains("\"errors\": 0"));
        assert!(r.render_text().contains("0 errors"));
    }

    #[test]
    fn analysis_codes_are_stable() {
        assert_eq!(LintCode::NullArgDispatch.as_str(), "TDL201");
        assert_eq!(LintCode::ConstantBranch.as_str(), "TDL202");
        assert_eq!(LintCode::UnreachableMethod.as_str(), "TDL203");
        assert_eq!(LintCode::DeadAttribute.as_str(), "TDL204");
        assert_eq!(LintCode::InterprocAugment.as_str(), "TDL205");
        assert_eq!(
            LintCode::NullArgDispatch.default_severity(),
            Severity::Warning
        );
        assert_eq!(LintCode::DeadAttribute.default_severity(), Severity::Note);
        // parse() inverts as_str() over the whole vocabulary.
        for &code in LintCode::ALL {
            assert_eq!(LintCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(LintCode::parse("TDL999"), None);
    }

    #[test]
    fn sarif_round_trips_exactly() {
        let mut custom = diag(LintCode::OptimisticCycle);
        custom.severity = Severity::Warning; // non-default severity survives
        custom.message = "ring {x1, y1} \"quoted\"\nline".into();
        let report = LintReport::new(vec![
            diag(LintCode::DispatchAmbiguity),
            diag(LintCode::NullArgDispatch),
            custom,
            Diagnostic::new(LintCode::DeadAttribute, "no spans", vec![]),
        ]);
        let sarif = report.render_sarif("tdv");
        assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
        assert!(sarif.contains("\"ruleId\": \"TDL201\""), "{sarif}");
        assert!(sarif.contains("\"paperSection\""), "{sarif}");
        let back = LintReport::from_sarif(&sarif).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn sarif_empty_report_round_trips() {
        let report = LintReport::default();
        let sarif = report.render_sarif("tdv");
        assert!(sarif.contains("\"results\": []"), "{sarif}");
        assert_eq!(LintReport::from_sarif(&sarif).unwrap(), report);
    }

    #[test]
    fn sarif_import_rejects_unknown_rules_and_garbage() {
        assert!(LintReport::from_sarif("{not json").is_err());
        assert!(LintReport::from_sarif("{}").is_err());
        let bogus = r#"{"runs": [{"results": [{"ruleId": "XXX9", "message": {"text": "m"}}]}]}"#;
        assert!(LintReport::from_sarif(bogus).unwrap_err().contains("XXX9"));
    }

    #[test]
    fn sarif_level_defaults_from_rule_when_absent() {
        let doc = r#"{"runs": [{"results": [
            {"ruleId": "TDL001", "message": {"text": "m"}, "locations": []}
        ]}]}"#;
        let report = LintReport::from_sarif(doc).unwrap();
        assert_eq!(report.diagnostics[0].severity, Severity::Warning);
    }
}
