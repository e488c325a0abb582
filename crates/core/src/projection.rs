//! The end-to-end projection operator: `Π_{a,b,…}(T)` over a schema.
//!
//! [`project`] orchestrates the paper's pipeline:
//!
//! 1. infer applicable methods (`IsApplicable`, §4.1);
//! 2. factor state into surrogates (`FactorState`, §5.1);
//! 3. collect the §6.4 definition-use edges and compute `Y`/`Z`,
//!    extending `Z` with the coverage types (see DESIGN.md, deviation 1);
//! 4. augment the hierarchy for the `Z` types (`Augment`, §6.4) —
//!    *before* signature factoring, so every supertype-of-source
//!    specializer has a surrogate to move to;
//! 5. factor applicable method signatures (`FactorMethods`, §6.1);
//! 6. re-type bodies and result types (§6.3);
//! 7. optionally check every preservation invariant against a
//!    pre-derivation snapshot.
//!
//! The returned [`Derivation`] records everything the pipeline did, enough
//! to reproduce the paper's Examples 1–4 verbatim.

use std::collections::{BTreeSet, HashMap};
use std::time::Duration;
use td_model::{AttrId, MethodId, Schema, TypeId};

use crate::applicability::{compute_applicability_indexed, Applicability};
use crate::augment::augment;
use crate::body_rewrite::{collect_flow_edges, compute_y_and_z, retype_bodies, RetypeOutcome};
use crate::error::{CoreError, Result};
use crate::factor_methods::{converted_positions, factor_methods, SignatureChange};
use crate::factor_state::{factor_state, FactorStateOutcome};
use crate::invariants::{check_invariants, InvariantReport};
use crate::surrogates::{SurrogateKind, SurrogateRegistry};

/// Options controlling a projection derivation.
#[derive(Debug, Clone)]
pub struct ProjectionOptions {
    /// Record the `IsApplicable` trace (costs allocations; used by the
    /// reproduction harness).
    pub record_trace: bool,
    /// Snapshot the schema and verify invariants I1–I5 after deriving.
    pub check_invariants: bool,
    /// Permit an empty projection list (a view with no attributes).
    pub allow_empty: bool,
}

impl Default for ProjectionOptions {
    fn default() -> Self {
        ProjectionOptions {
            record_trace: false,
            check_invariants: true,
            allow_empty: false,
        }
    }
}

impl ProjectionOptions {
    /// Options for benchmarking: no trace, no invariant sweep.
    pub fn fast() -> Self {
        ProjectionOptions {
            check_invariants: false,
            ..ProjectionOptions::default()
        }
    }
}

/// Wall-clock cost of each pipeline stage of one [`project`] run.
///
/// Always recorded (seven clock reads per derivation — noise next to any
/// stage). Each slot is the *same measurement* as the `project`-category
/// stage span `td_telemetry` records when tracing is enabled: [`project`]
/// reads the clock once per stage boundary and feeds both, so timings and
/// trace can never disagree. The batch engine (`td-driver`) sums these
/// across requests to show where a fleet of derivations spends its time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// `IsApplicable` (§4.1).
    pub applicability: Duration,
    /// `FactorState` (§5.1).
    pub factor_state: Duration,
    /// Def-use collection and `Y`/`Z` computation (§6.4).
    pub flow_analysis: Duration,
    /// `Augment` (§6.4).
    pub augment: Duration,
    /// `FactorMethods` (§6.1).
    pub factor_methods: Duration,
    /// Body and result re-typing (§6.3).
    pub retype: Duration,
    /// Invariant checking I1–I5 (zero when disabled).
    pub invariants: Duration,
}

impl StageTimings {
    /// Sum of all stages.
    pub fn total(&self) -> Duration {
        self.applicability
            + self.factor_state
            + self.flow_analysis
            + self.augment
            + self.factor_methods
            + self.retype
            + self.invariants
    }

    /// Adds another run's timings stage by stage (batch rollups).
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.applicability += other.applicability;
        self.factor_state += other.factor_state;
        self.flow_analysis += other.flow_analysis;
        self.augment += other.augment;
        self.factor_methods += other.factor_methods;
        self.retype += other.retype;
        self.invariants += other.invariants;
    }
}

/// Formats a duration with an adaptively chosen unit (µs below a
/// millisecond, ms below a second, whole seconds above).
fn fmt_adaptive(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.1}µs", secs * 1e6)
    }
}

impl std::fmt::Display for StageTimings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total();
        let pct = |d: Duration| {
            if total.is_zero() {
                0.0
            } else {
                d.as_secs_f64() / total.as_secs_f64() * 100.0
            }
        };
        let stages = [
            ("applicability", self.applicability),
            ("factor-state", self.factor_state),
            ("flow", self.flow_analysis),
            ("augment", self.augment),
            ("factor-methods", self.factor_methods),
            ("retype", self.retype),
            ("invariants", self.invariants),
        ];
        for (name, d) in stages {
            write!(f, "{name} {} ({:.0}%), ", fmt_adaptive(d), pct(d))?;
        }
        write!(f, "total {}", fmt_adaptive(total))
    }
}

/// Everything a projection derivation produced.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// The projection's source type.
    pub source: TypeId,
    /// The derived type `T̂` (the surrogate of the source).
    pub derived: TypeId,
    /// The projection list.
    pub projection: BTreeSet<AttrId>,
    /// The applicability computation (universe, applicable, trace, …).
    pub applicability: Applicability,
    /// `(source, surrogate)` pairs created by `FactorState`, sorted.
    pub factor_surrogates: Vec<(TypeId, TypeId)>,
    /// `(source, surrogate)` pairs created by `Augment`, in creation order.
    pub augment_surrogates: Vec<(TypeId, TypeId)>,
    /// Attribute moves `(attr, from, to)` in execution order.
    pub moved_attrs: Vec<(AttrId, TypeId, TypeId)>,
    /// Method-signature rewrites.
    pub signature_changes: Vec<SignatureChange>,
    /// The §6.4 `Z` set.
    pub z_types: BTreeSet<TypeId>,
    /// Local/result re-typings (§6.3).
    pub retypes: RetypeOutcome,
    /// Invariant report (`None` when checking was disabled).
    pub invariants: Option<InvariantReport>,
    /// Wall-clock cost of each pipeline stage.
    pub stage_times: StageTimings,
}

impl Derivation {
    /// Methods inferred applicable to the derived type.
    pub fn applicable(&self) -> &[MethodId] {
        &self.applicability.applicable
    }

    /// Methods inferred not applicable.
    pub fn not_applicable(&self) -> &[MethodId] {
        &self.applicability.not_applicable
    }

    /// True when invariants were checked and all hold.
    pub fn invariants_ok(&self) -> bool {
        self.invariants.as_ref().map(|r| r.ok()).unwrap_or(false)
    }

    /// Human-readable summary of the derivation.
    pub fn summary(&self, schema: &Schema) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let names = |ms: &[MethodId]| -> String {
            ms.iter()
                .map(|&m| schema.method_label(m).to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(
            out,
            "derived {} = Π_{{{}}}({})",
            schema.type_name(self.derived),
            self.projection
                .iter()
                .map(|&a| schema.attr_name(a).to_string())
                .collect::<Vec<_>>()
                .join(", "),
            schema.type_name(self.source)
        );
        let _ = writeln!(out, "applicable:     {}", names(self.applicable()));
        let _ = writeln!(out, "not applicable: {}", names(self.not_applicable()));
        let _ = writeln!(
            out,
            "surrogates:     {} factored, {} augmented",
            self.factor_surrogates.len(),
            self.augment_surrogates.len()
        );
        if let Some(r) = &self.invariants {
            let _ = writeln!(
                out,
                "invariants:     {} ({} dispatch facts compared, {} tuples replayed)",
                if r.ok() { "all hold" } else { "VIOLATED" },
                r.dispatch_facts_checked,
                r.dispatch_tuples_checked
            );
        }
        out
    }
}

/// Derives `Π_projection(source)`, mutating `schema` in place per the
/// paper's algorithms, and returns the full derivation record.
pub fn project(
    schema: &mut Schema,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
    opts: &ProjectionOptions,
) -> Result<Derivation> {
    // -- input validation ---------------------------------------------------
    if projection.is_empty() && !opts.allow_empty {
        return Err(CoreError::EmptyProjection(source));
    }
    for &a in projection {
        if !schema.attr_available_at(a, source) {
            return Err(CoreError::AttrNotAvailable { attr: a, source });
        }
    }

    let before = if opts.check_invariants {
        Some(schema.clone())
    } else {
        None
    };

    // One clock read per stage boundary feeds BOTH the `StageTimings`
    // slot and (when telemetry is on) the emitted stage span, so the two
    // views of a derivation's cost are the same measurement, not two.
    let project_start = td_telemetry::now_ns();
    let mut stage_times = StageTimings::default();
    let mut stage_clock = project_start;
    let mut stage_done = |slot: &mut Duration, stage: &'static str| {
        let now = td_telemetry::now_ns();
        let dur = now.saturating_sub(stage_clock);
        *slot = Duration::from_nanos(dur);
        td_telemetry::emit_span("project", stage, stage_clock, dur, Vec::new());
        stage_clock = now;
    };

    // -- 1. behavior inference (§4) ----------------------------------------
    let applicability =
        compute_applicability_indexed(schema, source, projection, opts.record_trace)?;
    stage_done(&mut stage_times.applicability, "applicability");

    // -- 2. state factorization (§5) ----------------------------------------
    let mut registry = SurrogateRegistry::new();
    let mut fs_outcome = FactorStateOutcome::default();
    let derived = factor_state(schema, &mut registry, projection, source, &mut fs_outcome)?;
    stage_done(&mut stage_times.factor_state, "factor_state");

    // -- 3. definition-use analysis (§6.4), before signatures change --------
    let edges = collect_flow_edges(schema, &applicability.applicable);
    let x: BTreeSet<TypeId> = registry
        .pairs(SurrogateKind::Factor)
        .into_iter()
        .map(|(src, _)| src)
        .collect();
    // Coverage extension: an applicable method may specialize on a
    // supertype of the source that carries no projected state, so
    // `FactorState` gave it no surrogate. The derived type is a subtype
    // only of surrogates, so without one the rewritten signature would
    // silently drop the method (an I4 violation the paper's examples
    // never hit). Such types are converted like `X` members — they feed
    // the def-use analysis as value sources and join the `Z` set handed
    // to `Augment`, so the surrogate lattice mirrors every
    // assignment-relevant subtype path (`^V ≤ ^U` whenever a `V`-typed
    // value flows into a `U`-typed slot).
    let above_source = schema.ancestor_set(source);
    let mut coverage: BTreeSet<TypeId> = BTreeSet::new();
    for &m in &applicability.applicable {
        for (_, ti) in schema.method(m).type_specializers() {
            if above_source.contains(ti) && registry.surrogate(ti).is_none() {
                coverage.insert(ti);
            }
        }
    }
    let x_converted: BTreeSet<TypeId> = x.union(&coverage).copied().collect();
    let (_y, mut z) = compute_y_and_z(&edges, &x_converted);
    z.extend(coverage.iter().copied());
    stage_done(&mut stage_times.flow_analysis, "flow_analysis");

    // -- 4. hierarchy augmentation (§6.4) ------------------------------------
    let augment_created = augment(schema, &mut registry, source, &z)?;
    stage_done(&mut stage_times.augment, "augment");

    // -- 5. method factorization (§6.1) --------------------------------------
    let signature_changes = factor_methods(schema, &registry, source, &applicability.applicable);
    let mut converted: HashMap<MethodId, Vec<usize>> = HashMap::new();
    for (m, old, _) in &signature_changes {
        converted.insert(*m, converted_positions(schema, &registry, source, old));
    }
    stage_done(&mut stage_times.factor_methods, "factor_methods");

    // -- 6. body re-typing (§6.3) --------------------------------------------
    let retypes = retype_bodies(schema, &registry, &converted)?;
    stage_done(&mut stage_times.retype, "retype");

    // -- 7. invariants --------------------------------------------------------
    let invariants = before
        .map(|b| check_invariants(&b, schema, derived, projection, &applicability.applicable));
    if invariants.is_some() {
        stage_done(&mut stage_times.invariants, "invariants");
    }

    if td_telemetry::enabled() {
        td_telemetry::emit_span(
            "project",
            format!("project/{}", schema.type_name(source)),
            project_start,
            td_telemetry::now_ns().saturating_sub(project_start),
            vec![
                ("derived", schema.type_name(derived).into()),
                ("applicable", applicability.applicable.len().into()),
            ],
        );
    }

    Ok(Derivation {
        source,
        derived,
        projection: projection.clone(),
        applicability,
        factor_surrogates: registry.pairs(SurrogateKind::Factor),
        augment_surrogates: augment_created,
        moved_attrs: fs_outcome.moved_attrs,
        signature_changes,
        z_types: z,
        retypes,
        invariants,
        stage_times,
    })
}

/// Name-based convenience wrapper over [`project`].
pub fn project_named(
    schema: &mut Schema,
    source: &str,
    attrs: &[&str],
    opts: &ProjectionOptions,
) -> Result<Derivation> {
    let source = schema.type_id(source)?;
    let projection: BTreeSet<AttrId> = attrs
        .iter()
        .map(|n| schema.attr_id(n))
        .collect::<td_model::Result<_>>()?;
    project(schema, source, &projection, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::{BodyBuilder, Expr, MethodKind, Specializer, ValueType};

    /// The full Figure 1 schema including the three named methods.
    fn fig1_schema() -> Schema {
        let mut s = Schema::new();
        let person = s.add_type("Person", &[]).unwrap();
        let employee = s.add_type("Employee", &[person]).unwrap();
        for (n, t, owner) in [
            ("SSN", ValueType::INT, person),
            ("name", ValueType::STR, person),
            ("date_of_birth", ValueType::INT, person),
            ("pay_rate", ValueType::FLOAT, employee),
            ("hrs_worked", ValueType::FLOAT, employee),
        ] {
            let a = s.add_attr(n, t, owner).unwrap();
            s.add_accessors(a).unwrap();
        }
        let get_dob = s.gf_id("get_date_of_birth").unwrap();
        let get_pay = s.gf_id("get_pay_rate").unwrap();
        let get_hrs = s.gf_id("get_hrs_worked").unwrap();

        // age(Person) = {…get_date_of_birth(Person)…}
        let age = s.add_gf("age", 1, Some(ValueType::INT)).unwrap();
        let mut bb = BodyBuilder::new();
        bb.ret(Expr::call(get_dob, vec![Expr::Param(0)]));
        s.add_method(
            age,
            "age",
            vec![Specializer::Type(person)],
            MethodKind::General(bb.finish()),
            Some(ValueType::INT),
        )
        .unwrap();

        // income(Employee) = {…get_pay_rate, get_hrs_worked…}
        let income = s.add_gf("income", 1, Some(ValueType::FLOAT)).unwrap();
        let mut bb = BodyBuilder::new();
        bb.ret(Expr::binop(
            td_model::BinOp::Mul,
            Expr::call(get_pay, vec![Expr::Param(0)]),
            Expr::call(get_hrs, vec![Expr::Param(0)]),
        ));
        s.add_method(
            income,
            "income",
            vec![Specializer::Type(employee)],
            MethodKind::General(bb.finish()),
            Some(ValueType::FLOAT),
        )
        .unwrap();

        // promote(Employee) = {…get_date_of_birth, get_pay_rate…}
        let promote = s.add_gf("promote", 1, Some(ValueType::BOOL)).unwrap();
        let mut bb = BodyBuilder::new();
        bb.call(get_dob, vec![Expr::Param(0)]);
        bb.call(get_pay, vec![Expr::Param(0)]);
        s.add_method(
            promote,
            "promote",
            vec![Specializer::Type(employee)],
            MethodKind::General(bb.finish()),
            Some(ValueType::BOOL),
        )
        .unwrap();
        s.validate().unwrap();
        s
    }

    #[test]
    fn fig2_full_pipeline() {
        let mut s = fig1_schema();
        let d = project_named(
            &mut s,
            "Employee",
            &["SSN", "date_of_birth", "pay_rate"],
            &ProjectionOptions {
                record_trace: true,
                ..Default::default()
            },
        )
        .unwrap();

        // §3.1: age and promote apply; income does not.
        let labels = |ms: &[MethodId]| -> Vec<String> {
            ms.iter().map(|&m| s.method_label(m).to_string()).collect()
        };
        let app = labels(d.applicable());
        assert!(app.contains(&"age".to_string()));
        assert!(app.contains(&"promote".to_string()));
        assert!(!app.contains(&"income".to_string()));
        assert!(labels(d.not_applicable()).contains(&"income".to_string()));

        // Refactored signatures: age(^Person), promote(^Employee).
        let age = s.method_by_label("age").unwrap();
        let p_hat = s.type_id("^Person").unwrap();
        let e_hat = s.type_id("^Employee").unwrap();
        assert_eq!(s.method(age).specializers, vec![Specializer::Type(p_hat)]);
        let promote = s.method_by_label("promote").unwrap();
        assert_eq!(
            s.method(promote).specializers,
            vec![Specializer::Type(e_hat)]
        );
        // income keeps its original signature.
        let income = s.method_by_label("income").unwrap();
        let employee = s.type_id("Employee").unwrap();
        assert_eq!(
            s.method(income).specializers,
            vec![Specializer::Type(employee)]
        );

        assert_eq!(d.derived, e_hat);
        assert!(d.z_types.is_empty());
        assert!(d.augment_surrogates.is_empty());
        assert!(d.invariants_ok(), "{:#?}", d.invariants);
        s.validate().unwrap();
    }

    #[test]
    fn rejects_unavailable_attr() {
        let mut s = fig1_schema();
        let err = project_named(
            &mut s,
            "Person",
            &["pay_rate"],
            &ProjectionOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::AttrNotAvailable { .. }));
    }

    #[test]
    fn rejects_empty_projection_by_default() {
        let mut s = fig1_schema();
        let employee = s.type_id("Employee").unwrap();
        let err = project(
            &mut s,
            employee,
            &BTreeSet::new(),
            &ProjectionOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::EmptyProjection(_)));
        // …but allowed when opted in.
        let d = project(
            &mut s,
            employee,
            &BTreeSet::new(),
            &ProjectionOptions {
                allow_empty: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(s.cumulative_attrs(d.derived).is_empty());
        assert!(d.invariants_ok());
    }

    #[test]
    fn projection_of_everything_keeps_all_methods() {
        let mut s = fig1_schema();
        let d = project_named(
            &mut s,
            "Employee",
            &["SSN", "name", "date_of_birth", "pay_rate", "hrs_worked"],
            &ProjectionOptions::default(),
        )
        .unwrap();
        // Every method applicable to Employee survives a full projection.
        assert_eq!(d.not_applicable(), &[]);
        assert_eq!(d.applicable().len(), d.applicability.universe.len());
        assert!(d.invariants_ok(), "{:#?}", d.invariants);
    }

    #[test]
    fn stage_timings_are_recorded() {
        let mut s = fig1_schema();
        let d = project_named(
            &mut s,
            "Employee",
            &["SSN", "date_of_birth", "pay_rate"],
            &ProjectionOptions::default(),
        )
        .unwrap();
        assert!(d.stage_times.total() > Duration::ZERO);
        assert!(d.stage_times.invariants > Duration::ZERO);
        let mut sum = StageTimings::default();
        sum.accumulate(&d.stage_times);
        sum.accumulate(&d.stage_times);
        assert_eq!(sum.total(), d.stage_times.total() * 2);
        assert!(d.stage_times.to_string().contains("applicability"));

        // With checking disabled the invariants stage costs nothing.
        let mut s = fig1_schema();
        let d = project_named(
            &mut s,
            "Employee",
            &["SSN", "date_of_birth", "pay_rate"],
            &ProjectionOptions::fast(),
        )
        .unwrap();
        assert_eq!(d.stage_times.invariants, Duration::ZERO);
    }

    #[test]
    fn stage_timings_display_adapts_units_and_shows_percentages() {
        let t = StageTimings {
            applicability: Duration::from_micros(500),
            factor_state: Duration::from_millis(1),
            flow_analysis: Duration::from_millis(499),
            augment: Duration::from_secs(1),
            ..StageTimings::default()
        };
        let text = t.to_string();
        assert!(text.contains("applicability 500.0µs (0%)"), "{text}");
        assert!(text.contains("factor-state 1.00ms (0%)"), "{text}");
        assert!(text.contains("flow 499.00ms (33%)"), "{text}");
        assert!(text.contains("augment 1.00s (67%)"), "{text}");
        assert!(text.contains("retype 0.0µs (0%)"), "{text}");
        assert!(text.ends_with("total 1.50s"), "{text}");
        // A zero total never divides by zero.
        let zero = StageTimings::default().to_string();
        assert!(zero.contains("applicability 0.0µs (0%)"), "{zero}");
        assert!(zero.ends_with("total 0.0µs"), "{zero}");
    }

    #[test]
    fn summary_mentions_key_facts() {
        let mut s = fig1_schema();
        let d = project_named(&mut s, "Employee", &["SSN"], &ProjectionOptions::default()).unwrap();
        let text = d.summary(&s);
        assert!(text.contains("^Employee"));
        assert!(text.contains("applicable"));
        assert!(text.contains("all hold"));
    }
}
