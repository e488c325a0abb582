//! # td-model — the object-oriented type-system substrate
//!
//! This crate implements the object model of §2 of Agrawal & DeMichiel,
//! *"Type Derivation Using the Projection Operation"* (Information Systems
//! 19(1), 1994): types with named attributes organized in a
//! multiple-inheritance DAG with explicit supertype precedence, and
//! behavior defined by generic functions whose multi-methods dispatch on
//! the types of **all** actual arguments.
//!
//! The projection-derivation algorithms themselves live in `td-core`; this
//! crate provides everything they operate on:
//!
//! * [`Schema`] — the single owner of types, attributes, generic functions
//!   and methods, addressed by dense ids ([`TypeId`], [`AttrId`], [`GfId`],
//!   [`MethodId`]).
//! * hierarchy queries — subtype tests, ancestor/descendant sets,
//!   cumulative state, precedence-ordered supertype links
//!   ([`hierarchy`]), CLOS-style class precedence lists ([`linearize`]).
//! * behavior — multi-method applicability and ranked dispatch
//!   ([`dispatch`]), accelerated by memoized CPLs and a generational
//!   dispatch-table cache ([`cache`]).
//! * method bodies — a small imperative IR ([`body`]) plus the data-flow
//!   analyses the paper's §4.1 and §6.3/§6.4 depend on ([`dataflow`]).
//! * deterministic rendering ([`display`]) and whole-schema validation
//!   ([`validate`]).
//!
//! ## Quick start
//!
//! ```
//! use td_model::{Schema, ValueType, CallArg};
//!
//! let mut s = Schema::new();
//! let person = s.add_type("Person", &[]).unwrap();
//! let employee = s.add_type("Employee", &[person]).unwrap();
//! let dob = s.add_attr("date_of_birth", ValueType::INT, person).unwrap();
//! s.add_accessors(dob).unwrap();
//!
//! // Employees inherit Person state and accessors.
//! assert!(s.is_subtype(employee, person));
//! assert!(s.cumulative_attrs(employee).contains(&dob));
//! let get_dob = s.gf_id("get_date_of_birth").unwrap();
//! assert!(s.most_specific(get_dob, &[CallArg::Object(employee)]).unwrap().is_some());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod appindex;
pub mod attrs;
pub mod body;
pub mod cache;
pub mod dataflow;
pub mod delta;
pub mod diag;
pub mod dispatch;
pub mod display;
pub mod error;
pub mod hierarchy;
pub mod ids;
pub mod intern;
pub mod linearize;
pub mod methods;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod text;
pub mod validate;

pub use appindex::{AnalysisPrecision, ApplicabilityIndex};
pub use attrs::{AttrDef, PrimType, ValueType};
pub use body::{BinOp, Body, BodyBuilder, Expr, Literal, LocalVar, Stmt};
pub use cache::{AnalysisKey, LintKey};
pub use dataflow::CallSite;
pub use delta::{diff_schemas, CarryReport, SchemaDelta, SchemaDiff};
pub use diag::{Diagnostic, LintCode, LintReport, Severity, Span, SpanKind};
pub use dispatch::CallArg;
pub use error::{ModelError, Result};
pub use hierarchy::{SubtypeLists, SuperLink, TypeNode, TypeOrigin};
pub use ids::{AttrBitSet, AttrId, BitSet, GfId, MethodId, NameId, TypeId, TypeSet, VarId};
pub use intern::NameTable;
pub use methods::{GenericFunction, Method, MethodKind, Specializer};
pub use schema::{Schema, SchemaSnapshot};
pub use snapshot::{
    is_snapshot, load_snapshot, read_snapshot_file, save_snapshot, snapshot_info,
    write_snapshot_file, SnapshotError, SnapshotInfo, SNAPSHOT_VERSION,
};
pub use stats::{DispatchCacheStats, SchemaStats};
pub use text::{parse_schema, parse_schema_lenient, schema_to_text, TextError};
