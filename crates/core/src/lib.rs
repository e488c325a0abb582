//! # td-core — type derivation using the projection operation
//!
//! A faithful implementation of Agrawal & DeMichiel, *"Type Derivation
//! Using the Projection Operation"* (Information Systems 19(1), 1994):
//! deriving new object-oriented types from existing ones with the
//! relational projection operator, inferring which methods remain
//! applicable to the derived type, and refactoring the type hierarchy so
//! that existing types keep exactly their original state and behavior.
//!
//! The one-call entry point is [`project`] / [`project_named`]:
//!
//! ```
//! use td_model::{Schema, ValueType};
//! use td_core::{project_named, ProjectionOptions};
//!
//! let mut s = Schema::new();
//! let person = s.add_type("Person", &[]).unwrap();
//! let employee = s.add_type("Employee", &[person]).unwrap();
//! for (name, owner) in [("SSN", person), ("name", person), ("pay_rate", employee)] {
//!     let a = s.add_attr(name, ValueType::INT, owner).unwrap();
//!     s.add_accessors(a).unwrap();
//! }
//!
//! // Derive a view of Employee exposing only SSN and pay_rate.
//! let d = project_named(&mut s, "Employee", &["SSN", "pay_rate"],
//!                       &ProjectionOptions::default()).unwrap();
//!
//! // The derived type has exactly the projected state…
//! assert_eq!(s.cumulative_attrs(d.derived).len(), 2);
//! // …the right accessors survive (`name`'s do not)…
//! assert_eq!(d.applicable().len(), 4);
//! // …and every preservation invariant was machine-checked.
//! assert!(d.invariants_ok());
//! ```
//!
//! The pipeline pieces are public for finer-grained use and for the
//! reproduction harness:
//!
//! * [`applicability`] — the paper's `IsApplicable` (§4.1), with traces;
//! * [`oracle`] — an independent greatest-fixpoint reference
//!   implementation used to cross-check it;
//! * [`factor_state`] — `FactorState` (§5.1);
//! * [`factor_methods`] — `FactorMethods` (§6.1);
//! * [`body_rewrite`] — §6.3/§6.4 def-use analysis and re-typing;
//! * [`augment`] — `Augment` (§6.4);
//! * [`invariants`] — machine-checked preservation claims (I1–I5);
//! * [`explain`][mod@explain] — proof trees answering "why did this method (not)
//!   survive?";
//! * [`minimize`] — empty-surrogate reduction (§7 future work);
//! * [`unproject`][mod@unproject] — dropping a view, restoring the schema exactly;
//! * [`catalog`] — named views with dependency-ordered lifecycle.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod applicability;
pub mod augment;
pub mod body_rewrite;
pub mod catalog;
pub mod error;
pub mod explain;
pub mod factor_methods;
pub mod factor_state;
pub mod invariants;
pub mod lint;
pub mod minimize;
pub mod oracle;
pub mod projection;
pub mod surrogates;
pub mod unproject;

pub use applicability::{
    compute_applicability, compute_applicability_indexed, Applicability, TraceEvent,
};
pub use catalog::{CatalogEntry, ViewCatalog};
pub use error::{CoreError, Result};
pub use explain::{explain, Explanation};
pub use invariants::{InvariantReport, Violation};
pub use lint::{lint, optimistic_cycle_ring};
pub use minimize::{minimize_surrogates, MinimizeOutcome};
pub use oracle::applicability_fixpoint;
pub use projection::{project, project_named, Derivation, ProjectionOptions, StageTimings};
pub use surrogates::{SurrogateKind, SurrogateRegistry};
pub use unproject::unproject;
