//! The schema change feed: subscriptions over registered schemas that
//! stream **incremental re-derivation results** when a tenant PUTs a new
//! schema version.
//!
//! A subscriber names a `(tenant, schema)` pair and, optionally, a view
//! (`type` + `attrs` — the same shape a `/v1/project` request takes).
//! Every successful re-registration produces a [`PutOutcome`] carrying
//! the structured diff and both snapshots; the hub re-derives the
//! subscriber's view against the old and the new schema and emits only
//! what *changed*:
//!
//! * **verdicts** — methods whose `IsApplicable` classification for the
//!   view flipped (applicable ⇄ not applicable ⇄ absent);
//! * **lint** — findings added or resolved by the edit;
//! * **dispatch** — generic functions whose most-specific winner at the
//!   view's source type changed.
//!
//! Methods and functions are identified by *label*, never id — the two
//! sides are different schemas, and labels are the only identity that
//! crosses that boundary (ids do too under an append-only edit, but the
//! feed must stay meaningful when stability breaks).
//!
//! The hub is transport-free: it hands events to subscribers over plain
//! channels as pre-rendered SSE frames. The socket side (the dedicated
//! streaming thread per `GET /v1/watch` connection) lives in `lib.rs`;
//! the CLI's `tdv watch` is a line-oriented client of that endpoint.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

use td_core::{compute_applicability_indexed, lint};
use td_model::{CallArg, Schema};
use td_telemetry::json::{quote, str_array};

use crate::registry::PutOutcome;

/// A subscriber's optional view: derivations are re-run for this
/// projection on every matching schema change.
#[derive(Debug, Clone)]
pub struct WatchView {
    /// Source type name, resolved independently on each schema version.
    pub type_name: String,
    /// Projection attribute names.
    pub attrs: Vec<String>,
}

struct Watcher {
    id: u64,
    tenant: String,
    schema: String,
    view: Option<WatchView>,
    tx: Sender<String>,
}

/// Fan-out point between the registry's PUT path and the streaming
/// connections. One per [`crate::Api`].
#[derive(Default)]
pub struct WatchHub {
    watchers: Mutex<Vec<Watcher>>,
    next_id: AtomicU64,
}

impl WatchHub {
    /// Registers a subscriber and returns its id plus the event stream.
    /// The first frame is always a `hello` event echoing the
    /// subscription, so clients can confirm registration before
    /// triggering the edit they want to observe.
    pub fn subscribe(
        &self,
        tenant: &str,
        schema: &str,
        view: Option<WatchView>,
    ) -> (u64, Receiver<String>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let (tx, rx) = channel();
        let hello = format!(
            "event: hello\ndata: {{\"tenant\": {}, \"schema\": {}, \"watching\": {}}}\n\n",
            quote(tenant),
            quote(schema),
            match &view {
                Some(v) => format!(
                    "{{\"type\": {}, \"attrs\": {}}}",
                    quote(&v.type_name),
                    str_array(v.attrs.iter().map(String::as_str))
                ),
                None => "null".to_string(),
            }
        );
        let _ = tx.send(hello);
        self.watchers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Watcher {
                id,
                tenant: tenant.to_string(),
                schema: schema.to_string(),
                view,
                tx,
            });
        td_telemetry::metrics::counter("server/watch/subscribed").add(1);
        (id, rx)
    }

    /// Drops a subscriber (streaming side hung up).
    pub fn unsubscribe(&self, id: u64) {
        self.watchers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|w| w.id != id);
    }

    /// Number of live subscribers (drives the skip-fast path in the PUT
    /// handler and the tests).
    pub fn len(&self) -> usize {
        self.watchers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// True when nobody is watching.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fans a successful PUT out to every matching subscriber as a
    /// `change` event with the incremental re-derivation results.
    /// Subscribers whose channel is gone are dropped.
    pub fn notify_put(&self, tenant: &str, name: &str, outcome: &PutOutcome) {
        let mut watchers = self.watchers.lock().unwrap_or_else(|e| e.into_inner());
        if watchers.is_empty() {
            return;
        }
        let mut delivered = 0u64;
        watchers.retain(|w| {
            if w.tenant != tenant || w.schema != name {
                return true;
            }
            let event = change_event(tenant, name, outcome, w.view.as_ref());
            let alive = w.tx.send(event).is_ok();
            if alive {
                delivered += 1;
            }
            alive
        });
        if delivered > 0 {
            td_telemetry::metrics::counter("server/watch/events").add(delivered);
        }
    }
}

/// Renders one `change` SSE frame: version, diff summary, carry tally,
/// and — when the subscriber registered a view — the changed
/// applicability verdicts, lint findings and dispatch winners.
fn change_event(
    tenant: &str,
    name: &str,
    outcome: &PutOutcome,
    view: Option<&WatchView>,
) -> String {
    let new = outcome.snapshot.schema();
    let old = outcome.previous.as_ref().map(|p| p.snapshot.schema());
    let summary = outcome
        .diff
        .as_ref()
        .map(|d| d.summary())
        .unwrap_or_else(|| "first registration".to_string());
    let mut fields = vec![
        format!("\"tenant\": {}", quote(tenant)),
        format!("\"schema\": {}", quote(name)),
        format!("\"version\": {}", outcome.version),
        format!("\"summary\": {}", quote(&summary)),
        format!(
            "\"carried\": {{\"cpl\": {}, \"dispatch\": {}, \"indexes\": {}}}",
            outcome.carried.cpl, outcome.carried.dispatch, outcome.carried.indexes
        ),
    ];
    if let Some(view) = view {
        let old_verdicts = old.map(|s| view_verdicts(s, view)).unwrap_or_default();
        let new_verdicts = view_verdicts(new, view);
        fields.push(render_verdict_changes(&old_verdicts, &new_verdicts));

        let old_lint = old.map(|s| lint_lines(s, view)).unwrap_or_default();
        let new_lint = lint_lines(new, view);
        fields.push(format!(
            "\"lint_added\": {}",
            str_array(new_lint.difference(&old_lint).map(String::as_str))
        ));
        fields.push(format!(
            "\"lint_resolved\": {}",
            str_array(old_lint.difference(&new_lint).map(String::as_str))
        ));

        let old_winners = old.map(|s| dispatch_winners(s, view)).unwrap_or_default();
        let new_winners = dispatch_winners(new, view);
        fields.push(render_dispatch_changes(&old_winners, &new_winners));
    }
    format!("event: change\ndata: {{{}}}\n\n", fields.join(", "))
}

/// `IsApplicable` classification of every method in the view's universe,
/// keyed by method label. Unresolvable views (the type or an attribute
/// does not exist on this side) classify as the empty map — every method
/// then reads as `absent`, which is exactly what a subscriber should see
/// when the edit removed its view's source.
fn view_verdicts(schema: &Schema, view: &WatchView) -> BTreeSet<(String, bool)> {
    let Ok(source) = schema.type_id(&view.type_name) else {
        return BTreeSet::new();
    };
    let mut projection = BTreeSet::new();
    for attr in &view.attrs {
        match schema.attr_id(attr) {
            Ok(a) => {
                projection.insert(a);
            }
            Err(_) => return BTreeSet::new(),
        }
    }
    let Ok(app) = compute_applicability_indexed(schema, source, &projection, false) else {
        return BTreeSet::new();
    };
    app.universe
        .iter()
        .map(|&m| (schema.method_label(m).to_string(), app.is_applicable(m)))
        .collect()
}

fn verdict_name(applicable: bool) -> &'static str {
    if applicable {
        "applicable"
    } else {
        "not_applicable"
    }
}

fn render_verdict_changes(
    old: &BTreeSet<(String, bool)>,
    new: &BTreeSet<(String, bool)>,
) -> String {
    let old_by_label: std::collections::BTreeMap<&str, bool> =
        old.iter().map(|(l, a)| (l.as_str(), *a)).collect();
    let new_by_label: std::collections::BTreeMap<&str, bool> =
        new.iter().map(|(l, a)| (l.as_str(), *a)).collect();
    let mut changes = Vec::new();
    for (label, &now) in &new_by_label {
        match old_by_label.get(label) {
            Some(&was) if was == now => {}
            Some(&was) => changes.push(format!(
                "{{\"method\": {}, \"was\": \"{}\", \"now\": \"{}\"}}",
                quote(label),
                verdict_name(was),
                verdict_name(now)
            )),
            None => changes.push(format!(
                "{{\"method\": {}, \"was\": \"absent\", \"now\": \"{}\"}}",
                quote(label),
                verdict_name(now)
            )),
        }
    }
    for (label, &was) in &old_by_label {
        if !new_by_label.contains_key(label) {
            changes.push(format!(
                "{{\"method\": {}, \"was\": \"{}\", \"now\": \"absent\"}}",
                quote(label),
                verdict_name(was)
            ));
        }
    }
    format!("\"changed_verdicts\": [{}]", changes.join(", "))
}

/// One stable line per lint finding, independent of either schema's ids.
fn lint_lines(schema: &Schema, view: &WatchView) -> BTreeSet<String> {
    let request = schema.type_id(&view.type_name).ok().and_then(|source| {
        let mut projection = BTreeSet::new();
        for attr in &view.attrs {
            projection.insert(schema.attr_id(attr).ok()?);
        }
        Some((source, projection))
    });
    let report = match &request {
        Some((source, projection)) => lint(schema, Some((*source, projection))),
        None => lint(schema, None),
    };
    report
        .diagnostics
        .iter()
        .map(|d| format!("{} {}: {}", d.severity, d.code.as_str(), d.message))
        .collect()
}

/// Most-specific winner (by label) per unary generic function at the
/// view's source type. Errors (ambiguity) and no-winner both render as
/// distinguished strings so a flip into ambiguity is itself a change.
fn dispatch_winners(
    schema: &Schema,
    view: &WatchView,
) -> std::collections::BTreeMap<String, String> {
    let Ok(source) = schema.type_id(&view.type_name) else {
        return Default::default();
    };
    let mut winners = std::collections::BTreeMap::new();
    for g in schema.gf_ids() {
        if schema.gf(g).arity != 1 {
            continue;
        }
        let winner = match schema.most_specific(g, &[CallArg::Object(source)]) {
            Ok(Some(m)) => schema.method_label(m).to_string(),
            Ok(None) => "(none)".to_string(),
            Err(_) => "(ambiguous)".to_string(),
        };
        winners.insert(schema.gf_name(g).to_string(), winner);
    }
    winners
}

fn render_dispatch_changes(
    old: &std::collections::BTreeMap<String, String>,
    new: &std::collections::BTreeMap<String, String>,
) -> String {
    let mut changes = Vec::new();
    for (gf, now) in new {
        let was = old.get(gf).map(String::as_str).unwrap_or("(absent)");
        if was != now {
            changes.push(format!(
                "{{\"gf\": {}, \"was\": {}, \"now\": {}}}",
                quote(gf),
                quote(was),
                quote(now)
            ));
        }
    }
    for (gf, was) in old {
        if !new.contains_key(gf) {
            changes.push(format!(
                "{{\"gf\": {}, \"was\": {}, \"now\": \"(absent)\"}}",
                quote(gf),
                quote(was)
            ));
        }
    }
    format!("\"changed_dispatch\": [{}]", changes.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    const BASE: &str = "type A { x: int  y: int }\ntype B : A { z: int }\n\
                        accessors x\naccessors y\naccessors z\n";

    fn hub_with_view() -> (WatchHub, Receiver<String>) {
        let hub = WatchHub::default();
        let (_id, rx) = hub.subscribe(
            "acme",
            "s",
            Some(WatchView {
                type_name: "B".to_string(),
                attrs: vec!["x".to_string(), "z".to_string()],
            }),
        );
        // Drain the hello frame.
        let hello = rx.recv().unwrap();
        assert!(hello.starts_with("event: hello\n"), "{hello}");
        (hub, rx)
    }

    #[test]
    fn change_event_reports_flipped_verdicts_and_dispatch() {
        let (hub, rx) = hub_with_view();
        let r = Registry::new();
        r.put("acme", "s", BASE).unwrap();

        // Edit: y's accessors stay, but a new general method appears
        // specialized on B — its verdict and dispatch winner are new.
        let edited = format!("{BASE}method f(B) -> int {{ return get_x($0); }}\n");
        let outcome = r.put("acme", "s", &edited).unwrap();
        hub.notify_put("acme", "s", &outcome);

        let event = rx.recv().unwrap();
        assert!(event.starts_with("event: change\n"), "{event}");
        assert!(event.contains("\"version\": 2"), "{event}");
        assert!(event.contains("\"summary\""), "{event}");
        // The new method enters the view's universe as applicable (it
        // only needs x, which the projection keeps).
        assert!(
            event.contains("\"method\": \"f\", \"was\": \"absent\", \"now\": \"applicable\""),
            "{event}"
        );
        // And it becomes the winner of its (new) generic function.
        assert!(
            event.contains("\"gf\": \"f\", \"was\": \"(absent)\", \"now\": \"f\""),
            "{event}"
        );
    }

    #[test]
    fn unrelated_tenants_receive_nothing_and_dead_watchers_are_dropped() {
        let (hub, rx) = hub_with_view();
        let r = Registry::new();
        let outcome = r.put("globex", "other", BASE).unwrap();
        hub.notify_put("globex", "other", &outcome);
        assert!(
            rx.try_recv().is_err(),
            "a watcher of acme/s must not see globex/other"
        );
        assert_eq!(hub.len(), 1);

        // Dropping the receiver kills the watcher on next delivery.
        drop(rx);
        let outcome = r.put("acme", "s", BASE).unwrap();
        hub.notify_put("acme", "s", &outcome);
        assert_eq!(hub.len(), 0, "dead subscriber must be dropped");
    }

    #[test]
    fn lint_changes_are_reported() {
        let (hub, rx) = hub_with_view();
        let r = Registry::new();
        r.put("acme", "s", BASE).unwrap();
        // Projecting x and z away from y: y's accessors lose their only
        // attribute — the request-part lint flags change shape when the
        // method set changes. Easiest observable delta: a method whose
        // body calls an accessor that the projection breaks.
        let edited = format!("{BASE}method g(B) -> int {{ return get_y($0); }}\n");
        let outcome = r.put("acme", "s", &edited).unwrap();
        hub.notify_put("acme", "s", &outcome);
        let event = rx.recv().unwrap();
        assert!(event.contains("\"lint_added\""), "{event}");
        assert!(event.contains("\"lint_resolved\""), "{event}");
        // g depends on y, which the view drops: not applicable.
        assert!(
            event.contains("\"method\": \"g\", \"was\": \"absent\", \"now\": \"not_applicable\""),
            "{event}"
        );
    }
}
