//! Deterministic server request streams.
//!
//! The derivation server (td-server) is exercised by three very
//! different drivers — the loopback end-to-end tests, the CI smoke job
//! and the `serve_warm_vs_cold` repro experiment — and all three need
//! the same thing: a reproducible, mixed-endpoint sequence of request
//! bodies over a known schema. This module generates exactly that, with
//! no HTTP knowledge: a [`Replay`] is plain data (paths + JSON bodies),
//! and whoever holds it decides whether to POST it over a socket or feed
//! it straight into the server's dispatch table.
//!
//! Determinism matters for the same reason it does in
//! [`batch_requests`]: given the same seed, two
//! runs produce byte-identical bodies, so sequential and concurrent
//! executions of a replay can be compared response-by-response.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use td_model::text::schema_to_text;
use td_model::{AttrId, Schema, TypeId};
use td_telemetry::json::{quote, str_array};

use crate::gen::{batch_requests, deepest_type, random_projection};

/// One request of a replay: where to send it and what to send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayRequest {
    /// Tenant the request belongs to (also embedded in the body).
    pub tenant: String,
    /// Endpoint path, e.g. `/v1/project`.
    pub path: String,
    /// The JSON body.
    pub body: String,
}

/// A generated request stream plus everything needed to set it up.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The schema text to register (`PUT
    /// /v1/tenants/{t}/schemas/{name}`) for every tenant up front.
    pub schema_text: String,
    /// The schema name the request bodies reference.
    pub schema_name: String,
    /// The tenants the stream is spread across (`tenant-0`, `tenant-1`,
    /// …).
    pub tenants: Vec<String>,
    /// The requests, in replay order.
    pub requests: Vec<ReplayRequest>,
}

/// Knobs for [`server_replay`].
#[derive(Debug, Clone)]
pub struct ReplaySpec {
    /// How many tenants the stream rotates over (≥ 1).
    pub tenants: usize,
    /// Total requests to generate.
    pub requests: usize,
    /// Fraction of available attributes each projection keeps.
    pub keep_fraction: f64,
    /// Seed for every pseudo-random choice.
    pub seed: u64,
}

impl Default for ReplaySpec {
    fn default() -> ReplaySpec {
        ReplaySpec {
            tenants: 2,
            requests: 24,
            keep_fraction: 0.5,
            seed: 0xD0_1994,
        }
    }
}

/// Generates a deterministic mixed-endpoint request stream over
/// `schema`. Requests rotate round-robin across tenants and cycle
/// through the server's compute endpoints (`project`, `applicable`,
/// `lint`, `explain`, `batch`), each with a seeded pseudo-random view.
/// All bodies reference the registered schema by name — the warm path;
/// swap `schema` for `schema_text` in a body to make the same request
/// cold.
pub fn server_replay(schema: &Schema, spec: &ReplaySpec) -> Replay {
    let schema_name = "replay".to_string();
    let tenants: Vec<String> = (0..spec.tenants.max(1))
        .map(|i| format!("tenant-{i}"))
        .collect();
    let views = batch_requests(schema, spec.requests, spec.keep_fraction, spec.seed);
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x5EED);
    let requests = views
        .iter()
        .enumerate()
        .map(|(i, (source, projection))| {
            let tenant = tenants[i % tenants.len()].clone();
            let endpoint = ENDPOINT_CYCLE[i % ENDPOINT_CYCLE.len()];
            let body = body_for(
                schema,
                endpoint,
                &tenant,
                &schema_name,
                *source,
                projection,
                &mut rng,
            );
            ReplayRequest {
                tenant,
                path: format!("/v1/{endpoint}"),
                body,
            }
        })
        .collect();
    Replay {
        schema_text: schema_to_text(schema),
        schema_name,
        tenants,
        requests,
    }
}

const ENDPOINT_CYCLE: [&str; 5] = ["project", "applicable", "lint", "explain", "batch"];

fn body_for(
    schema: &Schema,
    endpoint: &str,
    tenant: &str,
    schema_name: &str,
    source: TypeId,
    projection: &BTreeSet<AttrId>,
    rng: &mut SmallRng,
) -> String {
    let head = format!(
        "\"tenant\": {}, \"schema\": {}",
        quote(tenant),
        quote(schema_name)
    );
    let view = format!(
        "\"type\": {}, \"attrs\": {}",
        quote(schema.type_name(source)),
        str_array(projection.iter().map(|&a| schema.attr_name(a)))
    );
    match endpoint {
        "explain" => {
            // Explain a deterministic method from the source's universe;
            // fall back to `project` semantics if the schema has none.
            let methods: Vec<&str> = schema
                .method_ids()
                .map(|m| schema.method_label(m))
                .collect();
            if methods.is_empty() {
                return format!("{{{head}, {view}}}");
            }
            let label = methods[rng.gen_range(0..methods.len())];
            format!("{{{head}, {view}, \"method\": {}}}", quote(label))
        }
        "batch" => {
            // A small nested batch around the deepest type keeps batch
            // requests meaningfully heavier than single derivations.
            let deep = deepest_type(schema);
            let lines: String = (0..3)
                .map(|j| {
                    let p = random_projection(schema, deep, 0.5, rng.gen::<u64>() ^ j);
                    format!(
                        "{}: {}\n",
                        schema.type_name(deep),
                        p.iter()
                            .map(|&a| schema.attr_name(a))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })
                .collect();
            format!("{{{head}, \"requests\": {}}}", quote(&lines))
        }
        _ => format!("{{{head}, {view}}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig3_with_z1;

    #[test]
    fn replay_is_deterministic_and_mixed() {
        let schema = fig3_with_z1();
        let spec = ReplaySpec {
            tenants: 3,
            requests: 10,
            ..ReplaySpec::default()
        };
        let a = server_replay(&schema, &spec);
        let b = server_replay(&schema, &spec);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.tenants.len(), 3);
        assert_eq!(a.requests.len(), 10);
        // Round-robin tenants and cycling endpoints.
        assert_eq!(a.requests[0].tenant, "tenant-0");
        assert_eq!(a.requests[1].tenant, "tenant-1");
        assert_eq!(a.requests[2].tenant, "tenant-2");
        assert_eq!(a.requests[3].tenant, "tenant-0");
        let paths: BTreeSet<&str> = a.requests.iter().map(|r| r.path.as_str()).collect();
        assert!(paths.contains("/v1/project"));
        assert!(paths.contains("/v1/batch"));
        assert!(paths.len() >= 4, "{paths:?}");
        // A different seed changes the stream.
        let c = server_replay(
            &schema,
            &ReplaySpec {
                seed: 7,
                ..spec.clone()
            },
        );
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn schema_text_round_trips() {
        let schema = fig3_with_z1();
        let replay = server_replay(&schema, &ReplaySpec::default());
        let reparsed = td_model::parse_schema(&replay.schema_text).expect("round-trip");
        assert_eq!(
            reparsed.live_type_ids().count(),
            schema.live_type_ids().count()
        );
        // Bodies reference the registered schema name, never inline text.
        for r in &replay.requests {
            assert!(r.body.contains("\"schema\": \"replay\""), "{}", r.body);
            assert!(!r.body.contains("schema_text"), "{}", r.body);
        }
    }
}
