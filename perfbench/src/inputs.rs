//! Seeded workload inputs. The program only ever sees what these
//! functions generate: schema texts and request bodies.

use td_model::{schema_to_text, Schema};
use td_server::json::{quote, str_array};
use td_workload::{
    apply_random_mutations, batch_requests, fig3_with_z1, random_schema, server_replay,
    wide_schema, GenParams, ReplaySpec,
};

/// Types in the wide schemas of `serve-wide-edit` and `cli-cold`.
pub const WIDE_TYPES: usize = 2000;

/// How the serve workload offers load.
#[derive(Clone, Copy)]
pub enum Load {
    /// Fixed schedule of `rate` requests per second over at most
    /// `conns` connections.
    Open { rate: f64, conns: usize },
    /// `clients` clients, each sending its next request when the last
    /// one has been answered.
    Closed { clients: usize },
}

/// One compute request of the pool.
#[derive(Clone)]
pub struct PoolRequest {
    pub tenant: usize,
    pub path: String,
    pub body: String,
}

/// Everything a serve workload needs, generated from the seed.
pub struct ServeInput {
    pub name: &'static str,
    pub seed: u64,
    pub load: Load,
    pub schema_name: String,
    pub tenants: Vec<String>,
    pub base_text: String,
    /// The edited text `serve-wide-edit` switches tenant 0 to and back.
    pub variant_text: Option<String>,
    /// Every `edit_every`-th op is a schema edit instead of a read.
    pub edit_every: Option<usize>,
    /// Distinct reads; the measured stream cycles through them in order.
    pub pool: Vec<PoolRequest>,
    /// Warm-up requests, sent once in order before timing.
    pub warmup: Vec<PoolRequest>,
}

/// What op `i` of a stream is.
pub enum Op<'a> {
    Read(usize, &'a PoolRequest),
    /// The `n`-th edit (0-based); even edits switch to the variant.
    Edit(usize),
}

impl ServeInput {
    pub fn op(&self, i: usize) -> Op<'_> {
        match self.edit_every {
            Some(k) if i % k == k - 1 => Op::Edit(i / k),
            Some(k) => {
                let read = i - i / k;
                let idx = read % self.pool.len();
                Op::Read(idx, &self.pool[idx])
            }
            None => {
                let idx = i % self.pool.len();
                Op::Read(idx, &self.pool[idx])
            }
        }
    }

    pub fn put_path(&self, tenant: usize) -> String {
        format!(
            "/v1/tenants/{}/schemas/{}",
            self.tenants[tenant], self.schema_name
        )
    }
}

pub fn serve_input(name: &str, seed: u64) -> ServeInput {
    match name {
        "serve-paper-open" => paper_open(seed),
        "serve-derive-closed" => derive_closed(seed),
        "serve-wide-edit" => wide_edit(seed),
        other => unreachable!("not a serve workload: {other}"),
    }
}

fn tenant_index(tenants: &[String], tenant: &str) -> usize {
    tenants
        .iter()
        .position(|t| t == tenant)
        .expect("replay tenant")
}

/// The paper's Figure 3 schema under the `server_replay` mix; the
/// warm-up sends the whole 100-request pool once.
fn paper_open(seed: u64) -> ServeInput {
    let replay = server_replay(
        &fig3_with_z1(),
        &ReplaySpec {
            tenants: 2,
            requests: 100,
            keep_fraction: 0.5,
            seed,
        },
    );
    let pool: Vec<PoolRequest> = replay
        .requests
        .iter()
        .map(|r| PoolRequest {
            tenant: tenant_index(&replay.tenants, &r.tenant),
            path: r.path.clone(),
            body: r.body.clone(),
        })
        .collect();
    let warmup = pool.clone();
    ServeInput {
        name: "serve-paper-open",
        seed,
        load: Load::Open {
            rate: 150.0,
            conns: 2,
        },
        schema_name: replay.schema_name,
        tenants: replay.tenants,
        base_text: replay.schema_text,
        variant_text: None,
        edit_every: None,
        pool,
        warmup,
    }
}

/// The BATCH-P schema family member the repro harness uses (48 types,
/// fixed generator seed), so every seed derives over the same schema;
/// the seed picks the stream from a 120-request replay: its 24 `project`
/// requests and 8 of its `batch` requests, three projects to a batch, so
/// the median falls among projects and the p90 among batches. The
/// warm-up touches every (tenant, type) with a cheap `applicable`
/// request, which builds the type's index on the shared snapshot as the
/// first derivation would, and sends one batch per tenant, which also
/// computes the schema-wide lint report every batch reuses.
fn derive_closed(seed: u64) -> ServeInput {
    let schema = random_schema(&GenParams {
        n_types: 48,
        n_gfs: 24,
        seed: 0xBA7C,
        ..GenParams::default()
    });
    let replay = server_replay(
        &schema,
        &ReplaySpec {
            tenants: 2,
            requests: 120,
            keep_fraction: 0.5,
            seed,
        },
    );
    let of_kind = |path: &str| -> Vec<PoolRequest> {
        replay
            .requests
            .iter()
            .filter(|r| r.path == path)
            .map(|r| PoolRequest {
                tenant: tenant_index(&replay.tenants, &r.tenant),
                path: r.path.clone(),
                body: r.body.clone(),
            })
            .collect()
    };
    let mut projects = of_kind("/v1/project").into_iter();
    let batches = of_kind("/v1/batch");
    let mut pool = Vec::new();
    for batch in batches.into_iter().take(8) {
        pool.extend(projects.by_ref().take(3));
        pool.push(batch);
    }
    let deep = td_workload::deepest_type(&schema);
    let mut warmup = Vec::new();
    for (tenant, name) in replay.tenants.iter().enumerate() {
        for t in schema.live_type_ids() {
            let attrs: Vec<&str> = schema
                .cumulative_attrs(t)
                .into_iter()
                .map(|a| schema.attr_name(a))
                .collect();
            if attrs.is_empty() {
                continue;
            }
            warmup.push(PoolRequest {
                tenant,
                path: "/v1/applicable".to_string(),
                body: view_body(name, &replay.schema_name, schema.type_name(t), &attrs, None),
            });
        }
        let all: Vec<&str> = schema
            .cumulative_attrs(deep)
            .into_iter()
            .map(|a| schema.attr_name(a))
            .collect();
        let line = format!("{}: {}\n", schema.type_name(deep), all.join(", "));
        warmup.push(PoolRequest {
            tenant,
            path: "/v1/batch".to_string(),
            body: format!(
                "{{\"tenant\": {}, \"schema\": {}, \"requests\": {}}}",
                quote(name),
                quote(&replay.schema_name),
                quote(&line)
            ),
        });
    }
    ServeInput {
        name: "serve-derive-closed",
        seed,
        load: Load::Closed { clients: 2 },
        schema_name: replay.schema_name,
        tenants: replay.tenants,
        base_text: replay.schema_text,
        variant_text: None,
        edit_every: None,
        pool,
        warmup,
    }
}

/// Reads over a 2000-type wide schema (`applicable`, `explain`, `lint`,
/// `analyze`, each with a seeded view), with an edit of tenant 0 every
/// 300 ops, from one closed-loop client. With two clients the p90 moved
/// by 23% and 47% between runs of the same code in two of five ten-run
/// sets, whenever the host had a slow phase, because requests then queue
/// behind each other on the two cores. The warm-up sends the whole read
/// pool once.
fn wide_edit(seed: u64) -> ServeInput {
    let schema = wide_schema(WIDE_TYPES, seed);
    let base_text = schema_to_text(&schema);
    let variant_text = wide_variant(&schema, seed);
    let tenants: Vec<String> = vec!["tenant-0".into(), "tenant-1".into()];
    let schema_name = "wide".to_string();
    const ENDPOINTS: [&str; 4] = ["applicable", "explain", "lint", "analyze"];
    let pool: Vec<PoolRequest> = batch_requests(&schema, 300, 0.5, seed)
        .into_iter()
        .enumerate()
        .map(|(i, (source, projection))| {
            let tenant = i % tenants.len();
            let endpoint = ENDPOINTS[i % ENDPOINTS.len()];
            let ty = schema.type_name(source);
            let attrs: Vec<&str> = projection.iter().map(|&a| schema.attr_name(a)).collect();
            // Explain the method of the source's own cluster that reads
            // its attributes (clusters are 8 types: `W{i}` is in `i / 8`).
            let method = (endpoint == "explain").then(|| {
                let i: usize = ty[1..].parse().expect("wide type name");
                format!("wf{}_m", i / 8)
            });
            PoolRequest {
                tenant,
                path: format!("/v1/{endpoint}"),
                body: view_body(
                    &tenants[tenant],
                    &schema_name,
                    ty,
                    &attrs,
                    method.as_deref(),
                ),
            }
        })
        .collect();
    let warmup = pool.clone();
    ServeInput {
        name: "serve-wide-edit",
        seed,
        load: Load::Closed { clients: 1 },
        schema_name,
        tenants,
        base_text,
        variant_text: Some(variant_text),
        edit_every: Some(300),
        pool,
        warmup,
    }
}

/// The wide schema plus three seeded additive mutations.
fn wide_variant(schema: &Schema, seed: u64) -> String {
    let mut edited = schema.clone();
    apply_random_mutations(&mut edited, 3, seed);
    schema_to_text(&edited)
}

/// The generated text `cli-cold` saves as a snapshot.
pub fn cold_schema_text(seed: u64) -> String {
    schema_to_text(&wide_schema(WIDE_TYPES, seed))
}

fn view_body(tenant: &str, schema: &str, ty: &str, attrs: &[&str], method: Option<&str>) -> String {
    let method = method
        .map(|m| format!(", \"method\": {}", quote(m)))
        .unwrap_or_default();
    format!(
        "{{\"tenant\": {}, \"schema\": {}, \"type\": {}, \"attrs\": {}{method}}}",
        quote(tenant),
        quote(schema),
        quote(ty),
        str_array(attrs)
    )
}
