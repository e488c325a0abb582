//! # td-cli — the `tdv` command-line tool
//!
//! A thin, testable command layer over the typederive library. A schema
//! argument is a text DSL file ([`td_model::text`]) or a binary snapshot
//! from `tdv snapshot save`: one reader loads a file that starts with the
//! snapshot magic ([`td_model::is_snapshot`]) and parses anything else.
//!
//! ```text
//! tdv check     <schema.td>                         parse + validate + stats
//! tdv show      <schema.td>                         hierarchy, methods, stats
//! tdv dot       <schema.td>                         Graphviz DOT export
//! tdv applicable <schema.td> <Type> <a1,a2,…>       IsApplicable classification
//! tdv project   <schema.td> <Type> <a1,a2,…>        derive; print summary + refactored schema
//!                                       (--json: the canonical derivation record)
//! tdv lint      <schema.td> [<Type> <a1,a2,…>]      static schema & projection-safety analysis
//! tdv analyze   <schema.td> [<Type> <a1,a2,…>]      interprocedural abstract interpretation
//! tdv batch     <schema.td> <requests.txt> [N]      derive a request fleet over N threads
//! tdv stats     <schema.td> <Type> <a1,a2,…>        span/metrics telemetry for one derivation
//! tdv explain   <schema.td> <Type> <a1,a2,…> <m>    why did method m (not) survive?
//! tdv audit     <schema.td> <Type> <a1,a2,…>        baseline strategy audit
//! tdv extent    <schema.td> <data.td> <Type>        list the deep extent
//! tdv call      <schema.td> <data.td> <gf> <args>   execute a generic-function call
//! tdv serve     [addr] [flags]                      run the multi-tenant derivation server
//! tdv client    <addr> <METHOD> <path> [body|@file] one HTTP request against a server
//! tdv top       <addr>                              live ops console over /v1/stats
//! tdv watch     <addr> --tenant T --schema S        stream a schema's change feed
//! tdv trace-verify <trace.json>                     validate a Chrome trace artifact
//! tdv snapshot  save|load|inspect …                 binary schema snapshots
//! ```
//!
//! Every command accepts `--trace <file>` (write a Chrome trace-event
//! JSON of the run, loadable in Perfetto) and `--metrics` (append the
//! flat span/metrics summary to the output); both turn the `td_telemetry`
//! collection switch on for the duration of the command.
//!
//! One parser reads every command line against one declaration per
//! command of its switches and valued flags. A valued flag takes
//! `--flag=value` or the next argument; any other `--` argument is an
//! error.
//!
//! Every command is a pure function from arguments to output text, so the
//! test suite drives [`run`] directly.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fmt::Write as _;
use td_baselines::{
    audit_all, DerivationStrategy, LocalEdgeStrategy, PaperStrategy, RootPlacementStrategy,
    StandaloneStrategy,
};
use td_core::{explain, project, ProjectionOptions, Violation};
use td_driver::BatchDeriver;
use td_model::{parse_schema, parse_schema_lenient, AttrId, MethodId, Schema, TextError, TypeId};
use td_store::{parse_objects, Database, Value};

/// A CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code to use.
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn fail(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 1,
    }
}

/// Usage text.
pub const USAGE: &str = "\
tdv — type derivation using the projection operation

USAGE:
  tdv check      <schema.td>
  tdv show       <schema.td>
  tdv dot        <schema.td>
  tdv applicable <schema.td> <Type> <attr,attr,…>
  tdv project    <schema.td> <Type> <attr,attr,…> [--json]
  tdv lint       <schema.td> [<Type> <attr,attr,…>] [--json] [--sarif]
                 [--deny warnings]
  tdv analyze    <schema.td> [<Type> <attr,attr,…>] [--json] [--sarif]
                 [--precision syntactic|semantic] [--deny warnings]
  tdv batch      <schema.td> <requests.txt> [threads]
  tdv stats      <schema.td> <Type> <attr,attr,…>
  tdv explain    <schema.td> <Type> <attr,attr,…> <method-label>
  tdv audit      <schema.td> <Type> <attr,attr,…>
  tdv extent     <schema.td> <data.td> <Type>
  tdv call       <schema.td> <data.td> <gf> <arg,arg,…>
  tdv serve      [addr] [--port-file F] [--threads N] [--io-threads N]
                 [--queue-slots N] [--snapshot-dir DIR] [--access-log F]
                 [--slow-trace-dir DIR] [--slow-threshold-ms N]
                 [--slo-objective-ms N]
  tdv client     <addr> <METHOD> <path> [body | @bodyfile]
                 [--trace-id HEX32]
  tdv top        <addr> [--interval MS] [--iterations N]
  tdv trace-verify <trace.json>
  tdv watch      <addr> --tenant T --schema S [--type Ty --attrs a,b,…]
                 [--max-events N]
  tdv snapshot   save <schema.td> <out.tds> | load <file.tds>
                 | inspect <file.tds>

call arguments: object names from the data file, or literals
(42, 3.5, true, \"text\", null).

batch request files hold one `Type: attr,attr,…` projection per line
(# starts a comment); threads defaults to the machine's cores.

`applicable`, `project`, `batch` and `stats` classify methods with the
condensation index, falling back to the paper's §4.1 stack algorithm
for the calls the index cannot decide. Every command rejects a flag it
does not take. A flag's value follows it as the next argument or after
`=` (--threads 4 or --threads=4).

`lint` runs the TDL static checks (dispatch ambiguity, precedence
conflicts, optimistic-cycle audit, projection safety, Augment hazards)
over the schema, plus the given projection request when one is supplied.
--json emits a machine-readable report; --sarif emits SARIF 2.1.0 for
code-scanning upload; --deny warnings exits nonzero on warnings as well
as errors.

`analyze` runs the interprocedural abstract-interpretation checks
(TDL201 null-argument dispatch traps, TDL202 constant branches, TDL203
shadowed-unreachable methods, TDL204 dead projected attributes, TDL205
interprocedural Augment flow) over the whole schema, plus the
projection-scoped checks when a view is supplied. --precision semantic
additionally refines the applicability index with semantic attribute
footprints — strictly fewer fallback methods, identical verdicts, and
possibly more TDL203 findings. --json/--sarif/--deny work as for `lint`.

Every command accepts --trace <file> (write a Chrome trace-event JSON of
the run — load it at https://ui.perfetto.dev) and --metrics (append the
flat span/metrics summary). `stats` derives the view with telemetry on
and prints only that summary.

`project --json` prints the canonical derivation record — byte-identical
to what `POST /v1/project` on a running `tdv serve` answers for the same
schema and view.

`serve` binds addr (default 127.0.0.1:7171; port 0 picks a free port,
written to --port-file when given) and exposes the derivation pipeline
as a multi-tenant JSON API; SIGTERM drains in-flight requests and exits
cleanly. With --snapshot-dir, registered tenant schemas are persisted
as warm binary snapshots and restored at the next boot — the registry
survives restarts. `client` performs one request against it: a 2xx body
goes to stdout verbatim, anything else exits nonzero with the error
body. With --trace-id, the request carries a `traceparent` header so the
server correlates every span, the flight-recorder record and the
access-log line under your id (the response echoes it back).

Observability flags on `serve`: --access-log appends one JSON line per
request (trace id, tenant, endpoint, status, queue/exec/total µs),
flushed per line and surviving the SIGTERM drain; --slow-trace-dir
dumps a Chrome trace `slow-{trace}.json` for every request slower than
--slow-threshold-ms (default: the SLO objective) — load it at
https://ui.perfetto.dev; --slo-objective-ms sets the latency objective
behind the windowed SLO burn-rate gauge (default 500ms). `/v1/stats`
and `/metrics` expose sliding 60-second p50/p95/p99 and error/429 rates
per endpoint and per tenant alongside the cumulative series.

`top` is a polling ops console over `/v1/stats` and
`/v1/debug/requests`: live windowed throughput, tail latencies,
per-tenant backlog and the most recent requests, redrawn every
--interval ms (default 1000). --iterations N renders N frames to
stdout and exits (scripting/CI mode). `trace-verify` parses a Chrome
trace artifact (e.g. a slow-trace capture) and fails nonzero unless it
is well-formed.

`watch` subscribes to a server's change feed (`GET /v1/watch`): every
re-registration of the named tenant schema streams a `change` event with
the structural diff, the cache entries the delta invalidation carried
across versions, and — when --type/--attrs give a view — the
applicability verdicts, lint findings and dispatch winners that changed.
Events print as they arrive; --max-events N exits after N events
(the initial `hello` counts, so N=2 sees one change).

`snapshot save` parses a schema, warms every derivation cache and
writes a versioned, checksummed binary snapshot; `load` restores it
(O(file) — no parse, no re-derivation); `inspect` prints the section
table, metadata and content counts. Wherever another command takes a
schema file, it reads a .tds snapshot too, told apart from text by its
magic bytes; `project`'s output is byte-identical either way (CI
enforces this).
";

/// The flags one command takes, each list space-separated: switches
/// (`--json`) and flags that take a value (`--deny warnings` or
/// `--deny=warnings`).
struct Command {
    name: &'static str,
    switches: &'static str,
    values: &'static str,
}

impl Command {
    const fn new(name: &'static str, switches: &'static str, values: &'static str) -> Command {
        Command {
            name,
            switches,
            values,
        }
    }
}

/// Every command and its flags, declared once.
const COMMANDS: &[Command] = &[
    Command::new("check", "", ""),
    Command::new("show", "", ""),
    Command::new("dot", "", ""),
    Command::new("applicable", "", ""),
    Command::new("project", "--json", ""),
    Command::new("lint", "--json --sarif", "--deny"),
    Command::new("analyze", "--json --sarif", "--deny --precision"),
    Command::new("batch", "", ""),
    Command::new("stats", "", ""),
    Command::new("explain", "", ""),
    Command::new("audit", "", ""),
    Command::new("extent", "", ""),
    Command::new("call", "", ""),
    Command::new(
        "serve",
        "",
        "--port-file --threads --io-threads --queue-slots --snapshot-dir --access-log \
         --slow-trace-dir --slow-threshold-ms --slo-objective-ms",
    ),
    Command::new("client", "", "--trace-id"),
    Command::new("top", "", "--interval --iterations"),
    Command::new("trace-verify", "", ""),
    Command::new("watch", "", "--tenant --schema --type --attrs --max-events"),
    Command::new("snapshot", "", ""),
];

/// `--trace <file>` and `--metrics`, which every command takes.
const GLOBAL: Command = Command::new("", "--metrics", "--trace");

/// `help` (also `--help` and `-h`) prints USAGE whatever follows it.
const HELP: Command = Command::new("help", "", "");

fn unknown_command(name: &str) -> CliError {
    fail(format!("unknown command `{name}`\n\n{USAGE}"))
}

/// The error for a valued flag with nothing after it. `--trace`, `--deny`
/// and `--precision` name what they expect.
fn missing_value(command: &str, flag: &str) -> CliError {
    fail(match flag {
        "--trace" => "--trace: missing output file".to_string(),
        "--deny" => "--deny: missing value (warnings)".to_string(),
        "--precision" => "--precision: missing value (syntactic|semantic)".to_string(),
        _ => format!("{command}: {flag} needs a value"),
    })
}

/// Parses a number argument; `error` words the failure.
fn number<T: std::str::FromStr>(text: &str, error: impl FnOnce() -> String) -> Result<T, CliError> {
    text.parse().map_err(|_| fail(error()))
}

/// One command line, read against its command's declaration.
struct Line<'a> {
    command: &'static Command,
    /// The arguments that are not flags, in order.
    args: Vec<&'a str>,
    /// Every flag given, in order, with its value (`None` for a switch).
    flags: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Line<'a> {
    /// Walks `args` (without the program name) once. The first argument
    /// that is not a global flag names the command. A declared switch is
    /// set; a declared valued flag takes `=value` or the next argument,
    /// whatever it looks like; any other `--` argument after the command
    /// fails; the rest are positional.
    fn parse(args: &'a [String]) -> Result<Line<'a>, CliError> {
        let mut command: Option<&'static Command> = None;
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) if name.starts_with("--") => (name, Some(value)),
                _ => (arg, None),
            };
            let declared = |list: fn(&Command) -> &'static str| {
                let mut lists = [Some(&GLOBAL), command].into_iter().flatten().map(list);
                lists.find_map(|list| list.split_whitespace().find(|&flag| flag == name))
            };
            if let Some(flag) = declared(|c| c.values) {
                let value = inline
                    .or_else(|| it.next())
                    .ok_or_else(|| missing_value(command.map_or("", |c| c.name), flag))?;
                flags.push((flag, Some(value)));
            } else if let Some(flag) = declared(|c| c.switches).filter(|_| inline.is_none()) {
                flags.push((flag, None));
            } else if let Some(command) = command {
                if arg.starts_with("--") && command.name != HELP.name {
                    return Err(fail(format!("{}: unknown flag {arg}", command.name)));
                }
                positional.push(arg);
            } else if matches!(arg, "help" | "--help" | "-h") {
                command = Some(&HELP);
            } else {
                let found = COMMANDS.iter().find(|c| c.name == arg);
                command = Some(found.ok_or_else(|| unknown_command(arg))?);
            }
        }
        Ok(Line {
            command: command.ok_or_else(|| fail(USAGE))?,
            args: positional,
            flags,
        })
    }

    /// Positional argument `i`, counted from the one after the command.
    fn arg(&self, i: usize) -> Option<&'a str> {
        self.args.get(i).copied()
    }

    /// Whether switch `name` was given.
    fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|&(flag, _)| flag == name)
    }

    /// The value of the last `name` flag given.
    fn value(&self, name: &str) -> Option<&'a str> {
        let mut given = self.flags.iter().rev();
        given.find(|&&(flag, _)| flag == name).and_then(|&(_, v)| v)
    }

    /// The value of flag `name` as a number.
    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        let command = self.command.name;
        let error = || format!("{command}: {name} must be a number");
        self.value(name).map(|v| number(v, error)).transpose()
    }
}

/// Reads a schema argument. A file that starts with the snapshot magic
/// is loaded as a snapshot; anything else is TDL text for `parse`
/// ([`parse_schema`], or [`parse_schema_lenient`] where structural
/// problems should become diagnostics).
fn read_schema(
    path: Option<&str>,
    parse: fn(&str) -> Result<Schema, TextError>,
) -> Result<Schema, CliError> {
    let path = path.ok_or_else(|| fail("missing schema file argument"))?;
    let bytes = std::fs::read(path).map_err(|e| fail(format!("cannot read `{path}`: {e}")))?;
    let schema = if td_model::is_snapshot(&bytes) {
        td_model::load_snapshot(&bytes)
            .map(|(schema, _meta)| schema)
            .map_err(|e| e.to_string())
    } else {
        // `fs::read_to_string`'s wording, which text files have always got.
        let text = String::from_utf8(bytes).map_err(|_| {
            fail(format!(
                "cannot read `{path}`: stream did not contain valid UTF-8"
            ))
        })?;
        parse(&text).map_err(|e| e.to_string())
    };
    schema.map_err(|e| fail(format!("{path}: {e}")))
}

/// Connects to a server's `GET /v1/watch` change feed and streams SSE
/// frames to stdout as they arrive. With `max_events > 0`, returns after
/// that many events (`hello` and `change` lines both count; ping
/// comments do not); with 0 it streams until the server hangs up.
fn watch_stream(addr: &str, query: &str, max_events: u64) -> Result<String, CliError> {
    use std::io::{BufRead, BufReader, Write as IoWrite};

    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| fail(format!("watch: cannot connect to {addr}: {e}")))?;
    // The server pings idle streams every 10s; a 60s ceiling only trips
    // when the peer is truly gone.
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(60)));
    stream
        .write_all(
            format!("GET /v1/watch?{query} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| fail(format!("watch: cannot send subscription: {e}")))?;

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| fail(format!("watch: no response: {e}")))?;
    if !line.starts_with("HTTP/1.1 200") {
        let status = line.trim().to_string();
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut reader, &mut rest);
        let body = rest.rsplit("\r\n\r\n").next().unwrap_or("").trim();
        return Err(fail(format!("watch: server answered {status}: {body}")));
    }
    // Skip the remaining response headers.
    loop {
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| fail(format!("watch: {e}")))?
            == 0
            || line == "\r\n"
        {
            break;
        }
    }

    let mut seen = 0u64;
    let mut counting = false;
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| fail(format!("watch: stream broke: {e}")))?;
        if n == 0 {
            break; // server hung up
        }
        let line = line.trim_end_matches(['\r', '\n']);
        println!("{line}");
        let _ = std::io::stdout().flush();
        if line.starts_with("event: ") {
            seen += 1;
            counting = true;
        }
        // A frame ends at its blank line; only stop on a completed one.
        if line.is_empty() && counting {
            counting = false;
            if max_events > 0 && seen >= max_events {
                break;
            }
        }
    }
    Ok(format!("tdv watch: received {seen} event(s)\n"))
}

/// One rendered frame of the `tdv top` console: windowed throughput and
/// tails from `/v1/stats` plus the newest flight-recorder rows from
/// `/v1/debug/requests`.
fn top_frame(addr: &str) -> Result<String, CliError> {
    use td_telemetry::json::Json;
    let fetch = |path: &str| -> Result<Json, CliError> {
        let (status, body) = td_server::http_call(addr, "GET", path, None)
            .map_err(|e| fail(format!("top: cannot reach {addr}: {e}")))?;
        if status != 200 {
            return Err(fail(format!("top: {path} answered HTTP {status}")));
        }
        Json::parse(&body).map_err(|e| fail(format!("top: {path} answered invalid JSON: {e}")))
    };
    let stats = fetch("/v1/stats")?;
    let debug = fetch("/v1/debug/requests")?;

    let mut out = String::new();
    let stats = stats
        .as_obj()
        .ok_or_else(|| fail("top: /v1/stats is not an object"))?;
    let total = stats
        .get("requests_total")
        .and_then(Json::as_usize)
        .unwrap_or(0);
    let _ = writeln!(out, "tdv top — http://{addr} — {total} request(s) served");
    let Some(window) = stats.get("window").and_then(Json::as_obj) else {
        let _ = writeln!(out, "(server exposes no window section in /v1/stats)");
        return Ok(out);
    };
    let num = |key: &str| window.get(key).and_then(Json::as_usize).unwrap_or(0);
    let _ = writeln!(
        out,
        "last {}s: {} request(s), {} error(s), {} throttled (429), queue depth {}",
        num("seconds"),
        num("requests_60s"),
        num("errors_60s"),
        num("throttled_429_60s"),
        num("queue_depth"),
    );
    let _ = writeln!(
        out,
        "SLO: objective {}µs, burn rate {:.2}x, spans dropped {}",
        num("slo_objective_us"),
        num("slo_burn_rate_milli") as f64 / 1000.0,
        num("spans_dropped_total"),
    );
    let render_group = |out: &mut String, title: &str, key: &str| {
        let Some(group) = window.get(key).and_then(Json::as_obj) else {
            return;
        };
        if group.is_empty() {
            return;
        }
        let _ = writeln!(
            out,
            "\n{title:<16} {:>8} {:>9} {:>9} {:>9}",
            "count", "p50µs", "p95µs", "p99µs"
        );
        for (name, stats) in group {
            let Some(stats) = stats.as_obj() else {
                continue;
            };
            let stat = |s: &str| stats.get(s).and_then(Json::as_usize).unwrap_or(0);
            let _ = writeln!(
                out,
                "{name:<16} {:>8} {:>9} {:>9} {:>9}",
                stat("window_count"),
                stat("p50"),
                stat("p95"),
                stat("p99"),
            );
        }
    };
    render_group(&mut out, "ENDPOINT", "endpoints");
    render_group(&mut out, "TENANT", "tenants");
    if let Some(depths) = window.get("queue_depth_by_tenant").and_then(Json::as_obj) {
        let busy: Vec<String> = depths
            .iter()
            .filter_map(|(t, d)| d.as_usize().map(|d| (t, d)))
            .map(|(t, d)| format!("{t}={d}"))
            .collect();
        if !busy.is_empty() {
            let _ = writeln!(out, "\nqueue by tenant: {}", busy.join(" "));
        }
    }
    let recent = debug
        .as_obj()
        .and_then(|o| o.get("requests"))
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    if !recent.is_empty() {
        let _ = writeln!(
            out,
            "\nRECENT (newest first)  {:<34} {:<10} {:>6} {:>9} {:>9}",
            "trace", "endpoint", "status", "queueµs", "totalµs"
        );
        for row in recent.iter().take(8) {
            let Some(row) = row.as_obj() else { continue };
            let s = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("?");
            let n = |k: &str| row.get(k).and_then(Json::as_usize).unwrap_or(0);
            let _ = writeln!(
                out,
                "                       {:<34} {:<10} {:>6} {:>9} {:>9}",
                s("trace"),
                s("endpoint"),
                n("status"),
                n("queue_us"),
                n("total_us"),
            );
        }
    }
    Ok(out)
}

/// Runs one command. `args` excludes the program name. Returns the text
/// to print on success.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let line = Line::parse(args)?;
    let trace = line.value("--trace");
    // `stats` IS the metrics exporter, so it forces collection on.
    let metrics = line.switch("--metrics") || line.command.name == "stats";
    if trace.is_none() && !metrics {
        return run_command(&line);
    }
    // Collect from a clean slate, and always restore the disabled default
    // — even when the command fails.
    td_telemetry::set_enabled(true);
    let _ = td_telemetry::drain();
    td_telemetry::metrics::reset();
    let result = run_command(&line);
    td_telemetry::set_enabled(false);
    let events = td_telemetry::drain();
    // Ring overflow is silent at collection time; surface it so a
    // truncated `tdv stats` / `--metrics` summary announces itself.
    let dropped = td_telemetry::dropped_events_total();
    if dropped > 0 {
        td_telemetry::metrics::gauge("telemetry/spans_dropped_total").set(dropped as i64);
    }
    let snapshot = td_telemetry::metrics::snapshot();
    td_telemetry::metrics::reset();
    let mut out = result?;
    if let Some(path) = trace {
        std::fs::write(path, td_telemetry::chrome_trace(&events))
            .map_err(|e| fail(format!("--trace: cannot write `{path}`: {e}")))?;
        let _ = writeln!(out, "trace: {} spans written to {path}", events.len());
    }
    if metrics {
        if !out.is_empty() && !out.ends_with("\n\n") {
            out.push('\n');
        }
        out.push_str(&td_telemetry::render_summary(&events, &snapshot));
    }
    Ok(out)
}

fn run_command(line: &Line<'_>) -> Result<String, CliError> {
    match line.command.name {
        "check" => {
            let schema = read_schema(line.arg(0), parse_schema)?;
            let mut out = String::new();
            let _ = writeln!(out, "schema OK");
            let _ = writeln!(out, "{}", schema.stats());
            Ok(out)
        }
        "show" => {
            let schema = read_schema(line.arg(0), parse_schema)?;
            let mut out = String::new();
            let _ = writeln!(out, "{}", schema.render_hierarchy());
            let _ = writeln!(out, "{}", schema.render_methods());
            let _ = writeln!(out, "{}", schema.stats());
            Ok(out)
        }
        "dot" => {
            let schema = read_schema(line.arg(0), parse_schema)?;
            Ok(schema.render_dot())
        }
        "applicable" => {
            let schema = read_schema(line.arg(0), parse_schema)?;
            let (source, projection) = view_args(&schema, line.arg(1), line.arg(2))?;
            let r = td_core::compute_applicability_indexed(&schema, source, &projection, false)
                .map_err(|e| fail(e.to_string()))?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "applicable:     {}",
                r.applicable
                    .iter()
                    .map(|&m| schema.method_label(m).to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let _ = writeln!(
                out,
                "not applicable: {}",
                r.not_applicable
                    .iter()
                    .map(|&m| schema.method_label(m).to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            Ok(out)
        }
        "project" => {
            let mut schema = read_schema(line.arg(0), parse_schema)?;
            let (source, projection) = view_args(&schema, line.arg(1), line.arg(2))?;
            let d = project(
                &mut schema,
                source,
                &projection,
                &ProjectionOptions::default(),
            )
            .map_err(|e| fail(e.to_string()))?;
            schema.dispatch_cache_stats().publish();
            if line.switch("--json") {
                // The canonical machine-readable record — the same
                // renderer the server's /v1/project endpoint uses, so
                // the two outputs compare byte for byte (the CI smoke
                // job holds us to that). Invariant violations are
                // reported in-band as `"invariants_ok": false`.
                return Ok(td_server::derivation_json(&schema, &d));
            }
            let mut out = String::new();
            let _ = writeln!(out, "{}", d.summary(&schema));
            let _ = writeln!(out, "{}", schema.render_hierarchy());
            if d.invariants_ok() {
                return Ok(out);
            }
            for v in d.invariants.iter().flat_map(|r| &r.violations) {
                let _ = writeln!(out, "{}", violation_line(&schema, v));
            }
            Err(fail(out.trim_end()))
        }
        command @ ("lint" | "analyze") => {
            let precision = match line.value("--precision") {
                Some(p) => p
                    .parse()
                    .map_err(|e: String| fail(format!("--precision: {e}")))?,
                None => Default::default(),
            };
            let deny_warnings = match line.value("--deny") {
                None => false,
                Some("warnings") => true,
                Some(level) => {
                    return Err(fail(format!(
                        "--deny: unknown level `{level}` (only `warnings` is supported)"
                    )))
                }
            };
            // Lenient parse: structural problems (precedence conflicts,
            // dangling references, …) become TDL diagnostics instead of a
            // load failure. Lex/syntax errors still fail here.
            let schema = read_schema(line.arg(0), parse_schema_lenient)?;
            let view = match line.arg(1) {
                Some(_) => Some(view_args(&schema, line.arg(1), line.arg(2))?),
                None => None,
            };
            let request = view.as_ref().map(|(t, a)| (*t, a));
            let (report, stats) = if command == "lint" {
                (td_core::lint(&schema, request), None)
            } else {
                let outcome = td_analyze::analyze(&schema, request, precision);
                (outcome.report, Some(outcome.stats))
            };
            schema.dispatch_cache_stats().publish();
            let out = if line.switch("--sarif") {
                report.render_sarif(&format!("td-{command}"))
            } else if line.switch("--json") {
                report.render_json()
            } else {
                let mut out = report.render_text();
                if let Some(stats) = &stats {
                    analysis_footer(&mut out, stats);
                }
                out
            };
            if report.fails(deny_warnings) {
                Err(fail(out))
            } else {
                Ok(out)
            }
        }
        "batch" => {
            let schema = read_schema(line.arg(0), parse_schema)?;
            let path = line
                .arg(1)
                .ok_or_else(|| fail("batch: missing requests file argument"))?;
            let threads = line
                .arg(2)
                .map(|t| number(t, || format!("batch: `{t}` is not a thread count")))
                .transpose()?;
            let src = std::fs::read_to_string(path)
                .map_err(|e| fail(format!("cannot read `{path}`: {e}")))?;
            let requests = td_driver::parse_requests(&schema, &src)
                .map_err(|e| fail(format!("{path}: {e}")))?;
            let mut deriver = BatchDeriver::new(&schema).lint(true);
            if let Some(threads) = threads {
                deriver = deriver.threads(threads);
            }
            deriver.warm();
            let outcome = deriver.run(&requests);
            let mut out = outcome.render(&schema);
            let _ = writeln!(out, "{}", outcome.stats);
            if outcome.all_ok() {
                Ok(out)
            } else {
                Err(fail(out))
            }
        }
        "stats" => {
            let mut schema = read_schema(line.arg(0), parse_schema)?;
            let (source, projection) = view_args(&schema, line.arg(1), line.arg(2))?;
            let d = project(
                &mut schema,
                source,
                &projection,
                &ProjectionOptions::default(),
            )
            .map_err(|e| fail(e.to_string()))?;
            schema.dispatch_cache_stats().publish();
            Ok(format!(
                "derived {} — telemetry for one derivation:\n",
                schema.type_name(d.derived)
            ))
        }
        "explain" => {
            let schema = read_schema(line.arg(0), parse_schema)?;
            let (source, projection) = view_args(&schema, line.arg(1), line.arg(2))?;
            let label = line
                .arg(3)
                .ok_or_else(|| fail("explain: missing method label"))?;
            let method = schema
                .method_by_label(label)
                .map_err(|e| fail(e.to_string()))?;
            let e =
                explain(&schema, source, &projection, method).map_err(|e| fail(e.to_string()))?;
            let mut out = e.render(&schema);
            if !out.ends_with('\n') {
                out.push('\n');
            }
            // Flag verdicts that rest on the §4 optimistic cycle
            // assumption: the method sits on a call ring, so its fate was
            // assumed before it was proven.
            if let Some(ring) = td_core::optimistic_cycle_ring(&schema, source, method) {
                let members = ring
                    .iter()
                    .map(|&m| format!("`{}`", schema.method_label(m)))
                    .collect::<Vec<_>>()
                    .join(", ");
                let wording = if e.is_applicable() {
                    "this verdict relied on the §4 optimistic cycle assumption"
                } else {
                    "this verdict assumed the ring applicable, then retracted it (§4)"
                };
                let _ = writeln!(out, "note[TDL003]: {wording} (call ring: {members})");
            }
            // The explanation replays dispatch through td-model's cache;
            // show how warm the run was.
            let _ = writeln!(out, "{}", schema.dispatch_cache_stats());
            Ok(out)
        }
        "serve" => {
            let defaults = td_server::ServerConfig::default();
            let owned = |flag| line.value(flag).map(str::to_string);
            let config = td_server::ServerConfig {
                addr: line.args.last().unwrap_or(&"127.0.0.1:7171").to_string(),
                exec_threads: line.number("--threads")?.unwrap_or(defaults.exec_threads),
                io_threads: line.number("--io-threads")?.unwrap_or(defaults.io_threads),
                queue_slots: line
                    .number("--queue-slots")?
                    .unwrap_or(defaults.queue_slots),
                snapshot_dir: owned("--snapshot-dir"),
                access_log: owned("--access-log"),
                slow_trace_dir: owned("--slow-trace-dir"),
                slow_threshold_us: line
                    .number::<u64>("--slow-threshold-ms")?
                    .map(|ms| ms.saturating_mul(1_000)),
                slo_objective_us: line
                    .number::<u64>("--slo-objective-ms")?
                    .map_or(defaults.slo_objective_us, |ms| {
                        ms.saturating_mul(1_000).max(1)
                    }),
                ..defaults
            };
            let server = td_server::Server::bind(config)
                .map_err(|e| fail(format!("serve: cannot bind: {e}")))?;
            // Before the port file appears, so a SIGTERM sent as soon as
            // it does already drains.
            td_server::install_shutdown_handler(&server);
            let addr = server
                .local_addr()
                .map_err(|e| fail(format!("serve: {e}")))?;
            if let Some(path) = line.value("--port-file") {
                std::fs::write(path, addr.to_string())
                    .map_err(|e| fail(format!("serve: cannot write --port-file `{path}`: {e}")))?;
            }
            // Stderr, so stdout stays clean for scripted use.
            eprintln!("tdv serve: listening on http://{addr} (SIGTERM drains and exits)");
            server.run().map_err(|e| fail(format!("serve: {e}")))?;
            Ok("tdv serve: drained in-flight requests and stopped\n".to_string())
        }
        "client" => {
            let addr = line
                .arg(0)
                .ok_or_else(|| fail("client: missing server address (host:port)"))?;
            let method = line
                .arg(1)
                .ok_or_else(|| fail("client: missing HTTP method"))?
                .to_ascii_uppercase();
            let path = line
                .arg(2)
                .ok_or_else(|| fail("client: missing request path"))?;
            let body = match line.arg(3) {
                None => None,
                Some(arg) => match arg.strip_prefix('@') {
                    Some(file) => Some(
                        std::fs::read(file)
                            .map_err(|e| fail(format!("client: cannot read `{file}`: {e}")))?,
                    ),
                    None => Some(arg.as_bytes().to_vec()),
                },
            };
            let trace = match line.value("--trace-id") {
                Some(s) => Some(td_telemetry::TraceId::parse(s).ok_or_else(|| {
                    fail("client: --trace-id must be 32 hex digits (or a traceparent header)")
                })?),
                None => None,
            };
            let traceparent = trace.map(|t| t.traceparent());
            let headers: Vec<(&str, &str)> = traceparent
                .iter()
                .map(|v| ("traceparent", v.as_str()))
                .collect();
            let reply = td_server::http_request(addr, &method, path, &headers, body.as_deref())
                .map_err(|e| fail(format!("client: {e}")))?;
            if let (Some(t), Some(echo)) = (trace, reply.header("traceparent")) {
                // Stderr: stdout stays the verbatim response body.
                eprintln!("tdv client: trace {t} (server echoed {echo})");
            }
            if reply.status < 400 {
                Ok(reply.body)
            } else {
                Err(CliError {
                    message: format!("HTTP {}\n{}", reply.status, reply.body),
                    code: 2,
                })
            }
        }
        "top" => {
            let interval_ms = line
                .number::<u64>("--interval")?
                .map_or(1_000, |v| v.max(50));
            let iterations = line.number::<u64>("--iterations")?.unwrap_or(0);
            let addr = one_address(line)?;
            // --iterations N: render N frames to stdout and return
            // (scripting/CI). Without it, redraw in place until the
            // server goes away.
            let mut out = String::new();
            let mut frame_no: u64 = 0;
            loop {
                let frame = top_frame(addr)?;
                frame_no += 1;
                if iterations > 0 {
                    if frame_no > 1 {
                        out.push('\n');
                    }
                    out.push_str(&frame);
                    if frame_no >= iterations {
                        return Ok(out);
                    }
                } else {
                    use std::io::Write as IoWrite;
                    // ANSI clear-and-home keeps the console in place.
                    print!("\x1b[2J\x1b[H{frame}");
                    let _ = std::io::stdout().flush();
                }
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            }
        }
        "trace-verify" => {
            let path = line
                .arg(0)
                .ok_or_else(|| fail("trace-verify: missing trace file"))?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| fail(format!("trace-verify: cannot read `{path}`: {e}")))?;
            let spans = td_telemetry::parse_chrome_trace(&text)
                .map_err(|e| fail(format!("trace-verify: `{path}` is not a Chrome trace: {e}")))?;
            if spans.is_empty() {
                return Err(fail(format!("trace-verify: `{path}` holds no spans")));
            }
            let traces: BTreeSet<&str> = spans
                .iter()
                .filter_map(|s| s.args.get("trace").map(String::as_str))
                .collect();
            let stamped = spans
                .iter()
                .filter(|s| s.args.contains_key("trace"))
                .count();
            Ok(format!(
                "trace-verify: {path}: {} span(s), {} stamped with {} trace id(s): OK\n",
                spans.len(),
                stamped,
                traces.len(),
            ))
        }
        "watch" => {
            let max_events = line.number::<u64>("--max-events")?.unwrap_or(0);
            let addr = one_address(line)?;
            let tenant = line
                .value("--tenant")
                .ok_or_else(|| fail("watch: --tenant is required"))?;
            let schema = line
                .value("--schema")
                .ok_or_else(|| fail("watch: --schema is required"))?;
            let mut query = format!("tenant={tenant}&schema={schema}");
            if let Some(t) = line.value("--type") {
                let _ = write!(query, "&type={t}");
            }
            if let Some(a) = line.value("--attrs") {
                let _ = write!(query, "&attrs={a}");
            }
            watch_stream(addr, &query, max_events)
        }
        "audit" => {
            let schema = read_schema(line.arg(0), parse_schema)?;
            let (source, projection) = view_args(&schema, line.arg(1), line.arg(2))?;
            let strategies: Vec<&dyn DerivationStrategy> = vec![
                &PaperStrategy,
                &StandaloneStrategy,
                &RootPlacementStrategy,
                &LocalEdgeStrategy,
            ];
            let mut out = String::new();
            for result in audit_all(&strategies, &schema, source, &projection) {
                let _ = writeln!(out, "{}", result.row());
            }
            Ok(out)
        }
        "extent" => {
            let (db, names) = load_db(line.arg(0), line.arg(1))?;
            let ty = line.arg(2).ok_or_else(|| fail("missing type argument"))?;
            let ty = db.schema().type_id(ty).map_err(|e| fail(e.to_string()))?;
            let mut out = String::new();
            for obj in db.deep_extent(ty) {
                let o = db.object(obj).map_err(|e| fail(e.to_string()))?;
                let display_name = names
                    .iter()
                    .find(|(_, &id)| id == obj)
                    .map(|(n, _)| n.as_str())
                    .unwrap_or("<anonymous>");
                let mut fields: Vec<String> = o
                    .fields()
                    .map(|(a, v)| (db.schema().attr_name(a).to_string(), v))
                    .map(|(n, v)| format!("{n} = {v}"))
                    .collect();
                fields.sort();
                let _ = writeln!(
                    out,
                    "{display_name}: {} {{ {} }}",
                    db.schema().type_name(o.ty),
                    fields.join(", ")
                );
            }
            Ok(out)
        }
        "call" => {
            let (mut db, names) = load_db(line.arg(0), line.arg(1))?;
            let gf_name = line
                .arg(2)
                .ok_or_else(|| fail("missing generic-function argument"))?;
            let gf = db
                .schema()
                .gf_id(gf_name)
                .map_err(|e| fail(e.to_string()))?;
            let raw = line.arg(3).unwrap_or("");
            let values = raw
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|tok| parse_value(tok.trim(), &names))
                .collect::<Result<Vec<Value>, CliError>>()?;
            let result = db.call(gf, &values).map_err(|e| fail(e.to_string()))?;
            Ok(format!("{result}\n"))
        }
        "snapshot" => match line.arg(0) {
            Some("save") => {
                let path = line
                    .arg(1)
                    .ok_or_else(|| fail("snapshot save: missing schema file argument"))?;
                let out_path = line
                    .arg(2)
                    .ok_or_else(|| fail("snapshot save: missing output file argument"))?;
                let schema = read_schema(Some(path), parse_schema)?;
                // Warm every derivation cache first: the point of a
                // snapshot is that loading it skips both the parse and
                // the derivation warm-up.
                schema.warm_caches();
                let meta = [("source".to_string(), path.to_string())];
                td_model::write_snapshot_file(&schema, &meta, out_path)
                    .map_err(|e| fail(e.to_string()))?;
                let bytes = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
                Ok(format!(
                    "wrote {out_path}: {bytes} bytes, format v{}, {} types, {} methods\n",
                    td_model::SNAPSHOT_VERSION,
                    schema.n_types(),
                    schema.n_methods()
                ))
            }
            Some("load") => {
                // A snapshot only: a text file fails with `bad magic`.
                let path = line
                    .arg(1)
                    .ok_or_else(|| fail("missing snapshot file argument"))?;
                let (schema, _meta) =
                    td_model::read_snapshot_file(path).map_err(|e| fail(format!("{path}: {e}")))?;
                let stats = schema.dispatch_cache_stats();
                let mut out = String::new();
                let _ = writeln!(out, "snapshot OK");
                let _ = writeln!(out, "{}", schema.stats());
                let _ = writeln!(
                    out,
                    "warm caches: {} cpl/rank entries, {} dispatch entries, {} indexes",
                    stats.cpl_entries, stats.dispatch_entries, stats.index_entries
                );
                Ok(out)
            }
            Some("inspect") => {
                let path = line
                    .arg(1)
                    .ok_or_else(|| fail("snapshot inspect: missing snapshot file argument"))?;
                let bytes =
                    std::fs::read(path).map_err(|e| fail(format!("cannot read `{path}`: {e}")))?;
                let info = td_model::snapshot_info(&bytes).map_err(|e| fail(e.to_string()))?;
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "{path}: format v{}, {} bytes",
                    info.version, info.file_bytes
                );
                for (key, value) in &info.meta {
                    let _ = writeln!(out, "  meta {key} = {value:?}");
                }
                for (name, len, checksum) in &info.sections {
                    let _ = writeln!(
                        out,
                        "  section {name:<9} {len:>9} bytes  fnv1a {checksum:016x}"
                    );
                }
                let _ = writeln!(
                    out,
                    "  {} names, {} types, {} attrs, {} gfs, {} methods",
                    info.n_names, info.n_types, info.n_attrs, info.n_gfs, info.n_methods
                );
                let _ = writeln!(
                    out,
                    "  warm: {} cpl/rank entries, {} dispatch entries, {} indexes",
                    info.cpl_entries, info.dispatch_entries, info.index_entries
                );
                Ok(out)
            }
            _ => Err(fail(
                "snapshot: expected a subcommand\n\n\
                 USAGE:\n  tdv snapshot save    <schema.td> <out.tds>\n  \
                 tdv snapshot load    <file.tds>\n  \
                 tdv snapshot inspect <file.tds>",
            )),
        },
        "help" => Ok(USAGE.to_string()),
        other => Err(unknown_command(other)),
    }
}

/// The one server address `top` and `watch` take.
fn one_address<'a>(line: &Line<'a>) -> Result<&'a str, CliError> {
    let command = line.command.name;
    if let Some(extra) = line.arg(1) {
        return Err(fail(format!("{command}: unexpected argument `{extra}`")));
    }
    line.arg(0)
        .ok_or_else(|| fail(format!("{command}: missing server address (host:port)")))
}

/// Appends `analyze`'s accounting lines to its text report.
fn analysis_footer(out: &mut String, stats: &td_analyze::AnalysisStats) {
    let cached = |hit: bool| if hit { " (cached)" } else { "" };
    let _ = writeln!(
        out,
        "analysis: precision {}, schema pass {} µs{}, request pass {} µs{}",
        stats.precision,
        stats.schema_micros,
        cached(stats.schema_cached),
        stats.request_micros,
        cached(stats.request_cached),
    );
    if let Some(ratio) = stats.demotion_ratio() {
        let _ = writeln!(
            out,
            "semantic footprints: {} of {} fallback method(s) demoted ({:.0}%)",
            stats.fallback_syntactic - stats.fallback_semantic,
            stats.fallback_syntactic,
            ratio * 100.0,
        );
    }
}

/// One line for an I1–I5 violation, naming types, generic functions and
/// methods as the derivation summary does.
fn violation_line(schema: &Schema, v: &Violation) -> String {
    let list = |names: Vec<&str>| {
        if names.is_empty() {
            "none".to_string()
        } else {
            names.join(", ")
        }
    };
    let attrs = |ids: &[AttrId]| list(ids.iter().map(|&a| schema.attr_name(a)).collect());
    let methods = |ids: &[MethodId]| list(ids.iter().map(|&m| schema.method_label(m)).collect());
    let ty = |t: TypeId| schema.type_name(t);
    match v {
        Violation::StateChanged {
            ty: t,
            missing,
            extra,
        } => format!(
            "violated I1 (state): {} lost {}; gained {}",
            ty(*t),
            attrs(missing),
            attrs(extra)
        ),
        Violation::DispatchChanged {
            gf,
            args,
            before,
            after,
        } => format!(
            "violated I2 (behavior): {}({}) dispatched to {}, now to {}",
            schema.gf_name(*gf),
            args.iter().map(|&t| ty(t)).collect::<Vec<_>>().join(", "),
            methods(before.as_slice()),
            methods(after.as_slice())
        ),
        Violation::DerivedStateWrong {
            derived,
            missing,
            extra,
        } => format!(
            "violated I3 (derived state): {} lacks {}; has extra {}",
            ty(*derived),
            attrs(missing),
            attrs(extra)
        ),
        Violation::DerivedBehaviorWrong {
            derived,
            missing,
            extra,
        } => format!(
            "violated I4 (derived behavior): {} lacks {}; inherits extra {}",
            ty(*derived),
            methods(missing),
            methods(extra)
        ),
        Violation::SchemaInvalid(e) => format!("violated I5 (well-formedness): {e}"),
        Violation::SubtypeChanged {
            sub,
            sup,
            before,
            after,
        } => format!(
            "violated subtype preservation: {} <: {} was {before}, is {after}",
            ty(*sub),
            ty(*sup)
        ),
    }
}

fn load_db(
    schema_path: Option<&str>,
    data_path: Option<&str>,
) -> Result<(Database, std::collections::HashMap<String, td_store::ObjId>), CliError> {
    let schema = read_schema(schema_path, parse_schema)?;
    let mut db = Database::new(schema);
    let path = data_path.ok_or_else(|| fail("missing data file argument"))?;
    let src =
        std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read `{path}`: {e}")))?;
    let names = parse_objects(&mut db, &src).map_err(|e| fail(format!("{path}: {e}")))?;
    Ok((db, names))
}

fn parse_value(
    token: &str,
    names: &std::collections::HashMap<String, td_store::ObjId>,
) -> Result<Value, CliError> {
    if let Some(&id) = names.get(token) {
        return Ok(Value::Ref(id));
    }
    if token == "true" {
        return Ok(Value::Bool(true));
    }
    if token == "false" {
        return Ok(Value::Bool(false));
    }
    if token == "null" {
        return Ok(Value::Null);
    }
    if token.starts_with('"') && token.ends_with('"') && token.len() >= 2 {
        return Ok(Value::Str(token[1..token.len() - 1].to_string()));
    }
    if let Ok(i) = token.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = token.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(fail(format!(
        "`{token}` is neither a known object name nor a literal"
    )))
}

fn view_args(
    schema: &Schema,
    ty: Option<&str>,
    attrs: Option<&str>,
) -> Result<(TypeId, BTreeSet<AttrId>), CliError> {
    let ty = ty.ok_or_else(|| fail("missing source type argument"))?;
    let attrs = attrs.ok_or_else(|| fail("missing attribute list argument"))?;
    let source = schema.type_id(ty).map_err(|e| fail(e.to_string()))?;
    let projection = attrs
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|n| schema.attr_id(n.trim()).map_err(|e| fail(e.to_string())))
        .collect::<Result<BTreeSet<AttrId>, CliError>>()?;
    Ok((source, projection))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const FIG1: &str = r#"
        type Person { SSN: int  name: str  date_of_birth: int }
        type Employee : Person { pay_rate: float  hrs_worked: float }
        accessors SSN
        accessors date_of_birth
        accessors pay_rate
        accessors hrs_worked
        method age(Person) -> int { return 2026 - get_date_of_birth($0); }
        method income(Employee) -> float { return get_pay_rate($0) * get_hrs_worked($0); }
    "#;

    fn fixture(name: &str, contents: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("td_cli_test_{}_{name}.td", std::process::id()));
        std::fs::write(&p, contents).unwrap();
        p
    }

    /// Runs a command that must succeed. On failure the captured stderr
    /// (message + exit code) goes to the test log first, so a CI failure
    /// shows what `tdv` actually emitted instead of a bare panic.
    fn run_ok(args: &[&str]) -> String {
        let result = run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        if let Err(e) = &result {
            eprintln!(
                "--- tdv {args:?} captured stderr (exit code {}) ---\n{}\n---",
                e.code, e.message
            );
        }
        assert!(
            result.is_ok(),
            "command {args:?} failed; captured stderr is above"
        );
        result.unwrap()
    }

    /// Runs a command that must fail. On unexpected success the captured
    /// stdout goes to the test log first, for the same reason.
    fn run_err(args: &[&str]) -> CliError {
        let result = run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        if let Ok(out) = &result {
            eprintln!("--- tdv {args:?} captured stdout ---\n{out}\n---");
        }
        assert!(
            result.is_err(),
            "command {args:?} unexpectedly succeeded; captured stdout is above"
        );
        result.err().unwrap()
    }

    #[test]
    fn project_json_is_byte_identical_to_the_server_endpoint() {
        let f = fixture("project_json", FIG1);
        let out = run_ok(&[
            "project",
            f.to_str().unwrap(),
            "Employee",
            "SSN,pay_rate,hrs_worked",
            "--json",
        ]);
        let api = td_server::Api::new();
        let body = format!(
            "{{\"schema_text\": {}, \"type\": \"Employee\", \"attrs\": [\"SSN\", \"pay_rate\", \"hrs_worked\"]}}",
            td_telemetry::json::quote(FIG1)
        );
        let resp = api.handle("POST", "/v1/project", "", body.as_bytes());
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(out, resp.body);
        assert!(out.contains("\"invariants_ok\": true"), "{out}");
    }

    #[test]
    fn client_round_trips_against_a_live_server() {
        use std::sync::Arc;
        let server = Arc::new(
            td_server::Server::bind(td_server::ServerConfig::default())
                .expect("bind a loopback port"),
        );
        let addr = server.local_addr().unwrap().to_string();
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        let out = run_ok(&["client", &addr, "GET", "/healthz"]);
        assert_eq!(out, "ok\n");
        let e = run_err(&["client", &addr, "get", "/v1/nope"]);
        assert!(e.message.contains("HTTP 404"), "{}", e.message);
        assert_eq!(e.code, 2);
        server.stop();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn watch_streams_a_change_event_for_a_schema_edit() {
        use std::sync::Arc;
        let server = Arc::new(
            td_server::Server::bind(td_server::ServerConfig::default())
                .expect("bind a loopback port"),
        );
        let addr = server.local_addr().unwrap().to_string();
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };

        let base = "type A { x: int }\ntype B : A { z: int }\naccessors x\naccessors z\n";
        let out = run_ok(&["client", &addr, "PUT", "/v1/tenants/acme/schemas/s", base]);
        assert!(out.contains("\"version\": 1"), "{out}");

        // hello + one change = 2 events, then the subcommand returns.
        let watcher = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                run_ok(&[
                    "watch",
                    &addr,
                    "--tenant",
                    "acme",
                    "--schema",
                    "s",
                    "--type",
                    "B",
                    "--attrs",
                    "x,z",
                    "--max-events",
                    "2",
                ])
            })
        };
        // The PUT must not race the subscription: wait until the hub
        // has the watcher registered.
        for _ in 0..200 {
            if !server.api().watch.is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(!server.api().watch.is_empty(), "watcher never subscribed");

        let edited = format!("{base}method f(B) -> int {{ return get_x($0); }}\n");
        let out = run_ok(&[
            "client",
            &addr,
            "PUT",
            "/v1/tenants/acme/schemas/s",
            &edited,
        ]);
        assert!(out.contains("\"version\": 2"), "{out}");

        let summary = watcher.join().unwrap();
        assert_eq!(summary, "tdv watch: received 2 event(s)\n");

        let e = run_err(&["watch", &addr, "--tenant", "acme"]);
        assert!(e.message.contains("--schema is required"), "{}", e.message);

        server.stop();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn snapshot_save_load_inspect_and_project() {
        let f = fixture("snapshot", FIG1);
        let mut tds = std::env::temp_dir();
        tds.push(format!("td_cli_test_{}_snapshot.tds", std::process::id()));
        let tds = tds.to_str().unwrap().to_string();

        let out = run_ok(&["snapshot", "save", f.to_str().unwrap(), &tds]);
        assert!(out.contains("format v1"), "{out}");

        let out = run_ok(&["snapshot", "load", &tds]);
        assert!(out.contains("snapshot OK"), "{out}");
        assert!(!out.contains(" 0 cpl/rank entries"), "{out}");

        let out = run_ok(&["snapshot", "inspect", &tds]);
        assert!(out.contains("section names"), "{out}");
        assert!(out.contains("meta source"), "{out}");

        // The snapshot path and the text path derive byte-identically.
        let view = ["Employee", "SSN,pay_rate,hrs_worked"];
        let from_text = run_ok(&["project", f.to_str().unwrap(), view[0], view[1], "--json"]);
        let from_snap = run_ok(&["project", &tds, view[0], view[1], "--json"]);
        assert_eq!(from_text, from_snap);

        let e = run_err(&["snapshot", "inspect", f.to_str().unwrap()]);
        assert!(e.message.contains("bad magic"), "{}", e.message);
        std::fs::remove_file(&tds).unwrap();
    }

    #[test]
    fn check_and_show() {
        let f = fixture("check", FIG1);
        let out = run_ok(&["check", f.to_str().unwrap()]);
        assert!(out.contains("schema OK"));
        assert!(out.contains("types: 2"));
        let out = run_ok(&["show", f.to_str().unwrap()]);
        assert!(out.contains("Employee {pay_rate, hrs_worked} <- Person(1)"));
        assert!(out.contains("age(Person)"));
    }

    #[test]
    fn dot_export() {
        let f = fixture("dot", FIG1);
        let out = run_ok(&["dot", f.to_str().unwrap()]);
        assert!(out.starts_with("digraph"));
        assert!(out.contains("\"Employee\" -> \"Person\""));
    }

    #[test]
    fn applicable_and_project() {
        let f = fixture("proj", FIG1);
        let out = run_ok(&[
            "applicable",
            f.to_str().unwrap(),
            "Employee",
            "SSN,date_of_birth,pay_rate",
        ]);
        assert!(out.contains("age"));
        assert!(out.lines().next().unwrap().contains("age"));
        assert!(out.lines().nth(1).unwrap().contains("income"));

        let out = run_ok(&[
            "project",
            f.to_str().unwrap(),
            "Employee",
            "SSN,date_of_birth,pay_rate",
        ]);
        assert!(out.contains("derived ^Employee"));
        assert!(out.contains("all hold"));
        assert!(out.contains("^Person [surrogate of Person]"));
    }

    const FIG1_BATCH: &str = r#"
        # badge view, payroll view, and a person-only view
        Employee: SSN, date_of_birth
        Employee: pay_rate, hrs_worked
        Person:   SSN   # trailing comment
    "#;

    #[test]
    fn batch_derives_every_request() {
        let s = fixture("batch_s", FIG1);
        let r = fixture("batch_r", FIG1_BATCH);
        let out = run_ok(&["batch", s.to_str().unwrap(), r.to_str().unwrap()]);
        assert!(out.contains("#0 Π_{SSN, date_of_birth}(Employee)"), "{out}");
        assert!(out.contains("#2 Π_{SSN}(Person)"), "{out}");
        assert!(out.contains("3 requests, 3 ok, 0 errors"), "{out}");
        assert!(out.contains("invariants hold"), "{out}");
        assert!(out.contains("wall"), "{out}");
        // An explicit thread count is accepted; the report shows the
        // effective worker count (the request clamps to the host's
        // available parallelism, so a 1-core machine reports 1).
        let out = run_ok(&["batch", s.to_str().unwrap(), r.to_str().unwrap(), "2"]);
        let effective = 2.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
        assert!(out.contains(&format!("over {effective} threads")), "{out}");
    }

    #[test]
    fn batch_reports_per_request_errors() {
        let s = fixture("batch_err_s", FIG1);
        // pay_rate is not available at Person: resolves, then fails in
        // the pipeline — a per-request error, not a parse error.
        let r = fixture("batch_err_r", "Person: pay_rate\nEmployee: SSN\n");
        let e = run_err(&["batch", s.to_str().unwrap(), r.to_str().unwrap()]);
        assert!(e.message.contains("→ error:"), "{}", e.message);
        assert!(
            e.message.contains("2 requests, 1 ok, 1 errors"),
            "{}",
            e.message
        );
    }

    #[test]
    fn batch_rejects_malformed_input() {
        let s = fixture("batch_bad_s", FIG1);
        let r = fixture("batch_bad_r", "Employee SSN\n");
        let e = run_err(&["batch", s.to_str().unwrap(), r.to_str().unwrap()]);
        assert!(e.message.contains("line 1"), "{}", e.message);
        let r = fixture("batch_bad_r2", "Nope: SSN\n");
        let e = run_err(&["batch", s.to_str().unwrap(), r.to_str().unwrap()]);
        assert!(e.message.contains("unknown type name"), "{}", e.message);
        let e = run_err(&["batch", s.to_str().unwrap(), r.to_str().unwrap(), "zero?"]);
        assert!(e.message.contains("not a thread count"), "{}", e.message);
    }

    #[test]
    fn explain_names_the_attribute() {
        let f = fixture("explain", FIG1);
        let out = run_ok(&[
            "explain",
            f.to_str().unwrap(),
            "Employee",
            "SSN,date_of_birth",
            "income",
        ]);
        assert!(out.contains("income"));
        assert!(
            out.contains("pay_rate") || out.contains("get_pay_rate"),
            "{out}"
        );
    }

    #[test]
    fn explain_reports_dispatch_cache_counters() {
        let f = fixture("explain-cache", FIG1);
        let out = run_ok(&[
            "explain",
            f.to_str().unwrap(),
            "Employee",
            "SSN,date_of_birth",
            "income",
        ]);
        assert!(out.contains("dispatch cache: gen"), "{out}");
    }

    #[test]
    fn audit_ranks_strategies() {
        let f = fixture("audit", FIG1);
        let out = run_ok(&["audit", f.to_str().unwrap(), "Employee", "SSN"]);
        assert!(out.contains("paper"));
        assert!(out.contains("standalone"));
        assert_eq!(out.lines().count(), 4);
    }

    #[test]
    fn errors_are_reported() {
        let e = run_err(&["project", "/nonexistent/file.td", "A", "x"]);
        assert!(e.message.contains("cannot read"));
        let f = fixture("err", FIG1);
        let e = run_err(&["project", f.to_str().unwrap(), "Nope", "SSN"]);
        assert!(e.message.contains("unknown type name"));
        let e = run_err(&["project", f.to_str().unwrap(), "Employee", "nope"]);
        assert!(e.message.contains("unknown attribute"));
        let e = run_err(&["frobnicate"]);
        assert!(e.message.contains("unknown command"));
        let e = run_err(&[]);
        assert!(e.message.contains("USAGE"));
    }

    #[test]
    fn bad_schema_file_reports_position() {
        let f = fixture("bad", "type A : Missing { }");
        let e = run_err(&["check", f.to_str().unwrap()]);
        assert!(e.message.contains("Missing"));
    }

    const FIG1_DATA: &str = r#"
        obj alice = Employee {
            SSN = 1
            name = "Alice"
            date_of_birth = 1990
            pay_rate = 55.0
            hrs_worked = 38.0
        }
        obj bob = Person { SSN = 2  name = "Bob"  date_of_birth = 2000 }
    "#;

    #[test]
    fn extent_lists_objects() {
        let s = fixture("extent_s", FIG1);
        let d = fixture("extent_d", FIG1_DATA);
        let out = run_ok(&["extent", s.to_str().unwrap(), d.to_str().unwrap(), "Person"]);
        assert!(out.contains("alice: Employee"));
        assert!(out.contains("bob: Person"));
        let out = run_ok(&[
            "extent",
            s.to_str().unwrap(),
            d.to_str().unwrap(),
            "Employee",
        ]);
        assert!(out.contains("alice"));
        assert!(!out.contains("bob"));
    }

    #[test]
    fn call_executes_methods() {
        let s = fixture("call_s", FIG1);
        let d = fixture("call_d", FIG1_DATA);
        let out = run_ok(&[
            "call",
            s.to_str().unwrap(),
            d.to_str().unwrap(),
            "age",
            "alice",
        ]);
        assert_eq!(out.trim(), "36");
        let out = run_ok(&[
            "call",
            s.to_str().unwrap(),
            d.to_str().unwrap(),
            "income",
            "alice",
        ]);
        assert_eq!(out.trim(), "2090");
        // Writers take literal second arguments.
        let out = run_ok(&[
            "call",
            s.to_str().unwrap(),
            d.to_str().unwrap(),
            "set_SSN",
            "alice,9",
        ]);
        assert_eq!(out.trim(), "null");
        let e = run_err(&[
            "call",
            s.to_str().unwrap(),
            d.to_str().unwrap(),
            "income",
            "bob",
        ]);
        assert!(e.message.contains("no applicable method"));
        let e = run_err(&[
            "call",
            s.to_str().unwrap(),
            d.to_str().unwrap(),
            "age",
            "whoops",
        ]);
        assert!(e.message.contains("neither a known object"));
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_ok(&["help"]).contains("USAGE"));
    }

    #[test]
    fn every_command_rejects_unknown_flags() {
        let f = fixture("flags", FIG3);
        let path = f.to_str().unwrap();
        let r = fixture("flags_b", "A: a2\n");
        let reqs = r.to_str().unwrap();
        // A flag a command does not take exits 1 naming the command and
        // the flag, wherever it sits in the line; `--engine` included.
        for (line, flag) in [
            (vec!["project", path, "A", "a2,e2,h2", "--jsno"], "--jsno"),
            (
                vec!["applicable", path, "A", "a2,e2,h2", "--json"],
                "--json",
            ),
            (
                vec![
                    "explain", path, "A", "a2,e2,h2", "u3", "--engine", "fixpoint",
                ],
                "--engine",
            ),
            (
                vec!["lint", path, "--engine", "stack", "--sarif-typo"],
                "--engine",
            ),
            (
                vec!["applicable", path, "A", "a2", "--engine", "stack"],
                "--engine",
            ),
            (
                vec!["project", "--engine=stack", path, "A", "a2"],
                "--engine=stack",
            ),
            (vec!["batch", path, reqs, "--engine", "stack"], "--engine"),
            (
                vec!["stats", path, "A", "a2", "--engine=indexed"],
                "--engine=indexed",
            ),
            (
                vec!["analyze", path, "--precision", "semantic", "--jsn"],
                "--jsn",
            ),
            (vec!["check", path, "--strict"], "--strict"),
            (vec!["snapshot", "inspect", path, "--all"], "--all"),
            (vec!["show", path, "--json"], "--json"),
            (vec!["dot", "--rankdir=LR", path], "--rankdir=LR"),
            (vec!["audit", path, "A", "a2", "--json"], "--json"),
            (vec!["extent", path, path, "A", "--deep"], "--deep"),
            (vec!["call", path, path, "u1", "--dry-run"], "--dry-run"),
            (vec!["serve", "127.0.0.1:0", "--port", "7171"], "--port"),
            (
                vec!["client", "127.0.0.1:1", "GET", "/healthz", "--header", "x"],
                "--header",
            ),
            (vec!["top", "--once", "127.0.0.1:1"], "--once"),
            (
                vec!["watch", "127.0.0.1:1", "--tenant", "t", "--follow"],
                "--follow",
            ),
            (vec!["trace-verify", path, "--strict"], "--strict"),
            // A switch takes no value, and reading a snapshot needs no
            // flag: the schema reader knows one by its magic bytes.
            (vec!["project", path, "A", "a2", "--json=1"], "--json=1"),
            (vec!["project", path, "A", "a2", "--snapshot"], "--snapshot"),
        ] {
            let e = run_err(&line);
            assert_eq!(e.code, 1, "{line:?}");
            assert_eq!(e.message, format!("{}: unknown flag {flag}", line[0]));
        }
        // `batch` lints every request; the stats block reports the counts.
        let out = run_ok(&["batch", path, reqs]);
        assert!(out.contains("1 requests, 1 ok"), "{out}");
        assert!(out.contains("lint:"), "{out}");
    }

    #[test]
    fn valued_flags_take_the_next_argument_or_an_equals_value() {
        // Every valued flag of every command, and the global `--trace`:
        // `--f v` and `--f=v` read alike, wherever the flag sits, and the
        // value runs to the end of the argument.
        let strings = |line: &[&str]| line.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let globals = GLOBAL.values.split_whitespace().map(|flag| ("check", flag));
        let declared = COMMANDS
            .iter()
            .flat_map(|c| c.values.split_whitespace().map(move |flag| (c.name, flag)));
        let mut checked = 0;
        for (command, flag) in globals.chain(declared) {
            let joined = format!("{flag}=v=1");
            let split = strings(&[command, "a", flag, "v=1", "b"]);
            let joined = strings(&[command, "a", &joined, "b"]);
            for args in [&split, &joined] {
                let line = Line::parse(args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
                assert_eq!(line.command.name, command);
                assert_eq!(line.args, ["a", "b"], "{args:?}");
                assert_eq!(line.value(flag), Some("v=1"), "{args:?}");
            }
            checked += 1;
        }
        // 20 flags; lint and analyze both declare `--deny`.
        assert_eq!(checked, 21);
        // An empty argument is positional, never a flag.
        let args = strings(&["project", "", "--json"]);
        let line = Line::parse(&args).unwrap();
        assert_eq!((line.switch("--json"), line.args), (true, vec![""]));
    }

    #[test]
    fn equals_values_fail_like_split_values() {
        let f = fixture("equals", FIG3);
        let path = f.to_str().unwrap();
        let addr = "127.0.0.1:1";
        for (line, flag, value, wording) in [
            (
                vec!["serve"],
                "--threads",
                "x",
                "serve: --threads must be a number",
            ),
            (vec!["serve"], "--io-threads", "x", "must be a number"),
            (vec!["serve"], "--queue-slots", "-1", "must be a number"),
            (
                vec!["serve"],
                "--slow-threshold-ms",
                "x",
                "must be a number",
            ),
            (
                vec!["serve"],
                "--slo-objective-ms",
                "1.5",
                "must be a number",
            ),
            (
                vec!["top", addr],
                "--interval",
                "x",
                "top: --interval must be",
            ),
            (vec!["top", addr], "--iterations", "x", "must be a number"),
            (
                vec!["watch", addr, "--tenant", "t", "--schema", "s"],
                "--max-events",
                "x",
                "watch: --max-events must be a number",
            ),
            (
                vec!["lint", path],
                "--deny",
                "errors",
                "unknown level `errors`",
            ),
            (
                vec!["analyze", path],
                "--precision",
                "sharp",
                "unknown precision",
            ),
            (
                vec!["client", addr, "GET", "/healthz"],
                "--trace-id",
                "zz",
                "--trace-id must be",
            ),
        ] {
            let joined = format!("{flag}={value}");
            let split = run_err(&[&line[..], &[flag, value]].concat());
            let joined = run_err(&[&line[..], &[&joined]].concat());
            assert!(split.message.contains(wording), "{}", split.message);
            assert_eq!(split.message, joined.message);
            assert_eq!((split.code, joined.code), (1, 1));
        }
    }

    #[test]
    fn equals_values_drive_client_top_and_watch() {
        use std::sync::Arc;
        let server = Arc::new(
            td_server::Server::bind(td_server::ServerConfig::default())
                .expect("bind a loopback port"),
        );
        let addr = server.local_addr().unwrap().to_string();
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        let trace = "--trace-id=4bf92f3577b34da6a3ce929d0e0e4736";
        let out = run_ok(&[
            "client",
            &addr,
            trace,
            "PUT",
            "/v1/tenants/t/schemas/s",
            FIG1,
        ]);
        assert!(out.contains("\"version\": 1"), "{out}");
        let out = run_ok(&["top", &addr, "--interval=50", "--iterations=2"]);
        assert_eq!(out.matches("tdv top — ").count(), 2, "{out}");
        let out = run_ok(&[
            "watch",
            &addr,
            "--tenant=t",
            "--schema=s",
            "--type=Employee",
            "--attrs=SSN",
            "--max-events=1",
        ]);
        assert_eq!(out, "tdv watch: received 1 event(s)\n");
        server.stop();
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn usage_names_every_declared_command_and_flag() {
        let words: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .collect();
        for command in COMMANDS.iter().chain([&GLOBAL]) {
            let usage_line = format!("tdv {} ", command.name);
            assert!(
                command.name.is_empty()
                    || USAGE
                        .lines()
                        .any(|l| l.trim_start().starts_with(&usage_line)),
                "USAGE has no `{usage_line}` line"
            );
            let flags = format!("{} {}", command.switches, command.values);
            for flag in flags.split_whitespace() {
                assert!(words.contains(flag), "USAGE does not name {flag}");
            }
        }
    }

    #[test]
    fn a_snapshot_reads_like_its_text() {
        let fig1 = include_str!("../../../examples/schemas/fig1.td");
        for (name, text, view) in [
            ("fig1", fig1, ["Employee", "SSN,date_of_birth,pay_rate"]),
            ("fig3", FIG3, ["A", "a2,e2,h2"]),
        ] {
            let td = fixture(&format!("reader_{name}"), text);
            let td = td.to_str().unwrap();
            let tds = format!("{td}s");
            run_ok(&["snapshot", "save", td, &tds]);
            for line in [
                vec!["check"],
                vec!["show"],
                vec!["applicable", view[0], view[1]],
                vec!["project", view[0], view[1], "--json"],
                vec!["lint", "--json"],
                vec!["lint", view[0], view[1], "--json"],
                vec!["analyze", "--json"],
                vec!["analyze", view[0], view[1], "--json"],
            ] {
                let on = |path: &str| run_ok(&[&line[..1], &[path], &line[1..]].concat());
                assert_eq!(on(td), on(&tds), "{name}: {line:?}");
            }
            std::fs::remove_file(&tds).unwrap();
        }
        // Shorter than the magic is text: a 6-byte file parses (and
        // fails) as it always did.
        let six = fixture("reader_six", "type A");
        let six = six.to_str().unwrap();
        let e = run_err(&["check", six]);
        let parse_error = parse_schema("type A").unwrap_err();
        assert_eq!(e.message, format!("{six}: {parse_error}"));
        // `snapshot load` takes a snapshot, never text.
        let text = fixture("reader_text", FIG3);
        let text = text.to_str().unwrap();
        let e = run_err(&["snapshot", "load", text]);
        assert_eq!(e.message, format!("{text}: not a tdv snapshot (bad magic)"));
    }

    /// FNV-1a 64, the checksum of each TDSNAP section and of the file.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn project_prints_one_line_per_violation() {
        // A fig3 snapshot with one type id in its rank tables rewritten
        // to 0, the ranks section and the file resealed: some of these
        // load, derive, and fail I5.
        let schema = parse_schema(FIG3).unwrap();
        schema.warm_caches();
        let bytes = td_model::save_snapshot(&schema, &[]);
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let long = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let row = (0..word(12))
            .map(|i| 16 + i * 28)
            .find(|&row| word(row) == 8)
            .expect("a ranks section");
        let (start, len) = (long(row + 4), long(row + 12));
        // Each table's key type, then each `(type, rank)` entry's type.
        let mut type_ids = Vec::new();
        let mut at = start + 4;
        for _ in 0..word(start) {
            type_ids.push(at);
            let entries = word(at + 4);
            at += 8;
            for _ in 0..entries {
                type_ids.push(at);
                at += 8;
            }
        }
        let mut path = std::env::temp_dir();
        path.push(format!("td_cli_test_{}_violated.tds", std::process::id()));
        let path = path.to_str().unwrap();
        let mut violated = 0;
        for at in type_ids {
            let mut tampered = bytes.clone();
            tampered[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
            let sum = fnv1a(&tampered[start..start + len]);
            tampered[row + 20..row + 28].copy_from_slice(&sum.to_le_bytes());
            let end = tampered.len() - 8;
            let sum = fnv1a(&tampered[..end]);
            tampered[end..].copy_from_slice(&sum.to_le_bytes());
            // The violations the same derivation reports in process.
            let Ok((mut schema, _)) = td_model::load_snapshot(&tampered) else {
                continue;
            };
            let (source, projection) = view_args(&schema, Some("A"), Some("a2,e2,h2")).unwrap();
            let opts = ProjectionOptions::default();
            let Ok(d) = project(&mut schema, source, &projection, &opts) else {
                continue;
            };
            let report = d.invariants.as_ref().expect("checked");
            std::fs::write(path, &tampered).unwrap();
            let args = ["project", path, "A", "a2,e2,h2"];
            if report.ok() {
                run_ok(&args);
                continue;
            }
            let e = run_err(&args);
            assert_eq!(e.code, 1);
            assert!(!e.message.contains("DispatchCacheStats"), "{}", e.message);
            assert!(
                e.message.contains("invariants:     VIOLATED"),
                "{}",
                e.message
            );
            // After the summary and the hierarchy: one line each.
            let lines: Vec<String> = report
                .violations
                .iter()
                .map(|v| violation_line(&schema, v))
                .collect();
            let tail: Vec<&str> = e.message.lines().rev().take(lines.len()).collect();
            assert!(tail.iter().rev().eq(lines.iter()), "{}", e.message);
            assert!(
                lines.iter().all(|l| l.starts_with("violated I")),
                "{lines:?}"
            );
            violated += 1;
        }
        let _ = std::fs::remove_file(path);
        assert!(violated > 0, "no tampered snapshot violated an invariant");
    }

    /// The shipped Figure 3 schema (with Example 4's `z1`), reused so the
    /// CLI tests cover exactly what `examples/` ships.
    const FIG3: &str = include_str!("../../../examples/schemas/fig3.td");

    /// A CLOS-style precedence diamond: X and Y order {P, Q} oppositely,
    /// so Z has no consistent linearization.
    const CONFLICT: &str = "
        type P { }
        type Q { }
        type X : P(1), Q(2) { }
        type Y : Q(1), P(2) { }
        type Z : X(1), Y(2) { }
    ";

    /// Two multi-methods neither of which is most specific at `g(C, C)`.
    const AMBIGUOUS: &str = "
        type P { }
        type A : P(1) { }
        type B : P(1) { }
        type C : A(1), B(2) { }
        gf g(2)
        method g1 = g(A, B) { }
        method g2 = g(B, A) { }
    ";

    #[test]
    fn lint_fig3_schema_and_request() {
        let f = fixture("lint_fig3", FIG3);
        // Schema-wide: clean, even under --deny warnings.
        let out = run_ok(&["lint", f.to_str().unwrap(), "--deny", "warnings"]);
        assert!(out.contains("0 errors, 0 warnings"), "{out}");

        // The FIG4 request reports the x1/y1 call ring (TDL003) and z1's
        // Augment hazard (TDL005) as notes — informative, never fatal.
        let out = run_ok(&[
            "lint",
            f.to_str().unwrap(),
            "A",
            "a2,e2,h2",
            "--json",
            "--deny",
            "warnings",
        ]);
        assert!(out.contains("\"TDL003\""), "{out}");
        assert!(out.contains("\"TDL005\""), "{out}");
        assert!(out.contains("\"paper_section\""), "{out}");
    }

    #[test]
    fn lint_conflict_schema_fails() {
        let f = fixture("lint_conflict", CONFLICT);
        // Lenient parsing loads the broken schema; lint reports TDL002 and
        // exits nonzero even without --deny.
        let e = run_err(&["lint", f.to_str().unwrap()]);
        assert_eq!(e.code, 1);
        assert!(e.message.contains("TDL002"), "{}", e.message);
    }

    #[test]
    fn lint_ambiguous_schema_warns_and_deny_fails() {
        let f = fixture("lint_ambig", AMBIGUOUS);
        let out = run_ok(&["lint", f.to_str().unwrap()]);
        assert!(out.contains("TDL001"), "{out}");
        let e = run_err(&["lint", f.to_str().unwrap(), "--deny=warnings"]);
        assert_eq!(e.code, 1);
        assert!(e.message.contains("TDL001"), "{}", e.message);
    }

    #[test]
    fn lint_bad_request_is_tdl006() {
        let f = fixture("lint_req", FIG3);
        let e = run_err(&["lint", f.to_str().unwrap(), "A", ""]);
        assert!(e.message.contains("TDL006"), "{}", e.message);
        let e = run_err(&["lint", f.to_str().unwrap(), "C", "a1"]);
        assert!(e.message.contains("not available"), "{}", e.message);
    }

    #[test]
    fn lint_rejects_unknown_deny_level() {
        let f = fixture("lint_deny", FIG3);
        let e = run_err(&["lint", f.to_str().unwrap(), "--deny", "errors"]);
        assert!(e.message.contains("unknown level"), "{}", e.message);
        let e = run_err(&["lint", f.to_str().unwrap(), "--deny"]);
        assert!(e.message.contains("missing value"), "{}", e.message);
    }

    #[test]
    fn lint_sarif_round_trips() {
        let f = fixture("lint_sarif", FIG3);
        let out = run_ok(&["lint", f.to_str().unwrap(), "A", "a2,e2,h2", "--sarif"]);
        assert!(out.contains("\"td-lint\""), "{out}");
        assert!(out.contains("\"2.1.0\""), "{out}");
        let back = td_model::LintReport::from_sarif(&out).unwrap();
        assert!(back.diagnostics.iter().any(|d| d.code.as_str() == "TDL003"));
    }

    /// A schema with one interprocedural trap per whole-schema analysis:
    /// `trap` calls `f` with a definitely-null argument into an int-only
    /// candidate set (TDL201), and `constbr` branches on `1 < 2` (TDL202).
    const ANALYZE: &str = "
        type A { x: int }
        accessors x
        gf f(1)
        method f_int = f(int) -> int { return 1; }
        gf t(1)
        method trap = t(A) { f(null); }
        gf c(1)
        method constbr = c(A) -> int {
            if (1 < 2) {
                return 1;
            } else {
                set_x($0, 0);
            }
            return 0;
        }
    ";

    #[test]
    fn analyze_reports_null_trap_and_const_branch() {
        let f = fixture("analyze_traps", ANALYZE);
        // TDL2xx warnings are not fatal without --deny.
        let out = run_ok(&["analyze", f.to_str().unwrap()]);
        assert!(out.contains("TDL201"), "{out}");
        assert!(out.contains("TDL202"), "{out}");
        assert!(out.contains("analysis: precision syntactic"), "{out}");
        let e = run_err(&["analyze", f.to_str().unwrap(), "--deny", "warnings"]);
        assert_eq!(e.code, 1);
    }

    #[test]
    fn analyze_sarif_round_trips() {
        let f = fixture("analyze_sarif", ANALYZE);
        let out = run_ok(&["analyze", f.to_str().unwrap(), "--sarif"]);
        assert!(out.contains("\"td-analyze\""), "{out}");
        let back = td_model::LintReport::from_sarif(&out).unwrap();
        assert!(back.diagnostics.iter().any(|d| d.code.as_str() == "TDL201"));
        assert!(back.diagnostics.iter().any(|d| d.code.as_str() == "TDL202"));
    }

    #[test]
    fn analyze_request_findings_are_precision_stable() {
        let f = fixture("analyze_fig3", FIG3);
        // The FIG4 projection has no readers for a2/e2 anywhere in the
        // schema: the footprint analysis reports them as dead (TDL204).
        let syn = run_ok(&[
            "analyze",
            f.to_str().unwrap(),
            "A",
            "a2,e2,h2",
            "--json",
            "--precision",
            "syntactic",
        ]);
        let sem = run_ok(&[
            "analyze",
            f.to_str().unwrap(),
            "A",
            "a2,e2,h2",
            "--json",
            "--precision=semantic",
        ]);
        assert!(syn.contains("\"TDL204\""), "{syn}");
        assert_eq!(syn, sem, "precision must not change the findings");
        let e = run_err(&["analyze", f.to_str().unwrap(), "--precision", "sharp"]);
        assert!(e.message.contains("unknown precision"), "{}", e.message);
    }

    /// Telemetry collection is process-global; tests that turn it on
    /// serialize here so the parallel test runner cannot interleave their
    /// drains.
    static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn trace_fixture(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("td_cli_trace_{}_{name}.json", std::process::id()));
        p
    }

    #[test]
    fn stats_command_prints_span_and_metrics_summary() {
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let f = fixture("stats", FIG1);
        let out = run_ok(&[
            "stats",
            f.to_str().unwrap(),
            "Employee",
            "SSN,date_of_birth,pay_rate",
        ]);
        assert!(out.contains("derived ^Employee"), "{out}");
        // Span aggregation rows for the projection stages…
        for stage in ["applicability", "factor_state", "augment", "retype"] {
            assert!(out.contains(&format!("project/{stage}")), "{out}");
        }
        // …and the bridged cache metrics.
        assert!(out.contains("cache/index_misses"), "{out}");
        assert!(out.contains("cache/generation"), "{out}");
        assert!(!td_telemetry::enabled(), "stats must restore the default");
    }

    #[test]
    fn trace_flag_writes_a_perfetto_loadable_chrome_trace() {
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let f = fixture("trace_proj", FIG1);
        let trace = trace_fixture("project");
        let out = run_ok(&[
            "project",
            f.to_str().unwrap(),
            "Employee",
            "SSN,date_of_birth,pay_rate",
            "--trace",
            trace.to_str().unwrap(),
        ]);
        assert!(out.contains("derived ^Employee"), "{out}");
        assert!(out.contains("spans written to"), "{out}");
        let text = std::fs::read_to_string(&trace).unwrap();
        let spans = td_telemetry::parse_chrome_trace(&text).unwrap();
        let names: Vec<&str> = spans.iter().map(|sp| sp.name.as_str()).collect();
        for stage in [
            "applicability",
            "factor_state",
            "flow_analysis",
            "augment",
            "factor_methods",
            "retype",
            "invariants",
        ] {
            assert!(names.contains(&stage), "missing {stage} in {names:?}");
        }
        assert!(names.contains(&"project/Employee"), "{names:?}");
        let _ = std::fs::remove_file(&trace);
        assert!(!td_telemetry::enabled(), "--trace must restore the default");
    }

    #[test]
    fn metrics_flag_appends_summary_to_batch_output() {
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let schema = fixture("metrics_s", FIG1);
        let reqs = fixture("metrics_r", FIG1_BATCH);
        let out = run_ok(&[
            "batch",
            schema.to_str().unwrap(),
            reqs.to_str().unwrap(),
            "2",
            "--metrics",
        ]);
        assert!(out.contains("3 requests, 3 ok"), "{out}");
        assert!(out.contains("batch/request"), "{out}");
        assert!(out.contains("batch/run"), "{out}");
        assert!(out.contains("counter"), "{out}");
        assert!(!td_telemetry::enabled());
    }

    #[test]
    fn telemetry_flag_errors() {
        let e = run_err(&["project", "x.td", "T", "a", "--trace"]);
        assert!(
            e.message.contains("--trace: missing output file"),
            "{}",
            e.message
        );
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let f = fixture("trace_badpath", FIG1);
        let e = run_err(&[
            "project",
            f.to_str().unwrap(),
            "Employee",
            "SSN",
            "--trace=/nonexistent-dir/out.json",
        ]);
        assert!(e.message.contains("cannot write"), "{}", e.message);
        assert!(
            !td_telemetry::enabled(),
            "a failed write must still disable"
        );
    }

    #[test]
    fn explain_annotates_optimistic_cycles() {
        let f = fixture("explain_ring", FIG3);
        // x1 sits on the x1 <-> y1 call ring: annotated.
        let out = run_ok(&["explain", f.to_str().unwrap(), "A", "a2,e2,h2", "x1"]);
        assert!(out.contains("note[TDL003]"), "{out}");
        assert!(out.contains("y1"), "{out}");
        // u1 is ring-free: no annotation.
        let out = run_ok(&["explain", f.to_str().unwrap(), "A", "a2,e2,h2", "u1"]);
        assert!(!out.contains("TDL003"), "{out}");
    }

    #[test]
    fn trace_verify_round_trips_a_recorded_trace() {
        let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let f = fixture("trace_verify", FIG1);
        let mut trace_path = std::env::temp_dir();
        trace_path.push(format!("td_cli_test_{}_trace.json", std::process::id()));
        let trace_arg = format!("--trace={}", trace_path.to_str().unwrap());
        run_ok(&[
            "project",
            f.to_str().unwrap(),
            "Employee",
            "SSN",
            &trace_arg,
        ]);
        let out = run_ok(&["trace-verify", trace_path.to_str().unwrap()]);
        assert!(out.contains("OK"), "{out}");
        assert!(out.contains("span(s)"), "{out}");

        // Garbage is rejected, not summarized.
        let bad = fixture("trace_verify_bad", "this is not json");
        let e = run_err(&["trace-verify", bad.to_str().unwrap()]);
        assert!(e.message.contains("not a Chrome trace"), "{}", e.message);
        let _ = std::fs::remove_file(&trace_path);
    }

    #[test]
    fn observability_command_flag_errors() {
        let e = run_err(&["top"]);
        assert!(
            e.message.contains("missing server address"),
            "{}",
            e.message
        );
        let e = run_err(&["top", "127.0.0.1:1", "--interval"]);
        assert!(e.message.contains("needs a value"), "{}", e.message);
        let e = run_err(&[
            "client",
            "127.0.0.1:1",
            "GET",
            "/healthz",
            "--trace-id",
            "zz",
        ]);
        assert!(e.message.contains("--trace-id must be"), "{}", e.message);
        let e = run_err(&["trace-verify"]);
        assert!(e.message.contains("missing trace file"), "{}", e.message);
        let e = run_err(&["serve", "--slow-threshold-ms", "abc"]);
        assert!(e.message.contains("must be a number"), "{}", e.message);
    }
}
