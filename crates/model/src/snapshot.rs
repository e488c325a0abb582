//! The versioned binary snapshot format: `Schema` + warm caches on disk.
//!
//! A server restart (or a fleet of batch workers) used to cold-start by
//! re-parsing schema text and re-deriving every cache. A snapshot instead
//! persists the whole runtime state — the interned name arena, every
//! entity arena, and the warm dispatch-acceleration maps (CPL memo, rank
//! tables, per-call dispatch tables and applicability condensation
//! indexes) — so loading is O(file): decode, rebuild the `NameId`-keyed
//! lookup maps, install the caches at the current generation. No text
//! parse, no derivation.
//!
//! ## Wire layout
//!
//! ```text
//! magic    [u8; 8]      = b"TDSNAP1\n"
//! version  u32 LE       = SNAPSHOT_VERSION
//! n_sects  u32 LE
//! section table, n_sects × { tag u32, offset u64, len u64, checksum u64 }
//! section payloads (contiguous, in table order)
//! trailer  u64 LE       = FNV-1a over every preceding byte
//! ```
//!
//! All integers are little-endian. Checksums (per-section and trailer)
//! are 64-bit FNV-1a — dependency-free and fast enough to be invisible
//! next to I/O. Every multi-byte read is bounds-checked, so a truncated,
//! bit-flipped or hostile file produces a structured [`SnapshotError`],
//! never a panic. Unknown section tags are skipped (a newer writer may
//! append sections without breaking this reader), but an unknown *format
//! version* is rejected outright.
//!
//! Maps are serialized in sorted key order, so saving the same schema
//! twice yields byte-identical files — CI compares snapshot artifacts.
//!
//! Deliberately **not** persisted: cached lint reports (presentation-layer
//! results that re-derive quickly and would drag diagnostic strings into
//! the wire format) and cache hit/miss counters (telemetry, not state).

use crate::appindex::{AnalysisPrecision, ApplicabilityIndex};
use crate::attrs::{AttrDef, PrimType, ValueType};
use crate::body::{BinOp, Body, Expr, Literal, LocalVar, Stmt};
use crate::cache::{CallKey, Entries, IndexKey};
use crate::hierarchy::{SuperLink, TypeNode, TypeOrigin};
use crate::ids::{AttrBitSet, AttrId, GfId, MethodId, NameId, TypeId, VarId};
use crate::intern::{fnv1a, NameTable};
use crate::methods::{GenericFunction, Method, MethodKind, Specializer};
use crate::schema::Schema;
use crate::CallArg;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// The format version this build writes and the newest it can read.
pub const SNAPSHOT_VERSION: u32 = 1;

const MAGIC: [u8; 8] = *b"TDSNAP1\n";

/// True when `bytes` start with the snapshot magic, i.e. they claim to be
/// a snapshot and not schema text. Input shorter than the magic is not.
pub fn is_snapshot(bytes: &[u8]) -> bool {
    bytes.starts_with(&MAGIC)
}

// Section tags. New sections get new tags; readers skip unknown ones.
const SECT_META: u32 = 1;
const SECT_NAMES: u32 = 2;
const SECT_TYPES: u32 = 3;
const SECT_ATTRS: u32 = 4;
const SECT_GFS: u32 = 5;
const SECT_METHODS: u32 = 6;
const SECT_CPL: u32 = 7;
const SECT_RANKS: u32 = 8;
const SECT_DISPATCH: u32 = 9;
const SECT_APPINDEX: u32 = 10;

/// Structured failure modes of snapshot I/O. Corruption never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem-level failure (open, read, write).
    Io(String),
    /// The file does not start with the snapshot magic bytes.
    BadMagic,
    /// The file declares a format version newer than this build reads.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Newest version this build supports.
        supported: u32,
    },
    /// The file ends before a declared structure does.
    Truncated {
        /// Byte offset at which the read ran out of data.
        offset: usize,
    },
    /// A section (or the whole-file trailer) failed its checksum.
    ChecksumMismatch {
        /// Which checksum failed, e.g. `"trailer"` or `"types"`.
        section: String,
    },
    /// Structurally invalid content behind a valid checksum (bad tag,
    /// out-of-range id, missing section).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a tdv snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is newer than supported version {supported}"
            ),
            SnapshotError::Truncated { offset } => {
                write!(f, "snapshot truncated at byte {offset}")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot checksum mismatch in {section}")
            }
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Summary of a snapshot file, as printed by `tdv snapshot inspect`.
#[derive(Debug, Clone)]
pub struct SnapshotInfo {
    /// Format version declared in the header.
    pub version: u32,
    /// Total file size in bytes.
    pub file_bytes: usize,
    /// `(section name, payload bytes, checksum)` per section, file order.
    pub sections: Vec<(String, usize, u64)>,
    /// Embedded metadata pairs.
    pub meta: Vec<(String, String)>,
    /// Distinct interned names.
    pub n_names: usize,
    /// Type slots (live + retired).
    pub n_types: usize,
    /// Attributes.
    pub n_attrs: usize,
    /// Generic functions.
    pub n_gfs: usize,
    /// Methods.
    pub n_methods: usize,
    /// Persisted CPL + rank table entries.
    pub cpl_entries: usize,
    /// Persisted dispatch-table entries (applicable + ranked).
    pub dispatch_entries: usize,
    /// Persisted applicability condensation indexes.
    pub index_entries: usize,
}

// ---------------------------------------------------------------- writing

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize32(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("snapshot count overflows u32"));
    }

    fn str(&mut self, s: &str) {
        self.usize32(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn value_type(&mut self, vt: ValueType) {
        match vt {
            ValueType::Prim(p) => self.u8(prim_tag(p)),
            ValueType::Object(t) => {
                self.u8(4);
                self.u32(t.0);
            }
        }
    }

    fn opt_value_type(&mut self, vt: Option<ValueType>) {
        match vt {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.value_type(v);
            }
        }
    }

    fn call_arg(&mut self, a: CallArg) {
        match a {
            CallArg::Object(t) => {
                self.u8(0);
                self.u32(t.0);
            }
            CallArg::Prim(p) => {
                self.u8(1);
                self.u8(prim_tag(p));
            }
            CallArg::Null => self.u8(2),
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Param(i) => {
                self.u8(0);
                self.usize32(*i);
            }
            Expr::Var(v) => {
                self.u8(1);
                self.u32(v.0);
            }
            Expr::Lit(l) => {
                self.u8(2);
                match l {
                    Literal::Int(v) => {
                        self.u8(0);
                        self.i64(*v);
                    }
                    Literal::Float(v) => {
                        self.u8(1);
                        self.u64(v.to_bits());
                    }
                    Literal::Bool(v) => {
                        self.u8(2);
                        self.u8(*v as u8);
                    }
                    Literal::Str(s) => {
                        self.u8(3);
                        self.str(s);
                    }
                    Literal::Null => self.u8(4),
                }
            }
            Expr::Call { gf, args } => {
                self.u8(3);
                self.u32(gf.0);
                self.usize32(args.len());
                for a in args {
                    self.expr(a);
                }
            }
            Expr::BinOp { op, lhs, rhs } => {
                self.u8(4);
                self.u8(binop_tag(*op));
                self.expr(lhs);
                self.expr(rhs);
            }
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        self.usize32(stmts.len());
        for s in stmts {
            match s {
                Stmt::Assign { var, value } => {
                    self.u8(0);
                    self.u32(var.0);
                    self.expr(value);
                }
                Stmt::Expr(e) => {
                    self.u8(1);
                    self.expr(e);
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.u8(2);
                    self.expr(cond);
                    self.stmts(then_branch);
                    self.stmts(else_branch);
                }
                Stmt::Return(e) => {
                    self.u8(3);
                    self.expr(e);
                }
            }
        }
    }

    fn body(&mut self, b: &Body) {
        self.usize32(b.locals.len());
        for l in &b.locals {
            self.str(&l.name);
            self.value_type(l.ty);
        }
        self.stmts(&b.stmts);
    }

    fn finish(self) -> Vec<u8> {
        self.buf
    }
}

fn prim_tag(p: PrimType) -> u8 {
    match p {
        PrimType::Int => 0,
        PrimType::Float => 1,
        PrimType::Bool => 2,
        PrimType::Str => 3,
    }
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Lt => 4,
        BinOp::Eq => 5,
        BinOp::And => 6,
        BinOp::Or => 7,
    }
}

fn encode_meta(meta: &[(String, String)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize32(meta.len());
    for (k, v) in meta {
        w.str(k);
        w.str(v);
    }
    w.finish()
}

fn encode_names(names: &NameTable) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(names.buf().len() as u64);
    w.buf.extend_from_slice(names.buf().as_bytes());
    w.usize32(names.spans().len());
    for &(off, len) in names.spans() {
        w.u32(off);
        w.u32(len);
    }
    w.finish()
}

fn encode_types(types: &[TypeNode]) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize32(types.len());
    for node in types {
        w.u32(node.name.0);
        match node.origin {
            TypeOrigin::Original => w.u8(0),
            TypeOrigin::Surrogate { source } => {
                w.u8(1);
                w.u32(source.0);
            }
        }
        w.u8(node.dead as u8);
        w.usize32(node.local_attrs.len());
        for a in &node.local_attrs {
            w.u32(a.0);
        }
        w.usize32(node.supers.len());
        for link in &node.supers {
            w.u32(link.target.0);
            w.i32(link.prec);
        }
    }
    w.finish()
}

fn encode_attrs(attrs: &[AttrDef]) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize32(attrs.len());
    for a in attrs {
        w.u32(a.name.0);
        w.value_type(a.ty);
        w.u32(a.owner.0);
    }
    w.finish()
}

fn encode_gfs(gfs: &[GenericFunction]) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize32(gfs.len());
    for g in gfs {
        w.u32(g.name.0);
        w.usize32(g.arity);
        w.opt_value_type(g.result);
        w.usize32(g.methods.len());
        for m in &g.methods {
            w.u32(m.0);
        }
    }
    w.finish()
}

fn encode_methods(methods: &[Method]) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize32(methods.len());
    for m in methods {
        w.u32(m.gf.0);
        w.u32(m.label.0);
        w.usize32(m.specializers.len());
        for s in &m.specializers {
            match s {
                Specializer::Type(t) => {
                    w.u8(0);
                    w.u32(t.0);
                }
                Specializer::Prim(p) => {
                    w.u8(1);
                    w.u8(prim_tag(*p));
                }
            }
        }
        match &m.kind {
            MethodKind::Reader(a) => {
                w.u8(0);
                w.u32(a.0);
            }
            MethodKind::Writer(a) => {
                w.u8(1);
                w.u32(a.0);
            }
            MethodKind::General(b) => {
                w.u8(2);
                w.body(b);
            }
        }
        w.opt_value_type(m.result);
    }
    w.finish()
}

fn encode_cpl(cpl: &HashMap<TypeId, Arc<Vec<TypeId>>>) -> Vec<u8> {
    let mut entries: Vec<_> = cpl.iter().collect();
    entries.sort_by_key(|(t, _)| **t);
    let mut w = Writer::new();
    w.usize32(entries.len());
    for (t, list) in entries {
        w.u32(t.0);
        w.usize32(list.len());
        for x in list.iter() {
            w.u32(x.0);
        }
    }
    w.finish()
}

fn encode_ranks(ranks: &HashMap<TypeId, Arc<Vec<(TypeId, usize)>>>) -> Vec<u8> {
    let mut entries: Vec<_> = ranks.iter().collect();
    entries.sort_by_key(|(t, _)| **t);
    let mut w = Writer::new();
    w.usize32(entries.len());
    for (t, list) in entries {
        w.u32(t.0);
        w.usize32(list.len());
        for &(ty, rank) in list.iter() {
            w.u32(ty.0);
            w.usize32(rank);
        }
    }
    w.finish()
}

fn encode_dispatch_map(w: &mut Writer, map: &HashMap<(GfId, Vec<CallArg>), Arc<Vec<MethodId>>>) {
    // Sort by the encoded key bytes: deterministic without an Ord on CallArg.
    let mut entries: Vec<(Vec<u8>, &Arc<Vec<MethodId>>)> = map
        .iter()
        .map(|((gf, args), methods)| {
            let mut kw = Writer::new();
            kw.u32(gf.0);
            kw.usize32(args.len());
            for &a in args {
                kw.call_arg(a);
            }
            (kw.finish(), methods)
        })
        .collect();
    entries.sort();
    w.usize32(entries.len());
    for (key, methods) in entries {
        w.buf.extend_from_slice(&key);
        w.usize32(methods.len());
        for m in methods.iter() {
            w.u32(m.0);
        }
    }
}

fn encode_dispatch(
    applicable: &HashMap<(GfId, Vec<CallArg>), Arc<Vec<MethodId>>>,
    ranked: &HashMap<(GfId, Vec<CallArg>), Arc<Vec<MethodId>>>,
) -> Vec<u8> {
    let mut w = Writer::new();
    encode_dispatch_map(&mut w, applicable);
    encode_dispatch_map(&mut w, ranked);
    w.finish()
}

fn encode_appindex(indexes: &HashMap<IndexKey, Arc<ApplicabilityIndex>>) -> Vec<u8> {
    let mut entries: Vec<_> = indexes.iter().collect();
    entries.sort_by_key(|(k, _)| **k);
    let mut w = Writer::new();
    w.usize32(entries.len());
    for (_, idx) in entries {
        w.u32(idx.source.0);
        w.usize32(idx.n_attrs);
        w.usize32(idx.methods.len());
        for m in &idx.methods {
            w.u32(m.0);
        }
        for &s in &idx.scc_of {
            w.usize32(s);
        }
        w.usize32(idx.scc_footprint.len());
        for sid in 0..idx.scc_footprint.len() {
            // Footprints are sparse (an SCC touches a handful of attrs
            // out of the whole schema), so store set-bit positions, not
            // the dense word array — on a 10k-type schema this is the
            // difference between a ~2MB and a ~200MB snapshot.
            let footprint = &idx.scc_footprint[sid];
            w.usize32(footprint.len());
            for a in footprint.iter() {
                w.u32(a.index() as u32);
            }
            w.u8(idx.scc_dead[sid] as u8);
            w.u8(idx.scc_fallback[sid] as u8);
            w.u8(idx.scc_cyclic[sid] as u8);
            w.usize32(idx.scc_members[sid].len());
            for &v in &idx.scc_members[sid] {
                w.usize32(v);
            }
        }
        w.usize32(idx.fallback_methods);
    }
    w.finish()
}

/// Serializes a schema (with its warm caches) and optional metadata pairs
/// into the versioned snapshot byte format. Deterministic: the same
/// schema state yields the same bytes.
pub fn save_snapshot(schema: &Schema, meta: &[(String, String)]) -> Vec<u8> {
    let warm = schema.cache.export_warm(schema);
    let sections: Vec<(u32, Vec<u8>)> = vec![
        (SECT_META, encode_meta(meta)),
        (SECT_NAMES, encode_names(&schema.names)),
        (SECT_TYPES, encode_types(&schema.types)),
        (SECT_ATTRS, encode_attrs(&schema.attrs)),
        (SECT_GFS, encode_gfs(&schema.gfs)),
        (SECT_METHODS, encode_methods(&schema.methods)),
        (SECT_CPL, encode_cpl(&warm.cpl)),
        (SECT_RANKS, encode_ranks(&warm.ranks)),
        (
            SECT_DISPATCH,
            encode_dispatch(&warm.applicable, &warm.ranked),
        ),
        (SECT_APPINDEX, encode_appindex(&warm.index)),
    ];

    let table_len = sections.len() * (4 + 8 + 8 + 8);
    let mut offset = (MAGIC.len() + 4 + 4 + table_len) as u64;
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in &sections {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        offset += payload.len() as u64;
    }
    for (_, payload) in &sections {
        out.extend_from_slice(payload);
    }
    let trailer = fnv1a(&out);
    out.extend_from_slice(&trailer.to_le_bytes());
    out
}

// ---------------------------------------------------------------- reading

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type Sres<T> = std::result::Result<T, SnapshotError>;

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Sres<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SnapshotError::Truncated { offset: self.pos })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Sres<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Sres<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Sres<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i32(&mut self) -> Sres<i32> {
        Ok(i32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn i64(&mut self) -> Sres<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A u32 count, sanity-bounded so a corrupt length cannot trigger a
    /// huge allocation: each counted item occupies at least one byte.
    fn count(&mut self) -> Sres<usize> {
        let n = self.u32()? as usize;
        if n > self.bytes.len().saturating_sub(self.pos) {
            return Err(SnapshotError::Corrupt(format!(
                "count {n} exceeds remaining payload at byte {}",
                self.pos
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Sres<String> {
        let n = self.count()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }

    fn value_type(&mut self) -> Sres<ValueType> {
        match self.u8()? {
            t @ 0..=3 => Ok(ValueType::Prim(prim_from_tag(t)?)),
            4 => Ok(ValueType::Object(TypeId(self.u32()?))),
            t => Err(SnapshotError::Corrupt(format!("bad value-type tag {t}"))),
        }
    }

    fn opt_value_type(&mut self) -> Sres<Option<ValueType>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.value_type()?)),
            t => Err(SnapshotError::Corrupt(format!("bad option tag {t}"))),
        }
    }

    fn call_arg(&mut self) -> Sres<CallArg> {
        match self.u8()? {
            0 => Ok(CallArg::Object(TypeId(self.u32()?))),
            1 => Ok(CallArg::Prim(prim_from_tag(self.u8()?)?)),
            2 => Ok(CallArg::Null),
            t => Err(SnapshotError::Corrupt(format!("bad call-arg tag {t}"))),
        }
    }

    fn expr(&mut self, depth: usize) -> Sres<Expr> {
        if depth > 512 {
            return Err(SnapshotError::Corrupt("expression nests too deep".into()));
        }
        match self.u8()? {
            0 => Ok(Expr::Param(self.u32()? as usize)),
            1 => Ok(Expr::Var(VarId(self.u32()?))),
            2 => {
                let lit = match self.u8()? {
                    0 => Literal::Int(self.i64()?),
                    1 => Literal::Float(f64::from_bits(self.u64()?)),
                    2 => Literal::Bool(self.u8()? != 0),
                    3 => Literal::Str(self.str()?),
                    4 => Literal::Null,
                    t => {
                        return Err(SnapshotError::Corrupt(format!("bad literal tag {t}")));
                    }
                };
                Ok(Expr::Lit(lit))
            }
            3 => {
                let gf = GfId(self.u32()?);
                let n = self.count()?;
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(self.expr(depth + 1)?);
                }
                Ok(Expr::Call { gf, args })
            }
            4 => {
                let op = binop_from_tag(self.u8()?)?;
                let lhs = Box::new(self.expr(depth + 1)?);
                let rhs = Box::new(self.expr(depth + 1)?);
                Ok(Expr::BinOp { op, lhs, rhs })
            }
            t => Err(SnapshotError::Corrupt(format!("bad expression tag {t}"))),
        }
    }

    fn stmts(&mut self, depth: usize) -> Sres<Vec<Stmt>> {
        if depth > 512 {
            return Err(SnapshotError::Corrupt("statements nest too deep".into()));
        }
        let n = self.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(match self.u8()? {
                0 => Stmt::Assign {
                    var: VarId(self.u32()?),
                    value: self.expr(0)?,
                },
                1 => Stmt::Expr(self.expr(0)?),
                2 => Stmt::If {
                    cond: self.expr(0)?,
                    then_branch: self.stmts(depth + 1)?,
                    else_branch: self.stmts(depth + 1)?,
                },
                3 => Stmt::Return(self.expr(0)?),
                t => {
                    return Err(SnapshotError::Corrupt(format!("bad statement tag {t}")));
                }
            });
        }
        Ok(out)
    }

    fn body(&mut self) -> Sres<Body> {
        let n_locals = self.count()?;
        let mut locals = Vec::with_capacity(n_locals);
        for _ in 0..n_locals {
            locals.push(LocalVar {
                name: self.str()?,
                ty: self.value_type()?,
            });
        }
        let stmts = self.stmts(0)?;
        Ok(Body { locals, stmts })
    }
}

fn prim_from_tag(t: u8) -> Sres<PrimType> {
    Ok(match t {
        0 => PrimType::Int,
        1 => PrimType::Float,
        2 => PrimType::Bool,
        3 => PrimType::Str,
        _ => return Err(SnapshotError::Corrupt(format!("bad prim tag {t}"))),
    })
}

fn binop_from_tag(t: u8) -> Sres<BinOp> {
    Ok(match t {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Lt,
        5 => BinOp::Eq,
        6 => BinOp::And,
        7 => BinOp::Or,
        _ => return Err(SnapshotError::Corrupt(format!("bad binop tag {t}"))),
    })
}

struct Sections<'a> {
    by_tag: HashMap<u32, &'a [u8]>,
    table: Vec<(u32, usize, u64)>,
    version: u32,
}

fn section_name(tag: u32) -> String {
    match tag {
        SECT_META => "meta".into(),
        SECT_NAMES => "names".into(),
        SECT_TYPES => "types".into(),
        SECT_ATTRS => "attrs".into(),
        SECT_GFS => "gfs".into(),
        SECT_METHODS => "methods".into(),
        SECT_CPL => "cpl".into(),
        SECT_RANKS => "ranks".into(),
        SECT_DISPATCH => "dispatch".into(),
        SECT_APPINDEX => "appindex".into(),
        other => format!("unknown({other})"),
    }
}

/// Parses and verifies the envelope: magic, version, trailer checksum,
/// section table and per-section checksums.
fn parse_envelope(bytes: &[u8]) -> Sres<Sections<'_>> {
    if bytes.len() < MAGIC.len() {
        return Err(SnapshotError::Truncated {
            offset: bytes.len(),
        });
    }
    if !is_snapshot(bytes) {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = Reader::new(bytes);
    r.pos = MAGIC.len();
    let version = r.u32()?;
    if version > SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    // Whole-file integrity first: the last 8 bytes checksum everything
    // before them, so any flipped bit anywhere is caught here.
    if bytes.len() < MAGIC.len() + 4 + 4 + 8 {
        return Err(SnapshotError::Truncated {
            offset: bytes.len(),
        });
    }
    let body_end = bytes.len() - 8;
    let declared = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    if fnv1a(&bytes[..body_end]) != declared {
        return Err(SnapshotError::ChecksumMismatch {
            section: "trailer".into(),
        });
    }
    let n_sections = r.u32()? as usize;
    if n_sections > 1024 {
        return Err(SnapshotError::Corrupt(format!(
            "implausible section count {n_sections}"
        )));
    }
    let mut by_tag = HashMap::new();
    let mut table = Vec::with_capacity(n_sections);
    let mut entries = Vec::with_capacity(n_sections);
    for _ in 0..n_sections {
        let tag = r.u32()?;
        let offset = r.u64()? as usize;
        let len = r.u64()? as usize;
        let checksum = r.u64()?;
        entries.push((tag, offset, len, checksum));
    }
    for (tag, offset, len, checksum) in entries {
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= body_end)
            .ok_or(SnapshotError::Truncated { offset })?;
        let payload = &bytes[offset..end];
        if fnv1a(payload) != checksum {
            return Err(SnapshotError::ChecksumMismatch {
                section: section_name(tag),
            });
        }
        by_tag.insert(tag, payload);
        table.push((tag, len, checksum));
    }
    Ok(Sections {
        by_tag,
        table,
        version,
    })
}

fn section<'a>(s: &Sections<'a>, tag: u32) -> Sres<Reader<'a>> {
    s.by_tag
        .get(&tag)
        .map(|p| Reader::new(p))
        .ok_or_else(|| SnapshotError::Corrupt(format!("missing section {}", section_name(tag))))
}

fn decode_meta(s: &Sections<'_>) -> Sres<Vec<(String, String)>> {
    let mut r = section(s, SECT_META)?;
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.str()?;
        let v = r.str()?;
        out.push((k, v));
    }
    Ok(out)
}

fn decode_names(s: &Sections<'_>) -> Sres<NameTable> {
    let mut r = section(s, SECT_NAMES)?;
    let buf_len = r.u64()? as usize;
    let buf = String::from_utf8(r.take(buf_len)?.to_vec())
        .map_err(|_| SnapshotError::Corrupt("name arena is not UTF-8".into()))?;
    let n = r.count()?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        let off = r.u32()?;
        let len = r.u32()?;
        spans.push((off, len));
    }
    NameTable::from_parts(buf, spans)
        .ok_or_else(|| SnapshotError::Corrupt("name arena spans out of bounds".into()))
}

fn decode_types(s: &Sections<'_>, n_names: usize) -> Sres<Vec<TypeNode>> {
    let mut r = section(s, SECT_TYPES)?;
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = NameId(r.u32()?);
        if name.index() >= n_names {
            return Err(SnapshotError::Corrupt(format!(
                "type name id {name} outside arena"
            )));
        }
        let origin = match r.u8()? {
            0 => TypeOrigin::Original,
            1 => TypeOrigin::Surrogate {
                source: TypeId(r.u32()?),
            },
            t => return Err(SnapshotError::Corrupt(format!("bad origin tag {t}"))),
        };
        let dead = r.u8()? != 0;
        let n_attrs = r.count()?;
        let mut local_attrs = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            local_attrs.push(AttrId(r.u32()?));
        }
        let n_supers = r.count()?;
        let mut supers = Vec::with_capacity(n_supers);
        for _ in 0..n_supers {
            supers.push(SuperLink {
                target: TypeId(r.u32()?),
                prec: r.i32()?,
            });
        }
        out.push(TypeNode {
            name,
            local_attrs,
            supers,
            origin,
            dead,
        });
    }
    Ok(out)
}

fn decode_attrs(s: &Sections<'_>, n_names: usize, n_types: usize) -> Sres<Vec<AttrDef>> {
    let mut r = section(s, SECT_ATTRS)?;
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = NameId(r.u32()?);
        let ty = r.value_type()?;
        let owner = TypeId(r.u32()?);
        if name.index() >= n_names || owner.index() >= n_types {
            return Err(SnapshotError::Corrupt("attribute id out of range".into()));
        }
        out.push(AttrDef { name, ty, owner });
    }
    Ok(out)
}

fn decode_gfs(s: &Sections<'_>, n_names: usize) -> Sres<Vec<GenericFunction>> {
    let mut r = section(s, SECT_GFS)?;
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = NameId(r.u32()?);
        if name.index() >= n_names {
            return Err(SnapshotError::Corrupt("gf name id outside arena".into()));
        }
        let arity = r.u32()? as usize;
        let result = r.opt_value_type()?;
        let n_methods = r.count()?;
        let mut methods = Vec::with_capacity(n_methods);
        for _ in 0..n_methods {
            methods.push(MethodId(r.u32()?));
        }
        out.push(GenericFunction {
            name,
            arity,
            result,
            methods,
        });
    }
    Ok(out)
}

fn decode_methods(s: &Sections<'_>, n_names: usize, n_gfs: usize) -> Sres<Vec<Method>> {
    let mut r = section(s, SECT_METHODS)?;
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let gf = GfId(r.u32()?);
        let label = NameId(r.u32()?);
        if label.index() >= n_names || gf.index() >= n_gfs {
            return Err(SnapshotError::Corrupt("method id out of range".into()));
        }
        let n_specs = r.count()?;
        let mut specializers = Vec::with_capacity(n_specs);
        for _ in 0..n_specs {
            specializers.push(match r.u8()? {
                0 => Specializer::Type(TypeId(r.u32()?)),
                1 => Specializer::Prim(prim_from_tag(r.u8()?)?),
                t => {
                    return Err(SnapshotError::Corrupt(format!("bad specializer tag {t}")));
                }
            });
        }
        let kind = match r.u8()? {
            0 => MethodKind::Reader(AttrId(r.u32()?)),
            1 => MethodKind::Writer(AttrId(r.u32()?)),
            2 => MethodKind::General(r.body()?),
            t => return Err(SnapshotError::Corrupt(format!("bad method-kind tag {t}"))),
        };
        let result = r.opt_value_type()?;
        out.push(Method {
            gf,
            label,
            specializers,
            kind,
            result,
        });
    }
    Ok(out)
}

fn decode_cpl(s: &Sections<'_>) -> Sres<HashMap<TypeId, Arc<Vec<TypeId>>>> {
    let mut r = section(s, SECT_CPL)?;
    let n = r.count()?;
    let mut out = HashMap::with_capacity(n);
    for _ in 0..n {
        let t = TypeId(r.u32()?);
        let len = r.count()?;
        let mut list = Vec::with_capacity(len);
        for _ in 0..len {
            list.push(TypeId(r.u32()?));
        }
        out.insert(t, Arc::new(list));
    }
    Ok(out)
}

/// Decoded rank tables, keyed like `Entries::ranks`.
type RankTables = HashMap<TypeId, Arc<Vec<(TypeId, usize)>>>;

fn decode_ranks(s: &Sections<'_>) -> Sres<RankTables> {
    let mut r = section(s, SECT_RANKS)?;
    let n = r.count()?;
    let mut out = HashMap::with_capacity(n);
    for _ in 0..n {
        let t = TypeId(r.u32()?);
        let len = r.count()?;
        let mut list = Vec::with_capacity(len);
        for _ in 0..len {
            let ty = TypeId(r.u32()?);
            let rank = r.u32()? as usize;
            list.push((ty, rank));
        }
        out.insert(t, Arc::new(list));
    }
    Ok(out)
}

/// Decoded dispatch tables, keyed like `Entries::applicable`.
type DispatchTables = HashMap<(GfId, Vec<CallArg>), Arc<Vec<MethodId>>>;

fn decode_dispatch_map(r: &mut Reader<'_>) -> Sres<DispatchTables> {
    let n = r.count()?;
    let mut out = HashMap::with_capacity(n);
    for _ in 0..n {
        let gf = GfId(r.u32()?);
        let n_args = r.count()?;
        let mut args = Vec::with_capacity(n_args);
        for _ in 0..n_args {
            args.push(r.call_arg()?);
        }
        let n_methods = r.count()?;
        let mut methods = Vec::with_capacity(n_methods);
        for _ in 0..n_methods {
            methods.push(MethodId(r.u32()?));
        }
        out.insert((gf, args), Arc::new(methods));
    }
    Ok(out)
}

type DispatchMaps = (
    HashMap<(GfId, Vec<CallArg>), Arc<Vec<MethodId>>>,
    HashMap<(GfId, Vec<CallArg>), Arc<Vec<MethodId>>>,
);

fn decode_dispatch(s: &Sections<'_>) -> Sres<DispatchMaps> {
    let mut r = section(s, SECT_DISPATCH)?;
    let applicable = decode_dispatch_map(&mut r)?;
    let ranked = decode_dispatch_map(&mut r)?;
    Ok((applicable, ranked))
}

fn decode_appindex(s: &Sections<'_>) -> Sres<HashMap<IndexKey, Arc<ApplicabilityIndex>>> {
    let mut r = section(s, SECT_APPINDEX)?;
    let n = r.count()?;
    let mut out = HashMap::with_capacity(n);
    for _ in 0..n {
        let source = TypeId(r.u32()?);
        let n_attrs = r.u32()? as usize;
        let n_methods = r.count()?;
        let mut methods = Vec::with_capacity(n_methods);
        for _ in 0..n_methods {
            methods.push(MethodId(r.u32()?));
        }
        let node_of: HashMap<MethodId, usize> =
            methods.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        let mut scc_of = Vec::with_capacity(n_methods);
        for _ in 0..n_methods {
            scc_of.push(r.u32()? as usize);
        }
        let n_sccs = r.count()?;
        let mut scc_footprint = Vec::with_capacity(n_sccs);
        let mut scc_dead = Vec::with_capacity(n_sccs);
        let mut scc_fallback = Vec::with_capacity(n_sccs);
        let mut scc_cyclic = Vec::with_capacity(n_sccs);
        let mut scc_members = Vec::with_capacity(n_sccs);
        for _ in 0..n_sccs {
            let n_bits = r.count()?;
            let mut footprint = AttrBitSet::new(n_attrs);
            for _ in 0..n_bits {
                let a = r.u32()? as usize;
                if a >= n_attrs {
                    return Err(SnapshotError::Corrupt("footprint attr out of range".into()));
                }
                footprint.insert(AttrId::from_index(a));
            }
            scc_footprint.push(footprint);
            scc_dead.push(r.u8()? != 0);
            scc_fallback.push(r.u8()? != 0);
            scc_cyclic.push(r.u8()? != 0);
            let n_members = r.count()?;
            let mut members = Vec::with_capacity(n_members);
            for _ in 0..n_members {
                let v = r.u32()? as usize;
                if v >= n_methods {
                    return Err(SnapshotError::Corrupt("SCC member out of range".into()));
                }
                members.push(v);
            }
            scc_members.push(members);
        }
        if scc_of.iter().any(|&sid| sid >= n_sccs) {
            return Err(SnapshotError::Corrupt("SCC id out of range".into()));
        }
        let fallback_methods = r.u32()? as usize;
        // Call edges are not serialized (the snapshot format predates
        // them); a loaded index is always syntactic and edge-free, which
        // only disables the semantic-refinement fast path, not verdicts.
        let edges = vec![Vec::new(); n_methods];
        out.insert(
            (source, AnalysisPrecision::Syntactic),
            Arc::new(ApplicabilityIndex {
                source,
                n_attrs,
                methods,
                node_of,
                scc_of,
                scc_footprint,
                scc_dead,
                scc_fallback,
                scc_members,
                scc_cyclic,
                fallback_methods,
                precision: AnalysisPrecision::Syntactic,
                edges,
                cycle_rings: std::sync::OnceLock::new(),
            }),
        );
    }
    Ok(out)
}

/// Reconstructs a schema (with warm caches installed) from snapshot
/// bytes. Returns the schema plus the embedded metadata pairs.
///
/// O(file): no text parsing and no derivation — lookup maps are rebuilt
/// directly from the arenas and cache entries are installed as current
/// for the fresh schema's generation.
pub fn load_snapshot(bytes: &[u8]) -> Sres<(Schema, Vec<(String, String)>)> {
    let sections = parse_envelope(bytes)?;
    let meta = decode_meta(&sections)?;
    let names = decode_names(&sections)?;
    let types = decode_types(&sections, names.len())?;
    let attrs = decode_attrs(&sections, names.len(), types.len())?;
    let gfs = decode_gfs(&sections, names.len())?;
    let methods = decode_methods(&sections, names.len(), gfs.len())?;

    let type_names = types
        .iter()
        .enumerate()
        .filter(|(_, n)| !n.dead)
        .map(|(i, n)| (n.name, TypeId::from_index(i)))
        .collect();
    let attr_names = attrs
        .iter()
        .enumerate()
        .map(|(i, a)| (a.name, AttrId::from_index(i)))
        .collect();
    let gf_names = gfs
        .iter()
        .enumerate()
        .map(|(i, g)| (g.name, GfId::from_index(i)))
        .collect();

    let mut schema = Schema {
        names,
        types,
        type_names,
        attrs,
        attr_names,
        gfs,
        gf_names,
        methods,
        cache: Default::default(),
    };

    let cpl = decode_cpl(&sections)?;
    let ranks = decode_ranks(&sections)?;
    let (applicable, ranked) = decode_dispatch(&sections)?;
    let index = decode_appindex(&sections)?;
    let warm = Entries {
        cpl,
        ranks,
        applicable,
        ranked,
        index,
        ..Entries::default()
    };
    check_ids(&schema, &warm)?;
    schema.cache.import_warm(warm);
    Ok((schema, meta))
}

/// Rejects every decoded id that points outside its arena, and any cycle
/// of supertype edges. A loaded schema is indexed by these ids without
/// further checks, so one bad id behind a valid checksum would otherwise
/// panic the first reader (`tdv snapshot load`, a `--snapshot-dir` boot).
fn check_ids(schema: &Schema, warm: &Entries) -> Sres<()> {
    let n_gfs = schema.gfs.len();
    let ty = |t: &TypeId| t.index() < schema.types.len();
    let attr = |a: &AttrId| a.index() < schema.attrs.len();
    let method = |m: &MethodId| m.index() < schema.methods.len();
    let value = |v: &ValueType| !matches!(v, ValueType::Object(t) if !ty(t));
    let arg = |a: &CallArg| !matches!(a, CallArg::Object(t) if !ty(t));
    let body = |b: &Body| {
        let mut ok = b.locals.iter().all(|l| value(&l.ty));
        b.visit_stmts(&mut |s| {
            ok &= !matches!(s, Stmt::Assign { var, .. } if var.index() >= b.locals.len());
        });
        b.visit_exprs(&mut |e| {
            ok &= match e {
                Expr::Var(v) => v.index() < b.locals.len(),
                Expr::Call { gf, .. } => gf.index() < n_gfs,
                _ => true,
            };
        });
        ok
    };
    let calls = |map: &HashMap<CallKey, Arc<Vec<MethodId>>>| {
        map.iter().all(|((gf, args), ms)| {
            gf.index() < n_gfs && args.iter().all(arg) && ms.iter().all(method)
        })
    };
    let checks = [
        (
            "type",
            schema.types.iter().all(|n| {
                n.supers.iter().all(|l| ty(&l.target))
                    && n.local_attrs.iter().all(attr)
                    && !matches!(n.origin, TypeOrigin::Surrogate { source } if !ty(&source))
            }),
        ),
        ("attribute", schema.attrs.iter().all(|a| value(&a.ty))),
        (
            "generic function",
            schema
                .gfs
                .iter()
                .all(|g| g.methods.iter().all(method) && g.result.iter().all(value)),
        ),
        (
            "method",
            schema.methods.iter().all(|m| {
                let spec = |s: &Specializer| !matches!(s, Specializer::Type(t) if !ty(t));
                m.specializers.iter().all(spec)
                    && m.result.iter().all(value)
                    && match &m.kind {
                        MethodKind::Reader(a) | MethodKind::Writer(a) => attr(a),
                        MethodKind::General(b) => body(b),
                    }
            }),
        ),
        (
            "cache",
            warm.cpl.iter().all(|(t, cpl)| ty(t) && cpl.iter().all(ty))
                && warm
                    .ranks
                    .iter()
                    .all(|(t, ranks)| ty(t) && ranks.iter().all(|(u, _)| ty(u)))
                && calls(&warm.applicable)
                && calls(&warm.ranked)
                && warm.index.iter().all(|((source, _), idx)| {
                    ty(source)
                        && idx.n_attrs <= schema.attrs.len()
                        && idx.methods.iter().all(method)
                }),
        ),
    ];
    if let Some((section, _)) = checks.iter().find(|(_, ok)| !ok) {
        return Err(SnapshotError::Corrupt(format!(
            "{section} section has an id out of range"
        )));
    }
    if schema.find_cycle().is_some() {
        return Err(SnapshotError::Corrupt("supertype cycle".into()));
    }
    Ok(())
}

/// Parses a snapshot and reports its layout and content counts without
/// keeping the schema (the `tdv snapshot inspect` backend).
pub fn snapshot_info(bytes: &[u8]) -> Sres<SnapshotInfo> {
    let sections = parse_envelope(bytes)?;
    let table = sections
        .table
        .iter()
        .map(|&(tag, len, checksum)| (section_name(tag), len, checksum))
        .collect();
    let version = sections.version;
    let (schema, meta) = load_snapshot(bytes)?;
    let stats = schema.dispatch_cache_stats();
    Ok(SnapshotInfo {
        version,
        file_bytes: bytes.len(),
        sections: table,
        meta,
        n_names: schema.name_table().len(),
        n_types: schema.n_types(),
        n_attrs: schema.n_attrs(),
        n_gfs: schema.n_gfs(),
        n_methods: schema.n_methods(),
        cpl_entries: stats.cpl_entries,
        dispatch_entries: stats.dispatch_entries,
        index_entries: stats.index_entries,
    })
}

/// Saves a schema snapshot to a file.
pub fn write_snapshot_file(
    schema: &Schema,
    meta: &[(String, String)],
    path: impl AsRef<Path>,
) -> Sres<()> {
    std::fs::write(path, save_snapshot(schema, meta)).map_err(|e| SnapshotError::Io(e.to_string()))
}

/// Loads a schema snapshot from a file.
pub fn read_snapshot_file(path: impl AsRef<Path>) -> Sres<(Schema, Vec<(String, String)>)> {
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
    load_snapshot(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::BodyBuilder;

    fn sample_schema() -> Schema {
        let mut s = Schema::new();
        let person = s.add_type("Person", &[]).unwrap();
        let emp = s.add_type("Employee", &[person]).unwrap();
        let pay = s.add_attr("pay_rate", ValueType::FLOAT, emp).unwrap();
        s.add_attr("ssn", ValueType::STR, person).unwrap();
        s.add_accessors(pay).unwrap();
        let get_pay = s.gf_id("get_pay_rate").unwrap();
        let income = s.add_gf("income", 1, Some(ValueType::FLOAT)).unwrap();
        let mut bb = BodyBuilder::new();
        let v = bb.local("r", ValueType::FLOAT);
        bb.assign(v, Expr::call(get_pay, vec![Expr::Param(0)]));
        bb.ret(Expr::binop(BinOp::Mul, Expr::Var(v), Expr::int(40)));
        s.add_method(
            income,
            "income1",
            vec![Specializer::Type(emp)],
            MethodKind::General(bb.finish()),
            Some(ValueType::FLOAT),
        )
        .unwrap();
        s
    }

    #[test]
    fn roundtrip_preserves_schema_and_caches() {
        let s = sample_schema();
        let emp = s.type_id("Employee").unwrap();
        // Warm everything.
        for t in s.live_type_ids().collect::<Vec<_>>() {
            s.cpl(t).unwrap();
        }
        let income = s.gf_id("income").unwrap();
        s.most_specific(income, &[CallArg::Object(emp)]).unwrap();
        s.cached_applicability_index(emp).unwrap();
        let warm_stats = s.dispatch_cache_stats();
        assert!(warm_stats.cpl_entries > 0 && warm_stats.dispatch_entries > 0);

        let bytes = save_snapshot(&s, &[("tenant".into(), "acme".into())]);
        let (loaded, meta) = load_snapshot(&bytes).unwrap();
        assert_eq!(meta, vec![("tenant".to_string(), "acme".to_string())]);

        // Entities and names survive.
        assert_eq!(loaded.n_types(), s.n_types());
        assert_eq!(loaded.n_attrs(), s.n_attrs());
        assert_eq!(loaded.n_gfs(), s.n_gfs());
        assert_eq!(loaded.n_methods(), s.n_methods());
        assert_eq!(loaded.type_id("Employee").unwrap(), emp);
        assert_eq!(loaded.attr_name(s.attr_id("pay_rate").unwrap()), "pay_rate");
        assert_eq!(loaded.render_hierarchy(), s.render_hierarchy());
        assert_eq!(loaded.render_methods(), s.render_methods());

        // The caches arrive warm and current: reads hit without a rebuild.
        let cold = loaded.dispatch_cache_stats();
        assert_eq!(cold.cpl_entries, warm_stats.cpl_entries);
        assert_eq!(cold.dispatch_entries, warm_stats.dispatch_entries);
        assert_eq!(cold.index_entries, warm_stats.index_entries);
        loaded.cached_applicability_index(emp).unwrap();
        let after = loaded.dispatch_cache_stats();
        assert_eq!(after.index_misses, 0, "index must load warm");
        assert_eq!(after.index_hits, 1);
    }

    #[test]
    fn save_is_deterministic() {
        let s = sample_schema();
        let emp = s.type_id("Employee").unwrap();
        s.cached_applicability_index(emp).unwrap();
        let a = save_snapshot(&s, &[]);
        let b = save_snapshot(&s, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn loaded_schema_stays_mutable_and_invalidates() {
        let s = sample_schema();
        let bytes = save_snapshot(&s, &[]);
        let (mut loaded, _) = load_snapshot(&bytes).unwrap();
        let person = loaded.type_id("Person").unwrap();
        let t = loaded.add_type("Contractor", &[person]).unwrap();
        assert_eq!(loaded.cpl(t).unwrap().len(), 2);
        assert!(loaded.type_id("Contractor").is_ok());
    }

    #[test]
    fn inspect_reports_sections_and_counts() {
        let s = sample_schema();
        let bytes = save_snapshot(&s, &[("k".into(), "v".into())]);
        let info = snapshot_info(&bytes).unwrap();
        assert_eq!(info.version, SNAPSHOT_VERSION);
        assert_eq!(info.file_bytes, bytes.len());
        assert_eq!(info.n_types, s.n_types());
        assert_eq!(info.meta, vec![("k".to_string(), "v".to_string())]);
        let names: Vec<&str> = info.sections.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(names.contains(&"names") && names.contains(&"dispatch"));
    }

    #[test]
    fn retired_types_stay_retired() {
        let mut s = Schema::new();
        let a = s.add_type("A", &[]).unwrap();
        let b = s.add_type("B", &[a]).unwrap();
        s.remove_super_edge(b, a);
        s.retire_type(a).unwrap();
        let bytes = save_snapshot(&s, &[]);
        let (loaded, _) = load_snapshot(&bytes).unwrap();
        assert!(loaded.type_id("A").is_err());
        assert!(!loaded.is_live(a));
        // The retired name can be re-registered, as before the roundtrip.
        let mut loaded = loaded;
        loaded.add_type("A", &[]).unwrap();
    }
}
