//! Topology mapping: extracting the whole network at the terminal (Section 6).
//!
//! The conclusion of the paper observes that once unique labels exist, "we can …
//! even map the whole topology by flooding local information available to nodes".
//! This module implements that protocol in full. It runs the label-assignment
//! protocol of Section 5 and, on top of it, floods two kinds of facts towards the
//! terminal:
//!
//! * **Vertex records** — "a vertex with label `L` has in-degree `p` and out-degree
//!   `q`" — created by a vertex the moment it claims its label;
//! * **Edge records** — "out-port `j` of the vertex labelled `L` leads to the
//!   vertex labelled `L'`" — created at the *receiving* endpoint: when a vertex
//!   claims its label it *announces* the label on every out-edge, and the
//!   neighbour (once labelled itself) turns the announcement into an edge record.
//!
//! Unlike the plain labelling protocol, a claimed label is **not** folded into β;
//! instead the vertex record carries it to the terminal, so the terminal's coverage
//! check simultaneously guarantees that it has heard of every labelled vertex. The
//! terminal declares termination once
//!
//! 1. the labels it knows about, together with the interval mass and β it received
//!    directly, cover `[0, 1)` exactly;
//! 2. it holds the edge record for the root's single out-edge;
//! 3. for every known vertex with out-degree `q` it holds edge records for all `q`
//!    out-ports; and
//! 4. every edge record's destination is itself, or a vertex it knows about.
//!
//! At that point the records describe the entire network (Theorem: the
//! `mapping_reconstructs_*` tests check exact reconstruction edge-for-edge), and
//! [`ReconstructedTopology`] rebuilds it.
//!
//! # The interned record architecture
//!
//! Records exist so that topology can be described *compactly* — and the same
//! identifier economy applies inside the simulator. This implementation interns
//! every [`MapRecord`] into a per-protocol-value [`anet_num::Interner`] the first
//! time any vertex creates or learns it, and from then on the record travels as a
//! dense `u32` [`RecordId`]:
//!
//! * `known` is an [`IdBag`] — an occupancy-chosen id set: the terminal
//!   (which eventually absorbs every record) uses the dense bitset
//!   representation, while internal vertices (which see only the records
//!   flooded through them) use a sorted id vector, so per-vertex memory is
//!   proportional to what the vertex actually knows rather than to the run's
//!   whole record arena. A vertex with out-edges floods, in ascending id
//!   order, exactly the ids its activation inserted into `known`: every
//!   earlier activation flooded all it inserted, so these are the records
//!   not yet sent (the reference's `known \ sent`), found in time
//!   proportional to the activation's own inserts rather than by a difference
//!   walking every record the vertex has ever seen;
//! * flooded messages carry one [`SharedSlice<RecordId>`] shared by every
//!   out-port (an `Arc` slice — cloning it per port or per trace event is O(1)),
//!   instead of a `Vec<MapRecord>` deep-cloned per port;
//! * ids are resolved back through the table only where the *values* matter: at
//!   the terminal (to maintain its completeness view and to extract the
//!   topology) and when a vertex first absorbs a record.
//!
//! **Wire accounting is unchanged**: a [`RecordId`] is a run-local name, not
//! something the paper's model lets a protocol transmit for free, so
//! [`MappingMessage::wire_bits`] charges the full self-delimiting encoding of
//! the *records themselves* (exactly what the retained reference sends). The
//! [`mod@reference`] submodule keeps the original owned-record implementation, and
//! the `mapping_differential` suite pins the two to bit-identical traces,
//! metrics, wire-bit totals and extracted topologies across the scheduler
//! battery.
//!
//! The terminal additionally maintains a [`TerminalView`]: an incrementally
//! updated index of its `known` records (per-label port coverage counters, a
//! root-edge flag, a dangling-destination counter and the running coverage
//! union), so evaluating the stopping predicate is O(1) bookkeeping plus one
//! coverage union — not the nested `iter().any` scans of the original.
//!
//! Labels themselves are interned too: the record table assigns every label
//! interval a dense `u32` id and memoises each record's *shape* as a compact
//! meta entry — tag plus label/port ids, no heap data — at intern time.
//! The terminal view is a flat `Vec` indexed by label id rather than a
//! `BTreeMap<Interval, _>`, so absorbing a record is two or three array
//! index operations instead of ordered-map hops over interval keys.
//!
//! # The labelling core
//!
//! The α/β routing rule, its echo path and its re-flood frontier live in
//! [`crate::mass`]; mapping's claim is part 0 of the first α, kept out of β.
//! What rides along is this module's: a vertex floods the records its
//! activation learned or created on every out-port, and announces its label
//! on each out-port when it claims it. A bare β echo (no α, announcement or
//! records) is answered before the record table's lock is taken, at sinks
//! too.

pub mod reference;

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use anet_graph::{DiGraph, Network, NodeId};
use anet_num::bits;
use anet_num::intern::{IdBag, Interner};
use anet_num::{Interval, IntervalUnion};
use anet_sim::engine::{run, ExecutionConfig};
use anet_sim::metrics::RunMetrics;
use anet_sim::scheduler::Scheduler;
use anet_sim::{AnonymousProtocol, NodeContext, OutPort, RefloodProtocol, SharedSlice, Wire};

use crate::mass::{route, Claim, MassState};
use crate::CoreError;

/// A reference to a vertex inside flooded records.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VertexRef {
    /// The distinguished root `s` (it never receives a label).
    Root,
    /// The vertex that created the record and has out-degree zero. Such records
    /// never travel (a sink cannot forward), so at the terminal this always means
    /// "the terminal itself".
    Sink,
    /// An internal vertex, identified by its (single-interval) label.
    Labeled(Interval),
}

impl VertexRef {
    /// Bits of the self-delimiting encoding (2 tag bits plus the label, if any).
    pub fn wire_bits(&self) -> u64 {
        match self {
            VertexRef::Root | VertexRef::Sink => 2,
            VertexRef::Labeled(interval) => 2 + interval.endpoint_bits(),
        }
    }
}

/// A fact about the topology, flooded towards the terminal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MapRecord {
    /// "The vertex labelled `label` has these degrees."
    Vertex {
        /// The vertex's label.
        label: Interval,
        /// Its in-degree.
        in_degree: usize,
        /// Its out-degree.
        out_degree: usize,
    },
    /// "Out-port `src_port` of `src` leads to `dst`."
    Edge {
        /// The edge's source vertex.
        src: VertexRef,
        /// The out-port index at the source.
        src_port: usize,
        /// The edge's destination vertex.
        dst: VertexRef,
    },
}

impl MapRecord {
    /// Bits of the record's self-delimiting encoding.
    ///
    /// This is the size the record occupies **on the wire** whenever it is
    /// flooded — the interned implementation sends [`RecordId`]s between
    /// simulated vertices, but ids are run-local names, so honest accounting
    /// charges the encoded record itself (tag, label endpoints, gamma-coded
    /// degrees/ports). Both implementations therefore report identical message
    /// sizes, which the differential suite asserts.
    pub fn wire_bits(&self) -> u64 {
        match self {
            MapRecord::Vertex {
                label,
                in_degree,
                out_degree,
            } => {
                2 + label.endpoint_bits()
                    + bits::elias_gamma_bits(*in_degree as u64)
                    + bits::elias_gamma_bits(*out_degree as u64)
            }
            MapRecord::Edge { src, src_port, dst } => {
                2 + src.wire_bits() + bits::elias_gamma_bits(*src_port as u64) + dst.wire_bits()
            }
        }
    }
}

/// A label announcement travelling over a single edge: "this edge is out-port
/// `src_port` of the vertex `src`".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Announce {
    /// The announcing vertex.
    pub src: VertexRef,
    /// The out-port (at the announcing vertex) of the edge carrying this announce.
    pub src_port: usize,
}

impl Announce {
    /// Bits of the announcement's self-delimiting encoding.
    pub fn wire_bits(&self) -> u64 {
        self.src.wire_bits() + bits::elias_gamma_bits(self.src_port as u64)
    }
}

/// Dense run-local name of an interned [`MapRecord`].
///
/// Ids are assigned in first-use order by the protocol's shared record table
/// (see [`anet_num::Interner`]); equal records always carry equal ids within
/// one protocol value, so set bookkeeping is bit arithmetic.
pub type RecordId = u32;

/// Dense run-local name of an interned label interval (see
/// [`RecordTable::labels`]).
type LabelId = u32;

/// A vertex reference with its label replaced by the label's interned id —
/// the hot-path form of [`VertexRef`], `Copy` and heap-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefId {
    Root,
    Sink,
    Label(LabelId),
}

/// A record's shape with every interval replaced by its interned id, memoised
/// at intern time. The terminal's completeness index runs entirely on these —
/// absorbing a record touches dense arrays only; the interval values are
/// resolved just once per label, for the coverage union.
#[derive(Debug, Clone, Copy)]
enum RecordMeta {
    Vertex {
        label: LabelId,
        out_degree: u32,
    },
    Edge {
        src: RefId,
        src_port: u32,
        dst: RefId,
    },
}

/// The per-protocol-value record arena: hash-consed records plus their encoded
/// sizes and id-level shapes, memoised once at intern time so composing a
/// message costs one table lookup per new record and absorbing one costs a
/// few array index operations.
#[derive(Debug, Default)]
struct RecordTable {
    records: Interner<MapRecord>,
    encoded_bits: Vec<u64>,
    /// Every label interval mentioned by any record, hash-consed to a dense
    /// [`LabelId`] — the index space of [`TerminalView::vertices`].
    labels: Interner<Interval>,
    /// `meta[id]` is the id-level shape of `records.resolve(id)`.
    meta: Vec<RecordMeta>,
}

impl RecordTable {
    fn ref_id(&mut self, vertex: &VertexRef) -> RefId {
        match vertex {
            VertexRef::Root => RefId::Root,
            VertexRef::Sink => RefId::Sink,
            VertexRef::Labeled(interval) => RefId::Label(self.labels.intern(interval)),
        }
    }

    fn intern(&mut self, record: &MapRecord) -> RecordId {
        let id = self.records.intern(record);
        if id as usize == self.encoded_bits.len() {
            self.encoded_bits.push(record.wire_bits());
            let meta = match record {
                MapRecord::Vertex {
                    label, out_degree, ..
                } => RecordMeta::Vertex {
                    label: self.labels.intern(label),
                    out_degree: *out_degree as u32,
                },
                MapRecord::Edge { src, src_port, dst } => RecordMeta::Edge {
                    src: self.ref_id(src),
                    src_port: *src_port as u32,
                    dst: self.ref_id(dst),
                },
            };
            self.meta.push(meta);
        }
        id
    }

    fn resolve(&self, id: RecordId) -> &MapRecord {
        self.records.resolve(id)
    }

    fn meta_of(&self, id: RecordId) -> RecordMeta {
        self.meta[id as usize]
    }

    fn label_interval(&self, label: LabelId) -> &Interval {
        self.labels.resolve(label)
    }

    fn bits_of(&self, id: RecordId) -> u64 {
        self.encoded_bits[id as usize]
    }
}

type SharedRecordTable = Arc<Mutex<RecordTable>>;

/// A message of the mapping protocol.
///
/// `records` is a shared id slice: every out-port of an activation (and every
/// trace event) clones the same `Arc`, so fan-out no longer deep-copies the
/// batch. [`MappingMessage::wire_bits`] nevertheless charges the encoded
/// records (see [`MapRecord::wire_bits`]), keeping the paper's bit counts
/// identical to the [`mod@reference`] implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingMessage {
    /// Newly forwarded interval mass (labelling core).
    pub alpha: IntervalUnion,
    /// Newly discovered cycle evidence (labelling core).
    pub beta: IntervalUnion,
    /// Edge-specific announcement, sent once per out-edge when the sender claims
    /// its label (or by the root at start-up).
    pub announce: Option<Announce>,
    /// Newly learned records being flooded, as interned ids. The slice's
    /// declared wire size is the full encoding of the named records.
    pub records: SharedSlice<RecordId>,
}

impl MappingMessage {
    fn no_records() -> SharedSlice<RecordId> {
        SharedSlice::empty(bits::elias_gamma_bits(0))
    }

    /// A message with no α and no announcement: the β increment `beta` and
    /// the record batch `records`.
    fn echo(beta: IntervalUnion, records: SharedSlice<RecordId>) -> Self {
        MappingMessage {
            alpha: IntervalUnion::empty(),
            beta,
            announce: None,
            records,
        }
    }
}

impl Wire for MappingMessage {
    fn wire_bits(&self) -> u64 {
        self.alpha.wire_bits()
            + self.beta.wire_bits()
            + 1
            + self.announce.as_ref().map_or(0, Announce::wire_bits)
            + self.records.wire_bits()
    }
}

/// Per-label bookkeeping inside a [`TerminalView`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct VertexEntry {
    /// Whether the vertex record for this label has arrived.
    vertex_known: bool,
    /// The out-degree the vertex record reported (0 until it arrives).
    out_degree: usize,
    /// Distinct out-ports of this label covered by edge records so far.
    ports_seen: usize,
    /// Edge records whose destination is this label.
    incoming: usize,
}

/// The terminal's incrementally maintained completeness index.
///
/// Every record the terminal absorbs updates a handful of counters, so the
/// stopping predicate's structural conditions (root edge known, every known
/// vertex's out-ports covered, no edge pointing at an unknown vertex) are O(1)
/// flag checks instead of the nested `known.iter().any` scans of the original
/// implementation, and the coverage union over known labels is accumulated as
/// records arrive instead of being rebuilt per check.
///
/// The counters rely on two protocol invariants: a label names exactly one
/// vertex (labels are disjoint sub-intervals of `[0, 1)`), and each `(src,
/// src_port)` pair appears in at most one edge record (the record is created
/// exactly once, at the receiving endpoint of that edge).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TerminalView {
    root_edge_known: bool,
    /// Out-ports of known vertices still lacking an edge record.
    missing_ports: usize,
    /// Edge records whose `Labeled` destination has no vertex record yet.
    dangling_edges: usize,
    /// Indexed by interned [`LabelId`], grown on demand — a dense table
    /// instead of the original `BTreeMap<Interval, VertexEntry>`, so every
    /// per-label update is an array index. Label ids are assigned in
    /// first-use order by the record table, so the layout (though not any
    /// observable behaviour) depends only on the delivery order.
    vertices: Vec<VertexEntry>,
    /// Union of every known vertex record's label.
    records_coverage: IntervalUnion,
}

impl TerminalView {
    fn entry_mut(&mut self, label: LabelId) -> &mut VertexEntry {
        let index = label as usize;
        if self.vertices.len() <= index {
            self.vertices.resize(index + 1, VertexEntry::default());
        }
        &mut self.vertices[index]
    }

    fn absorb(&mut self, meta: RecordMeta, table: &RecordTable) {
        match meta {
            RecordMeta::Vertex { label, out_degree } => {
                let out_degree = out_degree as usize;
                let entry = self.entry_mut(label);
                debug_assert!(!entry.vertex_known, "labels name exactly one vertex");
                entry.vertex_known = true;
                entry.out_degree = out_degree;
                debug_assert!(entry.ports_seen <= out_degree);
                let newly_missing = out_degree - entry.ports_seen;
                let resolved_dangling = entry.incoming;
                self.missing_ports += newly_missing;
                self.dangling_edges -= resolved_dangling;
                self.records_coverage
                    .union_in_place(&IntervalUnion::from(table.label_interval(label).clone()));
            }
            RecordMeta::Edge { src, src_port, dst } => {
                match src {
                    RefId::Root => {
                        if src_port == 0 {
                            self.root_edge_known = true;
                        }
                    }
                    RefId::Sink => {}
                    RefId::Label(label) => {
                        let entry = self.entry_mut(label);
                        entry.ports_seen += 1;
                        let covers_port = entry.vertex_known;
                        debug_assert!(!covers_port || entry.ports_seen <= entry.out_degree);
                        if covers_port {
                            self.missing_ports -= 1;
                        }
                    }
                }
                if let RefId::Label(label) = dst {
                    let entry = self.entry_mut(label);
                    entry.incoming += 1;
                    let dangles = !entry.vertex_known;
                    if dangles {
                        self.dangling_edges += 1;
                    }
                }
            }
        }
    }

    /// Whether the root's single out-edge record has arrived.
    pub fn root_edge_known(&self) -> bool {
        self.root_edge_known
    }

    /// Out-ports of known vertices still lacking an edge record.
    pub fn missing_ports(&self) -> usize {
        self.missing_ports
    }

    /// Edge records whose destination label has no vertex record yet.
    pub fn dangling_edges(&self) -> usize {
        self.dangling_edges
    }

    /// The structural half of the stopping predicate (everything except the
    /// `[0, 1)` coverage check), evaluated from the counters alone.
    pub fn structurally_complete(&self) -> bool {
        self.root_edge_known && self.missing_ports == 0 && self.dangling_edges == 0
    }
}

/// Per-vertex state of the mapping protocol.
#[derive(Debug, Clone)]
pub struct MappingState {
    /// The vertex's claimed label (labelling core).
    pub label: IntervalUnion,
    /// Interval mass routed per out-port and cycle evidence (labelling core).
    pub mass: MassState,
    /// Whether any message was received.
    pub received: bool,
    /// Ids of records this vertex knows about (flooded plus self-created).
    /// Dense (bitset) at the terminal, which absorbs every record of the run;
    /// sparse (sorted vector) everywhere else, so per-vertex memory scales
    /// with what the vertex actually saw, not with the run's record arena.
    /// A vertex with out-edges floods every id in the activation that inserts
    /// it, so its `known` is also exactly what it has sent.
    pub known: IdBag,
    /// Announcements received before this vertex had a label.
    pub pending_announces: Vec<Announce>,
    /// This vertex's own degrees (recorded for report extraction).
    pub in_degree: usize,
    /// See [`MappingState::in_degree`].
    pub out_degree: usize,
    /// Handle to the protocol's shared record table (ids → records).
    table: SharedRecordTable,
    /// The completeness index, maintained only where the stopping predicate can
    /// be evaluated: vertices with out-degree zero (the terminal, in any
    /// network that can terminate).
    terminal_view: Option<TerminalView>,
}

impl MappingState {
    /// Whether this vertex holds a non-empty label.
    pub fn is_labeled(&self) -> bool {
        !self.label.is_empty()
    }

    fn own_ref(&self) -> VertexRef {
        if self.out_degree == 0 {
            VertexRef::Sink
        } else {
            VertexRef::Labeled(
                self.label
                    .first_interval()
                    .expect("own_ref is only used once labelled"),
            )
        }
    }

    /// The terminal's completeness index, if this vertex maintains one (it does
    /// exactly when its out-degree is zero).
    pub fn terminal_view(&self) -> Option<&TerminalView> {
        self.terminal_view.as_ref()
    }

    /// The records this vertex knows, resolved through the table (sorted, so
    /// the result is independent of arrival order).
    pub fn known_records(&self) -> Vec<MapRecord> {
        let table = self.table.lock().expect("record table lock poisoned");
        let mut records: Vec<MapRecord> = self
            .known
            .iter()
            .map(|id| table.resolve(id).clone())
            .collect();
        records.sort();
        records
    }

    /// The coverage the terminal checks: known labels ∪ own label ∪ β ∪ routed α.
    pub fn coverage(&self) -> IntervalUnion {
        let mut cov = self.label.union(&self.mass.beta);
        for routed in &self.mass.alpha {
            cov.union_in_place(routed);
        }
        if let Some(view) = &self.terminal_view {
            cov.union_in_place(&view.records_coverage);
        } else {
            // Non-terminal vertices keep no index; resolve on demand (ids →
            // memoised meta → label interval, no record resolution).
            let table = self.table.lock().expect("record table lock poisoned");
            for id in self.known.iter() {
                if let RecordMeta::Vertex { label, .. } = table.meta_of(id) {
                    cov.union_in_place(&IntervalUnion::from(table.label_interval(label).clone()));
                }
            }
        }
        cov
    }

    /// The full termination condition evaluated by the terminal: the indexed
    /// structural checks plus exact `[0, 1)` coverage.
    pub fn map_complete(&self) -> bool {
        let Some(view) = &self.terminal_view else {
            // A vertex with out-edges is not the terminal; the predicate is
            // never evaluated there, but answer honestly anyway.
            return false;
        };
        view.structurally_complete() && self.coverage().is_unit()
    }
}

/// The topology-mapping protocol, interned-record implementation.
///
/// Protocol values created by [`Mapping::new`]/`default` each carry a fresh
/// [record table](RecordId); every state a value creates holds a handle to its
/// table. **`clone` shares the table** (it clones the `Arc`, not the arena) —
/// fine for reusing one logical protocol, but independent concurrent runs
/// should each get their own `Mapping::new()`, or every activation funnels
/// through one `Mutex`. Reusing one value across several sequential runs (as
/// [`anet_sim::runner::run_under_battery`] does) reuses the table — ids stay
/// consistent and the arena simply accumulates, which is harmless because ids
/// never leak between runs' `known` sets.
#[derive(Debug, Clone, Default)]
pub struct Mapping {
    table: SharedRecordTable,
}

impl Mapping {
    /// Creates the protocol with a fresh record table.
    pub fn new() -> Self {
        Mapping::default()
    }

    /// Resolves interned ids back to their records, sorted — used to inspect
    /// traced messages (e.g. by the differential suite, which compares a traced
    /// id batch against the reference implementation's owned-record batch).
    ///
    /// # Panics
    ///
    /// Panics if an id was not produced by this protocol value's table.
    pub fn resolve_records(&self, ids: &[RecordId]) -> Vec<MapRecord> {
        let table = self.table.lock().expect("record table lock poisoned");
        let mut records: Vec<MapRecord> = ids.iter().map(|&id| table.resolve(id).clone()).collect();
        records.sort();
        records
    }
}

impl AnonymousProtocol for Mapping {
    type State = MappingState;
    type Message = MappingMessage;

    fn name(&self) -> &'static str {
        "topology-mapping"
    }

    fn initial_state(&self, ctx: &NodeContext) -> MappingState {
        MappingState {
            label: IntervalUnion::empty(),
            mass: MassState::new(ctx.out_degree),
            received: false,
            // The terminal eventually knows every record: bitsets. Everyone
            // else holds a small slice of the arena: sorted id vectors.
            known: if ctx.out_degree == 0 {
                IdBag::dense()
            } else {
                IdBag::sparse()
            },
            pending_announces: Vec::new(),
            in_degree: ctx.in_degree,
            out_degree: ctx.out_degree,
            table: Arc::clone(&self.table),
            terminal_view: (ctx.out_degree == 0).then(TerminalView::default),
        }
    }

    fn root_messages(&self, _root_out_degree: usize) -> Vec<(usize, MappingMessage)> {
        vec![(
            0,
            MappingMessage {
                alpha: IntervalUnion::unit(),
                beta: IntervalUnion::empty(),
                announce: Some(Announce {
                    src: VertexRef::Root,
                    src_port: 0,
                }),
                records: MappingMessage::no_records(),
            },
        )]
    }

    fn on_receive_into(
        &self,
        ctx: &NodeContext,
        state: &mut MappingState,
        _in_port: usize,
        message: &MappingMessage,
        out: &mut Vec<(OutPort, MappingMessage)>,
    ) {
        state.received = true;
        let d = ctx.out_degree;
        // 1. Labelling core: a sink keeps all it receives; a routing vertex
        //    routes the mass, claiming part 0 of its first α as its label.
        let was_labeled = state.is_labeled();
        let routed = if d == 0 {
            state.label.union_in_place(&message.alpha);
            state.mass.beta.union_in_place(&message.beta);
            None
        } else {
            let claim = Claim::OutOfBeta(&mut state.label);
            Some(route(&mut state.mass, claim, &message.alpha, &message.beta))
        };
        if message.alpha.is_empty() && message.announce.is_none() && message.records.is_empty() {
            // A bare β echo cannot touch the record table, so it ends
            // before the table's lock.
            if let Some(routed) = routed {
                routed.emit(false, out, |_, _, beta| {
                    MappingMessage::echo(beta, MappingMessage::no_records())
                });
            }
            return;
        }
        // One table lock per activation covers absorption, record creation and
        // message composition.
        let mut table = self.table.lock().expect("record table lock poisoned");

        // Ids this activation inserts into `known`: the batch to flood.
        let mut new_ids: Vec<RecordId> = Vec::new();

        // 2. Absorb flooded records — id inserts; only the memoised meta (and
        //    per label, once, its interval) is consulted if this vertex
        //    maintains the terminal index.
        for &id in message.records.items() {
            if state.known.insert(id) {
                new_ids.push(id);
                if let Some(view) = state.terminal_view.as_mut() {
                    view.absorb(table.meta_of(id), &table);
                }
            }
        }

        let just_labeled = !was_labeled && state.is_labeled();

        // 3. Handle the edge announcement carried by this message.
        if let Some(announce) = &message.announce {
            if state.is_labeled() || d == 0 {
                let record = MapRecord::Edge {
                    src: announce.src.clone(),
                    src_port: announce.src_port,
                    dst: state.own_ref(),
                };
                let id = table.intern(&record);
                if state.known.insert(id) {
                    new_ids.push(id);
                    if let Some(view) = state.terminal_view.as_mut() {
                        view.absorb(table.meta_of(id), &table);
                    }
                }
            } else {
                state.pending_announces.push(announce.clone());
            }
        }

        // 4. On claiming a label: publish the vertex record, convert buffered
        //    announcements, and prepare to announce on every out-port.
        if just_labeled && d > 0 {
            let own_label = state
                .label
                .first_interval()
                .expect("just claimed a non-empty label");
            let record = MapRecord::Vertex {
                label: own_label,
                in_degree: ctx.in_degree,
                out_degree: d,
            };
            let id = table.intern(&record);
            if state.known.insert(id) {
                new_ids.push(id);
            }
            let pending = std::mem::take(&mut state.pending_announces);
            for announce in pending {
                let record = MapRecord::Edge {
                    src: announce.src,
                    src_port: announce.src_port,
                    dst: state.own_ref(),
                };
                let id = table.intern(&record);
                if state.known.insert(id) {
                    new_ids.push(id);
                }
            }
        }

        let Some(routed) = routed else {
            return;
        };

        // 5. Compose the outgoing messages. Every earlier activation
        //    flooded all it inserted, so the ids inserted by this one are
        //    exactly the unsent ones; flooded in ascending order, the batch is
        //    shared by every out-port. Only the partition step claims the
        //    label, so only its per-port messages announce it.
        new_ids.sort_unstable();
        let records_bits = bits::elias_gamma_bits(new_ids.len() as u64)
            + new_ids.iter().map(|&id| table.bits_of(id)).sum::<u64>();
        drop(table);
        let records = SharedSlice::new(new_ids, records_bits);
        let own = just_labeled.then(|| state.own_ref());
        let rides = own.is_some() || !records.is_empty();
        routed.emit(rides, out, |port, alpha, beta| MappingMessage {
            alpha,
            beta,
            announce: match (port, &own) {
                (OutPort::Port(j), Some(src)) => Some(Announce {
                    src: src.clone(),
                    src_port: j,
                }),
                _ => None,
            },
            records: records.clone(),
        });
    }

    fn should_terminate(&self, terminal_state: &MappingState) -> bool {
        terminal_state.map_complete()
    }
}

impl RefloodProtocol for Mapping {
    /// Re-sends this vertex's whole mapping frontier on every out-port: the
    /// routed interval mass and the cycle-echo set ([`MassState`]'s), a fresh
    /// copy of the label announcement (if the vertex is labelled — the
    /// neighbour re-derives the identical edge record, which interns to the
    /// same id and is absorbed idempotently), and **all** records the vertex
    /// knows — not just the latest activation's batch, since previously
    /// flooded batches may have been destroyed.
    fn reflood(&self, ctx: &NodeContext, state: &MappingState) -> Vec<(usize, MappingMessage)> {
        if ctx.out_degree == 0 {
            return Vec::new();
        }
        let ids: Vec<RecordId> = state.known.iter().collect();
        let records_bits = {
            let table = state.table.lock().expect("record table lock poisoned");
            bits::elias_gamma_bits(ids.len() as u64)
                + ids.iter().map(|&id| table.bits_of(id)).sum::<u64>()
        };
        let records = SharedSlice::new(ids, records_bits);
        let own = state.is_labeled().then(|| state.own_ref());
        let rides = own.is_some() || !records.is_empty();
        state.mass.frontier(rides, |j, alpha, beta| MappingMessage {
            alpha,
            beta,
            announce: own.clone().map(|src| Announce { src, src_port: j }),
            records: records.clone(),
        })
    }
}

/// One vertex of the reconstructed topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconVertex {
    /// Who this vertex is.
    pub reference: VertexRef,
    /// In-degree (as reported by the vertex itself; 0 for the root, the terminal's
    /// own in-degree for the terminal).
    pub in_degree: usize,
    /// Out-degree.
    pub out_degree: usize,
}

/// One edge of the reconstructed topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconEdge {
    /// Source vertex.
    pub src: VertexRef,
    /// Out-port at the source.
    pub src_port: usize,
    /// Destination vertex (`Sink` means the terminal).
    pub dst: VertexRef,
}

/// The topology the terminal has extracted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconstructedTopology {
    /// All vertices: the root, every labelled internal vertex, and the terminal.
    pub vertices: Vec<ReconVertex>,
    /// All edges.
    pub edges: Vec<ReconEdge>,
}

impl ReconstructedTopology {
    /// Builds the topology from a sorted record list plus the terminal's own
    /// in-degree. Both implementations funnel through this, so their
    /// extractions are structurally identical.
    fn from_records<'a>(
        records: impl IntoIterator<Item = &'a MapRecord>,
        terminal_in_degree: usize,
    ) -> Self {
        let mut vertices = vec![ReconVertex {
            reference: VertexRef::Root,
            in_degree: 0,
            out_degree: 1,
        }];
        let mut edges = Vec::new();
        for record in records {
            match record {
                MapRecord::Vertex {
                    label,
                    in_degree,
                    out_degree,
                } => vertices.push(ReconVertex {
                    reference: VertexRef::Labeled(label.clone()),
                    in_degree: *in_degree,
                    out_degree: *out_degree,
                }),
                MapRecord::Edge { src, src_port, dst } => edges.push(ReconEdge {
                    src: src.clone(),
                    src_port: *src_port,
                    dst: dst.clone(),
                }),
            }
        }
        vertices.push(ReconVertex {
            reference: VertexRef::Sink,
            in_degree: terminal_in_degree,
            out_degree: 0,
        });
        ReconstructedTopology { vertices, edges }
    }

    /// Builds the topology from the terminal's final state (ids are resolved
    /// through the record table and sorted, so the result is independent of the
    /// delivery order in which the terminal learned them).
    pub fn from_terminal_state(state: &MappingState) -> Self {
        Self::from_records(&state.known_records(), state.in_degree)
    }

    /// Number of reconstructed vertices (including root and terminal).
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of reconstructed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Position of each vertex reference in [`ReconstructedTopology::vertices`];
    /// a repeated reference keeps its first position.
    fn vertex_positions(&self) -> HashMap<&VertexRef, usize> {
        let mut positions = HashMap::with_capacity(self.vertices.len());
        for (i, v) in self.vertices.iter().enumerate() {
            positions.entry(&v.reference).or_insert(i);
        }
        positions
    }

    /// Rebuilds the topology as a [`Network`] (vertex ids follow the order of
    /// [`ReconstructedTopology::vertices`], with the root first and the terminal
    /// last).
    ///
    /// # Errors
    ///
    /// Propagates [`anet_graph::NetworkError`] if the extracted data does not form
    /// a valid rooted network — which would indicate an incomplete extraction.
    pub fn to_network(&self) -> Result<Network, anet_graph::NetworkError> {
        let mut g = DiGraph::new();
        let ids: Vec<NodeId> = self.vertices.iter().map(|_| g.add_node()).collect();
        let positions = self.vertex_positions();
        let find = |r: &VertexRef| positions.get(r).copied();
        // Edges must be added in (source, port) order so the rebuilt graph has the
        // same port structure as the original.
        let mut ordered: Vec<&ReconEdge> = self.edges.iter().collect();
        ordered.sort_by_key(|e| (find(&e.src).unwrap_or(usize::MAX), e.src_port));
        for edge in ordered {
            let (Some(src), Some(dst)) = (find(&edge.src), find(&edge.dst)) else {
                return Err(anet_graph::NetworkError::InvalidParameter(
                    "edge record refers to an unknown vertex".to_owned(),
                ));
            };
            g.add_edge(ids[src], ids[dst]);
        }
        let root = ids[0];
        let terminal = *ids.last().expect("vertices always include the terminal");
        Network::new(g, root, terminal)
    }

    /// Checks that the reconstruction matches `network` *exactly*: same number of
    /// vertices and edges, and for every original edge `(u, v)` at out-port `p`
    /// there is a reconstructed edge between the correspondingly labelled vertices
    /// at the same port. `labels` maps original node ids to the labels assigned
    /// during the run (empty for the root).
    ///
    /// The reconstruction is indexed once — vertices by reference (a repeated
    /// reference answers with its first vertex), edges by
    /// `(src, port, dst)` — so the check is O(V + E) lookups rather than a
    /// scan of the reconstruction per original vertex and edge.
    pub fn matches_exactly(&self, network: &Network, labels: &[IntervalUnion]) -> bool {
        if self.vertex_count() != network.node_count() {
            return false;
        }
        if self.edge_count() != network.edge_count() {
            return false;
        }
        let refer = |node: NodeId| -> Option<VertexRef> {
            if node == network.root() {
                Some(VertexRef::Root)
            } else if node == network.terminal() {
                Some(VertexRef::Sink)
            } else {
                labels[node.index()]
                    .first_interval()
                    .map(VertexRef::Labeled)
            }
        };
        let positions = self.vertex_positions();
        let edges: HashSet<(&VertexRef, usize, &VertexRef)> = self
            .edges
            .iter()
            .map(|e| (&e.src, e.src_port, &e.dst))
            .collect();
        let g = network.graph();
        for node in g.nodes() {
            let Some(node_ref) = refer(node) else {
                return false;
            };
            // Degree bookkeeping must match.
            let Some(&at) = positions.get(&node_ref) else {
                return false;
            };
            let found = &self.vertices[at];
            if found.out_degree != g.out_degree(node) || found.in_degree != g.in_degree(node) {
                return false;
            }
            // Every out-edge must be present with the right port and destination.
            for (port, &edge) in g.out_edges(node).iter().enumerate() {
                let Some(dst_ref) = refer(g.edge_dst(edge)) else {
                    return false;
                };
                if !edges.contains(&(&node_ref, port, &dst_ref)) {
                    return false;
                }
            }
        }
        true
    }
}

/// Applies a [`StateCorruption`](crate::corruption::StateCorruption) to
/// freshly initialised mapping states, before the first delivery (the
/// [`anet_sim::run_corrupted`] hook).
///
/// Interpretation in the mapping state space:
///
/// * `ScrambledLabels` — every internal vertex (neither root nor terminal)
///   wakes up already `partitioned` with a garbage, pairwise-distinct dyadic
///   label. Because `was_labeled` holds from the start, the vertex never
///   publishes its vertex record, so the terminal's structural check cannot
///   complete against the scrambled identities.
/// * `LostPartition` — internal vertices keep `partitioned` (and `received`)
///   but lost the label and the α routing state the flag guards; the one-time
///   partition step never re-runs, announcements buffer forever.
/// * `StaleTerminal` — the terminal's [`TerminalView`] starts claiming the
///   root edge and `[0, 1/2)` of records coverage it never received, so
///   [`MappingState::map_complete`] can accept on fabricated evidence.
///
/// All corruptions stay inside the protocol's representable envelope — no
/// corrupted run can panic; it merely ends in an outcome whose
/// [`mapping_recovered`] verdict is honest.
pub fn corrupt_mapping_states(
    corruption: &crate::corruption::StateCorruption,
    network: &Network,
    states: &mut [MappingState],
) {
    use crate::corruption::StateCorruption;
    match corruption {
        StateCorruption::ScrambledLabels { seed } => {
            let labels = crate::corruption::scrambled_labels(network.internal_count(), *seed);
            for (node, label) in network.internal_nodes().zip(labels) {
                let state = &mut states[node.index()];
                state.label = label;
                state.mass.partitioned = true;
                state.received = true;
            }
        }
        StateCorruption::LostPartition => {
            for node in network.internal_nodes() {
                let state = &mut states[node.index()];
                state.mass.partitioned = true;
                state.received = true;
            }
        }
        StateCorruption::StaleTerminal => {
            let terminal = network.terminal().index();
            let view = states[terminal]
                .terminal_view
                .as_mut()
                .expect("the terminal has out-degree zero and keeps a view");
            view.root_edge_known = true;
            view.records_coverage = crate::corruption::stale_half();
        }
    }
}

/// The mapping protocol's recovery predicate: the terminal's extracted
/// topology matches the real network exactly, edge for edge and port for
/// port. This is the success check every sweep record reports as `ok`
/// (conjoined with termination); corrupted-start runs ask it of a protocol
/// that began from damaged state.
pub fn mapping_recovered(network: &Network, states: &[MappingState]) -> bool {
    // Label clones are O(1) shared handles of the states' endpoint buffers
    // (CoW `IntervalUnion`), not per-node deep copies.
    let labels: Vec<IntervalUnion> = states.iter().map(|s| s.label.clone()).collect();
    ReconstructedTopology::from_terminal_state(&states[network.terminal().index()])
        .matches_exactly(network, &labels)
}

/// The distilled outcome of a mapping run.
#[derive(Debug, Clone)]
pub struct MappingReport {
    /// Whether the terminal declared termination.
    pub terminated: bool,
    /// Whether the run quiesced without terminating.
    pub quiescent: bool,
    /// The topology extracted at the terminal (present on termination).
    pub topology: Option<ReconstructedTopology>,
    /// Labels assigned during the run, indexed by node id.
    pub labels: Vec<IntervalUnion>,
    /// Communication metrics of the run.
    pub metrics: RunMetrics,
}

impl MappingReport {
    /// Whether the extracted topology reproduces `network` exactly.
    pub fn reconstruction_is_exact(&self, network: &Network) -> bool {
        self.topology
            .as_ref()
            .map(|topo| topo.matches_exactly(network, &self.labels))
            .unwrap_or(false)
    }
}

/// Runs the topology-mapping protocol and reports the extracted topology.
///
/// # Errors
///
/// Returns [`CoreError::BudgetExhausted`] if the engine's delivery budget ran out.
///
/// # Example
///
/// ```
/// use anet_core::mapping::run_mapping;
/// use anet_graph::generators::cycle_with_tail;
/// use anet_sim::scheduler::FifoScheduler;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let network = cycle_with_tail(4)?;
/// let report = run_mapping(&network, &mut FifoScheduler::new())?;
/// assert!(report.terminated);
/// assert!(report.reconstruction_is_exact(&network));
/// # Ok(())
/// # }
/// ```
pub fn run_mapping(
    network: &Network,
    scheduler: &mut (impl Scheduler + ?Sized),
) -> Result<MappingReport, CoreError> {
    run_mapping_with_config(network, scheduler, ExecutionConfig::default())
}

/// [`run_mapping`] with an explicit engine configuration.
///
/// # Errors
///
/// Returns [`CoreError::BudgetExhausted`] if the delivery budget ran out.
pub fn run_mapping_with_config(
    network: &Network,
    scheduler: &mut (impl Scheduler + ?Sized),
    config: ExecutionConfig,
) -> Result<MappingReport, CoreError> {
    let protocol = Mapping::new();
    let result = run(network, &protocol, scheduler, config);
    if result.outcome == anet_sim::Outcome::BudgetExhausted {
        return Err(CoreError::BudgetExhausted);
    }
    let labels: Vec<IntervalUnion> = result.states.iter().map(|st| st.label.clone()).collect();
    let terminated = result.outcome == anet_sim::Outcome::Terminated;
    let topology = terminated.then(|| {
        ReconstructedTopology::from_terminal_state(&result.states[network.terminal().index()])
    });
    Ok(MappingReport {
        terminated,
        quiescent: result.outcome == anet_sim::Outcome::Quiescent,
        topology,
        labels,
        metrics: result.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::generators::{
        chain_gn, complete_dag, cycle_with_tail, diamond_stack, full_grounded_tree, nested_cycles,
        path_network, random_cyclic, random_dag, star_network, with_stranded_vertex,
    };
    use anet_sim::runner::run_under_battery;
    use anet_sim::scheduler::FifoScheduler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fifo() -> FifoScheduler {
        FifoScheduler::new()
    }

    #[test]
    fn mapping_reconstructs_simple_families_exactly() {
        let nets = vec![
            path_network(4).unwrap(),
            chain_gn(5).unwrap(),
            star_network(4).unwrap(),
            full_grounded_tree(2, 3).unwrap(),
            diamond_stack(3).unwrap(),
            complete_dag(5).unwrap(),
        ];
        for net in &nets {
            let report = run_mapping(net, &mut fifo()).unwrap();
            assert!(report.terminated, "nodes = {}", net.node_count());
            assert!(
                report.reconstruction_is_exact(net),
                "reconstruction mismatch for {} nodes",
                net.node_count()
            );
        }
    }

    #[test]
    fn mapping_reconstructs_cyclic_families_exactly() {
        let mut rng = StdRng::seed_from_u64(321);
        let nets = vec![
            cycle_with_tail(3).unwrap(),
            cycle_with_tail(8).unwrap(),
            nested_cycles(2, 3).unwrap(),
            random_cyclic(&mut rng, 12, 0.15, 0.2).unwrap(),
            random_dag(&mut rng, 15, 0.2).unwrap(),
        ];
        for net in &nets {
            let report = run_mapping(net, &mut fifo()).unwrap();
            assert!(report.terminated, "nodes = {}", net.node_count());
            assert!(
                report.reconstruction_is_exact(net),
                "reconstruction mismatch for {} nodes",
                net.node_count()
            );
        }
    }

    #[test]
    fn mapping_refuses_to_terminate_with_stranded_vertex() {
        let base = cycle_with_tail(4).unwrap();
        let net = with_stranded_vertex(&base).unwrap();
        let report = run_mapping(&net, &mut fifo()).unwrap();
        assert!(!report.terminated);
        assert!(report.quiescent);
        assert!(report.topology.is_none());
    }

    #[test]
    fn mapping_is_exact_under_every_scheduler() {
        let mut rng = StdRng::seed_from_u64(55);
        let net = random_cyclic(&mut rng, 10, 0.2, 0.25).unwrap();
        let protocol = Mapping::new();
        for named in run_under_battery(&net, &protocol, ExecutionConfig::default(), 6, 4) {
            assert!(
                named.result.outcome.terminated(),
                "sched {}",
                named.scheduler
            );
            let labels: Vec<IntervalUnion> = named
                .result
                .states
                .iter()
                .map(|st| st.label.clone())
                .collect();
            let topo = ReconstructedTopology::from_terminal_state(
                &named.result.states[net.terminal().index()],
            );
            assert!(
                topo.matches_exactly(&net, &labels),
                "scheduler {} produced a wrong map",
                named.scheduler
            );
        }
    }

    #[test]
    fn reconstructed_network_is_a_valid_network_with_matching_counts() {
        let net = nested_cycles(2, 4).unwrap();
        let report = run_mapping(&net, &mut fifo()).unwrap();
        let topo = report.topology.as_ref().unwrap();
        assert_eq!(topo.vertex_count(), net.node_count());
        assert_eq!(topo.edge_count(), net.edge_count());
        let rebuilt = topo.to_network().unwrap();
        assert_eq!(rebuilt.node_count(), net.node_count());
        assert_eq!(rebuilt.edge_count(), net.edge_count());
        assert_eq!(rebuilt.max_out_degree(), net.max_out_degree());
    }

    #[test]
    fn record_wire_sizes_are_positive_and_scale_with_label_size() {
        let small = MapRecord::Vertex {
            label: Interval::unit(),
            in_degree: 1,
            out_degree: 1,
        };
        let nested = Interval::unit().split(8).unwrap()[5].split(8).unwrap()[3].clone();
        let big = MapRecord::Vertex {
            label: nested,
            in_degree: 1,
            out_degree: 1,
        };
        assert!(small.wire_bits() > 0);
        assert!(big.wire_bits() > small.wire_bits());
        let edge = MapRecord::Edge {
            src: VertexRef::Root,
            src_port: 0,
            dst: VertexRef::Sink,
        };
        assert!(edge.wire_bits() >= 5);
    }

    #[test]
    fn terminal_state_exposes_map_completeness_incrementally() {
        // Before any delivery the terminal obviously has no map.
        let protocol = Mapping::new();
        let ctx = NodeContext::new(2, 0);
        let state = protocol.initial_state(&ctx);
        assert!(!state.map_complete());
        assert!(!protocol.should_terminate(&state));
        let view = state.terminal_view().expect("sinks maintain the index");
        assert!(!view.root_edge_known());
        assert_eq!(view.missing_ports(), 0);
        assert_eq!(view.dangling_edges(), 0);
        assert!(!view.structurally_complete());
    }

    #[test]
    fn terminal_view_counters_track_known_records() {
        let net = cycle_with_tail(5).unwrap();
        let report = run_mapping(&net, &mut fifo()).unwrap();
        assert!(report.terminated);
        // Re-run keeping the raw states to inspect the terminal's view.
        let protocol = Mapping::new();
        let result = run(&net, &protocol, &mut fifo(), ExecutionConfig::default());
        let terminal = &result.states[net.terminal().index()];
        let view = terminal.terminal_view().expect("terminal keeps the index");
        assert!(view.structurally_complete());
        assert!(view.root_edge_known());
        assert_eq!(view.missing_ports(), 0);
        assert_eq!(view.dangling_edges(), 0);
        assert!(terminal.coverage().is_unit());
        // The indexed predicate agrees with a from-scratch scan of the records.
        let records = terminal.known_records();
        let edge_count = records
            .iter()
            .filter(|r| matches!(r, MapRecord::Edge { .. }))
            .count();
        assert_eq!(edge_count, net.edge_count());
    }

    fn half(k: u64) -> IntervalUnion {
        IntervalUnion::from(Interval::from_dyadic_parts(k, k + 1, 1).unwrap())
    }

    fn echo(beta: IntervalUnion) -> MappingMessage {
        MappingMessage::echo(beta, MappingMessage::no_records())
    }

    /// A vertex of in-degree 1 and out-degree 2 that took its label from a
    /// message with α = [0, 1/2) and β = [1/2, 1), and the protocol value.
    fn labeled_vertex() -> (Mapping, NodeContext, MappingState) {
        let protocol = Mapping::new();
        let ctx = NodeContext::new(1, 2);
        let mut state = protocol.initial_state(&ctx);
        let first = MappingMessage {
            alpha: half(0),
            beta: half(1),
            announce: Some(Announce {
                src: VertexRef::Root,
                src_port: 0,
            }),
            records: MappingMessage::no_records(),
        };
        let mut out = Vec::new();
        protocol.on_receive_into(&ctx, &mut state, 0, &first, &mut out);
        assert!(state.is_labeled());
        assert_eq!(out.len(), 2);
        (protocol, ctx, state)
    }

    /// The state a delivery can change, for before/after comparisons.
    fn snapshot(
        state: &MappingState,
    ) -> (
        IntervalUnion,
        Vec<IntervalUnion>,
        IntervalUnion,
        Vec<RecordId>,
        usize,
    ) {
        (
            state.label.clone(),
            state.mass.alpha.clone(),
            state.mass.beta.clone(),
            state.known.iter().collect(),
            state.pending_announces.len(),
        )
    }

    /// The re-flood frontier: an unlabelled vertex that knows no record sends
    /// nothing on a port whose α and β are both empty, and that port's α and
    /// the whole β on every other port; a labelled vertex re-announces on
    /// every port, with every record it knows; a sink sends nothing.
    #[test]
    fn reflood_resends_each_ports_alpha_the_whole_beta_and_every_record() {
        let protocol = Mapping::new();
        let ctx = NodeContext::new(1, 3);
        let mut state = protocol.initial_state(&ctx);
        assert!(protocol.reflood(&ctx, &state).is_empty());
        state.mass.alpha[1] = half(0);
        let alpha_only = MappingMessage {
            alpha: half(0),
            ..echo(IntervalUnion::empty())
        };
        assert_eq!(protocol.reflood(&ctx, &state), vec![(1, alpha_only)]);
        state.mass.beta = half(1);
        let frontier = protocol.reflood(&ctx, &state);
        let alphas: Vec<(usize, IntervalUnion)> = frontier
            .iter()
            .map(|(port, message)| (*port, message.alpha.clone()))
            .collect();
        let empty = IntervalUnion::empty();
        assert_eq!(alphas, vec![(0, empty.clone()), (1, half(0)), (2, empty)]);
        for (_, message) in &frontier {
            assert_eq!(message.beta, half(1));
            assert!(message.announce.is_none() && message.records.is_empty());
        }

        let (protocol, ctx, state) = labeled_vertex();
        let known = state.known_records();
        assert_eq!(known.len(), 2, "the vertex record and the root's edge");
        let known_bits = bits::elias_gamma_bits(known.len() as u64)
            + known.iter().map(MapRecord::wire_bits).sum::<u64>();
        let frontier = protocol.reflood(&ctx, &state);
        assert_eq!(frontier.len(), ctx.out_degree);
        for (j, (port, message)) in frontier.iter().enumerate() {
            assert_eq!(*port, j);
            assert_eq!(message.alpha, state.mass.alpha[j]);
            assert_eq!(message.beta, state.mass.beta);
            let announce = Announce {
                src: state.own_ref(),
                src_port: j,
            };
            assert_eq!(message.announce, Some(announce));
            assert_eq!(protocol.resolve_records(message.records.items()), known);
            assert_eq!(message.records.encoded_bits(), known_bits);
        }

        let sink = NodeContext::new(2, 0);
        let mut terminal = protocol.initial_state(&sink);
        terminal.label = half(0);
        terminal.mass.beta = half(1);
        let id = protocol.table.lock().unwrap().intern(&known[0]);
        terminal.known.insert(id);
        assert!(protocol.reflood(&sink, &terminal).is_empty());
    }

    /// A bare β echo of held evidence emits nothing, changes nothing and
    /// never takes the record table's lock: it still returns with the lock
    /// poisoned, which makes every locking path panic.
    #[test]
    fn beta_echo_of_held_evidence_is_silent_and_lock_free() {
        let (protocol, ctx, mut state) = labeled_vertex();
        let table = Arc::clone(&protocol.table);
        let _ = std::thread::spawn(move || {
            let _guard = table.lock().unwrap();
            panic!("poisoning the record table");
        })
        .join();
        assert!(protocol.table.is_poisoned());
        let mut out = Vec::new();
        for beta in [
            state.mass.beta.clone(),
            state.mass.beta.deep_clone(),
            IntervalUnion::empty(),
        ] {
            let before = snapshot(&state);
            protocol.on_receive_into(&ctx, &mut state, 0, &echo(beta), &mut out);
            assert!(out.is_empty(), "an echo of held β was forwarded");
            assert_eq!(snapshot(&state), before);
        }
        // New β is flooded, once for every out-port, still without the
        // table: the part the vertex lacks, and the sender's own buffer when
        // it holds none.
        for (beta, shared) in [(IntervalUnion::unit(), false), (half(0), true)] {
            state.mass.beta = half(1);
            out.clear();
            let message = echo(beta);
            protocol.on_receive_into(&ctx, &mut state, 0, &message, &mut out);
            assert_eq!(out, vec![(OutPort::All, echo(half(0)))]);
            assert_eq!(out[0].1.beta.shares_storage_with(&message.beta), shared);
            assert!(state.mass.beta.is_unit());
        }
    }

    /// An α-empty message of held β that carries an announcement or records
    /// still absorbs them and floods what is new.
    #[test]
    fn beta_echo_carrying_records_or_an_announcement_is_absorbed() {
        let (protocol, ctx, mut state) = labeled_vertex();
        let mut out = Vec::new();
        let announce = Announce {
            src: VertexRef::Labeled(Interval::from_dyadic_parts(1, 2, 2).unwrap()),
            src_port: 3,
        };
        let known_before = state.known.len();
        let message = MappingMessage {
            announce: Some(announce.clone()),
            ..echo(state.mass.beta.clone())
        };
        protocol.on_receive_into(&ctx, &mut state, 0, &message, &mut out);
        let edge = MapRecord::Edge {
            src: announce.src,
            src_port: announce.src_port,
            dst: state.own_ref(),
        };
        let flooded = protocol.resolve_records(out[0].1.records.items());
        assert_eq!(flooded, vec![edge.clone()]);
        assert_eq!(state.known.len(), known_before + 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, OutPort::All);
        assert!(out[0].1.alpha.is_empty() && out[0].1.beta.is_empty());

        // A record learned from upstream is absorbed and flooded on; one the
        // vertex already knows is not flooded again.
        let record = MapRecord::Vertex {
            label: Interval::from_dyadic_parts(3, 4, 3).unwrap(),
            in_degree: 2,
            out_degree: 1,
        };
        let (id, bits) = {
            let mut table = protocol.table.lock().unwrap();
            let id = table.intern(&record);
            (id, table.bits_of(id))
        };
        let carried = MappingMessage {
            records: SharedSlice::new(vec![id], bits::elias_gamma_bits(1) + bits),
            ..echo(state.mass.beta.clone())
        };
        out.clear();
        protocol.on_receive_into(&ctx, &mut state, 0, &carried, &mut out);
        assert!(state.known.contains(id));
        let onward = MappingMessage {
            records: carried.records.clone(),
            ..echo(IntervalUnion::empty())
        };
        assert_eq!(out, vec![(OutPort::All, onward)]);
        out.clear();
        let before = snapshot(&state);
        protocol.on_receive_into(&ctx, &mut state, 0, &carried, &mut out);
        assert!(out.is_empty());
        assert_eq!(snapshot(&state), before);
    }

    #[test]
    fn shared_record_slices_are_cheap_to_clone() {
        // The same Arc backs every out-port's batch: equal contents, equal bits.
        let a = MappingMessage {
            alpha: IntervalUnion::empty(),
            beta: IntervalUnion::empty(),
            announce: None,
            records: SharedSlice::new(vec![0, 1, 2], 42),
        };
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.wire_bits(), b.wire_bits());
        // records bits dominate: alpha/beta empty unions plus presence bit.
        assert_eq!(
            a.wire_bits(),
            IntervalUnion::empty().wire_bits() * 2 + 1 + 42
        );
    }
}
