//! The retained owned-record mapping implementation.
//!
//! This is the original Section 6 protocol exactly as first written: `known`
//! and `sent` are `BTreeSet<MapRecord>`s of owned records, the per-activation
//! "what's new" diff is a value-set difference, and every out-port clones the
//! `new_records` vector. It is kept — mirroring `anet_num::reference` and
//! `anet_sim::reference` — as the specification the interned implementation in
//! [the parent module](super) must match bit-for-bit: the
//! `mapping_differential` suite runs both across the scheduler battery and
//! asserts identical traces, metrics, wire-bit totals and extracted
//! topologies, and `BENCH_mapping.json` measures the speedup.
//!
//! One deliberate deviation from the first version: the terminal's validity
//! checks in [`MappingState::map_complete`] index `known` by vertex label in a
//! single pass instead of re-scanning the whole set with `iter().any` per
//! record — the original O(|known|²) evaluation made the *stopping predicate*,
//! not the flooding, the bottleneck on record-heavy topologies. The predicate
//! is semantically unchanged (a test pins it against the original wording).

use std::collections::{BTreeSet, HashMap, HashSet};

use anet_graph::Network;
use anet_num::bits;
use anet_num::partition::canonical_partition_nonempty;
use anet_num::{Interval, IntervalUnion};
use anet_sim::engine::{run, ExecutionConfig};
use anet_sim::scheduler::Scheduler;
use anet_sim::{AnonymousProtocol, NodeContext, Wire};

use super::{Announce, MapRecord, MappingReport, ReconstructedTopology, VertexRef};
use crate::CoreError;

/// A message of the reference mapping protocol: records travel as owned values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingMessage {
    /// Newly forwarded interval mass (labelling core).
    pub alpha: IntervalUnion,
    /// Newly discovered cycle evidence (labelling core).
    pub beta: IntervalUnion,
    /// Edge-specific announcement, sent once per out-edge when the sender claims
    /// its label (or by the root at start-up).
    pub announce: Option<Announce>,
    /// Newly learned records being flooded.
    pub records: Vec<MapRecord>,
}

impl Wire for MappingMessage {
    fn wire_bits(&self) -> u64 {
        self.alpha.wire_bits()
            + self.beta.wire_bits()
            + 1
            + self.announce.as_ref().map_or(0, Announce::wire_bits)
            + bits::elias_gamma_bits(self.records.len() as u64)
            + self.records.iter().map(MapRecord::wire_bits).sum::<u64>()
    }
}

/// Per-vertex state of the reference mapping protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingState {
    /// The vertex's claimed label (labelling core).
    pub label: IntervalUnion,
    /// Interval mass routed per out-port (labelling core).
    pub alpha: Vec<IntervalUnion>,
    /// Cycle evidence (labelling core).
    pub beta: IntervalUnion,
    /// Whether the one-time partition happened.
    pub partitioned: bool,
    /// Whether any message was received.
    pub received: bool,
    /// Records this vertex knows about (flooded plus self-created).
    pub known: BTreeSet<MapRecord>,
    /// Records already flooded on the out-ports.
    pub sent: BTreeSet<MapRecord>,
    /// Announcements received before this vertex had a label.
    pub pending_announces: Vec<Announce>,
    /// This vertex's own degrees (recorded for report extraction).
    pub in_degree: usize,
    /// See [`MappingState::in_degree`].
    pub out_degree: usize,
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

    /// The coverage the terminal checks: known labels ∪ own label ∪ β ∪ routed α.
    pub fn coverage(&self) -> IntervalUnion {
        let mut cov = self.label.union(&self.beta);
        for routed in &self.alpha {
            cov.union_in_place(routed);
        }
        for record in &self.known {
            if let MapRecord::Vertex { label, .. } = record {
                cov.union_in_place(&IntervalUnion::from(label.clone()));
            }
        }
        cov
    }

    /// The full termination condition evaluated by the terminal.
    ///
    /// One pass over `known` builds a label index (vertex out-degrees and the
    /// set of covered `(label, port)` pairs); the validity conditions are then
    /// hash lookups, making the whole predicate O(|known|) instead of the
    /// original nested-scan O(|known|²).
    pub fn map_complete(&self) -> bool {
        if !self.coverage().is_unit() {
            return false;
        }
        let mut root_edge_known = false;
        let mut vertex_out: HashMap<&Interval, usize> = HashMap::new();
        let mut ports: HashSet<(&Interval, usize)> = HashSet::new();
        for record in &self.known {
            match record {
                MapRecord::Vertex {
                    label, out_degree, ..
                } => {
                    vertex_out.insert(label, *out_degree);
                }
                MapRecord::Edge { src, src_port, .. } => match src {
                    VertexRef::Root => root_edge_known |= *src_port == 0,
                    VertexRef::Sink => {}
                    VertexRef::Labeled(l) => {
                        ports.insert((l, *src_port));
                    }
                },
            }
        }
        if !root_edge_known {
            return false;
        }
        // Every known vertex must have all its out-ports accounted for, and every
        // edge destination must be known (or the terminal itself).
        for (label, out_degree) in &vertex_out {
            if !(0..*out_degree).all(|port| ports.contains(&(*label, port))) {
                return false;
            }
        }
        for record in &self.known {
            if let MapRecord::Edge {
                dst: VertexRef::Labeled(l),
                ..
            } = record
            {
                if !vertex_out.contains_key(l) {
                    return false;
                }
            }
        }
        true
    }

    /// Builds the extracted topology from this (terminal) state.
    pub fn extract_topology(&self) -> ReconstructedTopology {
        ReconstructedTopology::from_records(&self.known, self.in_degree)
    }
}

/// The reference topology-mapping protocol.
#[derive(Debug, Clone, Default)]
pub struct Mapping;

impl Mapping {
    /// Creates the protocol.
    pub fn new() -> Self {
        Mapping
    }
}

impl AnonymousProtocol for Mapping {
    type State = MappingState;
    type Message = MappingMessage;

    fn name(&self) -> &'static str {
        "topology-mapping-reference"
    }

    fn initial_state(&self, ctx: &NodeContext) -> MappingState {
        MappingState {
            label: IntervalUnion::empty(),
            alpha: vec![IntervalUnion::empty(); ctx.out_degree],
            beta: IntervalUnion::empty(),
            partitioned: false,
            received: false,
            known: BTreeSet::new(),
            sent: BTreeSet::new(),
            pending_announces: Vec::new(),
            in_degree: ctx.in_degree,
            out_degree: ctx.out_degree,
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
                records: Vec::new(),
            },
        )]
    }

    fn on_receive(
        &self,
        ctx: &NodeContext,
        state: &mut MappingState,
        _in_port: usize,
        message: &MappingMessage,
    ) -> Vec<(usize, MappingMessage)> {
        state.received = true;
        let d = ctx.out_degree;

        // 1. Absorb flooded records.
        for record in &message.records {
            state.known.insert(record.clone());
        }

        // 2. Labelling core (note: labels are *not* folded into β here; the vertex
        //    record carries them instead). As in `general_broadcast`, the per-port
        //    α increments and the β increment are computed *before* the state is
        //    updated, so no `old_alpha`/`old_beta` snapshots are cloned.
        let was_labeled = state.is_labeled();
        let mut alpha_deltas: Vec<IntervalUnion> = vec![IntervalUnion::empty(); d];
        let mut beta_delta = IntervalUnion::empty();

        if d == 0 {
            state.label.union_in_place(&message.alpha);
            state.beta.union_in_place(&message.beta);
        } else if !state.partitioned && !message.alpha.is_empty() {
            state.partitioned = true;
            let parts =
                canonical_partition_nonempty(&message.alpha, d + 1).expect("d + 1 >= 2 parts");
            let mut parts = parts.into_iter();
            state.label = parts.next().expect("partition has d + 1 parts");
            beta_delta = message.beta.clone();
            beta_delta.subtract_assign(&state.beta);
            state.beta.union_in_place(&beta_delta);
            for (j, part) in parts.enumerate() {
                debug_assert!(state.alpha[j].is_empty());
                state.alpha[j] = part.clone();
                alpha_deltas[j] = part;
            }
        } else {
            let mut overlap = message.alpha.intersection(&state.label);
            for routed in &state.alpha {
                overlap.union_in_place(&message.alpha.intersection(routed));
            }
            let mut fresh = message.alpha.clone();
            for routed in &state.alpha[..d - 1] {
                fresh.subtract_assign(routed);
            }
            fresh.subtract_assign(&state.alpha[d - 1]);
            beta_delta = message.beta.union(&overlap);
            beta_delta.subtract_assign(&state.beta);
            state.beta.union_in_place(&beta_delta);
            state.alpha[d - 1].union_in_place(&fresh);
            alpha_deltas[d - 1] = fresh;
        }

        let just_labeled = !was_labeled && state.is_labeled();

        // 3. Handle the edge announcement carried by this message.
        if let Some(announce) = &message.announce {
            if state.is_labeled() || d == 0 {
                state.known.insert(MapRecord::Edge {
                    src: announce.src.clone(),
                    src_port: announce.src_port,
                    dst: state.own_ref(),
                });
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
            state.known.insert(MapRecord::Vertex {
                label: own_label,
                in_degree: ctx.in_degree,
                out_degree: d,
            });
            let pending = std::mem::take(&mut state.pending_announces);
            for announce in pending {
                state.known.insert(MapRecord::Edge {
                    src: announce.src,
                    src_port: announce.src_port,
                    dst: state.own_ref(),
                });
            }
        }

        if d == 0 {
            return Vec::new();
        }

        // 5. Compose per-port outgoing messages.
        let new_records: Vec<MapRecord> = state.known.difference(&state.sent).cloned().collect();
        for record in &new_records {
            state.sent.insert(record.clone());
        }
        let mut out = Vec::new();
        for (j, alpha_delta) in alpha_deltas.into_iter().enumerate() {
            let announce = if just_labeled {
                Some(Announce {
                    src: state.own_ref(),
                    src_port: j,
                })
            } else {
                None
            };
            if !alpha_delta.is_empty()
                || !beta_delta.is_empty()
                || announce.is_some()
                || !new_records.is_empty()
            {
                out.push((
                    j,
                    MappingMessage {
                        alpha: alpha_delta,
                        beta: beta_delta.clone(),
                        announce,
                        records: new_records.clone(),
                    },
                ));
            }
        }
        out
    }

    fn should_terminate(&self, terminal_state: &MappingState) -> bool {
        terminal_state.map_complete()
    }
}

/// Runs the reference mapping protocol and reports the extracted topology.
///
/// # Errors
///
/// Returns [`CoreError::BudgetExhausted`] if the engine's delivery budget ran out.
pub fn run_mapping(
    network: &Network,
    scheduler: &mut (impl Scheduler + ?Sized),
) -> Result<MappingReport, CoreError> {
    let protocol = Mapping::new();
    let result = run(network, &protocol, scheduler, ExecutionConfig::default());
    if result.outcome == anet_sim::Outcome::BudgetExhausted {
        return Err(CoreError::BudgetExhausted);
    }
    let labels: Vec<IntervalUnion> = result.states.iter().map(|st| st.label.clone()).collect();
    let terminated = result.outcome == anet_sim::Outcome::Terminated;
    let topology = terminated.then(|| result.states[network.terminal().index()].extract_topology());
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
        chain_gn, complete_dag, cycle_with_tail, nested_cycles, path_network, random_cyclic,
        with_stranded_vertex,
    };
    use anet_sim::runner::run_under_battery;
    use anet_sim::scheduler::FifoScheduler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fifo() -> FifoScheduler {
        FifoScheduler::new()
    }

    #[test]
    fn reference_mapping_reconstructs_named_families_exactly() {
        let mut rng = StdRng::seed_from_u64(321);
        let nets = vec![
            path_network(4).unwrap(),
            chain_gn(5).unwrap(),
            complete_dag(5).unwrap(),
            cycle_with_tail(8).unwrap(),
            nested_cycles(2, 3).unwrap(),
            random_cyclic(&mut rng, 12, 0.15, 0.2).unwrap(),
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
    fn reference_mapping_refuses_to_terminate_with_stranded_vertex() {
        let base = cycle_with_tail(4).unwrap();
        let net = with_stranded_vertex(&base).unwrap();
        let report = run_mapping(&net, &mut fifo()).unwrap();
        assert!(!report.terminated);
        assert!(report.quiescent);
        assert!(report.topology.is_none());
    }

    #[test]
    fn reference_mapping_is_exact_under_every_scheduler() {
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
            let topo = named.result.states[net.terminal().index()].extract_topology();
            assert!(
                topo.matches_exactly(&net, &labels),
                "scheduler {} produced a wrong map",
                named.scheduler
            );
        }
    }

    #[test]
    fn linear_map_complete_agrees_with_a_naive_rescan() {
        // Pin the indexed predicate against the original nested-scan wording.
        fn naive_map_complete(state: &MappingState) -> bool {
            if !state.coverage().is_unit() {
                return false;
            }
            let root_edge_known = state.known.iter().any(|r| {
                matches!(
                    r,
                    MapRecord::Edge {
                        src: VertexRef::Root,
                        src_port: 0,
                        ..
                    }
                )
            });
            if !root_edge_known {
                return false;
            }
            for record in &state.known {
                match record {
                    MapRecord::Vertex {
                        label, out_degree, ..
                    } => {
                        for port in 0..*out_degree {
                            let found = state.known.iter().any(|r| {
                                matches!(r, MapRecord::Edge { src: VertexRef::Labeled(l), src_port, .. }
                                    if l == label && *src_port == port)
                            });
                            if !found {
                                return false;
                            }
                        }
                    }
                    MapRecord::Edge { dst, .. } => match dst {
                        VertexRef::Sink | VertexRef::Root => {}
                        VertexRef::Labeled(l) => {
                            let known_vertex = state.known.iter().any(
                                |r| matches!(r, MapRecord::Vertex { label, .. } if label == l),
                            );
                            if !known_vertex {
                                return false;
                            }
                        }
                    },
                }
            }
            true
        }

        let mut rng = StdRng::seed_from_u64(9);
        let nets = vec![
            cycle_with_tail(6).unwrap(),
            random_cyclic(&mut rng, 10, 0.2, 0.2).unwrap(),
        ];
        for net in &nets {
            // Compare the predicates on the terminal state after run prefixes of
            // growing length (shrinking the delivery budget stops the run early).
            for budget in [1u64, 3, 7, 15, 40, u64::MAX] {
                let config = ExecutionConfig {
                    max_deliveries: budget,
                    record_trace: false,
                };
                let result = run(net, &Mapping::new(), &mut fifo(), config);
                let terminal = &result.states[net.terminal().index()];
                assert_eq!(
                    terminal.map_complete(),
                    naive_map_complete(terminal),
                    "budget {budget}"
                );
            }
        }
    }
}
