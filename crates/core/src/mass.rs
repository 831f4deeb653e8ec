//! The interval-mass rule of Sections 4–6, shared by [`general_broadcast`],
//! [`labeling`] and [`mapping`].
//!
//! A vertex with out-degree `d > 0` keeps a [`MassState`]: `α_j`, the
//! interval mass it routed to out-port `j`, and `β`, the cycle evidence it
//! knows. On every delivery of `(α', β')`:
//!
//! * the first non-empty `α'` is split once by the non-starving canonical
//!   partition ([`canonical_partition_nonempty`]) and part `j` goes to
//!   out-port `j`;
//! * any later `α'` is compared with what the vertex already holds: mass it
//!   routed (or claimed) before is cycle evidence and joins the β increment,
//!   and the rest, the *fresh* mass, goes to out-port `d − 1`;
//! * the β increment `β' \ β` (with that overlap) is sent on every out-port.
//!
//! Port `j` gets a message exactly when its α increment or the β increment
//! is non-empty, or when the protocol has something of its own to send
//! there.
//!
//! The three protocols differ only in what a vertex **claims** at its
//! partition step, a per-protocol constant (`Claim`): general broadcast
//! claims nothing and splits into `d` parts; labeling keeps part 0 of
//! `d + 1` as its label and folds it into β, so the terminal's coverage
//! still reaches `[0, 1)`; mapping keeps part 0 of `d + 1` out of β,
//! because its vertex record carries the label to the terminal instead.
//! Once claimed, the label is held mass like any routed `α_j`: it joins the
//! overlap and is never fresh. Pristine traffic never carries it back as α
//! (labeling folds it into β; mapping sends it in a record), but a
//! re-flooded frontier re-delivers the α batch it was carved from, and
//! routing the claimed part on would give the same mass two labels.
//!
//! What a protocol sends besides the mass (the payload, records and
//! announcements) rides along in the message it builds from each
//! increment, and vertices of out-degree zero keep their own state (the
//! terminal's coverage, its label, its record table): neither is this
//! module's business.
//!
//! # The echo path
//!
//! β floods every piece of cycle evidence (and, in labeling, every claimed
//! label) to every vertex downstream, so on cyclic networks most deliveries
//! are *echoes*: an empty α and a β the receiver mostly or wholly holds
//! already. An empty α routes nothing, so `route` answers it with no
//! overlap or fresh-mass work: one allocation-free test `β' ⊆ β`, which ends
//! the delivery with no clone, merge or emission when it holds. Otherwise
//! the increment `β' \ β` is carved in place from an O(1) clone of `β'`, so
//! a `β'` the vertex holds none of stays the sender's buffer.
//!
//! Whenever no out-port gets fresh mass (an echo, or a later α that is all
//! overlap), every port carries the same message, and it is emitted once,
//! to [`OutPort::All`]: the engine stores that one message and queues it on
//! every out-port in port order, the same sends, sequence numbers and wire
//! bits as the per-port messages of the rule above. The protocols'
//! retained `reference` modules still emit per port, so their differential
//! suites check each flood against its per-port form.
//!
//! In mapping, a delivery that interns nothing (no record id the vertex
//! lacks, no announcement to record, no label claimed) cannot touch the
//! record table, so the protocol answers it before taking the table's lock,
//! at sinks too.
//!
//! [`general_broadcast`]: crate::general_broadcast
//! [`labeling`]: crate::labeling
//! [`mapping`]: crate::mapping

use anet_num::partition::canonical_partition_nonempty;
use anet_num::IntervalUnion;
use anet_sim::OutPort;

/// A vertex's interval mass, `π = ((α_j)_{j<d}, β)`, and whether its
/// one-time partition happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MassState {
    /// `α_j`: the interval mass already routed to out-port `j`.
    pub alpha: Vec<IntervalUnion>,
    /// `β`: cycle evidence known to this vertex.
    pub beta: IntervalUnion,
    /// Whether the one-time canonical partition has been performed.
    pub partitioned: bool,
}

impl MassState {
    /// The mass of a vertex with `out_degree` out-ports before any delivery.
    pub(crate) fn new(out_degree: usize) -> Self {
        MassState {
            alpha: vec![IntervalUnion::empty(); out_degree],
            beta: IntervalUnion::empty(),
            partitioned: false,
        }
    }

    /// The re-flood frontier ([`anet_sim::RefloodProtocol::reflood`]): on
    /// every out-port `j`, `message(j, α_j, β)`, everything this vertex has
    /// sent there. A port whose `α_j` and `β` are both empty is skipped
    /// unless `rides` says the protocol has something of its own to send.
    pub(crate) fn frontier<M>(
        &self,
        rides: bool,
        mut message: impl FnMut(usize, IntervalUnion, IntervalUnion) -> M,
    ) -> Vec<(usize, M)> {
        let mut out = Vec::new();
        for (j, alpha) in self.alpha.iter().enumerate() {
            if !alpha.is_empty() || !self.beta.is_empty() || rides {
                out.push((j, message(j, alpha.clone(), self.beta.clone())));
            }
        }
        out
    }
}

/// What a vertex keeps for itself at its partition step, with the label it
/// reads and writes. Each protocol passes the same variant on every
/// delivery.
pub(crate) enum Claim<'a> {
    /// General broadcast: the first α splits into `d` parts.
    Nothing,
    /// Labeling: part 0 of `d + 1` becomes the label and joins β.
    IntoBeta(&'a mut IntervalUnion),
    /// Mapping: part 0 of `d + 1` becomes the label and stays out of β.
    OutOfBeta(&'a mut IntervalUnion),
}

/// The α increments of one delivery.
enum Increments {
    /// The partition step's parts, one per out-port.
    Parts(Vec<IntervalUnion>),
    /// The fresh mass routed to out-port `d − 1`, possibly empty.
    Fresh(IntervalUnion),
}

/// What one delivery routes: the increments [`route`] computed, before any
/// message is built.
#[must_use = "routed mass is lost unless it is emitted"]
pub(crate) struct Routed {
    out_degree: usize,
    alpha: Increments,
    beta: IntervalUnion,
}

/// One delivery of `(alpha, beta)` at a vertex with out-degree
/// `mass.alpha.len() > 0`: updates `mass` (and the claimed label) and
/// returns the increments to send. See the [module docs](self).
///
/// Inlined, with [`Routed::emit`], into each protocol's delivery step, so an
/// echo of held evidence folds to one subset test there: as an outlined call,
/// labeling and general broadcast took about 3 % longer per delivery than
/// with the rule written out in the protocol (in-process A/B, 2 vCPUs).
#[inline(always)]
pub(crate) fn route(
    mass: &mut MassState,
    claim: Claim<'_>,
    alpha: &IntervalUnion,
    beta: &IntervalUnion,
) -> Routed {
    let d = mass.alpha.len();
    debug_assert!(d > 0, "a sink keeps the mass it receives");
    let routed = |alpha, beta| Routed {
        out_degree: d,
        alpha,
        beta,
    };
    if alpha.is_empty() {
        // A β echo: held evidence ends it.
        if beta.is_subset_of(&mass.beta) {
            return routed(
                Increments::Fresh(IntervalUnion::empty()),
                IntervalUnion::empty(),
            );
        }
        // A β the vertex has none of stays the sender's shared buffer.
        let mut delta = beta.clone();
        delta.subtract_assign(&mass.beta);
        mass.beta.union_in_place(&delta);
        return routed(Increments::Fresh(IntervalUnion::empty()), delta);
    }

    if !mass.partitioned {
        mass.partitioned = true;
        let claims = usize::from(!matches!(claim, Claim::Nothing));
        let mut parts = canonical_partition_nonempty(alpha, d + claims)
            .expect("out-degree is positive, so the partition is well-defined");
        let mut delta = match claim {
            Claim::Nothing => beta.clone(),
            Claim::IntoBeta(label) => {
                *label = parts.remove(0);
                // β'' = β' ∪ α_0: the claimed label must still reach the terminal.
                beta.union(label)
            }
            Claim::OutOfBeta(label) => {
                *label = parts.remove(0);
                beta.clone()
            }
        };
        delta.subtract_assign(&mass.beta);
        mass.beta.union_in_place(&delta);
        for (slot, part) in mass.alpha.iter_mut().zip(&parts) {
            // β-only traffic never touches α, so each α_j is still empty
            // here and the partition piece *is* the port's α increment.
            debug_assert!(slot.is_empty());
            *slot = part.clone();
        }
        return routed(Increments::Parts(parts), delta);
    }

    // Later mass: anything this vertex routed or claimed before is cycle
    // evidence; the rest is fresh. The increments are computed before the
    // state is updated, so no snapshot of the (ever-growing) state is cloned.
    let label = match &claim {
        Claim::Nothing => None,
        Claim::IntoBeta(label) | Claim::OutOfBeta(label) => Some(&**label),
    };
    let mut overlap = label.map_or_else(IntervalUnion::empty, |label| alpha.intersection(label));
    for held in &mass.alpha {
        overlap.union_in_place(&alpha.intersection(held));
    }
    let mut fresh = alpha.clone();
    for held in mass.alpha.iter().chain(label) {
        fresh.subtract_assign(held);
    }
    let mut delta = beta.union(&overlap);
    delta.subtract_assign(&mass.beta);
    mass.beta.union_in_place(&delta);
    mass.alpha[d - 1].union_in_place(&fresh);
    routed(Increments::Fresh(fresh), delta)
}

impl Routed {
    /// Appends the messages to `out`, each built as `message(port, α
    /// increment, β increment)`. `rides` says the protocol has something of
    /// its own for every port, which sends a message even where both
    /// increments are empty. Without fresh mass or a partition, every port
    /// gets the same increments: one [`OutPort::All`] flood.
    #[inline(always)]
    pub(crate) fn emit<M>(
        self,
        rides: bool,
        out: &mut Vec<(OutPort, M)>,
        mut message: impl FnMut(OutPort, IntervalUnion, IntervalUnion) -> M,
    ) {
        let Routed {
            out_degree,
            alpha,
            beta,
        } = self;
        let sends_beta = !beta.is_empty() || rides;
        match alpha {
            Increments::Parts(parts) => {
                for (j, part) in parts.into_iter().enumerate() {
                    if !part.is_empty() || sends_beta {
                        let port = OutPort::Port(j);
                        out.push((port, message(port, part, beta.clone())));
                    }
                }
            }
            Increments::Fresh(fresh) if fresh.is_empty() => {
                if sends_beta {
                    out.push((OutPort::All, message(OutPort::All, fresh, beta)));
                }
            }
            Increments::Fresh(fresh) => {
                let last = out_degree - 1;
                if sends_beta {
                    for j in 0..last {
                        let port = OutPort::Port(j);
                        out.push((port, message(port, IntervalUnion::empty(), beta.clone())));
                    }
                }
                let port = OutPort::Port(last);
                out.push((port, message(port, fresh, beta)));
            }
        }
    }
}
