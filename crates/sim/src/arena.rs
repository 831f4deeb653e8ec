//! The pooled message arena: every in-flight message of a run in one slab.
//!
//! The model gives every edge a FIFO queue. One `VecDeque<(u64, M)>` per
//! edge, the layout the full-scan reference
//! ([`crate::reference::run_full_scan`]) keeps, allocates per edge, scatters
//! queue storage across the heap, and leaves most of it cold: in the paper's
//! protocols the vast majority of edges hold zero or one message at any
//! instant, while the engine touches a different edge on every delivery.
//! [`MessageArena`] instead keeps one slab of small queue entries plus
//! intrusive per-edge FIFO links, and one slab of message *bodies* the
//! entries point into, so all queue bookkeeping lives in a few contiguous
//! arrays.
//!
//! # Memory layout contract
//!
//! This section is the arena's analogue of the `IntervalUnion` copy-on-write
//! docs in `anet-num`: the invariants that everything touching the engine's
//! hot state may rely on.
//!
//! * **Entries and bodies.** A queued message is an *entry* — its sequence
//!   number, the next entry of its edge's chain and the index of its body —
//!   in `entries`, one `Vec` of 16-byte records. A *body* holds the message
//!   itself and a reference count, the number of entries that point to it,
//!   in `bodies`, one `Vec` of its own.
//! * **One body per emission.** A message enters once, by value
//!   ([`MessageArena::add_body`]), and each [`MessageArena::push_back`] of
//!   its body adds one entry and one reference. A flood on `d` out-ports is
//!   one body with `d` entries; an adversary duplicate is one more entry on
//!   the same body. The arena never clones a message: a delivery lends it
//!   out by reference ([`MessageArena::message`]), and the engine's only
//!   payload clone remains the optional trace event (pinned by
//!   `trace_clones_share_arc_payloads_end_to_end`).
//! * **Intrusive links.** A per-edge FIFO is the chain `heads[e] →
//!   entries[·].next → … → tails[e]`; edges own no storage of their own
//!   beyond three `u32` cursors (`heads`, `tails`, `lens`). The sentinel
//!   `u32::MAX` terminates every chain.
//! * **Recycling.** Popping or removing an entry frees it, but not its body:
//!   the caller gets the body index back and [`MessageArena::release`]s it
//!   once it is done with the message. Releasing drops one reference; the
//!   last release drops the message. Freed entries and bodies go on free
//!   lists, and the next push or body reuses the most recently freed one
//!   before a slab grows. The slabs therefore never shrink, and their high
//!   -water marks are the maximum numbers of *simultaneously* in-flight
//!   entries and bodies — not the total number of sends.
//! * **No aliasing.** An entry is reachable from exactly one place at any
//!   time: one edge chain or the entry free list. A body is live (message
//!   present, count positive) exactly while an entry points to it or a
//!   popped entry's caller has yet to release it; otherwise it sits on the
//!   body free list with no message. The crate is `#![forbid(unsafe_code)]`,
//!   so this is a logical invariant for readers, not a soundness
//!   requirement.
//! * **FIFO semantics are bit-for-bit a `VecDeque`'s.** `push_back`,
//!   `pop_front`, `head_seq` and positional `remove_at` (the fault adversary's
//!   reorder path) observe and mutate the logical queue exactly as the
//!   reference's per-edge `VecDeque`s do — the engine differential suite pins
//!   the engine to the reference's traces, metrics, step logs and states,
//!   under faults and re-flood rounds too. `remove_at`
//!   walks the chain and is O(position); it only runs on the adversarial
//!   reorder path, never on the reliable hot path.

/// The sentinel terminating every entry chain (and marking empty edges).
const NIL: u32 = u32::MAX;

/// One queued message: 16 bytes, whatever the message type.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Global send sequence number of the queued message.
    seq: u64,
    /// Next entry in this edge's FIFO chain, or [`NIL`].
    next: u32,
    /// Index of the body holding the message.
    body: u32,
}

/// One stored message and the number of entries that point to it.
#[derive(Debug, Clone)]
struct Body<M> {
    /// Entries pointing here, plus popped ones not yet released.
    refs: u32,
    /// The message; `None` exactly while the body sits on the free list.
    message: Option<M>,
}

/// Slab-backed per-edge FIFO queues over shared message bodies.
/// See the [module docs](self) for the memory layout contract.
#[derive(Debug, Clone)]
pub struct MessageArena<M> {
    entries: Vec<Entry>,
    free_entries: Vec<u32>,
    bodies: Vec<Body<M>>,
    free_bodies: Vec<u32>,
    heads: Vec<u32>,
    tails: Vec<u32>,
    lens: Vec<u32>,
}

impl<M> MessageArena<M> {
    /// An arena for `edge_count` edges with empty slabs.
    pub fn new(edge_count: usize) -> Self {
        assert!(
            u32::try_from(edge_count).is_ok(),
            "edge count exceeds the u32 arena layout"
        );
        MessageArena {
            entries: Vec::new(),
            free_entries: Vec::new(),
            bodies: Vec::new(),
            free_bodies: Vec::new(),
            heads: vec![NIL; edge_count],
            tails: vec![NIL; edge_count],
            lens: vec![0; edge_count],
        }
    }

    /// Number of messages queued on `edge`.
    pub fn len(&self, edge: usize) -> usize {
        self.lens[edge] as usize
    }

    /// Whether `edge` has no queued message.
    pub fn is_empty(&self, edge: usize) -> bool {
        self.lens[edge] == 0
    }

    /// Sequence number of the head message of `edge`, if any.
    pub fn head_seq(&self, edge: usize) -> Option<u64> {
        match self.heads[edge] {
            NIL => None,
            h => Some(self.entries[h as usize].seq),
        }
    }

    /// Stores `message` as a new body with no entries yet and returns its
    /// index. Queue it with [`push_back`](Self::push_back); a body that is
    /// never pushed is never dropped before the arena is.
    pub fn add_body(&mut self, message: M) -> u32 {
        match self.free_bodies.pop() {
            Some(i) => {
                self.bodies[i as usize] = Body {
                    refs: 0,
                    message: Some(message),
                };
                i
            }
            None => {
                assert!(
                    u32::try_from(self.bodies.len()).is_ok(),
                    "stored message count exceeds the u32 arena layout"
                );
                self.bodies.push(Body {
                    refs: 0,
                    message: Some(message),
                });
                (self.bodies.len() - 1) as u32
            }
        }
    }

    /// The message stored in `body`.
    ///
    /// # Panics
    ///
    /// Panics if `body` was released by its last reference.
    pub fn message(&self, body: u32) -> &M {
        self.bodies[body as usize]
            .message
            .as_ref()
            .expect("a live body holds its message")
    }

    /// Drops one reference to `body`, taken by a [`pop_front`](Self::pop_front)
    /// or [`remove_at`](Self::remove_at); the last one drops the message and
    /// frees the body.
    pub fn release(&mut self, body: u32) {
        let stored = &mut self.bodies[body as usize];
        stored.refs -= 1;
        if stored.refs == 0 {
            stored.message = None;
            self.free_bodies.push(body);
        }
    }

    /// Appends an entry for `body` with sequence number `seq` to the tail of
    /// `edge`'s FIFO, adding one reference to `body`. Returns whether the
    /// edge was empty before the push (i.e. this message is its new head).
    pub fn push_back(&mut self, edge: usize, seq: u64, body: u32) -> bool {
        self.bodies[body as usize].refs += 1;
        let entry = Entry {
            seq,
            next: NIL,
            body,
        };
        let slot = match self.free_entries.pop() {
            Some(i) => {
                self.entries[i as usize] = entry;
                i
            }
            None => {
                assert!(
                    u32::try_from(self.entries.len()).is_ok(),
                    "in-flight message count exceeds the u32 arena layout"
                );
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        let was_empty = self.heads[edge] == NIL;
        if was_empty {
            self.heads[edge] = slot;
        } else {
            self.entries[self.tails[edge] as usize].next = slot;
        }
        self.tails[edge] = slot;
        self.lens[edge] += 1;
        was_empty
    }

    /// Removes the head of `edge`'s FIFO and returns its sequence number and
    /// body. The body keeps the popped entry's reference until it is
    /// [`release`](Self::release)d.
    pub fn pop_front(&mut self, edge: usize) -> Option<(u64, u32)> {
        self.remove_at(edge, 0)
    }

    /// Removes the entry at `index` (0 = head) of `edge`'s FIFO and returns
    /// its sequence number and body, as [`pop_front`](Self::pop_front) does
    /// — the fault adversary's reorder path. O(`index`) chain walk.
    ///
    /// # Panics
    ///
    /// Panics if `index > 0` but out of range (matching
    /// `VecDeque::remove(..).expect(..)` in the engines; `index == 0` on an
    /// empty edge returns `None`).
    pub fn remove_at(&mut self, edge: usize, index: usize) -> Option<(u64, u32)> {
        let mut prev = NIL;
        let mut cur = self.heads[edge];
        if cur == NIL {
            assert!(index == 0, "reorder index beyond queue length");
            return None;
        }
        for _ in 0..index {
            prev = cur;
            cur = self.entries[cur as usize].next;
            assert!(cur != NIL, "reorder index beyond queue length");
        }
        let Entry { seq, next, body } = self.entries[cur as usize];
        if prev == NIL {
            self.heads[edge] = next;
        } else {
            self.entries[prev as usize].next = next;
        }
        if next == NIL {
            self.tails[edge] = prev;
        }
        self.lens[edge] -= 1;
        self.free_entries.push(cur);
        Some((seq, body))
    }

    /// Entry high-water mark: entries ever allocated (queued + free).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// Queues `message` on `edge` as a body of its own.
    fn push<M>(a: &mut MessageArena<M>, edge: usize, seq: u64, message: M) -> bool {
        let body = a.add_body(message);
        a.push_back(edge, seq, body)
    }

    /// Number of bodies holding a message.
    fn live_bodies<M>(a: &MessageArena<M>) -> usize {
        a.bodies.len() - a.free_bodies.len()
    }

    /// Pops the head of `edge`, returning its sequence number and message.
    fn pop<M: Clone>(a: &mut MessageArena<M>, edge: usize) -> Option<(u64, M)> {
        let (seq, body) = a.pop_front(edge)?;
        let message = a.message(body).clone();
        a.release(body);
        Some((seq, message))
    }

    #[test]
    fn fifo_order_and_head_reporting() {
        let mut a: MessageArena<&str> = MessageArena::new(3);
        assert!(a.is_empty(1));
        assert_eq!(a.head_seq(1), None);
        assert!(push(&mut a, 1, 10, "x"));
        assert!(!push(&mut a, 1, 11, "y"));
        assert!(!push(&mut a, 1, 12, "z"));
        assert!(push(&mut a, 2, 13, "w"));
        assert_eq!(a.len(1), 3);
        assert_eq!(a.head_seq(1), Some(10));
        assert_eq!(pop(&mut a, 1), Some((10, "x")));
        assert_eq!(a.head_seq(1), Some(11));
        assert_eq!(pop(&mut a, 1), Some((11, "y")));
        assert_eq!(pop(&mut a, 1), Some((12, "z")));
        assert_eq!(pop(&mut a, 1), None);
        assert!(a.is_empty(1));
        // Edge 2 was untouched by edge 1's traffic.
        assert_eq!(pop(&mut a, 2), Some((13, "w")));
        assert_eq!(live_bodies(&a), 0);
    }

    #[test]
    fn entries_and_bodies_are_recycled_not_leaked() {
        let mut a: MessageArena<u64> = MessageArena::new(1);
        for round in 0..100u64 {
            push(&mut a, 0, round, round);
            assert_eq!(pop(&mut a, 0), Some((round, round)));
        }
        // 100 sends, but never more than one in flight: one entry, one body.
        assert_eq!(a.entry_count(), 1);
        assert_eq!(a.bodies.len(), 1);
        assert_eq!(live_bodies(&a), 0);
    }

    #[test]
    fn one_body_serves_every_entry_and_drops_with_the_last() {
        // A flood on three edges plus a duplicate on one: one stored message,
        // four entries, dropped exactly when its last entry is released.
        let token = Rc::new(());
        let mut a: MessageArena<Rc<()>> = MessageArena::new(3);
        let body = a.add_body(Rc::clone(&token));
        for (seq, edge) in (0u64..).zip(0..3) {
            assert!(a.push_back(edge, seq, body));
        }
        assert_eq!(Rc::strong_count(&token), 2);
        let (seq, popped) = a.pop_front(1).unwrap();
        assert_eq!((seq, popped), (1, body));
        assert!(a.push_back(1, 3, popped));
        a.release(popped);
        for edge in [0, 2, 1] {
            assert_eq!(Rc::strong_count(&token), 2, "body dropped early");
            let (_, popped) = a.pop_front(edge).unwrap();
            assert!(Rc::ptr_eq(a.message(popped), &token));
            a.release(popped);
        }
        assert_eq!(Rc::strong_count(&token), 1, "body outlived its entries");
        assert_eq!(live_bodies(&a), 0);
        assert_eq!(a.bodies.len(), 1);
    }

    #[test]
    fn remove_at_matches_vecdeque_semantics() {
        // Drive both representations through the same operation sequence.
        let mut arena: MessageArena<u64> = MessageArena::new(2);
        let mut deques: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(), VecDeque::new()];
        let mut seq = 0u64;
        let ops: Vec<(usize, usize)> = vec![
            // (edge, removals-at-index after a burst of pushes)
            (0, 1),
            (1, 0),
            (0, 2),
            (0, 0),
            (1, 3),
        ];
        for (edge, idx) in ops {
            for _ in 0..4 {
                push(&mut arena, edge, seq, seq * 7);
                deques[edge].push_back((seq, seq * 7));
                seq += 1;
            }
            let idx = idx.min(deques[edge].len() - 1);
            let removed = arena.remove_at(edge, idx).map(|(seq, body)| {
                let message = *arena.message(body);
                arena.release(body);
                (seq, message)
            });
            assert_eq!(removed, deques[edge].remove(idx));
            assert_eq!(arena.len(edge), deques[edge].len());
            assert_eq!(arena.head_seq(edge), deques[edge].front().map(|&(s, _)| s));
        }
        // Drain both fully and compare order.
        for (edge, deque) in deques.iter_mut().enumerate() {
            while let Some(expected) = deque.pop_front() {
                assert_eq!(pop(&mut arena, edge), Some(expected));
            }
            assert_eq!(pop(&mut arena, edge), None);
        }
        assert_eq!(live_bodies(&arena), 0);
    }

    #[test]
    #[should_panic(expected = "beyond queue length")]
    fn remove_beyond_length_panics() {
        let mut a: MessageArena<u64> = MessageArena::new(1);
        push(&mut a, 0, 0, 0);
        let _ = a.remove_at(0, 1);
    }
}
