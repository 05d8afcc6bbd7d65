//! A set of small `usize` ids that lives inline until it outgrows a
//! handful: the siblings that acked one replicated write (node ids)
//! and the groups one request's route tried (ring slots). Both are
//! built per request, so neither may cost a heap allocation in the
//! common case.

/// Members held inline before a [`SmallSet`] spills to the heap:
/// enough for the acks of a group of five replicas, or a route of four
/// attempts.
const INLINE: usize = 4;

/// A set of `usize` ids that allocates only past [`INLINE`] members,
/// and takes any id.
#[derive(Debug, Clone, Default)]
pub(crate) struct SmallSet {
    inline: [usize; INLINE],
    len: usize,
    spill: Vec<usize>,
}

impl SmallSet {
    /// Whether `id` is a member.
    pub(crate) fn contains(&self, id: usize) -> bool {
        self.inline[..self.len].contains(&id) || self.spill.contains(&id)
    }

    /// Adds `id`; a member already present is left as it is.
    pub(crate) fn insert(&mut self, id: usize) {
        if self.contains(id) {
            return;
        }
        if self.len < INLINE {
            self.inline[self.len] = id;
            self.len += 1;
        } else {
            self.spill.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_any_id_inline_and_past_the_inline_slots() {
        let mut set = SmallSet::default();
        let ids = [7, 130, 0, usize::MAX, 131, 2, 64];
        for (i, &n) in ids.iter().enumerate() {
            assert!(!set.contains(n));
            set.insert(n);
            set.insert(n); // a retransmission's second ack
            assert!(ids[..=i].iter().all(|&m| set.contains(m)));
        }
        assert_eq!((set.len, set.spill.len()), (INLINE, 3));
        assert!(!set.contains(1));
    }
}
