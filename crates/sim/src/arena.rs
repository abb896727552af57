//! Flat instance storage for the event core.
//!
//! Every live instance (one hop of one job instance working through its
//! chain) is a slot in a growable arena, addressed by a 4-byte
//! [`InstanceId`]. Events in the schedule carry ids, not instance structs,
//! so moving an instance between the schedule, a ready queue and a
//! processor is an integer copy — no per-event allocation, no hashing.
//! A chain advancing to its next hop mutates its slot in place, so the
//! arena holds exactly one slot per *released job instance*, not per hop.

use rta_curves::Time;
use rta_model::{JobId, SubjobRef};

/// Index of an instance slot in the [`InstanceArena`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct InstanceId(pub(crate) u32);

/// One live instance: which subjob it currently executes, how much work
/// remains, and the bookkeeping the schedulers tie-break on.
#[derive(Clone, Debug)]
pub(crate) struct InstanceState {
    /// The job this instance belongs to.
    pub job: JobId,
    /// 1-based instance index within the job.
    pub m: u32,
    /// Current hop (0-based subjob index along the chain).
    pub hop: u32,
    /// Execution time still owed at the current hop.
    pub remaining: Time,
    /// When the instance was released at the current hop.
    pub hop_release: Time,
    /// Global release sequence number — unique per (instance, hop),
    /// reassigned when the chain advances; preemption keeps it.
    pub seq: u64,
    /// First dispatch time at the current hop (`Time(-1)` until started).
    #[cfg(feature = "trace")]
    pub started: Time,
}

impl InstanceState {
    /// The subjob this instance currently executes.
    pub fn subjob(&self) -> SubjobRef {
        SubjobRef {
            job: self.job,
            index: self.hop as usize,
        }
    }
}

/// The flat slot store. Slots are never freed individually — a simulation
/// run pushes every released instance once and [`InstanceArena::clear`]
/// recycles the whole allocation for the next run (the Monte-Carlo
/// driver's per-worker workspaces rely on this).
#[derive(Default)]
pub(crate) struct InstanceArena {
    slots: Vec<InstanceState>,
}

impl InstanceArena {
    /// Append a slot, returning its id.
    pub fn push(&mut self, inst: InstanceState) -> InstanceId {
        let id = InstanceId(u32::try_from(self.slots.len()).expect("more than u32::MAX instances"));
        self.slots.push(inst);
        id
    }

    /// Drop all slots, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

impl std::ops::Index<InstanceId> for InstanceArena {
    type Output = InstanceState;
    fn index(&self, id: InstanceId) -> &InstanceState {
        &self.slots[id.0 as usize]
    }
}

impl std::ops::IndexMut<InstanceId> for InstanceArena {
    fn index_mut(&mut self, id: InstanceId) -> &mut InstanceState {
        &mut self.slots[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(seq: u64) -> InstanceState {
        InstanceState {
            job: JobId(0),
            m: 1,
            hop: 0,
            remaining: Time(5),
            hop_release: Time::ZERO,
            seq,
            #[cfg(feature = "trace")]
            started: Time(-1),
        }
    }

    #[test]
    fn ids_index_their_slots() {
        let mut arena = InstanceArena::default();
        let a = arena.push(inst(0));
        let b = arena.push(inst(1));
        assert_eq!(arena[a].seq, 0);
        assert_eq!(arena[b].seq, 1);
        arena[a].hop = 2;
        assert_eq!(arena[a].subjob().index, 2);
        arena.clear();
        let c = arena.push(inst(7));
        assert_eq!(c, InstanceId(0));
        assert_eq!(arena[c].seq, 7);
    }
}
