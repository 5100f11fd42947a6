//! Deterministic work counters of the event wheel (DESIGN.md §5h).

use mem_controller::EdgeSource;

/// What the event wheel did over a run: how many memory cycles it
/// executed one at a time, how often it looked for an edge to jump to,
/// how far it jumped, which controller edge woke it, and how many core
/// cycles it batched inside the cycles it executed.
///
/// A *wake* is credited to an [`EdgeSource`] when the wheel jumped at
/// least one cycle and that controller edge alone set the landing cycle
/// (strictly before every core edge and the caller's target). The wake
/// is *futile* when the controller's tick on the landing cycle then did
/// nothing: an extra dense cycle the edge fold could have avoided.
///
/// Every counter is a pure function of the config and seed, so a check
/// can pin them exactly, unlike wall clock. They stay out of
/// [`crate::RunReport`], which is identical under either drive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Memory cycles executed one at a time.
    pub dense_cycles: u64,
    /// Edge queries: each pays one controller `next_event` scan.
    pub attempts: u64,
    /// Edge queries that jumped 0 cycles (the next edge was the very next
    /// cycle, or there was none).
    pub empty_attempts: u64,
    /// Edge queries made after a cycle in which the controller was active
    /// but settled (the rest follow quiet cycles).
    pub settled_attempts: u64,
    /// CPU cycles cores ran in one batched step per dense memory cycle
    /// instead of subcycle by subcycle.
    pub batched_core_cycles: u64,
    /// Memory cycles jumped over.
    pub skipped_cycles: u64,
    /// Wakes per edge source, indexed by [`EdgeSource::index`].
    pub wakes: [u64; EdgeSource::COUNT],
    /// Futile wakes per edge source, indexed by [`EdgeSource::index`].
    pub futile: [u64; EdgeSource::COUNT],
}

impl WheelStats {
    /// Wakes credited to `source`.
    pub fn wakes_from(&self, source: EdgeSource) -> u64 {
        self.wakes[source.index()]
    }

    /// Futile wakes credited to `source`.
    pub fn futile_from(&self, source: EdgeSource) -> u64 {
        self.futile[source.index()]
    }

    /// Wakes across every source.
    pub fn total_wakes(&self) -> u64 {
        self.wakes.iter().sum()
    }

    /// Futile wakes across every source.
    pub fn total_futile(&self) -> u64 {
        self.futile.iter().sum()
    }

    pub(crate) fn note_wake(&mut self, source: EdgeSource, controller_acted: bool) {
        self.wakes[source.index()] += 1;
        if !controller_acted {
            self.futile[source.index()] += 1;
        }
    }
}
