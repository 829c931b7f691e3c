//! Simulated time and the Table 3 cost-category breakdown.

use std::fmt;

/// The time categories of Table 3 / Figure 11.
///
/// The paper decomposes an EASGD iteration into eight parts (§6.1.1) and
/// ignores I/O and initialization as negligible; these are the six it
/// reports plus an `Other` bucket for idling and bookkeeping.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum TimeCategory {
    /// GPU ↔ GPU parameter communication (part 3).
    GpuGpuParam,
    /// CPU → GPU training-data communication (part 4).
    CpuGpuData,
    /// CPU ↔ GPU parameter communication (part 5).
    CpuGpuParam,
    /// Forward and backward propagation (part 6).
    ForwardBackward,
    /// Worker-side weight update, Equation (1) (part 7).
    GpuUpdate,
    /// Master-side center update, Equation (2) (part 8).
    CpuUpdate,
    /// Waiting / everything else.
    Other,
}

impl TimeCategory {
    /// All categories, in Table 3 column order.
    pub const ALL: [TimeCategory; 7] = [
        TimeCategory::GpuGpuParam,
        TimeCategory::CpuGpuData,
        TimeCategory::CpuGpuParam,
        TimeCategory::ForwardBackward,
        TimeCategory::GpuUpdate,
        TimeCategory::CpuUpdate,
        TimeCategory::Other,
    ];

    /// Table 3 column label.
    pub fn label(&self) -> &'static str {
        match self {
            TimeCategory::GpuGpuParam => "gpu-gpu para",
            TimeCategory::CpuGpuData => "cpu-gpu data",
            TimeCategory::CpuGpuParam => "cpu-gpu para",
            TimeCategory::ForwardBackward => "for/backward",
            TimeCategory::GpuUpdate => "gpu update",
            TimeCategory::CpuUpdate => "cpu update",
            TimeCategory::Other => "other",
        }
    }

    /// Is this a communication category? (Drives the “comm ratio” column:
    /// parts 3–5 are communication, 6–8 computation, §6.1.1.)
    pub fn is_communication(&self) -> bool {
        matches!(
            self,
            TimeCategory::GpuGpuParam | TimeCategory::CpuGpuData | TimeCategory::CpuGpuParam
        )
    }

    fn index(&self) -> usize {
        // Must match `Self::ALL` order (pinned by the `index_matches_all`
        // test below).
        match self {
            TimeCategory::GpuGpuParam => 0,
            TimeCategory::CpuGpuData => 1,
            TimeCategory::CpuGpuParam => 2,
            TimeCategory::ForwardBackward => 3,
            TimeCategory::GpuUpdate => 4,
            TimeCategory::CpuUpdate => 5,
            TimeCategory::Other => 6,
        }
    }
}

/// Seconds accumulated per category.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    buckets: [f64; 7],
}

impl TimeBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `seconds` to `category`.
    pub fn add(&mut self, category: TimeCategory, seconds: f64) {
        assert!(seconds >= 0.0, "negative time charge: {seconds}");
        self.buckets[category.index()] += seconds;
    }

    /// Seconds in one category.
    pub fn get(&self, category: TimeCategory) -> f64 {
        self.buckets[category.index()]
    }

    /// Total seconds across all categories.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// Seconds in communication categories (the numerator of Table 3's
    /// "comm ratio").
    pub fn communication(&self) -> f64 {
        TimeCategory::ALL
            .iter()
            .filter(|c| c.is_communication())
            .map(|c| self.get(*c))
            .sum()
    }

    /// Fraction of total time spent communicating (0 when nothing has
    /// been charged).
    pub fn comm_ratio(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.communication() / t
        }
    }
}

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in TimeCategory::ALL {
            let v = self.get(c);
            if v > 0.0 {
                write!(f, "{}={:.3}s ", c.label(), v)?;
            }
        }
        write!(f, "(comm {:.0}%)", self.comm_ratio() * 100.0)
    }
}

/// A rank's simulated clock: current time plus the category breakdown.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now: f64,
    breakdown: TimeBreakdown,
}

impl SimClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances by `seconds`, attributing them to `category`.
    pub fn charge(&mut self, category: TimeCategory, seconds: f64) {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "invalid time charge: {seconds}"
        );
        #[cfg(feature = "strict-invariants")]
        let before = self.now;
        self.now += seconds;
        self.breakdown.add(category, seconds);
        #[cfg(feature = "strict-invariants")]
        debug_assert!(
            self.now >= before && self.now.is_finite(),
            "SimClock moved backwards or overflowed: {before} -> {}",
            self.now
        );
    }

    /// Advances to absolute time `t` (no-op if already past), attributing
    /// the gap to `category`. Used when a message's arrival time or a
    /// collective's completion time is known.
    pub fn advance_to(&mut self, t: f64, category: TimeCategory) {
        #[cfg(feature = "strict-invariants")]
        let before = self.now;
        if t > self.now {
            let gap = t - self.now;
            self.now = t;
            self.breakdown.add(category, gap);
        }
        #[cfg(feature = "strict-invariants")]
        debug_assert!(
            self.now >= before && self.now.is_finite(),
            "SimClock moved backwards: {before} -> {}",
            self.now
        );
    }

    /// The category breakdown so far.
    pub fn breakdown(&self) -> &TimeBreakdown {
        &self.breakdown
    }
}

/// Final per-rank accounting, returned by `Comm::report`.
#[derive(Clone, Debug)]
pub struct RankReport {
    /// The rank.
    pub rank: usize,
    /// Final simulated time.
    pub time: f64,
    /// Category breakdown.
    pub breakdown: TimeBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_matches_all() {
        for (i, c) in TimeCategory::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn charge_accumulates_time_and_category() {
        let mut c = SimClock::new();
        c.charge(TimeCategory::ForwardBackward, 2.0);
        c.charge(TimeCategory::CpuGpuParam, 1.0);
        c.charge(TimeCategory::ForwardBackward, 0.5);
        assert_eq!(c.now(), 3.5);
        assert_eq!(c.breakdown().get(TimeCategory::ForwardBackward), 2.5);
        assert_eq!(c.breakdown().get(TimeCategory::CpuGpuParam), 1.0);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let mut c = SimClock::new();
        c.charge(TimeCategory::Other, 5.0);
        c.advance_to(3.0, TimeCategory::Other); // in the past: no-op
        assert_eq!(c.now(), 5.0);
        c.advance_to(7.0, TimeCategory::CpuGpuParam);
        assert_eq!(c.now(), 7.0);
        assert_eq!(c.breakdown().get(TimeCategory::CpuGpuParam), 2.0);
    }

    #[test]
    fn comm_ratio_matches_table3_definition() {
        let mut b = TimeBreakdown::new();
        b.add(TimeCategory::CpuGpuParam, 86.0);
        b.add(TimeCategory::CpuGpuData, 1.0);
        b.add(TimeCategory::ForwardBackward, 3.0);
        b.add(TimeCategory::GpuUpdate, 1.0);
        b.add(TimeCategory::CpuUpdate, 9.0);
        // 87/100 — the Original EASGD row of Table 3.
        assert!((b.comm_ratio() - 0.87).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_has_zero_ratio() {
        assert_eq!(TimeBreakdown::new().comm_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn rejects_negative_charge() {
        TimeBreakdown::new().add(TimeCategory::Other, -1.0);
    }

    #[test]
    fn category_labels_cover_table3_columns() {
        let labels: Vec<_> = TimeCategory::ALL.iter().map(|c| c.label()).collect();
        assert!(labels.contains(&"gpu-gpu para"));
        assert!(labels.contains(&"cpu-gpu data"));
        assert!(labels.contains(&"cpu-gpu para"));
        assert!(labels.contains(&"for/backward"));
    }
}
