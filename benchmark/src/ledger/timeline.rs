// xtask: allow(wall-clock) — benchmark package: every file measures real time by design.
//! Interval arithmetic over spans of many lanes. On the event backend
//! exactly one rank runs at a time, so a rank's *compute* spans (which
//! never block) are disjoint across ranks, while its *communication*
//! spans also cover the time it sat parked. Host time spent
//! communicating is therefore the time some comm span covers and no
//! compute span does.

/// A half-open interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Total length of the union of `xs`.
pub fn union_ns(xs: &[Interval]) -> u64 {
    let mut v: Vec<Interval> = xs.iter().copied().filter(|(a, b)| b > a).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<Interval> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Length of `∪cover` minus the part `∪minus` covers.
pub fn union_minus_ns(cover: &[Interval], minus: &[Interval]) -> u64 {
    // |A \ B| = |A ∪ B| − |B|
    let mut both = cover.to_vec();
    both.extend_from_slice(minus);
    union_ns(&both) - union_ns(minus)
}

/// Length by which intervals of `xs` overlap each other (0 if disjoint).
pub fn overlap_ns(xs: &[Interval]) -> u64 {
    xs.iter().map(|(a, b)| b.saturating_sub(*a)).sum::<u64>() - union_ns(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_touching() {
        assert_eq!(union_ns(&[]), 0);
        assert_eq!(union_ns(&[(0, 10), (5, 15), (15, 20), (30, 40)]), 30);
        assert_eq!(union_ns(&[(5, 5), (7, 3)]), 0);
    }

    #[test]
    fn difference_and_overlap() {
        // comm covers [0,100); compute covers [10,30) and [50,60).
        assert_eq!(union_minus_ns(&[(0, 100)], &[(10, 30), (50, 60)]), 70);
        // compute sticking out of comm does not count.
        assert_eq!(union_minus_ns(&[(0, 10)], &[(5, 20)]), 5);
        assert_eq!(overlap_ns(&[(0, 10), (10, 20)]), 0);
        assert_eq!(overlap_ns(&[(0, 10), (5, 20)]), 5);
    }
}
