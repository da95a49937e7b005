//! Logical time: intervals and vector clocks.
//!
//! In LRC, a process's execution is divided into *intervals* delimited by
//! synchronization operations. A process's *vector timestamp* records, for
//! every process, the most recent interval of that process whose effects the
//! local process has seen. The same structure doubles as a page *version
//! vector* (`p.v`): the most recent interval of each writer whose diff has
//! been applied to the page.

/// Index of a process (node) in the cluster, `0..n`.
pub type ProcId = usize;

/// Sequence number of a synchronization interval at a single process. The
/// first interval is 1; 0 means "nothing seen yet".
pub type IntervalSeq = u32;

/// A (process, interval) pair: one interval of one process's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    /// The process whose interval this is.
    pub proc: ProcId,
    /// The interval sequence number at that process (1-based).
    pub seq: IntervalSeq,
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<{}:{}>", self.proc, self.seq)
    }
}

/// A vector of interval sequence numbers, one per process.
///
/// Forms a lattice under elementwise max (`join`) / min (`meet`) with partial
/// order `covers` (elementwise >=).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VectorClock {
    v: Vec<IntervalSeq>,
}

impl VectorClock {
    /// The zero clock for an `n`-process system.
    pub fn zero(n: usize) -> Self {
        VectorClock { v: vec![0; n] }
    }

    /// Build from raw entries.
    pub fn from_vec(v: Vec<IntervalSeq>) -> Self {
        VectorClock { v }
    }

    /// Number of processes.
    #[inline]
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// True for the empty (0-process) clock.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Entry for process `p`.
    #[inline]
    pub fn get(&self, p: ProcId) -> IntervalSeq {
        self.v[p]
    }

    /// Set entry for process `p`.
    #[inline]
    pub fn set(&mut self, p: ProcId, seq: IntervalSeq) {
        self.v[p] = seq;
    }

    /// Advance process `p`'s own entry by one and return the new interval.
    pub fn tick(&mut self, p: ProcId) -> Interval {
        self.v[p] += 1;
        Interval {
            proc: p,
            seq: self.v[p],
        }
    }

    /// Elementwise maximum (lattice join) with `other`, in place.
    pub fn join(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.v.len(), other.v.len());
        for (a, b) in self.v.iter_mut().zip(other.v.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Elementwise minimum (lattice meet) with `other`, in place.
    pub fn meet(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.v.len(), other.v.len());
        for (a, b) in self.v.iter_mut().zip(other.v.iter()) {
            *a = (*a).min(*b);
        }
    }

    /// `self >= other` elementwise: every interval known to `other` is known
    /// to `self`.
    pub fn covers(&self, other: &VectorClock) -> bool {
        debug_assert_eq!(self.v.len(), other.v.len());
        self.v.iter().zip(other.v.iter()).all(|(a, b)| a >= b)
    }

    /// Does this clock cover a single interval?
    #[inline]
    pub fn covers_interval(&self, i: Interval) -> bool {
        self.v[i.proc] >= i.seq
    }

    /// Intervals of `other` not covered by `self`: for each process, the
    /// half-open range `(self[p], other[p]]` of missing sequence numbers.
    pub fn missing_from(&self, other: &VectorClock) -> Vec<Interval> {
        debug_assert_eq!(self.v.len(), other.v.len());
        let mut out = Vec::new();
        for (p, (&a, &b)) in self.v.iter().zip(other.v.iter()).enumerate() {
            for seq in (a + 1)..=b {
                out.push(Interval { proc: p, seq });
            }
        }
        out
    }

    /// Raw entries.
    #[inline]
    pub fn as_slice(&self) -> &[IntervalSeq] {
        &self.v
    }
}

impl std::fmt::Display for VectorClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.v.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, "]")
    }
}

/// Elementwise minimum over a non-empty iterator of clocks: the paper's
/// `Tmin = min_{j} T^j_ckp`.
pub fn elementwise_min<'a>(
    mut clocks: impl Iterator<Item = &'a VectorClock>,
) -> Option<VectorClock> {
    let first = clocks.next()?.clone();
    Some(clocks.fold(first, |mut acc, c| {
        acc.meet(c);
        acc
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_advances_own_entry() {
        let mut vt = VectorClock::zero(3);
        let i = vt.tick(1);
        assert_eq!(i, Interval { proc: 1, seq: 1 });
        assert_eq!(vt.as_slice(), &[0, 1, 0]);
    }

    #[test]
    fn join_and_covers() {
        let mut a = VectorClock::from_vec(vec![1, 5, 0]);
        let b = VectorClock::from_vec(vec![2, 3, 0]);
        assert!(!a.covers(&b));
        a.join(&b);
        assert_eq!(a.as_slice(), &[2, 5, 0]);
        assert!(a.covers(&b));
    }

    #[test]
    fn missing_from_enumerates_gap() {
        let a = VectorClock::from_vec(vec![2, 0]);
        let b = VectorClock::from_vec(vec![4, 1]);
        let missing = a.missing_from(&b);
        assert_eq!(
            missing,
            vec![
                Interval { proc: 0, seq: 3 },
                Interval { proc: 0, seq: 4 },
                Interval { proc: 1, seq: 1 },
            ]
        );
    }

    #[test]
    fn elementwise_min_computes_tmin() {
        let a = VectorClock::from_vec(vec![3, 1, 7]);
        let b = VectorClock::from_vec(vec![2, 4, 9]);
        let m = elementwise_min([&a, &b].into_iter()).unwrap();
        assert_eq!(m.as_slice(), &[2, 1, 7]);
        assert!(elementwise_min(std::iter::empty()).is_none());
    }

    #[test]
    fn covers_interval_matches_entry() {
        let a = VectorClock::from_vec(vec![3, 1]);
        assert!(a.covers_interval(Interval { proc: 0, seq: 3 }));
        assert!(!a.covers_interval(Interval { proc: 0, seq: 4 }));
        assert!(!a.covers_interval(Interval { proc: 1, seq: 2 }));
    }
}
