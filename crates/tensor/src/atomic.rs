//! Lock-free shared weights for the Hogwild algorithms (§3.2, §5.1).
//!
//! Hogwild SGD removes the master's update lock and lets workers race on
//! the shared weight vector; Hogwild EASGD does the same for the center
//! weight `W̄`. Rust forbids plain data races, so the shared buffer is a
//! vector of [`AtomicF32`] — `f32` values bit-cast into `AtomicU32`, read
//! and written with `Relaxed` ordering exactly as the Hogwild paper's
//! model permits (individual component updates may interleave arbitrarily;
//! no cross-component ordering is required).

use std::sync::atomic::{AtomicU32, Ordering};

/// An `f32` stored in an `AtomicU32` via bit-casting.
#[derive(Debug, Default)]
pub struct AtomicF32(AtomicU32);

impl AtomicF32 {
    /// A new atomic holding `v`.
    pub fn new(v: f32) -> Self {
        Self(AtomicU32::new(v.to_bits()))
    }

    /// Relaxed load.
    pub fn load(&self) -> f32 {
        // ordering: Hogwild reads are deliberately racy — a stale component
        // is part of the algorithm's noise model; no ordering with other
        // memory is needed (see DESIGN.md §"Static analysis & invariants").
        f32::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Relaxed store.
    pub fn store(&self, v: f32) {
        // ordering: value-only publication; readers tolerate staleness and
        // never infer other memory state from this cell.
        self.0.store(v.to_bits(), Ordering::Relaxed)
    }

    /// Atomic `+= delta` via compare-exchange loop. This is the Hogwild
    /// component update: lock-free, but each single component is updated
    /// without lost writes.
    pub fn fetch_add(&self, delta: f32) -> f32 {
        // ordering: the CAS loop only needs atomicity of this one cell, not
        // ordering against other cells; per-component no-lost-update is
        // what EASGD requires, and the xtask interleaving explorer model
        // checks exactly this load+CAS shape.
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + delta).to_bits();
            match self
                .0
                // ordering: success/failure both Relaxed — see load above.
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f32::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Atomic update through an arbitrary function, retried on contention.
    pub fn update(&self, f: impl Fn(f32) -> f32) -> f32 {
        // ordering: single-cell read-modify-write; Relaxed suffices for the
        // same reason as fetch_add (atomicity, not cross-cell ordering).
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = f(f32::from_bits(cur)).to_bits();
            match self
                .0
                // ordering: success/failure both Relaxed — see load above.
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f32::from_bits(new),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// A shared, lock-free `f32` buffer: the Hogwild master's weight vector.
#[derive(Debug)]
pub struct AtomicBuffer {
    data: Vec<AtomicF32>,
}

impl AtomicBuffer {
    /// A zero-filled buffer of `len` elements.
    pub fn zeros(len: usize) -> Self {
        Self {
            data: (0..len).map(|_| AtomicF32::new(0.0)).collect(),
        }
    }

    /// A buffer initialized from a slice.
    pub fn from_slice(src: &[f32]) -> Self {
        Self {
            data: src.iter().map(|&v| AtomicF32::new(v)).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Relaxed load of element `i`.
    pub fn load(&self, i: usize) -> f32 {
        self.data[i].load()
    }

    /// Relaxed store of element `i`.
    pub fn store(&self, i: usize, v: f32) {
        self.data[i].store(v)
    }

    /// Lock-free `buf[i] += delta`.
    pub fn fetch_add(&self, i: usize, delta: f32) -> f32 {
        self.data[i].fetch_add(delta)
    }

    /// Snapshot into an owned vector. Each element read is atomic; the
    /// snapshot as a whole is *not* a consistent cut — exactly the
    /// inconsistency Hogwild tolerates by design.
    pub fn snapshot(&self) -> Vec<f32> {
        self.data.iter().map(|a| a.load()).collect()
    }

    /// Snapshot into an existing buffer.
    ///
    /// # Panics
    /// Panics if `out.len() != self.len()`.
    pub fn snapshot_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "snapshot length mismatch");
        for (o, a) in out.iter_mut().zip(&self.data) {
            *o = a.load();
        }
    }

    /// The lock-free Hogwild-EASGD center update for one arriving worker:
    /// `W̄ ← W̄ + ηρ(Wᵢ − W̄)`, applied component-wise with atomic
    /// read-modify-write and *no* lock across components.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn elastic_center_update(&self, eta: f32, rho: f32, local: &[f32]) {
        assert_eq!(local.len(), self.len(), "center update length mismatch");
        let c = eta * rho;
        for (a, &w) in self.data.iter().zip(local) {
            a.update(|center| center + c * (w - center));
        }
    }

    /// The lock-free Hogwild-SGD update: `W ← W − η·grad`, component-wise.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn sgd_update(&self, eta: f32, grad: &[f32]) {
        assert_eq!(grad.len(), self.len(), "sgd update length mismatch");
        for (a, &g) in self.data.iter().zip(grad) {
            a.fetch_add(-eta * g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn load_store_roundtrip() {
        let a = AtomicF32::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let a = AtomicF32::new(1.0);
        assert_eq!(a.fetch_add(2.0), 1.0);
        assert_eq!(a.load(), 3.0);
    }

    #[test]
    fn concurrent_fetch_add_loses_no_updates() {
        // The whole point of the CAS loop: with 8 threads × 10_000 adds of
        // 1.0 the result is exactly 80_000 (all values exactly
        // representable, additions of integers in f32 are associative here).
        let buf = Arc::new(AtomicBuffer::zeros(4));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let buf = Arc::clone(&buf);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        buf.fetch_add(t % 4, 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total: f32 = buf.snapshot().iter().sum();
        assert_eq!(total, 80_000.0);
    }

    #[test]
    fn snapshot_matches_stores() {
        let buf = AtomicBuffer::from_slice(&[1.0, 2.0, 3.0]);
        buf.store(1, 9.0);
        assert_eq!(buf.snapshot(), vec![1.0, 9.0, 3.0]);
        let mut out = vec![0.0; 3];
        buf.snapshot_into(&mut out);
        assert_eq!(out, vec![1.0, 9.0, 3.0]);
    }

    #[test]
    fn elastic_center_update_single_thread_matches_scalar() {
        let buf = AtomicBuffer::from_slice(&[0.0]);
        buf.elastic_center_update(0.1, 0.5, &[2.0]);
        assert!((buf.load(0) - 0.1f32 * 0.5 * 2.0).abs() < 1e-7);
    }

    #[test]
    fn concurrent_center_updates_stay_bounded() {
        // Center pulled toward worker values in [0,1] from many threads must
        // remain in [0,1]: each atomic update is a convex combination, so no
        // interleaving can escape the hull. This is the safety property the
        // paper's Hogwild-EASGD proof appendix relies on.
        let buf = Arc::new(AtomicBuffer::zeros(16));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let buf = Arc::clone(&buf);
                std::thread::spawn(move || {
                    let w = vec![(t as f32 + 1.0) / 8.0; 16];
                    for _ in 0..1000 {
                        buf.elastic_center_update(0.5, 0.9, &w);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for v in buf.snapshot() {
            assert!((0.0..=1.0).contains(&v), "center escaped hull: {v}");
        }
    }

    #[test]
    fn sgd_update_descends() {
        let buf = AtomicBuffer::from_slice(&[1.0, 1.0]);
        buf.sgd_update(0.5, &[2.0, -2.0]);
        assert_eq!(buf.snapshot(), vec![0.0, 2.0]);
    }
}
