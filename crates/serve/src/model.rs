//! The hot-swappable model slot shared by every session.
//!
//! A [`ModelSlot`] holds the served [`ClassifierPipeline`] behind an
//! `Arc` that sessions clone per *generation*: a session builds its
//! `OnlineClassifier` against one pinned `Arc`, and polls the slot's
//! epoch between frames. When [`ModelSlot::swap`] installs a new
//! pipeline the epoch bumps; each session notices at its next frame,
//! drains its current classifier's telemetry into the session outcome,
//! and rebuilds against the new pipeline — the TCP connection never
//! drops.
//!
//! The previous fingerprint is remembered so `Hello` gating can accept
//! clients pinned to the superseded model during the drain window:
//! [`ModelSlot::accepts`] admits the wildcard `0`, the current id, and
//! the immediately-previous id (until the *next* swap retires it).

use crate::lock;
use appclass_core::ClassifierPipeline;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The served pipeline plus the bookkeeping that makes swapping it safe
/// to observe without a lock: fingerprints and the generation epoch are
/// plain atomics, and only [`ModelSlot::current`]/[`ModelSlot::swap`]
/// touch the mutex.
#[derive(Debug)]
pub struct ModelSlot {
    pipeline: Mutex<Arc<ClassifierPipeline>>,
    current_id: AtomicU64,
    prev_id: AtomicU64,
    epoch: AtomicU64,
}

impl ModelSlot {
    /// Wraps the initial pipeline; epoch starts at 0 with no previous
    /// version.
    pub fn new(pipeline: Arc<ClassifierPipeline>) -> Self {
        let id = pipeline.model_id();
        ModelSlot {
            pipeline: Mutex::new(pipeline),
            current_id: AtomicU64::new(id),
            prev_id: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    /// A handle on the currently-served pipeline. Sessions pin this for
    /// one generation; a concurrent swap never invalidates it.
    pub fn current(&self) -> Arc<ClassifierPipeline> {
        Arc::clone(&lock(&self.pipeline))
    }

    /// Fingerprint of the currently-served model.
    pub fn current_id(&self) -> u64 {
        self.current_id.load(Ordering::SeqCst)
    }

    /// Fingerprint retired by the last swap (0 = never swapped).
    pub fn prev_id(&self) -> u64 {
        self.prev_id.load(Ordering::SeqCst)
    }

    /// Generation counter; bumps on every effective swap.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether a client offering this fingerprint in its `Hello` may be
    /// admitted: the wildcard `0`, the current model, or — during the
    /// drain window after a swap — the model it just replaced.
    pub fn accepts(&self, offered: u64) -> bool {
        if offered == 0 || offered == self.current_id() {
            return true;
        }
        let prev = self.prev_id();
        prev != 0 && offered == prev
    }

    /// Installs `new` as the served model and returns
    /// `(old_id, new_id)`. Swapping in the model already served is a
    /// no-op (ids equal, epoch untouched), so re-announcing the active
    /// version never churns sessions.
    pub fn swap(&self, new: Arc<ClassifierPipeline>) -> (u64, u64) {
        let new_id = new.model_id();
        let mut guard = lock(&self.pipeline);
        let old_id = self.current_id.load(Ordering::SeqCst);
        if new_id == old_id {
            return (old_id, old_id);
        }
        *guard = new;
        self.prev_id.store(old_id, Ordering::SeqCst);
        self.current_id.store(new_id, Ordering::SeqCst);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        (old_id, new_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appclass_core::{AppClass, PipelineConfig};
    use appclass_linalg::Matrix;
    use appclass_metrics::{MetricId, METRIC_COUNT};

    fn trained(cpu: f64) -> ClassifierPipeline {
        let mut m = Matrix::zeros(10, METRIC_COUNT);
        for i in 0..10 {
            m[(i, MetricId::CpuUser.index())] = cpu + (i % 3) as f64;
        }
        let idle = Matrix::zeros(10, METRIC_COUNT);
        let runs = vec![(m, AppClass::Cpu), (idle, AppClass::Idle)];
        ClassifierPipeline::train(&runs, &PipelineConfig::paper()).unwrap()
    }

    #[test]
    fn swap_updates_ids_and_epoch() {
        let a = Arc::new(trained(80.0));
        let b = Arc::new(trained(60.0));
        let (ida, idb) = (a.model_id(), b.model_id());
        assert_ne!(ida, idb);
        let slot = ModelSlot::new(a);
        assert_eq!(slot.current_id(), ida);
        assert_eq!(slot.prev_id(), 0);
        assert_eq!(slot.epoch(), 0);
        let (old, new) = slot.swap(b);
        assert_eq!((old, new), (ida, idb));
        assert_eq!(slot.current_id(), idb);
        assert_eq!(slot.prev_id(), ida);
        assert_eq!(slot.epoch(), 1);
        assert_eq!(slot.current().model_id(), idb);
    }

    #[test]
    fn a_panic_while_holding_the_lock_leaves_the_slot_usable() {
        let a = Arc::new(trained(80.0));
        let b = Arc::new(trained(60.0));
        let slot = ModelSlot::new(Arc::clone(&a));
        let held = std::panic::catch_unwind(|| {
            let _guard = slot.pipeline.lock().unwrap();
            panic!("poisons the slot's lock");
        });
        assert!(held.is_err() && slot.pipeline.is_poisoned());
        assert_eq!(slot.current().model_id(), a.model_id());
        assert_eq!(slot.swap(Arc::clone(&b)), (a.model_id(), b.model_id()));
        assert_eq!(slot.current().model_id(), b.model_id());
        assert_eq!(slot.epoch(), 1);
    }

    #[test]
    fn swap_to_same_model_is_a_noop() {
        let a = Arc::new(trained(80.0));
        let slot = ModelSlot::new(Arc::clone(&a));
        let (old, new) = slot.swap(a);
        assert_eq!(old, new);
        assert_eq!(slot.epoch(), 0);
        assert_eq!(slot.prev_id(), 0);
    }

    #[test]
    fn accepts_wildcard_current_and_drained_prev() {
        let a = Arc::new(trained(80.0));
        let b = Arc::new(trained(60.0));
        let (ida, idb) = (a.model_id(), b.model_id());
        let slot = ModelSlot::new(a);
        assert!(slot.accepts(0));
        assert!(slot.accepts(ida));
        assert!(!slot.accepts(idb));
        slot.swap(b);
        assert!(slot.accepts(0));
        assert!(slot.accepts(idb));
        assert!(slot.accepts(ida), "previous model stays valid through the drain window");
        assert!(!slot.accepts(0x1234));
    }
}
