//! The serve→cluster composition feed.
//!
//! The paper's loop runs monitoring → classification → scheduling; the
//! serve stack covers the first two legs and this module is the splice
//! to the third. Every session publishes its classifier's running
//! verdict — majority class, five-class composition, confidence — into
//! a shared [`CompositionFeed`] keyed by session id. The cluster
//! controller polls the feed to learn what each VM *looks like* from
//! live telemetry, which is exactly the knowledge §4.3 says should
//! "assist future resource scheduling". Nothing in the feed is ground
//! truth: a misclassifying pipeline feeds the scheduler wrong classes,
//! and the placement regret that causes is measurable end-to-end.
//!
//! A session's last verdict outlives the session, so a controller that
//! polls after a VM's stream closed still reads it. The feed keeps the
//! last verdicts of the [`RETIRED_KEPT`] most recently ended sessions
//! and forgets older ones; a live session's entry is never evicted.
//! The feed therefore holds at most the live sessions plus
//! [`RETIRED_KEPT`] entries, however many sessions a server has served.

use crate::lock;
use appclass_core::{AppClass, ClassComposition};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Ended sessions whose last verdict the feed keeps; the oldest ended
/// session's entry is forgotten when one more ends.
pub const RETIRED_KEPT: usize = 1024;

/// One session's latest classification observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedEntry {
    /// Session id the server assigned at admission.
    pub session: u32,
    /// Majority class over the session's (windowed) snapshot history.
    pub class: AppClass,
    /// Five-class composition over the same history.
    pub composition: ClassComposition,
    /// Majority-vote confidence in `[0, 1]`.
    pub confidence: f64,
    /// Snapshots contributing to the verdict.
    pub frames: u64,
    /// Fingerprint of the model generation that produced the verdict.
    pub model: u64,
    /// Trace id the publishing session last saw on its telemetry stream
    /// (`0` = untraced). Lets a cluster placement decision link back to
    /// the distributed trace of the telemetry that motivated it.
    pub trace: u64,
}

/// Shared, cheaply clonable map of the latest observation per session.
///
/// Handles clone like `Arc`: every clone sees every publish. Entries are
/// keyed by session id and overwritten in place, so the feed holds the
/// *current* belief about each streaming VM, not a history. Servers
/// [`retire`](CompositionFeed::retire) a session when it ends, which
/// bounds the feed (see the module docs).
#[derive(Clone, Default)]
pub struct CompositionFeed {
    inner: Arc<Mutex<FeedState>>,
}

#[derive(Default)]
struct FeedState {
    /// Each session's latest observation, and whether the session ended.
    entries: BTreeMap<u32, (FeedEntry, bool)>,
    /// Ended sessions that left an entry, oldest first.
    retired: VecDeque<u32>,
}

impl CompositionFeed {
    /// An empty feed.
    pub fn new() -> Self {
        CompositionFeed::default()
    }

    /// Publishes (or overwrites) a session's latest observation.
    pub fn publish(&self, entry: FeedEntry) {
        lock(&self.inner)
            .entries
            .entry(entry.session)
            .and_modify(|(latest, _)| *latest = entry)
            .or_insert((entry, false));
    }

    /// Marks a session ended. Its last observation stays readable until
    /// [`RETIRED_KEPT`] later sessions have ended; then it is forgotten.
    /// A session that never published leaves nothing to keep, and a
    /// session already marked ended keeps its place.
    pub fn retire(&self, session: u32) {
        let mut state = lock(&self.inner);
        match state.entries.get_mut(&session) {
            Some((_, ended)) if !*ended => *ended = true,
            _ => return,
        }
        state.retired.push_back(session);
        if state.retired.len() > RETIRED_KEPT {
            if let Some(oldest) = state.retired.pop_front() {
                state.entries.remove(&oldest);
            }
        }
    }

    /// The latest observation for one session.
    pub fn get(&self, session: u32) -> Option<FeedEntry> {
        lock(&self.inner).entries.get(&session).map(|&(entry, _)| entry)
    }

    /// A point-in-time copy of every session's latest observation, in
    /// session-id order.
    pub fn entries(&self) -> Vec<FeedEntry> {
        lock(&self.inner).entries.values().map(|&(entry, _)| entry).collect()
    }

    /// Number of sessions with an observation.
    pub fn len(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    /// True when no session has published yet.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).entries.is_empty()
    }

    /// Forgets one session (e.g. after its VM is torn down).
    pub fn remove(&self, session: u32) -> Option<FeedEntry> {
        lock(&self.inner).entries.remove(&session).map(|(entry, _)| entry)
    }

    /// Forgets everything.
    pub fn clear(&self) {
        let mut state = lock(&self.inner);
        state.entries.clear();
        state.retired.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(session: u32, class: AppClass) -> FeedEntry {
        FeedEntry {
            session,
            class,
            composition: ClassComposition::from_labels(&[class]),
            confidence: 1.0,
            frames: 1,
            model: 7,
            trace: 0,
        }
    }

    #[test]
    fn publish_overwrites_per_session() {
        let feed = CompositionFeed::new();
        assert!(feed.is_empty());
        feed.publish(entry(3, AppClass::Cpu));
        feed.publish(entry(3, AppClass::Io));
        assert_eq!(feed.len(), 1);
        assert_eq!(feed.get(3).unwrap().class, AppClass::Io);
    }

    #[test]
    fn clones_share_state_and_order_is_stable() {
        let feed = CompositionFeed::new();
        let other = feed.clone();
        feed.publish(entry(9, AppClass::Net));
        other.publish(entry(2, AppClass::Mem));
        let sessions: Vec<u32> = feed.entries().iter().map(|e| e.session).collect();
        assert_eq!(sessions, vec![2, 9]);
        assert_eq!(other.remove(9).unwrap().class, AppClass::Net);
        feed.clear();
        assert!(other.is_empty());
    }

    #[test]
    fn retired_sessions_are_forgotten_oldest_first_and_live_ones_kept() {
        let feed = CompositionFeed::new();
        // Session 0 stays live throughout; 1..=RETIRED_KEPT + 2 end in
        // id order, and one session ends without having published.
        feed.publish(entry(0, AppClass::Cpu));
        let last = RETIRED_KEPT as u32 + 2;
        for s in 1..=last {
            feed.publish(entry(s, AppClass::Io));
            feed.retire(s);
        }
        feed.retire(last + 1);
        feed.retire(last); // ended already: it must not take a second place
        assert_eq!(feed.len(), RETIRED_KEPT + 1, "the live session plus the kept ones");
        assert!(feed.get(0).is_some(), "a live session is never evicted");
        assert!(feed.get(1).is_none() && feed.get(2).is_none(), "the two oldest are gone");
        assert!((3..=last).all(|s| feed.get(s).is_some()));

        // A removed entry's turn in the queue evicts nothing else.
        feed.remove(3);
        feed.publish(entry(last + 2, AppClass::Net));
        feed.retire(last + 2);
        assert!(feed.get(4).is_some());
        assert_eq!(feed.len(), RETIRED_KEPT + 1);
    }

    #[test]
    fn a_panic_while_holding_the_lock_leaves_the_feed_usable() {
        let feed = CompositionFeed::new();
        feed.publish(entry(1, AppClass::Cpu));
        let held = std::panic::catch_unwind(|| {
            let _guard = feed.inner.lock().unwrap();
            panic!("poisons the feed's lock");
        });
        assert!(held.is_err() && feed.inner.is_poisoned());
        feed.publish(entry(2, AppClass::Io));
        feed.retire(1);
        feed.retire(1);
        assert_eq!(feed.get(1).unwrap().class, AppClass::Cpu);
        let sessions: Vec<u32> = feed.entries().iter().map(|e| e.session).collect();
        assert_eq!(sessions, vec![1, 2]);
        assert_eq!(lock(&feed.inner).retired, [1]);
    }
}
