//! A bounded, process-wide LRU registry of shared immutable values.
//!
//! This generalizes the [`crate::memo::SolveMemo`] sharing pattern: a
//! `String`-fingerprinted map of `Arc<T>` handles with a capacity bound
//! and least-recently-used eviction. Eviction only drops the registry's
//! route to a value — live `Arc` holders keep theirs — so a registry
//! can never invalidate a handle it already gave out. That is exactly
//! the lock-free read discipline the steady-state fast path needs:
//! readers clone an `Arc` once and then never touch the registry mutex
//! again.

use pbc_types::Result;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Poison-tolerant lock: a panicking holder must not wedge every later
/// caller (the sweep's panic contract re-raises on the calling thread,
/// so the data behind the mutex is still consistent).
pub(crate) fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Inner<T> {
    /// fingerprint → (value, last-use stamp).
    entries: HashMap<String, (Arc<T>, u64)>,
    /// Monotone use counter driving the LRU stamps.
    clock: u64,
}

/// A bounded registry of shared `Arc<T>` values keyed by an exact
/// fingerprint string. When an insert would overflow `capacity`, the
/// least-recently-used entry is dropped (optionally counted under an
/// eviction counter from `pbc_trace::names`).
pub struct BoundedRegistry<T> {
    capacity: usize,
    eviction_counter: Option<&'static str>,
    inner: Mutex<Inner<T>>,
}

impl<T> BoundedRegistry<T> {
    /// Build an empty registry bounded at `capacity` entries. Evictions
    /// increment `eviction_counter` when one is given.
    #[must_use]
    pub fn new(capacity: usize, eviction_counter: Option<&'static str>) -> Self {
        Self {
            capacity: capacity.max(1),
            eviction_counter,
            inner: Mutex::new(Inner { entries: HashMap::new(), clock: 0 }),
        }
    }

    /// The value registered under `key`, freshening its LRU stamp.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<T>> {
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let now = inner.clock;
        inner.entries.get_mut(key).map(|(value, stamp)| {
            *stamp = now;
            Arc::clone(value)
        })
    }

    /// The value registered under `key`, building (and registering) it
    /// if absent. The build runs *under the registry lock*, so it must
    /// be cheap — constructing an empty cache, not filling one. For
    /// expensive builds use [`Self::get_or_try_build`].
    pub fn get_or_build(&self, key: &str, build: impl FnOnce() -> T) -> Arc<T> {
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let now = inner.clock;
        if let Some((value, stamp)) = inner.entries.get_mut(key) {
            *stamp = now;
            return Arc::clone(value);
        }
        let value = Arc::new(build());
        self.insert_bounded(&mut inner, key, Arc::clone(&value), now);
        value
    }

    /// Like [`Self::get_or_build`] for fallible, *expensive* builds: the
    /// build runs with the registry unlocked (it may itself run a whole
    /// oracle sweep), then the result is inserted double-checked — if another
    /// thread registered `key` while this one was building, the earlier
    /// entry wins and is returned, so all callers share one handle.
    #[must_use = "the registry result carries either the shared handle or the build failure"]
    pub fn get_or_try_build(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<T>,
    ) -> Result<Arc<T>> {
        if let Some(existing) = self.get(key) {
            return Ok(existing);
        }
        let built = Arc::new(build()?);
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let now = inner.clock;
        if let Some((value, stamp)) = inner.entries.get_mut(key) {
            *stamp = now;
            return Ok(Arc::clone(value));
        }
        self.insert_bounded(&mut inner, key, Arc::clone(&built), now);
        Ok(built)
    }

    fn insert_bounded(&self, inner: &mut Inner<T>, key: &str, value: Arc<T>, now: u64) {
        while inner.entries.len() >= self.capacity {
            // Evict the least-recently-used fingerprint to stay bounded.
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    inner.entries.remove(&k);
                    if let Some(name) = self.eviction_counter {
                        pbc_trace::counter(name).incr();
                    }
                }
                None => break,
            }
        }
        inner.entries.insert(key.to_string(), (value, now));
    }

    /// Drop every registered entry (live `Arc` holders are unaffected).
    pub fn clear(&self) {
        lock(&self.inner).entries.clear();
    }

    /// Entries currently registered (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    /// True when nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::PbcError;

    #[test]
    fn get_or_build_shares_one_handle() {
        let reg: BoundedRegistry<u32> = BoundedRegistry::new(4, None);
        let a = reg.get_or_build("k", || 7);
        let b = reg.get_or_build("k", || unreachable!("already registered"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, 7);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let reg: BoundedRegistry<usize> = BoundedRegistry::new(3, None);
        for i in 0..3 {
            let _ = reg.get_or_build(&format!("k{i}"), || i);
        }
        // Touch k0 so k1 is the LRU victim.
        assert!(reg.get("k0").is_some());
        let _ = reg.get_or_build("k3", || 3);
        assert_eq!(reg.len(), 3);
        assert!(reg.get("k0").is_some());
        assert!(reg.get("k1").is_none(), "LRU entry must be evicted");
        assert!(reg.get("k3").is_some());
    }

    #[test]
    fn try_build_propagates_errors_and_registers_successes() {
        let reg: BoundedRegistry<u32> = BoundedRegistry::new(4, None);
        let err = reg.get_or_try_build("bad", || {
            Err(PbcError::InvalidInput("nope".into()))
        });
        assert!(err.is_err());
        assert!(reg.is_empty(), "failed builds must not register");
        let ok = reg.get_or_try_build("good", || Ok(5)).unwrap();
        let again = reg.get_or_try_build("good", || Ok(99)).unwrap();
        assert!(Arc::ptr_eq(&ok, &again));
        assert_eq!(*again, 5, "the first successful build wins");
    }

    #[test]
    fn clear_drops_routes_but_not_live_handles() {
        let reg: BoundedRegistry<String> = BoundedRegistry::new(4, None);
        let held = reg.get_or_build("k", || "v".to_string());
        reg.clear();
        assert!(reg.is_empty());
        assert_eq!(held.as_str(), "v");
    }
}
