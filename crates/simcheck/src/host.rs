//! Host-model conformance oracle: memory-registration bounds.
//!
//! [`MrShadowOracle`] maintains an independent shadow of the registration
//! table (key → base/len) fed by the registry's mutation points, then
//! cross-validates every bounds decision the production
//! `hostmodel::mem::MemoryRegistry::check` makes. A registry bug — stale
//! key surviving eviction, off-by-one bounds arithmetic — shows up as a
//! disagreement between the two answers.

use crate::{note_check, record, Rule, Violation};
use std::collections::BTreeMap;

const FABRIC: &str = "host";

/// Shadow registration table keyed by the registry's `MemKey` value.
#[derive(Debug, Default)]
pub struct MrShadowOracle {
    regions: BTreeMap<u32, (u64, u64)>,
}

impl MrShadowOracle {
    pub fn new() -> Self {
        Self::default()
    }

    fn fire(&self, detail: String, now_ns: Option<u64>) -> Violation {
        record(Violation {
            rule: Rule::MrBounds,
            sim_time_ns: now_ns,
            fabric: FABRIC,
            conn: 0,
            detail,
        })
    }

    /// Observe a registration (`register_pinned`, `register_cached` miss).
    pub fn on_register(
        &mut self,
        key: u32,
        base: u64,
        len: u64,
        now_ns: Option<u64>,
    ) -> Option<Violation> {
        note_check(Rule::MrBounds);
        if self.regions.insert(key, (base, len)).is_some() {
            return Some(self.fire(
                format!("MemKey {key} reissued while still registered"),
                now_ns,
            ));
        }
        None
    }

    /// Observe a deregistration (explicit or pin-down-cache eviction).
    pub fn on_deregister(&mut self, key: u32, now_ns: Option<u64>) -> Option<Violation> {
        note_check(Rule::MrBounds);
        if self.regions.remove(&key).is_none() {
            return Some(self.fire(format!("deregister of unknown MemKey {key}"), now_ns));
        }
        None
    }

    /// Cross-validate one bounds check: `nic_answer` is what the production
    /// registry decided for `(key, addr, len)`.
    pub fn observe_check(
        &self,
        key: u32,
        addr: u64,
        len: u64,
        nic_answer: bool,
        now_ns: Option<u64>,
    ) -> Option<Violation> {
        note_check(Rule::MrBounds);
        let shadow_answer = match self.regions.get(&key) {
            // An end that wraps past u64::MAX is never covered.
            Some(&(base, rlen)) => {
                addr >= base
                    && addr
                        .checked_add(len)
                        .zip(base.checked_add(rlen))
                        .is_some_and(|(end, region_end)| end <= region_end)
            }
            None => false,
        };
        if shadow_answer != nic_answer {
            return Some(self.fire(
                format!(
                    "bounds check disagreement for key {key} addr {addr:#x} len {len}: \
                     registry says {nic_answer}, shadow says {shadow_answer}"
                ),
                now_ns,
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_agrees_with_correct_registry() {
        let mut o = MrShadowOracle::new();
        assert_eq!(o.on_register(1, 0x1000, 4096, None), None);
        assert_eq!(o.observe_check(1, 0x1000, 4096, true, None), None);
        assert_eq!(o.observe_check(1, 0x1000, 4097, false, None), None);
        assert_eq!(o.observe_check(2, 0x1000, 1, false, None), None);
        assert_eq!(o.on_deregister(1, None), None);
        assert_eq!(o.observe_check(1, 0x1000, 1, false, None), None);
    }

    #[test]
    fn shadow_rejects_an_access_whose_end_wraps() {
        let mut o = MrShadowOracle::new();
        o.on_register(1, 0x1000, 4096, None);
        assert_eq!(
            o.observe_check(1, 0x1000 + 100, u64::MAX - 50, false, None),
            None
        );
        assert!(o
            .observe_check(1, 0x1000 + 100, u64::MAX - 50, true, None)
            .is_some());
    }

    #[test]
    fn shadow_fires_when_registry_accepts_out_of_bounds() {
        // Seeded corruption: registry claims an access past the region end
        // is fine.
        let mut o = MrShadowOracle::new();
        o.on_register(1, 0x1000, 4096, None);
        let v = o
            .observe_check(1, 0x1000, 8192, true, Some(7))
            .expect("must fire");
        assert_eq!(v.rule, Rule::MrBounds);
        assert!(v.detail.contains("disagreement"), "{}", v.detail);
    }

    #[test]
    fn shadow_fires_when_registry_honors_stale_key() {
        // Seeded corruption: key evicted from the shadow but registry still
        // answers true (stale-key bug).
        let mut o = MrShadowOracle::new();
        o.on_register(1, 0x1000, 4096, None);
        o.on_deregister(1, None);
        let v = o
            .observe_check(1, 0x1000, 16, true, None)
            .expect("must fire");
        assert!(v.detail.contains("shadow says false"), "{}", v.detail);
    }

    #[test]
    fn shadow_fires_on_double_register_and_unknown_deregister() {
        let mut o = MrShadowOracle::new();
        o.on_register(1, 0x1000, 64, None);
        assert!(o.on_register(1, 0x2000, 64, None).is_some());
        let mut o = MrShadowOracle::new();
        assert!(o.on_deregister(9, None).is_some());
    }
}
