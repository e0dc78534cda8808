//! Canary: the allowed spellings of what the other canaries do. clippy and
//! ci.sh's waiver count must both pass it.
use std::cell::Cell;
use std::collections::BTreeMap;

thread_local! {
    static CHECKS: Cell<u64> = const { Cell::new(0) };
}

pub fn tally(flag: bool) -> BTreeMap<bool, u64> {
    CHECKS.set(CHECKS.get() + 1);
    BTreeMap::from([(flag, CHECKS.get())])
}
