//! Canary: the allowed spellings of what the other canaries do. clippy and
//! ci.sh's waiver count must both pass it.
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

pub fn tally(flag: &AtomicBool) -> BTreeMap<bool, u32> {
    BTreeMap::from([(flag.load(Ordering::SeqCst), 1)])
}
