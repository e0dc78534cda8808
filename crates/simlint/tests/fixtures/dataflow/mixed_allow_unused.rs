// Fixture: an allow naming a dataflow rule and a per-file rule above a
// line neither fires on is stale, and is reported `unused-allow` once.

fn clean() -> u64 {
    // simlint: allow(panic-path, wall-clock) -- left behind
    7
}
