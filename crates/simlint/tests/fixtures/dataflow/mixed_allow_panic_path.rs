// Fixture: `panic_path_trigger.rs` with an allow naming a dataflow rule
// and a per-file rule on the unwrap. It suppresses the `panic-path`
// finding, so it is in use — not stale.

pub fn transfer(q: &Queue) {
    deliver(q);
}

fn deliver(q: &Queue) {
    q.items.borrow_mut().pop_front().unwrap(); // simlint: allow(panic-path, wall-clock) -- fixture
}
