//! Canary: a wall-clock read in simulation scope.
// clippy: use of a disallowed method `std::time::Instant::now`
pub fn stamp() {
    let _ = std::time::Instant::now();
}
