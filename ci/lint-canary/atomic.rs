//! Canary: an atomic in simulation scope.
// clippy: use of a disallowed type `std::sync::atomic::AtomicU64`
pub static CHECKS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
