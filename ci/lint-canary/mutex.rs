//! Canary: a lock in simulation scope.
// clippy: use of a disallowed type `std::sync::Mutex`
pub static LOG: std::sync::Mutex<Vec<u8>> = std::sync::Mutex::new(Vec::new());
