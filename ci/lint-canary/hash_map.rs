//! Canary: a hash-ordered container in simulation scope.
// clippy: use of a disallowed type `std::collections::HashMap`
pub fn table() -> std::collections::HashMap<u32, u32> {
    Default::default()
}
