//! Canary: an OS thread in simulation scope.
// clippy: use of a disallowed method `std::thread::spawn`
pub fn fork() {
    std::thread::spawn(|| ());
}
