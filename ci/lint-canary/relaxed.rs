//! Canary: a relaxed atomic load, which ci.sh's waiver count sees and clippy
//! does not.
pub fn peek(flag: &std::sync::atomic::AtomicBool) -> bool {
    flag.load(std::sync::atomic::Ordering::Relaxed)
}
