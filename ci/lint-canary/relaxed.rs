//! Canary: a relaxed load of an atomic type the name bans do not list, which
//! ci.sh's waiver count sees and clippy does not.
pub fn peek(n: &std::sync::atomic::AtomicI64) -> i64 {
    n.load(std::sync::atomic::Ordering::Relaxed)
}
