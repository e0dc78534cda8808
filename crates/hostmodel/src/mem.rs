//! Host virtual memory and the memory-registration model.
//!
//! RDMA fabrics require buffers to be *registered* (pinned and translated)
//! before the NIC may touch them. Registration is a syscall plus per-page
//! pinning work, and is expensive enough that MPI implementations keep a
//! pin-down cache keyed by buffer address. The paper's buffer-reuse
//! experiment (Fig. 6) measures precisely this machinery, so it is modelled
//! explicitly here:
//!
//! * [`HostMem`] — a sparse, page-granular per-host address space with real
//!   byte storage, so RDMA placement is verifiable end-to-end in tests.
//!   Allocation only reserves addresses; a page is materialised the first
//!   time something writes it, and untouched memory reads as zeros.
//! * [`MemoryRegistry`] — registration bookkeeping: per-page pinning costs,
//!   key (STag/lkey) allocation and validation, and an LRU pin-down cache.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use simnet::SimDuration;

use crate::cpu::Cpu;
use crate::lru::LruCache;

/// Hardware page size used for pinning-cost accounting.
pub(crate) const PAGE_SIZE: u64 = 4096;

/// A virtual address in a simulated host's address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Byte offset addition.
    ///
    /// # Panics
    /// If the result does not fit in the 64-bit address space.
    #[inline]
    pub fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.region_end(bytes))
    }

    /// Number of pages a `[self, self+len)` region touches.
    ///
    /// # Panics
    /// If the region's end does not fit in the 64-bit address space.
    #[inline]
    pub fn pages(self, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = self.0 / PAGE_SIZE;
        let last = (self.region_end(len) - 1) / PAGE_SIZE;
        last - first + 1
    }

    /// One past the last byte of `[self, self+len)`.
    #[inline]
    fn region_end(self, len: u64) -> u64 {
        match self.0.checked_add(len) {
            Some(end) => end,
            None => panic!("address overflow: {self:?} + {len} bytes wraps past u64::MAX"),
        }
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A sparse, page-granular address space with real storage.
///
/// Allocation only advances a bump pointer. A `PAGE_SIZE` page is created,
/// zeroed, the first time [`write`](Self::write) or [`fill`](Self::fill)
/// touches it, and [`read`](Self::read) returns zeros for pages nothing has
/// written — the same bytes a zero-initialised arena would hold, without
/// paying for buffers whose contents no one reads.
#[derive(Clone, Default)]
pub struct HostMem {
    inner: Rc<RefCell<MemInner>>,
}

#[derive(Default)]
struct MemInner {
    /// Materialised pages keyed by page index; an absent page reads as zeros.
    pages: BTreeMap<u64, Box<[u8]>>,
    /// Bump pointer: the lowest unallocated address.
    next: u64,
}

impl MemInner {
    /// Page `index`, zero-filled on first touch.
    fn page_mut(&mut self, index: u64) -> &mut [u8] {
        self.pages
            .entry(index)
            .or_insert_with(|| vec![0; PAGE_SIZE as usize].into_boxed_slice())
    }
}

/// Split `[addr, addr+len)` into per-page runs, in address order:
/// `(page index, offset within the page, run length)`.
fn page_runs(addr: VirtAddr, len: u64) -> impl Iterator<Item = (u64, usize, usize)> {
    let end = addr.region_end(len);
    let mut at = addr.0;
    std::iter::from_fn(move || {
        if at == end {
            return None;
        }
        let within = at % PAGE_SIZE;
        let run = (PAGE_SIZE - within).min(end - at);
        let page = at / PAGE_SIZE;
        at += run;
        Some((page, within as usize, run as usize))
    })
}

impl HostMem {
    /// Create an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate `len` bytes aligned to `align` (power of two), returning the
    /// base address. The range reads as zeros until something writes it.
    ///
    /// # Panics
    /// If `align` is not a power of two, or the allocation would extend past
    /// the 64-bit address space.
    pub(crate) fn alloc(&self, len: u64, align: u64) -> VirtAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mut m = self.inner.borrow_mut();
        let next = m.next;
        let Some((base, end)) = next
            .checked_next_multiple_of(align)
            .and_then(|base| Some((base, base.checked_add(len)?)))
        else {
            panic!(
                "host memory overflow: allocating {len} bytes aligned to {align} \
                 above {next:#x} wraps past u64::MAX"
            );
        };
        m.next = end;
        VirtAddr(base)
    }

    /// Allocate a page-aligned buffer (the common case for RDMA buffers).
    pub fn alloc_buffer(&self, len: u64) -> VirtAddr {
        self.alloc(len, PAGE_SIZE)
    }

    /// Write `data` at `addr`, materialising every page it touches.
    pub fn write(&self, addr: VirtAddr, data: &[u8]) {
        let mut m = self.inner.borrow_mut();
        let mut rest = data;
        for (page, within, run) in page_runs(addr, data.len() as u64) {
            let (head, tail) = rest.split_at(run);
            m.page_mut(page)[within..within + run].copy_from_slice(head);
            rest = tail;
        }
    }

    /// Read `len` bytes at `addr` into a fresh vector; bytes on pages nothing
    /// has written read as zeros.
    pub fn read(&self, addr: VirtAddr, len: u64) -> Vec<u8> {
        let m = self.inner.borrow();
        let mut out = vec![0; len as usize];
        let mut pos = 0;
        for (page, within, run) in page_runs(addr, len) {
            if let Some(bytes) = m.pages.get(&page) {
                out[pos..pos + run].copy_from_slice(&bytes[within..within + run]);
            }
            pos += run;
        }
        out
    }

    /// Fill `[addr, addr+len)` with `byte` (test workloads), materialising
    /// every page it touches.
    pub fn fill(&self, addr: VirtAddr, len: u64, byte: u8) {
        let mut m = self.inner.borrow_mut();
        for (page, within, run) in page_runs(addr, len) {
            m.page_mut(page)[within..within + run].fill(byte);
        }
    }

    /// Number of materialised pages.
    #[cfg(test)]
    fn resident_pages(&self) -> usize {
        self.inner.borrow().pages.len()
    }
}

/// Cost calibration for memory registration.
#[derive(Clone, Copy, Debug)]
pub struct RegistrationCosts {
    /// Fixed cost: syscall, NIC command, completion.
    pub base: SimDuration,
    /// Per-page cost: pinning and translation-table entry install.
    pub per_page: SimDuration,
    /// Deregistration cost (charged on cache eviction and explicit dereg).
    pub dereg: SimDuration,
    /// Pin-down cache lookup cost on a hit.
    pub cache_hit: SimDuration,
    /// Pin-down cache capacity in buffers. The paper's Fig. 6 cycles over 24
    /// buffers; implementations of the era cached fewer, so a 0%-reuse
    /// pattern thrashes while 100% reuse always hits.
    pub cache_capacity: usize,
}

impl Default for RegistrationCosts {
    fn default() -> Self {
        RegistrationCosts {
            base: SimDuration::from_micros(10),
            per_page: SimDuration::from_nanos(550),
            dereg: SimDuration::from_micros(5),
            cache_hit: SimDuration::from_nanos(150),
            cache_capacity: 16,
        }
    }
}

/// A registered-memory key (the iWARP STag / InfiniBand lkey-rkey analogue).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MemKey(pub u32);

/// Outcome of a registration request.
#[derive(Clone, Copy, Debug)]
pub struct Registration {
    /// Key to quote in RDMA operations.
    pub key: MemKey,
    /// Whether the pin-down cache satisfied the request.
    pub cache_hit: bool,
}

struct RegistryState {
    costs: RegistrationCosts,
    cache: LruCache<(u64, u64), MemKey>,
    regions: BTreeMap<MemKey, (VirtAddr, u64)>,
    next_key: u32,
    /// Conformance oracle: independent shadow of `regions`, cross-validated
    /// on every `check` (rule `host.mr-bounds`).
    shadow: simcheck::host::MrShadowOracle,
}

/// Registration bookkeeping for one NIC.
#[derive(Clone)]
pub struct MemoryRegistry {
    state: Rc<RefCell<RegistryState>>,
}

impl MemoryRegistry {
    /// Create a registry with the given cost calibration.
    pub fn new(costs: RegistrationCosts) -> Self {
        MemoryRegistry {
            state: Rc::new(RefCell::new(RegistryState {
                costs,
                cache: LruCache::new(costs.cache_capacity.max(1)),
                regions: BTreeMap::new(),
                next_key: 1,
                shadow: simcheck::host::MrShadowOracle::new(),
            })),
        }
    }

    /// Costs in effect.
    pub fn costs(&self) -> RegistrationCosts {
        self.state.borrow().costs
    }

    /// Register `[addr, addr+len)` through the pin-down cache, charging the
    /// calling `cpu` for the work. Hits cost `cache_hit`; misses cost
    /// `base + pages·per_page` plus a `dereg` if an entry had to be evicted.
    pub async fn register_cached(&self, cpu: &Cpu, addr: VirtAddr, len: u64) -> Registration {
        let cache_key = (addr.0, len);
        // Fast path: hit.
        let hit = {
            let mut s = self.state.borrow_mut();
            s.cache.get(&cache_key).copied()
        };
        if let Some(key) = hit {
            let hit_cost = self.state.borrow().costs.cache_hit;
            cpu.work(hit_cost).await;
            return Registration {
                key,
                cache_hit: true,
            };
        }
        // Miss: full registration, possibly evicting (and deregistering) an
        // older cached region.
        let (key, cost) = {
            let mut s = self.state.borrow_mut();
            let key = MemKey(s.next_key);
            s.next_key += 1;
            s.regions.insert(key, (addr, len));
            let _ = s.shadow.on_register(key.0, addr.0, len, None);
            let mut cost = s.costs.base + s.costs.per_page * addr.pages(len);
            if let Some((_old, old_key)) = s.cache.insert(cache_key, key) {
                s.regions.remove(&old_key);
                let _ = s.shadow.on_deregister(old_key.0, None);
                cost += s.costs.dereg;
            }
            (key, cost)
        };
        cpu.work(cost).await;
        Registration {
            key,
            cache_hit: false,
        }
    }

    /// Register a region permanently (outside the cache) — used for
    /// pre-registered eager bounce buffers at library init time.
    pub async fn register_pinned(&self, cpu: &Cpu, addr: VirtAddr, len: u64) -> MemKey {
        let (key, cost) = {
            let mut s = self.state.borrow_mut();
            let key = MemKey(s.next_key);
            s.next_key += 1;
            s.regions.insert(key, (addr, len));
            let _ = s.shadow.on_register(key.0, addr.0, len, None);
            (key, s.costs.base + s.costs.per_page * addr.pages(len))
        };
        cpu.work(cost).await;
        key
    }

    /// Explicitly deregister a region, charging `cpu`.
    pub async fn deregister(&self, cpu: &Cpu, key: MemKey) {
        let cost = {
            let mut s = self.state.borrow_mut();
            s.regions.remove(&key);
            let _ = s.shadow.on_deregister(key.0, None);
            // Purge any cache entry pointing at this key (small cache, so a
            // drain-and-reinsert pass is fine).
            let survivors: Vec<_> = s
                .cache
                .clear()
                .into_iter()
                .filter(|(_, v)| *v != key)
                .collect();
            for (k, v) in survivors {
                s.cache.insert(k, v);
            }
            s.costs.dereg
        };
        cpu.work(cost).await;
    }

    /// Validate that `key` covers `[addr, addr+len)` — the check a NIC
    /// performs before placing RDMA data. Returns false for unknown keys or
    /// out-of-bounds accesses (which surface as remote protection errors).
    /// An access whose end wraps past `u64::MAX` is out of bounds.
    pub fn check(&self, key: MemKey, addr: VirtAddr, len: u64) -> bool {
        let s = self.state.borrow();
        let ok = match s.regions.get(&key) {
            Some(&(base, rlen)) => {
                addr >= base
                    && addr
                        .0
                        .checked_add(len)
                        .zip(base.0.checked_add(rlen))
                        .is_some_and(|(end, region_end)| end <= region_end)
            }
            None => false,
        };
        let _ = s.shadow.observe_check(key.0, addr.0, len, ok, None);
        ok
    }

    /// Pin-down cache statistics: `(hits, misses, evictions)`.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        self.state.borrow().cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuCosts;
    use simnet::Sim;

    #[test]
    fn page_count_spans_boundaries() {
        assert_eq!(VirtAddr(0).pages(1), 1);
        assert_eq!(VirtAddr(0).pages(4096), 1);
        assert_eq!(VirtAddr(0).pages(4097), 2);
        assert_eq!(VirtAddr(4095).pages(2), 2); // straddles a boundary
        assert_eq!(VirtAddr(100).pages(0), 0);
    }

    #[test]
    fn alloc_respects_alignment_and_is_disjoint() {
        let mem = HostMem::new();
        let a = mem.alloc(100, 64);
        let b = mem.alloc(100, 4096);
        assert_eq!(a.0 % 64, 0);
        assert_eq!(b.0 % 4096, 0);
        assert!(b.0 >= a.0 + 100, "allocations must not overlap");
    }

    #[test]
    fn memory_roundtrips_data() {
        let mem = HostMem::new();
        let addr = mem.alloc_buffer(1024);
        mem.write(addr, b"iwarp vs ib vs mx");
        assert_eq!(mem.read(addr, 17), b"iwarp vs ib vs mx");
        mem.fill(addr, 4, b'x');
        assert_eq!(mem.read(addr, 5), b"xxxxp");
    }

    #[test]
    fn never_written_memory_reads_as_zeros() {
        let mem = HostMem::new();
        let addr = mem.alloc_buffer(3 * PAGE_SIZE);
        assert_eq!(
            mem.read(addr.offset(10), 2 * PAGE_SIZE),
            vec![0; 2 * PAGE_SIZE as usize]
        );
        assert_eq!(mem.resident_pages(), 0, "a read materialises nothing");
    }

    #[test]
    fn write_and_fill_straddle_page_boundaries() {
        let mem = HostMem::new();
        let addr = mem.alloc_buffer(8 * PAGE_SIZE);
        // One boundary: the last 3 bytes of page 0 and the first 2 of page 1.
        mem.write(addr.offset(PAGE_SIZE - 3), b"abcde");
        assert_eq!(mem.read(addr.offset(PAGE_SIZE - 4), 7), b"\0abcde\0");
        assert_eq!(mem.resident_pages(), 2);
        // Several boundaries: from mid page 2 to mid page 5.
        let data: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        let at = addr.offset(2 * PAGE_SIZE + PAGE_SIZE / 2);
        mem.write(at, &data);
        assert_eq!(mem.read(at, data.len() as u64), data);
        assert_eq!(mem.resident_pages(), 6);
        mem.fill(addr.offset(PAGE_SIZE - 1), 2 * PAGE_SIZE + 2, 0xee);
        let filled = mem.read(addr.offset(PAGE_SIZE - 2), 2 * PAGE_SIZE + 4);
        assert_eq!(filled[0], b'b');
        assert!(filled[1..filled.len() - 1].iter().all(|&b| b == 0xee));
        assert_eq!(filled[filled.len() - 1], data[PAGE_SIZE as usize / 2 + 1]);
        assert_eq!(mem.resident_pages(), 6);
    }

    #[test]
    fn read_spans_touched_untouched_and_touched_pages() {
        let mem = HostMem::new();
        let addr = mem.alloc_buffer(3 * PAGE_SIZE);
        mem.fill(addr, PAGE_SIZE, 1);
        mem.fill(addr.offset(2 * PAGE_SIZE), PAGE_SIZE, 3);
        let got = mem.read(addr.offset(PAGE_SIZE - 1), PAGE_SIZE + 2);
        let mut want = vec![0; PAGE_SIZE as usize + 2];
        want[0] = 1;
        want[PAGE_SIZE as usize + 1] = 3;
        assert_eq!(got, want);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn allocation_materialises_no_page_until_written() {
        let mem = HostMem::new();
        let bufs: Vec<VirtAddr> = (0..24).map(|_| mem.alloc_buffer(4 << 20)).collect();
        assert_eq!(mem.resident_pages(), 0);
        mem.write(bufs[23].offset((4 << 20) - 1), &[7]);
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    fn terabyte_buffer_is_free_until_touched() {
        let mem = HostMem::new();
        let addr = mem.alloc_buffer(1 << 40);
        assert_eq!(mem.resident_pages(), 0);
        let last = addr.offset((1 << 40) - 1);
        mem.write(last, &[0x5a]);
        assert_eq!(mem.read(last, 1), [0x5a]);
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "host memory overflow")]
    fn allocation_past_the_address_space_panics_with_a_name() {
        let mem = HostMem::new();
        mem.alloc_buffer(1 << 40);
        mem.alloc_buffer(u64::MAX - (1 << 39));
    }

    #[test]
    #[should_panic(expected = "address overflow")]
    fn offset_past_the_address_space_panics_with_a_name() {
        VirtAddr(u64::MAX - 1).offset(2);
    }

    #[test]
    fn registration_miss_charges_per_page() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, CpuCosts::default());
        let reg = MemoryRegistry::new(RegistrationCosts {
            base: SimDuration::from_micros(10),
            per_page: SimDuration::from_micros(1),
            ..RegistrationCosts::default()
        });
        let mem = HostMem::new();
        let addr = mem.alloc_buffer(8 * PAGE_SIZE);
        let (r, t) = {
            let s = sim.clone();
            sim.block_on(async move {
                let r = reg.register_cached(&cpu, addr, 8 * PAGE_SIZE).await;
                (r, s.now())
            })
        };
        assert!(!r.cache_hit);
        // 10 µs base + 8 pages x 1 µs.
        assert_eq!(t.as_nanos(), 18_000);
    }

    #[test]
    fn second_registration_hits_cache_and_is_cheap() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, CpuCosts::default());
        let reg = MemoryRegistry::new(RegistrationCosts::default());
        let mem = HostMem::new();
        let addr = mem.alloc_buffer(PAGE_SIZE);
        let (first, second, elapsed_second) = {
            let s = sim.clone();
            sim.block_on(async move {
                let first = reg.register_cached(&cpu, addr, PAGE_SIZE).await;
                let t0 = s.now();
                let second = reg.register_cached(&cpu, addr, PAGE_SIZE).await;
                (first, second, s.now() - t0)
            })
        };
        assert!(!first.cache_hit);
        assert!(second.cache_hit);
        assert_eq!(second.key, first.key, "hit returns the cached key");
        assert_eq!(
            elapsed_second.as_nanos(),
            RegistrationCosts::default().cache_hit.as_nanos()
        );
    }

    #[test]
    fn eviction_invalidates_old_key() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, CpuCosts::default());
        let reg = MemoryRegistry::new(RegistrationCosts {
            cache_capacity: 2,
            ..RegistrationCosts::default()
        });
        let mem = HostMem::new();
        let bufs: Vec<VirtAddr> = (0..3).map(|_| mem.alloc_buffer(PAGE_SIZE)).collect();
        let keys = {
            let reg = reg.clone();
            let bufs = bufs.clone();
            sim.block_on(async move {
                let mut keys = Vec::new();
                for b in &bufs {
                    keys.push(reg.register_cached(&cpu, *b, PAGE_SIZE).await.key);
                }
                keys
            })
        };
        // First registration was evicted by the third.
        assert!(!reg.check(keys[0], bufs[0], PAGE_SIZE));
        assert!(reg.check(keys[1], bufs[1], PAGE_SIZE));
        assert!(reg.check(keys[2], bufs[2], PAGE_SIZE));
    }

    #[test]
    fn check_rejects_out_of_bounds() {
        let sim = Sim::new();
        let cpu = Cpu::new(&sim, CpuCosts::default());
        let reg = MemoryRegistry::new(RegistrationCosts::default());
        let mem = HostMem::new();
        let addr = mem.alloc_buffer(PAGE_SIZE);
        let key = {
            let reg = reg.clone();
            sim.block_on(async move { reg.register_pinned(&cpu, addr, PAGE_SIZE).await })
        };
        assert!(reg.check(key, addr, PAGE_SIZE));
        assert!(reg.check(key, addr.offset(100), PAGE_SIZE - 100));
        assert!(!reg.check(key, addr.offset(1), PAGE_SIZE)); // 1 byte past end
        assert!(!reg.check(MemKey(9999), addr, 1)); // unknown key
        assert!(!reg.check(key, addr.offset(100), u64::MAX - 50)); // end wraps past u64::MAX
    }
}
