//! Buffer pool (LRU) and the combined I/O facade.
//!
//! The paper notes that "actual assembly performance including the effects
//! of buffer hits can only be studied in the context of a real, working
//! system" — this is that system, scaled down: a fixed-capacity LRU page
//! cache in front of the simulated disk. The executor performs all page
//! access through [`Io`], so buffer hits are free and misses are charged by
//! the [`crate::disk::Disk`].

use crate::disk::{Disk, DiskParams, DiskStats, PageId};
use oodb_fault::{Fault, FaultInjector};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A fixed-capacity LRU page cache.
///
/// Implementation: a hash map from page to a monotically increasing access
/// stamp plus a lazily compacted eviction scan. Capacity is in pages; the
/// paper's 32 MB workstation at 4 KB pages gives 8192.
#[derive(Clone, Debug)]
pub struct BufferPool {
    capacity: usize,
    clock: u64,
    resident: HashMap<PageId, u64>,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            capacity: capacity.max(1),
            clock: 0,
            resident: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Pool sized for the paper's DECstation (32 MB at the given page size).
    pub fn decstation(page_bytes: u32) -> Self {
        BufferPool::new((32 * 1024 * 1024 / page_bytes as usize).max(1))
    }

    /// Records an access. Returns `true` on a buffer hit. On a miss the
    /// page becomes resident, evicting the least-recently-used page if the
    /// pool is full.
    pub fn access(&mut self, page: PageId) -> bool {
        self.clock += 1;
        if let Some(stamp) = self.resident.get_mut(&page) {
            *stamp = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.resident.len() >= self.capacity {
            // Evict the LRU entry. Linear scan is fine: eviction only
            // happens on misses and pools are small in tests / bounded in
            // experiments.
            if let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, &s)| s) {
                self.resident.remove(&victim);
            }
        }
        self.resident.insert(page, self.clock);
        false
    }

    /// Records `n` further accesses of `page` made right after an
    /// [`BufferPool::access`] of it: `n` hits, and the page's LRU stamp
    /// lands where `n` single accesses would have left it.
    pub fn repeat_hits(&mut self, page: PageId, n: u64) {
        if n == 0 {
            return;
        }
        self.clock += n;
        if let Some(stamp) = self.resident.get_mut(&page) {
            *stamp = self.clock;
        }
        self.hits += n;
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// Drops all cached pages and statistics.
    pub fn reset(&mut self) {
        self.resident.clear();
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

/// A buffer pool shared by concurrent executions (one pool per database,
/// the way a real server runs). Page *residency* is global — one query's
/// fetch warms the next query's access — while hit/miss **attribution**
/// stays with each caller: [`Io::touch`] reports the outcome per access,
/// and the executor tallies its own query's hits and misses locally. The
/// pool's own counters remain the pool-wide totals.
#[derive(Clone, Debug)]
pub struct SharedBufferPool(Arc<Mutex<BufferPool>>);

impl SharedBufferPool {
    /// A shared pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        SharedBufferPool(Arc::new(Mutex::new(BufferPool::new(capacity))))
    }

    /// Records an access; `true` on a hit. See [`BufferPool::access`].
    pub fn access(&self, page: PageId) -> bool {
        self.0.lock().unwrap().access(page)
    }

    /// See [`BufferPool::repeat_hits`].
    pub fn repeat_hits(&self, page: PageId, n: u64) {
        self.0
            .lock()
            .expect("a thread panicked while holding the buffer pool")
            .repeat_hits(page, n);
    }

    /// Pool-wide (hits, misses) across every sharing execution.
    pub fn stats(&self) -> (u64, u64) {
        self.0.lock().unwrap().stats()
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.0.lock().unwrap().resident_pages()
    }

    /// Drops all cached pages and statistics.
    pub fn reset(&self) {
        self.0.lock().unwrap().reset();
    }
}

/// The page cache an [`Io`] stack charges accesses through: either a
/// private pool (the historical per-executor model, which keeps every
/// simulation deterministic) or a [`SharedBufferPool`].
#[derive(Clone, Debug)]
enum PoolRef {
    Local(BufferPool),
    Shared(SharedBufferPool),
}

/// The I/O facade the executor charges all page access through:
/// buffer-pool check first, disk on miss. [`Io::touch`] and
/// [`Io::touch_elevator`] report per-access hit/miss outcomes so callers
/// can attribute I/O to the execution that performed it even when the
/// underlying pool is shared.
#[derive(Clone, Debug)]
pub struct Io {
    pool: PoolRef,
    /// The simulated device.
    pub disk: Disk,
    /// Optional fault injector consulted before every page access (see
    /// [`Io::try_touch`]). `None` keeps the read path infallible.
    injector: Option<FaultInjector>,
}

impl Io {
    /// Creates an I/O stack with the given pool capacity and disk timing.
    pub fn new(pool_pages: usize, params: DiskParams) -> Self {
        Io {
            pool: PoolRef::Local(BufferPool::new(pool_pages)),
            disk: Disk::new(params),
            injector: None,
        }
    }

    /// The paper's evaluation machine: 32 MB buffer, default disk.
    pub fn decstation() -> Self {
        let params = DiskParams::default();
        Io {
            pool: PoolRef::Local(BufferPool::decstation(params.page_bytes)),
            disk: Disk::new(params),
            injector: None,
        }
    }

    /// An I/O stack charging through a shared pool. The disk (and its
    /// timing) stays private to this stack, so simulated I/O seconds are
    /// attributed to the execution that missed.
    pub fn with_shared_pool(pool: SharedBufferPool, params: DiskParams) -> Self {
        Io {
            pool: PoolRef::Shared(pool),
            disk: Disk::new(params),
            injector: None,
        }
    }

    fn access(&mut self, page: PageId) -> bool {
        match &mut self.pool {
            PoolRef::Local(p) => p.access(page),
            PoolRef::Shared(p) => p.access(page),
        }
    }

    /// Touches one page (sequential/random classification by the disk).
    /// Returns `true` on a buffer hit.
    pub fn touch(&mut self, page: PageId) -> bool {
        let hit = self.access(page);
        if !hit {
            self.disk.read(page);
        }
        hit
    }

    /// Touches a batch of pages in elevator order; only misses reach disk.
    /// Returns `(hits, misses)` for the batch.
    pub fn touch_elevator(&mut self, pages: &[PageId]) -> (u64, u64) {
        let mut missed: Vec<PageId> = pages.iter().copied().filter(|&p| !self.access(p)).collect();
        let misses = missed.len() as u64;
        if !missed.is_empty() {
            self.disk.read_elevator(&mut missed);
        }
        (pages.len() as u64 - misses, misses)
    }

    /// Records `n` further accesses of `page` made right after a touch of
    /// it — a run of rows on one page. Each is a buffer hit: no disk time
    /// is charged and the fault injector is not consulted again, so an
    /// injected fault or latency applies once per run, not once per row.
    /// Hit/miss totals and the pool's LRU order are those of `n` single
    /// touches.
    pub fn repeat_hits(&mut self, page: PageId, n: u64) {
        match &mut self.pool {
            PoolRef::Local(p) => p.repeat_hits(page, n),
            PoolRef::Shared(p) => p.repeat_hits(page, n),
        }
    }

    /// Routes subsequent page access through a fault injector (or removes
    /// it with `None`). The executor installs the store's injector here.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
    }

    /// Fallible [`Io::touch`]: consults the fault injector (if any) before
    /// the buffer pool. A faulted read charges nothing — the page is
    /// neither cached nor billed to the disk — so a retry repeats the
    /// access from scratch.
    pub fn try_touch(&mut self, page: PageId) -> Result<bool, Fault> {
        if let Some(inj) = &self.injector {
            inj.check_read(page)?;
        }
        Ok(self.touch(page))
    }

    /// Fallible [`Io::touch_elevator`]: checks every page of the batch
    /// against the injector first, then performs the whole sweep. A fault
    /// aborts before any page of the batch is charged.
    pub fn try_touch_elevator(&mut self, pages: &[PageId]) -> Result<(u64, u64), Fault> {
        if let Some(inj) = &self.injector {
            for &p in pages {
                inj.check_read(p)?;
            }
        }
        Ok(self.touch_elevator(pages))
    }

    /// (hits, misses) of the underlying pool. For a shared pool these are
    /// the **pool-wide** totals, not this execution's share — per-execution
    /// attribution comes from the [`Io::touch`] return values.
    pub fn pool_stats(&self) -> (u64, u64) {
        match &self.pool {
            PoolRef::Local(p) => p.stats(),
            PoolRef::Shared(p) => p.stats(),
        }
    }

    /// Number of pages resident in the underlying pool.
    pub fn resident_pages(&self) -> usize {
        match &self.pool {
            PoolRef::Local(p) => p.resident_pages(),
            PoolRef::Shared(p) => p.resident_pages(),
        }
    }

    /// Simulated elapsed I/O time in seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.disk.stats().total_s
    }

    /// Disk statistics.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    /// Clears both the pool and the disk counters.
    pub fn reset(&mut self) {
        match &mut self.pool {
            PoolRef::Local(p) => p.reset(),
            PoolRef::Shared(p) => p.reset(),
        }
        self.disk.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut b = BufferPool::new(4);
        assert!(!b.access(1));
        assert!(b.access(1));
        assert_eq!(b.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut b = BufferPool::new(2);
        b.access(1);
        b.access(2);
        b.access(1); // 1 now more recent than 2
        b.access(3); // evicts 2
        assert!(b.access(1), "1 still resident");
        assert!(!b.access(2), "2 was evicted");
    }

    #[test]
    fn io_charges_only_misses() {
        let mut io = Io::new(8, DiskParams::default());
        io.touch(10);
        io.touch(10);
        io.touch(10);
        assert_eq!(io.disk_stats().pages(), 1);
        let (hits, misses) = io.pool_stats();
        assert_eq!((hits, misses), (2, 1));
    }

    #[test]
    fn elevator_batch_skips_resident_pages() {
        let mut io = Io::new(8, DiskParams::default());
        io.touch(5);
        let (hits, misses) = io.touch_elevator(&[5, 6, 7]);
        // Page 5 was resident; only 6 and 7 hit the disk.
        assert_eq!((hits, misses), (1, 2));
        assert_eq!(io.disk_stats().pages(), 3); // 1 initial + 2 batch
    }

    #[test]
    fn touch_reports_per_access_outcome() {
        let mut io = Io::new(8, DiskParams::default());
        assert!(!io.touch(9), "first access misses");
        assert!(io.touch(9), "second access hits");
    }

    #[test]
    fn shared_pool_keeps_residency_across_stacks() {
        let shared = SharedBufferPool::new(16);
        let mut a = Io::with_shared_pool(shared.clone(), DiskParams::default());
        let mut b = Io::with_shared_pool(shared.clone(), DiskParams::default());
        assert!(!a.touch(1), "cold in stack a");
        assert!(b.touch(1), "warm in stack b via the shared pool");
        // Pool-wide counters aggregate both stacks; each stack's disk only
        // charged its own misses.
        assert_eq!(shared.stats(), (1, 1));
        assert_eq!(a.disk_stats().pages(), 1);
        assert_eq!(b.disk_stats().pages(), 0);
    }

    #[test]
    fn repeated_hits_match_single_touches() {
        let mut single = Io::new(2, DiskParams::default());
        let mut run = single.clone();
        for p in [1, 1, 1, 2, 2, 1, 3, 3, 3, 2] {
            single.touch(p);
        }
        for (p, n) in [(1, 3), (2, 2), (1, 1), (3, 3), (2, 1)] {
            run.touch(p);
            run.repeat_hits(p, n - 1);
        }
        assert_eq!(run.pool_stats(), single.pool_stats());
        assert_eq!(run.disk_stats(), single.disk_stats());
        // Same LRU order: page 2 is most recent, so touching 1 evicts 3.
        assert_eq!(run.touch(1), single.touch(1));
        assert_eq!(run.touch(3), single.touch(3));
    }

    #[test]
    fn pool_never_exceeds_capacity() {
        let mut b = BufferPool::new(3);
        for p in 0..100 {
            b.access(p);
        }
        assert!(b.resident_pages() <= 3);
    }
}
