//! Memory-mapped `TDFSGRPH` readers: disk-resident graphs behind
//! [`GraphView`].
//!
//! [`MmapGraph`] serves a container file without loading it: row
//! offsets and labels are read in place through the mapping, and
//! adjacency segments decode on demand into a bounded cache of pinned
//! pages, so the resident footprint is `O(working set)` rather than
//! `O(graph)` — the regime PBE's paged stacks and the service governor
//! were built for, finally exercised by graphs that dwarf the budget.
//!
//! ## Cache reclamation contract
//!
//! [`GraphView::neighbors`] hands out `&[u32]` borrows into decoded
//! segments, so eviction cannot free a segment some engine still reads.
//! Reclamation is epoch-based:
//!
//! - every evicted segment moves to a *graveyard* stamped with the
//!   eviction epoch; the slot is immediately reusable;
//! - a [`PinScope`] (RAII) records the epoch it began at; graveyard
//!   entries are freed only when every active scope began *after* their
//!   eviction — a scope can never have seen, let alone retained, a
//!   segment that was already dead when the scope opened;
//! - when no scope has **ever** been taken on the graph, nothing is
//!   freed (memory grows monotonically, like a lazy heap decode) — the
//!   safe default for ad-hoc readers.
//!
//! The soundness requirement this encodes: **once any code takes
//! `PinScope`s on a graph, every reader that holds neighbor slices
//! across calls must do so inside a scope.** The service pins one scope
//! around each engine run, batch apply and resume validation, which
//! covers every slice the engines can hold.
//!
//! Decoded bytes are charged to an optional [`CacheCharge`] (the
//! service adapts its `MemoryBudget` behind it; `tdfs-graph` itself
//! stays dependency-free), released when the segment is actually freed
//! — graveyard residency is real memory and stays visible as pressure.

use std::collections::HashMap;
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::container::{
    decode_segment, parse_header, parse_sections, verify_segments, ContainerError, ContainerHeader,
    SegMeta,
};
use crate::csr::{CsrGraph, Label, VertexId};
use crate::view::GraphView;

/// Byte-accounting hook for the decode cache. `tdfs-core` adapts the
/// shared `MemoryBudget` behind this (charges are unchecked there:
/// resident bytes must be *visible* pressure, not a refusable
/// allocation — bounding them is the governor's job).
pub trait CacheCharge: Send + Sync {
    /// `bytes` became resident.
    fn charge(&self, bytes: usize);
    /// `bytes` were freed.
    fn release(&self, bytes: usize);
}

/// How much validation `open` performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verify {
    /// Header, section CRCs, directory/offset consistency, **and** a
    /// full decode of every segment (row sortedness, ranges,
    /// self-loops). After this, query-time decodes cannot fail. The
    /// default: containers are untrusted input, like every loader since
    /// the hardening PR.
    #[default]
    Full,
    /// Header, section CRCs and per-segment payload CRCs only — decoded
    /// rows are still validated lazily at first touch. For very large
    /// trusted files where the open-time decode pass matters.
    Checksums,
}

/// Open-time options.
#[derive(Clone, Default)]
pub struct MapOptions {
    pub verify: Verify,
    /// Decoded-segment cache capacity in bytes; 0 = unbounded (never
    /// evict). Default 64 MiB.
    pub cache_bytes: Option<usize>,
    /// Byte-accounting hook for resident decoded segments.
    pub charge: Option<Arc<dyn CacheCharge>>,
    /// Read the file into heap memory instead of mmap (the non-unix
    /// fallback, forceable for tests).
    pub force_heap: bool,
    /// Threads for the open-time segment verification pass; `0` (the
    /// default) sizes to the host's available cores (capped at 8), `1`
    /// forces the serial scan. Segments verify independently, so a cold
    /// failover restore of a multi-GiB container opens near
    /// `cores×` faster with identical (deterministic) error reporting.
    pub verify_threads: usize,
}

impl std::fmt::Debug for MapOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapOptions")
            .field("verify", &self.verify)
            .field("cache_bytes", &self.cache_bytes)
            .field("charged", &self.charge.is_some())
            .field("force_heap", &self.force_heap)
            .field("verify_threads", &self.verify_threads)
            .finish()
    }
}

/// Default decode-cache capacity.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

// ---------------------------------------------------------------------
// The mapping itself
// ---------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    //! Minimal raw `mmap` bindings. `std` already links libc on unix,
    //! so declaring the two symbols keeps the workspace crate-free.
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

enum Mapping {
    Heap(Box<[u8]>),
    #[cfg(unix)]
    Mapped {
        ptr: *const u8,
        len: usize,
    },
}

// The mapped region is read-only and private for the life of the value.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    fn bytes(&self) -> &[u8] {
        match self {
            Mapping::Heap(b) => b,
            #[cfg(unix)]
            Mapping::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    fn is_mapped(&self) -> bool {
        match self {
            Mapping::Heap(_) => false,
            #[cfg(unix)]
            Mapping::Mapped { .. } => true,
        }
    }

    fn open(path: &Path, force_heap: bool) -> Result<Mapping, ContainerError> {
        let mut f = File::open(path)?;
        let len = f.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(ContainerError::Io("file exceeds address space".into()));
        }
        let len = len as usize;
        #[cfg(unix)]
        if !force_heap && len > 0 {
            use std::os::unix::io::AsRawFd;
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    f.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize != usize::MAX {
                // The fd can close; a MAP_PRIVATE mapping outlives it.
                return Ok(Mapping::Mapped {
                    ptr: ptr as *const u8,
                    len,
                });
            }
            // mmap refused (weird fs, resource limits): fall through to
            // the heap read rather than failing the open.
        }
        let _ = force_heap;
        let mut buf = Vec::with_capacity(len.min(1 << 26));
        f.read_to_end(&mut buf)?;
        Ok(Mapping::Heap(buf.into_boxed_slice()))
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Mapping::Mapped { ptr, len } = self {
            unsafe {
                sys::munmap(*ptr as *mut std::ffi::c_void, *len);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Decoded-segment cache
// ---------------------------------------------------------------------

struct DecodedSeg {
    first_arc: u64,
    vals: Box<[VertexId]>,
    bytes: usize,
    charge: Option<Arc<dyn CacheCharge>>,
}

impl Drop for DecodedSeg {
    fn drop(&mut self) {
        if let Some(c) = &self.charge {
            c.release(self.bytes);
        }
    }
}

/// Cache counters (see [`MmapGraph::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Bytes of decoded segments currently serving reads.
    pub resident_bytes: usize,
    /// Bytes evicted but not yet reclaimable (scope-pinned).
    pub graveyard_bytes: usize,
    /// Segment decodes (cache misses).
    pub decodes: u64,
    /// Reads served from a resident segment.
    pub hits: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Graveyard entries actually freed.
    pub reclaimed: u64,
}

struct CacheInner {
    /// Bytes resident (slots only, not graveyard).
    resident: usize,
    /// Eviction epoch: bumped per eviction, stamps graveyard entries.
    epoch: u64,
    graveyard: Vec<(u64, Box<DecodedSeg>)>,
    graveyard_bytes: usize,
    /// Active pin scopes: ticket -> epoch at creation.
    scopes: HashMap<u64, u64>,
    next_ticket: u64,
    /// Sticky: set by the first scope ever; enables reclamation.
    scoped_mode: bool,
    stats: CacheStats,
}

/// How many bytes of scope-pinned (unreclaimable) evictions the cache
/// tolerates before it stops evicting and lets residency overshoot the
/// cap instead: 4× the capacity, with a 1 MiB floor so pathologically
/// tiny caps still make progress. See the eviction loop for why.
fn graveyard_slack(cap: usize) -> usize {
    cap.saturating_mul(4).max(1 << 20)
}

struct SegCache {
    /// One slot per segment; null = not resident. Written under the
    /// mutex, read lock-free on the hot path.
    slots: Box<[AtomicPtr<DecodedSeg>]>,
    /// Approximate recency: readers stamp the current clock value.
    ticks: Box<[AtomicU64]>,
    clock: AtomicU64,
    cap: usize,
    inner: Mutex<CacheInner>,
}

impl SegCache {
    fn new(seg_count: usize, cap: usize) -> SegCache {
        SegCache {
            slots: (0..seg_count)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            ticks: (0..seg_count).map(|_| AtomicU64::new(0)).collect(),
            clock: AtomicU64::new(1),
            cap,
            inner: Mutex::new(CacheInner {
                resident: 0,
                epoch: 0,
                graveyard: Vec::new(),
                graveyard_bytes: 0,
                scopes: HashMap::new(),
                next_ticket: 0,
                scoped_mode: false,
                stats: CacheStats::default(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Frees every graveyard entry whose eviction predates all active
    /// scopes (see the module docs for why this is the safe frontier).
    fn reclaim(c: &mut CacheInner) {
        if !c.scoped_mode {
            return;
        }
        let min_begin = c.scopes.values().copied().min();
        let mut freed = 0u64;
        let mut freed_bytes = 0usize;
        c.graveyard.retain(|(epoch, seg)| {
            let keep = match min_begin {
                Some(m) => *epoch > m,
                None => false,
            };
            if !keep {
                freed += 1;
                freed_bytes += seg.bytes;
            }
            keep
        });
        c.graveyard_bytes -= freed_bytes;
        c.stats.reclaimed += freed;
    }
}

/// RAII pin on a graph's decode cache: while alive, every segment the
/// holder can observe stays allocated. Take one around any region that
/// holds [`GraphView::neighbors`] slices across calls (an engine run, a
/// batch apply). Dropping the scope advances the reclamation frontier.
pub struct PinScope {
    cache: Arc<SegCache>,
    ticket: u64,
}

impl Drop for PinScope {
    fn drop(&mut self) {
        let mut c = self.cache.lock();
        c.scopes.remove(&self.ticket);
        SegCache::reclaim(&mut c);
    }
}

impl std::fmt::Debug for PinScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinScope")
            .field("ticket", &self.ticket)
            .finish()
    }
}

// ---------------------------------------------------------------------
// MmapGraph
// ---------------------------------------------------------------------

/// A read-only graph served from a mapped `TDFSGRPH` container.
///
/// Implements [`GraphView`], so every engine, the host filter, durable
/// shards and standing-query maintenance run on it unmodified. See the
/// module docs for the cache-reclamation contract.
pub struct MmapGraph {
    map: Mapping,
    header: ContainerHeader,
    segs: Vec<SegMeta>,
    /// `segs[i].first_vertex` copied out for cache-friendly row→segment
    /// binary search.
    seg_starts: Vec<VertexId>,
    /// Last segment index served by [`Self::seg_of`] (relaxed, purely a
    /// performance hint): engine row accesses are strongly local, so
    /// checking the previous hit first skips the binary search on the
    /// vast majority of calls.
    seg_hint: AtomicUsize,
    offsets_at: usize,
    labels_at: usize,
    cache: Arc<SegCache>,
    charge: Option<Arc<dyn CacheCharge>>,
}

impl MmapGraph {
    /// Opens and fully verifies `path` (see [`Verify::Full`]).
    pub fn open(path: impl AsRef<Path>) -> Result<MmapGraph, ContainerError> {
        Self::open_with(path, &MapOptions::default())
    }

    /// Opens `path` with explicit verification, cache and accounting
    /// options.
    pub fn open_with(
        path: impl AsRef<Path>,
        opts: &MapOptions,
    ) -> Result<MmapGraph, ContainerError> {
        let map = Mapping::open(path.as_ref(), opts.force_heap)?;
        let data = map.bytes();
        let header = parse_header(data)?;
        let segs = parse_sections(data, &header)?;
        verify_segments(
            data,
            &header,
            &segs,
            matches!(opts.verify, Verify::Full),
            opts.verify_threads,
        )?;
        if header.labeled {
            let lay = header.layout();
            for v in 0..header.num_vertices {
                let l = u32::from_le_bytes(
                    data[lay.labels + v * 4..lay.labels + v * 4 + 4]
                        .try_into()
                        .unwrap(),
                );
                if header.num_labels > 0 && l as usize >= header.num_labels {
                    return Err(ContainerError::Labels {
                        vertex: v,
                        reason: "label >= num_labels",
                    });
                }
            }
        }
        let lay = header.layout();
        let seg_starts = segs.iter().map(|m| m.first_vertex).collect();
        let cap = opts.cache_bytes.unwrap_or(DEFAULT_CACHE_BYTES);
        let cache = SegCache::new(segs.len(), cap);
        Ok(MmapGraph {
            map,
            header,
            segs,
            seg_starts,
            seg_hint: AtomicUsize::new(0),
            offsets_at: lay.offsets,
            labels_at: lay.labels,
            cache: Arc::new(cache),
            charge: opts.charge.clone(),
        })
    }

    /// Whether the file is actually memory-mapped (false on the heap
    /// fallback path).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Parsed header counts.
    pub fn header(&self) -> &ContainerHeader {
        &self.header
    }

    /// Number of adjacency segments.
    pub fn num_segments(&self) -> usize {
        self.segs.len()
    }

    /// Decode-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let c = self.cache.lock();
        let mut s = c.stats;
        s.resident_bytes = c.resident;
        s.graveyard_bytes = c.graveyard_bytes;
        s
    }

    /// Opens a reclamation pin scope (see the module docs). Engines and
    /// the service take one per run; while any scope is active, evicted
    /// segments observable by that scope stay allocated.
    pub fn pin_scope(&self) -> PinScope {
        let mut c = self.cache.lock();
        c.scoped_mode = true;
        let ticket = c.next_ticket;
        c.next_ticket += 1;
        let begin = c.epoch;
        c.scopes.insert(ticket, begin);
        PinScope {
            cache: Arc::clone(&self.cache),
            ticket,
        }
    }

    /// Fully decodes into a heap [`CsrGraph`] (running the complete CSR
    /// validator, symmetry included) — the oracle path for tests and
    /// small graphs.
    pub fn to_csr(&self) -> Result<CsrGraph, ContainerError> {
        let n = self.header.num_vertices;
        let mut row_ptr = Vec::with_capacity(n + 1);
        for v in 0..=n {
            row_ptr.push(self.offset(v) as usize);
        }
        let data = self.map.bytes();
        let mut col_idx = Vec::with_capacity(self.header.num_arcs);
        for s in 0..self.segs.len() {
            col_idx.extend(decode_segment(data, &self.header, &self.segs, s)?);
        }
        let labels = if self.header.labeled {
            (0..n as VertexId).map(|v| self.label_of(v)).collect()
        } else {
            Vec::new()
        };
        Ok(CsrGraph::try_from_parts(row_ptr, col_idx, labels)?)
    }

    #[inline]
    fn offset(&self, v: usize) -> u64 {
        let o = self.offsets_at + v * 8;
        u64::from_le_bytes(self.map.bytes()[o..o + 8].try_into().unwrap())
    }

    #[inline]
    fn label_of(&self, v: VertexId) -> Label {
        let o = self.labels_at + v as usize * 4;
        u32::from_le_bytes(self.map.bytes()[o..o + 4].try_into().unwrap())
    }

    /// Segment index holding vertex `v`'s row.
    #[inline]
    fn seg_of(&self, v: VertexId) -> usize {
        let hint = self.seg_hint.load(Ordering::Relaxed);
        if let Some(&start) = self.seg_starts.get(hint) {
            if start <= v && self.seg_starts.get(hint + 1).is_none_or(|&next| v < next) {
                return hint;
            }
        }
        let s = self.seg_starts.partition_point(|&s| s <= v) - 1;
        self.seg_hint.store(s, Ordering::Relaxed);
        s
    }

    /// Returns the decoded values of segment `s`, decoding (and
    /// possibly evicting) on miss. The returned reference is valid per
    /// the module-level reclamation contract.
    fn seg_vals(&self, s: usize) -> &DecodedSeg {
        let slot = &self.cache.slots[s];
        let p = slot.load(Ordering::Acquire);
        if !p.is_null() {
            // Hot path: lock-free. Stamp recency with a relaxed store
            // (approximate LRU; no RMW, no lock — hit stats are only
            // sampled on the slow path to keep this branch cheap).
            self.cache.ticks[s].store(self.cache.clock.load(Ordering::Relaxed), Ordering::Relaxed);
            return unsafe { &*p };
        }
        self.seg_vals_slow(s)
    }

    #[cold]
    fn seg_vals_slow(&self, s: usize) -> &DecodedSeg {
        let mut c = self.cache.lock();
        // Re-check under the lock: another thread may have decoded it.
        let p = self.cache.slots[s].load(Ordering::Acquire);
        if !p.is_null() {
            c.stats.hits += 1;
            return unsafe { &*p };
        }
        let data = self.map.bytes();
        let vals = decode_segment(data, &self.header, &self.segs, s)
            .unwrap_or_else(|e| {
                panic!("segment {s} undecodable at query time (file mutated after open?): {e}")
            })
            .into_boxed_slice();
        let bytes = vals.len() * std::mem::size_of::<VertexId>();
        if let Some(charge) = &self.charge {
            charge.charge(bytes);
        }
        let seg = Box::new(DecodedSeg {
            first_arc: self.segs[s].first_arc,
            vals,
            bytes,
            charge: self.charge.clone(),
        });
        let ptr = Box::into_raw(seg);
        self.cache.slots[s].store(ptr, Ordering::Release);
        let now = self.cache.clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.cache.ticks[s].store(now, Ordering::Relaxed);
        c.resident += bytes;
        c.stats.decodes += 1;
        // Evict least-recently-stamped residents down to capacity,
        // never the segment just faulted in. Eviction is throttled by
        // the graveyard bound: while pin scopes block reclamation,
        // evicting frees nothing — it only *duplicates* memory (the
        // evicted copy lingers in the graveyard while a re-decode
        // allocates a fresh one), so a long-pinned scan over a
        // too-small cache would grow by O(decodes), not O(graph).
        // Once the graveyard holds `graveyard_slack` bytes of
        // unreclaimed evictions, residency is allowed to overshoot the
        // cap — the overshoot stays charged (visible pressure) and is
        // trimmed on the first miss after the next reclaim.
        let slack = graveyard_slack(self.cache.cap);
        while self.cache.cap > 0 && c.resident > self.cache.cap && c.graveyard_bytes < slack {
            let mut victim: Option<(usize, u64)> = None;
            for i in 0..self.cache.slots.len() {
                if i == s || self.cache.slots[i].load(Ordering::Relaxed).is_null() {
                    continue;
                }
                let t = self.cache.ticks[i].load(Ordering::Relaxed);
                if victim.is_none_or(|(_, vt)| t < vt) {
                    victim = Some((i, t));
                }
            }
            let Some((i, _)) = victim else { break };
            let vp = self.cache.slots[i].swap(std::ptr::null_mut(), Ordering::AcqRel);
            debug_assert!(!vp.is_null());
            let dead = unsafe { Box::from_raw(vp) };
            c.resident -= dead.bytes;
            c.epoch += 1;
            c.graveyard_bytes += dead.bytes;
            let epoch = c.epoch;
            c.graveyard.push((epoch, dead));
            c.stats.evictions += 1;
        }
        SegCache::reclaim(&mut c);
        unsafe { &*ptr }
    }
}

impl Drop for MmapGraph {
    fn drop(&mut self) {
        // Free resident slots; the graveyard Boxes drop with CacheInner.
        for slot in self.cache.slots.iter() {
            let p = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

impl std::fmt::Debug for MmapGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapGraph")
            .field("vertices", &self.header.num_vertices)
            .field("arcs", &self.header.num_arcs)
            .field("segments", &self.segs.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl GraphView for MmapGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.header.num_vertices
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.header.num_arcs / 2
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        self.header.num_arcs
    }

    #[inline]
    fn max_degree(&self) -> usize {
        self.header.max_degree
    }

    /// Degree from the offsets section alone — the default would decode
    /// (or cache-probe) `v`'s whole segment just to measure a row, and
    /// degree filters probe far more candidates than they expand.
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        (self.offset(v as usize + 1) - self.offset(v as usize)) as usize
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let start = self.offset(v as usize);
        let end = self.offset(v as usize + 1);
        if start == end {
            return &[];
        }
        let seg = self.seg_vals(self.seg_of(v));
        let lo = (start - seg.first_arc) as usize;
        let hi = (end - seg.first_arc) as usize;
        let row = &seg.vals[lo..hi];
        // Detach the borrow from the cache internals: validity past this
        // call is guaranteed by the epoch reclamation contract (module
        // docs) — the segment stays allocated while resident, and after
        // eviction until no active pin scope could still reference it.
        unsafe { std::slice::from_raw_parts(row.as_ptr(), row.len()) }
    }

    #[inline]
    fn is_labeled(&self) -> bool {
        self.header.labeled
    }

    #[inline]
    fn label(&self, v: VertexId) -> Label {
        if self.header.labeled {
            self.label_of(v)
        } else {
            0
        }
    }

    #[inline]
    fn num_labels(&self) -> usize {
        if self.header.labeled {
            self.header.num_labels
        } else {
            1
        }
    }

    fn arc_row(&self, i: usize) -> (VertexId, usize) {
        debug_assert!(i < self.header.num_arcs);
        // Binary search the row containing arc i: the last vertex whose
        // row starts at or before it.
        let mut lo = 0usize;
        let mut hi = self.header.num_vertices;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.offset(mid) as usize <= i {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo as VertexId, self.offset(lo) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::container::{write_container, ContainerOptions};
    use std::io::Write as _;

    fn write_to(dir: &std::path::Path, g: &CsrGraph, seg_arcs: usize) -> std::path::PathBuf {
        let mut cur = std::io::Cursor::new(Vec::new());
        write_container(
            g,
            &mut cur,
            &ContainerOptions {
                seg_target_arcs: seg_arcs,
            },
        )
        .unwrap();
        let path = dir.join("g.tdfsgrph");
        let mut f = File::create(&path).unwrap();
        f.write_all(&cur.into_inner()).unwrap();
        path
    }

    fn tmpdir(name: &str) -> tdfs_testkit::TempDir {
        tdfs_testkit::TempDir::new(&format!("tdfs-mapped-{name}")).unwrap()
    }

    #[test]
    fn mapped_view_matches_heap() {
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (1, 4)])
            .labels(vec![1, 0, 2, 0, 1])
            .build();
        let dir = tmpdir("match");
        let path = write_to(dir.path(), &g, 3);
        let m = MmapGraph::open(&path).unwrap();
        assert_eq!(m.num_vertices(), g.num_vertices());
        assert_eq!(GraphView::num_arcs(&m), g.num_arcs());
        assert_eq!(GraphView::max_degree(&m), g.max_degree());
        assert_eq!(GraphView::num_labels(&m), g.num_labels());
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(GraphView::neighbors(&m, v), g.neighbors(v), "row {v}");
            assert_eq!(GraphView::label(&m, v), g.label(v));
        }
        for i in 0..g.num_arcs() {
            assert_eq!(GraphView::arc(&m, i), g.arc(i));
        }
        assert_eq!(m.to_csr().unwrap(), g);
    }

    #[test]
    fn heap_fallback_matches_mmap() {
        let g = GraphBuilder::new().edges([(0, 1), (1, 2), (0, 2)]).build();
        let dir = tmpdir("heap");
        let path = write_to(dir.path(), &g, 2);
        let heap = MmapGraph::open_with(
            &path,
            &MapOptions {
                force_heap: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!heap.is_mapped());
        for v in 0..3u32 {
            assert_eq!(GraphView::neighbors(&heap, v), g.neighbors(v));
        }
    }

    #[test]
    fn eviction_bounds_residency_and_scopes_gate_reclaim() {
        // Path graph over 64 vertices, 1 arc per segment target: many
        // tiny segments, cache capped far below the decoded total.
        let mut b = GraphBuilder::new();
        for v in 0..63u32 {
            b.push_edge(v, v + 1);
        }
        let g = b.build();
        let dir = tmpdir("evict");
        let path = write_to(dir.path(), &g, 4);
        let m = MmapGraph::open_with(
            &path,
            &MapOptions {
                cache_bytes: Some(64), // a few segments' worth
                ..Default::default()
            },
        )
        .unwrap();
        assert!(m.num_segments() > 4);
        {
            let _scope = m.pin_scope();
            for v in 0..64u32 {
                let _ = GraphView::neighbors(&m, v);
            }
            let s = m.cache_stats();
            assert!(s.evictions > 0, "tiny cap must evict");
            assert!(
                s.resident_bytes <= 64 + 4 * 8,
                "bounded by cap plus one row"
            );
            assert!(
                s.graveyard_bytes > 0,
                "evictions under an active scope stay in the graveyard"
            );
        }
        // Scope dropped: everything evicted before it closed reclaims.
        let s = m.cache_stats();
        assert_eq!(s.graveyard_bytes, 0);
        assert!(s.reclaimed > 0);
    }

    #[test]
    fn unscoped_reads_never_reclaim() {
        let mut b = GraphBuilder::new();
        for v in 0..31u32 {
            b.push_edge(v, v + 1);
        }
        let g = b.build();
        let dir = tmpdir("unscoped");
        let path = write_to(dir.path(), &g, 2);
        let m = MmapGraph::open_with(
            &path,
            &MapOptions {
                cache_bytes: Some(32),
                ..Default::default()
            },
        )
        .unwrap();
        let rows: Vec<&[u32]> = (0..32u32).map(|v| GraphView::neighbors(&m, v)).collect();
        let s = m.cache_stats();
        assert!(s.evictions > 0);
        assert_eq!(s.reclaimed, 0, "no scope ever taken: monotone retention");
        // Every slice handed out is still readable.
        for (v, row) in rows.iter().enumerate() {
            assert_eq!(*row, g.neighbors(v as u32), "row {v} still valid");
        }
    }

    #[test]
    fn charge_hook_tracks_resident_bytes() {
        use std::sync::atomic::AtomicIsize;
        #[derive(Default)]
        struct Meter(AtomicIsize);
        impl CacheCharge for Meter {
            fn charge(&self, b: usize) {
                self.0.fetch_add(b as isize, Ordering::SeqCst);
            }
            fn release(&self, b: usize) {
                self.0.fetch_sub(b as isize, Ordering::SeqCst);
            }
        }
        let meter = Arc::new(Meter::default());
        let g = GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 3), (3, 4)])
            .build();
        let dir = tmpdir("charge");
        let path = write_to(dir.path(), &g, 2);
        {
            let m = MmapGraph::open_with(
                &path,
                &MapOptions {
                    charge: Some(meter.clone()),
                    ..Default::default()
                },
            )
            .unwrap();
            for v in 0..5u32 {
                let _ = GraphView::neighbors(&m, v);
            }
            let held = meter.0.load(Ordering::SeqCst);
            assert_eq!(held as usize, m.cache_stats().resident_bytes);
            assert!(held > 0);
        }
        assert_eq!(
            meter.0.load(Ordering::SeqCst),
            0,
            "drop releases all charges"
        );
    }
}
