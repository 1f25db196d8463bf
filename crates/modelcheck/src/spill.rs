//! Disk spill backend for the interned exploration store.
//!
//! The interned store is file-shaped already: node rows are fixed-stride
//! `u32` id arrays appended in discovery order, and the fingerprint index
//! is a flat `fp → ids` multimap. Both grow with the number of
//! configurations, so this module gives `RowStore` (see `graph.rs`) a
//! bounded hot tier by spilling them to files under a per-exploration run
//! directory. The interner arenas grow only with the number of *distinct*
//! object and process states — a handful per slot for the paper's
//! deterministic, oblivious objects — and always stay resident.
//!
//! * **rows** — one file holding the id rows of nodes `[0, hot_base)`, in
//!   id order, so a spilled row is one positional read at
//!   `id * stride * 4`;
//! * **fingerprint index** — one file of `(fp, id)` pairs sorted by
//!   `(fp, id)`, plus an in-memory *fence* array holding the first `fp` of
//!   every [`INDEX_BLOCK`]-entry block. Draining the in-memory index
//!   (`FpIndex`, see `index.rs`) takes its entries out sorted and
//!   stream-merges them with the old index into the other of two
//!   alternating files, building the fences as it goes.
//!   A dedup probe binary-searches the fences and reads only the blocks
//!   whose fence range can hold `fp` (usually one 256-byte block), then
//!   keeps the pairs whose `fp` equals the probe's.
//!
//! A probe is exact: the file is sorted, so every pair filed under `fp`
//! lies in the contiguous run of blocks from the last block whose fence is
//! below `fp` through the last block whose fence equals it — exactly the
//! blocks the probe reads — and every such pair is returned. Candidate
//! order does not matter to the caller, because at most one stored row can
//! word-match a configuration.
//!
//! What spills, and when, is decided by the store (`begin_level` in
//! `graph.rs`); this module is the dumb I/O layer plus the byte
//! accounting. All reads and writes are positional (`FileExt::*_at`), so no
//! operation depends on a file cursor. Spill I/O failing is an environment
//! failure (disk full, run dir deleted), not a model-checking result, so
//! all I/O panics with context rather than threading `Result`s through the
//! store.
//!
//! The run directory lives under `MC_STORE_DIR` (default:
//! [`std::env::temp_dir`]) as `mc-spill-<pid>-<seq>` and is removed on
//! drop — including the early-exit paths (verdict goals, panics during
//! exploration) since the stores own their [`Spill`] by value.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use subconsensus_sim::Recorder;

use crate::index::FpIndex;

/// Hot-tier budget applied when the disk store is selected without an
/// explicit `store_budget_bytes` / `MC_STORE_BUDGET` (256 MiB).
pub(crate) const DEFAULT_DISK_BUDGET: usize = 256 << 20;

/// Entries per fence block of the spilled fingerprint index: the fence
/// array costs 8 bytes per block (half a byte per spilled entry), and a
/// probe usually reads one block (256 bytes).
const INDEX_BLOCK: usize = 16;

/// Bytes of one spilled index entry: `fp` then `id`, both little-endian
/// `u64`.
const INDEX_ENTRY: usize = 16;

/// Entries per positional read while a drain streams the old index file.
const MERGE_CHUNK: usize = 4096;

/// Distinguishes run directories of concurrent explorations in one
/// process.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// An owned run directory, removed (recursively) on drop.
struct RunDir {
    path: PathBuf,
}

impl RunDir {
    fn create() -> RunDir {
        let base = std::env::var_os("MC_STORE_DIR")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("mc-spill-{}-{}", std::process::id(), seq));
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("spill: cannot create run dir {}: {e}", path.display()));
        RunDir { path }
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        // Best-effort: a failed cleanup must not turn into a panic-in-drop.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn create_file(dir: &RunDir, name: &str) -> File {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(dir.path.join(name))
        .unwrap_or_else(|e| {
            panic!(
                "spill: cannot create {} in {}: {e}",
                name,
                dir.path.display()
            )
        })
}

/// Reads exactly `buf.len()` bytes of `file` at byte offset `off` — the
/// one read path of every spill file (positional: no cursor, no seek).
fn read_at(file: &File, off: u64, buf: &mut [u8], what: &str) {
    file.read_exact_at(buf, off)
        .unwrap_or_else(|e| panic!("spill: {what} read failed at offset {off}: {e}"));
}

/// Writes all of `bytes` to `file` at byte offset `off`.
fn write_at(file: &File, off: u64, bytes: &[u8], what: &str) {
    file.write_all_at(bytes, off)
        .unwrap_or_else(|e| panic!("spill: {what} write failed at offset {off}: {e}"));
}

/// Times one spill I/O operation onto the recorder's spill slots, only
/// when timing is on (the untimed path reads no clock).
fn timed<R>(rec: &Recorder, add: impl Fn(&Recorder, u64), op: impl FnOnce() -> R) -> R {
    if rec.is_timing() {
        let t0 = Instant::now();
        let out = op();
        add(rec, t0.elapsed().as_nanos() as u64);
        out
    } else {
        op()
    }
}

/// One store's spill state: the run directory, its two file families and
/// the rows currently reloaded.
pub(crate) struct Spill {
    dir: RunDir,
    /// Hot-tier budget the owning store evicts against.
    pub(crate) budget: usize,
    /// Row width in `u32` words (`nobjects + nprocs`).
    stride: usize,
    rows_file: File,
    /// Rows `[0, hot_base)` are on disk; the store's `words` vec holds
    /// `[hot_base, len)`.
    hot_base: usize,
    /// Spilled rows faulted back for the current level (frontier pins plus
    /// merge-time dedup faults); cleared at every level boundary.
    reloaded: HashMap<usize, Box<[u32]>>,
    /// The two files a drain alternates between, each created on first
    /// use: `idx_files[idx_active]` holds the spilled fingerprint index,
    /// `idx_len` `(fp, id)` entries sorted by `(fp, id)`; a drain merges it
    /// into the other file from offset 0. The index only grows, so the
    /// merge overwrites every byte of the older index left there.
    idx_files: [Option<File>; 2],
    idx_active: usize,
    idx_len: usize,
    /// First `fp` of every [`INDEX_BLOCK`]-entry block of the index.
    fences: Vec<u64>,
    /// Largest spilled `fp`: probes above it skip the read.
    idx_max: u64,
}

impl Spill {
    pub(crate) fn new(stride: usize, budget: usize) -> Spill {
        let dir = RunDir::create();
        let rows_file = create_file(&dir, "rows.bin");
        Spill {
            dir,
            budget,
            stride,
            rows_file,
            hot_base: 0,
            reloaded: HashMap::new(),
            idx_files: [None, None],
            idx_active: 0,
            idx_len: 0,
            fences: Vec::new(),
            idx_max: 0,
        }
    }

    /// First node id *not* on disk: the store's `words` vec starts here.
    pub(crate) fn hot_base(&self) -> usize {
        self.hot_base
    }

    /// Appends `words` (complete rows, ids `hot_base..`) to the rows file.
    /// The caller clears its hot vec afterwards; the prefix-on-disk
    /// invariant (`rows file = ids [0, hot_base) in order`) is what makes
    /// faulting a row one offset computation.
    pub(crate) fn spill_rows(&mut self, words: &[u32], rec: &Recorder) {
        debug_assert_eq!(words.len() % self.stride, 0);
        if words.is_empty() {
            return;
        }
        let off = (self.hot_base * self.stride * 4) as u64;
        timed(rec, Recorder::add_spill_write_ns, || {
            write_at(&self.rows_file, off, words_as_bytes(words), "rows");
        });
        self.hot_base += words.len() / self.stride;
        rec.count_spilled_bytes(std::mem::size_of_val(words) as u64);
    }

    /// Drops the per-level reloaded rows (called at every level boundary
    /// before re-pinning the new frontier).
    pub(crate) fn clear_reloaded(&mut self) {
        self.reloaded.clear();
    }

    /// The spilled row `i` if it is currently reloaded (worker-safe: a
    /// `None` here is a safe false miss on the dedup path).
    pub(crate) fn reloaded_row(&self, i: usize) -> Option<&[u32]> {
        self.reloaded.get(&i).map(|r| &**r)
    }

    /// Faults spilled row `i` into the reloaded tier (merge-side only:
    /// needs `&mut`) and returns it.
    pub(crate) fn fault_row(&mut self, i: usize, rec: &Recorder) -> &[u32] {
        debug_assert!(i < self.hot_base);
        if !self.reloaded.contains_key(&i) {
            let mut row = vec![0u32; self.stride].into_boxed_slice();
            let off = (i * self.stride * 4) as u64;
            timed(rec, Recorder::add_spill_read_ns, || {
                read_at(&self.rows_file, off, words_as_bytes_mut(&mut row), "row");
            });
            rec.count_store_reloads(1);
            self.reloaded.insert(i, row);
        }
        &self.reloaded[&i]
    }

    /// Resident bytes of the reloaded-row tier.
    pub(crate) fn reloaded_bytes(&self) -> usize {
        self.reloaded.len() * (self.stride * 4 + std::mem::size_of::<usize>() * 2)
    }

    /// Moves every entry of the in-memory fingerprint index to the spilled
    /// index, leaving it empty with no slot array: the drained entries
    /// come out sorted and are stream-merged with the old index into the
    /// other index file (the old one is read in [`MERGE_CHUNK`]-entry
    /// pieces, never whole), rebuilding the fences. The in-memory index
    /// only holds entries added since the previous drain.
    pub(crate) fn drain_index(&mut self, index: &mut FpIndex, rec: &Recorder) {
        if index.len() == 0 {
            return;
        }
        let fresh = index.drain_sorted();
        let len = self.idx_len + fresh.len();
        let mut fences = Vec::with_capacity(len.div_ceil(INDEX_BLOCK));
        let next = 1 - self.idx_active;
        if self.idx_files[next].is_none() {
            self.idx_files[next] = Some(create_file(&self.dir, &format!("index-{next}.bin")));
        }
        let file = self.idx_files[next]
            .as_ref()
            .expect("index file just created");
        let mut max = self.idx_max;
        timed(rec, Recorder::add_spill_write_ns, || {
            let old = self.idx_files[self.idx_active].as_ref();
            let mut old = OldIndex::new(old, self.idx_len).peekable();
            let mut fresh = fresh.into_iter().peekable();
            let mut buf: Vec<u8> = Vec::with_capacity(MERGE_CHUNK * INDEX_ENTRY);
            let mut off = 0u64;
            for k in 0..len {
                let take_old = match (old.peek(), fresh.peek()) {
                    (Some(a), Some(b)) => a <= b,
                    (a, _) => a.is_some(),
                };
                let (fp, id) = if take_old { old.next() } else { fresh.next() }
                    .expect("merge runs exactly len entries");
                if k % INDEX_BLOCK == 0 {
                    fences.push(fp);
                }
                max = fp;
                buf.extend_from_slice(&fp.to_le_bytes());
                buf.extend_from_slice(&id.to_le_bytes());
                if buf.len() == MERGE_CHUNK * INDEX_ENTRY || k + 1 == len {
                    write_at(file, off, &buf, "index");
                    off += buf.len() as u64;
                    buf.clear();
                }
            }
        });
        rec.count_spilled_bytes((len * INDEX_ENTRY) as u64);
        self.idx_active = next;
        self.idx_len = len;
        self.idx_max = max;
        self.fences = fences;
    }

    /// The entries of the spilled index that can hold `fp`: every block
    /// from the last one whose fence is below `fp` (its tail may start a
    /// run of `fp`) through the last one whose fence equals `fp`. Empty
    /// when `fp` lies outside the spilled range.
    fn probe_range(&self, fp: u64) -> Range<usize> {
        if self.idx_len == 0 || fp < self.fences[0] || fp > self.idx_max {
            return 0..0;
        }
        let first = self.fences.partition_point(|&f| f < fp).saturating_sub(1);
        let end = self.fences.partition_point(|&f| f <= fp);
        first * INDEX_BLOCK..(end * INDEX_BLOCK).min(self.idx_len)
    }

    /// Appends the node ids filed under `fp` in the spilled index to
    /// `out` — all of them, in `(fp, id)` order, with one positional read
    /// of the blocks [`probe_range`](Self::probe_range) selects.
    pub(crate) fn spilled_candidates(&self, fp: u64, out: &mut Vec<usize>, rec: &Recorder) {
        let range = self.probe_range(fp);
        if range.is_empty() {
            return;
        }
        let file = self.idx_files[self.idx_active]
            .as_ref()
            .expect("a nonempty index has a file");
        let mut buf = vec![0u8; range.len() * INDEX_ENTRY];
        timed(rec, Recorder::add_spill_read_ns, || {
            read_at(file, (range.start * INDEX_ENTRY) as u64, &mut buf, "index");
        });
        rec.count_index_reads(1);
        out.extend(buf.chunks_exact(INDEX_ENTRY).filter_map(|e| {
            let (efp, id) = decode_entry(e);
            (efp == fp).then_some(id as usize)
        }));
    }

    /// Resident bytes of the spilled index's fence array.
    pub(crate) fn fence_bytes(&self) -> usize {
        self.fences.len() * std::mem::size_of::<u64>()
    }

    /// Streams the whole rows file back: the full `[0, hot_base)` prefix
    /// as one contiguous words vec (freeze-time reconstitution).
    pub(crate) fn read_all_rows(&self, rec: &Recorder) -> Vec<u32> {
        let mut words = vec![0u32; self.hot_base * self.stride];
        if !words.is_empty() {
            timed(rec, Recorder::add_spill_read_ns, || {
                read_at(&self.rows_file, 0, words_as_bytes_mut(&mut words), "rows");
            });
            rec.count_store_reloads(1);
        }
        words
    }

    /// The run directory path (tests assert it is cleaned up on drop).
    #[cfg(test)]
    pub(crate) fn dir_path(&self) -> PathBuf {
        self.dir.path.clone()
    }
}

/// One `(fp, id)` entry of the spilled index.
fn decode_entry(e: &[u8]) -> (u64, u64) {
    let word = |r: Range<usize>| u64::from_le_bytes(e[r].try_into().expect("8-byte index word"));
    (word(0..8), word(8..16))
}

/// The entries of the previous index file in order, read in
/// [`MERGE_CHUNK`]-entry pieces — a drain's bounded-memory view of it.
struct OldIndex<'f> {
    file: Option<&'f File>,
    len: usize,
    /// Entries read so far.
    read: usize,
    chunk: Vec<u8>,
    at: usize,
}

impl<'f> OldIndex<'f> {
    fn new(file: Option<&'f File>, len: usize) -> OldIndex<'f> {
        OldIndex {
            file,
            len,
            read: 0,
            chunk: Vec::new(),
            at: 0,
        }
    }
}

impl Iterator for OldIndex<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.at == self.chunk.len() {
            let n = MERGE_CHUNK.min(self.len - self.read);
            if n == 0 {
                return None;
            }
            let file = self.file.expect("a nonempty index has a file");
            self.chunk.resize(n * INDEX_ENTRY, 0);
            read_at(
                file,
                (self.read * INDEX_ENTRY) as u64,
                &mut self.chunk,
                "index",
            );
            self.read += n;
            self.at = 0;
        }
        let e = decode_entry(&self.chunk[self.at..self.at + INDEX_ENTRY]);
        self.at += INDEX_ENTRY;
        Some(e)
    }
}

fn words_as_bytes(words: &[u32]) -> &[u8] {
    // Safe view: u32 has no padding and any alignment works for &[u8].
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), std::mem::size_of_val(words)) }
}

fn words_as_bytes_mut(words: &mut [u32]) -> &mut [u8] {
    // Safe view on a native-endian round trip: the bytes are written and
    // read back by this same process.
    unsafe {
        std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), std::mem::size_of_val(words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_spill_and_fault_round_trip() {
        let rec = Recorder::new();
        let mut spill = Spill::new(3, 1024);
        let dir = spill.dir_path();
        assert!(dir.exists());
        spill.spill_rows(&[1, 2, 3, 4, 5, 6], &rec);
        assert_eq!(spill.hot_base(), 2);
        assert_eq!(spill.reloaded_row(1), None, "not faulted yet");
        assert_eq!(spill.fault_row(1, &rec), &[4, 5, 6]);
        assert_eq!(spill.fault_row(0, &rec), &[1, 2, 3]);
        assert_eq!(spill.reloaded_row(1), Some(&[4u32, 5, 6][..]));
        spill.clear_reloaded();
        assert_eq!(spill.reloaded_row(1), None);
        assert_eq!(spill.read_all_rows(&rec), vec![1, 2, 3, 4, 5, 6]);
        drop(spill);
        assert!(!dir.exists(), "run dir must be removed on drop");
    }

    /// Probes `fp`, checking the read is bounded: at most one positional
    /// read, covering only the blocks that can hold `fp`.
    fn probe(spill: &Spill, fp: u64) -> Vec<usize> {
        let rec = Recorder::new();
        rec.mark_store_active();
        let mut out = Vec::new();
        spill.spilled_candidates(fp, &mut out, &rec);
        let reads = rec
            .snapshot()
            .store
            .expect("store marked active")
            .index_reads;
        let range = spill.probe_range(fp);
        assert_eq!(
            reads,
            u64::from(!range.is_empty()),
            "fp {fp}: one read per probe"
        );
        // The blocks a run of `fp` touches, plus the one before it whose
        // tail may start the run.
        let touched = out.len().div_ceil(INDEX_BLOCK) + 2;
        assert!(
            range.len() <= touched * INDEX_BLOCK,
            "fp {fp}: read {} entries for {} hits",
            range.len(),
            out.len()
        );
        out
    }

    fn drain(
        spill: &mut Spill,
        entries: &[(u64, usize)],
        reference: &mut HashMap<u64, Vec<usize>>,
    ) {
        let mut index = FpIndex::default();
        for &(fp, id) in entries {
            index.insert(fp, id);
            reference.entry(fp).or_default().push(id);
        }
        spill.drain_index(&mut index, &Recorder::new());
        assert_eq!(
            (index.len(), index.bytes()),
            (0, 0),
            "drain empties the in-memory index"
        );
    }

    fn assert_matches(spill: &Spill, reference: &HashMap<u64, Vec<usize>>) {
        for (&fp, ids) in reference {
            let mut want = ids.clone();
            want.sort_unstable();
            assert_eq!(probe(spill, fp), want, "fp {fp}");
        }
    }

    #[test]
    fn empty_index_probes_nothing() {
        let mut spill = Spill::new(2, 1024);
        assert!(probe(&spill, 0).is_empty());
        assert!(probe(&spill, u64::MAX).is_empty());
        // Draining an empty map creates no index.
        drain(&mut spill, &[], &mut HashMap::new());
        assert!(spill.idx_files.iter().all(Option::is_none));
        assert_eq!(spill.fence_bytes(), 0);
        assert!(probe(&spill, 7).is_empty());
    }

    #[test]
    fn index_drain_and_probe() {
        let mut spill = Spill::new(2, 1024);
        let mut reference = HashMap::new();
        drain(&mut spill, &[(7, 1), (7, 4), (23, 9)], &mut reference);
        assert_matches(&spill, &reference);
        assert!(probe(&spill, 8).is_empty(), "between two fingerprints");
        // A second drain merges: the same fp now has ids from both drains.
        drain(&mut spill, &[(7, 12), (5, 13)], &mut reference);
        assert_eq!(probe(&spill, 7), vec![1, 4, 12]);
        assert_matches(&spill, &reference);
    }

    #[test]
    fn out_of_range_fingerprints_read_nothing() {
        let mut spill = Spill::new(2, 1024);
        let entries: Vec<(u64, usize)> = (0..100).map(|i| (1000 + 10 * i, i as usize)).collect();
        drain(&mut spill, &entries, &mut HashMap::new());
        assert_eq!(spill.fences.len(), 100usize.div_ceil(INDEX_BLOCK));
        for fp in [0, 999, 1991, u64::MAX] {
            assert!(spill.probe_range(fp).is_empty(), "fp {fp}");
            assert!(probe(&spill, fp).is_empty(), "fp {fp}");
        }
        // In range but absent: at most two blocks, no hits.
        assert!(probe(&spill, 1005).is_empty());
        assert_eq!(probe(&spill, 1000), vec![0]);
        assert_eq!(probe(&spill, 1990), vec![99]);
    }

    #[test]
    fn runs_straddling_block_boundaries_are_returned_whole() {
        let mut spill = Spill::new(2, 1024);
        let mut reference = HashMap::new();
        // fp 50 fills the tail of block 0, all of block 1 and the head of
        // block 2; fp 60 starts exactly on a block boundary.
        let mut entries: Vec<(u64, usize)> = (0..10).map(|i| (i, i as usize)).collect();
        entries.extend((0..INDEX_BLOCK + 12).map(|i| (50, 100 + i)));
        entries.extend((0..INDEX_BLOCK).map(|i| (60, 200 + i)));
        drain(&mut spill, &entries, &mut reference);
        assert_matches(&spill, &reference);
        assert!(probe(&spill, 55).is_empty());
        assert!(probe(&spill, 61).is_empty());
    }

    #[test]
    fn seeded_drains_match_a_reference_multimap() {
        use subconsensus_sim::SmallRng;
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut spill = Spill::new(2, 1024);
            let mut reference: HashMap<u64, Vec<usize>> = HashMap::new();
            let mut next_id = 0usize;
            // Few distinct fingerprints, so one fp collects ids across
            // drains and its run crosses block boundaries.
            let span = 1 + rng.gen_index(200);
            for _ in 0..1 + rng.gen_index(12) {
                let n = rng.gen_index(3 * MERGE_CHUNK / 2);
                let entries: Vec<(u64, usize)> = (0..n)
                    .map(|_| {
                        next_id += 1;
                        (rng.gen_index(span) as u64 * 0x9e37_79b9, next_id)
                    })
                    .collect();
                drain(&mut spill, &entries, &mut reference);
                assert_matches(&spill, &reference);
                assert_eq!(spill.idx_len, next_id);
                assert_eq!(spill.fence_bytes(), next_id.div_ceil(INDEX_BLOCK) * 8);
            }
            for fp in [0, 1, u64::MAX] {
                let mut want = reference.get(&fp).cloned().unwrap_or_default();
                want.sort_unstable();
                assert_eq!(probe(&spill, fp), want, "seed {seed} fp {fp}");
            }
        }
    }
}
