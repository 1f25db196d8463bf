//! Allocation budgets of the two hot loops behind the paper's tables: the
//! steps of a seeded simulator run (E2) and the verdict checks of the
//! bounded impossibility search (E9). Both loops once spent most of their
//! time in the allocator, so a change that brings a per-step or per-check
//! allocation back shows up here as a count, long before it shows up in a
//! timing.
//!
//! A counting global allocator tallies heap allocations (`alloc`,
//! `alloc_zeroed` and `realloc`) per thread, so tests running in parallel
//! do not see each other's. The bounds are the measured counts plus about
//! 25% headroom; the counts themselves are deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use subconsensus_bench::grouped_system;
use subconsensus_core::{search_binary_consensus, set_consensus_32_class};
use subconsensus_objects::SetConsensus;
use subconsensus_sim::{run, RandomScheduler, RunOptions};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting each allocation on the allocating thread.
struct Counting;

fn count() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds `GlobalAlloc`'s contract exactly when `System` does;
// counting touches only a const-initialized thread-local, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations per step of seeded runs of `O_{4,3}`'s grouped object with
/// 16 processes, the E2 loop: the run steps its configuration in place,
/// so what is left is the protocol's and the object's own values and the
/// two `Arc`s a step replaces (measured: 6.22; 12.09 when every step
/// cloned the configuration per outcome).
const STEP_BUDGET: f64 = 7.8;

/// Allocations per check of the depth-2 `(3,2)`-set-consensus search, in
/// one exploration session warmed by its own earlier checks (measured:
/// 33.1; 248.1 when every exploration built its buffers afresh).
const CHECK_BUDGET: f64 = 41.0;

#[test]
fn simulator_steps_stay_within_their_allocation_budget() {
    let spec = grouped_system(4, 3, 16);
    let opts = RunOptions::default();
    let (steps, allocs) = allocations(|| {
        (0..200u64)
            .map(|seed| {
                let mut sched = RandomScheduler::seeded(seed);
                let mut chooser = RandomScheduler::seeded(seed.wrapping_add(7));
                let out = run(&spec, &mut sched, &mut chooser, &opts).expect("runs");
                assert!(out.reached_final);
                out.steps
            })
            .sum::<usize>()
    });
    let per_step = allocs as f64 / steps as f64;
    eprintln!("{allocs} allocations in {steps} steps: {per_step:.2} per step");
    assert!(
        per_step <= STEP_BUDGET,
        "{per_step:.2} allocations per step, budget {STEP_BUDGET}"
    );
}

// ~30 s in a debug build; `scripts/check.sh` runs it in release with
// `cargo test --release -p subconsensus-bench --test alloc_budget -- --ignored`.
#[test]
#[ignore = "slow in debug: run with --release -- --ignored"]
fn impossibility_checks_stay_within_their_allocation_budget() {
    let (out, allocs) = allocations(|| {
        search_binary_consensus(
            || Box::new(SetConsensus::new(3, 2).expect("0 < 2 < 3")),
            &set_consensus_32_class(2),
        )
        .expect("searches")
    });
    assert_eq!((out.checks, out.witness), (81_810, None));
    let per_check = allocs as f64 / out.checks as f64;
    eprintln!(
        "{allocs} allocations in {} checks: {per_check:.1} per check",
        out.checks
    );
    assert!(
        per_check <= CHECK_BUDGET,
        "{per_check:.1} allocations per check, budget {CHECK_BUDGET}"
    );
}
