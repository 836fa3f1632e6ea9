//! Steady-state fast-forward must not touch the heap.
//!
//! The event-driven core (`next_event_at` + `skip_to` + sparse ticks) is
//! the per-cycle inner loop of every sweep; an allocation there is a
//! per-event cost multiplied by billions of simulated cycles. This test
//! pins the guarantee with a counting global allocator: after a warm-up
//! that grows every internal buffer to its steady-state capacity
//! (request-queue rings, the event heap, the completion vector), further
//! enqueue/drain waves of the same shape must perform **zero** heap
//! allocations and **zero** reallocations.
//!
//! The armed flag and the tally are thread-local (const-initialized, so
//! touching them never itself allocates or registers a destructor): only
//! allocations made by a test's own thread count, keeping libtest's
//! harness threads and the other test, which runs concurrently, from
//! poisoning the tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fgnvm_mem::MemorySystem;
use fgnvm_types::config::SystemConfig;
use fgnvm_types::request::Op;
use fgnvm_types::PhysAddr;

/// Forwards to the system allocator, counting alloc/realloc calls while
/// the current thread is armed. Deallocations are not counted: freeing
/// warm-up scratch late is harmless, acquiring new memory mid-loop is the
/// regression.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_armed() {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One wave of the bench's write-drain pattern: 32 writes onto one bank
/// across 16 rows, then drain to idle. Identical shape every wave, so the
/// first wave settles every buffer at its high-water mark.
fn wave(mem: &mut MemorySystem, id: &mut u64, out: &mut Vec<fgnvm_types::request::Completion>) {
    for _ in 0..32 {
        let addr = PhysAddr::new(((*id % 8) << 13) | (((*id / 8) % 16) << 6));
        *id += 1;
        while mem.enqueue(Op::Write, addr).is_none() {
            mem.tick_to(fgnvm_types::time::Cycle::new(mem.now().raw() + 1), out);
        }
    }
    // Drain: hop event to event until idle (the fast-forward inner loop).
    while !mem.is_idle() {
        let target = fgnvm_types::time::Cycle::new(mem.now().raw() + 1_000_000);
        mem.tick_to(target, out);
        assert!(
            mem.is_idle() || mem.now().raw() < target.raw(),
            "drain failed to converge"
        );
    }
}

#[test]
fn fast_forward_steady_state_allocates_nothing() {
    let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
    mem.set_fast_forward(true);
    let mut id = 0u64;
    let mut out = Vec::with_capacity(4096);

    // Warm-up: two full waves grow the queues, the event heap, and `out`
    // to the repeating pattern's high-water marks.
    for _ in 0..2 {
        wave(&mut mem, &mut id, &mut out);
    }
    out.clear();

    // Armed: ten more identical waves must never touch the allocator.
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    for _ in 0..10 {
        wave(&mut mem, &mut id, &mut out);
        out.clear();
    }
    ARMED.with(|a| a.set(false));

    let allocs = ALLOCS.with(Cell::get);
    assert_eq!(
        allocs, 0,
        "steady-state fast-forward performed {allocs} heap allocations"
    );
    assert!(id >= 12 * 32, "waves did not run");
}

/// Bits needed to hold `n`: how many times an append-only buffer that
/// started small has doubled by the time it holds `n` entries.
fn doublings(n: usize) -> u64 {
    u64::from(usize::BITS - n.leading_zeros())
}

/// Runs 200 warm write waves with the observer on (and the issue audit,
/// when `audit`) and asserts that only the append-only buffers grew.
fn assert_observer_waves_do_not_allocate_per_command(audit: bool) {
    let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
    mem.set_fast_forward(true);
    mem.enable_observer();
    if audit {
        mem.enable_audit();
    }
    let mut id = 0u64;
    let mut out = Vec::with_capacity(4096);
    for _ in 0..2 {
        wave(&mut mem, &mut id, &mut out);
    }
    out.clear();

    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    for _ in 0..200 {
        wave(&mut mem, &mut id, &mut out);
        out.clear();
    }
    ARMED.with(|a| a.set(false));

    // The per-request records and the trace buffer are append-only, so
    // they may still double; nothing else may touch the heap.
    let allocs = ALLOCS.with(Cell::get);
    let obs = mem.observer().expect("observer enabled");
    let events = obs.trace.len();
    assert!(events >= 200 * 32, "waves did not issue");
    if audit {
        let issues = obs.audit().expect("audit enabled").issues;
        assert!(issues >= 200 * 32, "audit saw {issues} decisions");
    }
    let bound = 8 + doublings(obs.attribution.requests.len()) + doublings(events);
    assert!(
        allocs <= bound,
        "observer-on waves (audit {audit}) performed {allocs} heap allocations over \
         {events} trace events (bound {bound})"
    );
}

#[test]
fn observer_hooks_do_not_allocate_per_command() {
    assert_observer_waves_do_not_allocate_per_command(false);
}

#[test]
fn audited_issues_do_not_allocate_per_command() {
    assert_observer_waves_do_not_allocate_per_command(true);
}
