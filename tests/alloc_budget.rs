//! The payload path's allocation budget, gated: a unit crossing the real
//! TCP path — leased, encoded, shipped, decoded, computed, its result
//! encoded, shipped, decoded, journaled and folded — may cost only the
//! heap allocations the programming model forces (`Payload` is a
//! `Box<dyn Any>`, a leased unit an `Arc<WorkUnit>`: three on the
//! origin, two on the donor) plus what a turn's worth of units shares.
//! Frames are decoded where they lie in the read buffer, encoded where
//! they leave from, and journaled as the bytes that arrived. A DSEARCH
//! chunk likewise costs the donor its bytes, its cache entry and the
//! sequence hydrated from it, and scoring it against each query costs
//! nothing more; the origin serves it allocation-free.
//!
//! A test binary of its own: the counting allocator is process-wide,
//! and its cases take turns.

use biodist::align::KernelKind;
use biodist::bioseq::synth::{random_sequence, DbSpec, SyntheticDb};
use biodist::bioseq::Alphabet;
use biodist::core::builtin::integration_problem;
use biodist::core::net::{
    directory, spawn_clients, ClientKit, Clock, NetClientOptions, NetServer, NetServerOptions,
};
use biodist::core::{audited, CheckpointWriter, FaultPlan, SchedulerConfig, Server};
use biodist::dsearch::{build_problem, search_sequential, DsearchConfig, SearchOutput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The system allocator, counting every block it hands out (a `realloc`
/// counts: it may be a new block).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic and touches no
// memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held by each case for its whole run, so no other case's allocations
/// land in its count.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Allocations per unit the whole process — origin shard (and its tick), donor
/// — may make between donor spawn and the end of the run. Five are the
/// programming model's; the rest is per turn, per pump and per tick.
const BUDGET_PER_UNIT: f64 = 6.5;

/// One donor against one shard with the write-ahead journal on and
/// telemetry off (the benchmark's `dispatch-journal` pass; the wiring
/// of `tests/scale.rs`'s control-plane budget): 20k fixed 1e4-op units
/// of the π integration, audited.
#[test]
fn a_unit_costs_the_allocations_the_programming_model_forces_and_little_more() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const UNITS: u64 = 20_000;
    let log = std::env::temp_dir().join(format!("biodist-alloc-budget-{}.log", std::process::id()));
    let mut server = Server::new(SchedulerConfig {
        min_unit_ops: 1e4,
        max_unit_ops: 1e4,
        lease_min_secs: 30.0,
        ..Default::default()
    });
    // 200 ops a grid point: 50 points make one 1e4-op unit.
    let (problem, audit) = audited(integration_problem(50 * UNITS));
    let pid = server.submit(problem);
    let writer = CheckpointWriter::create(&log).expect("create journal");
    server.set_journal(Box::new(writer));
    let kit = ClientKit::from_server(&server).expect("codecs registered");
    let clock = Clock::new(1.0);
    let opts = NetServerOptions { shards: 1 };
    let net = NetServer::start(server, clock, opts).expect("bind server");
    let dir = directory();
    dir.set_origin(Some(net.addr()));
    let run_over = Arc::new(AtomicBool::new(false));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let handles = spawn_clients(
        dir,
        clock,
        kit,
        1,
        &FaultPlan::none(),
        run_over.clone(),
        NetClientOptions::default(),
    );
    let mut server = net.wait();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().expect("donor thread");
    }
    let _ = std::fs::remove_file(&log);
    assert_eq!(server.stats(pid).completed_units, UNITS);
    audit.verify_run(&server).expect("exactly-once audit clean");
    let pi = server.take_output(pid).unwrap().into_inner::<f64>();
    assert!((pi - std::f64::consts::PI).abs() < 1e-8, "got {pi}");
    let per_unit = allocations as f64 / UNITS as f64;
    // (Shown with `--nocapture`: the hand-read number of EXPERIMENTS.md.)
    eprintln!("{allocations} allocations for {UNITS} units: {per_unit:.2} a unit");
    assert!(
        per_unit <= BUDGET_PER_UNIT,
        "{per_unit:.2} allocations a unit (budget {BUDGET_PER_UNIT})"
    );
}

/// Allocations per fetched chunk the whole process — origin, donor —
/// may make in a DSEARCH run over loopback. Four are the chunk's own:
/// its bytes and their `Arc`, the hydrated sequence's id and residues
/// (the kernels score in rows kept per thread, not allocated per
/// score); the rest is its share of its unit's hits and its turn's.
/// Measured 4.46.
const BUDGET_PER_CHUNK: f64 = 5.0;

/// One donor fetching every chunk of a 2,000-sequence protein database
/// from the origin, striped kernel, two queries, fixed 100-chunk units,
/// telemetry off; the output must equal the sequential search's.
#[test]
fn a_dsearch_chunk_costs_the_allocations_its_bytes_and_its_sequence_force() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const SEQS: usize = 2_000;
    let db = SyntheticDb::generate(&DbSpec::protein_demo(SEQS, 100), 36).sequences;
    let queries: Vec<_> = (0..2u64)
        .map(|i| random_sequence(Alphabet::Protein, &format!("q{i}"), 100, 360 + i))
        .collect();
    let mut cfg = DsearchConfig::protein_default();
    cfg.kernel = KernelKind::Striped;
    let expected = search_sequential(&db, &queries, &cfg);
    // A 100-residue subject costs 2 × 100 × 100 cells against the two
    // queries: 2e6 ops cut 100-chunk units, whatever the build's speed.
    let mut server = Server::new(SchedulerConfig {
        min_unit_ops: 2e6,
        max_unit_ops: 2e6,
        lease_min_secs: 30.0,
        ..Default::default()
    });
    let pid = server.submit(build_problem(db, queries, &cfg));
    let kit = ClientKit::from_server(&server).expect("codecs registered");
    let clock = Clock::new(1.0);
    let net = NetServer::start(server, clock, NetServerOptions::default()).expect("bind server");
    let dir = directory();
    dir.set_origin(Some(net.addr()));
    let run_over = Arc::new(AtomicBool::new(false));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let handles = spawn_clients(
        dir,
        clock,
        kit,
        1,
        &FaultPlan::none(),
        run_over.clone(),
        NetClientOptions::default(),
    );
    let mut server = net.wait();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    run_over.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().expect("donor thread");
    }
    let out = server
        .take_output(pid)
        .unwrap()
        .into_inner::<SearchOutput>();
    assert_eq!(out.hits, expected);
    // One donor fetches each chunk once (a reissued unit would fetch
    // from its cache, and only count against the budget).
    let per_chunk = allocations as f64 / SEQS as f64;
    eprintln!("{allocations} allocations for {SEQS} chunks: {per_chunk:.2} a chunk");
    assert!(
        per_chunk <= BUDGET_PER_CHUNK,
        "{per_chunk:.2} allocations a chunk (budget {BUDGET_PER_CHUNK})"
    );
}
