//! # biodist-core
//!
//! The paper's primary contribution: a programmable, heterogeneous,
//! cycle-scavenging distributed computation framework (Page, Keane &
//! Naughton, IPDPS 2005, §2; scheduling from ref \[12\]).
//!
//! A user packages a computation as a [`Problem`]: a [`DataManager`]
//! (server side — partitions the problem into [`WorkUnit`]s and folds
//! [`TaskResult`]s back together, *including staged computations* whose
//! later units depend on earlier results) plus an [`Algorithm`] (client
//! side — the per-unit computation). The [`server::Server`] runs any
//! number of problems simultaneously and hands units to donor machines
//! using the adaptive scheduler in [`sched`]: per-client throughput
//! EWMAs, dynamically sized units, lease-timeout reissue for donors
//! that vanish, and redundant end-game dispatch for stragglers.
//!
//! Two backends execute problems:
//!
//! * [`sim_backend`] — drives the server against `biodist-gridsim`'s
//!   virtual machines, network and clock; used by every experiment
//!   harness (the paper's 200-PC campus replaced by a deterministic
//!   simulator, per DESIGN.md).
//! * [`net`] — the deployed donor: clients connect to the server over
//!   real TCP sockets using a CRC-guarded framed wire protocol
//!   ([`net::wire`]), with heartbeats, reconnect, donors that apply
//!   their own wire faults, and an append-only checkpoint log
//!   ([`net::checkpoint`]) that lets a killed server restart and resume
//!   without recombining any unit ([`recover`]). [`run_tcp`] runs a
//!   server's problems on loopback donors; the CLIs, the examples and
//!   every real-time test use it. A problem opts in by registering a
//!   [`codec::WireCodec`].
//!
//! Fault tolerance is testable by construction: [`fault`] expresses
//! seeded, replayable fault schedules ([`FaultPlan`]) interpreted by
//! both backends, and [`audit`] wraps any problem with an invariant
//! checker ([`audited`]) the chaos suite verifies after every run.

pub mod audit;
pub mod builtin;
pub mod codec;
mod donor;
pub mod fault;
pub mod leases;
pub mod net;
pub mod problem;
pub mod sched;
pub mod server;
pub mod sim_backend;
pub mod telemetry;

pub use audit::{audited, AuditHandle};
pub use codec::{ByteReader, ByteWriter, ChunkNeed, WireCodec, WireError};
pub use fault::{ChaosOptions, ClientFaults, DeliveryAction, FaultEvent, FaultKind, FaultPlan};
pub use net::{
    chunk_digest, raise_nofile_limit, run_tcp, run_tcp_faulty, run_tcp_replicated, run_tcp_with,
    Backoff, CacheStats, CheckpointWriter, ChunkCache, ChunkStore, Directory, NetClientOptions,
    NetServer, NetServerOptions, ReplicaServer, REPLICA_CLIENT_ID,
};
pub use problem::{Algorithm, DataManager, Payload, Problem, TaskResult, UnitId, WorkUnit};
pub use sched::{ClientId, SchedulerConfig};
pub use server::{
    recover, recover_traced, Assignment, DonorStatus, ProblemId, ProblemStatus, RecoveryReport,
    RunJournal, Server, StatusSnapshot, Then, TurnOutcome,
};
pub use sim_backend::{RunReport, SimConfig, SimRunner};
pub use telemetry::{
    phase_breakdowns, verify_spans, EventKind, Histogram, JsonlSink, MetricsSnapshot, RingHandle,
    Telemetry, TraceEvent, TraceSink, UnitPhases,
};
