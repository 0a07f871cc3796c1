//! # psim-serve — the persistent compile-and-execute service
//!
//! A batch compiler pays the full pipeline cost on every invocation. This
//! crate keeps the compiler *resident*: a daemon (`psim-serve`) accepts
//! PsimC sources plus named workload buffers over a line-delimited JSON
//! protocol (TCP or Unix socket), compiles them through the standard
//! Parsimony pipeline, executes them on the interpreter's fast engine,
//! and streams back outputs, cycles, and telemetry — with two
//! content-addressed cache tiers shared across every concurrent session:
//!
//! 1. **Module cache** — canonicalized source hash (comments and
//!    whitespace stripped) × compile configuration → compiled module,
//!    shared by every engine and target.
//! 2. **Plan cache** — the interpreter's shared [`psir::PlanCache`]:
//!    (module, target, function) → execution [`psir::FramePlan`],
//!    shared by every engine.
//!
//! Both tiers are LRU with byte budgets and hit/miss/eviction counters;
//! an eviction can never produce a different answer, only a recompile —
//! `servebench --check` proves served responses byte-identical to
//! uncached single-shot runs.
//!
//! Requests are admitted into a bounded work-stealing executor pool;
//! when the bound is hit the client receives an explicit `overloaded`
//! response (never a silent drop). Degraded regions and fault injection
//! ride along per-request, exactly as on the `psimcc` command line.
//!
//! On top of the caches sits the **batching tier** ([`batch`]):
//! concurrent `run` requests that agree on module, engine, target, entry,
//! gang configuration, and budgets are coalesced — within a bounded window —
//! into one batch that executes back-to-back on a single pre-warmed
//! interpreter arena, resolving the shared plan once. Responses stay
//! byte-identical to unbatched runs; a cancelled or budget-exhausted
//! member detaches to its structured error without poisoning its
//! batchmates. See `DESIGN.md` §16.
//!
//! See `DESIGN.md` §13 for the architecture and the README's *Serving*
//! section for a copy-paste client session.

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod engine;
pub mod executor;
pub mod hashing;
pub mod request;
pub mod servebench;
pub mod server;

pub use batch::{Batch, BatchConfig, BatchCounters, Coalescer};
pub use cache::{CompiledModule, ModuleCache, ModuleCacheStats};
pub use chaos::{ChaosSpec, CHAOS_DELAY};
pub use client::Client;
pub use engine::{single_shot, RunBudget, ServeError, ServeLimits, ServeOptions, ServeState};
pub use executor::{Executor, Overloaded};
pub use request::{CacheInfo, Mode, Request, Response, RunRequest, RunResponse};
pub use server::{serve_tcp, serve_unix, ServerHandle};
