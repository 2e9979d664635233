#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `ddbm-resource` — physical resource models for a database machine node
//! (the paper's *resource manager*, §3.4).
//!
//! A node consists of one [`Cpu`] (processor sharing, with preemptive-priority
//! FIFO service for message protocol work) and a [`DiskArray`] (per-disk FIFO
//! queues, writes prioritized over reads). Both are *passive* components: the
//! simulator advances them to the current instant, submits or cancels work,
//! then asks for the next completion instant and schedules a calendar event
//! for it. Jobs are identified by a caller-chosen tag type, so this crate has
//! no knowledge of transactions or concurrency control.

pub mod buffer;
pub mod cpu;
pub mod disk;

pub use buffer::LruPool;
pub use cpu::Cpu;
pub use disk::{Disk, DiskArray};
