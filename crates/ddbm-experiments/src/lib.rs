#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `ddbm-experiments` — the reproduction harness for every table and figure
//! in the paper's evaluation (§4).
//!
//! * [`Profile`] selects the think-time grid and run lengths.
//! * [`Runner`] executes configurations in parallel with memoization, so
//!   figures that share sweeps (e.g. Figures 2–7) reuse each other's runs.
//! * [`figures`] holds one builder per paper artifact; [`figures::all_figures`]
//!   regenerates everything.
//! * [`oracle`] runs the `ddbm-oracle` verification grid backing the
//!   `repro verify` CI gate.
//!
//! ```no_run
//! use ddbm_experiments::{figures, Profile, Runner};
//! let runner = Runner::new(0); // all cores
//! let profile = Profile::quick();
//! let fig = figures::fig04(&runner, &profile);
//! println!("{}", fig.to_table());
//! ```

pub mod chart;
pub mod extensions;
pub mod figures;
pub mod oracle;
pub mod profile;
pub mod runner;
pub mod table;

pub use chart::{render, ChartSize};
pub use profile::Profile;
pub use runner::{map_parallel, Runner};
pub use table::{FigureResult, Series};
