#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `ddbm-experiments` — the reproduction harness for every table and figure
//! in the paper's evaluation (§4).
//!
//! * [`Profile`] selects the think-time grid and run lengths.
//! * [`Runner`] executes each batch of configurations in parallel, running
//!   every distinct configuration once and caching the reports, so figures
//!   that share sweeps (e.g. Figures 2–7) reuse each other's runs.
//! * [`figures::FIGURES`] is the table of every paper artifact and
//!   extension experiment, by id; [`figures::grid`] and [`figures::plot`]
//!   are the sweep and the figure assembly every builder shares.
//! * [`oracle`] runs the `ddbm-oracle` verification grid backing the
//!   `repro verify` CI gate.
//!
//! ```no_run
//! use ddbm_experiments::{figures, Profile, Runner};
//! let runner = Runner::new(0); // all cores
//! let profile = Profile::quick();
//! let (_, build) = figures::FIGURES.iter().find(|(id, _)| *id == "fig04").unwrap();
//! for fig in build(&runner, &profile) {
//!     println!("{}", fig.to_table());
//! }
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
