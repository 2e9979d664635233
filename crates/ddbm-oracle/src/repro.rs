//! Replayable repro files (`.repro.json`).
//!
//! A repro file freezes everything a failing oracle run needs to happen
//! again: the full simulator [`Config`] (including the master seed and any
//! fault plan), the injected [`TestHooks`] defect, the (usually shrunk)
//! transaction script, and the violations that were observed. Because the
//! simulator is deterministic, `replay` reproduces the identical witness
//! stream and therefore the identical violations, on any machine.

use crate::{run_and_check, OracleReport};
use ddbm_config::{Config, ConfigError};
use ddbm_core::{OracleRecording, TestHooks, TxnTemplate};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Current repro file format version.
pub const REPRO_VERSION: u32 = 1;

/// See module docs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReproFile {
    /// Format version ([`REPRO_VERSION`]).
    pub version: u32,
    /// The full simulator configuration, seed and faults included.
    pub config: Config,
    /// The injected protocol defect (all-off for real bugs).
    #[serde(default)]
    pub hooks: TestHooks,
    /// The transaction script to replay, in submission order.
    pub templates: Vec<TxnTemplate>,
    /// Human-readable renderings of the violations this file reproduces.
    pub violations: Vec<String>,
}

impl ReproFile {
    /// Package a failing run for replay.
    pub fn new(
        config: Config,
        hooks: TestHooks,
        templates: Vec<TxnTemplate>,
        report: &OracleReport,
    ) -> ReproFile {
        ReproFile {
            version: REPRO_VERSION,
            config,
            hooks,
            templates,
            violations: report.violations.iter().map(|v| v.to_string()).collect(),
        }
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("repro files always serialize")
    }

    /// Parse from JSON, checking the format version.
    pub fn from_json(s: &str) -> io::Result<ReproFile> {
        let file: ReproFile = serde_json::from_str(s)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if file.version != REPRO_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "unsupported repro version {} (expected {REPRO_VERSION})",
                    file.version
                ),
            ));
        }
        Ok(file)
    }

    /// Write to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Read from `path`.
    pub fn load(path: &Path) -> io::Result<ReproFile> {
        ReproFile::from_json(&std::fs::read_to_string(path)?)
    }

    /// Re-run the frozen scenario and re-check it. The report's violations
    /// must match `self.violations` render-for-render on a faithful replay.
    pub fn replay(&self) -> Result<(OracleRecording, OracleReport), ConfigError> {
        run_and_check(
            self.config.clone(),
            Some(self.templates.clone()),
            self.hooks,
        )
    }

    /// Does a replay reproduce exactly the recorded violations?
    pub fn verify(&self) -> Result<bool, ConfigError> {
        let (_, report) = self.replay()?;
        let got: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
        Ok(got == self.violations)
    }
}
