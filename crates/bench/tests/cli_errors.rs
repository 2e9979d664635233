//! Error paths of the `repro` CLI: bad ids, missing flag values, malformed
//! lists and unreadable repro files must fail fast with a usage exit code
//! and a message naming the problem, before any simulation starts.

use std::process::Command;

/// Run `repro` with `args`; returns the exit code and stderr.
fn repro(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    // The banners both modes print before their first simulation.
    assert!(
        !stderr.contains("oracle grid") && !stderr.contains("reproducing"),
        "{args:?} started a simulation: {stderr}"
    );
    (out.status.code().expect("exited normally"), stderr)
}

fn assert_fails(args: &[&str], code: i32, message: &str) {
    let (got, stderr) = repro(args);
    assert_eq!(got, code, "{args:?} exit code; stderr: {stderr}");
    assert!(
        stderr.contains(message),
        "{args:?}: stderr lacks {message:?}: {stderr}"
    );
}

#[test]
fn verify_seed_list_errors() {
    assert_fails(
        &["verify", "--seeds"],
        2,
        "--seeds needs a comma-separated list",
    );
    assert_fails(&["verify", "--seeds", "1,x"], 2, "bad seed list \"1,x\"");
}

#[test]
fn verify_replay_without_a_path() {
    assert_fails(&["verify", "--replay"], 2, "--replay needs a file path");
}

#[test]
fn verify_unknown_argument() {
    assert_fails(&["verify", "--bogus"], 2, "unknown argument \"--bogus\"");
}

#[test]
fn verify_replay_of_a_missing_file() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("missing.repro.json");
    let path = path.to_str().expect("utf-8 path");
    assert_fails(&["verify", "--replay", path], 1, "could not load");
}

#[test]
fn unknown_figure_id() {
    assert_fails(&["fig99"], 2, "unknown argument \"fig99\"");
}

#[test]
fn threads_without_a_value() {
    assert_fails(&["--threads"], 2, "--threads needs a value");
}

#[test]
fn crash_rate_out_of_range() {
    assert_fails(&["--crash-rate", "20", "e25"], 2, "out of range");
}

#[test]
fn trace_outside_e26() {
    assert_fails(&["--trace", "x.json", "fig12"], 2, "only applies to e26");
}
