//! `repro` rejects bad command lines with a usage error, not a panic:
//! it prints `repro: <reason>` and the usage line to stderr and exits 2.
//! A run that cannot write its output prints `repro: <reason>` and
//! exits 1.

use std::process::Command;

/// Run `repro --no-cache` with `args` and check it failed as a usage
/// error whose reason contains `reason`.
fn rejects(args: &[&str], reason: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--no-cache")
        .args(args)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("repro: ") && stderr.contains(reason),
        "{args:?}: expected `repro: ...{reason}...`, got: {stderr}"
    );
    assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn zero_reps_is_a_usage_error() {
    rejects(
        &["--reps", "0", "fig4"],
        "--reps needs a positive integer, not '0'",
    );
}

#[test]
fn zero_arrivals_is_a_usage_error() {
    rejects(
        &["--arrivals", "0", "scale"],
        "--arrivals needs a positive integer, not '0'",
    );
}

#[test]
fn non_numeric_values_are_usage_errors() {
    rejects(&["--reps", "x"], "--reps needs a positive integer, not 'x'");
    rejects(
        &["--seed", "x"],
        "--seed needs a non-negative integer, not 'x'",
    );
}

#[test]
fn a_flag_without_its_value_is_a_usage_error() {
    for (flag, what) in [
        ("--reps", "a positive integer"),
        ("--seed", "a non-negative integer"),
        ("--json", "a directory"),
        ("--cache", "a directory"),
        ("--trace", "an output file"),
        ("--metrics", "an output file"),
        ("--arrivals", "a positive integer"),
    ] {
        rejects(&[flag], &format!("{flag} needs {what}"));
    }
}

/// Run `repro --no-cache` with `args` and check it failed with exit
/// status 1 and a reason containing `reason`, without a panic.
fn fails(args: &[&str], reason: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--no-cache")
        .args(args)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains(reason),
        "{args:?}: expected {reason}, got: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

/// A regular file in the temporary directory, unique to this process
/// and `tag`; no directory can be made below it.
fn regular_file(tag: &str) -> std::path::PathBuf {
    let file = std::env::temp_dir().join(format!("repro-cli-{}-{tag}", std::process::id()));
    std::fs::write(&file, b"").unwrap();
    file
}

#[test]
fn an_uncreatable_json_directory_is_a_usage_error() {
    let file = regular_file("json");
    let dir = file.join("json");
    rejects(
        &["--json", dir.to_str().unwrap(), "fig9"],
        "cannot create json directory",
    );
    std::fs::remove_file(&file).unwrap();
}

#[test]
fn an_unwritable_trace_or_metrics_file_fails_typed() {
    let file = regular_file("trace");
    for flag in ["--trace", "--metrics"] {
        let out = file.join("out.json");
        let out = out.to_str().unwrap();
        fails(&[flag, out], &format!("repro: cannot write {out}: "));
    }
    std::fs::remove_file(&file).unwrap();
}

#[test]
fn an_unwritable_json_file_fails_its_section() {
    // A directory where the section's JSON file should go.
    let dir = std::env::temp_dir().join(format!("repro-cli-{}-section", std::process::id()));
    let blocked = dir.join("fig09.json");
    std::fs::create_dir_all(&blocked).unwrap();
    fails(
        &["--json", dir.to_str().unwrap(), "fig9"],
        &format!("repro: fig9: cannot write {}: ", blocked.display()),
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_unopenable_cache_is_a_usage_error() {
    // A path below a regular file can never become a directory.
    let file = regular_file("cache");
    let cache = file.join("cache");
    // `--cache` after `--no-cache` turns the store back on.
    rejects(
        &["--cache", cache.to_str().unwrap(), "fig4"],
        "cannot open result cache",
    );
    std::fs::remove_file(&file).unwrap();
}
