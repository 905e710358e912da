//! Whole-millisecond and MB/s flags are scaled to nanoseconds and bytes
//! per second. A value whose product does not fit a `u64` must fail with
//! exit 1 and an error naming the flag, not wrap to a short run (release)
//! or panic (debug).

use std::process::Command;

/// `u64::MAX / 1_000_000 + 1`: the smallest count whose product by a
/// million overflows.
const TOO_BIG: &str = "18446744073710";

/// Runs `dssd-cli args` and asserts it refused `flag` with exit 1.
fn refuses(args: &[&str], flag: &str) {
    let cli = env!("CARGO_BIN_EXE_dssd-cli");
    let out = Command::new(cli)
        .args(args)
        .output()
        .expect("dssd-cli runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("error: {flag}: `{TOO_BIG}`")),
        "{args:?}: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?} printed {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn run_ms() {
    refuses(&["run", "--arch", "baseline", "--ms", TOO_BIG], "--ms");
}

#[test]
fn sweep_ms() {
    refuses(&["sweep", "--arch", "baseline", "--ms", TOO_BIG], "--ms");
}

#[test]
fn trace_ms() {
    refuses(&["trace", "--arch", "baseline", "--ms", TOO_BIG], "--ms");
}

#[test]
fn crashpoints_ms() {
    refuses(&["crashpoints", "--seeds", "1", "--ms", TOO_BIG], "--ms");
}

#[test]
fn noc_ms() {
    refuses(&["noc", "--ms", TOO_BIG], "--ms");
}

#[test]
fn noc_load_mbps() {
    refuses(&["noc", "--ms", "1", "--load-mbps", TOO_BIG], "--load-mbps");
}

#[test]
fn epoch_ms() {
    refuses(
        &[
            "run",
            "--arch",
            "baseline",
            "--ms",
            "1",
            "--epoch-ms",
            TOO_BIG,
        ],
        "--epoch-ms",
    );
}

#[test]
fn trace_window() {
    let args = [
        "run",
        "--arch",
        "baseline",
        "--ms",
        "2",
        "--trace-window",
        TOO_BIG,
    ];
    refuses(&args, "--trace-window");
}
