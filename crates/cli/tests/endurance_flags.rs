//! The endurance command's wear distribution and power-loss fill mean
//! must be numbers the simulator can draw from. NaN, infinite or
//! out-of-range values must fail with exit 1 and an error naming the
//! flag, not panic while arming power losses or print a column of
//! "0.00 TB".

use std::process::Command;

/// Runs `dssd-cli endurance` on a small device with `flag value` and
/// asserts it refused the flag with exit 1.
fn refuses(flag: &str, value: &str) {
    let cli = env!("CARGO_BIN_EXE_dssd-cli");
    let args = ["endurance", "--policy", "baseline", "--superblocks", "16", flag, value];
    let out = Command::new(cli).args(args).output().expect("dssd-cli runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(&format!("error: {flag}: `{value}`")), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn power_loss_fills() {
    refuses("--power-loss-fills", "NaN");
    refuses("--power-loss-fills", "-1");
}

#[test]
fn mean() {
    refuses("--mean", "NaN");
    refuses("--mean", "-1");
    refuses("--mean", "0");
    refuses("--mean", "inf");
}

#[test]
fn sigma() {
    refuses("--sigma", "inf");
    refuses("--sigma", "NaN");
    refuses("--sigma", "-1");
}
