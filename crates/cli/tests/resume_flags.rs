//! `dssd-cli run --resume FILE` rebuilds a snapshotted run without
//! tracing it or snapshotting it again, so it must refuse the telemetry
//! and snapshot flags with exit 1 and an error naming the flag, instead
//! of exiting 0 with no trace, no epoch series and no snapshot.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The run both invocations share: a durable dSSD run of 2 ms.
const RUN: [&str; 6] = ["run", "--arch", "dssd", "--ms", "2", "--durable"];

fn cli(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dssd-cli"))
        .args(RUN)
        .args(extra)
        .output()
        .expect("dssd-cli runs")
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dssd-cli-resume-{}-{name}", std::process::id()))
}

#[test]
fn resume_refuses_the_flags_it_would_drop() {
    let snap = temp("run.snap");
    let snap_arg = snap.display().to_string();
    let made = cli(&["--snapshot-at-ms", "0.9", "--snapshot-out", &snap_arg]);
    assert!(
        made.status.success(),
        "{}",
        String::from_utf8_lossy(&made.stderr)
    );

    let out = temp("out");
    let out_arg = out.display().to_string();
    let dropped: [(&str, &[&str]); 7] = [
        ("--trace-out", &["--trace-out", &out_arg]),
        ("--trace-window", &["--trace-window", "1"]),
        ("--trace-summary", &["--trace-summary"]),
        ("--epoch-out", &["--epoch-out", &out_arg]),
        ("--epoch-ms", &["--epoch-ms", "1"]),
        ("--snapshot-at-ms", &["--snapshot-at-ms", "1.5"]),
        ("--snapshot-out", &["--snapshot-out", &out_arg]),
    ];
    for (flag, args) in dropped {
        let got = cli(&[&["--resume", &snap_arg][..], args].concat());
        let stderr = String::from_utf8_lossy(&got.stderr);
        assert_eq!(got.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} cannot be combined with --resume")),
            "{flag}: {stderr}"
        );
        assert!(
            got.stdout.is_empty(),
            "{flag}: the refused run printed a report"
        );
        assert!(!out.exists(), "{flag}: the refused run wrote {out_arg}");
    }

    let resumed = cli(&["--resume", &snap_arg]);
    let _ = std::fs::remove_file(&snap);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        resumed.stdout,
        cli(&[]).stdout,
        "the resumed run diverged from the full run"
    );
}
