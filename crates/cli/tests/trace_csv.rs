//! `dssd-cli trace --csv` on records no request can hold: the binary
//! must exit 1 with the decoder's line-numbered error, never panic
//! (exit 101) or replay a wrapped request.

use std::process::Command;

/// Runs `dssd-cli trace --csv FILE` on `csv` and returns the exit code
/// and stderr.
fn replay(name: &str, csv: &str) -> (Option<i32>, String) {
    let file = format!("dssd-cli-test-{}-{name}.csv", std::process::id());
    let path = std::env::temp_dir().join(file);
    std::fs::write(&path, csv).expect("temp dir is writable");
    let out = Command::new(env!("CARGO_BIN_EXE_dssd-cli"))
        .args(["trace", "--csv", &path.display().to_string(), "--ms", "1"])
        .output()
        .expect("dssd-cli runs");
    let _ = std::fs::remove_file(&path);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn out_of_range_records_exit_1_with_the_line() {
    let cases = [
        (
            "huge",
            "0,W,0,17592186044416\n",
            "line 1",
            "exceeds the 4294967295-byte limit",
        ),
        (
            "wrap",
            "0,R,0,4096\n0,W,18446744073709551615,4096\n",
            "line 2",
            "overflows u64",
        ),
    ];
    for (name, csv, line, why) in cases {
        let (code, stderr) = replay(name, csv);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains(line) && stderr.contains(why),
            "{name}: {stderr}"
        );
    }
}
