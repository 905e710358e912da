//! `dssd-cli validate` on hostile JSON: documents nested far deeper than
//! anything the simulator writes must fail with exit 1 and the decoder's
//! error, never overflow the stack (SIGABRT, exit 134), and service
//! counters too large to sum must not validate.

use std::process::Command;

/// Runs `dssd-cli validate --KIND FILE` on `doc` and returns the exit
/// code and stderr.
fn validate(kind: &str, name: &str, doc: &str) -> (Option<i32>, String) {
    let file = format!("dssd-cli-test-{}-{name}.json", std::process::id());
    let path = std::env::temp_dir().join(file);
    std::fs::write(&path, doc).expect("temp dir is writable");
    let out = Command::new(env!("CARGO_BIN_EXE_dssd-cli"))
        .args(["validate", &format!("--{kind}"), &path.display().to_string()])
        .output()
        .expect("dssd-cli runs");
    let _ = std::fs::remove_file(&path);
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn deeply_nested_documents_exit_1_with_an_error() {
    let deep = "[".repeat(200_000) + &"]".repeat(200_000);
    let cases = [
        ("trace", "bare", deep.clone()),
        ("trace", "events", format!("{{\"traceEvents\":{deep}}}")),
        ("epochs", "line", deep.clone()),
        ("service", "report", deep),
    ];
    for (kind, name, doc) in cases {
        let (code, stderr) = validate(kind, name, &doc);
        assert_eq!(code, Some(1), "--{kind} {name}: stderr {stderr}");
        assert!(stderr.contains("deeper than 128"), "--{kind} {name}: {stderr}");
    }
}

#[test]
fn service_counters_past_2_pow_53_exit_1() {
    // 2^63 completions plus 2^63 rejections wrapped to 0 in a u64 sum,
    // so this report once validated against its one submission.
    let n = 1u64 << 63;
    let doc = format!(
        "{{\"schema\":\"dssd-service-report-v1\",\"duration_ms\":1,\"tenants\":[{{\
         \"name\":\"a\",\"submitted\":1,\"completed\":{n},\"rejected\":{n},\"throttled\":0,\
         \"expired\":0,\"failed\":0,\"p50_us\":1,\"p95_us\":2,\"p99_us\":3,\"max_us\":4}}]}}"
    );
    let (code, stderr) = validate("service", "huge", &doc);
    assert_eq!(code, Some(1), "stderr {stderr}");
    assert!(stderr.contains("from 0 to 2^53"), "{stderr}");
}
