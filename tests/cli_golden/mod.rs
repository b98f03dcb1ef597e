//! What the CLI goldens share: run the real `repro` binary, compare its
//! output with a committed snapshot and name the first line where they part.

use std::process::Command;

/// Runs `repro` with `args` and returns its stdout; a failed run fails the
/// test with repro's stderr.
fn repro(args: &[&str]) -> Vec<u8> {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    assert!(
        output.status.success(),
        "repro exited with {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// Requires `repro <args>` to print the committed snapshot
/// `tests/golden/<file>`. A difference fails with the file's name and the
/// first divergent line — the documents are hundreds of lines, and the
/// interesting part is where they split — and `why` the bytes must not
/// move.
pub fn check_golden(args: &[&str], file: &str, why: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).expect("the golden snapshot is readable");
    let got = String::from_utf8(repro(args)).expect("repro emits UTF-8");
    if got != golden {
        let line = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or_else(|| got.lines().count().min(golden.lines().count()) + 1);
        panic!(
            "`repro {}` diverged from tests/golden/{file} at line {line}.\n{why}; if this \
             change is deliberate, regenerate the snapshot (see this test's module docs).",
            args.join(" ")
        );
    }
}
