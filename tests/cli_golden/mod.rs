//! What the five CLI goldens share: run the real `repro` binary, compare its
//! output with a committed snapshot and name the first line where they part.

use std::process::Command;

/// Runs `repro` with `args` and returns its stdout; a failed run fails the
/// test with repro's stderr.
fn repro<'a>(args: impl IntoIterator<Item = &'a str>) -> Vec<u8> {
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

/// Requires `repro <args> <target>` to print `golden`, the committed
/// `tests/golden/<target>_quick.json`, or `<target>_quick.txt` when `args`
/// ask for no JSON. A difference fails with the first divergent line — the
/// documents are hundreds of lines, and the interesting part is where they
/// split — and `why` the bytes must not move.
pub fn check_golden(args: &[&str], target: &str, golden: &str, why: &str) {
    let (format, ext) = if args.contains(&"json") {
        ("JSON", "json")
    } else {
        ("text", "txt")
    };
    let got =
        String::from_utf8(repro(args.iter().copied().chain([target]))).expect("repro emits UTF-8");
    if got != golden {
        let line = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or_else(|| got.lines().count().min(golden.lines().count()) + 1);
        panic!(
            "{target} quick {format} diverged from tests/golden/{target}_quick.{ext} at line \
             {line}.\n{why}; if this change is deliberate, regenerate the snapshot (see this \
             test's module docs)."
        );
    }
}
